"""Molpro-style FCIDUMP integral files.

The file starts with an ``&FCI`` namelist header carrying at least NORB and
NELEC (MS2 defaults to 0; ORBSYM and ISYM are accepted and ignored), closed
by ``&END`` or ``/``; NORB is at most 64, the orbitals a uint64
determinant mask holds, and NELEC and MS2 must name an (n_alpha, n_beta)
sector that fits in NORB orbitals.  Each body line is ``value i j k l``
with a finite value and 1-based orbital indices:

* ``i=j=k=l=0``      core / nuclear-repulsion energy
* ``k=l=0``          one-electron integral h(i,j)
* otherwise          two-electron integral (ij|kl) in chemist notation

Internally everything is 0-based.  Two-electron values are stored once per
8-fold-symmetric equivalence class under a canonical index tuple, and
``IntegralTable.dense_g`` unfolds them into the dense array that the
matrix-element kernel reads.  Repeated records of the core energy or an
integral, one- or two-electron and explicit zeros included, must agree
within 1e-10: the last one wins, with a warning that names its line.
"""

import functools
import io
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dets import MAX_ORBITALS
from .errors import (
    EmptyInput,
    IndexOutOfRange,
    MalformedHeader,
    NonNumericValue,
    TooLarge,
    UndecodableInput,
)

DUPLICATE_TOL = 1e-10


@dataclass
class IntegralTable:
    """One- and two-electron integrals of an active space, 0-based."""

    n_orbitals: int
    n_electrons: int
    ms2: int = 0
    core_energy: float = 0.0
    h: np.ndarray = None
    g: dict = field(default_factory=dict)

    def __post_init__(self):
        in_range = all(0 <= n <= self.n_orbitals for n in (self.n_alpha, self.n_beta))
        if (self.n_electrons + self.ms2) % 2 or not in_range:
            raise ValueError(
                f"no determinant has NELEC={self.n_electrons} and "
                f"MS2={self.ms2} in {self.n_orbitals} orbitals"
            )
        if self.h is None:
            self.h = np.zeros((self.n_orbitals, self.n_orbitals))
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != (self.n_orbitals, self.n_orbitals):
            raise ValueError("h must be n_orbitals x n_orbitals")

    @property
    def n_alpha(self):
        return (self.n_electrons + self.ms2) // 2

    @property
    def n_beta(self):
        return (self.n_electrons - self.ms2) // 2

    def set_h(self, p, q, value):
        self.h[p, q] = value
        self.h[q, p] = value

    def set_g(self, p, q, r, s, value):
        self.g[_canonical(p, q, r, s)] = value

    def get_g(self, p, q, r, s):
        """(pq|rs), honoring the 8 chemist-notation permutations."""
        return self.g.get(_canonical(p, q, r, s), 0.0)

    def dense_g(self):
        """(pq|rs) as a dense (n, n, n, n) array, each canonical entry of
        ``g`` unfolded to the eight permutations of its class."""
        n = self.n_orbitals
        dense = np.zeros((n, n, n, n))
        if self.g:
            p, q, r, s = np.array(list(self.g), dtype=np.intp).T
            values = np.fromiter(self.g.values(), dtype=float, count=len(self.g))
            for index in (
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ):
                dense[index] = values
        return dense


def _canonical(p, q, r, s):
    """Canonical representative of the chemist 8-fold symmetry class.

    (pq|rs) = (qp|rs) = (pq|sr) = (qp|sr) = (rs|pq) = (sr|pq) = (rs|qp) = (sr|qp)
    """
    pq = (p, q) if p >= q else (q, p)
    rs = (r, s) if r >= s else (s, r)
    return pq + rs if pq >= rs else rs + pq


def parse_fcidump(source):
    """Parse FCIDUMP text into an IntegralTable.

    ``source`` may be str, bytes, or a readable text/binary stream.
    """
    text = _as_text(source)
    lines = text.splitlines()
    if not text.strip():
        raise EmptyInput("no content", line_no=1)

    fields, header_end = _parse_header(lines)
    n_orb = _header_int(fields, "NORB")
    n_elec = _header_int(fields, "NELEC")
    ms2 = _header_int(fields, "MS2", default=0)
    if n_orb <= 0:
        raise MalformedHeader(f"NORB={n_orb} must be positive", line_no=1)
    if n_orb > MAX_ORBITALS:
        raise TooLarge(f"NORB={n_orb} is past the {MAX_ORBITALS}-orbital limit "
                       "of uint64 determinant masks", line_no=1)
    try:
        table = IntegralTable(n_orbitals=n_orb, n_electrons=n_elec, ms2=ms2)
    except ValueError as exc:
        raise MalformedHeader(str(exc), line_no=1) from None
    seen = {}  # value by canonical index: () core, (p, q) h, (p, q, r, s) g
    for line_no, raw in enumerate(lines[header_end:], start=header_end + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise NonNumericValue(
                f"expected 'value i j k l', got {stripped!r}", line_no=line_no
            )
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise NonNumericValue(f"bad value field {parts[0]!r}", line_no=line_no)
        try:
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError:
            raise NonNumericValue(
                f"bad index field in {stripped!r}", line_no=line_no
            ) from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise IndexOutOfRange(
                    f"orbital index {idx} outside 1..{n_orb}", line_no=line_no
                )
        if i == j == k == l == 0:
            name, key = "core energy", ()
            store = functools.partial(setattr, table, "core_energy")
        elif k == 0 and l == 0:
            if i == 0:
                raise IndexOutOfRange(
                    f"one-electron record with i=0 in {stripped!r}", line_no=line_no
                )
            if j == 0:
                # Orbital-energy record written by some programs; not part of
                # the Hamiltonian here.
                warnings.warn(
                    f"line {line_no}: ignoring orbital-energy record for i={i}",
                    stacklevel=2,
                )
                continue
            name, key, store = "h", (max(i, j) - 1, min(i, j) - 1), table.set_h
        elif (k == 0) != (l == 0) or i == 0 or j == 0:
            raise IndexOutOfRange(
                f"inconsistent zero indices in {stripped!r}", line_no=line_no
            )
        else:
            name, key = "g", _canonical(i - 1, j - 1, k - 1, l - 1)
            store = table.set_g
        old = seen.get(key)
        if old is not None and abs(old - value) > DUPLICATE_TOL:
            warnings.warn(
                f"line {line_no}: conflicting {name}{key or ''}: "
                f"{old!r} -> {value!r}",
                stacklevel=2,
            )
        seen[key] = value
        store(*key, value)
    return table


def _as_text(source):
    try:
        data = source if isinstance(source, (bytes, str)) else source.read()
        return data.decode("ascii") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        line_no = exc.object[:exc.start].count(b"\n") + 1
        raise UndecodableInput(
            f"byte {exc.object[exc.start]:#04x} is not {exc.encoding} text",
            line_no=line_no,
        ) from None


def _parse_header(lines):
    """The &FCI namelist as ``{KEY: [value tokens]}``, and its closing line.

    ``=`` and ``,`` separate tokens; the first token, and each token with a
    letter that does not read as a number, starts a key.  The header ends on
    the first line holding ``&END`` or ``/``, cut at ``&END`` if both.
    """
    if not lines or not lines[0].lstrip().upper().startswith("&FCI"):
        raise MalformedHeader("file does not begin with &FCI", line_no=1)
    fields, key = {}, None
    for line_no, raw in enumerate(lines, start=1):
        content = raw.strip()[len("&FCI") if line_no == 1 else 0:]
        end = re.search("&END", content, re.IGNORECASE) or re.search("/", content)
        content = content[:end.start() if end else None]
        for tok in content.replace("=", " ").replace(",", " ").split():
            if key is None or _is_key(tok):
                key = tok.upper()
                fields.setdefault(key, [])
            else:
                fields[key].append(tok)
        if end:
            return fields, line_no
    raise MalformedHeader("header never closed by &END or /", line_no=len(lines))


def _header_int(fields, key, default=None):
    """The one integer value of header ``key``; ``default`` if it is absent."""
    if key not in fields and default is None:
        raise MalformedHeader(f"header missing {key!r}", line_no=1)
    values = fields.get(key, [default])
    if len(values) != 1:
        fault = "given multiple values" if values else "has no value"
        raise MalformedHeader(f"{key} {fault}", line_no=1)
    try:
        return int(values[0])
    except ValueError:
        raise MalformedHeader(
            f"{key}={values[0]!r} is not an integer", line_no=1
        ) from None


def _is_key(tok):
    """A token with a letter that does not read as a number."""
    try:
        float(tok.replace("D", "E").replace("d", "e"))
        return False
    except ValueError:
        return any(c.isalpha() for c in tok)


def serialize_fcidump(table):
    """Render an IntegralTable back to FCIDUMP text (1-based, %.16e values)."""
    out = io.StringIO()
    out.write(
        f"&FCI NORB={table.n_orbitals},NELEC={table.n_electrons},"
        f"MS2={table.ms2},\n"
    )
    out.write(" ORBSYM=" + ",".join(["1"] * table.n_orbitals) + ",\n")
    out.write(" ISYM=1,\n")
    out.write("&END\n")
    for (p, q, r, s), value in sorted(table.g.items()):
        out.write(f"{value: .16e} {p + 1} {q + 1} {r + 1} {s + 1}\n")
    for p in range(table.n_orbitals):
        for q in range(p + 1):
            if table.h[p, q] != 0.0:
                out.write(f"{table.h[p, q]: .16e} {p + 1} {q + 1} 0 0\n")
    out.write(f"{table.core_energy: .16e} 0 0 0 0\n")
    return out.getvalue()


def table_summary(table):
    """Header fields plus integral counts (for the info subcommand)."""
    return {
        "n_orbitals": table.n_orbitals,
        "n_electrons": table.n_electrons,
        "ms2": table.ms2,
        "n_alpha": table.n_alpha,
        "n_beta": table.n_beta,
        "core_energy": table.core_energy,
        "n_one_electron": int(np.count_nonzero(table.h)),
        "n_two_electron_classes": len(table.g),
    }
