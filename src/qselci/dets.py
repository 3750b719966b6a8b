"""Slater determinants as spin-resolved bitmasks, and the excitation algebra
connecting them.

Conventions used throughout the package:

* A determinant stores one integer bitmask per spin channel; bit ``p`` of
  ``alpha`` (``beta``) set means spatial orbital ``p`` holds an alpha (beta)
  electron.  ``Determinant`` is a named ``(alpha, beta)`` tuple of Python
  ints of any width: one mask row.  A set of determinants is an (N, 2)
  uint64 array of such rows, so it takes at most 64 orbitals; ``det_masks``
  and ``determinants`` convert between the two forms, and ``bitstrings``
  gives the rows' text form.  ``rank_order`` is the one rule that ranks
  rows by a float weight: descending weight rounded to 12 decimals, then
  ascending (alpha, beta).
* Spin orbitals are indexed in blocked order: alpha orbitals occupy indices
  ``0 .. n-1`` and beta orbitals ``n .. 2n-1`` for ``n`` spatial orbitals.
  This same index is the qubit index after the fermion-to-qubit mapping and
  the character position in the text bitstring form (orbital 0 leftmost,
  alpha block first).
* A determinant is the product of creation operators in ascending
  spin-orbital index applied to the vacuum.  Annihilating or creating spin
  orbital ``k`` on an occupation ``x`` therefore picks up the sign
  ``(-1)**popcount(x below k)``.
* A bare excitation-operator string is applied as: annihilations in
  ascending spin-orbital order first, then creations in ascending order.
  ``ExcitationOp.phase`` is the sign that makes ``phase * string |source> =
  +|target>``.
* ``string_sign`` is the one place that sign rule is written; the
  excitation algebra, the circuit simulator and the matrix-element kernel
  all take their signs from it.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import TooLarge, TooManyQubits

ENUMERATION_CAP = 10**7
MAX_QUBITS = 64  # the width of a uint64 basis index
MAX_ORBITALS = 64  # the width of a uint64 determinant mask
# _BELOW[k]: the uint64 mask of the bits below bit k, for k = 0 .. 64
_BELOW = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)
_ROW = np.dtype([("alpha", np.uint64), ("beta", np.uint64)])


class Determinant(NamedTuple):
    """Occupation bitmasks per spin channel (bit p = spatial orbital p)."""

    alpha: int
    beta: int

    @property
    def n_alpha(self):
        return self.alpha.bit_count()

    @property
    def n_beta(self):
        return self.beta.bit_count()

    def to_index(self, n_orbitals):
        """Basis index: bit s of the index = occupation of spin orbital s."""
        return self.alpha | (self.beta << n_orbitals)

    @classmethod
    def from_index(cls, index, n_orbitals):
        mask = (1 << n_orbitals) - 1
        return cls(alpha=index & mask, beta=(index >> n_orbitals) & mask)

    def to_bitstring(self, n_orbitals):
        """Text form: 2n chars, alpha block then beta block, orbital 0 first."""
        return bitstring_of_index(self.to_index(n_orbitals), 2 * n_orbitals)

    @classmethod
    def from_bitstring(cls, s):
        if len(s) % 2 or set(s) - {"0", "1"}:
            raise ValueError(f"not a spin-blocked occupation string: {s!r}")
        return cls.from_index(index_of_bitstring(s), len(s) // 2)


def bitstring_of_index(index, n_qubits):
    """The text form of a basis index: character k is bit k (qubit k)."""
    return format(index, f"0{n_qubits}b")[::-1]


def index_of_bitstring(s):
    return int(s[::-1], 2)


def check_qubit_count(n_qubits):
    """TooManyQubits past the 64 qubits a uint64 basis index holds."""
    if n_qubits > MAX_QUBITS:
        raise TooManyQubits(
            f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit limit")


def basis_indices(index, n_qubits):
    """``index`` as a uint64 array of basis indices of an ``n_qubits``
    register (``check_qubit_count`` first; ValueError if one is at or past
    2^n_qubits; a negative int wraps past it)."""
    check_qubit_count(n_qubits)
    index = np.asarray(index).astype(np.uint64, copy=False)
    if index.size and int(index.max()) >> n_qubits:
        raise ValueError(f"basis index {int(index.max())} is outside the "
                         f"{n_qubits}-qubit register")
    return index


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def hartree_fock(n_orbitals, n_alpha, n_beta):
    """Aufbau reference: lowest n_alpha / n_beta orbitals occupied."""
    if n_alpha > n_orbitals or n_beta > n_orbitals:
        raise ValueError("more electrons than orbitals in a spin channel")
    return Determinant(alpha=(1 << n_alpha) - 1, beta=(1 << n_beta) - 1)


def det_masks(dets, n_orbitals=MAX_ORBITALS):
    """The (N, 2) uint64 ``[alpha, beta]`` mask rows of a determinant list;
    uint64 mask rows pass through unchanged, and other integer rows, an
    array or a list of exact integers of any size, are converted.

    Raises TooLarge when ``n_orbitals`` or an occupied orbital lies past
    the 64 orbitals a uint64 mask holds, and ValueError for rows that are
    not (N, 2) nonnegative integers or naming the first determinant with
    an orbital past ``n_orbitals`` (those of the integrals or the
    wavefunction that holds the rows).
    """
    if n_orbitals > MAX_ORBITALS:
        raise TooLarge(f"{n_orbitals} orbitals is past the {MAX_ORBITALS}-"
                       "orbital limit of uint64 determinant masks")
    if not isinstance(dets, np.ndarray):
        dets = np.array(list(dets) or np.empty((0, 2)), object)
    kind = dets.dtype.kind
    exact = kind in "iu" or kind == "O" and all(
        issubclass(t, (int, np.integer)) and t is not bool
        for t in set(map(type, dets.flat)))
    if dets.shape[1:] != (2,) or not exact or kind != "u" and (dets < 0).any():
        raise ValueError("mask rows must be an (N, 2) array of nonnegative "
                         f"integers, got {dets.dtype} of shape {dets.shape}")
    masks = (np.column_stack([_uint64(c) for c in dets.T]) if kind == "O"
             else dets.astype(np.uint64, copy=False))
    past = np.flatnonzero(np.any(masks > _BELOW[n_orbitals], axis=1))
    if past.size:
        raise ValueError(f"{Determinant(*masks[past[0]].tolist())} occupies "
                         f"an orbital past n_orbitals = {n_orbitals}")
    return masks


def row_keys(masks):
    """One structured (alpha, beta) value per (N, 2) uint64 mask row, which
    sorts, searches and matches as the row does."""
    return np.ascontiguousarray(masks).view(_ROW)[:, 0]


def _uint64(masks):
    try:
        return np.fromiter(masks, np.uint64, len(masks))
    except OverflowError:
        raise TooLarge(
            "a determinant occupies an orbital past the "
            f"{MAX_ORBITALS}-orbital limit of uint64 determinant masks"
        ) from None


def determinants(masks):
    """The Determinant list of (N, 2) mask rows."""
    return list(map(Determinant, *masks.T.tolist()))


def bitstrings(masks, n_orbitals):
    """The occupation strings (``Determinant.to_bitstring``) of (N, 2) mask
    rows."""
    return [bitstring_of_index(a | b << n_orbitals, 2 * n_orbitals)
            for a, b in masks.tolist()]


def rank_order(masks, weight):
    """Positions of (N, 2) mask rows by descending ``weight`` rounded to 12
    decimals, ties broken by ascending (alpha, beta) bitmasks: the one
    ranking of determinants by a float.  Weights that differ only in their
    last bits, as symmetry-equivalent amplitudes do, rank by bitmask."""
    return np.lexsort((masks[:, 1], masks[:, 0], -np.round(weight, 12)))


def sector_masks(n_orbitals, n_alpha, n_beta, cap=ENUMERATION_CAP):
    """Mask rows of the whole (n_alpha, n_beta) sector, in ascending
    ``(alpha, beta)`` order.

    Raises TooLarge if the exact count C(n,na)*C(n,nb) exceeds ``cap``.
    """
    from math import comb

    count = comb(n_orbitals, n_alpha) * comb(n_orbitals, n_beta)
    if count > cap:
        raise TooLarge(
            f"sector ({n_alpha},{n_beta}) in {n_orbitals} orbitals has "
            f"{count} determinants, above the cap {cap}"
        )
    alphas, betas = (_uint64(occupation_strings(n_orbitals, k))
                     for k in (n_alpha, n_beta))
    return np.column_stack([np.repeat(alphas, len(betas)),
                            np.tile(betas, len(alphas))])


def enumerate_space(n_orbitals, n_alpha, n_beta):
    """``sector_masks`` as a Determinant list."""
    return determinants(sector_masks(n_orbitals, n_alpha, n_beta))


def occupation_strings(n_orbitals, n_electrons):
    """Every ``n_orbitals``-bit mask with ``n_electrons`` bits set,
    ascending."""
    return sorted(_mask(c) for c in combinations(range(n_orbitals), n_electrons))


def _mask(orbitals):
    m = 0
    for p in orbitals:
        m |= 1 << p
    return m


def string_sign(x, annihilated, created):
    """Sign an operator string picks up on occupation ``x``: annihilate
    the ``annihilated`` spin orbitals, then create the ``created`` ones,
    each in the order given, every operator crossing the occupied spin
    orbitals below it, wherever the string does not destroy ``x``.

    Closed form (-1)**(popcount(x & mask) + const), given for any ``x``:
    ``mask`` XORs the operators' below-masks, and ``const`` counts, for
    each operator, the earlier operators below it.  Each of those has
    flipped one bit under it by the time it acts, which shifts its count
    by one either way, so mod 2 it does not depend on ``x``; only its
    parity, ``odd``, is kept.

    ``x`` is either a Python int of any width with int orbitals, giving +1
    or -1, or a uint64 array with int orbitals or arrays of per-element
    orbitals, giving an int8 array of +1 and -1.
    """
    wide = not isinstance(x, np.ndarray)
    ops = (*annihilated, *created)
    mask, odd = 0, False
    for i, k in enumerate(ops):
        mask ^= (1 << k) - 1 if wide else _BELOW[k]
        for j in ops[:i]:
            odd ^= j < k
    if wide:
        return -1 if ((x & mask).bit_count() ^ odd) & 1 else 1
    return 1 - 2 * ((np.bitwise_count(x & mask) ^ odd) & 1).astype(np.int8)


def excitation_rank(d1, d2):
    """Number of orbital substitutions between two same-sector determinants."""
    return ((d1.alpha ^ d2.alpha).bit_count() + (d1.beta ^ d2.beta).bit_count()) // 2


@dataclass(frozen=True)
class ExcitationOp:
    """A bare excitation-operator string between two determinants.

    ``annihilated`` / ``created`` hold blocked spin-orbital indices in
    ascending order; ``phase`` is the sign making ``phase * string |source>``
    equal ``+|target>`` under the module's application convention.
    """

    n_orbitals: int
    annihilated: tuple
    created: tuple
    phase: int

    def __post_init__(self):
        orbitals = self.annihilated + self.created
        if len(set(orbitals)) != len(orbitals):
            raise ValueError(
                "annihilated and created spin orbitals must be distinct"
            )
        if len(self.annihilated) != len(self.created):
            raise ValueError("annihilated and created counts must be equal")
