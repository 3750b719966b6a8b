"""Hamiltonian matrix elements between determinants, subspace matrices, and
eigensolvers.

Matrix elements follow the two-term determinant rules for a second-quantized
Hamiltonian with chemist-notation two-electron integrals,

    H = sum_pq h_pq E_pq + 1/2 sum_pqrs (pq|rs) [E_pq E_rs - delta_qr E_ps],

evaluated directly from occupation bitmasks.  One kernel serves the
subspace build, expansion, scoring and PT2: ``diagonal_elements`` and one
evaluator, ``pair_elements``, which takes (i, j) index pairs into uint64
mask arrays as a stream of blocks of any size and evaluates them
``PAIR_BLOCK`` at a time.  The pairs come from :mod:`qselci.substitutions`,
which leaves out every substitution the integrals make zero; only
``slater_condon`` (the kernel on one pair) and a subspace build whose
substitutions are estimated at more than a third of its pairs screen the
pairs i < j of their own rows instead.  The kernel reads ``h`` and
the dense ``(pq|rs)`` array of ``IntegralTable.dense_g``, which each
computation unfolds once.  It takes its signs from
:func:`qselci.dets.string_sign`, and tests pin it against a scalar per-pair
reference and a dense operator-matrix construction.

The subspace eigenproblem is an ordinary symmetric one (determinants are
orthonormal).  ``davidson_lowest`` is a Davidson solver with a diagonal
preconditioner and thick restarts.  It writes each basis vector and its
image ``A @ v`` once, as rows of two preallocated ``(DAVIDSON_MAX_BASIS,
dim)`` buffers, and fills one row and column of the projected matrix per
mat-vec; new directions are orthonormalized against the basis as one
matrix, twice, and LAPACK ``syevr`` returns only the lowest eigenpairs the
loop reads.  Each iteration is O(k N) for a basis of k vectors; results
agree to rounding with the stacked-list loop that tests/oracles.py keeps
as its reference.  ``fci_oracle`` enumerates a full sector and
diagonalizes it: below ``DENSE_CUTOFF`` determinants ``dense_lowest`` asks
LAPACK for the lowest eigenpair only.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

# enumerate_space stays importable from here: the benchmark's tests read it
from .dets import (
    ENUMERATION_CAP,
    Determinant,
    bitstrings,
    det_masks,
    determinants,
    enumerate_space,
    sector_masks,
    string_sign,
)
from .errors import (
    DuplicateDeterminant,
    MalformedWavefunction,
    NoConvergence,
    TooLarge,
)
from .substitutions import Substitutions, estimate_count

DENSE_CUTOFF = 2000
SPECTRUM_CAP = 2000
NORM_TOL = 1e-10

# Davidson: residual norm at convergence, iteration budget, basis size at
# which it restarts, Ritz vectors kept across a restart, and the floor on
# preconditioner denominators.
DAVIDSON_TOL = 1e-8
DAVIDSON_MAX_ITER = 300
DAVIDSON_MAX_BASIS = 30
DAVIDSON_RESTART_KEEP = 2
DAVIDSON_LEVEL_SHIFT = 1e-8


@dataclass
class SubspaceMatrix:
    """Electronic Hamiltonian projected onto determinant mask rows.

    ``matrix`` excludes the core energy, which is carried separately so the
    projection is independent of constant shifts.
    """

    masks: np.ndarray
    matrix: "scipy.sparse.csr_matrix"
    core_energy: float
    n_orbitals: int

    @property
    def dim(self):
        return len(self.masks)


@dataclass
class Wavefunction:
    """A normalized expansion over determinant mask rows with its
    variational energy.

    ``energy`` includes the core offset.
    """

    masks: np.ndarray
    coeffs: np.ndarray
    energy: float
    n_orbitals: int

    def __post_init__(self):
        self.masks = det_masks(self.masks, self.n_orbitals)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if len(self.coeffs) != len(self.masks):
            raise ValueError("coefficient/determinant length mismatch")
        norm = float(np.sum(self.coeffs**2))
        if not np.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"coefficients not normalized: sum of squares {norm}")

    @property
    def dets(self):
        """The determinants as a list, built on each access."""
        return determinants(self.masks)

    def to_json(self):
        coeffs = dict(zip(bitstrings(self.masks, self.n_orbitals),
                          self.coeffs.tolist()))
        return json.dumps(
            {
                "n_orbitals": self.n_orbitals,
                "energy": self.energy,
                "coefficients": coeffs,
            },
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text):
        """Parse the ``to_json`` form (str or bytes); any other content
        raises MalformedWavefunction."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise MalformedWavefunction(f"not JSON: {exc}") from None
        if not isinstance(data, dict) or not _WF_KEYS <= data.keys():
            raise MalformedWavefunction(
                "expected an object with keys " + ", ".join(sorted(_WF_KEYS))
            )
        n, coefficients = data["n_orbitals"], data["coefficients"]
        if type(n) is not int or n < 1:
            raise MalformedWavefunction(
                f"n_orbitals must be a positive integer, got {n!r}"
            )
        if not isinstance(coefficients, dict) or not all(
            map(_is_finite_number, [data["energy"], *coefficients.values()])
        ):
            raise MalformedWavefunction(
                "energy and coefficients must be finite numbers, the "
                "coefficients keyed by occupation string"
            )
        for s in coefficients:
            if len(s) != 2 * n or set(s) - {"0", "1"}:
                raise MalformedWavefunction(
                    f"{s!r} is not a {2 * n}-character occupation string"
                )
        items = sorted(coefficients.items())
        try:
            return cls(
                masks=det_masks(
                    [Determinant.from_bitstring(s) for s, _ in items]),
                coeffs=[c for _, c in items],
                energy=float(data["energy"]),
                n_orbitals=n,
            )
        except ValueError as exc:
            raise MalformedWavefunction(str(exc)) from None

    def check_table(self, table):
        """Raise MalformedWavefunction unless the expansion lives in the
        table's orbitals and (n_alpha, n_beta) sector."""
        sector = (table.n_alpha, table.n_beta)
        if self.n_orbitals != table.n_orbitals or np.any(
            np.bitwise_count(self.masks) != sector
        ):
            raise MalformedWavefunction(
                f"the wavefunction does not lie in the integral table's "
                f"{table.n_orbitals} orbitals and (n_alpha, n_beta) sector "
                f"{sector}"
            )


_WF_KEYS = {"coefficients", "energy", "n_orbitals"}


def _is_finite_number(value):
    """A JSON number (not a boolean) that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# Matrix elements, evaluated by numpy over uint64 occupation masks a block
# of determinant pairs at a time.  Each element is accumulated over the
# occupied spin orbitals in ascending order, alpha block first, the order
# the per-pair reference in tests/oracles.py sums in, so both give the same
# floats.
# ---------------------------------------------------------------------------

# Determinant pairs screened, and pairs evaluated, per numpy pass: the
# temporaries stay at a few MB instead of growing with the square of the
# number of determinants.
PAIR_BLOCK = 1 << 14

_ONE = np.uint64(1)


def _lowest(x):
    """Index of the lowest set bit of each mask (64 where the mask is 0)."""
    return np.bitwise_count((x & (~x + _ONE)) - _ONE).astype(np.intp)


def _occupied(masks):
    """Walk the set bits of each mask, lowest first: yields (orbital, on)
    per step, ``on`` marking the masks that still had a bit at that step."""
    while masks.any():
        on = masks != 0
        yield np.where(on, _lowest(masks), 0), on
        masks = masks & (masks - _ONE)


def diagonal_elements(alpha, beta, h, g):
    """<d|H|d> (no core energy) for each determinant given by its masks,
    from the one-electron array ``h`` and the dense two-electron ``g``;
    PAIR_BLOCK determinants at a time, which bounds the arrays of occupied
    orbitals held at once."""
    if len(alpha) > PAIR_BLOCK:
        return np.concatenate([diagonal_elements(a, b, h, g)
                               for a, b in _blocks([(alpha, beta)])])
    occ = [(p, on, s) for s, masks in enumerate((alpha, beta))
           for p, on in _occupied(masks)]
    e = np.zeros(len(alpha))
    for p, on, _ in occ:
        e = e + np.where(on, h[p, p], 0.0)
    for k, (p, on, spin) in enumerate(occ):
        for q, on2, spin2 in occ[k + 1:]:
            both = on & on2
            e = e + np.where(both, g[p, p, q, q], 0.0)
            if spin2 == spin:
                e = e - np.where(both, g[p, q, q, p], 0.0)
    return e


def _hop(src, tgt):
    """Hole, particle and sign of a one-orbital substitution src -> tgt
    within one spin channel."""
    hole = _lowest(src & ~tgt)
    part = _lowest(tgt & ~src)
    return hole, part, string_sign(src, (hole,), (part,))


def _single_values(src, tgt, other, alpha_channel, h, g):
    """Singles within one channel; ``other`` is the source's string in the
    other channel.  Beta operators cross the whole alpha string twice, so
    the phase needs only the channel's own string."""
    hole, part, sign = _hop(src, tgt)
    walks = [(src & tgt, True), (other, False)]
    if not alpha_channel:
        walks.reverse()  # the alpha block comes first
    e = h[part, hole]
    for masks, same_spin in walks:
        for i, on in _occupied(masks):
            e = e + np.where(on, g[part, hole, i, i], 0.0)
            if same_spin:
                e = e - np.where(on, g[part, i, i, hole], 0.0)
    return sign * e


def _same_spin_double_values(src, tgt, g):
    holes = src & ~tgt
    parts = tgt & ~src
    m, m2 = _lowest(holes), _lowest(holes & (holes - _ONE))
    a, b = _lowest(parts), _lowest(parts & (parts - _ONE))
    return string_sign(src, (m, m2), (a, b)) * (g[a, m2, b, m] - g[a, m, b, m2])


def _opposite_spin_double_values(xa, ya, xb, yb, g):
    m, a, sign_a = _hop(xa, ya)
    m2, b, sign_b = _hop(xb, yb)
    return sign_a * sign_b * g[a, m, b, m2]


def _pair_values(ya, yb, xa, xb, h, g):
    """<y|H|x> for distinct same-sector pairs at most a double apart."""
    ra = np.bitwise_count(xa ^ ya)
    rb = np.bitwise_count(xb ^ yb)
    out = np.empty(len(xa))
    k = (ra == 2) & (rb == 0)
    out[k] = _single_values(xa[k], ya[k], xb[k], True, h, g)
    k = (ra == 0) & (rb == 2)
    out[k] = _single_values(xb[k], yb[k], xa[k], False, h, g)
    k = ra == 4
    out[k] = _same_spin_double_values(xa[k], ya[k], g)
    k = rb == 4
    out[k] = _same_spin_double_values(xb[k], yb[k], g)
    k = (ra == 2) & (rb == 2)
    out[k] = _opposite_spin_double_values(xa[k], ya[k], xb[k], yb[k], g)
    return out


def _near_pairs(alpha, beta):
    """(i, j) index arrays of the rows i < j of a list of mask rows that
    are in the same per-spin sector and one or two substitutions apart,
    ordered by i then j.  About PAIR_BLOCK pairs are screened per pass."""
    sector = 65 * np.bitwise_count(alpha).astype(np.intp) + np.bitwise_count(beta)
    start, n = 0, len(alpha)
    while start < n:
        stop = min(n, start + max(1, PAIR_BLOCK // max(1, n - start - 1)))
        r, c = slice(start, stop), slice(start + 1, n)
        diff = np.bitwise_count(alpha[r, None] ^ alpha[None, c])
        diff += np.bitwise_count(beta[r, None] ^ beta[None, c])
        near = (diff > 0) & (diff <= 4) & (sector[r, None] == sector[None, c])
        near &= np.arange(start + 1, n) > np.arange(start, stop)[:, None]
        i, j = np.nonzero(near)
        yield i + start, j + start + 1
        start = stop


def _blocks(pairs):
    """Pairs of equal-length arrays, such as (i, j) index arrays, regrouped
    into PAIR_BLOCK-long blocks (the last may be shorter), in order."""
    held, n_held = [], 0
    for block in pairs:
        held.append(block)
        n_held += len(block[0])
        if n_held >= PAIR_BLOCK:  # one array is sliced, not copied
            i, j = held[0] if len(held) == 1 else map(np.concatenate, zip(*held))
            cut = n_held - n_held % PAIR_BLOCK
            for k in range(0, cut, PAIR_BLOCK):
                yield i[k:k + PAIR_BLOCK], j[k:k + PAIR_BLOCK]
            held, n_held = [(i[cut:], j[cut:])], n_held - cut
    if n_held:
        yield tuple(map(np.concatenate, zip(*held)))


def pair_elements(pairs, bra_alpha, bra_beta, ket_alpha, ket_beta, h, g):
    """The nonzero <bra_i|H|ket_j> over a stream of (i, j) index arrays of
    any length, of distinct same-sector pairs at most a double apart,
    evaluated PAIR_BLOCK at a time: ``(i, j, values)`` in the order given."""
    none = np.zeros(0, np.intp)
    rows, cols, vals = [none], [none], [np.zeros(0)]
    for i, j in _blocks(pairs):
        v = _pair_values(bra_alpha[i], bra_beta[i], ket_alpha[j], ket_beta[j],
                         h, g)
        keep = v != 0.0
        rows.append(i[keep])
        cols.append(j[keep])
        vals.append(v[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def slater_condon(d1, d2, table):
    """Matrix element <d1|H|d2> (electronic part, no core energy) of two
    Determinants, by the batched kernel on one pair.

    Zero when the determinants live in different per-spin particle sectors or
    differ by more than a double excitation.
    """
    alpha, beta = det_masks([d1, d2], table.n_orbitals).T
    h, g = table.h, table.dense_g()
    if d1 == d2:
        return float(diagonal_elements(alpha[:1], beta[:1], h, g)[0])
    # the sum of no element, or of the one pair's
    return float(pair_elements(_near_pairs(alpha, beta), alpha, beta, alpha,
                               beta, h, g)[2].sum())


def _generate(masks, h, g):
    """Whether a subspace build should generate its pairs rather than
    screen every pair: when screening takes more than one pass of
    PAIR_BLOCK pairs and the substitutions are estimated at most a third
    of the N**2 / 2 pairs.  The screen stays because it is the faster
    source on small dense sets, such as the 350-row sets that
    ``refine-dense8`` grows: generating them costs that op 8%, most of it
    in sorting the generated order's CSR rows."""
    pairs = len(masks) ** 2 / 2
    return pairs > PAIR_BLOCK and 3 * estimate_count(masks, h, g) <= pairs


def _generated_pairs(masks, order, h, g):
    """(i, j) index arrays of the rows i < j of a set that are an allowed
    substitution apart, each pair once; ``order`` sorts the rows by
    (alpha, beta), and the members' substitutions are generated in that
    order and found among the rows by binary search."""
    sets, ranks = zip(*(np.unique(s, return_inverse=True) for s in masks.T))
    keys = (ranks[0] * len(sets[1]) + ranks[1])[order]
    substitutions = Substitutions(masks, h, g)
    for key, member in substitutions.blocks(sets, PAIR_BLOCK, order,
                                            upper=True):
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        found = keys[at] == key
        row, member = order[at[found]], member[found]
        yield np.minimum(row, member), np.maximum(row, member)


def build_subspace(dets, table):
    """Project the Hamiltonian onto a determinant list or (N, 2) mask rows
    (sparse symmetric).

    Each pair of rows is evaluated once.  The pairs come from the set's own
    allowed substitutions, or from screening every pair where that is
    cheaper (``_generate``).
    """
    import scipy.sparse

    masks = det_masks(dets, table.n_orbitals)
    alpha, beta = masks.T
    order = np.lexsort((beta, alpha))
    same = np.flatnonzero(np.all(masks[order[1:]] == masks[order[:-1]], axis=1))
    if same.size:
        twice = Determinant(*masks[order[same[0]]].tolist())
        raise DuplicateDeterminant(f"{twice} appears more than once")
    size = len(masks)
    h, g = table.h, table.dense_g()
    if _generate(masks, h, g):
        pairs = _generated_pairs(masks, order, h, g)
    else:
        pairs = _near_pairs(alpha, beta)
    rows, cols, vals = pair_elements(pairs, alpha, beta, alpha, beta, h, g)
    diag = np.arange(size)
    matrix = scipy.sparse.csr_matrix(
        (
            np.concatenate([diagonal_elements(alpha, beta, h, g), vals, vals]),
            (np.concatenate([diag, rows, cols]), np.concatenate([diag, cols, rows])),
        ),
        shape=(size, size),
        dtype=float,
    )
    return SubspaceMatrix(
        masks=masks,
        matrix=matrix,
        core_energy=table.core_energy,
        n_orbitals=table.n_orbitals,
    )


def _canonical_sign(vec):
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def _nonempty_dim(subspace):
    """The subspace dimension; ValueError when it is 0, which no solver
    can diagonalize."""
    if subspace.dim == 0:
        raise ValueError("empty subspace")
    return subspace.dim


def dense_lowest(subspace):
    """Dense reference diagonalization of the lowest eigenpair only."""
    import scipy.linalg

    _nonempty_dim(subspace)
    dense = subspace.matrix.toarray()
    w, v = scipy.linalg.eigh(dense, subset_by_index=[0, 0])
    vec = _canonical_sign(v[:, 0])
    return Wavefunction(
        masks=subspace.masks,
        coeffs=vec,
        energy=float(w[0]) + subspace.core_energy,
        n_orbitals=subspace.n_orbitals,
    )


def davidson_lowest(subspace):
    """Lowest eigenpair by the Davidson method with a diagonal preconditioner.

    Deterministic: the starting vector is the unit vector on the smallest
    diagonal element, stalled search directions fall back to coordinate
    vectors in ascending-diagonal order, and the returned eigenvector sign is
    fixed so its largest-magnitude component is positive.  Raises
    NoConvergence (carrying the best iterate) after ``DAVIDSON_MAX_ITER``
    iterations.
    """
    A = subspace.matrix
    dim = _nonempty_dim(subspace)
    diag = A.diagonal()
    order = np.argsort(diag, kind="stable")
    max_basis = min(DAVIDSON_MAX_BASIS, dim)
    # Row k of V is basis vector k, row k of W its image A @ v_k, and
    # T[:n, :n] the projected matrix of the first n; extend writes each once.
    V, W = np.empty((max_basis, dim)), np.empty((max_basis, dim))
    T = np.empty((max_basis, max_basis))

    def extend(vec, n):
        V[n] = vec
        W[n] = A @ vec
        T[n, :n + 1] = T[:n + 1, n] = (V[:n + 1] @ W[n] + W[:n + 1] @ V[n]) / 2
        return n + 1

    v0 = np.zeros(dim)
    v0[order[0]] = 1.0
    n = extend(v0, 0)
    theta, x = float(diag[order[0]]), v0

    for _ in range(DAVIDSON_MAX_ITER):
        evals, evecs = _lowest_eigh(T[:n, :n], min(DAVIDSON_RESTART_KEEP, n))
        theta = float(evals[0])
        s = evecs[:, 0]
        x = s @ V[:n]
        r = s @ W[:n] - theta * x
        # converged, or the basis spans the whole space and the Ritz pair
        # is the eigenpair
        if np.linalg.norm(r) < DAVIDSON_TOL or n == dim:
            return Wavefunction(
                masks=subspace.masks,
                coeffs=_canonical_sign(x / np.linalg.norm(x)),
                energy=theta + subspace.core_energy,
                n_orbitals=subspace.n_orbitals,
            )
        if n >= max_basis:
            # the kept Ritz vectors are new arrays, so extend can overwrite
            # the rows they were made from
            kept, n = evecs.T @ V[:n], 0
            for vec in kept:
                vec = _orthonormalize(vec, V[:n])
                if vec is not None:
                    n = extend(vec, n)
        denom = theta - diag
        shift = DAVIDSON_LEVEL_SHIFT
        denom = np.where(np.abs(denom) < shift,
                         np.where(denom >= 0, shift, -shift), denom)
        z = _orthonormalize(r / denom, V[:n])
        if z is None:
            z = _fallback_direction(V[:n], order)
        n = extend(z, n)

    raise NoConvergence(
        f"Davidson did not reach |r| < {DAVIDSON_TOL} in {DAVIDSON_MAX_ITER} "
        "iterations",
        energy=theta + subspace.core_energy,
        vector=_canonical_sign(x / np.linalg.norm(x)),
        iterations=DAVIDSON_MAX_ITER,
    )


def _lowest_eigh(T, count):
    """The lowest ``count`` eigenpairs of a symmetric matrix of order up to
    ``DAVIDSON_MAX_BASIS``, eigenvalues ascending: the LAPACK ``syevr`` call
    (range "I", lower triangle) that ``scipy.linalg.eigh`` makes for
    ``subset_by_index=[0, count - 1]``, without its wrapper.  f2py's default
    workspace replaces eigh's queried one; at this order LAPACK takes the
    same unblocked paths with either, so the results are eigh's bit for
    bit."""
    from scipy.linalg import LinAlgError, get_lapack_funcs

    T = np.asarray_chkfinite(T)
    syevr = get_lapack_funcs("syevr", (T,))
    evals, evecs, _, _, info = syevr(T, compute_v=1, lower=1, range="I",
                                     iu=count)
    if info:
        raise LinAlgError(f"syevr failed with info {info}")
    return evals[:count], evecs


def _orthonormalize(vec, basis, threshold=1e-10):
    """``vec`` orthogonalized against the rows of ``basis`` by classical
    Gram-Schmidt, twice, and normalized; None below ``threshold``."""
    for _ in range(2):
        vec = vec - (basis @ vec) @ basis
    norm = np.linalg.norm(vec)
    if norm < threshold:
        return None
    return vec / norm


def _fallback_direction(basis, order):
    """The first unit vector, in ``order``, that keeps a norm of 1e-6
    against the rows of ``basis``.  With n < dim orthonormal rows the unit
    vectors' squared residuals sum to dim - n >= 1, so one always does."""
    for k in order:
        e = np.zeros(len(order))
        e[k] = 1.0
        z = _orthonormalize(e, basis, threshold=1e-6)
        if z is not None:
            return z


def fci_oracle(table, cap=ENUMERATION_CAP):
    """Ground state of the full (n_alpha, n_beta) sector of an integral table.

    Dense diagonalization below DENSE_CUTOFF determinants, Davidson above.
    Raises TooLarge when the sector exceeds ``cap``.
    """
    subspace = build_subspace(
        sector_masks(table.n_orbitals, table.n_alpha, table.n_beta, cap=cap),
        table,
    )
    if subspace.dim <= DENSE_CUTOFF:
        return dense_lowest(subspace)
    return davidson_lowest(subspace)


def spectral_halfwidth(subspace):
    """(E_max - E_min) / 2 of a subspace matrix (core shift cancels)."""
    import scipy.linalg

    if _nonempty_dim(subspace) > SPECTRUM_CAP:
        raise TooLarge(f"dense spectrum of dimension {subspace.dim} above "
                       f"cap {SPECTRUM_CAP}")
    w = scipy.linalg.eigvalsh(subspace.matrix.toarray())
    return float((w[-1] - w[0]) / 2)

