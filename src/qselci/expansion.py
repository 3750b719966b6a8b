"""Classical subspace growth through Hamiltonian coupling, plus a
second-order perturbative tail estimate.

The candidate pool around a wavefunction's determinant set S is every
spin-conserving single or double substitution of a member of S that is not
itself in S and has at least one nonzero Hamiltonian element back into S.
Candidates are scored by their summed coupling weight
``s_mu = sum_I |H_{mu I} c_I|``; those at or above a threshold (optionally
capped at the top k) join the set, and the enlarged projected problem is
re-solved.  The perturbative estimate uses the same pool with
state-specific denominators ``<mu|H|mu> - E_S``.  The pool comes from
the per-string tables of :mod:`qselci.substitutions`, which leave out every
substitution whose element the integrals make zero, so the pool holds only
candidates that can couple; one sort of the members' substitution keys
gives both the pool in ascending (alpha, beta) order and its
(candidate, member) pairs in the order the kernel of
:mod:`qselci.hamiltonian` evaluates them.  Each call unfolds the
two-electron integrals once, evaluates the pool's coupling into S once,
and takes the connected set, the scores and the PT2 numerators from it;
``score_candidates`` looks its candidates up in the pool, where one that
is not found couples to nothing.
The pool and candidates are (N, 2) uint64 mask rows; the public functions
return Determinant lists.
"""

from dataclasses import dataclass

import numpy as np

from . import hamiltonian
from .dets import Determinant, det_masks, determinants, rank_order, row_keys
from .errors import TooLarge
from .hamiltonian import (
    build_subspace,
    davidson_lowest,
    diagonal_elements,
    pair_elements,
)
from .substitutions import Substitutions, move_counts, runs

DENOMINATOR_TOL = 1e-8
# Generated (candidate, member) pairs at most, counted before any is built
# or screened: about 90 B each at the peak (tracemalloc), so a run at the cap
# stays under 2 GiB.  Every ``key << bits | member``, ``bits`` the bit length
# of |S| - 1, must lie below _KEY_RANGE (int64).
MAX_PAIRS = 1 << 24
_KEY_RANGE = 1 << 63


def _generated_pairs(psi, h, g):
    """The pool as mask rows and its (candidate, member) index pairs.  A
    substitution's key is ``alpha_rank * |B| + beta_rank`` in the sorted
    sets A and B of the strings reached; TooLarge past MAX_PAIRS pairs or
    where ``key << bits | member`` would overflow int64."""
    size = len(psi.masks)
    singles, doubles = move_counts(psi.masks, len(h))
    total = int(singles.sum() + doubles.sum() + singles[:, 0] @ singles[:, 1])
    if total > MAX_PAIRS:
        raise TooLarge(f"{total} substitutions exceed the cap of {MAX_PAIRS}")
    substitutions = Substitutions(psi.masks, h, g)
    sets = [substitutions.reached()] * 2
    width, bits = len(sets[1]), (size - 1).bit_length()
    if len(sets[0]) * width << bits > _KEY_RANGE:
        raise TooLarge(f"pool keys of {size} determinants overflow int64")
    entries = np.sort(np.concatenate([  # by key, then member
        key << bits | member for key, member in
        substitutions.blocks(sets, hamiltonian.PAIR_BLOCK, np.arange(size))]))
    keys = entries >> bits
    members = [np.searchsorted(s, m) for s, m in zip(sets, psi.masks.T)]
    outside = ~np.isin(keys, members[0] * width + members[1])
    pool, rows = runs(keys[outside])
    return (np.column_stack([sets[0][pool // width], sets[1][pool % width]]),
            rows, entries[outside] & (1 << bits) - 1)


def _connected_coupling(psi, h, g):
    """The connected set with its coupling into psi's set, evaluated once:
    (candidates, mu, I, value), mu indexing the returned candidates."""
    pool, rows, cols = _generated_pairs(psi, h, g)
    rows, cols, vals = pair_elements([(rows, cols)], *pool.T, *psi.masks.T,
                                     h, g)
    connected, mu = runs(rows)
    return pool[connected], mu, cols, vals


def connected_set(psi, table):
    """All sector-preserving single/double substitutions of psi's set that
    lie outside it and couple to it through at least one nonzero element.

    Returned in ascending (alpha, beta) bitmask order.
    """
    return determinants(_connected_coupling(psi, table.h, table.dense_g())[0])


def _coupling_sums(rows, weights, n):
    # bincount adds each row's weights one by one in array order, which is
    # psi.masks order within a row: the sums, and so the score ties, come out
    # as a sequential loop over psi's set would give them.
    return np.bincount(rows, weights=weights, minlength=n)


def _connected_scores(psi, table):
    """The connected set and its candidates' summed coupling weights."""
    pool, rows, cols, vals = _connected_coupling(psi, table.h, table.dense_g())
    return pool, _coupling_sums(rows, np.abs(vals * psi.coeffs[cols]),
                                len(pool))


def _ranked_scores(candidates, scores):
    """Candidate mask rows and their scores, best first."""
    order = rank_order(candidates, scores)
    return candidates[order], scores[order]


def score_candidates(psi, candidates, table):
    """Summed coupling weights s_mu = sum_I |H_{mu I} c_I| of determinants
    outside psi's set, as (determinant, score) pairs sorted by descending
    score rounded to 12 decimals, ascending (alpha, beta) bitmasks breaking
    ties.  A candidate that does not couple to the set scores 0.0; one
    inside the set raises ValueError."""
    masks = det_masks(candidates, table.n_orbitals)
    pool, scores = _connected_scores(psi, table)
    wanted, members, pool_rows = map(row_keys, (masks, psi.masks, pool))
    inside = np.flatnonzero(np.isin(wanted, members))
    if inside.size:
        raise ValueError(f"{Determinant(*masks[inside[0]].tolist())} lies "
                         "in the wavefunction's set")
    # an index past the pool's end (any, for an empty pool) reads the 0.0
    scores = np.append(scores, 0.0)[np.searchsorted(pool_rows, wanted)]
    scores[~np.isin(wanted, pool_rows)] = 0.0
    ranked, scores = _ranked_scores(masks, scores)
    return list(zip(determinants(ranked), scores.tolist()))


@dataclass
class ExpansionResult:
    added: list
    scores: list
    energy_before: float
    energy_after: float
    wavefunction_after: object

    @property
    def n_added(self):
        return len(self.added)


def expand_and_rediagonalize(psi, table, tau, top_k=None):
    """Grow the determinant set by coupling weight and re-solve.

    Candidates scoring at or above ``tau`` are added (all of them when
    ``tau`` is 0), optionally truncated to the ``top_k`` best.  When no
    candidate qualifies the input wavefunction is returned unchanged with
    an empty ``added`` list.  The re-solved energy can only stay equal or
    go down, because the old set is a subset of the new one.
    """
    if not tau >= 0:
        raise ValueError(f"threshold tau must be nonnegative, got {tau}")
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be nonnegative, got {top_k}")
    ranked, scores = _ranked_scores(*_connected_scores(psi, table))
    # scores descend, so the qualifying candidates lead
    n_selected = int(np.count_nonzero(scores >= tau))
    if top_k is not None:
        n_selected = min(n_selected, int(top_k))
    added = ranked[:n_selected]
    wf = psi
    if n_selected:
        wf = davidson_lowest(build_subspace(np.concatenate([psi.masks, added]), table))
    return ExpansionResult(
        added=determinants(added),
        scores=scores[:n_selected].tolist(),
        energy_before=psi.energy,
        energy_after=wf.energy,
        wavefunction_after=wf,
    )


@dataclass
class PT2Result:
    delta_e: float
    n_external: int
    n_skipped: int


def en_pt2(psi, table):
    """Second-order energy correction with state-specific denominators.

    delta_e = -sum_mu (sum_I H_{mu I} c_I)^2 / (<mu|H|mu> - E_S), summed
    over the connected set.  Terms whose denominator is below the
    tolerance are skipped and counted rather than allowed to blow up.
    The input wavefunction is left untouched.
    """
    h, g = table.h, table.dense_g()
    candidates, rows, cols, vals = _connected_coupling(psi, h, g)
    numerators = _coupling_sums(rows, vals * psi.coeffs[cols], len(candidates))
    e_mu = diagonal_elements(*candidates.T, h, g) + table.core_energy
    denominators = e_mu - psi.energy
    skipped = np.abs(denominators) < DENOMINATOR_TOL  # a NaN is kept
    terms = numerators[~skipped] ** 2 / denominators[~skipped]
    # cumsum adds in candidate order (np.sum would add pairwise), and
    # 0.0 - x gives +0.0 for a zero sum
    delta = 0.0 - float(np.cumsum(terms)[-1]) if terms.size else 0.0
    return PT2Result(delta_e=delta, n_external=len(candidates),
                     n_skipped=int(skipped.sum()))
