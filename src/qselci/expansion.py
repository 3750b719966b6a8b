"""Classical subspace growth through Hamiltonian coupling, plus a
second-order perturbative tail estimate.

The candidate pool around a wavefunction's determinant set S is every
spin-conserving single or double substitution of a member of S that is not
itself in S and has at least one nonzero Hamiltonian element back into S.
Candidates are scored by their summed coupling weight
``s_mu = sum_I |H_{mu I} c_I|``; those at or above a threshold (optionally
capped at the top k) join the set, and the enlarged projected problem is
re-solved.  The perturbative estimate uses the same pool with
state-specific denominators ``<mu|H|mu> - E_S``.  Each call unfolds the
two-electron integrals once, evaluates the pool's coupling block into S
once with the batched kernel of :mod:`qselci.hamiltonian`, and takes the
connected set, the scores and the PT2 numerators from it.  The pool and
candidates are (N, 2) uint64 mask rows; the public functions return
Determinant lists.
"""

from dataclasses import dataclass
from itertools import combinations, product, repeat

import numpy as np

from .dets import det_masks, determinants, rank_order
from .hamiltonian import (
    build_subspace,
    coupling_elements,
    davidson_lowest,
    diagonal_elements,
)

DENOMINATOR_TOL = 1e-8


def _substitutions(mask, n_orbitals, rank):
    """Every mask reached from ``mask`` by moving ``rank`` of its electrons
    into empty orbitals."""
    occupied = [1 << p for p in range(n_orbitals) if (mask >> p) & 1]
    empty = [1 << p for p in range(n_orbitals) if not (mask >> p) & 1]
    removed = [mask ^ sum(holes) for holes in combinations(occupied, rank)]
    added = [sum(particles) for particles in combinations(empty, rank)]
    return [r | a for r in removed for a in added]


def _substitution_pool(psi, n):
    """Mask rows of every sector-preserving single or double substitution of
    a member of psi's set that lies outside it, in ascending (alpha, beta)
    order."""
    seen = set()
    members = list(map(tuple, psi.masks.tolist()))
    for a, b in members:
        alpha_singles = _substitutions(a, n, 1)
        beta_singles = _substitutions(b, n, 1)
        seen.update(zip(alpha_singles, repeat(b)))
        seen.update(zip(repeat(a), beta_singles))
        seen.update(zip(_substitutions(a, n, 2), repeat(b)))
        seen.update(zip(repeat(a), _substitutions(b, n, 2)))
        seen.update(product(alpha_singles, beta_singles))
    seen.difference_update(members)
    return np.array(sorted(seen), dtype=np.uint64).reshape(-1, 2)


def _connected_coupling(psi, h, g):
    """The connected set with its coupling into psi's set, evaluated once:
    (candidates, mu, I, value), mu indexing the returned candidates."""
    pool = _substitution_pool(psi, len(h))
    rows, cols, vals = coupling_elements(*pool.T, *psi.masks.T, h, g)
    connected, mu = np.unique(rows, return_inverse=True)
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


def _ranked_scores(psi, candidates, rows, cols, vals):
    """Candidate mask rows and their scores, best first."""
    weights = np.abs(vals * psi.coeffs[cols])
    scores = _coupling_sums(rows, weights, len(candidates))
    order = rank_order(candidates, scores)
    return candidates[order], scores[order]


def score_candidates(psi, candidates, table):
    """Summed coupling weights s_mu = sum_I |H_{mu I} c_I| of determinants
    outside psi's set, as (determinant, score) pairs sorted descending with
    ascending (alpha, beta) bitmask order breaking ties."""
    masks = det_masks(candidates)
    coupling = coupling_elements(*masks.T, *psi.masks.T, table.h,
                                 table.dense_g())
    ranked, scores = _ranked_scores(psi, masks, *coupling)
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
    coupling = _connected_coupling(psi, table.h, table.dense_g())
    ranked, scores = _ranked_scores(psi, *coupling)
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
