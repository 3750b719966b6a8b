"""Wavefunction diagnostics over the determinant-weight distribution.

All quantities work on the classical distribution p_k = c_k^2 over the
retained determinants (not on one-orbital reduced density matrices), so the
pairwise mutual information mixes classical correlation with entanglement
contributions.  Everything is in natural-log units (nats); the single
spin-orbital entropy is therefore capped at ln 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dets import rank_order


def _xlogx(x):
    """x ln x per element, with 0 ln 0 = 0 (scipy.special.xlogy(x, x)).

    math.log rather than np.log: numpy's vectorized log can differ from
    the C library's in the last bit.  The arrays here are a few entries
    per spin orbital.
    """
    values = [0.0 if v == 0 else v * math.log(v) for v in np.ravel(x).tolist()]
    return np.array(values).reshape(np.shape(x))


def _occupations(psi):
    """(occ, weights, p, s): the occupation matrix (rows = determinants,
    columns = 2n spin orbitals, entries in {0,1}), the c^2 weights, and per
    spin orbital the occupation probability and binary entropy."""
    orbitals = np.arange(psi.n_orbitals, dtype=np.uint64)
    bits = (psi.masks[:, :, None] >> orbitals) & np.uint64(1)
    occ = bits.reshape(len(psi.masks), -1).astype(float)
    weights = np.asarray(psi.coeffs, dtype=float) ** 2
    p = np.clip(occ.T @ weights, 0.0, 1.0)
    return occ, weights, p, -(_xlogx(p) + _xlogx(1.0 - p))


def rank_histogram(psi, reference):
    """Weight c^2 per excitation rank relative to a reference, a
    ``Determinant`` or an ``[alpha, beta]`` mask row: an array indexed by
    rank, covering 0 through the highest rank present."""
    ref = np.asarray(reference, dtype=np.uint64)
    ranks = np.bitwise_count(psi.masks ^ ref).sum(axis=1) // 2
    # bincount adds each rank's weights in determinant order, as a loop would
    return np.bincount(ranks, weights=np.asarray(psi.coeffs, dtype=float) ** 2)


@dataclass
class AnalysisReport:
    occupations: np.ndarray
    entropies: np.ndarray
    mi: np.ndarray
    rank_histogram: np.ndarray

    def to_json_dict(self):
        return {
            "occupations": self.occupations.tolist(),
            "entropies": self.entropies.tolist(),
            "mutual_information": self.mi.tolist(),
            "rank_histogram": self.rank_histogram.tolist(),
        }

    def mi_edge_list(self, threshold=0.0):
        """(i, j, weight) rows for every pair with I above the threshold,
        row by row, suitable for graph plotting tools."""
        i, j = np.triu_indices(len(self.mi), 1)
        weight = self.mi[i, j]
        keep = weight > threshold
        return list(zip(i[keep].tolist(), j[keep].tolist(),
                        weight[keep].tolist()))


def analyze(psi, reference=None):
    """Full diagnostic pass over one occupation matrix; the reference for
    the rank histogram defaults to the first determinant of
    ``dets.rank_order`` by weight.

    ``occupations[i]`` is the probability that spin orbital i is occupied
    under the c^2 distribution and ``entropies[i]`` its binary entropy.
    ``mi`` is the pairwise mutual information: for each pair i < j the
    joint occupation distribution over the four sectors (00, 01, 10, 11)
    is tallied from the determinant weights, its terms are added from 00
    to 11, and I = s_i + s_j - s_ij, with negative rounding residue within
    1e-12 clipped to 0; the lower triangle mirrors the upper one and the
    diagonal is 0.
    """
    if reference is None:
        reference = psi.masks[rank_order(psi.masks, psi.coeffs ** 2)[0]]
    occ, weights, p, s = _occupations(psi)
    i, j = np.triu_indices(len(p), 1)
    # joint probability that both members of a pair are occupied
    p11 = (occ.T @ (occ * weights[:, None]))[i, j]
    joint = np.clip([1.0 - p[i] - p[j] + p11, p[j] - p11, p[i] - p11, p11],
                    0.0, 1.0)
    x00, x01, x10, x11 = _xlogx(joint)
    s_ij = -((((0.0 + x00) + x01) + x10) + x11)
    mi = np.zeros((len(p), len(p)))
    mi[i, j] = s[i] + s[j] - s_ij
    mi[(-1e-12 < mi) & (mi < 0.0)] = 0.0
    return AnalysisReport(
        occupations=p,
        entropies=s,
        mi=mi + mi.T,
        rank_histogram=rank_histogram(psi, reference),
    )
