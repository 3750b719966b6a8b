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

from .dets import Determinant


def _xlogx(x):
    """x ln x per element, with 0 ln 0 = 0 (scipy.special.xlogy(x, x)).

    math.log rather than np.log: numpy's vectorized log can differ from
    the C library's in the last bit.  The arrays here are a few entries
    per spin orbital.
    """
    values = [0.0 if v == 0 else v * math.log(v) for v in np.ravel(x).tolist()]
    return np.array(values).reshape(np.shape(x))


def _occupation_matrix(psi):
    """Rows = determinants, columns = 2n spin orbitals, entries in {0,1}."""
    orbitals = np.arange(psi.n_orbitals, dtype=np.uint64)
    bits = (psi.masks[:, :, None] >> orbitals) & np.uint64(1)
    return bits.reshape(len(psi.masks), -1).astype(float)


def _binary_entropy(p):
    return float(-(_xlogx(p) + _xlogx(1.0 - p)))


def orbital_entropies(psi):
    """Occupation probabilities and entropies per spin orbital.

    Returns (p, s) with p[i] the probability that spin orbital i is
    occupied under the c^2 distribution and s[i] its binary entropy in
    nats; 0*ln(0) counts as 0.
    """
    weights = np.asarray(psi.coeffs, dtype=float) ** 2
    occ = _occupation_matrix(psi)
    p = occ.T @ weights
    p = np.clip(p, 0.0, 1.0)
    s = -(_xlogx(p) + _xlogx(1.0 - p))
    return p, np.asarray(s, dtype=float)


def mutual_information(psi):
    """Pairwise mutual information matrix over spin orbitals, in nats.

    For each pair the joint occupation distribution over the four sectors
    (00, 01, 10, 11) is tallied from the determinant weights; I = s_i + s_j
    - s_ij, the diagonal is defined as 0, and negative rounding residue
    within 1e-12 is clipped to 0.
    """
    weights = np.asarray(psi.coeffs, dtype=float) ** 2
    occ = _occupation_matrix(psi)
    n_spin = occ.shape[1]
    # joint probability that both members of a pair are occupied
    p11 = occ.T @ (occ * weights[:, None])
    p = np.clip(occ.T @ weights, 0.0, 1.0)
    mi = np.zeros((n_spin, n_spin))
    for i in range(n_spin):
        s_i = _binary_entropy(p[i])
        for j in range(i + 1, n_spin):
            joint = np.array([
                1.0 - p[i] - p[j] + p11[i, j],   # 00
                p[j] - p11[i, j],                # 01
                p[i] - p11[i, j],                # 10
                p11[i, j],                       # 11
            ])
            joint = np.clip(joint, 0.0, 1.0)
            s_ij = float(-np.sum(_xlogx(joint)))
            value = s_i + _binary_entropy(p[j]) - s_ij
            if -1e-12 < value < 0.0:
                value = 0.0
            mi[i, j] = mi[j, i] = value
    return mi


def rank_histogram(psi, reference):
    """Weight c^2 per excitation rank relative to a reference determinant.

    Returns an array indexed by rank, covering 0 through the highest rank
    present.
    """
    ref = np.array([reference.alpha, reference.beta], dtype=np.uint64)
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
            "occupations": [float(x) for x in self.occupations],
            "entropies": [float(x) for x in self.entropies],
            "mutual_information": [[float(x) for x in row]
                                   for row in self.mi],
            "rank_histogram": [float(x) for x in self.rank_histogram],
        }

    def mi_edge_list(self, threshold=0.0):
        """(i, j, weight) rows for every pair with I above the threshold,
        suitable for graph plotting tools."""
        edges = []
        n = self.mi.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if self.mi[i, j] > threshold:
                    edges.append((i, j, float(self.mi[i, j])))
        return edges


def analyze(psi, reference=None):
    """Full diagnostic pass; the reference for the rank histogram defaults
    to the determinant with the largest weight."""
    if reference is None:
        reference = Determinant(*psi.masks[np.argmax(psi.coeffs ** 2)].tolist())
    p, s = orbital_entropies(psi)
    return AnalysisReport(
        occupations=p,
        entropies=s,
        mi=mutual_information(psi),
        rank_histogram=rank_histogram(psi, reference),
    )
