"""Exact statevector simulation of ansatz circuits.

Amplitude index convention: bit s of a basis index is the occupation of
blocked spin orbital s, so ``Determinant.to_index`` is the basis index
directly.

A ``Statevector`` holds amplitudes on a sorted array of basis indices.
Every gate kind keeps the electron count of each spin channel, so a state
prepared from a determinant lists only that determinant's (n_alpha,
n_beta) sector, C(n, n_alpha) * C(n, n_beta) basis states; a state given
as a full amplitude vector lists the whole 2^n register.  Gates touch the
listed amplitudes only, so each costs O(sector), not O(2^n).

Excitation rotations exp(theta (tau - tau^dag)) are applied analytically:
the listed amplitudes split into (source, partner) pairs related by the
excitation's occupation change, each rotated by a 2x2 Givens block whose
sign is the fermionic parity of the operator string on that source state.
Pairs are matched by mask class: sources hold the annihilated orbitals and
not the created ones, partners the reverse, and the k-th listed source
pairs with the k-th listed partner.  A gate whose source or partner is not
listed raises ValueError.
Single-particle basis rotations are compiled to a chain of adjacent Givens
rotations plus number phases via QR elimination of the orthogonal rotation
matrix.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .circuits import GATE_BASIS, GATE_EXCITATION, GATE_JASTROW, GATE_ORBITAL
from .dets import ExcitationOp, occupation_strings, string_sign
from .errors import ParamCountMismatch, TooManyQubits

MAX_AMPLITUDES = 1 << 24
MAX_QUBITS = 62  # sampling holds basis indices as int64


def _check_size(n_qubits, n_amplitudes):
    if n_qubits > MAX_QUBITS:
        raise TooManyQubits(
            f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit limit"
        )
    if n_amplitudes > MAX_AMPLITUDES:
        raise TooManyQubits(
            f"{n_amplitudes} amplitudes on {n_qubits} qubits exceeds the "
            f"{MAX_AMPLITUDES} cap"
        )


@dataclass
class Statevector:
    """``amps[i]`` is the amplitude of basis state ``index[i]``.

    ``index`` must be strictly increasing and below 2^n_qubits (ValueError
    otherwise); left out, it is the whole 2^n register and ``amps`` is a
    full amplitude vector.
    """

    amps: np.ndarray
    n_qubits: int
    index: np.ndarray = None

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.index is None:
            _check_size(self.n_qubits, 1 << self.n_qubits)
            self.index = np.arange(1 << self.n_qubits, dtype=np.uint64)
        self.index = np.asarray(self.index, dtype=np.uint64)
        if self.amps.shape != self.index.shape:
            raise ValueError("need one amplitude per listed basis index")
        if np.any(self.index[1:] <= self.index[:-1]):
            raise ValueError("listed basis indices must be strictly increasing")
        if self.index.size and int(self.index[-1]) >> self.n_qubits:
            raise ValueError(
                f"basis index {int(self.index[-1])} is outside the "
                f"{self.n_qubits}-qubit register"
            )

    @classmethod
    def from_determinant(cls, det, n_orbitals):
        """The basis state ``det``, listed on its (n_alpha, n_beta) sector."""
        n_qubits = 2 * n_orbitals
        _check_size(
            n_qubits,
            comb(n_orbitals, det.n_alpha) * comb(n_orbitals, det.n_beta),
        )
        alpha = np.array(occupation_strings(n_orbitals, det.n_alpha), dtype=np.uint64)
        beta = np.array(occupation_strings(n_orbitals, det.n_beta), dtype=np.uint64)
        index = ((beta[:, None] << np.uint64(n_orbitals)) | alpha).ravel()
        amps = np.zeros(index.size, dtype=complex)
        amps[np.searchsorted(index, det.to_index(n_orbitals))] = 1.0
        return cls(amps=amps, n_qubits=n_qubits, index=index)


def apply_circuit(circuit, params, state):
    """Apply a circuit's gates in order to a statevector (returns a copy
    listed on the same basis states)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ParamCountMismatch(
            f"expected {circuit.n_params} parameters, got {params.shape}"
        )
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("statevector register size differs from circuit")
    amps = state.amps.copy()
    index = state.index
    n = circuit.n_orbitals
    for gate in circuit.gates:
        if gate.kind == GATE_EXCITATION:
            _rotate(amps, index, gate.excitation, float(params[gate.param_slot]))
        elif gate.kind == GATE_ORBITAL:
            theta = float(params[gate.param_slot])
            q, p = gate.qubits[0], gate.qubits[1]  # spatial pair (q < p)
            for off in (0, n):
                op = ExcitationOp(n, (q + off,), (p + off,), phase=1)
                _rotate(amps, index, op, theta)
        elif gate.kind == GATE_JASTROW:
            _jastrow_phase(amps, index, gate.qubits, gate.angle)
        elif gate.kind == GATE_BASIS:
            sign = -1.0 if gate.inverse else 1.0
            _basis_rotation(amps, index, sign * gate.kappa, n)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    return Statevector(amps=amps, n_qubits=circuit.n_qubits, index=index)


def _rotate(amps, index, op, theta):
    """In-place exp(theta (tau - tau^dag)) via paired-amplitude Givens."""
    if theta == 0.0:
        return
    ann_mask = np.uint64(sum(1 << s for s in op.annihilated))
    cre_mask = np.uint64(sum(1 << s for s in op.created))
    both = ann_mask | cre_mask
    # On the sources' mask class, x -> x ^ both adds one constant, so in the
    # sorted index the k-th source pairs with the k-th target; the check
    # below also catches a target listed without its source.
    in_class = index & both
    src_at = np.flatnonzero(in_class == ann_mask)
    tgt_at = np.flatnonzero(in_class == cre_mask)
    src = index[src_at]
    if src_at.size != tgt_at.size or not np.array_equal(index[tgt_at], src ^ both):
        raise ValueError("excitation leaves the statevector's listed basis states")
    sign = op.phase * string_sign(src, op.annihilated, op.created)
    c, s = np.cos(theta), np.sin(theta)
    a_src = amps[src_at]
    a_tgt = amps[tgt_at]
    amps[tgt_at] = c * a_tgt + sign * s * a_src
    amps[src_at] = c * a_src - sign * s * a_tgt


def _jastrow_phase(amps, index, qubits, angle):
    mask = np.uint64(0)
    for q in set(qubits):
        mask |= np.uint64(1 << q)
    sel = (index & mask) == mask
    amps[sel] *= np.exp(1j * angle)


def _basis_rotation(amps, index, kappa, n_orbitals):
    """Apply the Fock-space image of Q = expm(kappa) on both spin channels."""
    from scipy.linalg import expm

    kappa = np.asarray(kappa, dtype=float)
    if np.abs(kappa).max() == 0.0:
        return
    Q = expm(kappa)
    rotations, diag = _givens_decompose(Q)
    # Q = R_1^T ... R_m^T D, so apply D first, then the transposed plane
    # rotations in reverse elimination order.
    for i, sign in enumerate(diag):
        if sign < 0:
            for off in (0, n_orbitals):
                bit = np.uint64(1 << (i + off))
                amps[(index & bit) == bit] *= -1.0
    # Gamma(R(theta)) = exp(theta (a+_i a_j - a+_j a_i)); each factor here is
    # the transpose R^T, hence the negated angle.
    for i, j, theta in reversed(rotations):
        for off in (0, n_orbitals):
            op = ExcitationOp(n_orbitals, (j + off,), (i + off,), phase=1)
            _rotate(amps, index, op, -theta)


def _givens_decompose(Q):
    """Eliminate below-diagonal entries of an orthogonal Q with adjacent-row
    plane rotations; returns the rotation list and the leftover diagonal.

    Each recorded (i, j=i+1, theta) satisfies: left-multiplying Q by the
    matrix R with R[i,i]=R[j,j]=cos, R[i,j]=sin, R[j,i]=-sin zeroes Q[j,i]'s
    target entry during elimination.
    """
    Q = Q.copy()
    n = Q.shape[0]
    rotations = []
    for c in range(n):
        for r in range(n - 1, c, -1):
            if abs(Q[r, c]) < 1e-15:
                continue
            theta = np.arctan2(Q[r, c], Q[r - 1, c])
            cs, sn = np.cos(theta), np.sin(theta)
            upper = cs * Q[r - 1, :] + sn * Q[r, :]
            lower = -sn * Q[r - 1, :] + cs * Q[r, :]
            Q[r - 1, :] = upper
            Q[r, :] = lower
            rotations.append((r - 1, r, theta))
    diag = np.sign(np.diag(Q))
    return rotations, diag


def expectation_energy(state, subspace):
    """<psi|H|psi> over a subspace matrix's determinants; a determinant the
    state does not list has amplitude 0 (diagnostic helper)."""
    if state.n_qubits != 2 * subspace.n_orbitals or state.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"a {state.n_qubits}-qubit state against {subspace.n_orbitals} "
            f"orbitals: need 2 * n_orbitals qubits, at most {MAX_QUBITS}"
        )
    alpha, beta = subspace.masks.T
    idx = alpha | (beta << np.uint64(subspace.n_orbitals))
    at = np.minimum(np.searchsorted(state.index, idx), state.index.size - 1)
    vec = np.where(state.index[at] == idx, state.amps[at], 0.0)
    return float(np.real(np.conj(vec) @ (subspace.matrix @ vec))) + subspace.core_energy
