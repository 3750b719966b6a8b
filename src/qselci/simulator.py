"""Exact statevector simulation of ansatz circuits.

Amplitude index convention: bit s of the index is the occupation of blocked
spin orbital s, so ``Determinant.to_index`` is the basis index directly.

Excitation rotations exp(theta (tau - tau^dag)) are applied analytically:
the register splits into (source, partner) amplitude pairs related by the
excitation's occupation change, each rotated by a 2x2 Givens block whose
sign is the fermionic parity of the operator string on that source state.
This is exact exponentiation at O(2^n) per gate.  Single-particle basis
rotations are compiled to a chain of adjacent Givens rotations plus
number phases via QR elimination of the orthogonal rotation matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circuits import GATE_BASIS, GATE_EXCITATION, GATE_JASTROW, GATE_ORBITAL
from .dets import ExcitationOp, string_sign
from .errors import ParamCountMismatch, TooManyQubits

MAX_QUBITS = 24
NORM_TOL = 1e-10


@dataclass
class Statevector:
    amps: np.ndarray
    n_qubits: int

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude array length must be 2^n_qubits")

    @classmethod
    def from_determinant(cls, det, n_orbitals):
        n_qubits = 2 * n_orbitals
        if n_qubits > MAX_QUBITS:
            raise TooManyQubits(f"{n_qubits} qubits exceeds the {MAX_QUBITS} cap")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[det.to_index(n_orbitals)] = 1.0
        return cls(amps=amps, n_qubits=n_qubits)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))


def apply_circuit(circuit, params, state):
    """Apply a circuit's gates in order to a statevector (returns a copy)."""
    if circuit.n_qubits > MAX_QUBITS:
        raise TooManyQubits(
            f"{circuit.n_qubits} qubits exceeds the {MAX_QUBITS} cap"
        )
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ParamCountMismatch(
            f"expected {circuit.n_params} parameters, got {params.shape}"
        )
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("statevector register size differs from circuit")
    amps = state.amps.copy()
    indices = np.arange(1 << circuit.n_qubits, dtype=np.uint64)
    n = circuit.n_orbitals
    for gate in circuit.gates:
        if gate.kind == GATE_EXCITATION:
            _rotate(amps, indices, gate.excitation, float(params[gate.param_slot]))
        elif gate.kind == GATE_ORBITAL:
            theta = float(params[gate.param_slot])
            q, p = gate.qubits[0], gate.qubits[1]  # spatial pair (q < p)
            for off in (0, n):
                op = ExcitationOp(n, (q + off,), (p + off,), phase=1)
                _rotate(amps, indices, op, theta)
        elif gate.kind == GATE_JASTROW:
            _jastrow_phase(amps, indices, gate.qubits, gate.angle)
        elif gate.kind == GATE_BASIS:
            sign = -1.0 if gate.inverse else 1.0
            _basis_rotation(amps, indices, sign * gate.kappa, n)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    return Statevector(amps=amps, n_qubits=circuit.n_qubits)


def _rotate(amps, indices, op, theta):
    """In-place exp(theta (tau - tau^dag)) via paired-amplitude Givens."""
    if theta == 0.0:
        return
    ann_mask = np.uint64(sum(1 << s for s in op.annihilated))
    cre_mask = np.uint64(sum(1 << s for s in op.created))
    both = ann_mask | cre_mask
    src = indices[(indices & both) == ann_mask]
    if src.size == 0:
        return
    tgt = src ^ both
    sign = op.phase * string_sign(src, op.annihilated, op.created)
    c, s = np.cos(theta), np.sin(theta)
    a_src = amps[src]
    a_tgt = amps[tgt]
    amps[tgt] = c * a_tgt + sign * s * a_src
    amps[src] = c * a_src - sign * s * a_tgt


def _jastrow_phase(amps, indices, qubits, angle):
    mask = np.uint64(0)
    for q in set(qubits):
        mask |= np.uint64(1 << q)
    sel = (indices & mask) == mask
    amps[sel] *= np.exp(1j * angle)


def _basis_rotation(amps, indices, kappa, n_orbitals):
    """Apply the Fock-space image of Q = expm(kappa) on both spin channels."""
    kappa = np.asarray(kappa, dtype=float)
    if np.abs(kappa).max() == 0.0:
        return
    Q = scipy.linalg.expm(kappa)
    rotations, diag = _givens_decompose(Q)
    # Q = R_1^T ... R_m^T D, so apply D first, then the transposed plane
    # rotations in reverse elimination order.
    for i, sign in enumerate(diag):
        if sign < 0:
            for off in (0, n_orbitals):
                bit = np.uint64(1 << (i + off))
                amps[(indices & bit) == bit] *= -1.0
    # Gamma(R(theta)) = exp(theta (a+_i a_j - a+_j a_i)); each factor here is
    # the transpose R^T, hence the negated angle.
    for i, j, theta in reversed(rotations):
        for off in (0, n_orbitals):
            op = ExcitationOp(n_orbitals, (j + off,), (i + off,), phase=1)
            _rotate(amps, indices, op, -theta)


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
    """<psi|H|psi> over a subspace matrix whose determinants index the
    statevector (diagnostic helper)."""
    idx = [d.to_index(subspace.n_orbitals) for d in subspace.dets]
    vec = state.amps[idx]
    return float(np.real(np.conj(vec) @ (subspace.matrix @ vec))) + subspace.core_energy
