"""Exact statevector simulation of ansatz circuits.

Amplitude index convention: bit s of a basis index is the occupation of
blocked spin orbital s, so ``Determinant.to_index`` is the basis index
directly.

A ``Statevector`` holds amplitudes on a sorted array of basis indices.
Every gate kind keeps the electron count of each spin channel, so a state
prepared from a determinant lists only that determinant's (n_alpha,
n_beta) sector, C(n, n_alpha) * C(n, n_beta) basis states; a state given
as a full amplitude vector lists the whole 2^n register.  Both listings
are products ``B << n | A`` of sorted alpha strings A and beta strings B
in beta-major order (the string factorization of FCI), and
``apply_circuit`` rejects a listing that is not.

Excitation rotations exp(theta (tau - tau^dag)) are applied analytically:
the listed amplitudes split into (source, partner) pairs related by the
excitation's occupation change, each rotated by a 2x2 Givens block whose
sign is the fermionic parity of the operator string on that source state.
Pairs are found per spin channel: the gate's alpha part splits the alpha
strings into mask classes, sources holding its annihilated orbitals and
not its created ones and partners the reverse, the k-th source pairing
with the k-th partner; the beta part does the same on the beta strings,
and a gate's pairs are the products of the two channels' pairs, each sign
the XOR of one parity per channel.  A circuit is compiled once per listing
and kept with the circuit, with the flat pairs of each excitation it uses
twice or more, so a call costs O(pairs) per gate; a gate whose source or
partner is not listed raises ValueError at its first nonzero-angle rotation.
Single-particle basis rotations are compiled to a chain of adjacent Givens
rotations plus number phases via QR elimination of the orthogonal rotation
matrix.
"""

import weakref
from dataclasses import dataclass
from math import comb

import numpy as np

from .circuits import GATE_BASIS, GATE_EXCITATION, GATE_JASTROW, GATE_ORBITAL
from .dets import (ExcitationOp, basis_indices, check_qubit_count,
                   occupation_strings, string_sign)
from .errors import ParamCountMismatch, TooManyQubits

MAX_AMPLITUDES = 1 << 24


def _check_size(n_qubits, n_amplitudes):
    if n_amplitudes > MAX_AMPLITUDES:
        raise TooManyQubits(
            f"{n_amplitudes} amplitudes on {n_qubits} qubits exceeds the "
            f"{MAX_AMPLITUDES} cap"
        )


@dataclass
class Statevector:
    """``amps[i]`` is the amplitude of basis state ``index[i]``.

    ``n_qubits`` is at most 64 (TooManyQubits otherwise).  ``index`` must
    be non-empty, strictly increasing and below 2^n_qubits (ValueError
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
        self.index = basis_indices(self.index, self.n_qubits)
        if self.amps.shape != self.index.shape:
            raise ValueError("need one amplitude per listed basis index")
        if self.index.size == 0:
            raise ValueError("a statevector lists at least one basis state")
        if np.any(self.index[1:] <= self.index[:-1]):
            raise ValueError("listed basis indices must be strictly increasing")

    @classmethod
    def from_determinant(cls, det, n_orbitals):
        """The basis state ``det``, listed on its (n_alpha, n_beta) sector
        (ValueError if it occupies an orbital at or past ``n_orbitals``)."""
        if (det.alpha | det.beta) >> n_orbitals:
            raise ValueError(
                f"{det} occupies an orbital past the {n_orbitals} orbitals"
            )
        n_qubits = 2 * n_orbitals
        check_qubit_count(n_qubits)
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
    listed on the same basis states) whose listing is a product of alpha
    and beta strings (ValueError otherwise).  The compiled program is kept
    until the circuit is dropped or applied to another listing, holding the
    flat pairs of each reused excitation (about 0.3 MB on the 8-site Hubbard
    circuit, none when each is used once), so a repeat call reads ``params``."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ParamCountMismatch(
            f"expected {circuit.n_params} parameters, got {params.shape}"
        )
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("statevector register size differs from circuit")
    index = state.index
    program = _PROGRAMS.get(circuit)
    if program is None or not np.array_equal(program.index, index):
        program = _PROGRAMS[circuit] = _Program(circuit, index)
    thetas = params.tolist() + program.angles
    amps = state.amps.copy()
    for key, slot, phase in program.steps:
        if key is None:  # a phase step: ``slot`` is a mask, ``phase`` a factor
            amps[(index & slot) == slot] *= phase
        elif (theta := thetas[slot]) != 0.0:
            src_at, tgt_at, sign = program.flat.get(key) or program.pairs(key)
            c, s = np.cos(theta), np.sin(theta)
            a_src = amps[src_at]
            a_tgt = amps[tgt_at]
            sign_s = sign * (s if phase == 1 else -s)
            amps[tgt_at] = c * a_tgt + sign_s * a_src
            amps[src_at] = c * a_src - sign_s * a_tgt
    return Statevector(amps=amps, n_qubits=circuit.n_qubits, index=index)


_PROGRAMS = weakref.WeakKeyDictionary()  # Circuit -> _Program, last listing


class _Program:
    """A circuit compiled for one listing ``index = B << n | A`` over the
    sorted alpha and beta strings A, B.  ``steps`` holds rotations ``(key,
    slot, phase)`` by angle ``thetas[slot]`` (the parameters, then the
    fixed ``angles``) and phase steps ``(None, mask, factor)``; ``flat``
    keeps ``pairs(key)`` of each listed key that serves two or more.
    ``keys[key]`` is the channel pairs ``(sa, ta, sb, tb)`` of one
    ``(annihilated, created)`` key and the int8 parities ``pa`` of ``A[sa]``
    and ``pb`` of ``B[sb]``, so the pair of ``A[sa[i]]`` and ``B[sb[j]]``
    has sign ``1 - 2 * (pb[j] ^ pa[i])``; or None where a pair leaves the
    listing, which raises ValueError at the first nonzero-angle rotation.
    """

    def __init__(self, circuit, index):
        n = self.n = circuit.n_orbitals
        self.index = index
        self.alpha, self.beta = _factor(index, n)
        self.keys, self.steps, self.angles = [], [], []
        self.ids, self.channels, self.flat = {}, {}, {}
        for gate in circuit.gates:
            if gate.kind == GATE_EXCITATION:
                self._rotation(gate.excitation, gate.param_slot)
            elif gate.kind == GATE_ORBITAL:
                q, p = gate.qubits[0], gate.qubits[1]  # spatial pair (q < p)
                for off in (0, n):
                    op = ExcitationOp(n, (q + off,), (p + off,), phase=1)
                    self._rotation(op, gate.param_slot)
            elif gate.kind == GATE_JASTROW:
                mask = np.uint64(sum(1 << q for q in set(gate.qubits)))
                self.steps.append((None, mask, np.exp(1j * gate.angle)))
            elif gate.kind == GATE_BASIS:
                sign = -1.0 if gate.inverse else 1.0
                for op, arg in _basis_rotation(sign * gate.kappa, n):
                    if isinstance(op, ExcitationOp):
                        self._rotation(op, circuit.n_params + len(self.angles))
                        self.angles.append(arg)
                    else:
                        self.steps.append((None, op, arg))
            else:
                raise ValueError(f"unknown gate kind {gate.kind!r}")

    def _rotation(self, op, slot):
        key = self.ids.setdefault((op.annihilated, op.created), len(self.keys))
        if key == len(self.keys):
            self.keys.append(self._key(op.annihilated, op.created))
        elif key not in self.flat and self.keys[key] is not None:
            self.flat[key] = self.pairs(key)  # a reused key keeps its pairs
        self.steps.append((key, slot, op.phase))

    def _channel(self, strings, ann, cre):
        at = (strings is self.beta, ann, cre)
        if at not in self.channels:
            self.channels[at] = _channel_pairs(strings, ann, cre)
        return self.channels[at]

    def _key(self, annihilated, created):
        """A key's channel pairs and parities (None off the listing)."""
        n, alpha, beta = self.n, self.alpha, self.beta
        ann = sum(1 << s for s in annihilated)
        cre = sum(1 << s for s in created)
        low = (1 << n) - 1
        sa, ta, ok_a = self._channel(alpha, ann & low, cre & low)
        sb, tb, ok_b = self._channel(beta, ann >> n, cre >> n)
        # A channel check may fail where its partner channel lists no
        # source and no target; then the gate has no pairs at all.
        if not (ok_a and ok_b) and (sa.size * sb.size or ta.size * tb.size):
            return None
        # string_sign's closed form splits over B << n | A; each channel's
        # call adds the constant parity, which the alpha one takes back out.
        odd = string_sign(0, annihilated, created) < 0
        pa = (string_sign(alpha[sa], annihilated, created) < 0) ^ odd
        pb = string_sign(beta[sb] << np.uint64(n), annihilated, created) < 0
        return sa, ta, sb, tb, pa.view(np.int8), pb.view(np.int8)

    def pairs(self, key):
        """``(src_at, tgt_at, sign)`` of one key in the flat listing, the
        sign before the rotation's ``phase``."""
        if self.keys[key] is None:
            raise ValueError(
                "excitation leaves the statevector's listed basis states"
            )
        sa, ta, sb, tb, pa, pb = self.keys[key]
        width = self.alpha.size
        return (((sb * width)[:, None] + sa).ravel(),
                ((tb * width)[:, None] + ta).ravel(),
                (1 - 2 * (pb[:, None] ^ pa)).ravel())


def _factor(index, n_orbitals):
    """The sorted alpha and beta strings A, B with ``index`` equal to
    ``B << n | A`` in beta-major order (ValueError if it is no product)."""
    n, low = np.uint64(n_orbitals), np.uint64((1 << n_orbitals) - 1)
    width = int(np.searchsorted(index, index[0] | low, side="right"))
    alpha = index[:width] & low
    beta = index[::width] >> n
    if index.size % width or not np.array_equal(
        index.reshape(-1, width), (beta[:, None] << n) | alpha
    ):
        raise ValueError(
            "listed basis states are not a product of alpha and beta strings"
        )
    return alpha, beta


def _channel_pairs(strings, ann, cre):
    """Positions of the strings holding ``ann`` and not ``cre`` (sources)
    and of those holding ``cre`` and not ``ann`` (targets), plus whether
    the k-th target is the k-th source's partner ``source ^ ann ^ cre``.

    On the sources' mask class x -> x ^ both adds one constant, so in the
    sorted strings the k-th source pairs with the k-th target; the check
    also catches a target listed without its source.
    """
    ann, cre = np.uint64(ann), np.uint64(cre)
    both = ann | cre
    in_class = strings & both
    src = np.flatnonzero(in_class == ann)
    tgt = np.flatnonzero(in_class == cre)
    ok = src.size == tgt.size and np.array_equal(strings[tgt], strings[src] ^ both)
    return src, tgt, ok


def _basis_rotation(kappa, n_orbitals):
    """Steps applying the Fock-space image of Q = expm(kappa) on both spin
    channels."""
    from scipy.linalg import expm

    kappa = np.asarray(kappa, dtype=float)
    if np.abs(kappa).max() == 0.0:
        return []
    Q = expm(kappa)
    rotations, diag = _givens_decompose(Q)
    # Q = R_1^T ... R_m^T D, so apply D first, then the transposed plane
    # rotations in reverse elimination order.
    steps = [(np.uint64(1 << (i + off)), -1.0)
             for i, sign in enumerate(diag) if sign < 0
             for off in (0, n_orbitals)]
    # Gamma(R(theta)) = exp(theta (a+_i a_j - a+_j a_i)); each factor here is
    # the transpose R^T, hence the negated angle.
    steps += [(ExcitationOp(n_orbitals, (j + off,), (i + off,), phase=1), -theta)
              for i, j, theta in reversed(rotations)
              for off in (0, n_orbitals)]
    return steps


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
    if state.n_qubits != 2 * subspace.n_orbitals:
        raise ValueError(
            f"a {state.n_qubits}-qubit state against {subspace.n_orbitals} "
            "orbitals: need 2 * n_orbitals qubits"
        )
    alpha, beta = subspace.masks.T
    idx = alpha | (beta << np.uint64(subspace.n_orbitals))
    at = np.minimum(np.searchsorted(state.index, idx), state.index.size - 1)
    vec = np.where(state.index[at] == idx, state.amps[at], 0.0)
    return float(np.real(np.conj(vec) @ (subspace.matrix @ vec))) + subspace.core_energy
