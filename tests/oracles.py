"""Independent brute-force references used across the test suite.

The operator references are built from dense operator matrices over the
full 2^(2n)-dimensional occupation basis (basis index bit s = occupation of
blocked spin orbital s), deliberately avoiding the package's bit-twiddling
code paths so the two implementations check each other.  The per-pair
Slater-Condon rules and the text-keyed sampling stage are the scalar forms
of the package's vectorized kernels, which are pinned against them, and
``apply_excitation`` applies one excitation string to one determinant.  The
one-bit-per-key bitstring sort, the searchsorted gate pairing and the
flat mask-class gate pairing are the array paths the package's byte-table
sort and per-spin-channel pairing replaced, kept here as their references;
``davidson_reference`` is the stacked-list Davidson loop that the buffered
one replaced, ``chain_decomposition`` the determinant-chain excitation
decomposition that the sliced one replaced, and ``pt2_sum_loop`` the
per-term PT2 sum that the array one replaced.
"""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

from qselci import expansion, hamiltonian
from qselci.circuits import (
    GATE_BASIS,
    GATE_EXCITATION,
    GATE_JASTROW,
    GATE_ORBITAL,
)
from qselci.dets import (
    Determinant,
    ExcitationOp,
    bitstring_of_index,
    excitation_rank,
    full_excitation,
    string_sign,
)
from qselci.errors import NoConvergence
from qselci.fcidump import IntegralTable
from qselci.simulator import _givens_decompose

import helpers


def creation_matrix(s, n_spin_orbitals):
    """Dense matrix of the creation operator on spin orbital s."""
    dim = 1 << n_spin_orbitals
    m = np.zeros((dim, dim))
    for x in range(dim):
        if not (x >> s) & 1:
            sign = (-1) ** ((x & ((1 << s) - 1)).bit_count())
            m[x | (1 << s), x] = sign
    return m


def dense_hamiltonian(table):
    """Full Fock-space Hamiltonian matrix (electronic part, no core).

    Cached per table contents (orbital count, one- and two-electron
    integrals), since tests project the same table's matrix many times; the
    returned array is shared, so it is read-only.
    """
    return _dense_hamiltonian(
        table.n_orbitals, table.h.tobytes(), tuple(sorted(table.g.items()))
    )


@functools.lru_cache(maxsize=4)
def _dense_hamiltonian(n, h_bytes, g_items):
    table = IntegralTable(
        n_orbitals=n, n_electrons=0, h=np.frombuffer(h_bytes).reshape(n, n),
        g=dict(g_items),
    )
    nso = 2 * n
    dim = 1 << nso
    cre = [creation_matrix(s, nso) for s in range(nso)]
    ann = [c.T for c in cre]
    # Spin-summed one-particle substitution operators E_pq.
    E = {}
    for p in range(n):
        for q in range(n):
            E[p, q] = cre[p] @ ann[q] + cre[n + p] @ ann[n + q]
    H = np.zeros((dim, dim))
    for p in range(n):
        for q in range(n):
            if table.h[p, q]:
                H += table.h[p, q] * E[p, q]
    for p, q, r, s in itertools.product(range(n), repeat=4):
        v = table.get_g(p, q, r, s)
        if v:
            H += 0.5 * v * (E[p, q] @ E[r, s])
            if q == r:
                H -= 0.5 * v * E[p, s]
    H.setflags(write=False)
    return H


def project_hamiltonian(table, dets):
    """Dense Hamiltonian restricted to a determinant list (no core)."""
    H = dense_hamiltonian(table)
    idx = [d.to_index(table.n_orbitals) for d in dets]
    return H[np.ix_(idx, idx)]


def ground_state(table, dets):
    """(energy incl. core, coefficient vector) over a determinant list."""
    Hp = project_hamiltonian(table, dets)
    w, v = scipy.linalg.eigh(Hp)
    vec = v[:, 0]
    k = int(np.argmax(np.abs(vec)))
    if vec[k] < 0:
        vec = -vec
    return float(w[0]) + table.core_energy, vec


def dense_excitation_generator(op):
    """Dense anti-Hermitian generator  phase*(string - string^dagger).

    The bare string applies annihilations in ascending spin-orbital order
    first, then creations in ascending order (rightmost factor acts first),
    matching the package-wide convention.
    """
    nso = 2 * op.n_orbitals
    dim = 1 << nso
    cre = [creation_matrix(s, nso) for s in range(nso)]
    bare = np.eye(dim)
    for s in op.annihilated:
        bare = cre[s].T @ bare
    for s in op.created:
        bare = cre[s] @ bare
    tau = op.phase * bare
    return tau - tau.T


def dense_excitation_rotation(op, theta):
    """expm(theta * generator) as a dense unitary."""
    return scipy.linalg.expm(theta * dense_excitation_generator(op))


def dense_number_operator(s, n_spin_orbitals):
    dim = 1 << n_spin_orbitals
    occ = np.array([(x >> s) & 1 for x in range(dim)], dtype=float)
    return np.diag(occ)


def dense_orbital_rotation(kappa, n_orbitals):
    """expm(sum_pq kappa_pq (a+_p a_q - a+_q a_p)) over both spin channels,
    for real antisymmetric kappa given on spatial orbitals."""
    n = n_orbitals
    nso = 2 * n
    cre = [creation_matrix(s, nso) for s in range(nso)]
    gen = np.zeros((1 << nso, 1 << nso))
    for p in range(n):
        for q in range(n):
            if kappa[p, q]:
                gen += kappa[p, q] * (cre[p] @ cre[q].T + cre[n + p] @ cre[n + q].T)
    return scipy.linalg.expm(gen)


def pauli_matrix(label):
    table = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    return table[label]


def pauli_string_matrix(label_string):
    """Dense matrix of a Pauli string; character index = qubit index = bit
    index of the basis state (qubit 0 is the least significant bit)."""
    m = np.array([[1.0 + 0j]])
    for ch in label_string:  # qubit 0 first -> innermost factor
        m = np.kron(pauli_matrix(ch), m)
    return m


def brute_force_sector(n_orbitals, n_alpha, n_beta):
    """All (alpha, beta) mask pairs of a sector, ascending, as tuples."""
    alphas = sorted(
        sum(1 << p for p in c) for c in itertools.combinations(range(n_orbitals), n_alpha)
    )
    betas = sorted(
        sum(1 << p for p in c) for c in itertools.combinations(range(n_orbitals), n_beta)
    )
    return [(a, b) for a in alphas for b in betas]


def sector_count(n_orbitals, n_alpha, n_beta):
    return comb(n_orbitals, n_alpha) * comb(n_orbitals, n_beta)


# ------------------------------------------ per-pair Slater-Condon reference
#
# The Slater-Condon rules as scalar Python over one determinant pair, with
# phases from ``full_excitation``.  The batched kernel in qselci.hamiltonian
# accumulates each element in the same order, so the two give equal floats.


def _occupied_spin_orbitals(d, n):
    """Occupied blocked spin-orbital indices of a determinant, ascending."""
    return ([p for p in range(n) if (d.alpha >> p) & 1]
            + [n + p for p in range(n) if (d.beta >> p) & 1])


def _spatial(s, n):
    return s if s < n else s - n


def _spin(s, n):
    return 0 if s < n else 1


def slater_condon(d1, d2, table):
    """Matrix element <d1|H|d2> (electronic part, no core energy).

    Zero when the determinants live in different per-spin particle sectors or
    differ by more than a double excitation.
    """
    if (
        d1.alpha.bit_count() != d2.alpha.bit_count()
        or d1.beta.bit_count() != d2.beta.bit_count()
    ):
        return 0.0
    diff = (d1.alpha ^ d2.alpha).bit_count() + (d1.beta ^ d2.beta).bit_count()
    if diff == 0:
        return _diagonal_element(d1, table)
    if diff == 2:
        return _single_element(d2, d1, table)
    if diff == 4:
        return _double_element(d2, d1, table)
    return 0.0


def _diagonal_element(d, table):
    n = table.n_orbitals
    occ = _occupied_spin_orbitals(d, n)
    e = 0.0
    for i in occ:
        e += table.h[_spatial(i, n), _spatial(i, n)]
    for a, i in enumerate(occ):
        pi, si = _spatial(i, n), _spin(i, n)
        for j in occ[a + 1:]:
            pj, sj = _spatial(j, n), _spin(j, n)
            e += table.get_g(pi, pi, pj, pj)
            if si == sj:
                e -= table.get_g(pi, pj, pj, pi)
    return e


def _single_element(src, tgt, table):
    n = table.n_orbitals
    op = full_excitation(src, tgt, n)
    (m,), (a,) = op.annihilated, op.created
    pa, pm = _spatial(a, n), _spatial(m, n)
    e = table.h[pa, pm]
    sa = _spin(a, n)
    for i in _occupied_spin_orbitals(src, n):
        if i == m:
            continue
        pi = _spatial(i, n)
        e += table.get_g(pa, pm, pi, pi)
        if _spin(i, n) == sa:
            e -= table.get_g(pa, pi, pi, pm)
    return op.phase * e


def _double_element(src, tgt, table):
    n = table.n_orbitals
    op = full_excitation(src, tgt, n)
    (m, m2), (a, b) = op.annihilated, op.created
    sa, sb = _spin(a, n), _spin(b, n)
    sm, sm2 = _spin(m, n), _spin(m2, n)
    pa, pb, pm, pm2 = (_spatial(x, n) for x in (a, b, m, m2))
    direct = table.get_g(pa, pm2, pb, pm) if (sa == sm2 and sb == sm) else 0.0
    cross = table.get_g(pa, pm, pb, pm2) if (sa == sm and sb == sm2) else 0.0
    return op.phase * (direct - cross)


# ----------------------------------------- excitation-string application
#
# An ExcitationOp applied to one determinant, by a mask check and the sign
# rule: the reference the tests replay excitation decompositions against;
# and the decomposition as it was built through intermediate determinants.


def op_rank(op):
    """Excitation rank of an ExcitationOp: its number of annihilations."""
    return len(op.annihilated)


def apply_excitation(op, det):
    """Apply ``op.phase * string`` to a determinant.

    Returns ``(target, sign)`` with sign in {+1, -1}, or ``None`` when the
    string destroys the state (annihilating a hole / creating a particle).
    """
    n = op.n_orbitals
    x = det.to_index(n)
    holes = sum(1 << s for s in op.annihilated)
    particles = sum(1 << s for s in op.created)
    if x & (holes | particles) != holes:
        return None
    sign = op.phase * string_sign(x, op.annihilated, op.created)
    return Determinant.from_index(x ^ holes ^ particles, n), sign


def chain_decomposition(reference, target, n_orbitals):
    """``circuits.decompose_excitation`` as a determinant chain: the
    whole excitation's orbitals are flipped two pairs at a time into
    intermediate determinants, and each step is the full excitation between
    consecutive ones, so its phase is computed on the determinant it acts
    on."""
    rank = excitation_rank(reference, target)
    whole = full_excitation(reference, target, n_orbitals)
    ann, cre = whole.annihilated, whole.created
    index = reference.to_index(n_orbitals)
    chain = [reference]
    for pos in range(0, rank, 2):
        index ^= sum(1 << s for s in ann[pos:pos + 2] + cre[pos:pos + 2])
        chain.append(Determinant.from_index(index, n_orbitals))
    return [full_excitation(a, b, n_orbitals) for a, b in zip(chain, chain[1:])]


# ------------------------------------------------------ PT2 sum reference
#
# ``expansion.en_pt2`` as it summed its terms before the array sum: the
# array sum must give the same bits, sign of zero and skip count.


def pt2_sum_loop(psi, table):
    """``expansion.en_pt2`` with its sum as one Python step per connected
    candidate: ``(delta_e, n_external, n_skipped)``."""
    h, g = table.h, table.dense_g()
    candidates, rows, cols, vals = expansion._connected_coupling(psi, h, g)
    numerators = expansion._coupling_sums(rows, vals * psi.coeffs[cols],
                                          len(candidates))
    e_mu = hamiltonian.diagonal_elements(*candidates.T, h, g) + table.core_energy
    delta = 0.0
    skipped = 0
    for numerator, denom in zip(numerators.tolist(),
                                (e_mu - psi.energy).tolist()):
        if abs(denom) < expansion.DENOMINATOR_TOL:
            skipped += 1
            continue
        delta -= numerator * numerator / denom
    return delta, len(candidates), skipped


# ------------------------------------------- text-keyed sampling reference
#
# The sampling stage as it was written over {bitstring: value} dicts, one
# Python step per string and per shot.  The array implementation in
# qselci.sampling must reproduce it shot for shot from the same seeds.


@dataclass
class Distribution:
    probs: dict
    n_qubits: int
    residual_mass: float = 0.0
    unlisted_floor: float = 0.0


@dataclass
class SampleCounts:
    counts: dict
    total_shots: int
    seed: int
    noise: object = None

    def __post_init__(self):
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts do not sum to total_shots")

    def top(self, k):
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def to_csv(self):
        lines = ["bitstring,count"]
        for s, c in sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{s},{c}")
        return "\n".join(lines) + "\n"


def ideal_distribution(state):
    p = np.abs(helpers.full_register(state)) ** 2
    keep = np.nonzero(p > 1e-16)[0]
    probs = {
        bitstring_of_index(int(i), state.n_qubits): float(p[i]) for i in keep
    }
    return Distribution(probs=probs, n_qubits=state.n_qubits)


def depolarize_distribution(dist, p):
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength outside [0, 1]")
    d = 1 << dist.n_qubits
    floor = p / d + (1.0 - p) * dist.unlisted_floor
    probs = {s: (1.0 - p) * q + p / d for s, q in dist.probs.items()}
    residual = floor * (d - len(probs))
    return Distribution(
        probs=probs,
        n_qubits=dist.n_qubits,
        residual_mass=residual,
        unlisted_floor=floor,
    )


def _rng(seed):
    return np.random.Generator(np.random.Philox(int(seed)))


def sample(dist, shots, seed, noise=None):
    if shots < 1:
        raise ValueError("at least one shot required")
    rng = _rng(seed)
    strings = sorted(dist.probs)
    pvals = np.array([dist.probs[s] for s in strings] + [dist.residual_mass])
    pvals = np.clip(pvals, 0.0, None)
    total = pvals.sum()
    if total <= 0:
        raise ValueError("distribution has no probability mass")
    pvals /= total
    drawn = rng.multinomial(shots, pvals)
    counts = Counter()
    for s, c in zip(strings, drawn[:-1]):
        if c:
            counts[s] = int(c)
    n_residual = int(drawn[-1])
    if n_residual:
        support = set(strings)
        d = 1 << dist.n_qubits
        needed = n_residual
        while needed > 0:
            batch = rng.integers(0, d, size=max(16, 2 * needed),
                                 dtype=np.uint64)
            for idx in batch:
                s = bitstring_of_index(int(idx), dist.n_qubits)
                if s not in support:
                    counts[s] += 1
                    needed -= 1
                    if needed == 0:
                        break
    return SampleCounts(
        counts=dict(counts), total_shots=shots, seed=int(seed), noise=noise
    )


def apply_readout(sc, model, seed):
    eps0, eps1 = model.readout_eps0, model.readout_eps1
    if eps0 == 0.0 and eps1 == 0.0:
        return SampleCounts(
            counts=dict(sc.counts),
            total_shots=sc.total_shots,
            seed=int(seed),
            noise=model,
        )
    rng = _rng(seed)
    out = Counter()
    for s, c in sorted(sc.counts.items()):
        bits = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")
        u = rng.random(size=(c, bits.size))
        flip = np.where(bits[None, :] == 0, u < eps0, u < eps1)
        flipped = np.where(flip, 1 - bits[None, :], bits[None, :])
        for row in flipped:
            out["".join("1" if b else "0" for b in row)] += 1
    return SampleCounts(
        counts=dict(out), total_shots=sc.total_shots, seed=int(seed), noise=model
    )


def symmetry_filter(sc, n_alpha, n_beta):
    kept = {}
    rejected = 0
    for s, c in sc.counts.items():
        half = len(s) // 2
        if s[:half].count("1") == n_alpha and s[half:].count("1") == n_beta:
            kept[s] = c
        else:
            rejected += c
    filtered = SampleCounts(
        counts=kept,
        total_shots=sc.total_shots - rejected,
        seed=sc.seed,
        noise=sc.noise,
    )
    return filtered, rejected


def counts_to_determinants(sc, n_orbitals):
    items = sorted(sc.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [Determinant.from_bitstring(s) for s, _ in items]


# ------------------------------------------ replaced array-path references
#
# The package's earlier array forms of the bitstring sort and of the gate
# pairing, bodies as they were: the gate loop scanned the whole flat
# listing per gate, first pairing by searchsorted, then by mask class.  The
# faster forms in qselci.sampling and qselci.simulator must give the same
# positions and the same amplitudes bit for bit.


def lex_order(index, n_qubits, *first):
    """Positions sorting basis indices as their bitstrings sort (qubit 0
    most significant), after the keys ``first`` when given."""
    keys = [(index >> k) & 1 for k in range(n_qubits - 1, -1, -1)]
    return np.lexsort(keys + list(first))


def searchsorted_rotate(amps, index, op, theta):
    """In-place exp(theta (tau - tau^dag)) via paired-amplitude Givens."""
    if theta == 0.0:
        return
    ann_mask = np.uint64(sum(1 << s for s in op.annihilated))
    cre_mask = np.uint64(sum(1 << s for s in op.created))
    both = ann_mask | cre_mask
    src_at = np.flatnonzero((index & both) == ann_mask)
    if src_at.size == 0:
        return
    src = index[src_at]
    tgt = src ^ both
    tgt_at = np.searchsorted(index, tgt)
    if not np.array_equal(index.take(tgt_at, mode="clip"), tgt):
        raise ValueError("excitation leaves the statevector's listed basis states")
    sign = op.phase * string_sign(src, op.annihilated, op.created)
    c, s = np.cos(theta), np.sin(theta)
    a_src = amps[src_at]
    a_tgt = amps[tgt_at]
    amps[tgt_at] = c * a_tgt + sign * s * a_src
    amps[src_at] = c * a_src - sign * s * a_tgt


def mask_rotate(amps, index, op, theta):
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


def flat_apply_circuit(circuit, params, state, rotate=mask_rotate):
    """The gate loop that finds each gate's pairs by scanning the whole
    flat listing with ``rotate``; returns the new amplitudes."""
    params = np.asarray(params, dtype=float)
    amps = state.amps.copy()
    index = state.index
    n = circuit.n_orbitals
    for gate in circuit.gates:
        if gate.kind == GATE_EXCITATION:
            rotate(amps, index, gate.excitation, float(params[gate.param_slot]))
        elif gate.kind == GATE_ORBITAL:
            theta = float(params[gate.param_slot])
            q, p = gate.qubits[0], gate.qubits[1]  # spatial pair (q < p)
            for off in (0, n):
                op = ExcitationOp(n, (q + off,), (p + off,), phase=1)
                rotate(amps, index, op, theta)
        elif gate.kind == GATE_JASTROW:
            _jastrow_phase(amps, index, gate.qubits, gate.angle)
        elif gate.kind == GATE_BASIS:
            sign = -1.0 if gate.inverse else 1.0
            _basis_rotation(amps, index, sign * gate.kappa, n, rotate)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    return amps


def _jastrow_phase(amps, index, qubits, angle):
    mask = np.uint64(0)
    for q in set(qubits):
        mask |= np.uint64(1 << q)
    sel = (index & mask) == mask
    amps[sel] *= np.exp(1j * angle)


def _basis_rotation(amps, index, kappa, n_orbitals, rotate):
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
                amps[(index & bit) == bit] *= -1.0
    # Gamma(R(theta)) = exp(theta (a+_i a_j - a+_j a_i)); each factor here is
    # the transpose R^T, hence the negated angle.
    for i, j, theta in reversed(rotations):
        for off in (0, n_orbitals):
            op = ExcitationOp(n_orbitals, (j + off,), (i + off,), phase=1)
            rotate(amps, index, op, -theta)


# ------------------------------------------------ Davidson reference
#
# ``hamiltonian.davidson_lowest`` as it was before its basis moved into
# preallocated buffers and its small solve into a direct LAPACK call: the
# basis and its images are stacked afresh with ``np.column_stack`` on every
# iteration and the projected matrix goes through ``scipy.linalg.eigh``.
# The constants are read from the package at call time, so a test that
# patches them patches both solvers.


def davidson_reference(subspace):
    """Lowest eigenpair of a SubspaceMatrix by the stacked-list Davidson
    loop; returns a Wavefunction or raises NoConvergence."""
    A = subspace.matrix
    dim = subspace.dim
    if dim == 0:
        raise ValueError("empty subspace")
    diag = A.diagonal()
    order = np.argsort(diag, kind="stable")
    v0 = np.zeros(dim)
    v0[order[0]] = 1.0
    V = [v0]
    W = [A @ v0]
    theta, x = float(diag[order[0]]), v0
    max_basis = min(hamiltonian.DAVIDSON_MAX_BASIS, dim)

    for _ in range(hamiltonian.DAVIDSON_MAX_ITER):
        Vm = np.column_stack(V)
        Wm = np.column_stack(W)
        T = Vm.T @ Wm
        T = (T + T.T) / 2
        evals, evecs = scipy.linalg.eigh(T)
        theta = float(evals[0])
        s = evecs[:, 0]
        x = Vm @ s
        r = Wm @ s - theta * x
        if np.linalg.norm(r) < hamiltonian.DAVIDSON_TOL or len(V) == dim:
            return hamiltonian.Wavefunction(
                masks=subspace.masks,
                coeffs=_canonical_sign(x / np.linalg.norm(x)),
                energy=theta + subspace.core_energy,
                n_orbitals=subspace.n_orbitals,
            )
        if len(V) >= max_basis:
            kept = [Vm @ evecs[:, k]
                    for k in range(min(hamiltonian.DAVIDSON_RESTART_KEEP,
                                       len(V)))]
            V, W = [], []
            for vec in kept:
                vec = _orthonormalize(vec, V)
                if vec is not None:
                    V.append(vec)
                    W.append(A @ vec)
        denom = theta - diag
        shift = hamiltonian.DAVIDSON_LEVEL_SHIFT
        denom = np.where(np.abs(denom) < shift,
                         np.where(denom >= 0, shift, -shift), denom)
        z = _orthonormalize(r / denom, V)
        if z is None:
            z = _fallback_direction(V, order)
            if z is None:
                break
        V.append(z)
        W.append(A @ z)

    raise NoConvergence(
        f"Davidson did not reach |r| < {hamiltonian.DAVIDSON_TOL} in "
        f"{hamiltonian.DAVIDSON_MAX_ITER} iterations",
        energy=theta + subspace.core_energy,
        vector=_canonical_sign(x / np.linalg.norm(x)),
        iterations=hamiltonian.DAVIDSON_MAX_ITER,
    )


def _canonical_sign(vec):
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def _orthonormalize(vec, basis, threshold=1e-10):
    for _ in range(2):
        for b in basis:
            vec = vec - (b @ vec) * b
    norm = np.linalg.norm(vec)
    if norm < threshold:
        return None
    return vec / norm


def _fallback_direction(basis, order):
    for k in order:
        e = np.zeros(len(order))
        e[k] = 1.0
        z = _orthonormalize(e, basis, threshold=1e-6)
        if z is not None:
            return z
    return None
