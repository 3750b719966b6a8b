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
``per_bit_readout`` is the one-uniform-per-bit readout that the per-flip
draw replaced, ``davidson_reference`` the stacked-list Davidson loop that
the buffered one replaced, ``chain_decomposition`` the determinant-chain
excitation decomposition that the sliced one replaced,
``pt2_sum_loop`` the per-term PT2 sum that the array one replaced,
``pair_loop_mutual_information`` and ``pair_loop_edge_list`` the
per-pair mutual information and edge walk that the pair tables replaced,
``orbital_entropies`` and ``mutual_information`` the two functions, each
building its own occupation matrix, that the one pass of
``analysis.analyze`` replaced,
``set_retained_weight`` the ``Determinant``-set retained weight that
the mask-row match replaced, ``loop_gate_counts`` the three-pass resource
table that the one-pass ``gate_counts`` replaced, and
``loop_jastrow_gates`` and ``loop_illustrative_generators`` the
element loops that the LUCJ baseline's array forms replaced.
``full_dense_lowest`` is the full dense eigensolve that the
lowest-eigenpair-only ``dense_lowest`` replaced,
``substitution_pool_loop`` with ``screened_connected_coupling`` the
set-of-tuples expansion pool and its screened coupling that the
per-string substitution tables replaced, ``screened_scores`` the coupling
scores from the screen that the pool coupling replaced, and
``screened_subspace`` the build from every screened pair that the
generated pairs replaced; all three read ``coupling_elements``, the
screen of every bra x ket pair.
``wavefunction_from_json`` is the file read path that built one
``Determinant`` per string, which ``dets.bitstring_masks`` replaced, and
``determinant_of_bitstring``, ``determinant_of_index`` and
``index_of_bitstring`` the text and index conversions that left the
package with it.
``distribution_cumulative`` and ``distribution_total`` are the weights of
a ``sampling.Distribution`` that only tests read, and ``full_excitation``
the whole-rank excitation between two determinants that
``circuits.decompose_excitation`` no longer builds; the Slater-Condon
rules and ``chain_decomposition`` take their phases from it.
"""

import functools
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg
import scipy.sparse

from qselci import analysis, expansion, hamiltonian, sampling
from qselci.circuits import (
    GATE_BASIS,
    GATE_EXCITATION,
    GATE_JASTROW,
    GATE_ORBITAL,
)
from qselci.dets import (
    Determinant,
    ExcitationOp,
    _bits,
    basis_indices,
    bitstring_of_index,
    det_masks,
    determinants,
    excitation_rank,
    rank_order,
    string_sign,
)
from qselci.errors import MalformedWavefunction, NoConvergence
from qselci.fcidump import IntegralTable
from qselci.sampling import READOUT_BLOCK
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
    # H = sum_pq h_pq E_pq + 1/2 sum_pqrs (pq|rs) (E_pq E_rs - d_qr E_ps),
    # with the inner sum over rs taken before the product: n^2 products
    H = np.zeros((dim, dim))
    for p, q in itertools.product(range(n), repeat=2):
        if table.h[p, q]:
            H += table.h[p, q] * E[p, q]
        inner = np.zeros((dim, dim))
        for r, s in itertools.product(range(n), repeat=2):
            v = table.get_g(p, q, r, s)
            if v:
                inner += v * E[r, s]
                if q == r:
                    H -= 0.5 * v * E[p, s]
        if inner.any():
            H += 0.5 * (E[p, q] @ inner)
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


def full_excitation(source, target, n_orbitals):
    """The ExcitationOp of any rank mapping ``source`` onto ``target``, two
    determinants of one sector."""
    ann = _bits(source.alpha & ~target.alpha)
    ann += [n_orbitals + p for p in _bits(source.beta & ~target.beta)]
    cre = _bits(target.alpha & ~source.alpha)
    cre += [n_orbitals + p for p in _bits(target.beta & ~source.beta)]
    phase = string_sign(source.to_index(n_orbitals), ann, cre)
    return ExcitationOp(n_orbitals, tuple(ann), tuple(cre), phase=phase)


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


# ------------------------------------------------ text read path reference
#
# The wavefunction file's read path as it was: each occupation string
# checked, then one Determinant per string (the ``from_bitstring``,
# ``from_index`` and ``index_of_bitstring`` that have left the package),
# then the object rows through ``det_masks``.  ``Wavefunction.from_json``
# reads the strings straight into mask rows with ``dets.bitstring_masks``
# and must give the same rows, coefficients, energy and messages.


def index_of_bitstring(s):
    """The basis index of a text bitstring: character k is bit k."""
    return int(s[::-1], 2)


def determinant_of_index(index, n_orbitals):
    """The Determinant of a basis index (bit s = spin orbital s)."""
    mask = (1 << n_orbitals) - 1
    return Determinant(alpha=index & mask, beta=(index >> n_orbitals) & mask)


def determinant_of_bitstring(s):
    """The Determinant of a 2n-character occupation string."""
    if len(s) % 2 or set(s) - {"0", "1"}:
        raise ValueError(f"not a spin-blocked occupation string: {s!r}")
    return determinant_of_index(index_of_bitstring(s), len(s) // 2)


def wavefunction_from_json(text):
    """``Wavefunction.from_json`` with each string read as a Determinant."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise MalformedWavefunction(f"not JSON: {exc}") from None
    keys = hamiltonian._WF_KEYS
    if not isinstance(data, dict) or not keys <= data.keys():
        raise MalformedWavefunction(
            "expected an object with keys " + ", ".join(sorted(keys)))
    n, coefficients = data["n_orbitals"], data["coefficients"]
    if type(n) is not int or n < 1:
        raise MalformedWavefunction(
            f"n_orbitals must be a positive integer, got {n!r}")
    if not isinstance(coefficients, dict) or not all(
        map(hamiltonian._is_finite_number,
            [data["energy"], *coefficients.values()])
    ):
        raise MalformedWavefunction(
            "energy and coefficients must be finite numbers, the "
            "coefficients keyed by occupation string")
    for s in coefficients:
        if len(s) != 2 * n or set(s) - {"0", "1"}:
            raise MalformedWavefunction(
                f"{s!r} is not a {2 * n}-character occupation string")
    items = sorted(coefficients.items())
    try:
        return hamiltonian.Wavefunction(
            masks=det_masks([determinant_of_bitstring(s) for s, _ in items]),
            coeffs=[c for _, c in items],
            energy=float(data["energy"]),
            n_orbitals=n,
        )
    except ValueError as exc:
        raise MalformedWavefunction(str(exc)) from None


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
    return determinant_of_index(x ^ holes ^ particles, n), sign


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
        chain.append(determinant_of_index(index, n_orbitals))
    return [full_excitation(a, b, n_orbitals) for a, b in zip(chain, chain[1:])]


# ------------------------------------------------ substitution pool loop
#
# ``substitutions.Substitutions`` lists each spin string's substitutions
# once, without those the integrals make zero, and ``expansion`` orders the
# pool and its pairs by one sort; before that the pool was this set of every
# substitution of every member, and its coupling the pool x S block of
# ``coupling_elements``, the screen of every bra x ket pair, which
# ``score_candidates`` also read until it looked its candidates up in the
# pool.  ``build_subspace`` evaluated the pairs of its set that the same
# screen passed.


def coupling_elements(bra_alpha, bra_beta, ket_alpha, ket_beta, h, g):
    """The nonzero <bra_i|H|ket_j> between two lists of mask rows, found
    by screening every pair: ``(i, j, values)`` ordered by i, then j, from
    the kernel's ``_pair_values`` in one call, so ``PAIR_BLOCK`` plays no
    part.  Pairs in different per-spin sectors, more than a double
    substitution apart, or equal are skipped."""
    def sector(alpha, beta):
        return 65 * np.bitwise_count(alpha).astype(int) + np.bitwise_count(beta)

    diff = (np.bitwise_count(bra_alpha[:, None] ^ ket_alpha[None, :])
            + np.bitwise_count(bra_beta[:, None] ^ ket_beta[None, :]))
    near = (diff > 0) & (diff <= 4) & (
        sector(bra_alpha, bra_beta)[:, None] == sector(ket_alpha, ket_beta))
    i, j = np.nonzero(near)
    v = hamiltonian._pair_values(bra_alpha[i], bra_beta[i], ket_alpha[j],
                                 ket_beta[j], h, g)
    keep = v != 0.0
    return i[keep], j[keep], v[keep]


def string_substitutions(mask, n_orbitals, rank):
    """Every mask reached from ``mask`` by moving ``rank`` of its electrons
    into empty orbitals."""
    occupied = [1 << p for p in range(n_orbitals) if (mask >> p) & 1]
    empty = [1 << p for p in range(n_orbitals) if not (mask >> p) & 1]
    removed = [mask ^ sum(holes)
               for holes in itertools.combinations(occupied, rank)]
    added = [sum(particles)
             for particles in itertools.combinations(empty, rank)]
    return [r | a for r in removed for a in added]


def substitution_pool_loop(psi, n):
    """Mask rows of every sector-preserving single or double substitution of
    a member of psi's set that lies outside it, in ascending (alpha, beta)
    order."""
    seen = set()
    members = list(map(tuple, psi.masks.tolist()))
    for a, b in members:
        alpha_singles = string_substitutions(a, n, 1)
        beta_singles = string_substitutions(b, n, 1)
        seen.update(zip(alpha_singles, itertools.repeat(b)))
        seen.update(zip(itertools.repeat(a), beta_singles))
        seen.update(zip(string_substitutions(a, n, 2), itertools.repeat(b)))
        seen.update(zip(itertools.repeat(a), string_substitutions(b, n, 2)))
        seen.update(itertools.product(alpha_singles, beta_singles))
    seen.difference_update(members)
    return np.array(sorted(seen), dtype=np.uint64).reshape(-1, 2)


def screened_connected_coupling(psi, h, g):
    """``expansion._connected_coupling`` as the pool loop and the screened
    ``coupling_elements`` gave it: (candidates, mu, I, value)."""
    pool = substitution_pool_loop(psi, len(h))
    rows, cols, vals = coupling_elements(*pool.T, *psi.masks.T, h, g)
    connected, mu = np.unique(rows, return_inverse=True)
    return pool[connected], mu, cols, vals


def screened_scores(psi, candidates, table):
    """``expansion.score_candidates`` as the screened ``coupling_elements``
    of the candidates against psi's set gave it: (determinant, score)
    pairs, best first."""
    masks = det_masks(candidates)
    rows, cols, vals = coupling_elements(*masks.T, *psi.masks.T, table.h,
                                         table.dense_g())
    scores = np.bincount(rows, weights=np.abs(vals * psi.coeffs[cols]),
                         minlength=len(masks))
    order = rank_order(masks, scores)
    return list(zip(determinants(masks[order]), scores[order].tolist()))


def screened_subspace(masks, table):
    """``hamiltonian.build_subspace``'s CSR matrix from the pairs i < j of
    the screened ``coupling_elements`` of the rows against themselves."""
    alpha, beta = masks.T
    h, g = table.h, table.dense_g()
    rows, cols, vals = coupling_elements(alpha, beta, alpha, beta, h, g)
    upper = rows < cols
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    diag = np.arange(len(masks))
    return scipy.sparse.csr_matrix(
        (np.concatenate([hamiltonian.diagonal_elements(alpha, beta, h, g),
                         vals, vals]),
         (np.concatenate([diag, rows, cols]),
          np.concatenate([diag, cols, rows]))),
        shape=(len(masks), len(masks)), dtype=float)


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


# --------------------------------------------- diagnostics references
#
# The occupations, entropies and mutual information of ``analysis.analyze``
# as two functions that each build the occupation matrix, the mutual
# information and ``AnalysisReport.mi_edge_list`` as one Python step per
# spin-orbital pair, and ``bounds.retained_weight`` over a set of
# Determinant objects: the package's forms must give the same bits.


def orbital_entropies(psi):
    """(p, s): per spin orbital the occupation probability under the c^2
    distribution and its binary entropy in nats."""
    return analysis._occupations(psi)[2:]


def mutual_information(psi):
    """The mutual information matrix over spin orbitals, from the pair
    tables of its own occupation matrix."""
    occ, weights, p, s = analysis._occupations(psi)
    i, j = np.triu_indices(len(p), 1)
    p11 = (occ.T @ (occ * weights[:, None]))[i, j]
    joint = np.clip([1.0 - p[i] - p[j] + p11, p[j] - p11, p[i] - p11, p11],
                    0.0, 1.0)
    x00, x01, x10, x11 = analysis._xlogx(joint)
    s_ij = -((((0.0 + x00) + x01) + x10) + x11)
    mi = np.zeros((len(p), len(p)))
    mi[i, j] = s[i] + s[j] - s_ij
    mi[(-1e-12 < mi) & (mi < 0.0)] = 0.0
    return mi + mi.T


def _binary_entropy(p):
    return float(-(analysis._xlogx(p) + analysis._xlogx(1.0 - p)))


def pair_loop_mutual_information(psi):
    """The mutual information matrix with each pair's four sectors
    tallied and summed on their own."""
    weights = np.asarray(psi.coeffs, dtype=float) ** 2
    occ = analysis._occupations(psi)[0]
    n_spin = occ.shape[1]
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
            s_ij = float(-np.sum(analysis._xlogx(joint)))
            value = s_i + _binary_entropy(p[j]) - s_ij
            if -1e-12 < value < 0.0:
                value = 0.0
            mi[i, j] = mi[j, i] = value
    return mi


def pair_loop_edge_list(mi, threshold=0.0):
    """(i, j, weight) for every pair i < j with weight above the
    threshold, row by row."""
    edges = []
    n = mi.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if mi[i, j] > threshold:
                edges.append((i, j, float(mi[i, j])))
    return edges


def set_retained_weight(ground, subset):
    """Squared ground-state amplitude captured by a Determinant subset."""
    wanted = set(subset)
    return float(sum(
        c * c for det, c in zip(ground.dets, ground.coeffs) if det in wanted
    ))


# ------------------------------------------- circuit summary references
#
# ``circuits.gate_counts`` with its kind tally and its active support as
# passes of their own, and the LUCJ baseline's generators filled and its
# Jastrow gates read back one entry at a time.


def loop_gate_counts(circuit):
    """The resource table of ``circuits.gate_counts``: kinds in first-seen
    order, greedy qubit-disjoint depth, and the qubits any gate touches."""
    by_kind = {}
    for g in circuit.gates:
        by_kind[g.kind] = by_kind.get(g.kind, 0) + 1
    free_at = {}
    depth = 0
    for g in circuit.gates:
        start = max((free_at.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            free_at[q] = start + 1
        depth = max(depth, start + 1)
    touched = set()
    for g in circuit.gates:
        touched.update(g.qubits)
    return {
        "n_gates": len(circuit.gates),
        "by_kind": by_kind,
        "n_params": circuit.n_params,
        "layers": circuit.layers,
        "depth": depth,
        "active_support": len(sorted(touched)),
        "n_qubits": circuit.n_qubits,
    }


def loop_jastrow_gates(J):
    """(qubits, angle) of each nonzero entry of J on or above the
    diagonal, row by row."""
    found = []
    for p in range(len(J)):
        for q in range(p, len(J)):
            if J[p, q] != 0.0:
                found.append(((p, q), float(J[p, q])))
    return found


def loop_illustrative_generators(n):
    """The LUCJ baseline's (K, J) for n spatial orbitals: 0.25 nearest-
    neighbor mixing, and phases of 0.4 on and 0.2 next to the diagonal."""
    K = np.zeros((n, n))
    for p in range(n - 1):
        K[p, p + 1] = 0.25
        K[p + 1, p] = -0.25
    J = np.zeros((2 * n, 2 * n))
    for i in range(2 * n):
        J[i, i] = 0.4
        if i + 1 < 2 * n:
            J[i, i + 1] = J[i + 1, i] = 0.2
    return K, J


# --------------------------------------------- distribution weights


def distribution_cumulative(dist, index):
    """Total probability of a set of basis indices under a
    ``sampling.Distribution``: the listed ones' probabilities plus the
    floor of each unlisted one."""
    index = np.unique(basis_indices(index, dist.n_qubits))
    listed = np.isin(dist.index, index)
    n_unlisted = index.size - np.count_nonzero(listed)
    return float(dist.probs[listed].sum() + dist.unlisted_floor * n_unlisted)


def distribution_total(dist):
    """Listed plus unlisted probability of a ``sampling.Distribution``."""
    return float(dist.probs.sum() + dist.residual_mass)


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
    """Readout one candidate position at a time: per block of
    READOUT_BLOCK shots, a binomial count of distinct (shot, qubit)
    positions under the larger rate q, then one uniform per position,
    which flips its bit when below that bit's rate over q."""
    eps0, eps1 = model.readout_eps0, model.readout_eps1
    if eps0 == 0.0 and eps1 == 0.0:
        return SampleCounts(
            counts=dict(sc.counts),
            total_shots=sc.total_shots,
            seed=int(seed),
            noise=model,
        )
    rng = _rng(seed)
    q = max(eps0, eps1)
    shots = [list(s) for s, c in sorted(sc.counts.items()) for _ in range(c)]
    for start in range(0, len(shots), READOUT_BLOCK):
        block = shots[start:start + READOUT_BLOCK]
        n = len(block[0])
        bits = len(block) * n
        positions = rng.choice(bits, rng.binomial(bits, q), replace=False)
        uniforms = rng.random(positions.size)
        for position, u in zip(positions.tolist(), uniforms.tolist()):
            row = block[position // n]
            qubit = position % n
            if u < (eps1 if row[qubit] == "1" else eps0) / q:
                row[qubit] = "0" if row[qubit] == "1" else "1"
    out = Counter("".join(row) for row in shots)
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
    return [determinant_of_bitstring(s) for s, _ in items]


# ------------------------------------------ replaced array-path references
#
# The package's earlier array forms of the bitstring sort, the readout and
# the gate pairing, bodies as they were: the readout drew one uniform per
# (shot, qubit), and the gate loop scanned the whole flat listing per gate,
# first pairing by searchsorted, then by mask class.  The faster forms in
# qselci.sampling and qselci.simulator must give the same positions and
# the same amplitudes bit for bit; the per-flip readout draws another
# stream, so it must match the per-bit one in its flip rates, and bit for
# bit where the rates leave nothing to chance.


def lex_order(index, n_qubits, *first):
    """Positions sorting basis indices as their bitstrings sort (qubit 0
    most significant), after the keys ``first`` when given."""
    keys = [(index >> k) & 1 for k in range(n_qubits - 1, -1, -1)]
    return np.lexsort(keys + list(first))


def per_bit_readout(sc, model, seed):
    """Flip each measured bit independently: 0→1 with eps0, 1→0 with eps1.

    Shots are read out in bitstring order, READOUT_BLOCK at a time, one
    row of uniforms each; only bits under the larger rate are looked up.
    """
    if not model.has_readout:
        return sc
    rng = _rng(seed)
    n = sc.n_qubits
    eps = np.array([model.readout_eps0, model.readout_eps1])
    order = lex_order(sc.index, n)
    read = np.repeat(sc.index[order], sc.shots[order])
    for start in range(0, read.size, READOUT_BLOCK):
        block = read[start:start + READOUT_BLOCK]
        u = rng.random(size=block.size * n)  # row = shot, column = qubit
        candidate = np.flatnonzero(u < eps.max())
        shot, qubit = np.divmod(candidate.astype(np.uint64), n)
        # u < eps1 on ones and u < eps0 on zeros
        keep = u[candidate] < eps[block[shot] >> qubit & 1]
        np.bitwise_xor.at(block, shot[keep], np.uint64(1) << qubit[keep])
    return sampling.SampleCounts(*np.unique(read, return_counts=True), n)


def _givens(amps, src_at, tgt_at, sign, thetas):
    """Rotate each row of ``amps`` in place by its own angle over the
    (source, target) pairs, one 1-D row at a time as the package does."""
    for row, theta in zip(amps, thetas):
        if theta == 0.0:
            continue
        c, s = np.cos(theta), np.sin(theta)
        a_src = row[src_at]
        a_tgt = row[tgt_at]
        row[tgt_at] = c * a_tgt + sign * s * a_src
        row[src_at] = c * a_src - sign * s * a_tgt


def searchsorted_rotate(amps, index, op, thetas):
    """In-place exp(theta (tau - tau^dag)) via paired-amplitude Givens, on
    each amplitude row with its own angle."""
    if not any(thetas):
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
    _givens(amps, src_at, tgt_at, sign, thetas)


def mask_rotate(amps, index, op, thetas):
    """In-place exp(theta (tau - tau^dag)) via paired-amplitude Givens, on
    each amplitude row with its own angle."""
    if not any(thetas):
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
    _givens(amps, src_at, tgt_at, sign, thetas)


def flat_apply_circuit(circuit, params, state, rotate=mask_rotate):
    """The gate loop that finds each gate's pairs by scanning the whole
    flat listing with ``rotate``; returns the new amplitudes.

    ``params`` may hold several angle sets, one per row: each gate's pairs
    are then found once, and the amplitudes come back one row per set.
    """
    params = np.asarray(params, dtype=float)
    rows = np.atleast_2d(params)
    amps = np.tile(state.amps, (len(rows), 1))
    index = state.index
    n = circuit.n_orbitals
    for gate in circuit.gates:
        if gate.kind in (GATE_EXCITATION, GATE_ORBITAL):
            thetas = [float(t) for t in rows[:, gate.param_slot]]
        if gate.kind == GATE_EXCITATION:
            rotate(amps, index, gate.excitation, thetas)
        elif gate.kind == GATE_ORBITAL:
            q, p = gate.qubits[0], gate.qubits[1]  # spatial pair (q < p)
            for off in (0, n):
                op = ExcitationOp(n, (q + off,), (p + off,), phase=1)
                rotate(amps, index, op, thetas)
        elif gate.kind == GATE_JASTROW:
            _jastrow_phase(amps, index, gate.qubits, gate.angle)
        elif gate.kind == GATE_BASIS:
            sign = -1.0 if gate.inverse else 1.0
            _basis_rotation(amps, index, sign * gate.kappa, n, rotate)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    return amps if params.ndim == 2 else amps[0]


def _jastrow_phase(amps, index, qubits, angle):
    mask = np.uint64(0)
    for q in set(qubits):
        mask |= np.uint64(1 << q)
    sel = (index & mask) == mask
    for row in amps:
        row[sel] *= np.exp(1j * angle)


def _basis_rotation(amps, index, kappa, n_orbitals, rotate):
    """Apply the Fock-space image of Q = expm(kappa) on both spin channels
    to every amplitude row."""
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
                amps[:, (index & bit) == bit] *= -1.0
    # Gamma(R(theta)) = exp(theta (a+_i a_j - a+_j a_i)); each factor here is
    # the transpose R^T, hence the negated angle.
    for i, j, theta in reversed(rotations):
        for off in (0, n_orbitals):
            op = ExcitationOp(n_orbitals, (j + off,), (i + off,), phase=1)
            rotate(amps, index, op, [-theta] * len(amps))


# ------------------------------------------------ Davidson reference
#
# ``hamiltonian.davidson_lowest`` as it was before its basis moved into
# preallocated row buffers: the basis and its images are stacked afresh
# with ``np.column_stack`` on every iteration, the whole projected matrix
# is rebuilt from them and goes through ``scipy.linalg.eigh`` for all its
# eigenpairs, and new directions are orthogonalized one basis vector at a
# time (modified Gram-Schmidt, twice).  The package's loop sums in another
# order, so the two agree to rounding and take the same number of
# mat-vecs.  The constants are read from the package at call time, so a
# test that patches them patches both solvers.


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


def full_dense_lowest(subspace):
    """Lowest eigenpair of a SubspaceMatrix from every eigenpair of its
    dense matrix; returns a Wavefunction."""
    w, v = scipy.linalg.eigh(subspace.matrix.toarray())
    return hamiltonian.Wavefunction(
        masks=subspace.masks,
        coeffs=_canonical_sign(v[:, 0]),
        energy=float(w[0]) + subspace.core_energy,
        n_orbitals=subspace.n_orbitals,
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
