"""Independent brute-force references used across the test suite.

Everything here is built from dense operator matrices over the full
2^(2n)-dimensional occupation basis (basis index bit s = occupation of
blocked spin orbital s), deliberately avoiding the package's bit-twiddling
code paths so the two implementations check each other.
"""

import functools
import itertools
from math import comb

import numpy as np
import scipy.linalg

from qselci.fcidump import IntegralTable


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
