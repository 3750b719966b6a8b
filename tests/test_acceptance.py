"""Twelve headline checks, one test per guarantee, at their stated
tolerances.  Each runs standalone; shared fixtures only cache the Hubbard
reference solution."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from qselci.analysis import (
    mutual_information,
    orbital_entropies,
    rank_histogram,
)
from qselci.bounds import (
    gate_budget,
    log_binomial,
    mc_hoeffding_violation_rate,
    mc_selection_failure_rate,
    required_shots,
    retained_weight,
    truncation_bound,
    uniform_probability,
)
from qselci.circuits import build_lucj, build_usci, jordan_wigner, prescreen
from qselci.dets import (ExcitationOp, bitstring_of_index, enumerate_space,
                         excitation_rank, hartree_fock)
from qselci.expansion import connected_set, en_pt2, expand_and_rediagonalize
from qselci.fixtures import hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import (
    build_subspace,
    davidson_lowest,
    fci_oracle,
    slater_condon,
    spectral_halfwidth,
)
from qselci.pipeline import NoiseModel, PipelineConfig, run_qsci_once
from qselci.sampling import (
    Distribution,
    depolarize_distribution,
    ideal_distribution,
    sample,
    symmetry_filter,
)
from qselci.simulator import Statevector, apply_circuit


@pytest.fixture(scope="module")
def hubbard():
    table = hubbard_chain_table()
    return table, fci_oracle(table)


def test_01_determinant_space_count():
    space = enumerate_space(10, 5, 5)
    assert len(space) == 63_504


def test_02_uniform_sampling_constants():
    assert abs(uniform_probability(10, 10) - 0.0606) < 1e-4
    per_spin = math.exp(log_binomial(73, 57) - 73 * math.log(2.0))
    assert abs(per_spin - 5.6e-7) < 0.02 * 5.6e-7
    full = uniform_probability(73, 114)
    assert full < 3e-13 * 1.5
    assert full > 3e-13 / 1.5


def test_03_gate_budgets():
    assert 275 <= gate_budget(0.990, 10, 10) <= 283
    assert 690 <= gate_budget(0.996, 10, 10) <= 710
    assert 3400 <= gate_budget(0.992, 73, 114) <= 3800


def test_04_oracle_equivalence(hubbard):
    table, oracle = hubbard
    sector = enumerate_space(4, 2, 2)
    dense = oracles.dense_hamiltonian(table)
    dense_energy, _ = oracles.ground_state(table, sector)
    assert abs(oracle.energy - dense_energy) < 1e-9
    for bra in sector:
        i = bra.to_index(4)
        for ket in sector:
            j = ket.to_index(4)
            assert abs(slater_condon(bra, ket, table) - dense[i, j]) < 1e-10


def test_05_variational_monotonicity_and_truncation_bound(hubbard):
    table, oracle = hubbard
    sector = enumerate_space(4, 2, 2)
    lam = spectral_halfwidth(build_subspace(sector, table))
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(200):
        inner_size = int(rng.integers(1, 36))
        inner_idx = rng.choice(36, size=inner_size, replace=False)
        extra = rng.choice(
            [i for i in range(36) if i not in set(inner_idx.tolist())],
            size=int(rng.integers(1, 37 - inner_size)),
            replace=False,
        )
        inner = [sector[i] for i in inner_idx]
        outer = inner + [sector[i] for i in extra]
        e_inner = oracles.ground_state(table, inner)[0]
        e_outer = oracles.ground_state(table, outer)[0]
        if e_outer > e_inner + 1e-10:
            violations += 1
        for subset, energy in ((inner, e_inner), (outer, e_outer)):
            q = retained_weight(oracle, subset)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bound = truncation_bound(lam, q)
            if not -1e-10 <= energy - oracle.energy <= bound + 1e-10:
                violations += 1
    assert violations == 0


def test_06_coupled_expansion_converges(hubbard):
    table, oracle = hubbard
    psi = davidson_lowest(build_subspace([hartree_fock(4, 2, 2)], table))
    energies = [psi.energy]
    for _ in range(20):
        step = expand_and_rediagonalize(psi, table, 0.0)
        psi = step.wavefunction_after
        energies.append(step.energy_after)
        if step.n_added == 0:
            break
    assert abs(psi.energy - oracle.energy) < 1e-9
    assert all(
        energies[i + 1] <= energies[i] + 1e-12 for i in range(len(energies) - 1)
    )


def test_07_pt2_sign_contract(hubbard):
    table, oracle = hubbard
    reference = prescreen(oracle, 0.0, top_m=1)[0]
    psi = davidson_lowest(build_subspace([reference], table))
    for mu in connected_set(psi, table):
        e_mu = slater_condon(mu, mu, table) + table.core_energy
        assert e_mu > psi.energy
    assert en_pt2(psi, table).delta_e <= 0.0
    full = en_pt2(oracle, table)
    assert full.delta_e == 0.0
    assert full.n_external == 0


def test_08_noise_model_laws():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        support = int(rng.integers(2, min(20, 1 << n) + 1))
        idx = rng.choice(1 << n, size=support, replace=False)
        w = rng.random(support)
        w /= w.sum()
        dist = Distribution(index=idx, probs=w, n_qubits=n)
        p = float(rng.uniform(0.01, 0.99))
        noisy = depolarize_distribution(dist, p)
        text = [bitstring_of_index(i, n) for i in idx.tolist()]
        clean_order = [s for _, s in sorted(zip(-dist.probs, text))]
        noisy_order = [s for _, s in sorted(zip(-noisy.probs, text))]
        assert clean_order == noisy_order
        r_size = int(rng.integers(1, (1 << n) + 1))
        r_set = rng.choice(1 << n, size=r_size, replace=False)
        mixed = (1.0 - p) * dist.cumulative(r_set) + p * r_size / (1 << n)
        assert abs(noisy.cumulative(r_set) - mixed) < 1e-12

    table = two_orbital_table()
    dense = oracles.dense_hamiltonian(table)
    eigs = scipy.linalg.eigh(dense, eigvals_only=True)
    lam = (eigs[-1] - eigs[0]) / 2
    trace_mean = float(np.trace(dense)) / dense.shape[0]
    for _ in range(100):
        vec = rng.normal(size=dense.shape[0]) + 1j * rng.normal(
            size=dense.shape[0]
        )
        vec /= np.linalg.norm(vec)
        energy = float(np.real(vec.conj() @ dense @ vec))
        p = float(rng.uniform(0.0, 1.0))
        shifted = (1.0 - p) * energy + p * trace_mean
        assert abs(shifted - energy) <= 2.0 * p * lam + 1e-12


def test_09_concentration_validation():
    for delta in (0.01, 0.05, 0.2):
        rate = mc_hoeffding_violation_rate(
            0.3, 1000, delta, trials=20_000, seed=1
        )
        assert rate <= delta
    probs = [0.4, 0.25, 0.15, 0.12, 0.08]
    shots = required_shots(len(probs), 0.1, 0.0, 0.10)
    rate = mc_selection_failure_rate(probs, 2, shots, trials=1000, seed=2)
    assert rate <= 0.1


def test_10_ansatz_correctness(hubbard):
    table, oracle = hubbard
    selected = prescreen(oracle, 0.01)
    circuit = build_usci(selected[0], selected, 4)

    rng = np.random.default_rng(3)
    vec = rng.normal(size=256) + 1j * rng.normal(size=256)
    vec /= np.linalg.norm(vec)
    state = Statevector(amps=vec.copy(), n_qubits=8)
    at_zero = apply_circuit(circuit, np.zeros(circuit.n_params), state)
    assert np.max(np.abs(at_zero.amps - vec)) < 1e-12

    theta = 0.37
    for ann, cre, n_orb in (
        ((0,), (1,), 1),
        ((0,), (2,), 2),
        ((0, 2), (1, 3), 2),
    ):
        op = ExcitationOp(
            n_orbitals=n_orb, annihilated=ann, created=cre, phase=1
        )
        n_qubits = 2 * n_orb
        generator = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
        for coeff, label in jordan_wigner(op, n_qubits):
            generator += coeff * oracles.pauli_string_matrix(label)
        from_pauli = scipy.linalg.expm(theta * generator)
        from_fermion = oracles.dense_excitation_rotation(op, theta)
        assert np.max(np.abs(from_pauli - from_fermion)) < 1e-10

    prepared = apply_circuit(
        circuit,
        np.full(circuit.n_params, 0.15),
        Statevector.from_determinant(selected[0], 4),
    )
    counts = sample(ideal_distribution(prepared), 20_000, seed=4)
    _, rejected = symmetry_filter(counts, 2, 2)
    assert rejected == 0

    k_gen = np.zeros((4, 4))
    k_gen[0, 1], k_gen[1, 0] = 0.25, -0.25
    identity_lucj = build_lucj(k_gen, np.zeros((8, 8)), selected[0])
    before = Statevector(amps=vec.copy(), n_qubits=8)
    after = apply_circuit(identity_lucj, np.zeros(0), before)
    assert np.max(np.abs(after.amps - vec)) < 1e-10


def test_11_end_to_end_recovery(hubbard):
    table, oracle = hubbard
    selected = prescreen(oracle, 0.01)
    circuit = build_usci(selected[0], selected, 4)
    params = np.full(circuit.n_params, 0.15)
    for p, tolerance in ((0.01, 1.6e-3), (0.0, 1e-6)):
        cfg = PipelineConfig(
            shots=100_000, noise=NoiseModel(depolarizing_p=p), seed=2026
        )
        once = run_qsci_once(circuit, params, table, cfg)
        refined = expand_and_rediagonalize(once.wavefunction, table, 0.0)
        error = abs(refined.energy_after - oracle.energy)
        assert error < tolerance, (p, error)


def test_12_wavefunction_analysis(hubbard):
    table, oracle = hubbard
    _, entropies = orbital_entropies(oracle)
    assert np.all(entropies <= math.log(2.0) + 1e-12)
    mi = mutual_information(oracle)
    assert np.allclose(mi, mi.T)
    assert np.all(mi >= 0.0)

    single = davidson_lowest(build_subspace([hartree_fock(4, 2, 2)], table))
    assert np.allclose(mutual_information(single), 0.0)

    hf = hartree_fock(4, 2, 2)
    sector = enumerate_space(4, 2, 2)
    cisd_space = [d for d in sector if excitation_rank(hf, d) <= 2]
    cisd = davidson_lowest(build_subspace(cisd_space, table))
    hist = rank_histogram(cisd, hf)
    assert len(hist) <= 3
    assert abs(hist.sum() - 1.0) < 1e-10
