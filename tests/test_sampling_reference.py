"""The array sampling path against the text-keyed reference in
``oracles``: same seeds, same shots, same reports."""

import numpy as np
import pytest

import oracles
from qselci import sampling
from qselci.circuits import build_usci, prescreen
from qselci.dets import bitstring_of_index
from qselci.fixtures import hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import fci_oracle
from qselci.sampling import NoiseModel
from qselci.simulator import Statevector, apply_circuit

SEEDS = (0, 11, 2026)
SHOTS = 4000


def _usci_state(table, cutoff):
    selected = prescreen(fci_oracle(table), cutoff)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    state = Statevector.from_determinant(selected[0], table.n_orbitals)
    return apply_circuit(circuit, np.full(circuit.n_params, 0.3), state)


def _random_state(n_qubits, support, seed):
    rng = np.random.default_rng(seed)
    amps = np.zeros(1 << n_qubits, dtype=complex)
    idx = rng.choice(1 << n_qubits, size=support, replace=False)
    amps[idx] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return Statevector(amps=amps / np.linalg.norm(amps), n_qubits=n_qubits)


STATES = {
    "two-orbital": lambda: _usci_state(two_orbital_table(), 0.0),
    "hubbard4": lambda: _usci_state(hubbard_chain_table(), 0.01),
    "random-10q": lambda: _random_state(10, 60, 1),
    "random-16q": lambda: _random_state(16, 400, 2),
}

NOISE = {
    "off": NoiseModel(),
    "depolarizing+readout": NoiseModel(
        depolarizing_p=0.05, readout_eps0=0.02, readout_eps1=0.03
    ),
    "full-depolarizing": NoiseModel(
        depolarizing_p=1.0, readout_eps0=0.01, readout_eps1=0.01
    ),
}


def _text_probs(dist):
    return {
        bitstring_of_index(i, dist.n_qubits): p
        for i, p in zip(dist.index.tolist(), dist.probs.tolist())
    }


@pytest.mark.parametrize("noise_name", sorted(NOISE))
@pytest.mark.parametrize("state_name", sorted(STATES))
def test_array_sampling_matches_text_reference(state_name, noise_name):
    state, noise = STATES[state_name](), NOISE[noise_name]
    n_orbitals = state.n_qubits // 2
    n_alpha = n_beta = n_orbitals // 2
    dist = sampling.depolarize_distribution(
        sampling.ideal_distribution(state), noise.depolarizing_p
    )
    ref_dist = oracles.depolarize_distribution(
        oracles.ideal_distribution(state), noise.depolarizing_p
    )
    assert _text_probs(dist) == ref_dist.probs
    assert dist.residual_mass == ref_dist.residual_mass
    assert dist.unlisted_floor == ref_dist.unlisted_floor
    for seed in SEEDS:
        counts = sampling.sample(dist, SHOTS, seed, noise=noise)
        ref = oracles.sample(ref_dist, SHOTS, seed, noise=noise)
        assert counts.counts == ref.counts
        counts = sampling.apply_readout(counts, noise, seed + 1)
        ref = oracles.apply_readout(ref, noise, seed + 1)
        assert counts.counts == ref.counts
        assert counts.total_shots == ref.total_shots == SHOTS
        assert counts.top(10) == ref.top(10)
        assert counts.to_csv() == ref.to_csv()
        kept, rejected = sampling.symmetry_filter(counts, n_alpha, n_beta)
        ref_kept, ref_rejected = oracles.symmetry_filter(ref, n_alpha, n_beta)
        assert rejected == ref_rejected
        assert kept.counts == ref_kept.counts
        assert kept.total_shots == ref_kept.total_shots
        assert kept.to_csv() == ref_kept.to_csv()
        assert sampling.counts_to_determinants(
            kept, n_orbitals
        ) == oracles.counts_to_determinants(ref_kept, n_orbitals)
