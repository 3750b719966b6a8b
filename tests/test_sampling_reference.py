"""The array sampling path against the text-keyed reference in
``oracles``: same seeds, same shots, same reports."""

import functools
from dataclasses import replace

import numpy as np
import pytest

import helpers
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


def _sector_state(n_orbitals, n_alpha, n_beta, n_pick, seed):
    circuit, params = helpers.hf_pick_usci(n_orbitals, n_alpha, n_beta,
                                           n_pick, seed)
    state = Statevector.from_determinant(circuit.reference, n_orbitals)
    return apply_circuit(circuit, params, state)


# name -> (state factory, (n_alpha, n_beta) the filter keeps).  The sector
# states run indices past 4 bytes, widths that are not whole bytes, and
# the full 64-bit index.
STATES = {
    "two-orbital": (lambda: _usci_state(two_orbital_table(), 0.0), (1, 1)),
    "hubbard4": (lambda: _usci_state(hubbard_chain_table(), 0.01), (2, 2)),
    "random-10q": (lambda: _random_state(10, 60, 1), (2, 2)),
    "random-16q": (lambda: _random_state(16, 400, 2), (4, 4)),
    "sector-20q": (lambda: _sector_state(10, 5, 5, 200, 5), (5, 5)),
    "sector-34q": (lambda: _sector_state(17, 1, 1, 6, 3), (1, 1)),
    "sector-64q": (lambda: _sector_state(32, 1, 1, 6, 4), (1, 1)),
}
FULL_REGISTER_QUBITS = 20  # widest state oracles.ideal_distribution expands

NOISE = {
    "off": NoiseModel(),
    "depolarizing+readout": NoiseModel(
        depolarizing_p=0.05, readout_eps0=0.02, readout_eps1=0.03
    ),
    "full-depolarizing": NoiseModel(
        depolarizing_p=1.0, readout_eps0=0.01, readout_eps1=0.01
    ),
}


def _listed_reference(state):
    """oracles.ideal_distribution for a register too wide to expand: the
    same pruned Born probabilities, one listed amplitude at a time."""
    probs = {}
    for i, a in zip(state.index.tolist(), state.amps.tolist()):
        p = abs(a) * abs(a)
        if p > 1e-16:
            probs[bitstring_of_index(i, state.n_qubits)] = p
    return oracles.Distribution(probs=probs, n_qubits=state.n_qubits)


def _text_probs(dist):
    return {
        bitstring_of_index(i, dist.n_qubits): p
        for i, p in zip(dist.index.tolist(), dist.probs.tolist())
    }


@pytest.mark.parametrize("noise_name", sorted(NOISE))
@pytest.mark.parametrize("state_name", sorted(STATES))
def test_array_sampling_matches_text_reference(state_name, noise_name):
    build, (n_alpha, n_beta) = STATES[state_name]
    state, noise = build(), NOISE[noise_name]
    n_orbitals = state.n_qubits // 2
    dist = sampling.depolarize_distribution(
        sampling.ideal_distribution(state), noise.depolarizing_p
    )
    ideal = (oracles.ideal_distribution if state.n_qubits <= FULL_REGISTER_QUBITS
             else _listed_reference)
    ref_dist = oracles.depolarize_distribution(ideal(state), noise.depolarizing_p)
    assert _text_probs(dist) == ref_dist.probs
    assert dist.residual_mass == ref_dist.residual_mass
    assert dist.unlisted_floor == ref_dist.unlisted_floor
    for seed in SEEDS:
        counts = sampling.sample(dist, SHOTS, seed, noise=noise)
        ref = oracles.sample(ref_dist, SHOTS, seed, noise=noise)
        assert counts.counts == ref.counts
        assert counts.index.dtype == np.uint64
        assert counts.shots.dtype == np.int64
        assert np.all(counts.index[1:] > counts.index[:-1])
        swapped = replace(counts, index=counts.index.astype(">u8"))
        counts = sampling.apply_readout(counts, noise, seed + 1)
        ref = oracles.apply_readout(ref, noise, seed + 1)
        assert counts.counts == ref.counts
        assert counts.index.dtype == np.uint64
        assert counts.shots.dtype == np.int64
        swapped = sampling.apply_readout(swapped, noise, seed + 1)
        assert np.array_equal(swapped.index, counts.index)
        assert np.array_equal(swapped.shots, counts.shots)
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


# name -> (eps0, eps1): rate pairs the rows above leave out
READOUT_RATES = {
    "eps0-above-eps1": (0.04, 0.01),
    "eps0-zero": (0.0, 0.05),
    "eps1-zero": (0.05, 0.0),
    "unit-eps0": (1.0, 0.0),
}
READOUT_STATES = ("two-orbital", "hubbard4", "random-10q", "sector-20q",
                  "sector-64q")
# 40,000 shots span three readout blocks; the rows above fit in one
BLOCKS_SHOTS = 40_000


@functools.cache
def _built_state(state_name):
    return STATES[state_name][0]()


def _readout_matches_reference(state_name, eps0, eps1, shots, seed):
    state = _built_state(state_name)
    noise = NoiseModel(readout_eps0=eps0, readout_eps1=eps1)
    counts = sampling.sample(sampling.ideal_distribution(state), shots, seed)
    ref = oracles.SampleCounts(counts=dict(counts.counts), total_shots=shots,
                               seed=seed)
    counts = sampling.apply_readout(counts, noise, seed + 1)
    ref = oracles.apply_readout(ref, noise, seed + 1)
    assert counts.counts == ref.counts
    assert counts.total_shots == ref.total_shots == shots
    assert np.all(counts.index[1:] > counts.index[:-1])
    assert counts.to_csv() == ref.to_csv()


@pytest.mark.parametrize("rates", sorted(READOUT_RATES))
@pytest.mark.parametrize("state_name", READOUT_STATES)
def test_readout_rates_match_text_reference(state_name, rates):
    _readout_matches_reference(state_name, *READOUT_RATES[rates], SHOTS, 11)


@pytest.mark.parametrize("rates", [(0.02, 0.03), (0.04, 0.01)],
                         ids=lambda r: "%g-%g" % r)
@pytest.mark.parametrize("state_name", ["random-10q", "sector-20q"])
def test_readout_across_blocks_matches_text_reference(state_name, rates):
    block = sampling.READOUT_BLOCK
    assert 2 * block < BLOCKS_SHOTS <= 3 * block
    _readout_matches_reference(state_name, *rates, BLOCKS_SHOTS, 2026)
