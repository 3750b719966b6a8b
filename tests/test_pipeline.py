import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from qselci import pipeline
from qselci.circuits import build_usci, prescreen
from qselci.dets import Determinant
from qselci.errors import EmptySubspace
from qselci.fixtures import fixture_table, hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import build_subspace, davidson_lowest, fci_oracle
from qselci.pipeline import (
    NoiseModel,
    OptimizerConfig,
    PipelineConfig,
    derive_seeds,
    optimize,
    run_qsci_once,
)
from qselci.sampling import (
    counts_to_determinants,
    counts_to_masks,
    ideal_distribution,
    sample,
)
from qselci.simulator import Statevector, apply_circuit


@pytest.fixture(scope="module")
def hubbard():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.01)
    circuit = build_usci(selected[0], selected, 4)
    return table, oracle, selected, circuit


# ----------------------------------------------------------- seed derivation

def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(2026, 4)
    b = derive_seeds(2026, 4)
    c = derive_seeds(2027, 4)
    assert a == b
    assert a != c
    assert len(set(a)) == 4
    assert all(0 <= s < 2 ** 64 for s in a)


# ------------------------------------------------------------- single passes

def test_zero_parameters_recover_reference_diagonal(hubbard):
    table, _, selected, circuit = hubbard
    cfg = PipelineConfig(shots=10_000, seed=5)
    result = run_qsci_once(circuit, np.zeros(circuit.n_params), table, cfg)
    dense = oracles.dense_hamiltonian(table)
    idx = selected[0].to_index(table.n_orbitals)
    expected = dense[idx, idx] + table.core_energy
    assert result.n_unique == 1
    assert abs(result.energy - expected) < 1e-12


def test_generous_sampling_reaches_oracle_energy(hubbard):
    table, oracle, _, circuit = hubbard
    cfg = PipelineConfig(shots=100_000, seed=2026)
    result = run_qsci_once(circuit, np.full(circuit.n_params, 0.2), table, cfg)
    assert result.n_unique == 36
    assert abs(result.energy - oracle.energy) < 1e-6


def test_energy_is_variational(hubbard):
    table, oracle, _, circuit = hubbard
    rng = np.random.default_rng(0)
    cfg = PipelineConfig(shots=2_000, seed=11)
    for _ in range(10):
        params = rng.uniform(-0.5, 0.5, circuit.n_params)
        result = run_qsci_once(circuit, params, table, cfg)
        assert result.energy >= oracle.energy - 1e-9


def test_full_depolarization_single_shot_can_empty_subspace(hubbard):
    table, _, _, circuit = hubbard
    cfg = PipelineConfig(shots=1, noise=NoiseModel(depolarizing_p=1.0), seed=0)
    with pytest.raises(EmptySubspace):
        run_qsci_once(circuit, np.full(circuit.n_params, 0.15), table, cfg)


def test_single_pass_deterministic_per_seed(hubbard):
    table, _, _, circuit = hubbard
    params = np.full(circuit.n_params, 0.15)
    noise = NoiseModel(depolarizing_p=0.02, readout_eps0=0.01)
    a = run_qsci_once(circuit, params, table,
                      PipelineConfig(shots=5_000, noise=noise, seed=77))
    b = run_qsci_once(circuit, params, table,
                      PipelineConfig(shots=5_000, noise=noise, seed=77))
    c = run_qsci_once(circuit, params, table,
                      PipelineConfig(shots=5_000, noise=noise, seed=78))
    assert a.counts.counts == b.counts.counts
    assert a.energy == b.energy
    assert a.counts.counts != c.counts.counts


def test_sampling_error_shrinks_with_shots(hubbard):
    table, _, selected, circuit = hubbard
    sv = Statevector.from_determinant(selected[0], 4)
    out = apply_circuit(circuit, np.full(circuit.n_params, 0.15), sv)
    dist = ideal_distribution(out)

    def tv_distance(shots):
        counts = sample(dist, shots, seed=7)
        emp = dict(zip(counts.index.tolist(), counts.shots / shots))
        probs = dict(zip(dist.index.tolist(), dist.probs))
        keys = set(emp) | set(probs)
        return 0.5 * sum(
            abs(emp.get(k, 0.0) - probs.get(k, 0.0)) for k in keys
        )

    coarse = tv_distance(1_000)
    fine = tv_distance(100_000)
    assert fine < coarse / 3


# ------------------------------------------ mask rows from filter to subspace

NOISE = {
    "noiseless": NoiseModel(),
    "depol-readout": NoiseModel(depolarizing_p=0.05, readout_eps0=0.02,
                                readout_eps1=0.03),
    "full-depol": NoiseModel(depolarizing_p=1.0, readout_eps0=0.01,
                             readout_eps1=0.01),
}


def _fixture_pass(name):
    """A fixture's table, its prescreened USCI circuit and uniform angles."""
    table = fixture_table(name)
    selected = prescreen(fci_oracle(table), 0.01)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    return table, circuit, np.full(circuit.n_params, 0.15)


@pytest.mark.parametrize("fixture", ["hubbard4", "h-chain-synthetic"])
def test_qsci_pass_builds_no_determinant(monkeypatch, fixture):
    table, circuit, params = _fixture_pass(fixture)
    cfg = PipelineConfig(shots=20_000, noise=NOISE["depol-readout"], seed=11)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a Determinant was built")

    monkeypatch.setattr(Determinant, "__init__", refuse)
    result = run_qsci_once(circuit, params, table, cfg)
    assert result.n_unique == len(result.wavefunction.masks) > 1


@pytest.mark.parametrize("noise", NOISE, ids=NOISE.keys())
@pytest.mark.parametrize("fixture", ["hubbard4", "two-orbital",
                                     "h-chain-synthetic"])
def test_mask_rows_build_the_determinant_list_subspace(fixture, noise):
    table, circuit, params = _fixture_pass(fixture)
    cfg = PipelineConfig(shots=20_000, noise=NOISE[noise], seed=11)
    result = run_qsci_once(circuit, params, table, cfg)
    kept = result.counts  # the filtered counts the pass diagonalized over
    rows = build_subspace(counts_to_masks(kept, table.n_orbitals), table)
    listed = build_subspace(counts_to_determinants(kept, table.n_orbitals), table)
    assert np.array_equal(rows.masks, listed.masks)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(rows.matrix, part),
                              getattr(listed.matrix, part))
    assert np.array_equal(result.wavefunction.masks, listed.masks)
    assert result.energy == davidson_lowest(listed).energy


# --------------------------------------------------------------- optimization

def test_optimize_zero_parameter_circuit_single_evaluation():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=1)
    circuit = build_usci(selected[0], selected, 4)
    assert circuit.n_params == 0
    params, trace = optimize(circuit, table, PipelineConfig(shots=100, seed=1))
    assert len(params) == 0
    assert len(trace) == 1


def test_optimize_one_parameter_reaches_subspace_minimum():
    table = two_orbital_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=2)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    assert circuit.n_params == 1
    block = oracles.project_hamiltonian(table, selected)
    target = scipy.linalg.eigh(block, eigvals_only=True)[0] + table.core_energy
    _, trace = optimize(circuit, table, PipelineConfig(shots=100_000, seed=2026))
    assert abs(trace[-1] - target) < 1e-6


def test_optimize_trace_monotone_and_bounded():
    table = two_orbital_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=2)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    cfg = PipelineConfig(shots=50_000, seed=3)
    _, trace = optimize(circuit, table, cfg)
    assert 1 <= len(trace) <= cfg.optimizer.max_evaluations
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
    assert trace[-1] == min(trace)
    assert trace[-1] >= oracle.energy - 1e-9


def test_optimize_deterministic():
    table = two_orbital_table()
    selected = prescreen(fci_oracle(table), 0.0, top_m=2)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    cfg = PipelineConfig(shots=20_000, seed=9)
    p1, t1 = optimize(circuit, table, cfg)
    p2, t2 = optimize(circuit, table, cfg)
    assert np.array_equal(p1, p2)
    assert t1 == t2


def test_optimize_respects_evaluation_budget():
    table = two_orbital_table()
    selected = prescreen(fci_oracle(table), 0.0, top_m=2)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    cfg = PipelineConfig(
        shots=10_000, seed=4,
        optimizer=OptimizerConfig(max_evaluations=3, patience=10),
    )
    _, trace = optimize(circuit, table, cfg)
    assert len(trace) <= 3


def test_optimize_budget_below_the_simplex_raises_no_warning(hubbard):
    # 44 parameters need 46 evaluations for COBYLA's first simplex; the
    # budget of 12 still ends the run, without a warning from the solver
    table, _oracle, _selected, circuit = hubbard
    assert circuit.n_params == 44
    cfg = PipelineConfig(
        shots=2000, seed=5,
        optimizer=OptimizerConfig(max_evaluations=12, patience=100),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = optimize(circuit, table, cfg)
    assert len(trace) == 12


def test_optimize_lets_objective_stderr_and_warnings_through(capfd,
                                                             monkeypatch):
    # in a real process sys.stderr writes to descriptor 2, as here
    monkeypatch.setattr(sys, "stderr", open(2, "w", closefd=False))
    table = two_orbital_table()
    selected = prescreen(fci_oracle(table), 0.0, top_m=2)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    real_pass = pipeline.run_qsci_once

    def chatty_pass(*args):
        print("objective output", file=sys.stderr, flush=True)
        warnings.warn("objective warning")
        return real_pass(*args)

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                lineno, line))
        sys.stderr.flush()

    monkeypatch.setattr(pipeline, "run_qsci_once", chatty_pass)
    cfg = PipelineConfig(shots=1000, seed=4,
                         optimizer=OptimizerConfig(max_evaluations=2))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        optimize(circuit, table, cfg)
    err = capfd.readouterr().err
    assert err.count("objective output") == 2
    assert err.count("UserWarning: objective warning") == 2


# ----------------------------------------------------------------- validation

def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_evaluations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(patience=0)
    for tol in (0.0, np.nan, np.inf):  # COBYLA resets a non-finite RHOEND
        with pytest.raises(ValueError):
            OptimizerConfig(energy_tol=tol)
    with pytest.raises(ValueError):
        PipelineConfig(shots=0)
