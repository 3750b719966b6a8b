import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from qselci.bounds import (
    BoundInputs,
    BoundReport,
    confident_weight_lower,
    direct_noise_bias,
    expected_error_bound,
    full_report,
    gate_budget,
    hoeffding_epsilon,
    log_binomial,
    mc_hoeffding_violation_rate,
    mc_selection_failure_rate,
    noisy_cumulative,
    required_shots,
    retained_weight,
    selection_failure,
    truncation_bound,
    uniform_probability,
)
from qselci.dets import enumerate_space
from qselci.errors import FullDepolarization, ZeroGap
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import (
    build_subspace,
    fci_oracle,
    spectral_halfwidth,
)


# ------------------------------------------------------------------ truncation

def test_truncation_limits():
    assert truncation_bound(3.0, 1.0) == 0.0
    with pytest.warns(UserWarning):
        assert truncation_bound(3.0, 0.0) == 6.0


def test_truncation_small_weight_saturates_at_full_width():
    # for tiny q the sqrt branch exceeds the 2*lambda cap
    assert truncation_bound(3.0, 1e-12) == 6.0


def test_truncation_near_unit_weight_asymptotics():
    eta = 1e-4
    value = truncation_bound(1.0, 1.0 - eta)
    assert abs(value - 2.0 * math.sqrt(eta)) < 0.05 * 2.0 * math.sqrt(eta)


def test_truncation_monotone_in_weight():
    grid = np.linspace(0.01, 1.0, 200)
    values = [truncation_bound(2.5, q) for q in grid]
    assert all(values[i + 1] <= values[i] + 1e-15 for i in range(len(values) - 1))


def test_truncation_validation():
    with pytest.raises(ValueError):
        truncation_bound(1.0, 1.5)
    with pytest.raises(ValueError):
        truncation_bound(-1.0, 0.5)


def test_truncation_bound_holds_on_random_subsets():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    sector = enumerate_space(4, 2, 2)
    lam = spectral_halfwidth(build_subspace(sector, table))
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.integers(1, 37))
        chosen = rng.choice(36, size=size, replace=False)
        subset = [sector[i] for i in chosen]
        block = oracles.project_hamiltonian(table, subset)
        e_r = scipy.linalg.eigh(block, eigvals_only=True)[0] + table.core_energy
        q = retained_weight(oracle, subset)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bound = truncation_bound(lam, q)
        assert -1e-10 <= e_r - oracle.energy <= bound + 1e-10


# ------------------------------------------------------------ weight inversion

def test_weight_inversion_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = float(rng.uniform(0.0, 1.0))
        p = float(rng.uniform(0.0, 0.99))
        d = int(rng.integers(4, 1 << 20))
        r = int(rng.integers(1, d + 1))
        noisy = noisy_cumulative(q, p, r, d)
        assert abs(confident_weight_lower(noisy, 0.0, p, r, d) - q) < 1e-12


def test_weight_inversion_identity_without_noise():
    assert confident_weight_lower(0.73, 0.0, 0.0, 10, 1024) == 0.73


def test_weight_inversion_requires_signal():
    with pytest.raises(FullDepolarization):
        confident_weight_lower(0.5, 0.0, 1.0, 10, 1024)
    with pytest.raises(FullDepolarization):
        confident_weight_lower(0.5, 0.01, 1.0, 10, 1024)


def test_weight_inversion_clamps_and_subtracts_mismatch():
    assert confident_weight_lower(1.5, 0.0, 0.0, 1, 4) == 1.0
    assert confident_weight_lower(0.0, 0.0, 0.5, 1, 4) == 0.0
    assert abs(confident_weight_lower(0.6, 0.0, 0.0, 1, 4, zeta_r=0.1) - 0.5) < 1e-15


# ----------------------------------------------------------- shot confidence

def test_hoeffding_radius_closed_form():
    delta = 2.0 / math.e ** 2
    assert abs(hoeffding_epsilon(10_000, delta) - 0.01) < 1e-15


def test_hoeffding_validation():
    with pytest.raises(ValueError):
        hoeffding_epsilon(0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_epsilon(100, 0.0)
    with pytest.raises(ValueError):
        hoeffding_epsilon(100, 1.0)


def test_confident_energy_bound_composes_pieces():
    inputs = BoundInputs(
        lambda_h=2.0, p=0.1, r=16, d=1024, m_shots=40_000, delta=0.05,
        p_hat_r=0.95,
    )
    eps = hoeffding_epsilon(inputs.m_shots, inputs.delta)
    q_lower = confident_weight_lower(0.95, eps, 0.1, 16, 1024)
    assert abs(
        full_report(inputs).energy_bound_confident
        - truncation_bound(2.0, q_lower)
    ) < 1e-15


# --------------------------------------------------------- selection failure

def test_selection_failure_gap_requirements():
    with pytest.raises(ZeroGap):
        selection_failure(1000, 10, 0.0)
    assert selection_failure(10_000, 10, 0.5) < 1e-100
    assert selection_failure(1, 10 ** 6, 1e-6) == 1.0


def test_required_shots_inverse_square_noise_scaling():
    clean = required_shots(10, 0.01, 0.0, 0.01)
    noisy = required_shots(10, 0.01, 0.5, 0.01)
    assert abs(noisy - 4 * clean) <= 4


def test_required_shots_validation():
    with pytest.raises(ZeroGap):
        required_shots(10, 0.05, 0.0, 0.0)
    with pytest.raises(FullDepolarization):
        required_shots(10, 0.05, 1.0, 0.1)
    with pytest.raises(ValueError):
        required_shots(10, 0.0, 0.0, 0.1)


@pytest.mark.parametrize("delta, gap_id", [(0.1, 1e-200), (0.1, 1e-160),
                                           (1e-320, 0.5)])
def test_required_shots_past_a_float_is_a_value_error(delta, gap_id):
    # gap_id ** 2 underflows to 0, or the count overflows to inf
    with pytest.raises(ValueError, match="shot count is not finite"):
        required_shots(3, delta, 0.0, gap_id)


def test_expected_error_reduces_to_truncation():
    inputs = BoundInputs(
        q_r=0.99, lambda_h=2.0, p=0.0, m_shots=10 ** 9, k_pool=100,
        gap_id=0.01,
    )
    assert abs(
        expected_error_bound(inputs) - truncation_bound(2.0, 0.99)
    ) < 1e-12


def test_expected_error_additive_form():
    inputs = BoundInputs(
        q_r=0.9, lambda_h=1.5, p=0.2, m_shots=500, k_pool=40, gap_id=0.05,
    )
    tail = 4.0 * 40 * 1.5 * math.exp(-500 * 0.8 ** 2 * 0.05 ** 2 / 2.0)
    expected = truncation_bound(1.5, 0.9) + tail
    assert abs(expected_error_bound(inputs) - expected) < 1e-12


# ------------------------------------------------------------------ direct bias

def test_direct_bias_zero_without_noise():
    assert direct_noise_bias(0.0, 5.0) == 0.0


def test_direct_bias_dominates_dense_energy_shift():
    table = hubbard_chain_table()
    dense = oracles.dense_hamiltonian(table)
    eigs = scipy.linalg.eigh(dense, eigvals_only=True)
    lam = (eigs[-1] - eigs[0]) / 2
    trace_mean = float(np.trace(dense)) / dense.shape[0]
    rng = np.random.default_rng(1)
    for _ in range(100):
        vec = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
        vec /= np.linalg.norm(vec)
        energy = float(np.real(vec.conj() @ dense @ vec))
        p = float(rng.uniform(0.0, 1.0))
        shifted = (1.0 - p) * energy + p * trace_mean
        assert abs(shifted - energy) <= direct_noise_bias(p, lam) + 1e-12


# ----------------------------------------------- uniform sampling / gate budget

def test_log_binomial_matches_exact_combinatorics():
    for n in range(31):
        for k in range(n + 1):
            exact = math.comb(n, k)
            assert abs(math.exp(log_binomial(n, k)) - exact) < 1e-10 * exact + 1e-12
    assert log_binomial(5, 6) == -math.inf
    assert log_binomial(5, -1) == -math.inf


def test_sector_probability_small_active_space():
    value = uniform_probability(10, 10)
    exact = math.comb(10, 5) ** 2 / 2 ** 20
    assert abs(value - exact) < 1e-12
    assert abs(value - 0.0605621) < 1e-6


def test_sector_probability_large_active_space():
    per_spin = math.exp(log_binomial(73, 57) - 73 * math.log(2.0))
    exact = math.comb(73, 57) / 2 ** 73
    assert abs(per_spin - exact) < 1e-12 * exact
    assert abs(per_spin - 5.5817e-7) < 0.002 * 5.5817e-7
    both = uniform_probability(73, n_alpha=57, n_beta=57)
    assert abs(both - exact ** 2) < 1e-12 * exact ** 2
    assert abs(both - 3.1155e-13) < 0.002 * 3.1155e-13


def test_gate_budget_reference_points():
    assert gate_budget(0.990, 10, 10) == 279
    assert gate_budget(0.996, 10, 10) == 699
    assert gate_budget(0.992, 73, 114) == 3585


def test_gate_budget_validation():
    with pytest.raises(ValueError):
        gate_budget(1.0, 10, 10)
    with pytest.raises(ValueError):
        gate_budget(0.0, 10, 10)
    with pytest.raises(ValueError):
        uniform_probability(10, 9)
    with pytest.raises(ValueError):
        uniform_probability(10)
    with pytest.raises(ValueError):
        uniform_probability(10, 10, n_alpha=5, n_beta=5)


@pytest.mark.parametrize("counts", [{"m": 30}, {"n_alpha": 11, "n_beta": 1}])
def test_gate_budget_rejects_an_empty_sector(counts):
    # log P_u is -inf there, which once overflowed int()
    with pytest.raises(ValueError, match="empty"):
        gate_budget(0.99, 10, **counts)


# ------------------------------------------------------- Monte-Carlo validation

@pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
def test_mc_hoeffding_violation_below_delta(delta):
    rate = mc_hoeffding_violation_rate(0.3, 1000, delta, trials=20_000, seed=1)
    assert rate <= delta


def test_mc_selection_failure_below_delta():
    probs = [0.4, 0.25, 0.15, 0.12, 0.08]
    shots = required_shots(5, 0.1, 0.0, 0.10)
    assert shots == 922
    rate = mc_selection_failure_rate(probs, 2, shots, trials=1000, seed=2)
    assert rate <= 0.1


def test_mc_selection_validation():
    with pytest.raises(ValueError):
        mc_selection_failure_rate([0.6, 0.4], 3, 100)


def test_mc_deterministic_per_seed():
    a = mc_hoeffding_violation_rate(0.4, 200, 0.2, trials=5000, seed=9)
    b = mc_hoeffding_violation_rate(0.4, 200, 0.2, trials=5000, seed=9)
    assert a == b


# ------------------------------------------------------------- report assembly

def test_full_report_none_propagation():
    report = full_report(BoundInputs())
    d = report.to_json_dict()
    for key, value in d.items():
        if key in ("zeta_r_assumed_zero", "zero_retained_weight"):
            continue
        assert value is None, key
    assert d["zeta_r_assumed_zero"] is True
    assert d["zero_retained_weight"] is False


def test_full_report_defaults_measurement_to_expected_value():
    inputs = BoundInputs(
        q_r=0.96, lambda_h=2.0, p=0.05, r=64, d=4096, m_shots=100_000,
        delta=0.05,
    )
    report = full_report(inputs)
    eps = hoeffding_epsilon(100_000, 0.05)
    p_hat = noisy_cumulative(0.96, 0.05, 64, 4096)
    expected_lower = confident_weight_lower(p_hat, eps, 0.05, 64, 4096)
    assert abs(report.q_r_lower - expected_lower) < 1e-15
    assert report.energy_bound_confident is not None
    assert report.direct_noise_bias == direct_noise_bias(0.05, 2.0)


def test_full_report_flags_zero_weight():
    report = full_report(BoundInputs(q_r=0.0, lambda_h=1.0))
    assert report.zero_retained_weight is True
    assert report.truncation_bound == 2.0


def test_full_report_derives_noisy_gap():
    inputs = BoundInputs(p=0.5, gap_id=0.2, m_shots=1000, k_pool=10)
    report = full_report(inputs)
    assert abs(
        report.selection_failure - selection_failure(1000, 10, 0.1)
    ) < 1e-15


def test_input_validation():
    with pytest.raises(ValueError):
        BoundInputs(q_r=1.5)
    with pytest.raises(ValueError):
        BoundInputs(m_shots=0)
    with pytest.raises(ValueError):
        BoundInputs(r=10, d=4)
    with pytest.raises(ValueError):
        BoundReport(selection_failure=1.5)
    with pytest.raises(ValueError):
        BoundReport(truncation_bound=-0.1)


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_report_rejects_a_bound_that_is_not_finite(bound):
    with pytest.raises(ValueError, match="not finite"):
        BoundReport(epsilon_m=bound)


def test_full_report_checks_every_computed_bound():
    # 2 / delta overflows, so the Hoeffding radius is infinite
    with pytest.raises(ValueError, match="epsilon_m"):
        full_report(BoundInputs(m_shots=100, delta=1e-320))
    with pytest.raises(ValueError, match="direct_noise_bias"):
        full_report(BoundInputs(lambda_h=1e308, p=1.0))


@pytest.mark.parametrize("electrons", [
    {"m_electrons": 22},
    {"n_alpha": 11, "n_beta": 5},
    {"n_alpha": 5, "n_beta": 11},
])
def test_inputs_reject_more_electrons_than_spin_orbitals(electrons):
    with pytest.raises(ValueError, match="exceeds"):
        BoundInputs(n_orbitals=10, f_2q=0.99, **electrons)


def test_inputs_accept_a_full_sector():
    report = full_report(BoundInputs(n_orbitals=10, m_electrons=20, f_2q=0.99))
    assert report.p_u == pytest.approx(2.0 ** -20, rel=1e-12)
    report = full_report(BoundInputs(n_orbitals=10, n_alpha=10, n_beta=0,
                                     f_2q=0.99))
    assert report.p_u == pytest.approx(2.0 ** -20, rel=1e-12)
