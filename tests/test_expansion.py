import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import helpers
import oracles
from golden import regen
from qselci.circuits import prescreen
from qselci import expansion, substitutions
from qselci.dets import Determinant, enumerate_space, hartree_fock, sector_masks
from qselci.errors import TooLarge
from qselci.expansion import (
    connected_set,
    en_pt2,
    expand_and_rediagonalize,
    score_candidates,
)
from qselci.fcidump import IntegralTable
from qselci.fixtures import fixture_table, hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import (
    Wavefunction,
    build_subspace,
    davidson_lowest,
    fci_oracle,
)


def _single_det_state(det, table):
    return davidson_lowest(build_subspace([det], table))


@pytest.fixture(scope="module")
def hubbard():
    table = hubbard_chain_table()
    return table, fci_oracle(table)


# -------------------------------------------------------------- connectivity

def test_connected_set_of_full_space_is_empty(hubbard):
    table, oracle = hubbard
    assert connected_set(oracle, table) == []


def test_connected_set_matches_dense_row(hubbard):
    table, _ = hubbard
    hf = hartree_fock(4, 2, 2)
    psi = _single_det_state(hf, table)
    dense = oracles.dense_hamiltonian(table)
    hf_idx = hf.to_index(4)
    expected = sorted(
        (
            d
            for d in enumerate_space(4, 2, 2)
            if d != hf and abs(dense[d.to_index(4), hf_idx]) > 1e-12
        ),
        key=lambda d: (d.alpha, d.beta),
    )
    assert connected_set(psi, table) == expected


def test_connected_set_empty_when_no_substitution_possible():
    table = IntegralTable(
        n_orbitals=1, n_electrons=2, ms2=0, core_energy=0.0,
        h=np.array([[-1.0]]), g={},
    )
    psi = _single_det_state(Determinant(1, 1), table)
    assert connected_set(psi, table) == []


# -------------------------------------------------------------------- scoring

def test_scores_reduce_to_coupling_magnitudes_for_single_det(hubbard):
    table, _ = hubbard
    hf = hartree_fock(4, 2, 2)
    psi = _single_det_state(hf, table)
    candidates = connected_set(psi, table)
    dense = oracles.dense_hamiltonian(table)
    hf_idx = hf.to_index(4)
    for mu, s in score_candidates(psi, candidates, table):
        assert abs(s - abs(dense[mu.to_index(4), hf_idx])) < 1e-12


def test_scores_match_brute_force_and_are_sorted(hubbard):
    table, oracle = hubbard
    psi = davidson_lowest(build_subspace(list(oracle.dets)[:9], table))
    candidates = connected_set(psi, table)
    dense = oracles.dense_hamiltonian(table)
    scored = score_candidates(psi, candidates, table)
    for mu, s in scored:
        brute = sum(
            abs(dense[mu.to_index(4), d.to_index(4)] * c)
            for d, c in zip(psi.dets, psi.coeffs)
        )
        assert abs(s - brute) < 1e-12
    values = [s for _, s in scored]
    assert values == sorted(values, reverse=True)


# ------------------------------------------------------------------ expansion

def test_infinite_threshold_changes_nothing(hubbard):
    table, _ = hubbard
    psi = _single_det_state(hartree_fock(4, 2, 2), table)
    result = expand_and_rediagonalize(psi, table, math.inf)
    assert result.n_added == 0
    assert result.energy_after == result.energy_before == psi.energy
    assert result.wavefunction_after is psi


def test_negative_threshold_rejected(hubbard):
    table, _ = hubbard
    psi = _single_det_state(hartree_fock(4, 2, 2), table)
    with pytest.raises(ValueError):
        expand_and_rediagonalize(psi, table, -0.1)


def test_nan_threshold_rejected(hubbard):
    # every score >= nan is false, so a NaN threshold would add nothing
    table, _ = hubbard
    psi = _single_det_state(hartree_fock(4, 2, 2), table)
    with pytest.raises(ValueError, match="nan"):
        expand_and_rediagonalize(psi, table, math.nan)


def test_one_iteration_matches_connected_space_diagonalization(hubbard):
    table, _ = hubbard
    hf = hartree_fock(4, 2, 2)
    psi = _single_det_state(hf, table)
    space = [hf] + connected_set(psi, table)
    block = oracles.project_hamiltonian(table, space)
    expected = scipy.linalg.eigh(block, eigvals_only=True)[0] + table.core_energy
    result = expand_and_rediagonalize(psi, table, 0.0)
    assert abs(result.energy_after - expected) < 1e-9
    assert set(result.added) | {hf} == set(space)


def test_iterated_expansion_converges_to_oracle(hubbard):
    table, oracle = hubbard
    psi = _single_det_state(hartree_fock(4, 2, 2), table)
    energies = [psi.energy]
    for _ in range(12):
        result = expand_and_rediagonalize(psi, table, 0.0)
        psi = result.wavefunction_after
        energies.append(result.energy_after)
        if result.n_added == 0:
            break
    assert len(psi.dets) == 36
    assert abs(psi.energy - oracle.energy) < 1e-9
    assert all(
        energies[i + 1] <= energies[i] + 1e-12 for i in range(len(energies) - 1)
    )


def test_top_k_truncates_to_best_scores(hubbard):
    table, oracle = hubbard
    psi = davidson_lowest(build_subspace(list(oracle.dets)[:9], table))
    full = expand_and_rediagonalize(psi, table, 0.0)
    capped = expand_and_rediagonalize(psi, table, 0.0, top_k=3)
    assert capped.n_added == 3
    assert capped.added == full.added[:3]
    assert capped.scores == full.scores[:3]
    assert capped.energy_after >= full.energy_after - 1e-12


# ------------------------------------------------------------------------ pt2

def test_pt2_vanishes_on_full_space(hubbard):
    table, oracle = hubbard
    result = en_pt2(oracle, table)
    assert result.delta_e == 0.0
    assert result.n_external == 0
    assert result.n_skipped == 0


def test_pt2_matches_dense_formula(hubbard):
    table, _ = hubbard
    hf = hartree_fock(4, 2, 2)
    psi = _single_det_state(hf, table)
    dense = oracles.dense_hamiltonian(table)
    hf_idx = hf.to_index(4)
    expected = 0.0
    candidates = connected_set(psi, table)
    for mu in candidates:
        i = mu.to_index(4)
        numerator = dense[i, hf_idx] * psi.coeffs[0]
        denom = (dense[i, i] + table.core_energy) - psi.energy
        expected -= numerator * numerator / denom
    result = en_pt2(psi, table)
    assert abs(result.delta_e - expected) < 1e-12
    assert result.n_external == len(candidates)


def test_pt2_from_reference_approximates_correlation_energy():
    table = two_orbital_table()
    oracle = fci_oracle(table)
    psi = _single_det_state(hartree_fock(2, 1, 1), table)
    gap = oracle.energy - psi.energy
    result = en_pt2(psi, table)
    assert result.delta_e < 0
    assert abs(result.delta_e - gap) < 0.2 * abs(gap)


def _assert_pt2_matches_loop(psi, table):
    result = en_pt2(psi, table)
    delta, n_external, n_skipped = oracles.pt2_sum_loop(psi, table)
    assert repr(result.delta_e) == repr(delta)  # bits, sign of zero, NaN
    assert (result.n_external, result.n_skipped) == (n_external, n_skipped)


def test_pt2_array_sum_matches_loop_on_golden_inputs(tmp_path):
    cases = regen.load()["cases"]
    for fixture in ("hubbard4", "two-orbital"):
        text = cases[f"{fixture}-save-wf-chain"][0]["files"]["wf.json"]
        _assert_pt2_matches_loop(Wavefunction.from_json(text),
                                 fixture_table(fixture))
    seed = regen.make_seed(tmp_path)
    _assert_pt2_matches_loop(Wavefunction.from_json(seed.read_text()),
                             hubbard_chain_table())


def test_pt2_array_sum_matches_loop_on_refine_dense8_starts(monkeypatch):
    monkeypatch.syspath_prepend(str(helpers.ROOT / "benchmarks"))
    from workloads import RefineDense8

    for seed in (1, 2):
        workload = RefineDense8(helpers.ROOT, None)
        workload.setup(seed)
        for psi in workload.starts:
            _assert_pt2_matches_loop(psi, workload.table)


def test_pt2_array_sum_matches_loop_with_skipped_terms(hubbard):
    # an energy set on a candidate's diagonal element zeroes that
    # candidate's denominator; a NaN energy makes every denominator NaN,
    # which counts as a term
    table, _ = hubbard
    psi = _single_det_state(hartree_fock(4, 2, 2), table)
    for mu in connected_set(psi, table)[:6]:
        e_mu = _single_det_state(mu, table).energy
        on_mu = dataclasses.replace(psi, energy=e_mu)
        assert en_pt2(on_mu, table).n_skipped > 0
        _assert_pt2_matches_loop(on_mu, table)
    at_nan = dataclasses.replace(psi, energy=math.nan)
    assert en_pt2(at_nan, table).n_skipped == 0
    _assert_pt2_matches_loop(at_nan, table)
    oracle = fci_oracle(table)  # no candidates: +0.0
    _assert_pt2_matches_loop(oracle, table)


def test_pt2_leaves_input_untouched(hubbard):
    table, oracle = hubbard
    psi = davidson_lowest(build_subspace(list(oracle.dets)[:9], table))
    before = psi.to_json()
    en_pt2(psi, table)
    assert psi.to_json() == before


# ------------------------------------------------------------- size guard

def _pair_count(psi, n):
    """Substitutions of every member, five kinds each, listed one by one."""
    total = 0
    for a, b in psi.masks.tolist():
        sa, sb, da, db = (len(oracles.string_substitutions(x, n, r))
                          for r in (1, 2) for x in (a, b))
        total += sa + sb + da + db + sa * sb
    return total


def test_pair_cap_counts_before_building_anything(monkeypatch):
    table = hubbard_chain_table(6)
    psi = davidson_lowest(build_subspace(sector_masks(6, 3, 3)[::7], table))
    total = _pair_count(psi, 6)
    monkeypatch.setattr(expansion, "MAX_PAIRS", total)
    expect = en_pt2(psi, table)

    def refuse(*_args):
        raise AssertionError("a substitution table was built")

    monkeypatch.setattr(expansion, "MAX_PAIRS", total - 1)
    monkeypatch.setattr(substitutions, "_tables", refuse)
    for run in (lambda: en_pt2(psi, table),
                lambda: expand_and_rediagonalize(psi, table, 0.0),
                lambda: connected_set(psi, table)):
        with pytest.raises(TooLarge, match=f"{total} substitutions exceed"):
            run()
    assert expect.n_external > 0


def test_pool_keys_past_int64_are_refused(monkeypatch):
    table = hubbard_chain_table(6)
    psi = davidson_lowest(build_subspace(sector_masks(6, 3, 3)[::9], table))
    monkeypatch.setattr(expansion, "_KEY_RANGE", len(psi.masks))
    with pytest.raises(TooLarge, match="overflow int64"):
        en_pt2(psi, table)


def test_a_run_at_the_pair_cap_fits_in_two_gib():
    """Members far apart on a dense random table make every generated pair
    a distinct, nonzero candidate: the most memory per pair.  Measured on
    eight members at 20 orbitals, expansion and PT2 must keep a run at
    MAX_PAIRS under 2 GiB."""
    n, rng = 20, np.random.default_rng(8)
    table = IntegralTable(n_orbitals=n, n_electrons=n, ms2=0)
    table.h = rng.normal(size=(n, n))
    g = rng.normal(size=(n, n, n, n))
    table.dense_g = lambda: g
    strings = sorted({sum(1 << int(p) for p in rng.choice(n, n // 2, False))
                      for _ in range(8)})
    masks = np.array(list(zip(strings, strings[::-1])), dtype=np.uint64)
    coeffs = np.full(len(masks), len(masks) ** -0.5)
    psi = Wavefunction(masks=masks, coeffs=coeffs, energy=0.0, n_orbitals=n)
    total = _pair_count(psi, n)
    for run in (lambda: en_pt2(psi, table),
                lambda: expand_and_rediagonalize(psi, table, math.inf)):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / total * expansion.MAX_PAIRS < 2 << 30
    assert result.n_added == 0 and total > 100_000
    assert en_pt2(psi, table).n_external == total
