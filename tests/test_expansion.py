import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from qselci.circuits import prescreen
from qselci.dets import Determinant
from qselci.expansion import (
    connected_set,
    en_pt2,
    expand_and_rediagonalize,
    score_candidates,
)
from qselci.fcidump import IntegralTable
from qselci.fixtures import hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import (
    build_subspace,
    davidson_lowest,
    enumerate_space,
    fci_oracle,
    hartree_fock,
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


def test_pt2_leaves_input_untouched(hubbard):
    table, oracle = hubbard
    psi = davidson_lowest(build_subspace(list(oracle.dets)[:9], table))
    before = psi.to_json()
    en_pt2(psi, table)
    assert psi.to_json() == before
