import json
import math

import numpy as np
import pytest
from scipy.special import xlogy

from qselci import analysis
from qselci.analysis import (
    analyze,
    mutual_information,
    orbital_entropies,
    rank_histogram,
)
from qselci.dets import Determinant, det_masks, excitation_rank, hartree_fock
from qselci.expansion import connected_set, expand_and_rediagonalize
from qselci.fixtures import FIXTURES, hubbard_chain_table
from qselci.hamiltonian import (
    Wavefunction,
    build_subspace,
    davidson_lowest,
    fci_oracle,
)

LN2 = math.log(2.0)


def _binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


@pytest.fixture(scope="module")
def hubbard_state():
    table = hubbard_chain_table()
    return fci_oracle(table)


# ------------------------------------------------------------------- entropies

def test_single_determinant_carries_no_entropy():
    psi = Wavefunction(
        masks=det_masks([Determinant(0b0011, 0b0011)]), coeffs=[1.0],
        energy=0.0, n_orbitals=4,
    )
    occupations, entropies = orbital_entropies(psi)
    assert np.allclose(entropies, 0.0)
    assert np.allclose(occupations, [1, 1, 0, 0, 1, 1, 0, 0])
    assert np.allclose(mutual_information(psi), 0.0)


def test_shared_particle_pair_is_maximally_correlated():
    inv = 1.0 / math.sqrt(2.0)
    psi = Wavefunction(
        masks=det_masks([Determinant(0b01, 0), Determinant(0b10, 0)]),
        coeffs=[inv, inv], energy=0.0, n_orbitals=2,
    )
    occupations, entropies = orbital_entropies(psi)
    assert abs(occupations[0] - 0.5) < 1e-12
    assert abs(occupations[1] - 0.5) < 1e-12
    assert abs(entropies[0] - LN2) < 1e-12
    assert abs(entropies[1] - LN2) < 1e-12
    assert np.allclose(entropies[2:], 0.0)
    mi = mutual_information(psi)
    assert abs(mi[0, 1] - LN2) < 1e-12


def test_independent_spin_channels_share_no_information():
    # alpha and beta occupations drawn from independent coin flips
    p_a, p_b = 0.3, 0.8
    dets, coeffs = [], []
    for a, wa in ((0b01, 1 - p_a), (0b10, p_a)):
        for b, wb in ((0b01, 1 - p_b), (0b10, p_b)):
            dets.append(Determinant(a, b))
            coeffs.append(math.sqrt(wa * wb))
    psi = Wavefunction(masks=det_masks(dets), coeffs=coeffs, energy=0.0,
                       n_orbitals=2)
    mi = mutual_information(psi)
    for i in range(2):          # alpha spin orbitals
        for j in range(2, 4):   # beta spin orbitals
            assert abs(mi[i, j]) < 1e-10
    _, entropies = orbital_entropies(psi)
    assert abs(entropies[0] - _binary_entropy(p_a)) < 1e-12
    assert abs(entropies[3] - _binary_entropy(p_b)) < 1e-12


def test_entropies_match_direct_tally(hubbard_state):
    psi = hubbard_state
    occupations, entropies = orbital_entropies(psi)
    weights = np.asarray(psi.coeffs) ** 2
    for s in range(8):
        p = sum(
            w
            for det, w in zip(psi.dets, weights)
            if (det.alpha if s < 4 else det.beta) >> (s % 4) & 1
        )
        assert abs(occupations[s] - p) < 1e-12
        assert abs(entropies[s] - _binary_entropy(p)) < 1e-12
    assert np.all(entropies <= LN2 + 1e-12)


# ----------------------------------------------------------- mutual information

def test_mutual_information_matches_direct_tally(hubbard_state):
    psi = hubbard_state
    mi = mutual_information(psi)
    weights = np.asarray(psi.coeffs) ** 2

    def occ_bit(det, s):
        return (det.alpha if s < 4 else det.beta) >> (s % 4) & 1

    for i in range(8):
        for j in range(8):
            if i == j:
                assert mi[i, j] == 0.0
                continue
            joint = np.zeros((2, 2))
            for det, w in zip(psi.dets, weights):
                joint[occ_bit(det, i), occ_bit(det, j)] += w
            expected = 0.0
            pi = joint.sum(axis=1)
            pj = joint.sum(axis=0)
            for a in range(2):
                for b in range(2):
                    if joint[a, b] > 0:
                        expected += joint[a, b] * math.log(
                            joint[a, b] / (pi[a] * pj[b])
                        )
            assert abs(mi[i, j] - expected) < 1e-10


def test_mutual_information_structure(hubbard_state):
    psi = hubbard_state
    mi = mutual_information(psi)
    _, entropies = orbital_entropies(psi)
    assert np.allclose(mi, mi.T)
    assert np.all(mi >= 0.0)
    assert np.allclose(np.diag(mi), 0.0)
    for i in range(8):
        for j in range(8):
            if i != j:
                assert mi[i, j] <= min(entropies[i], entropies[j]) + 1e-10


# --------------------------------------------------------------- rank histogram

def test_rank_histogram_normalized_and_bounded():
    table = hubbard_chain_table()
    hf = hartree_fock(4, 2, 2)
    start = davidson_lowest(build_subspace([hf], table))
    grown = expand_and_rediagonalize(start, table, 0.0).wavefunction_after
    hist = rank_histogram(grown, hf)
    assert abs(hist.sum() - 1.0) < 1e-10
    max_rank = max(
        excitation_rank(hf, det) for det in grown.dets
    )
    assert len(hist) == max_rank + 1
    assert np.all(hist >= 0.0)


def test_rank_histogram_single_and_double_space():
    table = hubbard_chain_table()
    hf = hartree_fock(4, 2, 2)
    start = davidson_lowest(build_subspace([hf], table))
    singles = connected_set(start, table)
    space = [hf] + singles
    psi = davidson_lowest(build_subspace(space, table))
    hist = rank_histogram(psi, hf)
    assert all(excitation_rank(hf, d) <= 2 for d in space)
    assert len(hist) <= 3
    assert abs(hist.sum() - 1.0) < 1e-10


def test_excitation_rank_examples():
    ref = Determinant(0b0011, 0b0011)
    assert excitation_rank(ref, ref) == 0
    assert excitation_rank(ref, Determinant(0b0101, 0b0011)) == 1
    assert excitation_rank(ref, Determinant(0b0101, 0b0110)) == 2
    assert excitation_rank(ref, Determinant(0b1100, 0b1100)) == 4


# --------------------------------------------------------------------- analyze

def test_analyze_defaults_to_dominant_reference(hubbard_state):
    psi = hubbard_state
    report = analyze(psi)
    dominant = max(
        zip(psi.dets, np.asarray(psi.coeffs) ** 2), key=lambda t: t[1]
    )[0]
    assert np.allclose(report.rank_histogram,
                       rank_histogram(psi, dominant))
    assert report.occupations.shape == (8,)
    assert report.mi.shape == (8, 8)


def test_analyze_invariant_under_determinant_order(hubbard_state):
    psi = hubbard_state
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(psi.dets))
    shuffled = Wavefunction(
        masks=det_masks([psi.dets[i] for i in perm]),
        coeffs=np.asarray(psi.coeffs)[perm],
        energy=psi.energy,
        n_orbitals=psi.n_orbitals,
    )
    a = analyze(psi, reference=psi.dets[0])
    b = analyze(shuffled, reference=psi.dets[0])
    assert np.allclose(a.occupations, b.occupations, atol=1e-12)
    assert np.allclose(a.entropies, b.entropies, atol=1e-12)
    assert np.allclose(a.mi, b.mi, atol=1e-12)
    assert np.allclose(a.rank_histogram, b.rank_histogram, atol=1e-12)


def test_report_serialization_and_edges(hubbard_state):
    report = analyze(hubbard_state)
    d = report.to_json_dict()
    assert set(d) == {"occupations", "entropies", "mutual_information",
                      "rank_histogram"}
    edges = report.mi_edge_list(threshold=0.0)
    assert all(i < j for i, j, _ in edges)
    assert [(i, j) for i, j, _ in edges] == sorted((i, j) for i, j, _ in edges)
    assert all(v > 0.0 for _, _, v in edges)
    top = report.mi.max()
    strong = report.mi_edge_list(threshold=top * 0.99)
    assert 1 <= len(strong) < len(edges)


# -------------------------------------------------- x ln x without scipy.special

def test_xlogx_is_bitwise_scipy_xlogy():
    rng = np.random.default_rng(11)
    x = np.concatenate([
        rng.random(50_000),
        rng.random(1_000) ** 40,  # spread over many decades below 1
        [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 0.5, np.nan],
    ])
    got, want = analysis._xlogx(x), xlogy(x, x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert analysis._xlogx(np.float64(0.25)) == xlogy(0.25, 0.25)
    assert analysis._xlogx(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_analyze_reports_match_the_scipy_xlogy_form(monkeypatch, name):
    psi = fci_oracle(FIXTURES[name]())
    report = json.dumps(analyze(psi).to_json_dict())
    monkeypatch.setattr(analysis, "_xlogx", lambda x: xlogy(x, x))
    assert report == json.dumps(analyze(psi).to_json_dict())
