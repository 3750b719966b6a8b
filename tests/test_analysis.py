import json
import math

import numpy as np
import pytest
from scipy.special import xlogy

import helpers
import oracles
from golden import regen
from qselci import analysis
from qselci.analysis import analyze, rank_histogram
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
    report = analyze(psi)
    assert np.allclose(report.entropies, 0.0)
    assert np.allclose(report.occupations, [1, 1, 0, 0, 1, 1, 0, 0])
    assert np.allclose(report.mi, 0.0)


def test_shared_particle_pair_is_maximally_correlated():
    inv = 1.0 / math.sqrt(2.0)
    psi = Wavefunction(
        masks=det_masks([Determinant(0b01, 0), Determinant(0b10, 0)]),
        coeffs=[inv, inv], energy=0.0, n_orbitals=2,
    )
    report = analyze(psi)
    occupations, entropies = report.occupations, report.entropies
    assert abs(occupations[0] - 0.5) < 1e-12
    assert abs(occupations[1] - 0.5) < 1e-12
    assert abs(entropies[0] - LN2) < 1e-12
    assert abs(entropies[1] - LN2) < 1e-12
    assert np.allclose(entropies[2:], 0.0)
    assert abs(report.mi[0, 1] - LN2) < 1e-12


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
    report = analyze(psi)
    mi = report.mi
    for i in range(2):          # alpha spin orbitals
        for j in range(2, 4):   # beta spin orbitals
            assert abs(mi[i, j]) < 1e-10
    entropies = report.entropies
    assert abs(entropies[0] - _binary_entropy(p_a)) < 1e-12
    assert abs(entropies[3] - _binary_entropy(p_b)) < 1e-12


def test_entropies_match_direct_tally(hubbard_state):
    psi = hubbard_state
    report = analyze(psi)
    occupations, entropies = report.occupations, report.entropies
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
    mi = analyze(psi).mi
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
    report = analyze(psi)
    mi, entropies = report.mi, report.entropies
    assert np.allclose(mi, mi.T)
    assert np.all(mi >= 0.0)
    assert np.allclose(np.diag(mi), 0.0)
    for i in range(8):
        for j in range(8):
            if i != j:
                assert mi[i, j] <= min(entropies[i], entropies[j]) + 1e-10


# ------------------------------------------- the pair-loop reference, bitwise

def _random_sparse_state(n_orbitals, n_dets, seed):
    """Seeded distinct mask rows over every bit of n_orbitals (bit 63
    included at 64), with weights spread over many decades."""
    rng = np.random.default_rng(seed)
    masks = np.unique(rng.integers(0, 2 ** n_orbitals, size=(n_dets, 2),
                                   dtype=np.uint64), axis=0)
    coeffs = rng.standard_normal(len(masks)) * rng.random(len(masks)) ** 4
    return Wavefunction(masks=masks, coeffs=coeffs / np.linalg.norm(coeffs),
                        energy=0.0, n_orbitals=n_orbitals)


def _single_determinant(alpha, beta, coeff, n_orbitals):
    return Wavefunction(masks=np.array([[alpha, beta]], dtype=np.uint64),
                        coeffs=[coeff], energy=0.0, n_orbitals=n_orbitals)


@pytest.fixture(scope="module")
def oracle_states():
    """{name: wavefunction}: FCI states, the golden cases' saved
    wavefunctions, single determinants and seeded random sparse states."""
    states = dict(helpers.fci_states())
    for case, steps in regen.load()["cases"].items():
        for k, step in enumerate(steps):
            for name, text in step["files"].items():
                if name.startswith("wf") and isinstance(text, str):
                    states[f"{case}/{k}/{name}"] = Wavefunction.from_json(text)
    states["single"] = _single_determinant(0b0011, 0b0101, 1.0, 4)
    states["single-negative"] = _single_determinant(0b0110, 0b0011, -1.0, 4)
    states["single-bit-63"] = _single_determinant(1 << 63 | 1, 3, 1.0, 64)
    for n, size in ((4, 10), (10, 200), (32, 500), (64, 2000)):
        for seed in (0, 1):
            states[f"random-{n}-{seed}"] = _random_sparse_state(n, size, seed)
    return states


def test_oracle_states_cover_the_listed_inputs(oracle_states):
    assert {"hubbard4", "two-orbital", "h-chain-synthetic", "hubbard8",
            "h-chain-8", "hubbard4-save-wf-chain/1/wf2.json",
            "random-64-1"} <= set(oracle_states)
    assert (oracle_states["random-64-0"].masks >> np.uint64(63)).any()
    entropies = analyze(oracle_states["single"]).entropies
    assert np.signbit(entropies).all() and not entropies.any()  # all -0.0


def test_analyze_builds_the_occupation_matrix_once(monkeypatch,
                                                   hubbard_state):
    calls, occupations = [], analysis._occupations

    def counted(psi):
        calls.append(psi)
        return occupations(psi)

    monkeypatch.setattr(analysis, "_occupations", counted)
    analyze(hubbard_state)
    assert len(calls) == 1


def test_one_pass_matches_the_two_functions_bit_for_bit(oracle_states):
    for name, psi in oracle_states.items():
        report = analyze(psi)
        p, s = oracles.orbital_entropies(psi)
        assert report.occupations.tobytes() == p.tobytes(), name
        assert report.entropies.tobytes() == s.tobytes(), name
        assert report.mi.tobytes() == (
            oracles.mutual_information(psi).tobytes()), name


def test_pair_tables_match_the_pair_loop_bit_for_bit(oracle_states):
    for name, psi in oracle_states.items():
        expected = oracles.pair_loop_mutual_information(psi)
        report = analyze(psi)
        assert report.mi.tobytes() == expected.tobytes(), name
        for threshold in (0.0, 0.05):  # JSON text: plain ints, exact floats
            assert json.dumps(report.mi_edge_list(threshold)) == json.dumps(
                oracles.pair_loop_edge_list(expected, threshold)), name


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


def test_rank_histogram_takes_a_mask_row_as_reference(hubbard_state):
    for row in hubbard_state.masks[[0, 7, -1]]:
        assert np.array_equal(
            rank_histogram(hubbard_state, row),
            rank_histogram(hubbard_state, Determinant(*row.tolist())))


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


def test_analyze_builds_no_determinant(monkeypatch, hubbard_state):
    expected = analyze(hubbard_state)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a Determinant was built")

    monkeypatch.setattr(Determinant, "__init__", refuse)
    with pytest.raises(AssertionError):
        Determinant(1, 1)
    report = analyze(hubbard_state)
    assert report.rank_histogram.tobytes() == (
        expected.rank_histogram.tobytes())


def test_default_reference_does_not_depend_on_storage_order():
    # A = (0b0011, 0b0011) and B = (0b1100, 0b1100) tie at c = 0.6; the
    # saved file lists B first, and the tie goes to the smaller masks, A
    masks = np.array([[0b0011, 0b0011], [0b1100, 0b1100], [0b0011, 0b0101]])
    psi = Wavefunction(masks=masks, coeffs=[0.6, 0.6, math.sqrt(0.28)],
                       energy=0.0, n_orbitals=4)
    stored = Wavefunction.from_json(psi.to_json())
    assert stored.masks.tolist() != masks.tolist()
    expected = rank_histogram(psi, Determinant(0b0011, 0b0011))
    assert np.allclose(expected, [0.36, 0.28, 0.0, 0.0, 0.36])
    for wf in (psi, stored):
        assert np.array_equal(analyze(wf).rank_histogram, expected)


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
