import itertools

import numpy as np
import pytest
import scipy.linalg

from qselci.circuits import (
    GATE_BASIS,
    GATE_EXCITATION,
    GATE_JASTROW,
    GATE_ORBITAL,
    MAX_GATES,
    build_lucj,
    build_usci,
    decompose_excitation,
    gate_counts,
    jordan_wigner,
    prescreen,
)
from qselci.dets import (Determinant, ExcitationOp, det_masks, enumerate_space,
                         excitation_rank, hartree_fock)
from qselci.errors import EmptySelection, ShapeMismatch, TooLarge, ZeroRank
from qselci.fixtures import hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import Wavefunction, fci_oracle

import oracles


def _wf(dets, coeffs, n):
    coeffs = np.asarray(coeffs, dtype=float)
    coeffs = coeffs / np.linalg.norm(coeffs)
    return Wavefunction(masks=det_masks(list(dets)), coeffs=coeffs, energy=0.0,
                        n_orbitals=n)


# ---------------------------------------------------------------- prescreen

def test_prescreen_cutoff_and_order():
    dets = [Determinant(0b01, 0b01), Determinant(0b10, 0b01),
            Determinant(0b10, 0b10)]
    psi = _wf(dets, [0.3, 0.9, 0.01], 2)
    kept = prescreen(psi, 0.05)
    assert len(kept) == 2
    assert kept[0] == dets[1]                     # largest |c| first
    assert kept[1] == dets[0]


def test_prescreen_empty_selection():
    dets = [Determinant(0b01, 0b01)]
    psi = _wf(dets, [1.0], 2)
    with pytest.raises(EmptySelection):
        prescreen(psi, 1.5)


def test_prescreen_tie_break_ascending_bitmask():
    dets = [Determinant(0b10, 0b01), Determinant(0b01, 0b01),
            Determinant(0b01, 0b10)]
    psi = _wf(dets, [0.5, 0.5, 0.5], 2)
    kept = prescreen(psi, 0.0)
    assert kept == [Determinant(0b01, 0b01), Determinant(0b01, 0b10),
                    Determinant(0b10, 0b01)]


def test_prescreen_top_m_on_fixture():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    kept = prescreen(oracle, 0.0, top_m=7)
    assert len(kept) == 7
    coeffs = dict(zip(oracle.dets, oracle.coeffs))
    mags = [coeffs[d] ** 2 for d in kept]
    assert mags == sorted(mags, reverse=True)
    # reproducible: same call gives the identical list
    assert kept == prescreen(oracle, 0.0, top_m=7)


# --------------------------------------------------------------- decompose

def test_decompose_zero_rank_rejected():
    d = Determinant(0b0011, 0b0011)
    with pytest.raises(ZeroRank):
        decompose_excitation(d, d, 4)


def test_decompose_other_sector_rejected():
    # a step creating electrons it never annihilates, or a rank-0 verdict on
    # a target that merely holds one electron more
    for target in (Determinant(7, 1), Determinant(3, 1)):
        with pytest.raises(ValueError, match="n_alpha, n_beta"):
            decompose_excitation(Determinant(1, 1), target, 3)


def test_decompose_rank_slicing():
    ref = Determinant(0b000111, 0b000111)
    cases = {
        1: Determinant(0b001011, 0b000111),
        2: Determinant(0b011001, 0b000111),
        3: Determinant(0b111000, 0b000111),
        4: Determinant(0b111000, 0b001011),
        5: Determinant(0b111000, 0b011001),
    }
    expected_ranks = {1: [1], 2: [2], 3: [2, 1], 4: [2, 2], 5: [2, 2, 1]}
    for rank, target in cases.items():
        ops = decompose_excitation(ref, target, 6)
        assert [oracles.op_rank(op) for op in ops] == expected_ranks[rank]


def test_decompose_replay_reaches_target():
    rng = np.random.default_rng(7)
    n = 6
    for _ in range(50):
        amask = int(np.sum(1 << rng.choice(n, size=3, replace=False)))
        bmask = int(np.sum(1 << rng.choice(n, size=3, replace=False)))
        ref = Determinant(0b000111, 0b000111)
        target = Determinant(amask, bmask)
        if target == ref:
            continue
        current = ref
        for op in decompose_excitation(ref, target, n):
            current, _sign = oracles.apply_excitation(op, current)
        assert current == target


def test_decompose_signs_compose_to_plus_target():
    # the threaded phases make the ordered product map ref -> +target
    ref = Determinant(0b000111, 0b000111)
    target = Determinant(0b111000, 0b011001)   # rank 5
    sign = 1
    current = ref
    for op in decompose_excitation(ref, target, 6):
        current, step = oracles.apply_excitation(op, current)
        sign *= step
    assert current == target
    assert sign == 1


def test_decompose_matches_chain_decomposition():
    # every ordered pair of the (2, 2) sector in 4 orbitals, and a seeded
    # sample of (3, 3) pairs in 6 orbitals that reaches rank 6
    space4, space6 = enumerate_space(4, 2, 2), enumerate_space(6, 3, 3)
    picks = np.random.default_rng(3).choice(len(space6), size=(2000, 2))
    cases = [(4, a, b) for a, b in itertools.permutations(space4, 2)]
    cases += [(6, space6[i], space6[j]) for i, j in picks if i != j]
    assert max(excitation_rank(a, b) for _, a, b in cases) == 6
    for n, ref, target in cases:
        assert (decompose_excitation(ref, target, n)
                == oracles.chain_decomposition(ref, target, n))


# --------------------------------------------------------------- build_usci

def test_usci_reference_only_is_parameterless():
    ref = hartree_fock(4, 2, 2)
    circuit = build_usci(ref, [ref], 4)
    assert circuit.n_params == 0
    assert [g for g in circuit.gates if g.kind == GATE_EXCITATION] == []


def test_usci_param_count_matches_decomposition():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=5)
    circuit = build_usci(selected[0], selected, 4)
    expected = sum(
        len(decompose_excitation(selected[0], t, 4)) for t in selected[1:]
    )
    assert circuit.n_params == expected
    assert gate_counts(circuit)["by_kind"][GATE_EXCITATION] == expected


def test_usci_layer_stacking_doubles_params():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=5)
    c1 = build_usci(selected[0], selected, 4, layers=1)
    c2 = build_usci(selected[0], selected, 4, layers=2)
    assert c2.n_params == 2 * c1.n_params
    assert len(c2.gates) == 2 * len(c1.gates)
    # second block references fresh slots
    slots1 = {g.param_slot for g in c1.gates if g.param_slot is not None}
    slots2 = {g.param_slot for g in c2.gates if g.param_slot is not None}
    assert slots2 == set(range(c2.n_params))
    assert slots1 == set(range(c1.n_params))
    # each layer repeats the one-layer block with shifted slots
    options = dict(degree_cap=2, with_orbital_rotation=True)
    block = build_usci(selected[0], selected, 4, **options).gates
    c3 = build_usci(selected[0], selected, 4, layers=3, **options)
    assert len(c3.gates) == 3 * len(block) and c3.n_params == len(c3.gates)
    for layer in range(3):
        for k, g in enumerate(block):
            repeat = c3.gates[layer * len(block) + k]
            assert (repeat.kind, repeat.qubits, repeat.excitation) == (
                g.kind, g.qubits, g.excitation)
            assert (repeat.param_slot, repeat.layer) == (
                layer * len(block) + k, layer)


def test_usci_degree_cap_reduces_gates():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=8)
    free = build_usci(selected[0], selected, 4)
    capped = build_usci(selected[0], selected, 4, degree_cap=1)
    assert len(capped.gates) < len(free.gates)
    # with the cap, no qubit has more than one distinct excitation partner
    partners = {}
    for g in capped.gates:
        for q in g.qubits:
            partners.setdefault(q, set()).update(set(g.qubits) - {q})
    assert all(len(p) <= 1 for p in partners.values())


def test_usci_orbital_rotation_prepended():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=3)
    circuit = build_usci(selected[0], selected, 4, with_orbital_rotation=True)
    kinds = [g.kind for g in circuit.gates]
    first_exc = kinds.index(GATE_EXCITATION)
    assert GATE_ORBITAL in kinds
    assert all(k == GATE_ORBITAL for k in kinds[:first_exc])


def test_usci_gate_cap():
    table = hubbard_chain_table()
    selected = prescreen(fci_oracle(table), 0.0, top_m=5)
    with pytest.raises(TooLarge):
        build_usci(selected[0], selected, 4, layers=10**9)
    # a layer of no gates counts as one, so its layer loop is bounded too
    with pytest.raises(TooLarge):
        build_usci(selected[0], selected[:1], 4, layers=10**9)
    # one gate per layer: the cap's worth of layers builds, one more does not
    table = two_orbital_table()
    selected = prescreen(fci_oracle(table), 0.01, None)
    assert len(build_usci(selected[0], selected, 2).gates) == 1
    circuit = build_usci(selected[0], selected, 2, layers=MAX_GATES)
    assert len(circuit.gates) == circuit.n_params == MAX_GATES
    with pytest.raises(TooLarge):
        build_usci(selected[0], selected, 2, layers=MAX_GATES + 1)


def test_usci_empty_selection():
    with pytest.raises(EmptySelection):
        build_usci(hartree_fock(4, 2, 2), [], 4)


# --------------------------------------------------------------- build_lucj

def test_lucj_shape_validation():
    ref = hartree_fock(2, 1, 1)
    with pytest.raises(ShapeMismatch):
        build_lucj(np.zeros((3, 2)), np.zeros((4, 4)), ref)
    with pytest.raises(ShapeMismatch):
        build_lucj(np.ones((2, 2)), np.zeros((4, 4)), ref)  # not antisym
    with pytest.raises(ShapeMismatch):
        J = np.zeros((4, 4))
        J[0, 1] = 1.0  # not symmetric
        build_lucj(np.zeros((2, 2)), J, ref)


def test_lucj_gate_structure_and_zero_params():
    ref = hartree_fock(2, 1, 1)
    K = np.array([[0.0, 0.3], [-0.3, 0.0]])
    J = np.eye(4) * 0.2
    circuit = build_lucj(K, J, ref)
    kinds = [g.kind for g in circuit.gates]
    assert kinds[0] == GATE_BASIS and kinds[-1] == GATE_BASIS
    assert all(k == GATE_JASTROW for k in kinds[1:-1])
    assert circuit.n_params == 0
    assert circuit.gates[0].inverse and not circuit.gates[-1].inverse


# ------------------------------------------------------------ jordan wigner

def test_jw_single_excitation_two_qubits():
    op = ExcitationOp(n_orbitals=1, annihilated=(0,), created=(1,), phase=1)
    terms = jordan_wigner(op, 2)
    # two weight-2 strings with +-i/2 coefficients (XY mix)
    assert len(terms) == 2
    labels = {label for _c, label in terms}
    assert labels == {"XY", "YX"}
    for c, _label in terms:
        assert abs(abs(c) - 0.5) < 1e-12
        assert abs(c.real) < 1e-12


def test_jw_chain_contains_z():
    op = ExcitationOp(n_orbitals=2, annihilated=(0,), created=(2,), phase=1)
    terms = jordan_wigner(op, 3)
    assert all(label[1] == "Z" for _c, label in terms)


def test_jw_double_has_eight_weight4_strings():
    op = ExcitationOp(n_orbitals=2, annihilated=(0, 1), created=(2, 3),
                      phase=1)
    terms = jordan_wigner(op, 4)
    assert len(terms) == 8
    for c, label in terms:
        assert sum(ch != "I" for ch in label) == 4
        assert abs(c.real) < 1e-12          # anti-Hermitian generator


@pytest.mark.parametrize("ann,cre,n_orb", [
    ((0,), (1,), 1),
    ((0,), (2,), 2),
    ((0, 2), (1, 3), 2),
    ((1,), (3,), 2),
    ((0, 1, 4), (2, 3, 5), 3),
    ((0, 3, 5), (1, 2, 4), 3),
])
def test_jw_exponential_matches_dense_fermionic_rotation(ann, cre, n_orb):
    op = ExcitationOp(n_orbitals=n_orb, annihilated=ann, created=cre, phase=1)
    n_qubits = 2 * n_orb
    theta = 0.37
    generator = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for coeff, label in jordan_wigner(op, n_qubits):
        generator += coeff * oracles.pauli_string_matrix(label)
    from_pauli = scipy.linalg.expm(theta * generator)
    from_fermion = oracles.dense_excitation_rotation(op, theta)
    assert np.max(np.abs(from_pauli - from_fermion)) < 1e-10


def test_jw_rejects_qubit_outside_register():
    op = ExcitationOp(n_orbitals=2, annihilated=(0,), created=(3,), phase=1)
    assert len(jordan_wigner(op, 4)) == 2
    with pytest.raises(ValueError, match="outside 3 qubits"):
        jordan_wigner(op, 3)


# ------------------------------------------------------------- gate counts

def test_gate_counts_fields():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=4)
    circuit = build_usci(selected[0], selected, 4)
    counts = gate_counts(circuit)
    assert counts["n_gates"] == len(circuit.gates)
    assert counts["n_params"] == circuit.n_params
    assert counts["depth"] >= 1
    assert counts["depth"] <= counts["n_gates"]
    assert counts["n_qubits"] == 8
