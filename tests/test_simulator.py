import collections
import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from qselci import simulator
from qselci.circuits import (
    GATE_BASIS,
    GATE_EXCITATION,
    GATE_JASTROW,
    Circuit,
    Gate,
    build_lucj,
    build_usci,
    prescreen,
)
from qselci.dets import (
    Determinant,
    ExcitationOp,
    enumerate_space,
    hartree_fock,
    string_sign,
)
from qselci.errors import ParamCountMismatch, TooManyQubits
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import Wavefunction, build_subspace, fci_oracle
from qselci.simulator import (
    MAX_AMPLITUDES,
    Statevector,
    apply_circuit,
    expectation_energy,
)

import helpers
import oracles


def _excitation_circuit(op, n_qubits):
    gate = Gate(kind=GATE_EXCITATION, qubits=tuple(op.annihilated)
                + tuple(op.created), param_slot=0, excitation=op)
    ref = Determinant(0, 0)
    return Circuit(n_qubits=n_qubits, gates=[gate], n_params=1, layers=1,
                   reference=ref, n_orbitals=n_qubits // 2)


def _random_excitation(rng, n_orbitals):
    """Random rank-1/2 spin-conserving excitation over 2*n_orbitals."""
    rank = int(rng.integers(1, 3))
    spins = [int(rng.integers(0, 2)) for _ in range(rank)]
    ann, cre = [], []
    for s in spins:
        offset = s * n_orbitals
        a, c = rng.choice(n_orbitals, size=2, replace=False)
        ann.append(offset + int(a))
        cre.append(offset + int(c))
    if len(set(ann)) < rank or len(set(cre)) < rank or set(ann) & set(cre):
        return None
    return ExcitationOp(n_orbitals=n_orbitals, annihilated=tuple(sorted(ann)),
                        created=tuple(sorted(cre)), phase=1)


# ----------------------------------------------------------- basic contract

def test_from_determinant_layout():
    det = Determinant(0b01, 0b10)        # alpha orbital 0, beta orbital 1
    sv = Statevector.from_determinant(det, 2)
    amps = helpers.full_register(sv)
    assert amps.shape == (16,)
    assert amps[det.to_index(2)] == 1.0
    assert np.count_nonzero(amps) == 1


def test_qubit_cap_enforced():
    # the cap counts amplitudes, not qubits: 26 qubits, 13 x 13 sector
    assert Statevector.from_determinant(Determinant(1, 1), 13).amps.size == 169
    with pytest.raises(TooManyQubits):
        Statevector(np.zeros(1), 26)  # a full 26-qubit register
    # a basis index is one uint64: 64 qubits fit, 66 are past the limit
    assert Statevector.from_determinant(Determinant(1, 1), 32).amps.size == 1024
    with pytest.raises(TooManyQubits, match="64-qubit limit"):
        Statevector.from_determinant(Determinant(1, 1), 33)


def test_sector_above_amplitude_cap_raises_before_allocating():
    assert math.comb(26, 13) ** 2 > MAX_AMPLITUDES
    tracemalloc.start()
    try:
        with pytest.raises(TooManyQubits):
            Statevector.from_determinant(hartree_fock(26, 13, 13), 26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_24_qubit_sector_runs_a_double_excitation():
    ref = hartree_fock(12, 6, 6)
    sv = Statevector.from_determinant(ref, 12)
    assert sv.amps.size == math.comb(12, 6) ** 2 == 853_776
    op = ExcitationOp(n_orbitals=12, annihilated=(5, 17), created=(6, 18),
                      phase=1)
    out = apply_circuit(_excitation_circuit(op, 24), [0.3], sv)
    moved = Determinant(0b1011111, 0b1011111)
    at = np.searchsorted(out.index, [ref.to_index(12), moved.to_index(12)])
    assert np.count_nonzero(out.amps) == 2
    assert np.max(np.abs(np.abs(out.amps[at]) - [np.cos(0.3), np.sin(0.3)])) < 1e-12


def test_param_count_mismatch():
    op = ExcitationOp(n_orbitals=1, annihilated=(0,), created=(1,), phase=1)
    circuit = _excitation_circuit(op, 2)
    sv = Statevector.from_determinant(Determinant(1, 0), 1)
    with pytest.raises(ParamCountMismatch):
        apply_circuit(circuit, [0.1, 0.2], sv)


def test_zero_params_identity():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=6)
    circuit = build_usci(selected[0], selected, 4)
    sv = Statevector.from_determinant(selected[0], 4)
    out = apply_circuit(circuit, np.zeros(circuit.n_params), sv)
    assert np.max(np.abs(out.amps - sv.amps)) < 1e-12


# --------------------------------------------------- dense-oracle agreement

def test_half_pi_swaps_basis_states():
    # alpha 0 -> alpha 1 on one spatial orbital pair: |10> -> |01>
    op = ExcitationOp(n_orbitals=1, annihilated=(0,), created=(1,), phase=1)
    circuit = _excitation_circuit(op, 2)
    # the gate moves an electron between spin channels, out of the
    # determinant's sector, so it runs on the whole register
    one_hot = Statevector.from_determinant(Determinant.from_bitstring("10"), 1)
    sv = Statevector(helpers.full_register(one_hot), 2)
    out = apply_circuit(circuit, [np.pi / 2], sv)
    target = Determinant.from_bitstring("01").to_index(1)
    assert abs(abs(out.amps[target]) - 1.0) < 1e-12
    dense = oracles.dense_excitation_rotation(op, np.pi / 2)
    expected = dense @ sv.amps
    assert np.max(np.abs(out.amps - expected)) < 1e-12


def test_gate_leaving_the_sector_is_rejected():
    op = ExcitationOp(n_orbitals=1, annihilated=(0,), created=(1,), phase=1)
    sv = Statevector.from_determinant(Determinant.from_bitstring("10"), 1)
    with pytest.raises(ValueError, match="listed basis states"):
        apply_circuit(_excitation_circuit(op, 2), [np.pi / 2], sv)


@pytest.mark.parametrize("listed, steps", [(0b0010, 1), (0b0001, 1),
                                           (0b0010, 3), (0b0001, 3)],
                         ids=["target", "source", "target-reused",
                              "source-reused"])
def test_gate_partner_missing_from_the_listing_is_rejected(listed, steps):
    # a0 -> a1 pairs 0b0001 with 0b0010; only one of the two is listed
    op = ExcitationOp(n_orbitals=2, annihilated=(0,), created=(1,), phase=1)
    sv = Statevector(amps=[1.0], n_qubits=4, index=[listed])
    gates = [Gate(kind=GATE_EXCITATION, qubits=(0, 1), param_slot=slot,
                  excitation=op) for slot in range(steps)]
    circuit = Circuit(n_qubits=4, gates=gates, n_params=steps, layers=steps,
                      reference=Determinant(0, 0), n_orbitals=2)
    # a zero angle moves nothing, so the gate takes no pairs; a reused gate
    # keeps none either
    out = apply_circuit(circuit, np.zeros(steps), sv)
    assert out.amps.tobytes() == sv.amps.tobytes()
    assert simulator._PROGRAMS[circuit].flat == {}
    for at in {0, steps - 1}:
        params = np.zeros(steps)
        params[at] = 0.3
        with pytest.raises(ValueError, match="listed basis states"):
            apply_circuit(circuit, params, sv)


def test_gate_with_no_listed_source_or_target_is_a_no_op():
    # a0 -> b0 on the vacuum: the alpha part finds no source and the beta
    # part no target, so no pair is listed and nothing moves
    op = ExcitationOp(n_orbitals=2, annihilated=(0,), created=(2,), phase=1)
    sv = Statevector.from_determinant(Determinant(0, 0), 2)
    out = apply_circuit(_excitation_circuit(op, 4), [0.3], sv)
    assert out.amps.tobytes() == sv.amps.tobytes()


@pytest.mark.parametrize("index", [[2, 1], [1, 1], [1, 9]],
                         ids=["unsorted", "repeated", "outside"])
def test_statevector_rejects_a_bad_index(index):
    with pytest.raises(ValueError, match="strictly increasing|outside"):
        Statevector(amps=np.full(2, 0.5 ** 0.5), n_qubits=2, index=index)


def test_statevector_rejects_an_empty_index():
    with pytest.raises(ValueError, match="at least one"):
        Statevector(amps=np.zeros(0), n_qubits=8, index=[])


def test_from_determinant_rejects_an_orbital_past_the_register():
    # alpha orbital 4 of 4 would land on beta orbital 0's bit
    with pytest.raises(ValueError, match="past the 4 orbitals"):
        Statevector.from_determinant(Determinant(0b10000, 0b1), 4)
    with pytest.raises(ValueError, match="past the 4 orbitals"):
        Statevector.from_determinant(Determinant(0b1, 0b10000), 4)


def test_listing_that_is_no_string_product_is_rejected():
    # alpha 01 with beta 01, alpha 10 with beta 10: the cross terms are missing
    op = ExcitationOp(n_orbitals=2, annihilated=(0,), created=(1,), phase=1)
    sv = Statevector(amps=np.full(2, 0.5 ** 0.5), n_qubits=4,
                     index=[0b0101, 0b1010])
    with pytest.raises(ValueError, match="product of alpha and beta"):
        apply_circuit(_excitation_circuit(op, 4), [0.3], sv)


@pytest.mark.parametrize("seed", range(12))
def test_excitation_rotation_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n_orb = 3
    op = None
    while op is None:
        op = _random_excitation(rng, n_orb)
    theta = float(rng.uniform(-1.5, 1.5))
    circuit = _excitation_circuit(op, 2 * n_orb)
    amps = rng.normal(size=1 << (2 * n_orb))
    amps /= np.linalg.norm(amps)
    sv = Statevector(amps=amps.astype(complex), n_qubits=2 * n_orb)
    out = apply_circuit(circuit, [theta], sv)
    expected = oracles.dense_excitation_rotation(op, theta) @ amps
    assert np.max(np.abs(out.amps - expected)) < 1e-10


def test_gate_unitarity_numerically():
    rng = np.random.default_rng(3)
    op = ExcitationOp(n_orbitals=2, annihilated=(0, 2), created=(1, 3),
                      phase=1)
    circuit = _excitation_circuit(op, 4)
    dim = 16
    columns = []
    for k in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        out = apply_circuit(circuit, [0.777], Statevector(amps, 4))
        columns.append(out.amps)
    U = np.array(columns).T
    assert np.max(np.abs(U.conj().T @ U - np.eye(dim))) < 1e-10
    del rng


# ------------------------------------- sector listing against full register

def _random_usci(rng, n_orbitals, n_alpha, n_beta):
    space = enumerate_space(n_orbitals, n_alpha, n_beta)
    pick = rng.choice(len(space), size=min(6, len(space)), replace=False)
    selected = [space[i] for i in pick]
    circuit = build_usci(selected[0], selected, n_orbitals, layers=2,
                         with_orbital_rotation=True)
    return circuit, rng.uniform(-2, 2, size=circuit.n_params)


def _random_lucj(rng, n_orbitals, n_alpha, n_beta):
    K = rng.normal(size=(n_orbitals, n_orbitals))
    J = rng.normal(size=(2 * n_orbitals, 2 * n_orbitals))
    ref = hartree_fock(n_orbitals, n_alpha, n_beta)
    return build_lucj(K - K.T, J + J.T, ref), np.zeros(0)


@pytest.mark.parametrize("build", [_random_usci, _random_lucj])
@pytest.mark.parametrize(
    "n_orbitals, n_alpha, n_beta",
    [(4, 2, 2), (4, 3, 1), (5, 2, 3), (5, 1, 0), (6, 3, 3), (6, 4, 2)],
)
def test_sector_state_matches_full_register_bitwise(build, n_orbitals,
                                                    n_alpha, n_beta):
    rng = np.random.default_rng(100 * n_orbitals + 10 * n_alpha + n_beta)
    circuit, params = build(rng, n_orbitals, n_alpha, n_beta)
    sector = Statevector.from_determinant(circuit.reference, n_orbitals)
    full = Statevector(helpers.full_register(sector), 2 * n_orbitals)
    assert sector.amps.size == (math.comb(n_orbitals, n_alpha)
                                * math.comb(n_orbitals, n_beta))
    out = apply_circuit(circuit, params, sector)
    assert np.array_equal(out.index, sector.index)
    assert np.array_equal(
        helpers.full_register(out), apply_circuit(circuit, params, full).amps
    )


# ------------------------------ channel pairing against the flat-index paths

def _hubbard8_usci():
    """The 8-site, 4-electron Hubbard circuit of ``qselci qsci``."""
    selected = prescreen(fci_oracle(hubbard_chain_table(8, n_electrons=4)), 0.01)
    circuit = build_usci(selected[0], selected, 8)
    return circuit, np.full(circuit.n_params, 0.15)


def _seeded(build, n_orbitals, n_alpha, n_beta):
    rng = np.random.default_rng(100 * n_orbitals + 10 * n_alpha + n_beta)
    return build(rng, n_orbitals, n_alpha, n_beta)


PINNED_CIRCUITS = {
    **{f"hf-pick-20q-{seed}": functools.partial(
        helpers.hf_pick_usci, 10, 5, 5, 200, seed)
       for seed in (5, 11, 21)},
    "hubbard8": _hubbard8_usci,
    **{f"{build.__name__[8:]}-{n}-{a}-{b}": functools.partial(
        _seeded, build, n, a, b)
       for build in (_random_usci, _random_lucj)
       for n, a, b in [(5, 2, 3), (6, 3, 3), (7, 3, 2)]},
}


@pytest.mark.parametrize("name", sorted(PINNED_CIRCUITS))
def test_mask_pairing_matches_searchsorted_pairing_bitwise(name):
    circuit, params = PINNED_CIRCUITS[name]()
    sv = Statevector.from_determinant(circuit.reference, circuit.n_orbitals)
    out = apply_circuit(circuit, params, sv)
    ref = oracles.flat_apply_circuit(circuit, params, sv,
                                     rotate=oracles.searchsorted_rotate)
    assert np.array_equal(out.index, sv.index)
    assert out.amps.tobytes() == ref.tobytes()


ANGLE_SETS = ("uniform", "random")


@functools.cache
def _flat_pairing_by_angles(name, listing):
    """(circuit, state, angle rows, flat-pairing amplitude rows) of a pinned
    circuit, one row per entry of ANGLE_SETS: the flat oracle finds each
    gate's pairs once for both angle sets."""
    circuit, _ = PINNED_CIRCUITS[name]()
    params = np.stack([
        np.full(circuit.n_params, 0.15),
        np.random.default_rng(7).uniform(-2, 2, circuit.n_params),
    ])
    sv = Statevector.from_determinant(circuit.reference, circuit.n_orbitals)
    if listing == "register":
        sv = Statevector(helpers.full_register(sv), circuit.n_qubits)
    return circuit, sv, params, oracles.flat_apply_circuit(circuit, params, sv)


@pytest.mark.parametrize("angles", ANGLE_SETS)
@pytest.mark.parametrize("listing", ["sector", "register"])
@pytest.mark.parametrize("name", sorted(PINNED_CIRCUITS))
def test_channel_pairing_matches_flat_mask_pairing_bitwise(name, listing,
                                                           angles):
    circuit, sv, params, ref = _flat_pairing_by_angles(name, listing)
    row = ANGLE_SETS.index(angles)
    for _ in range(2):  # the second call runs from the kept program
        out = apply_circuit(circuit, params[row], sv)
        assert np.array_equal(out.index, sv.index)
        assert out.amps.tobytes() == ref[row].tobytes()


@pytest.mark.parametrize("name", sorted(PINNED_CIRCUITS))
def test_one_circuit_across_listings_matches_flat_pairing_bitwise(name):
    # sector, then the full register, then the sector again: each listing
    # change compiles the circuit again
    circuit, sector, params, in_sector = _flat_pairing_by_angles(name, "sector")
    _, register, _, in_register = _flat_pairing_by_angles(name, "register")
    for sv, ref in ((sector, in_sector), (register, in_register),
                    (sector, in_sector)):
        out = apply_circuit(circuit, params[1], sv)
        assert out.amps.tobytes() == ref[1].tobytes()


def test_full_beta_channel_at_64_qubits_matches_flat_pairing():
    # the one beta string is all 32 ones: the row width may not be found
    # as the index of (B + 1) << 32, which is 2^64 and wraps to 0
    full = (1 << 32) - 1
    ref = Determinant(0b11, full)
    selected = [ref] + [Determinant(a, full) for a in
                        (0b101, (1 << 31) | 1, (1 << 30) | (1 << 7))]
    circuit = build_usci(ref, selected, 32)
    params = np.random.default_rng(3).uniform(-2, 2, circuit.n_params)
    sv = Statevector.from_determinant(ref, 32)
    assert sv.amps.size == math.comb(32, 2)
    assert int(sv.index[0]) >> 32 == full
    out = apply_circuit(circuit, params, sv)
    want = oracles.flat_apply_circuit(circuit, params, sv)
    assert out.amps.tobytes() == want.tobytes()
    assert np.count_nonzero(out.amps) == len(selected)


def test_repeated_excitations_reuse_their_pairings(monkeypatch):
    # 1,008 gates from 155 distinct excitations over 28 strings per channel
    circuit, params = _hubbard8_usci()
    assert len(circuit.gates) == 1008
    assert len({(g.excitation.annihilated, g.excitation.created)
                for g in circuit.gates}) == 155
    key_builds, channel_builds, expansions = [], [], []

    def count(calls, build):
        def counted(*args):
            calls.append(args)
            return build(*args)
        return counted

    monkeypatch.setattr(simulator._Program, "_key",
                        count(key_builds, simulator._Program._key))
    monkeypatch.setattr(simulator, "_channel_pairs",
                        count(channel_builds, simulator._channel_pairs))
    monkeypatch.setattr(simulator._Program, "pairs",
                        count(expansions, simulator._Program.pairs))
    # the same circuit twice, then a new circuit of the same selection
    for run, circuit in enumerate([circuit, circuit, _hubbard8_usci()[0]]):
        key_builds.clear()
        channel_builds.clear()
        expansions.clear()
        sv = Statevector.from_determinant(circuit.reference, 8)
        apply_circuit(circuit, params, sv)
        per_channel = collections.Counter(id(strings)
                                          for strings, _, _ in channel_builds)
        # 86 keys serve 939 steps and keep their pairs from the compile;
        # each of the other 69 is expanded at its one step
        assert len(simulator._PROGRAMS[circuit].flat) == 86
        if run == 1:
            assert key_builds == [] and channel_builds == []
            assert len(expansions) == 69
        else:
            assert 0 < len(key_builds) <= 155
            assert len(per_channel) == 2
            assert max(per_channel.values()) <= 26
            assert len(expansions) == 155


def test_pairings_are_dropped_after_their_last_use():
    circuit, params = PINNED_CIRCUITS["hf-pick-20q-5"]()
    sv = Statevector.from_determinant(circuit.reference, circuit.n_orbitals)
    tracemalloc.start()
    try:
        out = apply_circuit(circuit, params, sv)
        _, peak = tracemalloc.get_traced_memory()
        del out
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert kept < 1 << 20  # the compiled program, kept with the circuit


def test_kept_program_with_reused_pairs_stays_small():
    circuit, params = _hubbard8_usci()
    sv = Statevector.from_determinant(circuit.reference, 8)
    tracemalloc.start()
    try:
        apply_circuit(circuit, params, sv)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1 << 19  # about 0.3 MB, most of it the reused keys' pairs


def test_a_dropped_circuits_program_is_freed():
    circuit, params = _hubbard8_usci()
    sv = Statevector.from_determinant(circuit.reference, 8)
    apply_circuit(circuit, params, sv)
    program = weakref.ref(simulator._PROGRAMS[circuit])
    del circuit
    gc.collect()
    assert program() is None


def _spin_excitation(rng, n_orbitals, spins):
    """An excitation with one (annihilated, created) pair per entry of
    ``spins`` (0 alpha, 1 beta), orbitals drawn without repeats."""
    ann, cre = [], []
    for spin in spins:
        free = [p for p in range(n_orbitals)
                if spin * n_orbitals + p not in ann + cre]
        a, c = rng.choice(free, size=2, replace=False)
        ann.append(spin * n_orbitals + int(a))
        cre.append(spin * n_orbitals + int(c))
    return ExcitationOp(n_orbitals=n_orbitals, annihilated=tuple(sorted(ann)),
                        created=tuple(sorted(cre)), phase=1)


SPIN_PARTS = {"alpha": (0,), "beta": (1,), "alpha-alpha": (0, 0),
              "beta-beta": (1, 1), "mixed": (0, 1)}


@pytest.mark.parametrize("spins", SPIN_PARTS)
@pytest.mark.parametrize("listing", ["sector-6-3-2", "register-4",
                                     "full-beta-64"])
def test_channel_parities_give_the_string_sign(listing, spins):
    if listing == "sector-6-3-2":
        sv = Statevector.from_determinant(hartree_fock(6, 3, 2), 6)
    elif listing == "register-4":
        sv = Statevector(np.zeros(256), 8)
    else:  # as in test_full_beta_channel_at_64_qubits_matches_flat_pairing
        sv = Statevector.from_determinant(Determinant(0b11, (1 << 32) - 1), 32)
    n, parts = sv.n_qubits // 2, SPIN_PARTS[spins]
    rng = np.random.default_rng(10 * len(parts) + sum(parts))
    for _ in range(8):
        op = _spin_excitation(rng, n, parts)
        program = simulator._Program(_excitation_circuit(op, 2 * n), sv.index)
        src_at, tgt_at, sign = program.pairs(0)
        want = string_sign(sv.index[src_at], op.annihilated, op.created)
        assert sign.dtype == want.dtype == np.int8
        assert sign.tobytes() == want.tobytes()
        assert listing == "full-beta-64" or src_at.size


# ------------------------------------------------------ property invariants

def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(11)
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    space = enumerate_space(4, 2, 2)
    coeffs = dict(zip(oracle.dets, oracle.coeffs))
    for _ in range(100):
        pick = rng.choice(len(space), size=5, replace=False)
        selected = [oracle.dets[i] for i in sorted(pick)]
        ranked = sorted(selected,
                        key=lambda d: (-(coeffs[d] ** 2) ** 0.5,
                                       d.alpha, d.beta))
        circuit = build_usci(ranked[0], ranked, 4)
        params = rng.uniform(-2, 2, size=circuit.n_params)
        sv = Statevector.from_determinant(ranked[0], 4)
        out = apply_circuit(circuit, params, sv)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_particle_number_conserved():
    rng = np.random.default_rng(5)
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=8)
    circuit = build_usci(selected[0], selected, 4, layers=2)
    params = rng.uniform(-1, 1, size=circuit.n_params)
    sv = Statevector.from_determinant(selected[0], 4)
    out = apply_circuit(circuit, params, sv)
    support = np.nonzero(np.abs(helpers.full_register(out)) > 1e-12)[0]
    for idx in support:
        det = Determinant.from_index(int(idx), 4)
        assert det.n_alpha == 2 and det.n_beta == 2


def test_negative_angle_inverts():
    rng = np.random.default_rng(9)
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=6)
    circuit = build_usci(selected[0], selected, 4)
    params = rng.uniform(-1, 1, size=circuit.n_params)
    sv = Statevector.from_determinant(selected[0], 4)
    forward = apply_circuit(circuit, params, sv)
    # undo by applying the reversed gate list with negated angles
    reversed_circuit = Circuit(
        n_qubits=circuit.n_qubits,
        gates=list(reversed(circuit.gates)),
        n_params=circuit.n_params,
        layers=circuit.layers,
        reference=circuit.reference,
        n_orbitals=circuit.n_orbitals,
    )
    back = apply_circuit(reversed_circuit, -params, forward)
    assert np.max(np.abs(back.amps - sv.amps)) < 1e-10


# -------------------------------------------------------------- LUCJ gates

def test_lucj_identity_when_zero():
    ref = hartree_fock(2, 1, 1)
    circuit = build_lucj(np.zeros((2, 2)), np.zeros((4, 4)), ref)
    sv = Statevector.from_determinant(ref, 2)
    out = apply_circuit(circuit, [], sv)
    assert np.max(np.abs(out.amps - sv.amps)) < 1e-12


def test_lucj_j_zero_k_cancels():
    rng = np.random.default_rng(2)
    n = 3
    K = rng.normal(size=(n, n))
    K = K - K.T
    ref = hartree_fock(n, 2, 1)
    circuit = build_lucj(K, np.zeros((2 * n, 2 * n)), ref)
    amps = rng.normal(size=1 << (2 * n)) + 1j * rng.normal(size=1 << (2 * n))
    amps /= np.linalg.norm(amps)
    sv = Statevector(amps=amps, n_qubits=2 * n)
    out = apply_circuit(circuit, [], sv)
    assert np.max(np.abs(out.amps - sv.amps)) < 1e-10


def test_lucj_jastrow_phase_on_occupied_pair():
    # K = 0, single nonzero J_pq: phase lands iff both spin orbitals occupied
    n = 2
    J = np.zeros((4, 4))
    J[0, 2] = J[2, 0] = 0.7          # alpha orbital 0 with beta orbital 0
    ref = hartree_fock(n, 1, 1)      # both of those occupied
    circuit = build_lucj(np.zeros((n, n)), J, ref)
    sv = Statevector.from_determinant(ref, n)
    out = apply_circuit(circuit, [], sv)
    idx = ref.to_index(n)
    assert abs(helpers.full_register(out)[idx] - np.exp(0.7j)) < 1e-12
    # a determinant missing one of the pair picks up no phase
    other = Determinant(0b10, 0b01)  # alpha orbital 1, beta orbital 0
    sv2 = Statevector.from_determinant(other, n)
    out2 = apply_circuit(circuit, [], sv2)
    assert abs(helpers.full_register(out2)[other.to_index(n)] - 1.0) < 1e-12


def test_basis_gate_built_from_a_writable_kappa_keeps_its_values():
    # a circuit compiles once, so a gate must not follow later writes to
    # the array it was given
    rng = np.random.default_rng(8)
    n = 3
    kappa = rng.normal(size=(n, n))
    kappa -= kappa.T
    ref = hartree_fock(n, 1, 1)

    def lucj_like(k):
        gates = [Gate(kind=GATE_BASIS, qubits=tuple(range(2 * n)), kappa=k,
                      inverse=True),
                 Gate(kind=GATE_JASTROW, qubits=(0, n), angle=0.7),
                 Gate(kind=GATE_BASIS, qubits=tuple(range(2 * n)), kappa=k)]
        return Circuit(n_qubits=2 * n, gates=gates, n_params=0, layers=1,
                       reference=ref, n_orbitals=n)

    sv = Statevector.from_determinant(ref, n)
    circuit = lucj_like(kappa)
    before = apply_circuit(circuit, [], sv).amps.tobytes()
    kappa *= 2
    doubled = apply_circuit(lucj_like(kappa), [], sv).amps.tobytes()
    assert doubled != before
    for gate in (circuit.gates[0], circuit.gates[-1]):
        assert np.array_equal(gate.kappa, kappa / 2)
        assert not gate.kappa.flags.writeable
    assert apply_circuit(circuit, [], sv).amps.tobytes() == before
    fresh = lucj_like(circuit.gates[0].kappa)
    assert apply_circuit(fresh, [], sv).amps.tobytes() == before


def test_basis_rotation_matches_dense_orbital_rotation():
    rng = np.random.default_rng(4)
    n = 3
    K = rng.normal(size=(n, n)) * 0.4
    K = K - K.T
    ref = hartree_fock(n, 2, 1)
    circuit = build_lucj(K, np.zeros((2 * n, 2 * n)), ref)
    # isolate the trailing (non-inverse) layer: e^{K}
    forward_only = Circuit(
        n_qubits=circuit.n_qubits,
        gates=[circuit.gates[-1]],
        n_params=0,
        layers=1,
        reference=ref,
        n_orbitals=n,
    )
    amps = rng.normal(size=1 << (2 * n))
    amps /= np.linalg.norm(amps)
    sv = Statevector(amps=amps.astype(complex), n_qubits=2 * n)
    out = apply_circuit(forward_only, [], sv)
    expected = oracles.dense_orbital_rotation(K, n) @ amps
    assert np.max(np.abs(out.amps - expected)) < 1e-10


# ------------------------------------------------------------- diagnostics

def test_expectation_energy_matches_oracle():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    subspace = build_subspace(list(oracle.dets), table)
    amps = np.zeros(1 << 8, dtype=complex)
    for det, c in zip(oracle.dets, oracle.coeffs):
        amps[det.to_index(4)] = c
    sv = Statevector(amps=amps, n_qubits=8)
    assert abs(expectation_energy(sv, subspace) - oracle.energy) < 1e-10


def test_expectation_energy_rejects_register_mismatch():
    subspace = build_subspace(enumerate_space(6, 3, 3), hubbard_chain_table(6))
    state = Statevector.from_determinant(hartree_fock(4, 2, 2), 4)
    with pytest.raises(ValueError, match="2 \\* n_orbitals"):
        expectation_energy(state, subspace)


def test_expectation_energy_rejects_past_the_uint64_index():
    # 33 orbitals: beta << 33 would wrap in the packed uint64 basis index,
    # so no 66-qubit state is built for expectation_energy to read
    with pytest.raises(TooManyQubits, match="64-qubit limit"):
        Statevector(amps=[1.0], n_qubits=66, index=[3])
