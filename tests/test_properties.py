"""Generated inputs against the oracles.

Each property draws its inputs with ``hypothesis`` and compares the
package with an independent reference: the Hamiltonian projection and
EN-PT2 with the dense operator matrices of ``oracles``, the two pair
sources of the subspace build with each other, the noisy sampling stage
with its shot-count and sector laws, the wavefunction file's text with
the read path that built one ``Determinant`` per string
(``oracles.wavefunction_from_json``), ``det_masks`` with the
``Determinant`` list it reads back and the inputs it refuses, and
``apply_circuit``, which keeps one compiled program per circuit and
listing, with ``oracles.flat_apply_circuit``, which finds each gate's
pairs by scanning the whole listing, byte for byte across repeat calls
and listing changes.
The examples are derandomized, so a run always tests the same inputs.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselci.circuits import build_lucj, build_usci
from qselci.dets import (
    Determinant,
    bitstring_masks,
    bitstrings,
    det_masks,
    determinants,
    sector_masks,
)
from qselci.errors import MalformedWavefunction, TooLarge
from qselci.expansion import DENOMINATOR_TOL, en_pt2
from qselci.fcidump import IntegralTable, _canonical
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import Wavefunction, fci_oracle
from qselci.pipeline import noisy_counts, prepared_state
from qselci.sampling import READOUT_BLOCK, NoiseModel, symmetry_filter
from qselci.simulator import Statevector, apply_circuit

import helpers
import oracles

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)

# zero skips a rotation; past pi/2 the cosine is negative, which can turn
# a zero amplitude into -0.0
ANGLES = st.one_of(
    st.just(0.0),
    st.floats(math.pi / 2, math.pi, exclude_min=True, exclude_max=True),
    st.floats(-math.pi, math.pi),
)


@st.composite
def sectors(draw):
    """(n, n_alpha, n_beta) of 2-4 orbitals, each count binomial(n, 1/2).
    Hypothesis keeps its integers at the ends of their range, where a
    sector of 0 or n electrons per spin is one determinant, so numpy draws
    the sector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 5))
    return n, *rng.binomial(n, 0.5, size=2).tolist()


# every (n, n_alpha, n_beta) of 1-4 orbitals, drawn uniformly
SECTORS = st.sampled_from([(n, a, b) for n in (4, 3, 2, 1)
                           for a in range(n + 1) for b in range(n + 1)])


@st.composite
def tables(draw):
    """An integral table of 1-4 orbitals in any (n_alpha, n_beta) sector:
    dense, sparse (each entry of h and each (pq|rs) class kept with
    probability 1/2) or with h zero, with or without a core energy."""
    n, n_alpha, n_beta = draw(SECTORS)
    kind = draw(st.sampled_from(["dense", "sparse", "zero-h"]))
    core = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = IntegralTable(n_orbitals=n, n_electrons=n_alpha + n_beta,
                          ms2=n_alpha - n_beta,
                          core_energy=float(rng.normal()) if core else 0.0)
    h = rng.normal(size=(n, n)) * (kind != "zero-h")
    if kind == "sparse":
        h *= rng.random((n, n)) < 0.5
    table.h = h + h.T
    classes = sorted({_canonical(*i)
                      for i in itertools.product(range(n), repeat=4)})
    for key in classes:
        if kind != "sparse" or rng.random() < 0.5:
            table.set_g(*key, float(rng.normal()) * 0.5)
    return table


@st.composite
def table_rows(draw, min_size=0):
    """A table and a subset of its sector's mask rows, in drawn order, of
    ``min_size`` rows up to the whole sector."""
    table = draw(tables())
    masks = sector_masks(table.n_orbitals, table.n_alpha, table.n_beta)
    # numpy draws the size, which hypothesis would keep near the minimum
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rng.integers(min_size, len(masks), endpoint=True)
    return table, masks[rng.permutation(len(masks))[:size]]


@st.composite
def usci_circuits(draw, angles=ANGLES):
    """A USCI circuit over a random selection in a sector of at most four
    orbitals, 1-3 layers (so excitations repeat across layers), and its
    parameters drawn from ``angles``."""
    n, n_alpha, n_beta = draw(sectors())
    masks = sector_masks(n, n_alpha, n_beta)
    picks = draw(st.lists(st.integers(0, len(masks) - 1), min_size=1,
                          max_size=6, unique=True))
    selected = [Determinant(int(a), int(b)) for a, b in masks[picks]]
    circuit = build_usci(selected[0], selected, n,
                         layers=draw(st.integers(1, 3)),
                         with_orbital_rotation=draw(st.booleans()))
    params = draw(st.lists(angles, min_size=circuit.n_params,
                           max_size=circuit.n_params))
    return circuit, np.array(params, dtype=float)


@st.composite
def lucj_circuits(draw):
    """An LUCJ circuit with a random antisymmetric K and symmetric J."""
    n, n_alpha, n_beta = draw(sectors())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(n, n))
    J = rng.normal(size=(2 * n, 2 * n))
    reference = Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)
    return build_lucj(K - K.T, J + J.T, reference), np.zeros(0)


@PROPERTY
@given(st.one_of(usci_circuits(), lucj_circuits()))
def test_apply_circuit_matches_the_flat_oracle_across_listings(drawn):
    circuit, params = drawn
    sector = Statevector.from_determinant(circuit.reference,
                                          circuit.n_orbitals)
    register = Statevector(helpers.full_register(sector), circuit.n_qubits)
    # first call, repeat call, the full register, then the sector again:
    # every listing change compiles the circuit again
    for state in (sector, sector, register, sector):
        want = oracles.flat_apply_circuit(circuit, params, state)
        out = apply_circuit(circuit, params, state)
        assert out.amps.tobytes() == want.tobytes()


@PROPERTY
@given(usci_circuits(angles=st.one_of(st.just(0.0), ANGLES)), st.data())
def test_a_product_sub_listing_raises_where_the_oracle_does(drawn, data):
    # one alpha and one beta string dropped from the sector leave some
    # excitations without a partner: those may rotate only by a zero angle
    circuit, params = drawn
    n = circuit.n_orbitals
    sector = Statevector.from_determinant(circuit.reference, n)
    low = np.uint64((1 << n) - 1)
    strings = []
    for channel in (sector.index >> np.uint64(n), sector.index & low):
        channel = np.unique(channel).tolist()
        if len(channel) > 1:
            channel.remove(data.draw(st.sampled_from(channel)))
        strings.append(channel)
    index = np.array([(b << n) | a for b in strings[0] for a in strings[1]],
                     dtype=np.uint64)
    amps = np.random.default_rng(index.size).normal(size=index.size)
    state = Statevector(amps / np.linalg.norm(amps), circuit.n_qubits, index)
    for _ in range(2):  # the second call runs from the kept program
        try:
            want = oracles.flat_apply_circuit(circuit, params, state)
        except ValueError:
            want = None
        try:
            out = apply_circuit(circuit, params, state).amps
        except ValueError as exc:
            assert "listed basis states" in str(exc)
            out = None
        assert (out is None) == (want is None)
        if want is not None:
            assert out.tobytes() == want.tobytes()


# ------------------------------------------------------ Hamiltonian kernel

@PROPERTY
@given(table_rows())
def test_build_subspace_is_the_dense_projection_from_either_pair_source(
        drawn):
    table, masks = drawn
    screened, generated = (helpers.built_subspace(masks, table, g)
                           for g in (False, True))
    assert helpers.csr_bytes(screened.matrix) == (
        helpers.csr_bytes(generated.matrix))
    want = oracles.project_hamiltonian(table, determinants(masks))
    assert screened.matrix.shape == want.shape
    assert np.abs(screened.matrix.toarray() - want).max(initial=0.0) <= 1e-12
    assert screened.core_energy == table.core_energy


@PROPERTY
@given(table_rows(min_size=1), st.integers(0, 2**32 - 1))
def test_en_pt2_is_the_dense_sum_over_the_complement(drawn, seed):
    table, masks = drawn
    n = table.n_orbitals
    sector = sector_masks(n, table.n_alpha, table.n_beta)
    H = oracles.project_hamiltonian(table, determinants(sector))
    at = [np.flatnonzero((sector == row).all(axis=1))[0] for row in masks]
    outside = np.setdiff1d(np.arange(len(sector)), at)
    coeffs = np.random.default_rng(seed).normal(size=len(masks))
    coeffs /= np.linalg.norm(coeffs)
    energy = float(coeffs @ H[np.ix_(at, at)] @ coeffs) + table.core_energy
    psi = Wavefunction(masks=masks, coeffs=coeffs, energy=energy,
                       n_orbitals=n)
    numerators = H[np.ix_(outside, at)] @ coeffs
    denominators = np.diag(H)[outside] + table.core_energy - energy
    kept = np.abs(denominators) >= DENOMINATOR_TOL
    want = -np.sum(numerators[kept] ** 2 / denominators[kept])
    got = en_pt2(psi, table)
    assert abs(got.delta_e - want) <= 1e-10 * max(1.0, abs(want))
    assert got.n_external <= len(outside)


# -------------------------------------------------------- noisy sampling

NOISE_MODELS = st.builds(
    NoiseModel,
    depolarizing_p=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    readout_eps0=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    readout_eps1=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)


@PROPERTY
@given(usci_circuits(), NOISE_MODELS,
       st.one_of(st.integers(1, 50), st.integers(READOUT_BLOCK - 2,
                                                 READOUT_BLOCK + 2)),
       st.integers(0, 2**32 - 1))
def test_noisy_counts_keep_every_shot_and_filter_to_the_sector(
        drawn, noise, shots, seed):
    circuit, params = drawn
    reference = circuit.reference
    counts = noisy_counts(prepared_state(circuit, params), shots, noise, seed)
    assert counts.total_shots == shots
    kept, rejected = symmetry_filter(counts, reference.n_alpha,
                                     reference.n_beta)
    assert kept.total_shots + rejected == shots
    low = np.uint64((1 << circuit.n_orbitals) - 1)
    n_alpha = np.bitwise_count(kept.index & low)
    n_beta = np.bitwise_count(kept.index >> np.uint64(circuit.n_orbitals))
    assert (n_alpha == reference.n_alpha).all()
    assert (n_beta == reference.n_beta).all()


# ------------------------------------------------- wavefunction file text

@st.composite
def mask_rows(draw, n):
    """(N, 2) uint64 rows of ``n``-orbital masks, the top orbital's bit
    and the all-ones mask among the drawn values."""
    top = (1 << n) - 1
    value = st.one_of(st.integers(0, top),
                      st.sampled_from([top, 1 << (n - 1)]))
    rows = draw(st.lists(st.tuples(value, value), max_size=8))
    return np.array(rows, dtype=np.uint64).reshape(-1, 2)


@PROPERTY
@given(st.one_of(st.just(64), st.integers(1, 64)).flatmap(
    lambda n: st.tuples(st.just(n), mask_rows(n))))
def test_bitstring_masks_reads_back_what_bitstrings_writes(drawn):
    n, rows = drawn
    back = bitstring_masks(bitstrings(rows, n), n)
    assert back.dtype == np.uint64 and back.shape == rows.shape
    assert back.tobytes() == rows.tobytes()


@PROPERTY
@given(st.one_of(st.just(64), st.integers(1, 64)).flatmap(
    lambda n: st.tuples(st.just(n), mask_rows(n))))
def test_det_masks_reads_back_what_determinants_writes(drawn):
    n, rows = drawn
    back = det_masks(determinants(rows), n)
    assert back.dtype == np.uint64 and back.shape == rows.shape
    assert back.tobytes() == rows.tobytes()
    # Python-int lists and int64 arrays give the same rows (int64 holds
    # the rows below orbital 63)
    low = rows[(rows >> np.uint64(63) == 0).all(axis=1)]
    for given_rows in (low.tolist(), low.astype(np.int64)):
        got = det_masks(given_rows, n)
        assert got.dtype == np.uint64 and got.shape == low.shape
        assert got.tobytes() == low.tobytes()


@PROPERTY
@given(st.integers(1, 63).flatmap(lambda n: st.tuples(
    st.just(n), mask_rows(n),
    st.lists(st.tuples(st.integers(0, 1), st.one_of(
        st.just(n), st.just(63), st.integers(n, 63))), min_size=1, max_size=3),
    st.randoms(use_true_random=False))))
def test_det_masks_names_the_first_row_past_its_orbitals(drawn):
    n, rows, planted, rng = drawn
    rows = [list(row) for row in rows.tolist()]
    for channel, orbital in planted:
        row = [0, 0]
        row[channel] = 1 << orbital | rng.getrandbits(n)
        rows.insert(rng.randint(0, len(rows)), row)
    first = next(r for r in rows if max(r) >> n)
    message = f"{Determinant(*first)} occupies an orbital past n_orbitals = {n}"
    for given_rows in (rows, np.array(rows, dtype=np.uint64),
                       determinants(np.array(rows, dtype=np.uint64))):
        with pytest.raises(ValueError) as caught:
            det_masks(given_rows, n)
        assert str(caught.value) == message


@PROPERTY
@given(st.integers(65, 200), mask_rows(8))
def test_det_masks_past_64_orbitals_is_too_large(n, rows):
    for given_rows in (rows, determinants(rows)):
        with pytest.raises(TooLarge, match=f"{n} orbitals is past the 64"):
            det_masks(given_rows, n)
    with pytest.raises(TooLarge, match="past the 64-orbital limit"):
        det_masks([*rows.tolist(), [1 << 64, 0]])


BAD_ROWS = {
    "negative-int": lambda rows: [*rows.tolist(), [-1, 0]],
    "negative-int64": lambda rows: np.vstack(
        [rows.astype(np.int64) >> 1, [[0, -1]]]),
    "bool": lambda rows: [*rows.tolist(), [True, False]],
    "bool-array": lambda rows: np.vstack([rows, [[1, 0]]]) != 0,
    "float": lambda rows: [*rows.tolist(), [1.0, 0]],
    "float-array": lambda rows: np.vstack([rows, [[1, 0]]]).astype(float),
    "one-column": lambda rows: np.vstack([rows, [[1, 0]]])[:, :1],
    "three-columns": lambda rows: np.hstack(
        [np.vstack([rows, [[1, 0]]]), np.zeros((len(rows) + 1, 1), int)]),
    "flat": lambda rows: np.vstack([rows, [[1, 0]]]).ravel(),
    "ragged": lambda rows: [*rows.tolist(), [1]],
}


@PROPERTY
@given(st.sampled_from(sorted(BAD_ROWS)), mask_rows(8))
def test_det_masks_rejects_rows_that_are_not_nonnegative_integer_pairs(
        kind, rows):
    with pytest.raises(ValueError, match="mask rows must be an .N, 2. array "
                                         "of nonnegative integers"):
        det_masks(BAD_ROWS[kind](rows), 8)


@st.composite
def wavefunctions(draw):
    """A wavefunction of 1-64 orbitals over 1-8 distinct mask rows with
    random normalized coefficients and energy."""
    n = draw(st.one_of(st.just(64), st.integers(1, 64)))
    rows = np.unique(draw(mask_rows(n)), axis=0)
    if not len(rows):
        rows = np.zeros((1, 2), np.uint64)
    rows = rows[draw(st.permutations(range(len(rows))))]
    coeffs = np.array(draw(st.lists(
        st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 1e-3),
        min_size=len(rows), max_size=len(rows))))
    return Wavefunction(masks=rows, coeffs=coeffs / np.linalg.norm(coeffs),
                        energy=draw(st.floats(-100.0, 100.0)), n_orbitals=n)


@PROPERTY
@given(wavefunctions())
def test_from_json_reads_the_rows_the_determinant_path_read(psi):
    text = psi.to_json()
    got = Wavefunction.from_json(text)
    want = oracles.wavefunction_from_json(text)
    assert got.masks.dtype == np.uint64
    assert got.masks.tobytes() == want.masks.tobytes()
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert repr(got.energy) == repr(want.energy)
    assert got.n_orbitals == want.n_orbitals == psi.n_orbitals


def _corrupted(key, kind):
    if kind == "empty":
        return ""
    if kind == "long":
        return key + "0"
    if kind == "short":
        return key[:-1]
    return key[:-1] + {"two": "2", "non-ascii": "\u00e9"}[kind]


@PROPERTY
@given(wavefunctions(), st.data())
def test_from_json_names_the_first_bad_key_in_file_order(psi, data):
    doc = json.loads(psi.to_json())
    items = list(doc["coefficients"].items())
    kinds = ["empty", "long", "short", "two", "non-ascii"]
    bad = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2))
    for kind in bad:  # each inserted at a drawn place among the keys
        at = data.draw(st.integers(0, len(items)))
        key = items[min(at, len(items) - 1)][0]
        items.insert(at, (_corrupted(key, kind), 1.0))
    doc["coefficients"] = dict(items)
    text = json.dumps(doc)
    first = next(k for k in doc["coefficients"]
                 if len(k) != 2 * psi.n_orbitals or set(k) - {"0", "1"})
    messages = []
    for read in (Wavefunction.from_json, oracles.wavefunction_from_json):
        with pytest.raises(MalformedWavefunction) as caught:
            read(text)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == (
        f"{first!r} is not a {2 * psi.n_orbitals}-character occupation string")


def test_from_json_builds_no_determinant(monkeypatch):
    psi = fci_oracle(hubbard_chain_table())
    text = psi.to_json()

    def refuse(*_args, **_kwargs):
        raise AssertionError("a Determinant was built")

    monkeypatch.setattr(Determinant, "__new__", refuse)
    with pytest.raises(AssertionError):
        Determinant(1, 1)
    back = Wavefunction.from_json(text)
    monkeypatch.undo()
    assert back.masks.tobytes() == (
        oracles.wavefunction_from_json(text).masks.tobytes())
