import math
import tracemalloc

import numpy as np
import pytest

from qselci import sampling
from qselci.circuits import build_usci, prescreen
from qselci.dets import Determinant, bitstring_of_index
from qselci.errors import TooLarge, TooManyQubits
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import fci_oracle
from qselci.sampling import (
    Distribution,
    NoiseModel,
    SampleCounts,
    apply_readout,
    counts_to_determinants,
    depolarize_distribution,
    ideal_distribution,
    per_gate_depolarizing,
    sample,
    symmetry_filter,
)
from qselci.simulator import Statevector, apply_circuit

import helpers
import oracles


def _counts(text_counts, n_qubits):
    """SampleCounts over the indices of ``{bitstring: count}``."""
    return SampleCounts(
        index=np.array([oracles.index_of_bitstring(s) for s in text_counts]),
        shots=np.array(list(text_counts.values())),
        n_qubits=n_qubits,
    )


def _ranking(dist):
    """Listed bitstrings by descending probability, then ascending text."""
    text = [bitstring_of_index(i, dist.n_qubits) for i in dist.index.tolist()]
    return [s for _, s in sorted(zip(-dist.probs, text))]


# -------------------------------------------------------------- noise model

def test_noise_model_aggregates_per_gate_strength():
    assert abs(per_gate_depolarizing(0.001, 300) - (1.0 - 0.999 ** 300)) < 1e-15
    assert per_gate_depolarizing(0.0, 100) == 0.0
    assert per_gate_depolarizing(0.5, 0) == 0.0


def test_noise_model_range_validation():
    with pytest.raises(ValueError):
        NoiseModel(depolarizing_p=1.5)
    with pytest.raises(ValueError):
        NoiseModel(readout_eps0=-0.1)
    with pytest.raises(ValueError, match=r"per-gate strength outside \[0, 1\]"):
        per_gate_depolarizing(2.0, 10)
    for n_2q in (None, -1):
        with pytest.raises(ValueError, match=f"count n_2q, got {n_2q}"):
            per_gate_depolarizing(0.001, n_2q)


# ------------------------------------------------------- ideal distribution

def test_ideal_distribution_basis_state():
    sv = Statevector.from_determinant(Determinant(0b01, 0b10), 2)
    dist = ideal_distribution(sv)
    assert len(dist.probs) == 1
    assert dist.index.tolist() == [oracles.index_of_bitstring("1001")]
    assert abs(dist.probs[0] - 1.0) < 1e-15


def test_ideal_distribution_uniform_two_qubit():
    amps = np.full(4, 0.5, dtype=complex)
    dist = ideal_distribution(Statevector(amps=amps, n_qubits=2))
    assert len(dist.probs) == 4
    assert all(abs(p - 0.25) < 1e-15 for p in dist.probs)


def test_ideal_distribution_matches_squared_amplitudes():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=6)
    circuit = build_usci(selected[0], selected, 4)
    sv = Statevector.from_determinant(selected[0], 4)
    out = apply_circuit(circuit, np.full(circuit.n_params, 0.3), sv)
    dist = ideal_distribution(out)
    amps = helpers.full_register(out)
    for idx, p in zip(dist.index, dist.probs):
        assert abs(p - abs(amps[idx]) ** 2) < 1e-14
    assert abs(oracles.distribution_total(dist) - 1.0) < 1e-10


# ------------------------------------------------------------- depolarizing

def _random_distribution(rng, n_qubits, support):
    idx = rng.choice(1 << n_qubits, size=support, replace=False)
    w = rng.random(support)
    w /= w.sum()
    return Distribution(index=idx, probs=w, n_qubits=n_qubits)


def test_depolarize_zero_and_full():
    rng = np.random.default_rng(0)
    dist = _random_distribution(rng, 4, 5)
    same = depolarize_distribution(dist, 0.0)
    assert np.array_equal(same.index, dist.index)
    assert np.array_equal(same.probs, dist.probs)
    assert same.residual_mass == 0.0
    flat = depolarize_distribution(dist, 1.0)
    for p in flat.probs:
        assert abs(p - 1 / 16) < 1e-15
    assert abs(flat.unlisted_floor - 1 / 16) < 1e-15
    assert abs(oracles.distribution_total(flat) - 1.0) < 1e-12


def test_depolarize_preserves_ordering_100_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        support = int(rng.integers(2, min(20, 1 << n) + 1))
        dist = _random_distribution(rng, n, support)
        p = float(rng.uniform(0.01, 0.99))
        noisy = depolarize_distribution(dist, p)
        assert _ranking(dist) == _ranking(noisy)


def test_depolarize_cumulative_identity():
    # summed over any fixed set R: (1-p) * P_R_id + p * |R| / 2^n
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        support = int(rng.integers(1, min(12, 1 << n) + 1))
        dist = _random_distribution(rng, n, support)
        p = float(rng.uniform(0.0, 1.0))
        noisy = depolarize_distribution(dist, p)
        r_size = int(rng.integers(1, (1 << n) + 1))
        r_set = rng.choice(1 << n, size=r_size, replace=False)
        lhs = oracles.distribution_cumulative(noisy, r_set)
        rhs = ((1.0 - p) * oracles.distribution_cumulative(dist, r_set)
               + p * r_size / (1 << n))
        assert abs(lhs - rhs) < 1e-12


# ----------------------------------------------------------------- sampling

def test_sample_point_distribution():
    dist = Distribution(
        index=np.array([oracles.index_of_bitstring("0101")]),
        probs=np.ones(1),
        n_qubits=4,
    )
    counts = sample(dist, 1000, seed=3)
    assert counts.counts == {"0101": 1000}
    assert counts.total_shots == 1000


def test_sample_fair_coin_statistics():
    dist = Distribution(
        index=np.array([0, 1]), probs=np.array([0.5, 0.5]), n_qubits=1
    )
    counts = sample(dist, 10 ** 6, seed=4)
    sigma = 500.0
    assert abs(counts.counts["0"] - 5 * 10 ** 5) < 3 * sigma
    assert abs(counts.counts["1"] - 5 * 10 ** 5) < 3 * sigma


def test_sample_deterministic_per_seed():
    rng = np.random.default_rng(5)
    dist = _random_distribution(rng, 5, 8)
    a = sample(dist, 5000, seed=99)
    b = sample(dist, 5000, seed=99)
    c = sample(dist, 5000, seed=100)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_sample_residual_materializes_unlisted_strings():
    dist = Distribution(index=np.array([0]), probs=np.array([0.5]), n_qubits=2,
                        unlisted_floor=0.5 / 3)
    counts = sample(dist, 20000, seed=6)
    unlisted = {s: c for s, c in counts.counts.items() if s != "00"}
    assert sum(unlisted.values()) > 0
    assert set(unlisted) <= {"10", "01", "11"}


def test_sample_past_the_shot_cap_raises_before_drawing():
    dist = Distribution(index=np.array([0]), probs=np.ones(1), n_qubits=1)
    with pytest.raises(TooLarge):
        sample(dist, sampling.MAX_SHOTS + 1, seed=1)


def test_sample_from_a_floor_that_lists_nothing():
    dist = Distribution(index=np.zeros(0, dtype=np.uint64), probs=np.zeros(0),
                        n_qubits=3, unlisted_floor=1 / 8)
    counts = sample(dist, 4000, seed=9)
    ref = oracles.sample(oracles.Distribution(probs={}, n_qubits=3,
                                              residual_mass=1.0,
                                              unlisted_floor=1 / 8),
                         4000, seed=9)
    assert counts.counts == ref.counts
    assert len(counts.counts) == 8
    assert counts.index.dtype == np.uint64


def test_sample_from_list_inputs():
    # lists convert on construction, so sample reads arrays as with arrays
    dist = Distribution(index=[], probs=[], n_qubits=3, unlisted_floor=1 / 8)
    ref = oracles.sample(oracles.Distribution(probs={}, n_qubits=3,
                                              residual_mass=1.0,
                                              unlisted_floor=1 / 8),
                         4000, seed=9)
    assert sample(dist, 4000, 9).counts == ref.counts


@pytest.mark.parametrize("n_qubits", [4, 20, 40, 62])
def test_uint64_draws_equal_int64_draws(n_qubits):
    # sample draws its unlisted outcomes as uint64; the same generator
    # state gives the same values as the int64 draws it replaced
    def draws(**dtype):
        rng = np.random.Generator(np.random.Philox(7))
        return rng.integers(0, 1 << n_qubits, size=1000, **dtype)

    wide = draws()
    assert wide.dtype == np.int64
    assert draws(dtype=np.uint64).tolist() == wide.tolist()


@pytest.mark.parametrize("n_qubits", [2, 7, 8, 9, 20, 33, 62, 63, 64])
def test_byte_table_order_matches_per_bit_lexsort(n_qubits):
    rng = np.random.default_rng(n_qubits)
    size = min(1 << n_qubits, 500)
    index = np.unique(rng.integers(0, 1 << n_qubits, size=4 * size,
                                   dtype=np.uint64))
    index = rng.permutation(index)[:size]
    shots = rng.integers(1, 4, size=index.size)  # ties on the first key
    for first in ((), (-shots,)):
        expected = oracles.lex_order(index, n_qubits, *first)
        for idx in (index, index.astype(">u8")):
            assert np.array_equal(sampling._lex_order(idx, n_qubits, *first),
                                  expected)


# ------------------------------------------------------------------ readout

def test_readout_zero_eps_unchanged():
    sc = _counts({"0101": 7, "0011": 3}, 4)
    model = NoiseModel()
    out = apply_readout(sc, model, seed=2)
    assert out.counts == sc.counts


def test_readout_eps_one_inverts_every_bit():
    sc = _counts({"0101": 7, "0011": 3}, 4)
    model = NoiseModel(readout_eps0=1.0, readout_eps1=1.0)
    out = apply_readout(sc, model, seed=2)
    assert out.counts == {"1010": 7, "1100": 3}
    assert out.total_shots == 10


def test_readout_flip_statistics():
    shots = 10 ** 6
    sc = _counts({"0": shots}, 1)
    model = NoiseModel(readout_eps0=0.1)
    out = apply_readout(sc, model, seed=7)
    frac = out.counts.get("1", 0) / shots
    sigma = math.sqrt(0.1 * 0.9 / shots)
    assert abs(frac - 0.1) < 3 * sigma


# (eps0, eps1): the pairs test_sampling_reference reads out, the rates
# that leave nothing to chance, and one so small that no bit may flip
FLIP_RATES = [(0.01, 0.01), (0.02, 0.03), (0.04, 0.01), (0.0, 0.05),
              (0.05, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.3),
              (1e-300, 0.0)]
CERTAIN_RATES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1e-300, 0.0)]
FLIP_SHOTS = 40_000  # three readout blocks
FLIP_Z = 5.0  # each bound's two-sided tail is 5.7e-7
READOUT_WIDTHS = [3, 17, 64]


def _alternating(n_qubits):
    """The index with every even qubit 1 and every odd qubit 0."""
    return sum(1 << k for k in range(0, n_qubits, 2))


def _spread_counts(n_qubits):
    """FLIP_SHOTS shots spread over up to 40 random indices."""
    rng = np.random.default_rng(n_qubits)
    index = np.unique(rng.integers(0, 1 << n_qubits, size=40, dtype=np.uint64))
    shots = rng.multinomial(FLIP_SHOTS, np.full(index.size, 1 / index.size))
    return SampleCounts(index, shots, n_qubits)


@pytest.mark.parametrize("readout", [apply_readout, oracles.per_bit_readout],
                         ids=["per-flip", "per-bit"])
@pytest.mark.parametrize("n_qubits", READOUT_WIDTHS)
@pytest.mark.parametrize("rates", FLIP_RATES, ids=lambda r: "%g-%g" % r)
def test_readout_flip_rates_within_binomial_bounds(rates, n_qubits, readout):
    """Every shot reads the alternating index, so each output index tells
    its 0→1 and 1→0 flips; each count must lie within FLIP_Z standard
    deviations of its binomial mean (exactly on it where p is 0 or 1)."""
    read = np.uint64(_alternating(n_qubits))
    ones = (n_qubits + 1) // 2
    sc = SampleCounts([read], [FLIP_SHOTS], n_qubits)
    out = readout(sc, NoiseModel(readout_eps0=rates[0],
                                 readout_eps1=rates[1]), seed=2026)
    assert out.total_shots == FLIP_SHOTS
    up = np.bitwise_count(out.index & ~read).astype(np.int64) @ out.shots
    down = np.bitwise_count(read & ~out.index).astype(np.int64) @ out.shots
    for flips, bits, p in ((up, n_qubits - ones, rates[0]),
                           (down, ones, rates[1])):
        trials = FLIP_SHOTS * bits
        assert abs(flips - trials * p) <= FLIP_Z * math.sqrt(
            trials * p * (1 - p))


@pytest.mark.parametrize("n_qubits", [3, 8, 33, 64])
def test_readout_repeats_per_seed(n_qubits):
    sc = _spread_counts(n_qubits)
    model = NoiseModel(readout_eps0=0.02, readout_eps1=0.03)
    first, again, other = (apply_readout(sc, model, seed=s) for s in (5, 5, 6))
    assert np.array_equal(first.index, again.index)
    assert np.array_equal(first.shots, again.shots)
    assert first.counts != other.counts
    assert first.total_shots == other.total_shots == FLIP_SHOTS


@pytest.mark.parametrize("n_qubits", [3, 8, 33, 64])
@pytest.mark.parametrize("rates", CERTAIN_RATES, ids=lambda r: "%g-%g" % r)
def test_readout_at_certain_rates_matches_per_bit_readout(rates, n_qubits):
    """Where each bit flips always or never, the two random streams agree
    bit for bit, shot by shot across blocks."""
    sc = _spread_counts(n_qubits)
    model = NoiseModel(readout_eps0=rates[0], readout_eps1=rates[1])
    out = apply_readout(sc, model, seed=3)
    ref = oracles.per_bit_readout(sc, model, seed=3)
    assert np.array_equal(out.index, ref.index)
    assert np.array_equal(out.shots, ref.shots)


def test_readout_memory_is_bounded_by_the_block():
    """At eps (1, 1) every (shot, qubit) position is a candidate; a 64-qubit
    register over four blocks must peak under 64 B per position of one
    block.  Drawing all four blocks at once holds about four times that."""
    shots = 4 * sampling.READOUT_BLOCK
    sc = SampleCounts([_alternating(64)], [shots], 64)
    model = NoiseModel(readout_eps0=1.0, readout_eps1=1.0)
    tracemalloc.start()
    try:
        out = apply_readout(sc, model, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.counts == {"01" * 32: shots}
    assert peak < 64 * 64 * sampling.READOUT_BLOCK


def _traced(call):
    """``call()`` and the tracemalloc peak of its allocations."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_at_the_shot_cap_fits_in_two_gib():
    """Every shot a distinct outcome, as on a fully depolarized 64-qubit
    register, is the worst case per shot for ``sample`` and
    ``apply_readout``; measured at 2^18 shots, it must keep a run at
    MAX_SHOTS under 2 GiB."""
    shots = 1 << 18
    dist = Distribution(index=np.zeros(0, dtype=np.uint64), probs=np.zeros(0),
                        n_qubits=64, unlisted_floor=2.0 ** -64)
    model = NoiseModel(readout_eps0=0.01, readout_eps1=0.02)
    drawn, sample_peak = _traced(lambda: sample(dist, shots, seed=5))
    read, readout_peak = _traced(lambda: apply_readout(drawn, model, seed=6))
    for counts, peak in ((drawn, sample_peak), (read, readout_peak)):
        assert counts.index.size > shots - 8  # all but a rare repeat distinct
        assert peak / shots * sampling.MAX_SHOTS < 2 << 30


# ---------------------------------------------------------- symmetry filter

def test_filter_noiseless_usci_keeps_everything():
    table = hubbard_chain_table()
    oracle = fci_oracle(table)
    selected = prescreen(oracle, 0.0, top_m=8)
    circuit = build_usci(selected[0], selected, 4)
    sv = Statevector.from_determinant(selected[0], 4)
    out = apply_circuit(circuit, np.full(circuit.n_params, 0.4), sv)
    counts = sample(ideal_distribution(out), 20000, seed=8)
    filtered, rejected = symmetry_filter(counts, 2, 2)
    assert rejected == 0
    assert filtered.total_shots == 20000


def test_filter_uniform_strings_matches_sector_probability():
    # 20-bit uniform strings against the (5,5) sector
    shots = 10 ** 6
    rng = np.random.Generator(np.random.Philox(42))
    draws = rng.integers(0, 1 << 20, size=shots, dtype=np.uint64)
    alpha = draws & 0x3FF
    beta = draws >> 10
    hits = (np.bitwise_count(alpha) == 5) & (np.bitwise_count(beta) == 5)
    frac = float(np.count_nonzero(hits)) / shots
    p_u = math.comb(10, 5) ** 2 / 2 ** 20
    sigma = math.sqrt(p_u * (1 - p_u) / shots)
    assert abs(frac - p_u) < 3 * sigma
    # and the filter agrees with the popcount tally on a subsample
    sub = 20000
    index, shots_at = np.unique(draws[:sub].astype(np.int64), return_counts=True)
    sc = SampleCounts(index=index, shots=shots_at, n_qubits=20)
    filtered, rejected = symmetry_filter(sc, 5, 5)
    assert filtered.total_shots == int(np.count_nonzero(hits[:sub]))
    assert filtered.total_shots + rejected == sub


def test_filter_rejects_wrong_sector():
    sc = _counts({"0000000000": 5}, 10)
    filtered, rejected = symmetry_filter(sc, 5, 5)
    assert rejected == 5
    assert filtered.counts == {}


def test_filter_rejects_an_odd_register():
    # split at n_qubits // 2, 0b101 and 0b011 would both read as sector (1, 1)
    sc = SampleCounts(index=[0b101, 0b011], shots=[1, 1], n_qubits=3)
    with pytest.raises(ValueError, match="3-qubit register has no alpha"):
        symmetry_filter(sc, 1, 1)


def test_counts_to_determinants_ordering():
    sc = _counts({"1010": 5, "0110": 9, "0101": 5}, 4)
    dets = counts_to_determinants(sc, 2)
    assert dets == [Determinant(0b10, 0b01), Determinant(0b10, 0b10),
                    Determinant(0b01, 0b01)]  # 0110, 0101, 1010


def test_counts_to_determinants_rejects_a_register_mismatch():
    sc = _counts({"0110": 1}, 4)
    with pytest.raises(ValueError, match="4-qubit counts"):
        counts_to_determinants(sc, 3)


# ------------------------------------------------------- basis-index arrays

@pytest.mark.parametrize("index", [[5, 3], np.array([5, 3]),
                                   np.array([5, 3], dtype=">u8")],
                         ids=["list", "int64", "big-endian"])
def test_containers_hold_native_uint64_indices(index):
    sc = SampleCounts(index=index, shots=np.array([1, 2]), n_qubits=4)
    dist = Distribution(index=index, probs=np.array([0.5, 0.5]), n_qubits=4)
    for held in (sc.index, dist.index):
        assert held.dtype == np.dtype(np.uint64)
        assert held.tolist() == [5, 3]
    assert sc.top(2) == [("1100", 2), ("1010", 1)]
    assert sample(dist, 10, seed=1).index.dtype == np.uint64


@pytest.mark.parametrize("index", [[-1, 3], np.array([-1, 3]), [17]],
                         ids=["negative", "negative-int64", "past-the-register"])
def test_containers_reject_indices_outside_the_register(index):
    with pytest.raises(ValueError, match="outside the 4-qubit register"):
        SampleCounts(index=index, shots=np.ones(len(index), dtype=int),
                     n_qubits=4)
    with pytest.raises(ValueError, match="outside the 4-qubit register"):
        Distribution(index=index, probs=np.ones(len(index)) / 2, n_qubits=4)


def test_containers_convert_list_values():
    sc = SampleCounts(index=[5, 3], shots=[1, 2], n_qubits=4)
    dist = Distribution(index=[5, 3], probs=[0.25, 0.75], n_qubits=4)
    assert sc.shots.dtype == np.int64 and dist.probs.dtype == np.float64
    assert sc.total_shots == 3 and sc.top(1) == [("1100", 2)]
    assert oracles.distribution_total(dist) == 1.0


@pytest.mark.parametrize("index,values", [([1, 2], [1]), ([1], [1, 2]),
                                          ([], [1]), ([1, 2], [[1, 2]])],
                         ids=["short", "long", "empty-index", "2-d"])
def test_containers_need_one_value_per_index(index, values):
    with pytest.raises(ValueError, match="one value per listed basis index"):
        SampleCounts(index=index, shots=values, n_qubits=4)
    with pytest.raises(ValueError, match="one value per listed basis index"):
        Distribution(index=index, probs=values, n_qubits=4)


@pytest.mark.parametrize("index", [[1, 1], [3, 1, 2, 1], [0, 2, 2]])
def test_containers_reject_a_repeated_index(index):
    # unchecked, index [1, 1] with shots [2, 3] would read {"10": 3}
    values = np.ones(len(index), dtype=int)
    with pytest.raises(ValueError, match="must be distinct"):
        SampleCounts(index=index, shots=values, n_qubits=2)
    with pytest.raises(ValueError, match="must be distinct"):
        Distribution(index=index, probs=values / len(index), n_qubits=2)


def test_sample_counts_reject_negative_shots():
    with pytest.raises(ValueError, match="shot counts must be nonnegative"):
        SampleCounts(index=np.array([1, 2], np.uint64), shots=[-3, 5],
                     n_qubits=4)
    sc = SampleCounts(index=[1, 2], shots=[0, 5], n_qubits=4)
    assert sc.total_shots == 5


@pytest.mark.parametrize("build", [
    lambda: Statevector(amps=[1.0], n_qubits=66, index=[3]),
    lambda: Distribution(index=[1], probs=[1.0], n_qubits=70),
    lambda: SampleCounts(index=[1], shots=[4], n_qubits=65),
], ids=["statevector", "distribution", "sample-counts"])
def test_containers_reject_registers_past_64_qubits(build):
    with pytest.raises(TooManyQubits, match="64-qubit limit"):
        build()
