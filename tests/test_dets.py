import math
from itertools import combinations

import numpy as np
import pytest

from qselci.dets import (
    Determinant,
    ExcitationOp,
    det_masks,
    enumerate_space,
    excitation_rank,
    hartree_fock,
    rank_order,
    sector_masks,
    string_sign,
)
from qselci.errors import TooLarge

import oracles
from oracles import full_excitation


def test_enumerate_counts_small():
    for n, na, nb in [(2, 1, 1), (4, 2, 2), (5, 3, 2), (6, 3, 3)]:
        dets = enumerate_space(n, na, nb)
        assert len(dets) == math.comb(n, na) * math.comb(n, nb)
        assert len(set(dets)) == len(dets)
        for d in dets:
            assert d.n_alpha == na and d.n_beta == nb


def test_enumerate_count_10_5_5():
    dets = enumerate_space(10, 5, 5)
    assert len(dets) == 63504


def test_enumerate_order_is_ascending_mask_pairs():
    dets = enumerate_space(4, 2, 1)
    pairs = [(d.alpha, d.beta) for d in dets]
    assert pairs == sorted(pairs)
    assert pairs == oracles.brute_force_sector(4, 2, 1)


def test_enumerate_cap():
    with pytest.raises(TooLarge):
        sector_masks(10, 5, 5, cap=10**4)


def test_det_masks_passes_uint64_rows_through():
    rows = np.array([[3, 5], [6, 3]], np.uint64)
    assert det_masks(rows) is rows


def test_rank_order_ties_weights_that_differ_in_the_last_bits():
    rows = np.array([[6, 3], [5, 3], [3, 5], [3, 3]], np.uint64)
    near = 0.3 + np.array([2e-16, 0.0, -3e-14, 1e-11])
    # 1e-11 above the rest ranks first; the three near-equal weights rank
    # by ascending (alpha, beta)
    assert rank_order(rows, near).tolist() == [3, 2, 1, 0]
    assert rank_order(rows, -near).tolist() == [2, 1, 0, 3]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_det_masks_converts_integer_rows(dtype):
    got = det_masks(np.array([[3, 5], [6, 3]], dtype))
    assert got.dtype == np.uint64
    assert np.array_equal(got, det_masks([Determinant(3, 5), Determinant(6, 3)]))


def test_det_masks_converts_a_list_of_integer_rows():
    got = det_masks([[3, 5], [6, 3]])
    assert got.dtype == np.uint64
    assert got.tolist() == [[3, 5], [6, 3]]
    assert det_masks([]).shape == (0, 2)
    # exact integers: np.asarray once made [[2**63, 3]] float64 and
    # [[2**64, 3]] object
    got = det_masks([[2**63, 3]])
    assert got.dtype == np.uint64 and got.tolist() == [[2**63, 3]]
    with pytest.raises(TooLarge, match="64-orbital"):
        det_masks([[2**64, 3]])
    for rows in ([[1, -1]], [[3, 5, 6]], [[1.5, 2]], [[2.0, 3]],
                 [[True, False]]):
        with pytest.raises(ValueError, match=r"\(N, 2\) array of nonnegative"):
            det_masks(rows)


def test_determinant_compares_hashes_and_sorts_as_its_pair():
    pairs = [(6, 3), (1, 5), (3, 3), (1, 3), (6, 3)]
    dets = [Determinant(a, b) for a, b in pairs]
    assert dets == pairs and sorted(dets) == sorted(pairs)
    assert list(map(hash, dets)) == list(map(hash, pairs))
    assert len(set(dets)) == len(set(pairs)) == 4
    assert repr(Determinant(1, 3)) == "Determinant(alpha=1, beta=3)"


def test_det_masks_takes_a_determinant_as_its_integer_row():
    assert np.array_equal(det_masks([Determinant(2**63, 3)]),
                          det_masks([[2**63, 3]]))
    with pytest.raises(TooLarge, match="64-orbital"):
        det_masks([Determinant(2**64, 0)])


@pytest.mark.parametrize("rows", [
    np.array([[3, -5]]),
    np.array([[3.0, 5.0]]),
    np.array([[True, False]]),
    np.array([3, 5], np.uint64),
    np.array([[3, 5, 6]], np.uint64),
], ids=["negative", "float", "bool", "one-row-1d", "three-columns"])
def test_det_masks_rejects_other_arrays(rows):
    with pytest.raises(ValueError, match=r"\(N, 2\) array of nonnegative"):
        det_masks(rows)


def test_hartree_fock_reference():
    hf = hartree_fock(4, 2, 2)
    assert hf == Determinant(alpha=0b0011, beta=0b0011)
    with pytest.raises(ValueError):
        hartree_fock(2, 3, 1)


def test_bitstring_layout():
    # alpha block first, orbital 0 leftmost
    d = Determinant(alpha=0b001, beta=0b100)
    assert d.to_bitstring(3) == "100001"
    assert Determinant.from_bitstring("100001") == d
    assert d.to_index(3) == 0b100001
    assert Determinant.from_index(0b100001, 3) == d


def test_bitstring_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        idx = int(rng.integers(0, 1 << (2 * n)))
        d = Determinant.from_index(idx, n)
        assert Determinant.from_bitstring(d.to_bitstring(n)) == d
        assert d.to_index(n) == idx
    with pytest.raises(ValueError):
        Determinant.from_bitstring("10a0")


def _rank_oracle(d1, d2):
    """Set-difference count, written independently of the XOR formula."""
    def occupied(mask):
        return {p for p in range(mask.bit_length()) if (mask >> p) & 1}

    a1, a2 = occupied(d1.alpha), occupied(d2.alpha)
    b1, b2 = occupied(d1.beta), occupied(d2.beta)
    return len(a1 - a2) + len(b1 - b2)


def test_rank_matches_set_difference_oracle():
    rng = np.random.default_rng(11)
    dets = enumerate_space(6, 3, 2)
    for _ in range(500):
        i, j = rng.integers(0, len(dets), size=2)
        assert excitation_rank(dets[i], dets[j]) == _rank_oracle(dets[i], dets[j])


def test_excitation_between_phase_example():
    # single alpha 0 -> 2 with orbitals {0, 1} occupied picks up one crossing
    src = Determinant(alpha=0b011, beta=0)
    tgt = Determinant(alpha=0b110, beta=0)
    op = full_excitation(src, tgt, 3)
    assert op.annihilated == (0,) and op.created == (2,)
    assert op.phase == -1


def test_excitation_apply_roundtrip():
    rng = np.random.default_rng(5)
    dets = enumerate_space(5, 3, 2)
    for _ in range(400):
        i, j = rng.integers(0, len(dets), size=2)
        src, tgt = dets[i], dets[j]
        r = excitation_rank(src, tgt)
        if r == 0 or r > 2:
            continue
        op = full_excitation(src, tgt, 5)
        got, sign = oracles.apply_excitation(op, src)
        assert got == tgt and sign == 1


def test_phase_against_dense_operator_oracle():
    # phase * (dense operator string) must map |src> to exactly +|tgt>
    n = 3
    dets = enumerate_space(n, 2, 1)
    nso = 2 * n
    cre = [oracles.creation_matrix(s, nso) for s in range(nso)]
    for src in dets:
        for tgt in dets:
            r = excitation_rank(src, tgt)
            if r == 0 or r > 2:
                continue
            op = full_excitation(src, tgt, n)
            bare = np.eye(1 << nso)
            for s in op.annihilated:
                bare = cre[s].T @ bare
            for s in op.created:
                bare = cre[s] @ bare
            vec = np.zeros(1 << nso)
            vec[src.to_index(n)] = 1.0
            out = op.phase * (bare @ vec)
            expect = np.zeros(1 << nso)
            expect[tgt.to_index(n)] = 1.0
            assert np.array_equal(out, expect)


def test_apply_to_destroys_invalid_targets():
    op = ExcitationOp(n_orbitals=3, annihilated=(0,), created=(2,), phase=1)
    # annihilating an empty orbital
    assert oracles.apply_excitation(op, Determinant(alpha=0b110, beta=0)) is None
    # creating onto an occupied orbital
    assert oracles.apply_excitation(op, Determinant(alpha=0b101, beta=0)) is None


def test_repeated_orbital_is_rejected():
    # the last string is not repeated but unbalanced: it creates an electron
    for annihilated, created in [
        ((0, 0), (1, 2)), ((0,), (1, 1)), ((0,), (0,)), ((0,), (1, 2)),
    ]:
        with pytest.raises(ValueError):
            ExcitationOp(n_orbitals=3, annihilated=annihilated,
                         created=created, phase=1)


def _strings(n_spin_orbitals):
    """Every string of up to two annihilations, then up to two creations on
    other spin orbitals, each group in ascending and in descending order."""
    orbitals = range(n_spin_orbitals)
    for n_ann in range(3):
        for ann in combinations(orbitals, n_ann):
            rest = [k for k in orbitals if k not in ann]
            for n_cre in range(3):
                for cre in combinations(rest, n_cre):
                    yield ann, cre
                    if n_ann == 2 or n_cre == 2:
                        yield ann[::-1], cre[::-1]


def test_string_sign_matches_dense_operator_oracle():
    nso = 6
    cre_ops = [oracles.creation_matrix(s, nso) for s in range(nso)]
    occupations = np.arange(1 << nso, dtype=np.uint64)
    for ann, cre in _strings(nso):
        string = np.eye(1 << nso)
        for s in ann:
            string = cre_ops[s].T @ string
        for s in cre:
            string = cre_ops[s] @ string
        alive = np.flatnonzero(np.abs(string).sum(axis=0))
        vector_signs = string_sign(occupations, ann, cre)
        for x in alive.tolist():
            target = x ^ sum(1 << s for s in ann + cre)
            expect = string[target, x]
            assert string_sign(x, ann, cre) == expect
            assert vector_signs[x] == expect


def _loop_sign(x, annihilated, created):
    """The sign applied one operator at a time: each crosses the occupied
    spin orbitals below it on the string as it stands."""
    sign = 1
    for k in (*annihilated, *created):
        if bin(x & ((1 << k) - 1)).count("1") % 2:
            sign = -sign
        x ^= 1 << k
    return sign


def _random_string(rng, x, width, n_ann, n_cre):
    occupied = [k for k in range(width) if (x >> k) & 1]
    empty = [k for k in range(width) if not (x >> k) & 1]
    ann = rng.choice(occupied, size=n_ann, replace=False).tolist()
    cre = rng.choice(empty, size=n_cre, replace=False).tolist()
    return tuple(ann), tuple(cre)


@pytest.mark.parametrize("n_ann, n_cre", [(1, 1), (2, 2), (2, 1), (0, 2)])
def test_string_sign_matches_operator_loop(n_ann, n_cre):
    rng = np.random.default_rng(17 + 10 * n_ann + n_cre)
    for width in (65, 100, 200):  # Python ints wider than 64 bits
        for _ in range(100):
            x = int.from_bytes(rng.bytes(width // 8 + 1), "little")
            x &= (1 << width) - 1
            ann, cre = _random_string(rng, x, width, n_ann, n_cre)
            assert string_sign(x, ann, cre) == _loop_sign(x, ann, cre)
    # uint64 arrays with orbitals per element, bit 63 included
    xs = [int.from_bytes(rng.bytes(8), "little") for _ in range(400)]
    strings = [_random_string(rng, x, 64, n_ann, n_cre) for x in xs]
    ann = [np.array([a[k] for a, _ in strings], dtype=np.intp)
           for k in range(n_ann)]
    cre = [np.array([c[k] for _, c in strings], dtype=np.intp)
           for k in range(n_cre)]
    got = string_sign(np.array(xs, dtype=np.uint64), ann, cre)
    assert got.tolist() == [_loop_sign(x, *s) for x, s in zip(xs, strings)]
