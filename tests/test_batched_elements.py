"""The batched matrix-element kernel against the scalar per-pair rules in
``oracles.slater_condon``.

Every path that runs on the kernel (subspace build, connected set, coupling
scores, EN-PT2, the public per-pair ``slater_condon``) is compared with a
loop over the oracle written the way those functions were before the
kernel replaced it.  The last section pins the (N, 2) uint64 mask-row form
of determinant sets against the Determinant-list form.
"""

import numpy as np
import pytest
import scipy.sparse

import helpers
from oracles import slater_condon as scalar_element
from qselci.dets import (Determinant, det_masks, determinants,
                         enumerate_space, excitation_rank, sector_masks)
from qselci.errors import DuplicateDeterminant
from qselci.expansion import (
    DENOMINATOR_TOL,
    connected_set,
    en_pt2,
    expand_and_rediagonalize,
    score_candidates,
)
from qselci.fcidump import IntegralTable
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import (
    Wavefunction,
    build_subspace,
    coupling_elements,
    davidson_lowest,
    dense_lowest,
    diagonal_elements,
    fci_oracle,
    slater_condon,
)

ELEMENT_TOL = 1e-12
WIDE = 34  # orbitals, so masks and phases cross bit 32


def _wide_table(seed=11):
    """A seeded sparse random table on WIDE orbitals: a dense symmetric
    one-electron matrix and 3,000 random two-electron classes."""
    rng = np.random.default_rng(seed)
    table = IntegralTable(n_orbitals=WIDE, n_electrons=3, ms2=1)
    h = rng.normal(size=(WIDE, WIDE))
    table.h = (h + h.T) / 2
    for _ in range(3000):
        idx = [int(i) for i in rng.integers(0, WIDE, size=4)]
        if table.get_g(*idx) == 0.0:
            table.set_g(*idx, float(rng.normal() * 0.5))
    return table


def _wide_dets():
    """Determinants of the (2, 1) sector on WIDE orbitals around a reference
    that occupies orbitals above 32 in both channels."""
    ref = Determinant(alpha=(1 << 0) | (1 << 33), beta=1 << 32)
    space = enumerate_space(WIDE, 2, 1)
    near = [d for d in space if excitation_rank(ref, d) <= 2]
    rng = np.random.default_rng(3)
    picked = rng.choice(len(near), size=60, replace=False)
    return [ref] + [near[int(i)] for i in picked if near[int(i)] != ref]


def _shuffled(dets, seed):
    dets = list(dets)
    np.random.default_rng(seed).shuffle(dets)
    return dets


CASES = {
    "hubbard6": lambda: (
        hubbard_chain_table(6),
        _shuffled(enumerate_space(6, 3, 3), 1),
    ),
    "dense5": lambda: (
        helpers.random_table(5, 4, seed=21),
        _shuffled(enumerate_space(5, 2, 2), 2),
    ),
    "open-shell6": lambda: (
        helpers.random_table(6, 5, ms2=3, seed=22),
        _shuffled(enumerate_space(6, 4, 1), 3),
    ),
    "wide34": lambda: (_wide_table(), _wide_dets()),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def _scalar_subspace(dets, table):
    n = len(dets)
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            v = scalar_element(dets[i], dets[j], table)
            if v != 0.0 or i == j:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _psi(table, dets, size=12):
    sub = build_subspace(dets[:size], table)
    return dense_lowest(sub)


# -------------------------------------------------------------- elements

def test_subspace_matches_scalar_elements(case):
    table, dets = case
    got = build_subspace(dets, table).matrix
    expect = _scalar_subspace(dets, table)
    assert got.nnz == expect.nnz
    assert np.array_equal(got.indptr, expect.indptr)
    assert np.array_equal(got.indices, expect.indices)
    assert np.max(np.abs(got.data - expect.data)) <= ELEMENT_TOL
    # summed in the scalar code's order, so the floats are the same
    assert np.array_equal(got.data, expect.data)


def test_coupling_elements_match_scalar_between_lists(case):
    table, dets = case
    bras, kets = dets[: len(dets) // 2], dets[len(dets) // 2:]
    i, j, v = coupling_elements(*det_masks(bras).T, *det_masks(kets).T,
                                table.h, table.dense_g())
    got = {(int(a), int(b)): float(x) for a, b, x in zip(i, j, v)}
    expect = {
        (a, b): scalar_element(bra, ket, table)
        for a, bra in enumerate(bras)
        for b, ket in enumerate(kets)
        if scalar_element(bra, ket, table) != 0.0
    }
    assert got.keys() == expect.keys()
    for key, value in expect.items():
        assert abs(got[key] - value) <= ELEMENT_TOL
    order = np.lexsort((j, i))
    assert np.array_equal(order, np.arange(len(i)))


def test_diagonal_elements_match_scalar(case):
    table, dets = case
    got = diagonal_elements(*det_masks(dets).T, table.h, table.dense_g())
    expect = [scalar_element(d, d, table) for d in dets]
    assert np.max(np.abs(got - expect)) <= ELEMENT_TOL


def _pin_pairs(dets, seed, size=500):
    """About ``size`` seeded (bra, ket) pairs spread evenly over every
    excitation rank the list holds, and over pairs whose ket has one beta
    electron more or less (another sector)."""
    rng = np.random.default_rng(seed)
    alpha, beta = det_masks(dets).T
    rank = (np.bitwise_count(alpha[:, None] ^ alpha)
            + np.bitwise_count(beta[:, None] ^ beta)) // 2
    strata = [np.argwhere(rank == r) for r in range(int(rank.max()) + 1)]
    per = size // (len(strata) + 1)
    pairs = [(dets[i], dets[j]) for stratum in strata
             for i, j in stratum[rng.permutation(len(stratum))[:per]]]
    for i, j in rng.integers(0, len(dets), size=(per, 2)):
        ket = dets[j]
        pairs.append((dets[i], Determinant(ket.alpha, ket.beta ^ 1)))
    return pairs


def test_public_slater_condon_is_bitwise_the_scalar_rules(case):
    table, dets = case
    pairs = _pin_pairs(dets, seed=table.n_orbitals)
    ranks = {excitation_rank(bra, ket) for bra, ket in pairs}
    assert {0, 1, 2, 3} <= ranks
    for bra, ket in pairs:
        got = slater_condon(bra, ket, table)
        assert got == scalar_element(bra, ket, table)
        if (bra.n_beta != ket.n_beta or bra.n_alpha != ket.n_alpha
                or excitation_rank(bra, ket) > 2):
            assert got == 0.0


def test_mixed_sector_pairs_are_skipped():
    table = helpers.random_table(4, 4, seed=23)
    dets = [Determinant(0b0011, 0b0011), Determinant(0b0111, 0b0001),
            Determinant(0b0101, 0b0011), Determinant(0b0011, 0b0111)]
    got = build_subspace(dets, table).matrix
    expect = _scalar_subspace(dets, table)
    assert got.nnz == expect.nnz
    assert np.max(np.abs(got.toarray() - expect.toarray())) <= ELEMENT_TOL


# ------------------------------------------------ expansion and PT2 (scalar)

def _scalar_connected_set(psi, table):
    """Out-of-set determinants of psi's sector within a double substitution
    of psi's set and coupled to it, by enumeration and the scalar rules."""
    d0 = psi.dets[0]
    inside = set(psi.dets)
    out = []
    for mu in enumerate_space(table.n_orbitals, d0.n_alpha, d0.n_beta):
        if mu in inside:
            continue
        if any(excitation_rank(mu, d) <= 2 and scalar_element(mu, d, table) != 0.0
               for d in psi.dets):
            out.append(mu)
    return out


def _scalar_scores(psi, candidates, table):
    scored = []
    for mu in candidates:
        s = sum(abs(scalar_element(mu, d, table) * c)
                for d, c in zip(psi.dets, psi.coeffs))
        scored.append((mu, s))
    scored.sort(key=lambda t: (-t[1], t[0].alpha, t[0].beta))
    return scored


def _scalar_pt2(psi, candidates, table):
    delta, skipped = 0.0, 0
    for mu in candidates:
        numerator = sum(scalar_element(mu, d, table) * c
                        for d, c in zip(psi.dets, psi.coeffs))
        denom = scalar_element(mu, mu, table) + table.core_energy - psi.energy
        if abs(denom) < DENOMINATOR_TOL:
            skipped += 1
            continue
        delta -= numerator * numerator / denom
    return delta, skipped


def test_connected_set_scores_and_pt2_match_scalar(case):
    table, dets = case
    psi = _psi(table, dets, size=4 if table.n_orbitals == WIDE else 12)
    candidates = connected_set(psi, table)
    assert candidates == _scalar_connected_set(psi, table)

    scored = score_candidates(psi, candidates, table)
    expect = _scalar_scores(psi, candidates, table)
    assert [mu for mu, _ in scored] == [mu for mu, _ in expect]
    assert np.allclose([s for _, s in scored], [s for _, s in expect],
                       rtol=0, atol=ELEMENT_TOL)

    result = en_pt2(psi, table)
    delta, skipped = _scalar_pt2(psi, candidates, table)
    assert result.n_external == len(candidates)
    assert result.n_skipped == skipped
    assert result.delta_e == pytest.approx(delta, rel=ELEMENT_TOL, abs=ELEMENT_TOL)


def test_expansion_adds_the_scalar_top_scores(case):
    table, dets = case
    psi = davidson_lowest(build_subspace(dets[:6], table))
    step = expand_and_rediagonalize(psi, table, 0.0, top_k=5)
    expect = _scalar_scores(psi, _scalar_connected_set(psi, table), table)[:5]
    assert step.added == [mu for mu, _ in expect]
    assert np.allclose(step.scores, [s for _, s in expect], rtol=0,
                       atol=ELEMENT_TOL)


# -------------------------------------------------------------- mask rows

def test_subspace_from_mask_rows_is_bitwise_the_list_build(case):
    table, dets = case
    from_list = build_subspace(dets, table)
    from_masks = build_subspace(det_masks(dets), table)
    assert np.array_equal(from_masks.masks, from_list.masks)
    assert from_masks.masks.dtype == np.uint64
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(from_masks.matrix, name),
                              getattr(from_list.matrix, name))


def test_masks_apart_past_bit_31_are_not_duplicates():
    # alpha | beta << 34 would map both onto one 64-bit key
    dets = [Determinant(1, 1 << 31), Determinant(1, 1 << 32)]
    assert build_subspace(dets, _wide_table()).dim == 2


def test_repeated_mask_rows_are_duplicates():
    masks = np.array([[3, 5], [5, 3], [3, 6], [5, 3]], dtype=np.uint64)
    with pytest.raises(DuplicateDeterminant, match="alpha=5, beta=3"):
        build_subspace(masks, helpers.random_table(4, 4, seed=23))


def test_json_round_trip_keeps_mask_rows():
    dets = _wide_dets()[:5]
    coeffs = np.linspace(1.0, 2.0, len(dets))
    psi = Wavefunction(masks=det_masks(dets), coeffs=coeffs / np.linalg.norm(coeffs),
                       energy=-1.5, n_orbitals=WIDE)
    back = Wavefunction.from_json(psi.to_json())
    order = np.argsort([d.to_bitstring(WIDE) for d in dets])  # file order
    assert back.masks.dtype == np.uint64
    assert np.array_equal(back.masks, psi.masks[order])
    assert np.array_equal(back.coeffs, psi.coeffs[order])


def test_mask_row_paths_build_no_determinant(monkeypatch):
    table = hubbard_chain_table(6)
    masks = sector_masks(6, 3, 3)[::3]
    expect = en_pt2(dense_lowest(build_subspace(determinants(masks), table)),
                    table)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a Determinant was built")

    monkeypatch.setattr(Determinant, "__init__", refuse)
    with pytest.raises(AssertionError):
        Determinant(1, 1)
    psi = dense_lowest(build_subspace(masks, table))
    assert en_pt2(psi, table) == expect
    assert fci_oracle(table).energy < psi.energy


def test_each_computation_unfolds_g_once(monkeypatch):
    table = hubbard_chain_table(6)
    psi = _psi(table, _shuffled(enumerate_space(6, 3, 3), 4))
    calls = []
    unfold = IntegralTable.dense_g

    def counted(self):
        calls.append(self)
        return unfold(self)

    monkeypatch.setattr(IntegralTable, "dense_g", counted)
    build_subspace(psi.masks, table)
    assert len(calls) == 1
    en_pt2(psi, table)
    assert len(calls) == 2
