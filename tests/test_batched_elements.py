"""The batched matrix-element kernel against the scalar per-pair rules in
``oracles.slater_condon``.

Every path that runs on the kernel (subspace build, connected set, coupling
scores, EN-PT2, the public per-pair ``slater_condon``) is compared with a
loop over the oracle written the way those functions were before the
kernel replaced it.  The generated expansion pool and its pairs are pinned
byte for byte against the set-of-tuples pool and the screened coupling
they replaced, the coupling scores against the scores from the screen,
and the generated subspace build against the build from every screened
pair, on tables with one nonzero integral class each so that every term
of the zero screen is exercised.  The last section pins the (N, 2) uint64
mask-row form of determinant sets against the Determinant-list form, and
refuses rows past a table's orbitals.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import helpers
import oracles
from oracles import slater_condon as scalar_element
from qselci import expansion, hamiltonian, substitutions
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
from qselci.fixtures import FIXTURES, h_chain_synthetic_table, hubbard_chain_table
from qselci.hamiltonian import (
    Wavefunction,
    build_subspace,
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
    i, j, v = oracles.coupling_elements(*det_masks(bras).T,
                                        *det_masks(kets).T, table.h,
                                        table.dense_g())
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


def _built(masks, table, generate):
    """``build_subspace`` made to take the generated pairs (``generate``
    true) or to screen every pair."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamiltonian, "_generate", lambda *_: generate)
        return build_subspace(masks, table)


def _csr_bytes(matrix):
    return [a.tobytes() for a in (matrix.data, matrix.indices, matrix.indptr)]


def _kernel_bytes(table, dets):
    """The bytes of every coupling array of the list against itself, of the
    CSR arrays of its generated and its screened build, and of everything
    an expansion step and EN-PT2 return from a state on the first 12
    determinants (2 on the wide table)."""
    masks = det_masks(dets)
    alpha, beta = masks.T
    h, g = table.h, table.dense_g()
    pairs = oracles.coupling_elements(alpha, beta, alpha, beta, h, g)
    builds = [_built(masks, table, generate).matrix
              for generate in (True, False)]
    psi = _psi(table, dets, size=2 if table.n_orbitals == WIDE else 12)
    step = expand_and_rediagonalize(psi, table, 0.0, top_k=5)
    grown = step.wavefunction_after
    pt2 = en_pt2(psi, table)
    return [a.tobytes() for a in pairs] + [
        b for m in builds for b in _csr_bytes(m)] + [
        det_masks(step.added).tobytes(), np.array(step.scores).tobytes(),
        grown.masks.tobytes(), grown.coeffs.tobytes(),
        repr((step.energy_after, pt2.delta_e, pt2.n_external,
              pt2.n_skipped)).encode()]


@pytest.mark.parametrize("block", [1, 7, 100, hamiltonian.PAIR_BLOCK])
def test_pair_block_leaves_no_trace_in_the_output(case, block, monkeypatch):
    # the screening passes, the runs of members whose substitutions are
    # generated, the evaluated batches of screened and of generated pairs,
    # and the diagonal's blocks all follow PAIR_BLOCK, and the runs of
    # strings whose moves are screened follow MOVE_BLOCK, so setting both
    # moves every batch boundary
    table, dets = case
    expect = _kernel_bytes(table, dets)
    monkeypatch.setattr(hamiltonian, "PAIR_BLOCK", block)
    monkeypatch.setattr(substitutions, "MOVE_BLOCK", block)
    assert _kernel_bytes(table, dets) == expect


def test_pair_elements_streams_blocks_of_pair_block(monkeypatch):
    # blocks of 30, 30, 250, 5, 0 and 120 pairs are evaluated as 100, 100,
    # 100, 100 and 35, each as soon as its pairs have arrived, and the
    # output is that of one block
    table, dets = CASES["hubbard6"]()
    alpha, beta = det_masks(dets).T
    i, j = np.nonzero(np.triu(np.ones((len(dets),) * 2, bool), 1))
    near = np.bitwise_count(alpha[i] ^ alpha[j]) + np.bitwise_count(
        beta[i] ^ beta[j]) <= 4
    i, j = i[near][:435], j[near][:435]
    assert len(i) == 435
    cuts = np.cumsum([0, 30, 30, 250, 5, 0, 120])
    events = []

    def stream():
        for lo, hi in zip(cuts, cuts[1:]):
            events.append(("block", int(hi - lo)))
            yield i[lo:hi], j[lo:hi]

    values = hamiltonian._pair_values

    def counted(ya, yb, xa, xb, h, g):
        events.append(("evaluated", len(xa)))
        return values(ya, yb, xa, xb, h, g)

    h, g = table.h, table.dense_g()
    expect = hamiltonian.pair_elements([(i, j)], alpha, beta, alpha, beta, h, g)
    monkeypatch.setattr(hamiltonian, "PAIR_BLOCK", 100)
    monkeypatch.setattr(hamiltonian, "_pair_values", counted)
    got = hamiltonian.pair_elements(stream(), alpha, beta, alpha, beta, h, g)
    assert events == [("block", 30), ("block", 30), ("block", 250),
                      ("evaluated", 100), ("evaluated", 100),
                      ("evaluated", 100), ("block", 5), ("block", 0),
                      ("block", 120), ("evaluated", 100), ("evaluated", 35)]
    assert _arrays(got) == _arrays(expect)
    # a lone long block is sliced, not copied
    assert np.shares_memory(next(hamiltonian._blocks([(i, j)]))[0], i)


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


# ------------------------------------------ coupling scores, the screen

def _scored_bytes(scored):
    return (det_masks([mu for mu, _ in scored]).tobytes(),
            np.array([score for _, score in scored], dtype=float).tobytes())


def _assert_scores_are_screened(psi, candidates, table):
    """``score_candidates`` equals ``oracles.screened_scores`` in the
    bytes of its determinants and its scores; returns it."""
    got = score_candidates(psi, candidates, table)
    assert _scored_bytes(got) == _scored_bytes(
        oracles.screened_scores(psi, candidates, table))
    return got


def _other_sector(dets):
    """Each determinant with beta orbital 0 flipped: one beta electron more
    or fewer."""
    return [Determinant(d.alpha, d.beta ^ 1) for d in dets]


def test_scores_are_bitwise_the_screen(case):
    # the connected set, with the listed determinants that do not couple,
    # and those alone; then five in another sector and an empty list
    table, dets = case
    for size in (3, 9, 20):
        psi = _psi(table, dets, size)
        connected = connected_set(psi, table)
        outside = set(psi.dets) | set(connected)
        silent = [d for d in dets if d not in outside][:5]
        for candidates in (connected, connected + silent, silent,
                           _other_sector(connected[:5]), []):
            scored = _assert_scores_are_screened(
                psi, _shuffled(candidates, size), table)
            assert all(score == 0.0 for mu, score in scored
                       if mu not in connected)


def test_scores_with_an_empty_pool_are_the_screen():
    # psi over the whole hubbard4 sector: nothing in its sector lies outside
    table = hubbard_chain_table(4)
    psi = dense_lowest(build_subspace(sector_masks(4, 2, 2), table))
    assert connected_set(psi, table) == []
    for candidates in ([], _other_sector(psi.dets[:5])):
        scored = _assert_scores_are_screened(psi, candidates, table)
        assert [score for _, score in scored] == [0.0] * len(candidates)


def test_scoring_a_member_of_the_set_is_refused(case):
    table, dets = case
    psi = _psi(table, dets, size=9)
    inside = psi.dets[4]
    candidates = connected_set(psi, table)[:3] + [inside]
    with pytest.raises(ValueError, match=re.escape(f"{inside} lies in")):
        score_candidates(psi, candidates, table)


# ----------------------------------------- generated pool and its pairs

def _arrays(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _assert_generated_is_screened(psi, table):
    """``expansion._connected_coupling`` equals the set-of-tuples pool with
    its screened coupling in every byte, dtype and shape; returns it."""
    h, g = table.h, table.dense_g()
    got = expansion._connected_coupling(psi, h, g)
    assert _arrays(got) == _arrays(
        oracles.screened_connected_coupling(psi, h, g))
    return got


def test_generated_coupling_is_bitwise_the_screened_pool(case):
    # one determinant, twelve, and every listed one: the whole sector on
    # all tables but wide34, so the pool is empty there
    table, dets = case
    whole_sector = table.n_orbitals != WIDE
    for size in (1, 12, len(dets)):
        candidates = _assert_generated_is_screened(
            _psi(table, dets, size), table)[0]
        assert (len(candidates) == 0) == (whole_sector and size == len(dets))


def test_generated_coupling_is_bitwise_the_screened_pool_on_refine_dense8(
        monkeypatch):
    monkeypatch.syspath_prepend(str(helpers.ROOT / "benchmarks"))
    from workloads import RefineDense8

    for seed in (1, 2):
        workload = RefineDense8(helpers.ROOT, None)
        workload.setup(seed)
        for psi in workload.starts:
            _assert_generated_is_screened(psi, workload.table)


def test_generated_coupling_is_bitwise_the_screened_pool_across_sectors():
    # three sectors of six orbitals, and the (6, 0) determinant, which has
    # no substitution at all
    table = helpers.random_table(6, 6, seed=5)
    masks = np.concatenate([sector_masks(6, 3, 3)[::40],
                            sector_masks(6, 4, 2)[::30],
                            sector_masks(6, 2, 4)[::25],
                            sector_masks(6, 6, 0)])
    coeffs = np.random.default_rng(1).normal(size=len(masks))
    psi = Wavefunction(masks=masks, coeffs=coeffs / np.linalg.norm(coeffs),
                       energy=-1.0, n_orbitals=6)
    candidates = _assert_generated_is_screened(psi, table)[0]
    sectors = {tuple(s) for s in np.bitwise_count(candidates).tolist()}
    assert sectors == {(3, 3), (4, 2), (2, 4)}


# --------------------------------- generated subspace pairs, zero screen

SCREEN_CLASSES = ("one-electron", "ap|ii", "ai|ip", "same-spin double",
                  "opposite-spin double")


def _one_class_table(kind):
    """Six orbitals, (3, 2) sector, and one nonzero integral class: a
    hopping h[4,1], (ap|ii) = (41|22), (ai|ip) = (42|21), a class of four
    distinct orbitals (03|14), which also couples opposite spins, or
    (03|03), which has no same-spin double."""
    table = IntegralTable(n_orbitals=6, n_electrons=5, ms2=1)
    if kind == "one-electron":
        table.set_h(4, 1, -0.7)
    else:
        table.set_g(*{"ap|ii": (4, 1, 2, 2), "ai|ip": (4, 2, 2, 1),
                      "same-spin double": (0, 3, 1, 4),
                      "opposite-spin double": (0, 3, 0, 3)}[kind], 0.3)
    return table


def _assert_builds_are_screened(table, masks, seed=0, size=12):
    """The generated and the screened build of ``masks`` both equal
    ``oracles.screened_subspace`` in the dtype, shape and bytes of their
    CSR arrays, and the expansion arrays of a state on the first ``size``
    rows equal ``oracles.screened_connected_coupling``."""
    expect = oracles.screened_subspace(masks, table)
    for generate in (True, False):
        got = _built(masks, table, generate).matrix
        for name in ("data", "indices", "indptr"):
            assert _arrays([getattr(got, name)]) == _arrays(
                [getattr(expect, name)])
    if len(masks) and size:
        rows = masks[:size]
        coeffs = np.random.default_rng(seed).normal(size=len(rows))
        psi = Wavefunction(masks=rows, coeffs=coeffs / np.linalg.norm(coeffs),
                           energy=-1.0, n_orbitals=table.n_orbitals)
        _assert_generated_is_screened(psi, table)
    return expect


@pytest.mark.parametrize("kind", SCREEN_CLASSES)
def test_screen_keeps_every_element_of_each_integral_class(kind):
    table = _one_class_table(kind)
    masks = sector_masks(6, 3, 2)
    masks = masks[np.random.default_rng(4).permutation(len(masks))]
    expect = _assert_builds_are_screened(table, masks, size=len(masks) // 4)
    assert expect.nnz > 0


def test_generated_build_is_bitwise_the_screened_build(case):
    table, dets = case
    _assert_builds_are_screened(table, det_masks(dets))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_generated_build_is_bitwise_the_screened_build_on_fixtures(name):
    table = FIXTURES[name]()
    masks = sector_masks(table.n_orbitals, table.n_alpha, table.n_beta)
    _assert_builds_are_screened(table, masks[::-1])


@pytest.mark.parametrize("table", [helpers.random_table(6, 6, seed=5),
                                   hubbard_chain_table(6)],
                         ids=["dense", "hubbard"])
def test_generated_build_is_bitwise_the_screened_build_across_sectors(table):
    masks = np.concatenate([sector_masks(6, 3, 3)[::7],
                            sector_masks(6, 4, 2)[::5],
                            sector_masks(6, 2, 4)[::6],
                            sector_masks(6, 6, 0)])
    masks = masks[np.random.default_rng(2).permutation(len(masks))]
    _assert_builds_are_screened(table, masks, size=len(masks))


def test_generated_build_is_bitwise_the_screened_build_on_refine_dense8(
        monkeypatch):
    # every start of seeds 1 and 2 and the set an expansion step grows it to
    monkeypatch.syspath_prepend(str(helpers.ROOT / "benchmarks"))
    from workloads import RefineDense8

    for seed in (1, 2):
        workload = RefineDense8(helpers.ROOT, None)
        workload.setup(seed)
        table = workload.table
        for psi in workload.starts:
            grown = expand_and_rediagonalize(psi, table, 0.0, workload.top_k)
            for masks in (psi.masks, grown.wavefunction_after.masks):
                _assert_builds_are_screened(table, masks, size=0)


def test_generated_build_is_bitwise_the_screened_build_on_0_and_1_rows():
    table = hubbard_chain_table(6)
    for masks in (np.zeros((0, 2), np.uint64), sector_masks(6, 3, 3)[7:8]):
        assert _assert_builds_are_screened(table, masks).shape == (
            len(masks), len(masks))


def test_hubbard8_build_evaluates_only_the_coupled_pairs(monkeypatch):
    # every pair of the 784-determinant sector is one hop apart at most
    # once in the screen's count; the integrals couple 2,352 of them
    table = hubbard_chain_table(8, n_electrons=4)
    evaluated = []
    values = hamiltonian._pair_values

    def counted(ya, yb, xa, xb, h, g):
        evaluated.append(len(xa))
        return values(ya, yb, xa, xb, h, g)

    monkeypatch.setattr(hamiltonian, "_pair_values", counted)
    matrix = build_subspace(sector_masks(8, 2, 2), table).matrix
    assert sum(evaluated) == 2352
    assert (matrix.nnz - matrix.shape[0]) // 2 == 2352


def test_builds_generate_on_sparse_integrals_and_screen_small_dense_sets():
    # the benchmark's two sides: the Hubbard-8 sector generates its pairs,
    # and a dense 8-orbital set of 350 (an expansion step's grown set)
    # screens them, as does a set whose screen is one PAIR_BLOCK pass
    hubbard = hubbard_chain_table(8, n_electrons=4)
    dense = helpers.random_table(8, 4, seed=3)
    sector = sector_masks(8, 2, 2)
    for table, masks, generate in ((hubbard, sector, True),
                                   (dense, sector[::2][:350], False),
                                   (hubbard, sector[:150], False)):
        assert hamiltonian._generate(masks, table.h, table.dense_g()) is generate


def test_twenty_qubit_sector_build_stays_bounded():
    # the (5, 5) sector of the 10-site h-chain table: 63,504 determinants,
    # 874,944 nonzeros; measured at about 50 MB traced, of which the CSR
    # matrix and its COO inputs take about 40 MB, and 75 MB with all
    # members generated in one run
    table = h_chain_synthetic_table(10)
    masks = sector_masks(10, 5, 5)
    tracemalloc.start()
    try:
        matrix = build_subspace(masks, table).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nnz == 874_944
    assert peak < 64 << 20


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


PAST = Determinant(0b110000, 0b11)  # alpha in orbitals 4 and 5
WITHIN = Determinant(0b11, 0b11)
PAST_THE_TABLE = {
    "build_subspace": lambda table, psi: build_subspace(
        det_masks([WITHIN, PAST]), table),
    "slater_condon": lambda table, psi: slater_condon(WITHIN, PAST, table),
    "slater_condon-diagonal": lambda table, psi: slater_condon(PAST, PAST,
                                                               table),
    "score_candidates": lambda table, psi: score_candidates(psi, [PAST],
                                                            table),
    "Wavefunction": lambda table, psi: Wavefunction(
        masks=[[PAST.alpha, PAST.beta]], coeffs=[1.0], energy=0.0,
        n_orbitals=4),
}


@pytest.mark.parametrize("entry", sorted(PAST_THE_TABLE))
def test_rows_past_the_table_are_refused_by_name(entry):
    # once numpy's IndexError from the integral arrays
    table = hubbard_chain_table(4)
    psi = dense_lowest(build_subspace(sector_masks(4, 2, 2)[:5], table))
    with pytest.raises(ValueError, match=re.escape(
            f"{PAST} occupies an orbital past n_orbitals = 4")):
        PAST_THE_TABLE[entry](table, psi)


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
