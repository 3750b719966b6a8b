import dataclasses
import functools
import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from qselci import hamiltonian
from qselci.circuits import build_usci, prescreen
from qselci.dets import (Determinant, det_masks, enumerate_space,
                         excitation_rank, hartree_fock, sector_masks)
from qselci.errors import DuplicateDeterminant, NoConvergence, TooLarge
from qselci.expansion import en_pt2, expand_and_rediagonalize
from qselci.fcidump import IntegralTable
from qselci.fixtures import FIXTURES, hubbard_chain_table, two_orbital_table
from qselci.hamiltonian import (
    SubspaceMatrix,
    Wavefunction,
    build_subspace,
    davidson_lowest,
    dense_lowest,
    fci_oracle,
    slater_condon,
    spectral_halfwidth,
)
from qselci.pipeline import noisy_counts
from qselci.sampling import NoiseModel, counts_to_masks, symmetry_filter
from qselci.simulator import Statevector, apply_circuit

import helpers
import oracles


# ---------------------------------------------------------- matrix elements

@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 0), (4, 2, 2, 1), (3, 1, 1, 2)])
def test_elements_match_dense_operator_oracle(n, na, nb, seed):
    table = helpers.random_table(n, na + nb, ms2=na - nb, seed=seed, with_core=False)
    H = oracles.dense_hamiltonian(table)
    dets = enumerate_space(n, na, nb)
    for d1 in dets:
        for d2 in dets:
            expect = H[d1.to_index(n), d2.to_index(n)]
            got = slater_condon(d1, d2, table)
            assert got == pytest.approx(expect, abs=1e-10)


def _literal_dense_hamiltonian(table):
    """The Fock-space Hamiltonian as the literal sum over (p, q, r, s) of
    (pq|rs) E_pq E_rs products, one product per nonzero integral."""
    n = table.n_orbitals
    cre = [oracles.creation_matrix(s, 2 * n) for s in range(2 * n)]
    E = {(p, q): cre[p] @ cre[q].T + cre[n + p] @ cre[n + q].T
         for p in range(n) for q in range(n)}
    H = sum(table.h[p, q] * E[p, q] for p in range(n) for q in range(n))
    for p, q, r, s in itertools.product(range(n), repeat=4):
        v = table.get_g(p, q, r, s)
        if v:
            H += 0.5 * v * (E[p, q] @ E[r, s])
            if q == r:
                H -= 0.5 * v * E[p, s]
    return H


@pytest.mark.parametrize("table", [
    hubbard_chain_table(),
    helpers.random_table(3, 3, ms2=1, seed=5, with_core=False),
], ids=["hubbard4", "random3"])
def test_dense_oracle_is_the_literal_operator_sum(table):
    # the oracle sums (pq|rs) E_rs over (r, s) before it multiplies by E_pq
    got = oracles.dense_hamiltonian(table)
    assert np.abs(got - _literal_dense_hamiltonian(table)).max() <= 1e-12


def test_diagonal_one_orbital_two_electrons():
    t = IntegralTable(n_orbitals=1, n_electrons=2)
    t.set_h(0, 0, -1.25)
    t.set_g(0, 0, 0, 0, 1.0)
    d = Determinant(alpha=1, beta=1)
    assert slater_condon(d, d, t) == pytest.approx(-1.5, abs=1e-14)


def test_rank_three_is_exactly_zero():
    t = helpers.random_table(4, 4, seed=3)
    d1 = Determinant(alpha=0b0011, beta=0b0011)
    d2 = Determinant(alpha=0b1100, beta=0b0101)
    assert excitation_rank(d1, d2) == 3
    assert slater_condon(d1, d2, t) == 0.0


def test_cross_sector_is_zero():
    t = helpers.random_table(3, 3, ms2=1, seed=4)
    d1 = Determinant(alpha=0b011, beta=0b001)
    d2 = Determinant(alpha=0b111, beta=0b000)  # different per-spin counts
    assert slater_condon(d1, d2, t) == 0.0


def test_elements_symmetric():
    t = helpers.random_table(4, 4, seed=5)
    dets = enumerate_space(4, 2, 2)
    rng = np.random.default_rng(6)
    for _ in range(300):
        i, j = rng.integers(0, len(dets), size=2)
        a = slater_condon(dets[i], dets[j], t)
        b = slater_condon(dets[j], dets[i], t)
        assert a == pytest.approx(b, abs=1e-12)


# -------------------------------------------------------------- projections

def test_build_subspace_matches_projected_oracle():
    table = helpers.random_table(3, 3, ms2=1, seed=7, with_core=False)
    dets = enumerate_space(3, 2, 1)
    sub = build_subspace(dets, table)
    expect = oracles.project_hamiltonian(table, dets)
    assert np.allclose(sub.matrix.toarray(), expect, atol=1e-10)
    # symmetry of the stored sparse matrix
    diff = (sub.matrix - sub.matrix.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_build_subspace_duplicate_rejected():
    table = two_orbital_table()
    d = hartree_fock(2, 1, 1)
    with pytest.raises(DuplicateDeterminant):
        build_subspace([d, d], table)


def test_full_hubbard_subspace_energy_matches_dense():
    table = hubbard_chain_table()
    dets = enumerate_space(4, 2, 2)
    assert len(dets) == 36
    sub = build_subspace(dets, table)
    expect_e, expect_vec = oracles.ground_state(table, dets)
    wf = davidson_lowest(sub)
    assert wf.energy == pytest.approx(expect_e, abs=1e-9)
    dense_wf = dense_lowest(sub)
    assert dense_wf.energy == pytest.approx(expect_e, abs=1e-11)
    assert np.allclose(np.abs(dense_wf.coeffs), np.abs(expect_vec), atol=1e-8)


# ------------------------------------------------------------- eigensolvers

def _matrix_subspace(mat, core=0.0):
    n = mat.shape[0]
    dets = [Determinant(alpha=i, beta=0) for i in range(n)]
    return SubspaceMatrix(
        masks=det_masks(dets),
        matrix=scipy.sparse.csr_matrix(mat),
        core_energy=core,
        n_orbitals=max(1, n.bit_length()),
    )


def _random_symmetric(dim, seed):
    mat = np.random.default_rng(seed).normal(size=(dim, dim))
    return (mat + mat.T) / 2


def _ci_like(dim):
    rng = np.random.default_rng(dim)
    mat = rng.normal(size=(dim, dim)) * 0.05
    mat = (mat + mat.T) / 2
    mat[np.diag_indices(dim)] = np.sort(rng.normal(size=dim) * 2.0)
    return mat


def test_davidson_diagonal_example():
    wf = davidson_lowest(_matrix_subspace(np.diag([3.0, 1.0, 2.0])))
    assert wf.energy == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(wf.coeffs), [0, 1, 0], atol=1e-8)


@pytest.mark.parametrize("dim", [5, 30, 80, 200, 500])
def test_davidson_matches_dense_ci_like(dim):
    mat = _ci_like(dim)
    wf = davidson_lowest(_matrix_subspace(mat))
    expect = scipy.linalg.eigvalsh(mat)[0]
    assert wf.energy == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("dim", [60, 240])
def test_davidson_matches_dense_unstructured(dim):
    mat = _random_symmetric(dim, 1000 + dim)
    wf = davidson_lowest(_matrix_subspace(mat))
    expect = scipy.linalg.eigvalsh(mat)[0]
    assert wf.energy == pytest.approx(expect, abs=1e-9)


def test_davidson_core_energy_offset():
    wf = davidson_lowest(_matrix_subspace(np.diag([3.0, 1.0, 2.0]), core=0.5))
    assert wf.energy == pytest.approx(1.5, abs=1e-12)


def test_davidson_no_convergence_carries_best_iterate(monkeypatch):
    mat = _random_symmetric(100, 42)
    monkeypatch.setattr(hamiltonian, "DAVIDSON_MAX_ITER", 2)
    with pytest.raises(NoConvergence) as err:
        davidson_lowest(_matrix_subspace(mat))
    exact = scipy.linalg.eigvalsh(mat)[0]
    assert err.value.energy is not None
    assert err.value.energy >= exact - 1e-10  # variational iterate
    assert err.value.vector is not None and len(err.value.vector) == 100


# The Davidson loop against the stacked-list reference it replaced.  It keeps
# the projected matrix one row and column per mat-vec and orthonormalizes
# against the basis as one matrix, so its sums run in another order: energies
# within REFERENCE_ENERGY_TOL, coefficients within REFERENCE_COEFF_TOL, and
# the same number of mat-vecs, on Hubbard QSCI subspaces that restart, an
# expansion subspace of a dense table, the smallest dimensions, the matrices
# above, and two whose preconditioned residual vanishes while |r| does not,
# so the loop falls back to unit vectors (once, then three times).

class _CountingMatrix(scipy.sparse.csr_matrix):
    """A csr_matrix that counts ``A @ v``, as the bench tracer does."""

    matvecs = 0

    def __matmul__(self, other):
        self.matvecs += 1
        return super().__matmul__(other)


def _counted(subspace):
    return dataclasses.replace(subspace,
                               matrix=_CountingMatrix(subspace.matrix))


@functools.cache
def _hubbard8_qsci_setup():
    """The qsci-hubbard8 bench pass up to its subspace: FCI pilot, prescreen
    at 0.01, USCI circuit at angle 0.15, 1e5 noisy shots."""
    table = hubbard_chain_table(8, n_electrons=4)
    selected = prescreen(fci_oracle(table), 0.01)
    circuit = build_usci(selected[0], selected, table.n_orbitals)
    state = apply_circuit(
        circuit, np.full(circuit.n_params, 0.15),
        Statevector.from_determinant(circuit.reference, table.n_orbitals))
    return table, state


def _hubbard8_qsci_subspace(seed):
    table, state = _hubbard8_qsci_setup()
    noise = NoiseModel(depolarizing_p=0.01, readout_eps0=0.005,
                       readout_eps1=0.01)
    counts = noisy_counts(state, 100_000, noise, seed)
    kept, _ = symmetry_filter(counts, table.n_alpha, table.n_beta)
    return build_subspace(counts_to_masks(kept, table.n_orbitals), table)


def _dense8_expansion_subspace():
    """The subspace of one top-200 expansion step on a dense random
    8-orbital table, from the lowest state on every fifth sector row."""
    table = helpers.random_table(8, 4, seed=8)
    start = davidson_lowest(build_subspace(sector_masks(8, 2, 2)[::5], table))
    grown = expand_and_rediagonalize(start, table, 0.0, 200)
    return build_subspace(grown.wavefunction_after.masks, table)


PINNED_SUBSPACES = {  # name -> builder
    **{f"hubbard8-qsci-seed{s}": lambda s=s: _hubbard8_qsci_subspace(s)
       for s in (11, 41, 51)},
    "dense8-expansion": _dense8_expansion_subspace,
    **{f"random-dim{d}":
       lambda d=d: _matrix_subspace(_random_symmetric(d, 70 + d))
       for d in range(1, 6)},
    "diagonal": lambda: _matrix_subspace(np.diag([3.0, 1.0, 2.0]), core=0.5),
    **{f"ci-like-dim{d}": lambda d=d: _matrix_subspace(_ci_like(d))
       for d in (5, 30, 80, 200, 500)},
    **{f"unstructured-dim{d}":
       lambda d=d: _matrix_subspace(_random_symmetric(d, 1000 + d))
       for d in (60, 240)},
    "unstructured-dim100": lambda: _matrix_subspace(_random_symmetric(100, 42)),
    "fallback-dim2": lambda: _matrix_subspace(
        np.array([[0.0, 5e-8], [5e-8, 1000.0]])),
    "fallback-dim4": lambda: _matrix_subspace(
        np.diag([0.0, 1000.0, 1001.0, 2000.0]) + 5e-8 * (1 - np.eye(4))),
}
REFERENCE_ENERGY_TOL = 1e-12
REFERENCE_COEFF_TOL = 1e-10


def _assert_same_wavefunction(got, expect):
    assert got.energy.hex() == expect.energy.hex()
    assert got.coeffs.tobytes() == expect.coeffs.tobytes()
    assert np.array_equal(got.masks, expect.masks)


def _assert_close_to_reference(energy, coeffs, expect_energy, expect_coeffs):
    assert abs(energy - expect_energy) <= REFERENCE_ENERGY_TOL
    assert np.max(np.abs(coeffs - expect_coeffs)) <= REFERENCE_COEFF_TOL


@pytest.mark.parametrize("name", PINNED_SUBSPACES)
def test_davidson_matches_reference_bitwise(name):
    subspace = PINNED_SUBSPACES[name]()
    got, expect = (davidson_lowest(subspace),
                   oracles.davidson_reference(subspace))
    _assert_close_to_reference(got.energy, got.coeffs, expect.energy,
                               expect.coeffs)
    assert np.array_equal(got.masks, expect.masks)


@pytest.mark.parametrize("name", PINNED_SUBSPACES)
def test_davidson_matvec_count_matches_reference(name):
    subspace = PINNED_SUBSPACES[name]()
    got, expect = _counted(subspace), _counted(subspace)
    davidson_lowest(got)
    oracles.davidson_reference(expect)
    assert got.matrix.matvecs == expect.matrix.matvecs
    if name.startswith("hubbard8"):  # these pass a restart
        assert got.matrix.matvecs > hamiltonian.DAVIDSON_MAX_BASIS


@pytest.mark.parametrize("name", ["hubbard8-qsci-seed11", "unstructured-dim100"])
def test_davidson_no_convergence_matches_reference_bitwise(monkeypatch, name):
    subspace = PINNED_SUBSPACES[name]()
    monkeypatch.setattr(hamiltonian, "DAVIDSON_MAX_ITER", 2)
    with pytest.raises(NoConvergence) as got:
        davidson_lowest(subspace)
    with pytest.raises(NoConvergence) as expect:
        oracles.davidson_reference(subspace)
    _assert_close_to_reference(got.value.energy, got.value.vector,
                               expect.value.energy, expect.value.vector)
    assert got.value.iterations == expect.value.iterations == 2


@pytest.mark.parametrize("size", range(1, hamiltonian.DAVIDSON_MAX_BASIS + 1))
def test_small_solve_is_eigh_bitwise(size):
    rng = np.random.default_rng(size)
    repeated = np.repeat(rng.normal(size=(size + 1) // 2), 2)[:size]
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    for T in (_random_symmetric(size, size),
              np.diag(rng.normal(size=size)),
              np.diag(repeated),
              (q * repeated) @ q.T):
        T = (T + T.T) / 2
        count = min(2, size)
        got = hamiltonian._lowest_eigh(T, count)
        expect = scipy.linalg.eigh(T, subset_by_index=[0, count - 1])
        for a, b in zip(got, expect):
            assert a.tobytes() == b.tobytes()
            assert a.strides == b.strides


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_small_solve_rejects_non_finite_like_eigh(bad):
    T = np.eye(3)
    T[1, 2] = T[2, 1] = bad
    with pytest.raises(ValueError) as expect:
        scipy.linalg.eigh(T)
    with pytest.raises(ValueError, match=str(expect.value)):
        hamiltonian._lowest_eigh(T, 2)


FULL_SECTORS = {  # name -> integral table whose sector is solved densely
    **FIXTURES,
    "hubbard8-4e": lambda: hubbard_chain_table(8, n_electrons=4),
    "dense8": lambda: helpers.random_table(8, 4, seed=3),
    "dense6": lambda: helpers.random_table(6, 6, seed=4),
}


@pytest.mark.parametrize("name", FULL_SECTORS)
def test_lowest_only_solve_matches_full_eigensolve(name):
    table = FULL_SECTORS[name]()
    subspace = build_subspace(
        sector_masks(table.n_orbitals, table.n_alpha, table.n_beta), table)
    assert subspace.dim <= hamiltonian.DENSE_CUTOFF
    got, expect = dense_lowest(subspace), oracles.full_dense_lowest(subspace)
    assert abs(got.energy - expect.energy) < 1e-12
    assert np.max(np.abs(got.coeffs - expect.coeffs)) < 1e-12
    assert np.array_equal(got.masks, expect.masks)
    assert prescreen(got, 0.01) == prescreen(expect, 0.01)


@pytest.mark.parametrize("solve", [davidson_lowest, dense_lowest,
                                   spectral_halfwidth])
def test_solvers_reject_an_empty_subspace(solve):
    empty = build_subspace(np.zeros((0, 2), np.uint64), hubbard_chain_table(4))
    with pytest.raises(ValueError, match="empty subspace"):
        solve(empty)


def test_int64_mask_rows_match_uint64_rows():
    table = hubbard_chain_table(4)
    rows = sector_masks(4, 2, 2)[::3]
    sub = build_subspace(rows, table)
    sub64 = build_subspace(rows.astype(np.int64), table)
    assert sub64.masks.dtype == np.uint64
    assert sub64.matrix.toarray().tobytes() == sub.matrix.toarray().tobytes()
    wf = davidson_lowest(sub)
    _assert_same_wavefunction(davidson_lowest(sub64), wf)
    wf64 = Wavefunction(masks=wf.masks.astype(np.int64), coeffs=wf.coeffs,
                        energy=wf.energy, n_orbitals=wf.n_orbitals)
    assert wf64.masks.dtype == np.uint64
    assert en_pt2(wf64, table) == en_pt2(wf, table)


def test_variational_chain_nested_subsets():
    table = hubbard_chain_table()
    space = enumerate_space(4, 2, 2)
    rng = np.random.default_rng(13)
    for _ in range(100):
        k_small = int(rng.integers(1, len(space)))
        k_big = int(rng.integers(k_small, len(space) + 1))
        perm = rng.permutation(len(space))
        big = [space[i] for i in perm[:k_big]]
        small = big[:k_small]
        e_small = dense_lowest(build_subspace(small, table)).energy
        e_big = dense_lowest(build_subspace(big, table)).energy
        assert e_big <= e_small + 1e-12


# -------------------------------------------------------------- full solver

def test_fci_oracle_two_orbital():
    table = two_orbital_table()
    wf = fci_oracle(table)
    dets = enumerate_space(2, 1, 1)
    expect_e, expect_vec = oracles.ground_state(table, dets)
    assert wf.energy == pytest.approx(expect_e, abs=1e-10)
    assert np.allclose(np.abs(wf.coeffs), np.abs(expect_vec), atol=1e-8)


def test_fci_oracle_random_table_with_core():
    table = helpers.random_table(3, 4, seed=21)
    wf = fci_oracle(table)
    expect_e, _ = oracles.ground_state(table, enumerate_space(3, 2, 2))
    assert wf.energy == pytest.approx(expect_e, abs=1e-10)


def test_fci_oracle_cap():
    table = IntegralTable(n_orbitals=10, n_electrons=10)
    with pytest.raises(TooLarge):
        fci_oracle(table, cap=10**4)


def test_build_subspace_past_64_orbitals_is_too_large():
    table = IntegralTable(n_orbitals=66, n_electrons=2)
    dets = [Determinant(alpha=1, beta=1), Determinant(alpha=1 << 65, beta=1)]
    with pytest.raises(TooLarge, match="64-orbital"):
        build_subspace(dets, table)


def test_build_subspace_takes_a_list_of_integer_rows():
    table = hubbard_chain_table(4)
    rows = [[3, 5], [5, 3], [3, 6], [6, 3]]
    got = build_subspace(rows, table).matrix
    want = build_subspace(np.array(rows, np.uint64), table).matrix
    for field in ("data", "indices", "indptr"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    with pytest.raises(ValueError, match=r"\(N, 2\) array of nonnegative"):
        build_subspace([[1, -1]], table)


def test_spectral_halfwidth(monkeypatch):
    table = hubbard_chain_table()
    dets = enumerate_space(4, 2, 2)
    sub = build_subspace(dets, table)
    w = scipy.linalg.eigvalsh(oracles.project_hamiltonian(table, dets))
    assert spectral_halfwidth(sub) == pytest.approx((w[-1] - w[0]) / 2, abs=1e-10)
    monkeypatch.setattr(hamiltonian, "SPECTRUM_CAP", 10)
    with pytest.raises(TooLarge):
        spectral_halfwidth(sub)


# ------------------------------------------------------------ wavefunctions

def test_wavefunction_normalization_enforced():
    dets = enumerate_space(2, 1, 1)
    with pytest.raises(ValueError):
        Wavefunction(masks=det_masks(dets), coeffs=np.ones(4), energy=0.0,
                     n_orbitals=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_wavefunction_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="not normalized"):
        Wavefunction(masks=det_masks([Determinant(1, 1)]), coeffs=[bad], energy=0.0,
                     n_orbitals=1)
    with pytest.raises(ValueError, match="not normalized"):
        Wavefunction(masks=det_masks(enumerate_space(2, 1, 1)[:2]), coeffs=[1.0, bad],
                     energy=0.0, n_orbitals=2)


@pytest.mark.parametrize("masks", [
    np.array([[0b110000, 0b11]], np.uint64), [[48, 3]],
], ids=["uint64-array", "list"])
def test_wavefunction_refuses_rows_past_its_orbitals(masks):
    # once accepted, then a reshape ValueError inside en_pt2's substitutions
    with pytest.raises(ValueError, match=r"Determinant\(alpha=48, beta=3\) "
                       "occupies an orbital past"):
        Wavefunction(masks=masks, coeffs=[1.0], energy=0.0, n_orbitals=4)
    with pytest.raises(TooLarge, match="64-orbital"):
        Wavefunction(masks=masks, coeffs=[1.0], energy=0.0, n_orbitals=65)


def test_wavefunction_json_roundtrip():
    table = two_orbital_table()
    wf = fci_oracle(table)
    back = Wavefunction.from_json(wf.to_json())
    assert back.n_orbitals == wf.n_orbitals
    assert back.energy == pytest.approx(wf.energy, abs=1e-15)
    lookup = dict(zip(back.dets, back.coeffs))
    for d, c in zip(wf.dets, wf.coeffs):
        assert lookup[d] == pytest.approx(float(c), abs=1e-15)
