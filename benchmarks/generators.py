"""Seeded input generators for the benchmark workloads.

Every input is built through qselci's public API from one integer seed, so
the same seed gives the same inputs and another seed gives inputs of the
same size.
"""

import itertools

import numpy as np

from qselci.dets import enumerate_space, excitation_rank, hartree_fock
from qselci.fcidump import IntegralTable, serialize_fcidump


def dense_random_table(n_orbitals, n_electrons, seed):
    """A dense random integral table with full 8-fold two-electron symmetry.

    Same construction as the test suite's random tables: a normal core
    energy, a symmetrized normal one-electron matrix, and one normal draw
    (scaled by 0.5) per two-electron symmetry class, drawn in the order the
    classes are first met in lexicographic index order.  No class is zero.
    """
    rng = np.random.default_rng(seed)
    table = IntegralTable(
        n_orbitals=n_orbitals,
        n_electrons=n_electrons,
        ms2=0,
        core_energy=float(rng.normal()),
    )
    h = rng.normal(size=(n_orbitals, n_orbitals))
    table.h = (h + h.T) / 2
    for idx in itertools.product(range(n_orbitals), repeat=4):
        if table.get_g(*idx) == 0.0:
            table.set_g(*idx, float(rng.normal() * 0.5))
    return table


def hf_excitation_pick(table, n_pick, seed):
    """Hartree-Fock followed by a seeded pick of ``n_pick`` of its in-sector
    single and double substitutions, in pick order (the build_usci
    selection order)."""
    hf = hartree_fock(table.n_orbitals, table.n_alpha, table.n_beta)
    pool = [
        d
        for d in enumerate_space(table.n_orbitals, table.n_alpha, table.n_beta)
        if excitation_rank(hf, d) in (1, 2)
    ]
    if n_pick > len(pool):
        raise ValueError(f"cannot pick {n_pick} of {len(pool)} substitutions")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool), size=n_pick, replace=False)
    return [hf] + [pool[int(i)] for i in picked]


def fcidump_text(n_orbitals, n_electrons, seed):
    """FCIDUMP text of a dense random table."""
    return serialize_fcidump(dense_random_table(n_orbitals, n_electrons, seed))
