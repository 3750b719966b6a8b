"""
Integral tables, determinant spaces, and exact diagonalization
==============================================================

Every calculation in this package starts from an integral table: core
energy, one-electron integrals h[p, q], and two-electron integrals
(pq|rs) in chemist notation with 8-fold permutation symmetry.  Tables
come from an FCIDUMP file or from a built-in fixture.
"""

import numpy as np

from qselci.dets import enumerate_space, hartree_fock
from qselci.fcidump import parse_fcidump, serialize_fcidump, table_summary
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import (
    build_subspace,
    davidson_lowest,
    dense_lowest,
    fci_oracle,
    slater_condon,
    spectral_halfwidth,
)

# The 4-site Hubbard chain at U/t = 2 is the workhorse fixture: small
# enough to diagonalize densely, correlated enough to be interesting.
table = hubbard_chain_table()
summary = table_summary(table)
print("system:", {k: summary[k] for k in ("n_orbitals", "n_electrons", "ms2")})

# Tables round-trip through the FCIDUMP text format.
reloaded = parse_fcidump(serialize_fcidump(table))
print("round-trip core energy:", reloaded.core_energy)

# A determinant is a pair of occupation bitmasks, one per spin channel.
# The (2, 2) sector of 4 orbitals holds C(4,2)^2 = 36 determinants.
sector = enumerate_space(4, 2, 2)
print("sector size:", len(sector))

hf = hartree_fock(4, 2, 2)
print("aufbau reference:", bin(hf.alpha), bin(hf.beta))

# Matrix elements between determinants follow the Slater-Condon rules:
# only pairs differing by at most a double substitution couple.
print("diagonal <HF|H|HF>:", slater_condon(hf, hf, table))
print("coupling to a single:", slater_condon(hf, sector[1], table))

# Projecting the Hamiltonian on a determinant list gives a sparse
# symmetric matrix; the Davidson solver extracts its lowest eigenpair
# without ever forming the dense spectrum.
subspace = build_subspace(sector, table)
ground = davidson_lowest(subspace)
print("Davidson ground energy:", ground.energy)

# For small blocks a dense solve cross-checks the iterative one.
dense = dense_lowest(subspace)
print("dense ground energy:  ", dense.energy)
print("agreement:", abs(ground.energy - dense.energy) < 1e-9)

# fci_oracle bundles enumeration + diagonalization over the full sector.
oracle = fci_oracle(table)
weights = np.sort(np.asarray(oracle.coeffs) ** 2)[::-1]
print("largest determinant weight:", weights[0])
print("weight captured by the top 10:", weights[:10].sum())

# The spectral half-width (E_max - E_min)/2 scales every error bound
# used later in the pipeline.
print("spectral half-width:", spectral_halfwidth(subspace))
