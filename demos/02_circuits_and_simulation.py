"""
Determinant-pair circuits and exact statevector simulation
==========================================================

The selection circuit is assembled from the determinants themselves:
prescreen a pilot wavefunction for its heaviest determinants, decompose
each one against the reference into an excitation operator, and give
every operator a rotation angle.  At theta = 0 the circuit is the
identity on the reference; growing the angles spreads amplitude over
exactly the selected determinants.
"""

import numpy as np
import scipy.linalg

from qselci.circuits import (
    build_lucj,
    build_usci,
    decompose_excitation,
    gate_counts,
    jordan_wigner,
    prescreen,
)
from qselci.dets import bitstring_of_index
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import build_subspace, enumerate_space, fci_oracle
from qselci.sampling import ideal_distribution
from qselci.simulator import Statevector, apply_circuit, expectation_energy

table = hubbard_chain_table()
oracle = fci_oracle(table)

# Keep every determinant with coefficient weight above the cutoff.  The
# heaviest one becomes the circuit's reference.
selected = prescreen(oracle, cutoff=0.05)
print("selected determinants:", len(selected))
reference = selected[0]

# Each selected determinant maps to a short chain of rank-1/rank-2
# excitation steps: spin orbitals to annihilate, ones to create, and a
# fermionic phase computed on the intermediate determinant.
steps = decompose_excitation(reference, selected[1], table.n_orbitals)
op = steps[0]
print("first excitation:", op.annihilated, "->", op.created,
      "phase", op.phase, "(%d step chain)" % len(steps))

# Under the Jordan-Wigner convention each excitation becomes a sum of
# Pauli strings whose weight-2/weight-4 structure reflects its rank.
terms = jordan_wigner(op, 8)
print("Pauli terms:",
      [(round(float(c.imag), 3), label) for c, label in terms][:2],
      "... (%d total)" % len(terms))

# One layer gives one parameter per non-reference determinant.
circuit = build_usci(reference, selected, table.n_orbitals)
print("gate counts:", gate_counts(circuit))

# Applying the circuit to the reference basis state is exact statevector
# simulation; each rotation mixes a closed 2x2 block analytically.
state = Statevector.from_determinant(reference, table.n_orbitals)
prepared = apply_circuit(circuit, np.full(circuit.n_params, 0.2), state)
print("norm preserved:", abs(np.linalg.norm(prepared.amps) - 1.0) < 1e-12)

# The outcome distribution lists one basis index per determinant with
# squared-amplitude probability; its text form is the occupation string.
dist = ideal_distribution(prepared)
top = np.argsort(-dist.probs, kind="stable")[:3]
print("top outcomes:", [(bitstring_of_index(i, 8), round(p, 4)) for i, p in
                        zip(dist.index[top].tolist(), dist.probs[top].tolist())])

# The energy expectation of the prepared state sits between the ground
# energy and the reference diagonal.
sector_matrix = build_subspace(enumerate_space(4, 2, 2), table)
print("prepared-state energy:", expectation_energy(prepared, sector_matrix))
print("exact ground energy:  ", oracle.energy)

# The cluster-Jastrow baseline has no free parameters: a basis rotation
# in, a diagonal phase layer, and the rotation undone.  A pure on-site
# Jastrow is a global phase within a particle-number sector, so the
# tensor needs neighbor terms to produce any spreading.
k_gen = np.zeros((4, 4))
for p in range(3):
    k_gen[p, p + 1], k_gen[p + 1, p] = 0.25, -0.25
j_tensor = 0.4 * np.eye(8)
for s in range(7):
    j_tensor[s, s + 1] = j_tensor[s + 1, s] = 0.2
baseline = build_lucj(k_gen, j_tensor, reference)
print("baseline parameters:", baseline.n_params,
      "gates:", len(baseline.gates))
out = apply_circuit(baseline, np.zeros(0),
                    Statevector.from_determinant(reference, 4))
print("baseline spreads over",
      np.count_nonzero(np.abs(out.amps) > 1e-12), "basis states")
