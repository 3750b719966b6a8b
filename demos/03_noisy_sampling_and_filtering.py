"""
Shot sampling under noise, and symmetry-based recovery
======================================================

Measurement turns the prepared state into bitstring counts.  Two error
channels distort them: global depolarizing noise mixes the outcome
distribution with the uniform one, and readout error flips individual
bits of each recorded string.  Both are modeled here, together with the
particle-number filter that throws away provably corrupted shots.
"""

import numpy as np

from qselci.circuits import build_usci, prescreen
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import fci_oracle
from qselci.sampling import (
    NoiseModel,
    apply_readout,
    counts_to_determinants,
    depolarize_distribution,
    ideal_distribution,
    sample,
    symmetry_filter,
)
from qselci.simulator import Statevector, apply_circuit

table = hubbard_chain_table()
oracle = fci_oracle(table)
selected = prescreen(oracle, cutoff=0.01)
circuit = build_usci(selected[0], selected, 4)
state = apply_circuit(circuit, np.full(circuit.n_params, 0.15),
                      Statevector.from_determinant(selected[0], 4))
ideal = ideal_distribution(state)

# A noise model can be given the global strength directly, or derived
# from a per-gate error rate and a gate count: p = 1 - (1 - p_g)^N.
model = NoiseModel(per_gate_pg=0.001, n_2q=30,
                   readout_eps0=0.01, readout_eps1=0.01)
print("aggregate depolarizing strength:", round(model.depolarizing_p, 5))

# Depolarizing mixing rescales every listed probability the same way,
# so the ranking of outcomes survives — only the contrast shrinks.
noisy = depolarize_distribution(ideal, model.depolarizing_p)
best = int(np.argmax(ideal.probs))
print("top outcome probability, ideal vs noisy:",
      round(float(ideal.probs[best]), 4), "->",
      round(float(noisy.probs[best]), 4))

# Sampling is a seeded multinomial draw; the residual uniform mass
# materializes as random bitstrings outside the listed support.
shots = 50_000
counts = sample(noisy, shots, seed=11)
print("unique strings sampled:", counts.index.size)

# Readout error then flips bits of the recorded strings.
flipped = apply_readout(counts, model, seed=12)

# Any string whose per-spin popcounts disagree with the electron count
# cannot come from the sector; the filter drops it.
kept, rejected = symmetry_filter(flipped, 2, 2)
print("shots rejected by the filter:", rejected,
      "(%.1f%%)" % (100.0 * rejected / shots))

# Surviving strings become determinants, ordered by frequency.
dets = counts_to_determinants(kept, 4)
print("determinants recovered:", len(dets))

# Noiseless sampling for contrast: everything passes the filter.
clean_counts = sample(ideal, shots, seed=11)
_, clean_rejected = symmetry_filter(clean_counts, 2, 2)
print("rejected without noise:", clean_rejected)

