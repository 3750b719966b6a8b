"""
Resource-error bounds, their Monte-Carlo validation, and state diagnostics
==========================================================================

Before spending shots, closed-form bounds answer three planning
questions: how wrong can a truncated subspace be, how many shots buy a
given confidence, and how deep a circuit can run before noise swamps
the signal.  Each bound is then stress-tested empirically, and a
diagnostic pass characterizes the wavefunction the pipeline produced.
"""

import numpy as np

from qselci.analysis import analyze
from qselci.bounds import (
    BoundInputs,
    full_report,
    gate_budget,
    hoeffding_epsilon,
    mc_hoeffding_violation_rate,
    mc_selection_failure_rate,
    required_shots,
    retained_weight,
    truncation_bound,
    uniform_probability,
)
from qselci.circuits import prescreen
from qselci.dets import enumerate_space, hartree_fock
from qselci.fixtures import hubbard_chain_table
from qselci.hamiltonian import (
    build_subspace,
    davidson_lowest,
    fci_oracle,
    spectral_halfwidth,
)

table = hubbard_chain_table()
oracle = fci_oracle(table)
sector = enumerate_space(4, 2, 2)
lam = spectral_halfwidth(build_subspace(sector, table))
print("spectral half-width:", round(lam, 4))

# Truncation: a subspace holding ground-state weight Q can miss the
# exact energy by at most min{2L, 2L*sqrt(2 - 2*sqrt(Q))}.  Against the
# actual error of diagonalizing the truncated set, the bound is loose
# but never violated.
print("size   weight     bound      actual")
for m in (6, 12, 24, 36):
    subset = prescreen(oracle, 0.0, top_m=m)
    q = retained_weight(oracle, subset)
    actual = davidson_lowest(build_subspace(subset, table)).energy - oracle.energy
    print("%4d   %.4f   %.3e   %.3e"
          % (m, q, truncation_bound(lam, q), actual))

# Shots: the Hoeffding radius says M draws estimate any cumulative
# probability to within eps with confidence 1 - delta.  An empirical
# check over 20,000 binomial experiments stays at or below delta.
m_shots, delta = 10_000, 0.05
eps = hoeffding_epsilon(m_shots, delta)
rate = mc_hoeffding_violation_rate(0.3, m_shots, delta, trials=20_000, seed=1)
print("Hoeffding radius at M=%d: %.5f; empirical violation rate %.4f <= %.2f"
      % (m_shots, eps, rate, delta))

# Selection: recovering the true top-R outcomes of a K-outcome pool
# needs enough shots to resolve the probability gap at the boundary.
probs = [0.4, 0.25, 0.15, 0.12, 0.08]
shots = required_shots(k_pool=5, delta=0.1, p=0.0, gap_id=0.10)
fail = mc_selection_failure_rate(probs, 2, shots, trials=1000, seed=2)
print("shots for top-2 of 5 at 90%% confidence: %d; empirical failure %.3f"
      % (shots, fail))

# Depth: on hardware with two-qubit survival fidelity F, a circuit is
# only worth running while its survival probability exceeds blind
# uniform guessing into the right particle-number sector.  For a
# 10-orbital, 10-electron active space the uniform sector-hit chance is
# about 6%, which at F = 0.990 tolerates a few hundred gates; a larger
# (73-orbital) space drives the guessing chance to 1e-13 and buys a
# few thousand.
print("uniform (5,5)-sector probability, 10 orbitals:",
      round(uniform_probability(10, 10), 7))
for f2q, n, m in ((0.990, 10, 10), (0.996, 10, 10), (0.992, 73, 114)):
    print("  F=%.3f, %2d orbitals: max useful two-qubit gates = %d"
          % (f2q, n, gate_budget(f2q, n, m)))

# Every formula is also available through one assembled report; fields
# whose inputs are unknown simply stay None.
inputs = BoundInputs(
    q_r=retained_weight(oracle, prescreen(oracle, 0.0, top_m=12)),
    lambda_h=lam, p=0.01, r=12, d=2 ** 8,
    m_shots=m_shots, delta=delta, k_pool=5, gap_id=0.10,
    f_2q=0.990, n_orbitals=10, m_electrons=10,
)
report = full_report(inputs)
print("assembled report:",
      {k: (round(v, 6) if isinstance(v, float) else v)
       for k, v in report.to_json_dict().items() if v is not None})

# Diagnostics: orbital occupations, one-orbital entropies, pairwise
# mutual information, and a histogram of excitation rank relative to
# the dominant determinant.  At half filling every spin orbital is
# half-occupied and its entropy saturates at ln 2.
diag = analyze(oracle)
print("occupations:", [round(float(x), 3) for x in diag.occupations])
print("entropies (max %.4f = ln 2):" % np.log(2.0),
      [round(float(x), 4) for x in diag.entropies])

# The mutual-information edge list exposes correlation structure.  With
# spin orbitals blocked (up spin 0-3, down spin 4-7), the strongest
# links are nearest-neighbor bonds within each spin channel; the
# up-down correlation of a single site comes next, largest at the ends
# of the open chain.
edges = sorted(diag.mi_edge_list(threshold=0.05), key=lambda e: -e[2])
print("strongest correlations:", [(i, j, round(w, 3)) for i, j, w in edges[:6]])

# Relative to the aufbau determinant the ground state spreads over all
# ranks the sector allows, with the histogram summing to one.
diag_hf = analyze(oracle, reference=hartree_fock(4, 2, 2))
print("rank histogram from aufbau:",
      [round(float(x), 4) for x in diag_hf.rank_histogram],
      "sum", round(float(sum(diag_hf.rank_histogram)), 12))
