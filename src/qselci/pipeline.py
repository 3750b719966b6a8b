"""The hybrid sample-select-diagonalize loop and its parameter optimization.

One pass (:func:`run_qsci_once`) is three steps: :func:`prepared_state`
applies the circuit on its own register; :func:`noisy_counts` forms the
ideal outcome distribution, mixes in global depolarizing noise, draws shots
and applies readout flips; :func:`solve_counts` keeps the particle-number
sector, takes its distinct outcomes as determinant mask rows, projects the
Hamiltonian onto them, and solves for the lowest eigenpair.

All randomness derives from the config's single seed: stage seeds are drawn
from numpy's SeedSequence(seed) in a fixed order
(:func:`qselci.sampling.stage_seeds`: sampling first, readout second), so a
run is replayable from one number.
The optimizer reuses one sampling seed across evaluations, making the
objective deterministic, as trust-region derivative-free methods require.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySubspace
from .hamiltonian import build_subspace, davidson_lowest
from .sampling import (  # derive_seeds is re-exported to callers of this module
    NoiseModel,
    apply_readout,
    counts_to_masks,
    depolarize_distribution,
    derive_seeds,
    ideal_distribution,
    sample,
    stage_seeds,
    symmetry_filter,
)
from .simulator import Statevector, apply_circuit

OPTIMIZER_METHOD = "COBYLA"
OPTIMIZER_INITIAL_STEP = 0.3


def prepared_state(circuit, params):
    """The circuit applied to its reference determinant in the circuit's
    own ``n_orbitals``, listed on the reference's particle-number sector."""
    state = Statevector.from_determinant(circuit.reference, circuit.n_orbitals)
    return apply_circuit(circuit, params, state)


def noisy_counts(state, shots, noise, master_seed):
    """Measure a prepared state under a noise model: ideal distribution,
    global depolarizing, ``shots`` multinomial draws, readout flips."""
    seeds = stage_seeds(master_seed)
    dist = depolarize_distribution(ideal_distribution(state), noise.depolarizing_p)
    counts = sample(dist, shots, seeds["sample"])
    return apply_readout(counts, noise, seeds["readout"])


@dataclass
class OptimizerConfig:
    max_evaluations: int = 500
    energy_tol: float = 1e-8
    patience: int = 10

    def __post_init__(self):
        if self.max_evaluations < 1 or self.patience < 1:
            raise ValueError("optimizer counts must be positive")
        if not 0 < self.energy_tol < np.inf:  # NaN fails every comparison
            raise ValueError("energy tolerance must be positive")


@dataclass
class PipelineConfig:
    shots: int = 100_000
    noise: NoiseModel = field(default_factory=NoiseModel)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 2026

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")


@dataclass
class QsciResult:
    wavefunction: object
    counts: object
    n_rejected: int
    n_unique: int

    @property
    def energy(self):
        return self.wavefunction.energy


def solve_counts(counts, table):
    """Keep the raw counts in the table's sector and diagonalize the
    Hamiltonian over their distinct outcomes."""
    filtered, rejected = symmetry_filter(counts, table.n_alpha, table.n_beta)
    if not filtered.index.size:
        raise EmptySubspace(
            "no sampled bitstring survived the symmetry filter "
            "(noise-dominated sampling)"
        )
    masks = counts_to_masks(filtered, table.n_orbitals)
    wf = davidson_lowest(build_subspace(masks, table))
    return QsciResult(
        wavefunction=wf,
        counts=filtered,
        n_rejected=rejected,
        n_unique=len(masks),
    )


def run_qsci_once(circuit, params, table, cfg):
    """One sampling + diagonalization pass; see module docstring for stages."""
    state = prepared_state(circuit, params)
    counts = noisy_counts(state, cfg.shots, cfg.noise, cfg.seed)
    return solve_counts(counts, table)


class _StopEarly(Exception):
    pass


def optimize(circuit, table, cfg):
    """Derivative-free parameter optimization of the sampled subspace energy.

    Returns (best parameters, best-so-far energy trace).  Stops when the
    best energy has not improved by more than the tolerance over a patience
    window of evaluations, or when the evaluation budget is exhausted.
    The solver is SciPy's pure-Python COBYLA (SciPy 1.16 and later), so
    whatever the objective writes to stderr or warns reaches the caller.
    """
    import scipy.optimize

    opt = cfg.optimizer
    x0 = np.zeros(circuit.n_params)
    if circuit.n_params == 0:
        return x0, [run_qsci_once(circuit, x0, table, cfg).energy]
    best_energy, best_params, trace, since_improvement = np.inf, x0, [], 0

    def objective(x):
        nonlocal best_energy, best_params, since_improvement
        e = run_qsci_once(circuit, x, table, cfg).energy
        if e < best_energy - opt.energy_tol:
            since_improvement = 0
        else:
            since_improvement += 1
        if e < best_energy:
            best_energy, best_params = e, np.array(x, dtype=float)
        trace.append(best_energy)
        if since_improvement >= opt.patience or len(trace) >= opt.max_evaluations:
            raise _StopEarly
        return e

    # COBYLA needs at least n + 2 evaluations to build its first simplex;
    # the budget itself is enforced by _StopEarly
    try:
        scipy.optimize.minimize(
            objective,
            x0,
            method=OPTIMIZER_METHOD,
            tol=opt.energy_tol,
            options={"maxiter": max(opt.max_evaluations, circuit.n_params + 2),
                     "rhobeg": OPTIMIZER_INITIAL_STEP},
        )
    except _StopEarly:
        pass
    return best_params, trace
