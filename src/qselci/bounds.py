"""Closed-form resource and error bounds for the sampling pipeline, with
Monte-Carlo validation of the concentration inequalities.

Quantities covered: deterministic truncation error from retained ground-state
weight, the noisy measured cumulative weight and its inversion, Hoeffding
confidence radii and the resulting certified energy bound, top-R selection
failure probability and the shot count that suppresses it, the combined
expected-error bound, the direct depolarizing energy bias, and the
uniform-sampling probability / two-qubit gate budget for a CAS space.

Large binomials are evaluated through log-gamma: the squared binomial over
4^n underflows direct double-precision evaluation for large active spaces.
All logarithms are natural; the base cancels in the gate-budget ratio.
"""

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dets import det_masks, row_keys
from .errors import FullDepolarization, ZeroGap
from .sampling import _rng


# ---------------------------------------------------------------------------
# inputs / report containers
# ---------------------------------------------------------------------------

@dataclass
class BoundInputs:
    """Scalar inputs for the bound formulas.  Leave fields None when a
    quantity is unknown; report entries needing them stay None."""

    q_r: float = None            # exact retained ground-state weight
    lambda_h: float = None       # spectral half-width (Hartree)
    p: float = 0.0               # global depolarizing strength
    r: int = None                # retained-set size
    d: int = None                # full-space dimension 2^n
    m_shots: int = None          # measurement shots
    delta: float = None          # confidence parameter
    zeta_r: float = 0.0          # circuit-distribution mismatch allowance
    delta_r: float = None        # noisy boundary probability gap
    k_pool: int = None           # candidate-pool size
    f_2q: float = None           # two-qubit survival fidelity
    n_orbitals: int = None       # CAS spatial orbitals
    m_electrons: int = None      # CAS electrons (closed shell)
    n_alpha: int = None          # CAS alpha electrons (open shell)
    n_beta: int = None           # CAS beta electrons (open shell)
    p_hat_r: float = None        # measured cumulative weight estimate
    gap_id: float = None         # ideal boundary probability gap

    def __post_init__(self):
        for name in ("q_r", "p", "delta", "f_2q"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("r", "d", "m_shots", "k_pool", "n_orbitals",
                     "m_electrons"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be a positive count, got {v}")
        for name in ("n_alpha", "n_beta"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be a nonnegative count, got {v}")
        # an empty sector has no uniform-hit probability to budget against
        n = self.n_orbitals
        if n is not None:
            for name, cap in (("m_electrons", 2 * n), ("n_alpha", n),
                              ("n_beta", n)):
                v = getattr(self, name)
                if v is not None and v > cap:
                    raise ValueError(
                        f"{name}={v} exceeds the {cap} spin orbitals it can "
                        f"occupy in n_orbitals={n}"
                    )
        if self.r is not None and self.d is not None and self.r > self.d:
            raise ValueError("retained-set size exceeds the space dimension")


@dataclass
class BoundReport:
    truncation_bound: float = None
    epsilon_m: float = None
    q_r_lower: float = None
    energy_bound_confident: float = None
    selection_failure: float = None
    required_shots: int = None
    expected_error: float = None
    direct_noise_bias: float = None
    p_u: float = None
    n_g_max: int = None
    zeta_r_assumed_zero: bool = True
    zero_retained_weight: bool = False

    def __post_init__(self):
        for name in ("selection_failure", "p_u", "q_r_lower"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0 + 1e-15:
                raise ValueError(f"report probability {name} outside [0,1]: {v}")
        for name in ("truncation_bound", "epsilon_m", "energy_bound_confident",
                     "expected_error", "direct_noise_bias"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v < math.inf:
                raise ValueError(
                    f"report bound {name} is not finite and nonnegative: {v}")

    def to_json_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# weight and truncation
# ---------------------------------------------------------------------------

def retained_weight(ground, subset):
    """Squared ground-state amplitude captured by a determinant subset,
    given as Determinant objects or (N, 2) mask rows; the weights add in
    ground order."""
    hit = np.isin(row_keys(ground.masks), row_keys(det_masks(subset)))
    return float(np.cumsum(np.append(0.0, ground.coeffs[hit] ** 2))[-1])


def truncation_bound(lambda_h, q_r):
    """Worst-case energy error of diagonalizing within a subspace holding
    ground-state weight q_r: min{2L, 2L*sqrt(2 - 2*sqrt(q_r))}."""
    if not 0.0 <= q_r <= 1.0:
        raise ValueError(f"retained weight must lie in [0, 1], got {q_r}")
    if lambda_h < 0.0:
        raise ValueError("spectral half-width must be nonnegative")
    if q_r == 0.0:
        warnings.warn(
            "zero retained weight: truncation bound degenerates to the "
            "full spectral width 2*lambda_h",
            stacklevel=2,
        )
        return 2.0 * lambda_h
    return min(2.0 * lambda_h,
               2.0 * lambda_h * math.sqrt(max(0.0, 2.0 - 2.0 * math.sqrt(q_r))))


# ---------------------------------------------------------------------------
# depolarizing mixing of cumulative weights
# ---------------------------------------------------------------------------

def noisy_cumulative(p_r_id, p, r, d):
    """Cumulative probability of an R-set after global depolarizing mixing:
    (1-p)*P_id + p*R/d."""
    return (1.0 - p) * p_r_id + p * r / d


# ---------------------------------------------------------------------------
# finite-shot confidence
# ---------------------------------------------------------------------------

def hoeffding_epsilon(m_shots, delta):
    """Two-sided Hoeffding radius for an empirical mean of m_shots draws."""
    if m_shots < 1:
        raise ValueError("shot count must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("confidence parameter must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m_shots))


def confident_weight_lower(p_hat_r, epsilon, p, r, d, zeta_r=0.0):
    """High-confidence lower bound on the retained ideal weight given the
    measured cumulative estimate; at ``epsilon`` 0 it inverts
    ``noisy_cumulative``, minus the mismatch allowance, clamped to [0, 1]."""
    if p >= 1.0:
        raise FullDepolarization(
            "depolarizing strength 1 destroys all signal; weight inversion "
            "is undefined"
        )
    value = (p_hat_r - epsilon - p * r / d) / (1.0 - p) - zeta_r
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# top-R selection reliability
# ---------------------------------------------------------------------------

def selection_failure(m_shots, k_pool, delta_r):
    """Union-bound probability of misranking the top-R set:
    min{1, 2K*exp(-M*Delta^2/2)}."""
    if delta_r <= 0.0:
        raise ZeroGap(
            "boundary probability gap must be positive for the selection "
            "bound"
        )
    return min(1.0, 2.0 * k_pool * math.exp(-m_shots * delta_r ** 2 / 2.0))


def required_shots(k_pool, delta, p, gap_id):
    """Smallest shot count guaranteeing top-R recovery with probability
    1 - delta, given the ideal boundary gap; the noisy gap is (1-p)*gap_id."""
    if gap_id <= 0.0:
        raise ZeroGap(
            "ideal boundary probability gap must be positive to size the "
            "shot budget"
        )
    if p >= 1.0:
        raise FullDepolarization(
            "depolarizing strength 1 leaves no gap to resolve"
        )
    if not 0.0 < delta < 1.0:
        raise ValueError("confidence parameter must lie in (0, 1)")
    scale = (1.0 - p) ** 2 * gap_id ** 2  # underflows to 0 for a tiny gap
    value = 2.0 * math.log(2.0 * k_pool / delta) / scale if scale else math.inf
    if math.isinf(value):
        raise ValueError(
            f"the required shot count is not finite ({value}) for "
            f"k_pool={k_pool}, delta={delta}, p={p}, gap_id={gap_id}"
        )
    return int(math.ceil(value))


# ---------------------------------------------------------------------------
# combined expected error and direct bias
# ---------------------------------------------------------------------------

def expected_error_bound(inputs):
    """Truncation error plus the selection-failure contribution:
    bound = truncation + 4*K*Lambda*exp(-M*(1-p)^2*gap^2/2)."""
    base = truncation_bound(inputs.lambda_h, inputs.q_r)
    tail = 4.0 * inputs.k_pool * inputs.lambda_h * math.exp(
        -inputs.m_shots * (1.0 - inputs.p) ** 2 * inputs.gap_id ** 2 / 2.0
    )
    return base + tail


def direct_noise_bias(p, lambda_h):
    """Worst-case energy shift of a globally depolarized state: 2*p*Lambda."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    if lambda_h < 0.0:
        raise ValueError("spectral half-width must be nonnegative")
    return 2.0 * p * lambda_h


# ---------------------------------------------------------------------------
# uniform-sampling probability and gate budget
# ---------------------------------------------------------------------------

def log_binomial(n, k):
    """Natural log of C(n, k) through log-gamma."""
    if k < 0 or k > n:
        return -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def log_uniform_probability(n, m=None, n_alpha=None, n_beta=None):
    """Natural log of the probability that a uniformly random bit string of
    2n bits lands in the (n_alpha, n_beta) particle-number sector.

    Pass either the total electron count m (closed shell, split evenly) or
    explicit per-spin counts.
    """
    if m is not None:
        if n_alpha is not None or n_beta is not None:
            raise ValueError("give either m or per-spin counts, not both")
        if m % 2 != 0:
            raise ValueError(
                "total electron count must be even for the closed-shell "
                "form; use per-spin counts otherwise"
            )
        n_alpha = n_beta = m // 2
    if n_alpha is None or n_beta is None:
        raise ValueError("either m or both per-spin counts are required")
    return (log_binomial(n, n_alpha) + log_binomial(n, n_beta)
            - 2.0 * n * math.log(2.0))


def uniform_probability(n, m=None, n_alpha=None, n_beta=None):
    """Sector-hit probability of a uniformly random 2n-bit string."""
    return math.exp(log_uniform_probability(n, m, n_alpha, n_beta))


def gate_budget(f_2q, n, m=None, n_alpha=None, n_beta=None):
    """Largest two-qubit gate count whose survival probability still exceeds
    the uniform sector-hit probability: floor(ln P_u / ln F_2q)."""
    if not 0.0 < f_2q < 1.0:
        raise ValueError("two-qubit fidelity must lie strictly in (0, 1)")
    log_pu = log_uniform_probability(n, m, n_alpha, n_beta)
    if log_pu == -math.inf:
        raise ValueError("the particle-number sector is empty")
    return int(math.floor(log_pu / math.log(f_2q)))


# ---------------------------------------------------------------------------
# Monte-Carlo validation
# ---------------------------------------------------------------------------

def _check_trials(trials):
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def mc_hoeffding_violation_rate(p_true, m_shots, delta, trials=10_000,
                                seed=0):
    """Empirical fraction of binomial experiments whose mean misses p_true
    by more than the Hoeffding radius."""
    _check_trials(trials)
    eps = hoeffding_epsilon(m_shots, delta)
    means = _rng(seed).binomial(m_shots, p_true, size=trials) / m_shots
    return int(np.count_nonzero(np.abs(means - p_true) > eps)) / trials


def mc_selection_failure_rate(probs, r, m_shots, trials=1_000, seed=0):
    """Empirical rate at which m_shots multinomial draws fail to rank the
    true top-r outcomes first."""
    _check_trials(trials)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < r:
        raise ValueError("need a 1-D probability vector with at least r entries")
    order = np.argsort(-probs, kind="stable")
    true_top = set(order[:r].tolist())
    draws = _rng(seed).multinomial(m_shots, probs, size=trials)
    ranks = np.argsort(-draws, axis=1, kind="stable")[:, :r]
    return sum(set(row.tolist()) != true_top for row in ranks) / trials


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

def full_report(inputs):
    """Evaluate every bound whose inputs are present, with warnings
    silenced; the rest stay None.  The report is built once from the
    results, so its range checks see every value: a bound that is not
    finite for finite inputs raises ValueError."""
    values = {"zeta_r_assumed_zero": inputs.zeta_r == 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if inputs.lambda_h is not None and inputs.q_r is not None:
            values["zero_retained_weight"] = inputs.q_r == 0.0
            values["truncation_bound"] = truncation_bound(inputs.lambda_h,
                                                          inputs.q_r)
        epsilon = None
        if inputs.m_shots is not None and inputs.delta is not None:
            epsilon = values["epsilon_m"] = hoeffding_epsilon(inputs.m_shots,
                                                              inputs.delta)
        if (epsilon is not None and inputs.r is not None
                and inputs.d is not None and inputs.p < 1.0):
            p_hat = inputs.p_hat_r
            if p_hat is None and inputs.q_r is not None:
                # expected measured value when no measurement is supplied
                p_hat = noisy_cumulative(inputs.q_r, inputs.p, inputs.r, inputs.d)
            if p_hat is not None:
                q_lower = values["q_r_lower"] = confident_weight_lower(
                    p_hat, epsilon, inputs.p, inputs.r, inputs.d, inputs.zeta_r,
                )
                if inputs.lambda_h is not None:
                    values["energy_bound_confident"] = truncation_bound(
                        inputs.lambda_h, q_lower
                    )
        delta_r = inputs.delta_r
        if delta_r is None and inputs.gap_id is not None:
            delta_r = (1.0 - inputs.p) * inputs.gap_id
        if (inputs.m_shots is not None and inputs.k_pool is not None
                and delta_r is not None and delta_r > 0.0):
            values["selection_failure"] = selection_failure(
                inputs.m_shots, inputs.k_pool, delta_r
            )
        if (inputs.k_pool is not None and inputs.delta is not None
                and inputs.gap_id is not None and inputs.gap_id > 0.0
                and inputs.p < 1.0):
            values["required_shots"] = required_shots(
                inputs.k_pool, inputs.delta, inputs.p, inputs.gap_id
            )
        if (inputs.lambda_h is not None and inputs.q_r is not None
                and inputs.k_pool is not None and inputs.m_shots is not None
                and inputs.gap_id is not None):
            values["expected_error"] = expected_error_bound(inputs)
        if inputs.lambda_h is not None:
            values["direct_noise_bias"] = direct_noise_bias(inputs.p,
                                                            inputs.lambda_h)
        electrons = (inputs.m_electrons, inputs.n_alpha, inputs.n_beta)
        if inputs.n_orbitals is not None and electrons != (None, None, None):
            values["p_u"] = uniform_probability(inputs.n_orbitals, *electrons)
            if inputs.f_2q is not None:
                values["n_g_max"] = gate_budget(inputs.f_2q, inputs.n_orbitals,
                                                *electrons)
    return BoundReport(**values)
