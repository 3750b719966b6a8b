"""Measurement sampling with depolarizing and readout noise.

Noise placement follows the models exactly: global depolarizing acts on the
outcome *distribution* (where it is analytically exact), readout flips act
per *shot*.  All randomness uses numpy's Philox counter-based generator with
the seed recorded in the returned counts.

Bitstring text form: character k is qubit k (blocked spin-orbital order),
i.e. bit k of the amplitude index.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dets import Determinant
from .errors import EmptyPool

PRUNE_TOL = 1e-16


def bitstring_of_index(idx, n_qubits):
    return format(idx, f"0{n_qubits}b")[::-1]


def index_of_bitstring(s):
    return int(s[::-1], 2)


@dataclass
class NoiseModel:
    """Global depolarizing strength plus per-qubit readout flip rates.

    If ``per_gate_pg`` is given, the aggregate strength is derived from the
    two-qubit gate count, which must then be given too:
    p = 1 - (1 - p_g)^n_2q.
    """

    depolarizing_p: float = 0.0
    per_gate_pg: float = None
    n_2q: int = None
    readout_eps0: float = 0.0
    readout_eps1: float = 0.0

    def __post_init__(self):
        if self.per_gate_pg is not None:
            if not 0.0 <= self.per_gate_pg <= 1.0:
                raise ValueError("per-gate strength outside [0, 1]")
            if self.n_2q is None or self.n_2q < 0:
                raise ValueError(
                    "a per-gate strength needs a nonnegative two-qubit gate "
                    f"count n_2q, got {self.n_2q}"
                )
            self.depolarizing_p = 1.0 - (1.0 - self.per_gate_pg) ** self.n_2q
        for name in ("depolarizing_p", "readout_eps0", "readout_eps1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def has_readout(self):
        return self.readout_eps0 > 0.0 or self.readout_eps1 > 0.0


@dataclass
class Distribution:
    """Outcome probabilities over listed bitstrings plus a uniform floor.

    Every string not in ``probs`` carries exactly ``unlisted_floor``
    probability; ``residual_mass`` is the total over all unlisted strings.
    """

    probs: dict
    n_qubits: int
    residual_mass: float = 0.0
    unlisted_floor: float = 0.0

    def probability_of(self, bitstring):
        return self.probs.get(bitstring, self.unlisted_floor)

    def cumulative(self, bitstrings):
        return float(sum(self.probability_of(s) for s in set(bitstrings)))

    def total(self):
        return float(sum(self.probs.values()) + self.residual_mass)


@dataclass
class SampleCounts:
    counts: dict
    total_shots: int
    seed: int
    noise: NoiseModel = None

    def __post_init__(self):
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts do not sum to total_shots")

    def top(self, k):
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def to_csv(self):
        lines = ["bitstring,count"]
        for s, c in sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{s},{c}")
        return "\n".join(lines) + "\n"


def ideal_distribution(state):
    """Born probabilities |amp|^2, pruned below 1e-16."""
    p = np.abs(state.amps) ** 2
    keep = np.nonzero(p > PRUNE_TOL)[0]
    probs = {
        bitstring_of_index(int(i), state.n_qubits): float(p[i]) for i in keep
    }
    return Distribution(probs=probs, n_qubits=state.n_qubits)


def depolarize_distribution(dist, p):
    """Mix with the maximally mixed distribution at strength p.

    Listed entries become (1-p) p_i + p/2^n; the uniform floor for unlisted
    strings is tracked exactly so cumulative sums over arbitrary string sets
    remain exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength outside [0, 1]")
    d = 1 << dist.n_qubits
    floor = p / d + (1.0 - p) * dist.unlisted_floor
    probs = {s: (1.0 - p) * q + p / d for s, q in dist.probs.items()}
    residual = floor * (d - len(probs))
    return Distribution(
        probs=probs,
        n_qubits=dist.n_qubits,
        residual_mass=residual,
        unlisted_floor=floor,
    )


def _rng(seed):
    return np.random.Generator(np.random.Philox(int(seed)))


def sample(dist, shots, seed, noise=None):
    """Multinomial draw over the distribution, deterministic per seed.

    Shots landing in the unlisted residual materialize as uniform random
    bitstrings outside the listed support (rejection sampling).
    """
    if shots < 1:
        raise ValueError("at least one shot required")
    rng = _rng(seed)
    strings = sorted(dist.probs)
    pvals = np.array([dist.probs[s] for s in strings] + [dist.residual_mass])
    pvals = np.clip(pvals, 0.0, None)
    total = pvals.sum()
    if total <= 0:
        raise ValueError("distribution has no probability mass")
    pvals /= total
    drawn = rng.multinomial(shots, pvals)
    counts = Counter()
    for s, c in zip(strings, drawn[:-1]):
        if c:
            counts[s] = int(c)
    n_residual = int(drawn[-1])
    if n_residual:
        support = set(strings)
        d = 1 << dist.n_qubits
        needed = n_residual
        while needed > 0:
            batch = rng.integers(0, d, size=max(16, 2 * needed))
            for idx in batch:
                s = bitstring_of_index(int(idx), dist.n_qubits)
                if s not in support:
                    counts[s] += 1
                    needed -= 1
                    if needed == 0:
                        break
    return SampleCounts(
        counts=dict(counts), total_shots=shots, seed=int(seed), noise=noise
    )


def apply_readout(sc, model, seed):
    """Flip each measured bit independently: 0→1 with eps0, 1→0 with eps1."""
    eps0, eps1 = model.readout_eps0, model.readout_eps1
    if eps0 == 0.0 and eps1 == 0.0:
        return SampleCounts(
            counts=dict(sc.counts),
            total_shots=sc.total_shots,
            seed=int(seed),
            noise=model,
        )
    rng = _rng(seed)
    out = Counter()
    for s, c in sorted(sc.counts.items()):
        bits = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")
        u = rng.random(size=(c, bits.size))
        flip = np.where(bits[None, :] == 0, u < eps0, u < eps1)
        flipped = np.where(flip, 1 - bits[None, :], bits[None, :])
        for row in flipped:
            out["".join("1" if b else "0" for b in row)] += 1
    return SampleCounts(
        counts=dict(out), total_shots=sc.total_shots, seed=int(seed), noise=model
    )


def symmetry_filter(sc, n_alpha, n_beta):
    """Keep strings whose alpha/beta block popcounts match the target sector.

    Returns (filtered counts, rejected shot count).
    """
    kept = {}
    rejected = 0
    for s, c in sc.counts.items():
        half = len(s) // 2
        if s[:half].count("1") == n_alpha and s[half:].count("1") == n_beta:
            kept[s] = c
        else:
            rejected += c
    filtered = SampleCounts(
        counts=kept,
        total_shots=sc.total_shots - rejected,
        seed=sc.seed,
        noise=sc.noise,
    )
    return filtered, rejected


def counts_to_determinants(sc, n_orbitals):
    """Unique determinants of a counts map, descending frequency then
    ascending bitmask (deterministic)."""
    items = sorted(sc.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [Determinant.from_bitstring(s) for s, _ in items]


def spin_factorized_combine(alpha_pool, beta_pool, cap=None):
    """Combine per-spin determinant pools in the product space.

    Pools are sequences of Determinants (the relevant spin's mask is used;
    repeats encode observed frequency) or {mask: frequency} dicts.  Pairs are
    ranked by descending frequency product, tie-broken by ascending masks,
    and truncated to ``cap``.
    """
    a_freq = _pool_frequencies(alpha_pool, "alpha")
    b_freq = _pool_frequencies(beta_pool, "beta")
    if not a_freq or not b_freq:
        raise EmptyPool("both spin pools must be non-empty")
    pairs = [
        (fa * fb, a, b)
        for a, fa in a_freq.items()
        for b, fb in b_freq.items()
    ]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    if cap is not None:
        pairs = pairs[:cap]
    return [Determinant(alpha=a, beta=b) for _, a, b in pairs]


def _pool_frequencies(pool, channel):
    if isinstance(pool, dict):
        return {int(k): float(v) for k, v in pool.items()}
    freq = Counter()
    for entry in pool:
        mask = getattr(entry, channel) if isinstance(entry, Determinant) else int(entry)
        freq[mask] += 1
    return dict(freq)
