"""Measurement sampling with depolarizing and readout noise.

Noise placement follows the models exactly: global depolarizing acts on the
outcome *distribution* (where it is analytically exact), readout flips act
per *shot*.  All randomness uses numpy's Philox counter-based generator,
seeded by the caller; :func:`stage_seeds` derives the seeds of one
sampling pass from a master seed (sampling first, readout second).

Outcomes are uint64 basis indices (bit k = qubit k, blocked spin-orbital
order), the statevector's own index type, so up to 64 qubits.  Text
bitstrings (character k = qubit k) appear only in the
``SampleCounts.counts`` view, ``top`` and ``to_csv``.  Where an order
follows the bitstrings (qubit 0 most significant), it is computed as the
numeric order of the bit-reversed index.  Readout draws only for the bits
that can flip: a binomial count of positions under the larger flip rate,
each thinned to its own bit's rate and XORed into its shot.
"""

from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .dets import basis_indices, bitstring_of_index, determinants
from .errors import TooLarge

PRUNE_TOL = 1e-16
# shots per readout pass; bounds the candidate positions held at once
READOUT_BLOCK = 1 << 14
# peak memory per shot: about 18 B when outcomes repeat (0.3 GB at the cap),
# up to about 100 B in `sample` when every shot differs (1.6 GB)
MAX_SHOTS = 1 << 24


@dataclass
class NoiseModel:
    """Global depolarizing strength plus per-qubit readout flip rates; a
    per-gate error rate gives the strength through
    :func:`per_gate_depolarizing`."""

    depolarizing_p: float = 0.0
    readout_eps0: float = 0.0
    readout_eps1: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_p", "readout_eps0", "readout_eps1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def has_readout(self):
        return self.readout_eps0 > 0.0 or self.readout_eps1 > 0.0


@dataclass
class Distribution:
    """Outcome probabilities over listed basis indices plus a uniform floor.

    ``index`` holds distinct basis indices and ``probs`` their
    probabilities.  Every unlisted index carries exactly ``unlisted_floor``
    probability; ``residual_mass`` is the total over all unlisted indices.
    ``index`` is held as uint64 and ``probs`` as float (see ``_listed``).
    """

    index: np.ndarray
    probs: np.ndarray
    n_qubits: int
    unlisted_floor: float = 0.0

    def __post_init__(self):
        self.index, self.probs = _listed(self.index, self.probs, float,
                                         self.n_qubits)

    @property
    def residual_mass(self):
        return self.unlisted_floor * ((1 << self.n_qubits) - self.index.size)


@dataclass
class SampleCounts:
    """Shot counts over distinct basis indices: ``shots[i]`` shots landed
    on ``index[i]``.  ``index`` is held as uint64 and ``shots`` as int64
    (see ``_listed``)."""

    index: np.ndarray
    shots: np.ndarray
    n_qubits: int

    def __post_init__(self):
        self.index, self.shots = _listed(self.index, self.shots, np.int64,
                                         self.n_qubits)
        if np.any(self.shots < 0):
            raise ValueError("shot counts must be nonnegative")

    @property
    def total_shots(self):
        return int(self.shots.sum())

    @property
    def counts(self):
        """Read-only ``{bitstring: count}`` view."""
        return MappingProxyType(dict(self._text(slice(None))))

    def top(self, k):
        if k < 0:
            raise ValueError(f"top count must be nonnegative, got {k}")
        return self._text(self._ranked()[:k])

    def to_csv(self):
        rows = [f"{s},{c}\n" for s, c in self._text(self._ranked())]
        return "bitstring,count\n" + "".join(rows)

    def _ranked(self):
        """Positions by descending count, then ascending bitstring."""
        return _lex_order(self.index, self.n_qubits, -self.shots)

    def _text(self, positions):
        return [
            (bitstring_of_index(i, self.n_qubits), c)
            for i, c in zip(
                self.index[positions].tolist(), self.shots[positions].tolist()
            )
        ]


def _listed(index, values, dtype, n_qubits):
    """``basis_indices(index)`` and ``values`` as a ``dtype`` array, one value
    per index (ValueError otherwise or if an index repeats)."""
    index = basis_indices(index, n_qubits)
    values = np.asarray(values, dtype=dtype)
    if values.shape != index.shape:
        raise ValueError("need one value per listed basis index")
    ordered = np.sort(index, kind="stable")  # O(N) on sorted indices
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("listed basis indices must be distinct")
    return index, values


# _BIT_REVERSED[b] is byte b with its eight bits in reverse order
_BIT_REVERSED = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8
)


def _lex_order(index, n_qubits, *first):
    """Positions sorting distinct basis indices as their bitstrings sort
    (qubit 0 most significant), after the keys ``first`` when given, the
    last key primary (as ``np.lexsort`` ranks keys).

    Bitstring order is numeric order of the bit-reversed index: reverse
    the bits of each little-endian byte, read the bytes back big-endian,
    and shift the n_qubits reversed bits down.
    """
    raw = np.ascontiguousarray(index, dtype="<u8").view(np.uint8)
    rev = _BIT_REVERSED.take(raw).view(">u8").astype(np.uint64)
    # distinct keys have one order, so the fastest sort finds it; each key
    # of ``first`` then reorders stably on top
    order = np.argsort(rev >> np.uint64(64 - n_qubits))
    for key in first:
        order = order[np.argsort(key[order], kind="stable")]
    return order


def per_gate_depolarizing(per_gate_pg, n_2q):
    """The global depolarizing strength of ``n_2q`` two-qubit gates that
    each depolarize at ``per_gate_pg``: p = 1 - (1 - p_g)^n_2q."""
    if not 0.0 <= per_gate_pg <= 1.0:
        raise ValueError("per-gate strength outside [0, 1]")
    if n_2q is None or n_2q < 0:
        raise ValueError("a per-gate strength needs a nonnegative two-qubit "
                         f"gate count n_2q, got {n_2q}")
    return 1.0 - (1.0 - per_gate_pg) ** n_2q


def ideal_distribution(state):
    """Born probabilities |amp|^2 of the listed basis states, pruned below
    1e-16."""
    p = np.abs(state.amps) ** 2
    keep = np.flatnonzero(p > PRUNE_TOL)
    return Distribution(
        index=state.index[keep],
        probs=p[keep],
        n_qubits=state.n_qubits,
    )


def depolarize_distribution(dist, p):
    """Mix with the maximally mixed distribution at strength p.

    Listed entries become (1-p) p_i + p/2^n; the uniform floor for unlisted
    indices is tracked exactly so cumulative sums over arbitrary index sets
    remain exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength outside [0, 1]")
    d = 1 << dist.n_qubits
    floor = p / d + (1.0 - p) * dist.unlisted_floor
    return Distribution(
        index=dist.index,
        probs=(1.0 - p) * dist.probs + p / d,
        n_qubits=dist.n_qubits,
        unlisted_floor=floor,
    )


def derive_seeds(master_seed, n):
    """Deterministic per-stage 64-bit seeds from one master seed."""
    ss = np.random.SeedSequence(int(master_seed))
    return [int(x) for x in ss.generate_state(n, dtype=np.uint64)]


def stage_seeds(master_seed):
    """The seeds of one sampling pass by stage, in derivation order."""
    return dict(zip(("sample", "readout"), derive_seeds(master_seed, 2)))


def _rng(seed):
    return np.random.Generator(np.random.Philox(int(seed)))


def sample(dist, shots, seed, noise=None):
    """Multinomial draw over the distribution, deterministic per seed.

    Listed outcomes are the multinomial's categories in bitstring order.
    Shots landing in the unlisted residual materialize as uniform random
    indices outside the listed support (rejection sampling).  ``noise`` is
    accepted and not read: the distribution already carries the
    depolarizing part, and readout flips are :func:`apply_readout`'s.
    More than MAX_SHOTS shots raise TooLarge before any is drawn.
    """
    if shots < 1:
        raise ValueError("at least one shot required")
    if shots > MAX_SHOTS:
        raise TooLarge(f"{shots} shots exceed the cap of {MAX_SHOTS}")
    rng = _rng(seed)
    order = _lex_order(dist.index, dist.n_qubits)
    pvals = np.clip(np.append(dist.probs[order], dist.residual_mass), 0.0, None)
    total = pvals.sum()
    if total <= 0:
        raise ValueError("distribution has no probability mass")
    pvals /= total
    drawn = rng.multinomial(shots, pvals)
    listed = np.sort(dist.index)
    outside = [np.zeros(0, dtype=np.uint64)]
    needed = int(drawn[-1])
    while needed > 0:
        batch = rng.integers(0, 1 << dist.n_qubits, size=max(16, 2 * needed),
                             dtype=np.uint64)
        if listed.size:
            at = np.minimum(np.searchsorted(listed, batch), listed.size - 1)
            batch = batch[listed[at] != batch]
        outside.append(batch[:needed])
        needed -= outside[-1].size
    # Listed outcomes are tallied by the draw itself; only the unlisted
    # ones, which no listed index can equal, need counting.
    out_index, out_shots = np.unique(np.concatenate(outside), return_counts=True)
    hit = np.flatnonzero(drawn[:-1])
    index = np.concatenate([dist.index[order[hit]], out_index])
    counts = np.concatenate([drawn[hit], out_shots])
    by_index = np.argsort(index)
    return SampleCounts(index[by_index], counts[by_index], dist.n_qubits)


def apply_readout(sc, model, seed):
    """Flip each measured bit independently: 0→1 with eps0, 1→0 with eps1.

    Shots are read out in bitstring order, READOUT_BLOCK at a time.  Of a
    block's shots × n (shot, qubit) positions, a binomial(shots × n, q)
    count of distinct ones is drawn at q = max(eps0, eps1), and each flips
    when its uniform is below its own bit's rate over q, so the larger-rate
    bits flip at every candidate.  The draws number about q × shots × n.
    """
    if not model.has_readout:
        return sc
    rng = _rng(seed)
    n = sc.n_qubits
    eps = np.array([model.readout_eps0, model.readout_eps1])
    q = eps.max()
    ratio = eps / q
    order = _lex_order(sc.index, n)
    read = np.repeat(sc.index[order], sc.shots[order])
    for start in range(0, read.size, READOUT_BLOCK):
        block = read[start:start + READOUT_BLOCK]
        bits = block.size * n
        candidate = rng.choice(bits, rng.binomial(bits, q), replace=False)
        u = rng.random(candidate.size)
        shot, qubit = np.divmod(candidate.astype(np.uint64), n)
        keep = u < ratio[block[shot] >> qubit & 1]
        np.bitwise_xor.at(block, shot[keep], np.uint64(1) << qubit[keep])
    return SampleCounts(*np.unique(read, return_counts=True), n)


def symmetry_filter(sc, n_alpha, n_beta):
    """Keep outcomes whose alpha/beta block popcounts match the target
    sector.

    Returns (filtered counts, rejected shot count); ValueError on odd n_qubits.
    """
    if sc.n_qubits % 2:
        raise ValueError(f"a {sc.n_qubits}-qubit register has no alpha and "
                         "beta halves")
    half = sc.n_qubits // 2
    keep = (np.bitwise_count(sc.index & ((1 << half) - 1)) == n_alpha) & (
        np.bitwise_count(sc.index >> half) == n_beta
    )
    filtered = replace(sc, index=sc.index[keep], shots=sc.shots[keep])
    return filtered, int(sc.shots[~keep].sum())


def counts_to_masks(sc, n_orbitals):
    """The (N, 2) ``[alpha, beta]`` mask rows of the counted outcomes by
    descending count, then ascending bitstring (ValueError unless the
    counts span 2 * n_orbitals qubits)."""
    if 2 * n_orbitals != sc.n_qubits:
        raise ValueError(f"{sc.n_qubits}-qubit counts do not hold "
                         f"{n_orbitals}-orbital determinants")
    index = sc.index[sc._ranked()]
    alpha = index & np.uint64((1 << n_orbitals) - 1)
    return np.column_stack([alpha, index >> np.uint64(n_orbitals)])


def counts_to_determinants(sc, n_orbitals):
    """``counts_to_masks`` as a Determinant list."""
    return determinants(counts_to_masks(sc, n_orbitals))
