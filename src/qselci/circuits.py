"""Ansatz circuits over determinant-pair excitation rotations.

A circuit prepares a reference determinant and applies an ordered gate list.
Gate kinds:

* ``ExcitationRotation`` — exp(theta (tau - tau^dag)) for one excitation
  string; carries a parameter slot.
* ``OrbitalRotation``    — a parameterized Givens pair on spatial orbitals
  (p, q), applied to both spin channels.
* ``JastrowPhase``       — diagonal phase exp(i angle n_p n_q) on a pair of
  spin-orbital qubits (p = q gives a single-qubit number phase); fixed angle.
* ``BasisRotationLayer`` — whole-register single-particle rotation compiled
  from a real antisymmetric generator kappa (optionally inverted).

Qubit index = blocked spin-orbital index.  Gate-list order is application
order (the first gate acts on the reference first).
"""

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dets import (Determinant, ExcitationOp, _bits, determinants, rank_order,
                   string_sign)
from .errors import EmptySelection, ShapeMismatch, TooLarge, ZeroRank

GATE_EXCITATION = "ExcitationRotation"
GATE_ORBITAL = "OrbitalRotation"
GATE_JASTROW = "JastrowPhase"
GATE_BASIS = "BasisRotationLayer"

# A USCI gate takes about 0.45 KB and 11 us to build in the block and
# 0.2 KB and 2 us in a repeat (Intel Xeon, one BLAS thread): the cap holds
# a circuit to about 45 MB and 1 s, far past the largest fixture circuit
# (585 gates) and the few hundred gates of bounds.gate_budget.
MAX_GATES = 10**5


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    qubits: tuple
    param_slot: int = None
    excitation: ExcitationOp = None
    angle: float = None
    kappa: np.ndarray = None
    inverse: bool = False
    layer: int = 0

    def __post_init__(self):
        if self.kappa is not None:  # copied read-only: compiled programs keep it
            object.__setattr__(self, "kappa", np.array(self.kappa, dtype=float))
            self.kappa.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Frozen, so that what ``simulator.apply_circuit`` compiles stays valid."""

    n_qubits: int
    gates: tuple
    n_params: int
    layers: int
    reference: Determinant
    n_orbitals: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.n_qubits or q < 0 for q in g.qubits):
                raise ValueError(f"gate touches qubit outside register: {g.qubits}")
        slots = {g.param_slot for g in self.gates if g.param_slot is not None}
        if slots != set(range(self.n_params)):
            raise ValueError(f"n_params={self.n_params} but the slots used "
                             f"are not 0..{self.n_params - 1}")

    def to_json(self):
        gates = []
        for g in self.gates:
            entry = {
                "kind": g.kind,
                "qubits": list(g.qubits),
                "param_slot": g.param_slot,
                "layer": g.layer,
            }
            if g.excitation is not None:
                entry["excitation"] = {
                    "annihilated": list(g.excitation.annihilated),
                    "created": list(g.excitation.created),
                    "phase": g.excitation.phase,
                }
            if g.angle is not None:
                entry["angle"] = g.angle
            if g.kappa is not None:
                entry["kappa"] = np.asarray(g.kappa).tolist()
                entry["inverse"] = g.inverse
            gates.append(entry)
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "n_orbitals": self.n_orbitals,
                "n_params": self.n_params,
                "layers": self.layers,
                "reference": self.reference.to_bitstring(self.n_orbitals),
                "gates": gates,
            },
            sort_keys=True,
            indent=1,
        )


def gate_counts(circuit):
    """Summary in the shape of a resource table: per-kind counts, parameter
    count, greedy qubit-disjoint depth, and active support size."""
    free_at = {}
    depth = 0
    for g in circuit.gates:
        start = max((free_at.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            free_at[q] = start + 1
        depth = max(depth, start + 1)
    return {
        "n_gates": len(circuit.gates),
        "by_kind": dict(Counter(g.kind for g in circuit.gates)),
        "n_params": circuit.n_params,
        "layers": circuit.layers,
        "depth": depth,
        "active_support": len(free_at),  # every qubit a gate touched
        "n_qubits": circuit.n_qubits,
    }


# ------------------------------------------------------------- prescreening

def prescreen(seed, cutoff, top_m=None):
    """Determinants of a seed wavefunction ranked by |coefficient|.

    Descending |c| rounded to 12 decimals, ties broken by ascending (alpha,
    beta) bitmasks; entries below ``cutoff`` dropped; at most ``top_m``
    kept.  The first determinant is the reference of any circuit built from
    the selection.
    """
    if top_m is not None and top_m < 1:
        raise ValueError(f"top_m must be positive, got {top_m}")
    masks, size = seed.masks, np.abs(seed.coeffs)
    ranked = rank_order(masks, size)
    kept = ranked[size[ranked] >= cutoff][:top_m]
    if not kept.size:
        raise EmptySelection(f"no amplitude at or above cutoff {cutoff}")
    return determinants(masks[kept])


# ------------------------------------------------- excitation decomposition

def decompose_excitation(reference, target, n_orbitals):
    """Split the reference→target excitation into rank-1/2 steps.

    Annihilated and created spin orbitals are matched in ascending-index
    order; the lowest pairs are grouped into doubles first, so rank 3 gives
    [double, single], rank 4 [double, double], rank 5 [double, double,
    single].  Each step's phase is computed on the determinant it acts on
    (the reference with the earlier steps applied), so replaying the steps
    maps reference to target.
    """
    if (target.n_alpha, target.n_beta) != (reference.n_alpha, reference.n_beta):
        raise ValueError("target is not in the reference's (n_alpha, n_beta) sector")
    index, goal = reference.to_index(n_orbitals), target.to_index(n_orbitals)
    if index == goal:
        raise ZeroRank("reference and target are identical")
    holes, particles = _bits(index & ~goal), _bits(goal & ~index)
    steps = []
    for pos in range(0, len(holes), 2):
        ann, cre = tuple(holes[pos:pos + 2]), tuple(particles[pos:pos + 2])
        steps.append(ExcitationOp(n_orbitals, ann, cre,
                                  string_sign(index, ann, cre)))
        index ^= sum(1 << s for s in ann + cre)
    return steps


# --------------------------------------------------------- circuit builders

def build_usci(
    reference,
    selected,
    n_orbitals,
    layers=1,
    degree_cap=None,
    with_orbital_rotation=False,
):
    """USCI circuit: per block, optional orbital-rotation Givens gates are
    prepended, then one decomposed excitation-rotation sequence per selected
    determinant (in selection order, i.e. descending seed amplitude).

    ``degree_cap`` limits the number of distinct partner qubits an excitation
    gate may give any single qubit within one block; gates that would exceed
    it are skipped.  The block is built once and repeated ``layers`` times;
    each repeat carries its own parameter slots, block gate k of layer l
    taking slot l * len(block) + k.  Raises TooLarge, before any gate is
    made, when the layers would hold more than ``MAX_GATES`` gates (an empty
    block counts as one, so the layer loop stays bounded too).
    """
    if layers < 1:
        raise ValueError(f"layers must be at least 1, got {layers}")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree_cap must be nonnegative, got {degree_cap}")
    if not selected:
        raise EmptySelection("empty determinant selection")
    if selected[0] != reference:
        raise ValueError("reference must be the first selected determinant")
    n_qubits = 2 * n_orbitals
    block = []  # (kind, qubits, excitation) rows
    if with_orbital_rotation:
        block += [(GATE_ORBITAL, (q, p, n_orbitals + q, n_orbitals + p), None)
                  for p in range(1, n_orbitals) for q in range(p)]
    partners = {q: set() for q in range(n_qubits)}
    for target in selected[1:]:
        for op in decompose_excitation(reference, target, n_orbitals):
            qubits = tuple(sorted(op.annihilated + op.created))
            if degree_cap is not None and _exceeds_cap(
                qubits, partners, degree_cap
            ):
                continue
            for q in qubits:
                partners[q].update(set(qubits) - {q})
            block.append((GATE_EXCITATION, qubits, op))
    if layers * max(len(block), 1) > MAX_GATES:
        raise TooLarge(f"{layers} layers pass the {MAX_GATES}-gate cap "
                       f"(per-layer gate count {len(block)})")
    gates = [Gate(kind=kind, qubits=qubits, param_slot=layer * len(block) + k,
                  excitation=excitation, layer=layer)
             for layer in range(layers)
             for k, (kind, qubits, excitation) in enumerate(block)]
    return Circuit(
        n_qubits=n_qubits,
        gates=gates,
        n_params=len(gates),
        layers=layers,
        reference=reference,
        n_orbitals=n_orbitals,
    )


def _exceeds_cap(qubits, partners, cap):
    group = set(qubits)
    return any(len(partners[q] | (group - {q})) > cap for q in qubits)


def build_lucj(K, J, reference):
    """One layer of the cluster-Jastrow baseline: e^K e^{iJ} e^{-K}.

    ``K`` is a real antisymmetric n×n generator applied to both spin
    channels; ``J`` is a real symmetric 2n×2n tensor over spin-orbital
    pairs; every entry of both must be finite.  Gate order is application
    order, so the e^{-K} basis rotation comes first.  All angles are baked
    in: n_params = 0.
    """
    K = np.asarray(K, dtype=float)
    J = np.asarray(J, dtype=float)
    n = K.shape[0]
    if not (np.isfinite(K).all() and np.isfinite(J).all()):
        raise ShapeMismatch("K and J must be finite")
    if K.shape != (n, n) or np.abs(K + K.T).max() > 1e-12:
        raise ShapeMismatch("K must be real antisymmetric n x n")
    if J.shape != (2 * n, 2 * n) or np.abs(J - J.T).max() > 1e-12:
        raise ShapeMismatch("J must be real symmetric 2n x 2n")
    all_qubits = tuple(range(2 * n))
    gates = [Gate(kind=GATE_BASIS, qubits=all_qubits, kappa=K, inverse=True)]
    gates += [Gate(kind=GATE_JASTROW, qubits=(p, q), angle=float(J[p, q]))
              for p, q in np.argwhere(np.triu(J)).tolist()]
    gates.append(Gate(kind=GATE_BASIS, qubits=all_qubits, kappa=K, inverse=False))
    return Circuit(
        n_qubits=2 * n,
        gates=gates,
        n_params=0,
        layers=1,
        reference=reference,
        n_orbitals=n,
    )


# ------------------------------------------------------------ qubit mapping

def jordan_wigner(op, n_qubits):
    """Pauli expansion of the anti-Hermitian generator tau - tau^dag.

    Returns a list of (coefficient, label-string) pairs sorted by label;
    coefficients are purely imaginary (i times a real number).  Character k
    of a label is the Pauli acting on qubit k.

    Terms are multiplied in the symplectic form c X^x Z^z with bitmasks
    x, z: (x1, z1)(x2, z2) = (-1)^popcount(z1 & x2) (x1 ^ x2, z1 ^ z2), and
    a_s / a^dag_s = Z_{<s} X_s (1 -/+ Z_s) / 2.  tau has real c, and
    (X^x Z^z)^dag = (-1)^popcount(x & z) X^x Z^z, so tau - tau^dag keeps the
    terms with an odd popcount(x & z), at 2c.  Per qubit XZ = -iY, so a
    kept term's label coefficient is 2c (-i)^popcount(x & z).
    """
    if any(s >= n_qubits for s in op.annihilated + op.created):
        raise ValueError(f"excitation acts on a qubit outside {n_qubits} qubits")
    factors = [(s, 0.5) for s in reversed(op.created)]
    factors += [(s, -0.5) for s in reversed(op.annihilated)]
    # The orbitals are distinct, so no two of the products share (x, z).
    product = [(0, 0, float(op.phase))]
    for s, z_coeff in factors:
        bit = 1 << s
        product = [(x ^ bit, z ^ z_factor, (-c if z & bit else c) * f)
                   for x, z, c in product
                   for z_factor, f in ((bit - 1, 0.5), ((bit << 1) - 1, z_coeff))]
    terms = []
    for x, z, c in product:
        y = (x & z).bit_count()
        if y % 2 and c:
            label = "".join("IXZY"[(x >> k & 1) | (z >> k & 1) << 1]
                            for k in range(n_qubits))
            anti = np.complex128(complex(0, 2 * c if y % 4 == 3 else -2 * c))
            terms.append((anti, label))
    terms.sort(key=lambda t: t[1])
    return terms
