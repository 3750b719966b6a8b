"""Generated circuits against the flat-listing oracle.

``apply_circuit`` keeps one compiled program per circuit and listing; these
properties drive it through repeat calls and listing changes on generated
USCI and LUCJ circuits and compare every output byte with
``oracles.flat_apply_circuit``, which finds each gate's pairs by scanning
the whole listing.  The examples are derandomized, so a run always tests
the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qselci.circuits import build_lucj, build_usci
from qselci.dets import Determinant, sector_masks
from qselci.simulator import Statevector, apply_circuit

import helpers
import oracles

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)

# zero skips a rotation; past pi/2 the cosine is negative, which can turn
# a zero amplitude into -0.0
ANGLES = st.one_of(
    st.just(0.0),
    st.floats(math.pi / 2, math.pi, exclude_min=True, exclude_max=True),
    st.floats(-math.pi, math.pi),
)


@st.composite
def sectors(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.integers(0, n)), draw(st.integers(0, n))


@st.composite
def usci_circuits(draw, angles=ANGLES):
    """A USCI circuit over a random selection in a sector of at most four
    orbitals, 1-3 layers (so excitations repeat across layers), and its
    parameters drawn from ``angles``."""
    n, n_alpha, n_beta = draw(sectors())
    masks = sector_masks(n, n_alpha, n_beta)
    picks = draw(st.lists(st.integers(0, len(masks) - 1), min_size=1,
                          max_size=6, unique=True))
    selected = [Determinant(int(a), int(b)) for a, b in masks[picks]]
    circuit = build_usci(selected[0], selected, n,
                         layers=draw(st.integers(1, 3)),
                         with_orbital_rotation=draw(st.booleans()))
    params = draw(st.lists(angles, min_size=circuit.n_params,
                           max_size=circuit.n_params))
    return circuit, np.array(params, dtype=float)


@st.composite
def lucj_circuits(draw):
    """An LUCJ circuit with a random antisymmetric K and symmetric J."""
    n, n_alpha, n_beta = draw(sectors())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(n, n))
    J = rng.normal(size=(2 * n, 2 * n))
    reference = Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)
    return build_lucj(K - K.T, J + J.T, reference), np.zeros(0)


@PROPERTY
@given(st.one_of(usci_circuits(), lucj_circuits()))
def test_apply_circuit_matches_the_flat_oracle_across_listings(drawn):
    circuit, params = drawn
    sector = Statevector.from_determinant(circuit.reference,
                                          circuit.n_orbitals)
    register = Statevector(helpers.full_register(sector), circuit.n_qubits)
    # first call, repeat call, the full register, then the sector again:
    # every listing change compiles the circuit again
    for state in (sector, sector, register, sector):
        want = oracles.flat_apply_circuit(circuit, params, state)
        out = apply_circuit(circuit, params, state)
        assert out.amps.tobytes() == want.tobytes()


@PROPERTY
@given(usci_circuits(angles=st.one_of(st.just(0.0), ANGLES)), st.data())
def test_a_product_sub_listing_raises_where_the_oracle_does(drawn, data):
    # one alpha and one beta string dropped from the sector leave some
    # excitations without a partner: those may rotate only by a zero angle
    circuit, params = drawn
    n = circuit.n_orbitals
    sector = Statevector.from_determinant(circuit.reference, n)
    low = np.uint64((1 << n) - 1)
    strings = []
    for channel in (sector.index >> np.uint64(n), sector.index & low):
        channel = np.unique(channel).tolist()
        if len(channel) > 1:
            channel.remove(data.draw(st.sampled_from(channel)))
        strings.append(channel)
    index = np.array([(b << n) | a for b in strings[0] for a in strings[1]],
                     dtype=np.uint64)
    amps = np.random.default_rng(index.size).normal(size=index.size)
    state = Statevector(amps / np.linalg.norm(amps), circuit.n_qubits, index)
    for _ in range(2):  # the second call runs from the kept program
        try:
            want = oracles.flat_apply_circuit(circuit, params, state)
        except ValueError:
            want = None
        try:
            out = apply_circuit(circuit, params, state).amps
        except ValueError as exc:
            assert "listed basis states" in str(exc)
            out = None
        assert (out is None) == (want is None)
        if want is not None:
            assert out.tobytes() == want.tobytes()
