"""Invariants of ensemble evolution over generated products and Bell pairs.

Single photons are covered in ``test_transit.py``; these check the slot-wise
path: norm across the OAM beamsplitter and the MUX round trip, the reverse
device undoing the forward one, bunching raised exactly when two slots meet
above ``BUNCHING_TOL``, and the symmetry of ``fidelity``.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    BunchingError,
    EnsembleState,
    H,
    ModeLabel,
    ModeSpace,
    PhaseShifter,
    QubitSpec,
    V,
    apply_mode_map,
    demux_receive,
    fidelity,
    make_qubit_photon,
    mux_transmit,
    oambs,
    sbmao,
    tensor,
)
from oamnet.states import BUNCHING_TOL, NORM_TOL, label_key
from oracles import matrix_of_operator

angles = st.floats(0.0, 2 * math.pi, allow_nan=False)


@st.composite
def qubits(draw):
    theta = draw(st.floats(0.0, math.pi / 2, allow_nan=False))
    return QubitSpec(math.cos(theta), cmath.exp(1j * draw(angles)) * math.sin(theta))


@st.composite
def products(draw, dimension, spread=None):
    slots = draw(st.integers(1, min(dimension, 3)))
    paths = draw(st.permutations(range(dimension)))[:slots]
    space = ModeSpace(dimension)
    spread = 2 * dimension if spread is None else spread
    windings = st.integers(-spread, spread)
    return tensor(
        [
            make_qubit_photon(draw(qubits()), path, draw(windings), space)
            for path in paths
        ]
    )


@st.composite
def bell_pairs(draw, dimension, spread=None):
    x, y = draw(st.permutations(range(dimension)))[:2]
    spread = 2 * dimension if spread is None else spread
    windings = st.integers(-spread, spread)
    lx, ly = draw(windings), draw(windings)
    root_half = 1.0 / math.sqrt(2.0)
    return EnsembleState(
        ModeSpace(dimension),
        2,
        {
            (ModeLabel(x, lx, H), ModeLabel(y, ly, V)): root_half,
            (ModeLabel(x, lx, V), ModeLabel(y, ly, H)): cmath.exp(1j * draw(angles))
            * root_half,
        },
    )


@st.composite
def ensembles(draw):
    dimension = draw(st.integers(2, 6))
    return draw(st.one_of(products(dimension), bell_pairs(dimension)))


def norm_sq(state):
    return sum(abs(amp) ** 2 for amp in state.amplitudes.values())


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_norm_is_preserved_across_the_oam_beamsplitter(state):
    dimension = state.space.dimension
    for device in (oambs(dimension), sbmao(dimension)):
        assert abs(norm_sq(apply_mode_map(state, device)) - 1.0) <= NORM_TOL


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_reverse_device_undoes_the_forward_device(state):
    dimension = state.space.dimension
    back = apply_mode_map(apply_mode_map(state, oambs(dimension)), sbmao(dimension))
    keys = set(state.amplitudes) | set(back.amplitudes)
    for key in keys:
        assert abs(back.amplitude(key) - state.amplitude(key)) <= NORM_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(qubits(), min_size=d, max_size=d)))
def test_norm_is_preserved_across_the_mux_round_trip(specs):
    merged = mux_transmit(specs)
    assert abs(norm_sq(merged) - 1.0) <= NORM_TOL
    restored = demux_receive(merged, restore_oam=True)
    assert abs(norm_sq(restored) - 1.0) <= NORM_TOL


def meeting_amplitudes(state, operator):
    """Moduli of the output tuples whose two slots share a label, from the
    Kronecker square of the operator's matrix on the labels it reaches."""
    inputs = {label for key in state.amplitudes for label in key}
    images = {image for label in inputs for image, _ in operator.mode_images(label)}
    labels = sorted(inputs | images, key=label_key)
    index = {label: i for i, label in enumerate(labels)}
    matrix = matrix_of_operator(operator, labels)
    vector = np.zeros(len(labels) ** 2, dtype=complex)
    for (first, second), amp in state.amplitudes.items():
        vector[index[first] * len(labels) + index[second]] = amp
    evolved = np.kron(matrix, matrix) @ vector
    return [abs(evolved[i * len(labels) + i]) for i in range(len(labels))]


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.one_of(
        st.sampled_from([0.0, 1e-13, 1e-12, 1e-11, math.pi / 4, math.pi / 2]),
        st.floats(0.0, math.pi, allow_nan=False),
    ),
    angles,
)
def test_bunching_is_raised_only_when_two_slots_meet(data, theta, phi):
    dimension = data.draw(st.integers(2, 4))
    # windings near 0, so the two photons often share one
    spread = data.draw(st.sampled_from([0, 1]))
    state = data.draw(
        st.one_of(bell_pairs(dimension, spread), products(dimension, spread))
    )
    assume(state.slot_count == 2)
    first, second = next(iter(state.amplitudes))
    splitter = BeamSplitter(first.path, second.path, theta, phi)
    meeting = max(meeting_amplitudes(state, splitter))
    # keep clear of the threshold, where the oracle's rounding could decide
    assume(not 0.99 * BUNCHING_TOL <= meeting <= 1.01 * BUNCHING_TOL)
    try:
        apply_mode_map(state, splitter)
    except BunchingError:
        raised = True
    else:
        raised = False
    event(f"bunching raised: {raised}")
    assert raised == (meeting > BUNCHING_TOL)


@settings(max_examples=150, deadline=None)
@given(st.data(), angles, angles)
def test_fidelity_is_symmetric(data, phi_a, phi_b):
    state = data.draw(ensembles())
    dimension = state.space.dimension
    other = apply_mode_map(
        apply_mode_map(state, PhaseShifter(0, phi_a)), PhaseShifter(1, phi_b)
    )
    for a, b in ((state, other), (state, apply_mode_map(other, oambs(dimension)))):
        forward, backward = fidelity(a, b), fidelity(b, a)
        assert abs(forward - backward) <= 4 * math.ulp(1.0)
