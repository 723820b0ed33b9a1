"""Columnar ensembles against the plain dict oracles, and the lazy mapping.

Evolution, the tensor product and the fidelity run on label-code and
float64 columns; every result must match the prefix expansion, the nested
tensor expansion and the dict overlap of ``oracles`` bit for bit and in key
order, and raise the same error with the same message.  ``amplitudes`` is a
read-only mapping whose tuple-keyed dict is built only when read.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    EnsembleState,
    H,
    HologramBank,
    ModeLabel,
    ModeSpace,
    MuxNetwork,
    OamNetError,
    PhotonState,
    ReflectorBank,
    RoutingDomainError,
    V,
    WindowOverflowError,
    apply_mode_map,
    fidelity,
    make_qubit_photon,
    oambs,
    sbmao,
    tensor,
)
from oamnet import cli
from oamnet.states import BUNCHING_TOL, PRUNE_TOL, EnsembleAmplitudes
from oracles import (
    amplitude_bits,
    dict_fidelity,
    nested_tensor_amplitudes,
    prefix_expansion_amplitudes,
    random_qubit,
)

# amplitude parts: ordinary values, signed zeros, and moduli near the
# pruning and bunching thresholds
SPECIAL_PARTS = (0.0, -0.0, PRUNE_TOL, -PRUNE_TOL, 1.5 * PRUNE_TOL, 3 * PRUNE_TOL,
                 BUNCHING_TOL, 1e-8)
parts = st.one_of(st.floats(-0.25, 0.25), st.sampled_from(SPECIAL_PARTS))
# photon amplitude parts: products of two small ones land near PRUNE_TOL,
# and a label just above it drops out of every product
photon_parts = st.one_of(
    st.floats(-0.4, 0.4),
    st.sampled_from((0.0, -0.0, 1.05 * PRUNE_TOL, 1e-8, -2e-8, 4e-8)),
)


def outcome(compute):
    """The result of ``compute()``, or the type and text of its error."""
    try:
        return compute()
    except OamNetError as exc:
        return type(exc), str(exc)


@st.composite
def labels(draw, dimension):
    return ModeLabel(
        draw(st.integers(0, dimension - 1)),
        draw(st.integers(-dimension, dimension)),
        draw(st.sampled_from((H, V))),
    )


@st.composite
def ensembles(draw):
    """A normalized ensemble at D <= 10 whose first tuple carries the bulk
    of the norm and whose others hold drawn (often special) amplitudes."""
    dimension = draw(st.integers(2, 10))
    slots = draw(st.integers(1, min(dimension, 4)))
    tuples = draw(
        st.lists(
            st.lists(labels(dimension), min_size=slots, max_size=slots, unique=True)
            .map(tuple),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    rest = [complex(draw(parts), draw(parts)) for _ in tuples[1:]]
    bulk = math.sqrt(1.0 - sum(abs(amp) ** 2 for amp in rest))
    phase = draw(st.floats(0.0, 2 * math.pi))
    amplitudes = {tuples[0]: complex(bulk * math.cos(phase), bulk * math.sin(phase))}
    amplitudes.update(zip(tuples[1:], rest))
    return EnsembleState(ModeSpace(dimension), slots, amplitudes)


class MergeOnto:
    """Moves every label on path ``source`` onto path ``target``."""

    def __init__(self, source, target):
        self.source, self.target = source, target

    def mode_images(self, label):
        if label.path != self.source:
            return ((label, 1.0 + 0j),)
        return ((ModeLabel(self.target, label.oam, label.pol), 1.0 + 0j),)


class Gain:
    """Scales labels on one path, so that products cross PRUNE_TOL midway."""

    def __init__(self, path, gain):
        self.path, self.gain = path, gain

    def mode_images(self, label):
        return ((label, self.gain if label.path == self.path else 1.0 + 0j),)


def operators(dimension):
    path = st.integers(0, dimension - 1)
    shifts = st.lists(
        st.integers(-dimension, dimension), min_size=dimension, max_size=dimension
    ).map(tuple)
    pairs = st.lists(path, min_size=2, max_size=2, unique=True)
    return st.one_of(
        st.just(oambs(dimension)),
        st.just(sbmao(dimension)),
        shifts.map(HologramBank),
        shifts.map(ReflectorBank),
        st.builds(
            lambda ports, theta, phi: BeamSplitter(*ports, theta, phi),
            pairs,
            st.one_of(st.floats(0.0, math.pi), st.sampled_from((0.0, math.pi / 2))),
            st.floats(-math.pi, math.pi),
        ),
        pairs.map(lambda ports: MergeOnto(*ports)),
        st.builds(Gain, path, st.sampled_from((1e-8, 0.1, 10.0, 1e8))),
    )


def assert_labels_are_occupied(state):
    """The label list holds exactly the labels some tuple holds."""
    held = {label for key in state.amplitudes for label in key}
    labels = state.amplitudes.labels
    assert len(labels) == len(held) and set(labels) == held


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evolution_matches_the_prefix_expansion(data):
    state = data.draw(ensembles())
    chain = data.draw(st.lists(operators(state.space.dimension), min_size=1, max_size=3))
    for operator in chain:
        expected = outcome(
            lambda: amplitude_bits(prefix_expansion_amplitudes(state, operator))
        )
        evolved = outcome(lambda: apply_mode_map(state, operator))
        if isinstance(evolved, EnsembleState):
            assert amplitude_bits(evolved.amplitudes) == expected
            assert_labels_are_occupied(evolved)
            assert fidelity(state, evolved) == dict_fidelity(state, evolved)
            state = evolved
        else:
            assert evolved == expected
            break


def test_the_first_failing_label_in_expansion_order_raises():
    # the expansion finishes the first tuple before it starts the second, so
    # the first tuple's second slot leaves the window first
    state = EnsembleState(
        ModeSpace(3),
        2,
        {
            (ModeLabel(0, 0), ModeLabel(1, 0)): 0.6,
            (ModeLabel(2, 0), ModeLabel(0, 1)): 0.8,
        },
    )
    bank = HologramBank((0, 20, 30))
    with pytest.raises(WindowOverflowError) as expected:
        prefix_expansion_amplitudes(state, bank)
    with pytest.raises(WindowOverflowError) as raised:
        apply_mode_map(state, bank)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("winding number 20 ")


@st.composite
def photons(draw, space, path):
    """A photon on ``path`` whose labels may share windings with others and
    whose small amplitudes let products fall below PRUNE_TOL."""
    count = draw(st.integers(1, 3))
    windings = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count, unique=True))
    small = [complex(draw(photon_parts), draw(photon_parts)) for _ in windings[1:]]
    bulk = math.sqrt(1.0 - sum(abs(amp) ** 2 for amp in small))
    amplitudes = [complex(bulk, 0.0)] + small
    pols = draw(st.lists(st.sampled_from((H, V)), min_size=count, max_size=count))
    return PhotonState(
        space,
        {ModeLabel(path, w, p): a for w, p, a in zip(windings, pols, amplitudes)},
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tensor_matches_the_nested_expansion(data):
    dimension = data.draw(st.integers(1, 10))
    space = ModeSpace(dimension)
    # paths may repeat, so two photons can share a label
    paths = data.draw(st.lists(st.integers(0, dimension - 1), min_size=1, max_size=6))
    factors = [data.draw(photons(space, path)) for path in paths]
    expected = outcome(lambda: amplitude_bits(nested_tensor_amplitudes(factors)))
    product = outcome(lambda: tensor(factors))
    if isinstance(product, EnsembleState):
        assert amplitude_bits(product.amplitudes) == expected
        assert_labels_are_occupied(product)
    else:
        assert product == expected


@pytest.mark.parametrize("dimension", [2, 5, 8])
def test_mux_round_trip_fidelities_match_the_dict_overlap(dimension):
    network = MuxNetwork(dimension)
    rng = np.random.default_rng(dimension)
    qubits = [random_qubit(rng) for _ in range(dimension)]
    space = network.space
    originals = tensor([make_qubit_photon(q, p, 0, space) for p, q in enumerate(qubits)])
    sent = network.transmit(qubits)
    tagged = tensor([make_qubit_photon(q, 0, w, space) for w, q in enumerate(qubits)])
    received = network.receive(sent, restore_oam=True)
    for a, b in ((sent, tagged), (received, originals), (originals, sent)):
        assert fidelity(a, b) == dict_fidelity(a, b)


def test_merge_of_the_product_is_transmit():
    network = MuxNetwork(4)
    qubits = [random_qubit(np.random.default_rng(9)) for _ in range(4)]
    product = tensor(
        [make_qubit_photon(q, p, 0, network.space) for p, q in enumerate(qubits)]
    )
    merged, sent = network.merge(product), network.transmit(qubits)
    assert amplitude_bits(merged.amplitudes) == amplitude_bits(sent.amplitudes)
    with pytest.raises(OamNetError, match="^state spans 4 paths, mux has 3$"):
        MuxNetwork(3).merge(product)


def test_len_and_the_mux_round_trip_build_no_dict(monkeypatch):
    def refuse(self):
        raise AssertionError("the tuple-keyed dict was built")

    monkeypatch.setattr(EnsembleAmplitudes, "_mapping", refuse)
    network = MuxNetwork(6)
    sent = network.transmit([random_qubit(np.random.default_rng(1)) for _ in range(6)])
    assert len(sent.amplitudes) == 2**6
    cli._mux_roundtrip(network, np.random.default_rng(2))
    with pytest.raises(AssertionError):
        list(sent.amplitudes)


def test_amplitudes_are_a_read_only_mapping():
    pair = tensor(
        [
            make_qubit_photon(random_qubit(np.random.default_rng(3)), path, 0, ModeSpace(3))
            for path in (0, 2)
        ]
    )
    amplitudes = pair.amplitudes
    key = next(iter(amplitudes))
    with pytest.raises(TypeError):
        amplitudes[key] = 1.0
    with pytest.raises(TypeError):
        del amplitudes[key]
    for column in (amplitudes.codes, amplitudes.re, amplitudes.im):
        with pytest.raises(ValueError):
            column[0] = 0
    as_dict = dict(amplitudes)
    assert amplitudes == as_dict and list(amplitudes) == list(as_dict)
    assert key in amplitudes and amplitudes.get((ModeLabel(1, 0),) * 2) is None
    assert repr(amplitudes) == repr(as_dict)
    # the constructor takes the view as it takes any mapping
    assert EnsembleState(pair.space, 2, amplitudes) == pair


def test_demux_names_the_first_offending_label_in_tuple_order():
    # the label list runs photon by photon, so |5^H>_0 comes first there,
    # but the first tuple already holds |0^H>_1 in its second slot
    space = ModeSpace(3)
    state = tensor(
        [
            PhotonState(space, {ModeLabel(0, 0): 0.8, ModeLabel(0, 5): 0.6}),
            PhotonState(space, {ModeLabel(1, 0): 1.0}),
            PhotonState(space, {ModeLabel(0, 1): 1.0}),
        ]
    )
    with pytest.raises(RoutingDomainError, match=r"got \|0\^H>_1$"):
        MuxNetwork(3).receive(state)
