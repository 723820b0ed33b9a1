"""Columnar ensembles against the plain dict oracles, and the lazy mapping.

Evolution, the tensor product and the fidelity run on label-code and
float64 columns; every result must match the prefix expansion, the nested
tensor expansion and the dict overlap of ``oracles`` bit for bit and in key
order, and raise the same error with the same message.  Tabled devices and
banks answer for every label with array gathers, which must give the bits
of their per-label ``mode_images``.  ``amplitudes`` is a read-only mapping
whose tuple-keyed dict and label list are built only when read.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    CompositeDevice,
    DomainError,
    EnsembleState,
    H,
    HologramBank,
    ModeLabel,
    ModeSpace,
    MuxNetwork,
    OamNetError,
    PhotonState,
    QubitSpec,
    ReflectorBank,
    RoutingDomainError,
    V,
    WindowOverflowError,
    apply_mode_map,
    demux_receive,
    fidelity,
    make_qubit_photon,
    mux_transmit,
    oambs,
    sbmao,
    tensor,
)
from oamnet import cli
from oamnet.states import (
    BUNCHING_TOL,
    PRUNE_TOL,
    EnsembleAmplitudes,
    _first_rows,
    _row_key,
)
from oracles import (
    amplitude_bits,
    dict_fidelity,
    dict_row_numbering,
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


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 8),
    entries=st.lists(st.integers(0, 3), max_size=80),
    labels=st.one_of(st.integers(4, 40), st.sampled_from((2**20, 2**31, 2**40))),
)
def test_the_row_key_numbers_rows_as_the_dict_of_row_tuples(width, entries, labels):
    # few distinct entries, so that equal rows are common; a large label
    # count makes the packed keys renumber after one, two or a few columns
    codes = np.array(entries[: len(entries) // width * width], dtype=np.int64)
    codes = codes.reshape(-1, width)
    key, bound = _row_key(codes, labels)
    assert key.dtype == np.int64 and key.shape == (len(codes),)
    assert (key >= 0).all() and (key < bound).all()
    assert _first_rows(key, bound)[1].tolist() == dict_row_numbering(codes)


def test_the_row_key_renumbers_before_a_key_could_wrap():
    # 2**40 labels: every column after the first renumbers the keys first,
    # to the ranks 1, 1, 0 both times
    top = 2**40 - 1
    codes = np.array([[top, 0, 5], [top, 0, 5], [0, top, 5]], dtype=np.int64)
    key, bound = _row_key(codes, 2**40)
    assert key.tolist() == [2**40 + 5, 2**40 + 5, 5]
    assert bound == 2 * 2**40


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fidelity_joins_rows_permuted_or_partly_shared(data):
    a = data.draw(ensembles())
    items = list(a.amplitudes.items())
    order = data.draw(st.permutations(range(len(items))))
    permuted = EnsembleState(a.space, a.slot_count, dict(items[i] for i in order))
    # some of a's tuples, in drawn order, among tuples of labels a may lack
    shared = [items[i][0] for i in order if data.draw(st.booleans())]
    slot = labels(a.space.dimension)
    others = data.draw(
        st.lists(
            st.lists(slot, min_size=a.slot_count, max_size=a.slot_count, unique=True)
            .map(tuple),
            max_size=4,
        )
    )
    keys = list(dict.fromkeys(shared + others)) or [items[0][0]]
    amplitude = 1 / math.sqrt(len(keys))
    partial = EnsembleState(a.space, a.slot_count, dict.fromkeys(keys, amplitude))
    for b in (permuted, partial):
        assert fidelity(a, b) == dict_fidelity(a, b)
        assert fidelity(b, a) == dict_fidelity(b, a)


def test_fidelity_of_reordered_and_partly_shared_rows():
    space = ModeSpace(3)
    x, y, z = ModeLabel(0, 1, H), ModeLabel(1, -1, V), ModeLabel(2, 0, H)
    half = 1 / math.sqrt(2)
    a = EnsembleState(space, 2, {(x, y): half, (y, z): half})
    reordered = EnsembleState(space, 2, {(y, z): half, (x, y): half})
    # one row shared, one built of a label that a lacks
    w = ModeLabel(2, 3, V)
    partial = EnsembleState(space, 2, {(w, x): half, (y, z): -half})
    assert fidelity(a, reordered) == dict_fidelity(a, reordered)
    assert fidelity(a, reordered) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(a, partial) == dict_fidelity(a, partial)
    assert fidelity(a, partial) == pytest.approx(0.25, abs=1e-15)


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
    def refuse(self, *args):
        raise AssertionError("the tuple-keyed dict or a label image was built")

    monkeypatch.setattr(EnsembleAmplitudes, "_mapping", refuse)
    network = MuxNetwork(6)
    sent = network.transmit([random_qubit(np.random.default_rng(1)) for _ in range(6)])
    assert len(sent.amplitudes) == 2**6
    cli._mux_roundtrip(network, np.random.default_rng(2))
    with pytest.raises(AssertionError):
        list(sent.amplitudes)
    # warm, the batched check of verify reads only tables and bank shifts
    for operator in (CompositeDevice, HologramBank):
        monkeypatch.setattr(operator, "mode_images", refuse)
    results = cli._mux_roundtrip(network, np.random.default_rng(3), 20)
    assert len(results) == 20


@pytest.mark.parametrize(
    "qubit", [None, QubitSpec(math.sqrt(1 - 4e-30), 2 * PRUNE_TOL)], ids=["random", "pruning"]
)
def test_each_step_keeps_the_smallest_modulus_of_its_columns(qubit):
    # the pruning test of the next step reads it instead of a fresh pass
    network = MuxNetwork(5)
    rng = np.random.default_rng(8)
    qubits = [random_qubit(rng) for _ in range(5)]
    if qubit is not None:
        qubits[2] = qubit
    state = tensor([make_qubit_photon(q, n, 0, network.space) for n, q in enumerate(qubits)])
    steps = [state]
    for operator in (network.input_holograms, network.core, network.demux_core,
                     network.output_holograms):
        steps.append(apply_mode_map(steps[-1], operator))
    for step in steps:
        columns = step.amplitudes
        assert columns._low == float(np.hypot(columns.re, columns.im).min())
    # a part of 2e-15 drops rows from the product
    assert (len(steps[0].amplitudes) < 2**5) == (qubit is not None)
    constructed = EnsembleState(network.space, 5, dict(steps[-1].amplitudes))
    assert constructed.amplitudes._low is None
    assert constructed.amplitudes._smallest_modulus() == steps[-1].amplitudes._low


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
    for column in (
        amplitudes.codes, amplitudes.re, amplitudes.im,
        amplitudes.path, amplitudes.winding, amplitudes.vpol,
    ):
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


# ------------------------------------------------------- array label images


def label_columns(labels):
    return (
        np.array([label.path for label in labels], dtype=np.int64),
        np.array([label.oam for label in labels], dtype=np.int64),
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_array_images_match_the_label_wise_images(data):
    dimension = data.draw(st.integers(1, 10))
    space = ModeSpace(dimension)
    window = space.oam_window
    windings = st.one_of(
        st.integers(-window, window), st.sampled_from((-window, window))
    )
    shifts = st.lists(
        st.integers(-2 * dimension, 2 * dimension),
        min_size=dimension,
        max_size=dimension,
    ).map(tuple)
    operator = data.draw(
        st.one_of(
            st.just(oambs(dimension)),
            st.just(sbmao(dimension)),
            shifts.map(HologramBank),
            shifts.map(ReflectorBank),
        )
    )
    labels = data.draw(
        st.lists(
            st.builds(
                ModeLabel,
                st.integers(0, dimension - 1),
                windings,
                st.sampled_from((H, V)),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    image_path, image_winding, re, im = operator.label_images(*label_columns(labels))
    for i, label in enumerate(labels):
        [(image, factor)] = operator.mode_images(label)
        assert (int(image_path[i]), int(image_winding[i]), label.pol) == image
        parts = (1.0, 0.0) if re is None else (float(re[i]), float(im[i]))
        assert [part.hex() for part in parts] == [factor.real.hex(), factor.imag.hex()]
    # images past the window edge send the whole ensemble label by label,
    # which raises what the expansion raises
    amp = complex(1 / math.sqrt(len(labels)))
    state = EnsembleState(space, 1, {(label,): amp for label in labels})
    expected = outcome(
        lambda: amplitude_bits(prefix_expansion_amplitudes(state, operator))
    )
    evolved = outcome(lambda: amplitude_bits(apply_mode_map(state, operator).amplitudes))
    assert evolved == expected


def test_a_warm_mux_round_trip_builds_no_label_list_and_no_images(monkeypatch):
    qubits = [random_qubit(np.random.default_rng(4)) for _ in range(5)]
    mux_transmit(qubits)  # fills the device tables

    def refuse(*args):
        raise AssertionError("a label list or a per-label image was built")

    monkeypatch.setattr(EnsembleAmplitudes, "_build_labels", refuse)
    for operator in (CompositeDevice, HologramBank):
        monkeypatch.setattr(operator, "mode_images", refuse)
    received = demux_receive(mux_transmit(qubits), restore_oam=True)
    assert len(received.amplitudes) == 2**5
    with pytest.raises(AssertionError):
        received.amplitudes.labels


def test_unit_factors_leave_the_zero_signs_of_the_expansion():
    space = ModeSpace(3)
    state = EnsembleState(
        space,
        2,
        {
            (ModeLabel(0, 0), ModeLabel(1, 0, V)): complex(-0.0, -0.6),
            (ModeLabel(2, 1), ModeLabel(1, 0)): complex(0.8, -0.0),
            (ModeLabel(1, 2), ModeLabel(0, -1)): complex(1.5 * PRUNE_TOL, -0.0),
        },
    )
    assert math.copysign(1.0, float(state.amplitudes.re[0])) == -1.0
    for bank in (HologramBank((1, -2, 0)), ReflectorBank((0, 2, -1))):
        expected = amplitude_bits(prefix_expansion_amplitudes(state, bank))
        state = apply_mode_map(state, bank)
        assert amplitude_bits(state.amplitudes) == expected
    assert amplitude_bits(state.amplitudes)[0][1:] == ((0.0).hex(), (-0.6).hex())


def test_one_ensemble_crossing_fills_only_the_table_keys_it_needs():
    device = CompositeDevice(oambs(24).stages, 24)  # its own, empty table
    space = ModeSpace(24)
    rng = np.random.default_rng(5)
    state = tensor(
        [
            make_qubit_photon(random_qubit(rng), path, oam, space)
            for path, oam in ((0, 0), (3, 25), (7, -2))
        ]
    )
    expected = amplitude_bits(prefix_expansion_amplitudes(state, oambs(24)))
    assert amplitude_bits(apply_mode_map(state, device).amplitudes) == expected
    needed = {(0, 0), (3, 1), (7, 22)}
    assert set(device._table) == needed
    filled = np.flatnonzero(device._dense.image).tolist()
    assert filled == sorted(path * 24 + residue for path, residue in needed)


def test_a_table_whose_entries_share_an_image_goes_label_by_label(monkeypatch):
    # every label lands on path 0, so two labels of one residue share an
    # image and the gather must not claim distinct images
    def onto_path_zero(self, label):
        return [(ModeLabel(0, -label.oam, label.pol), 1.0 + 0j)]

    device = CompositeDevice(oambs(3).stages, 3)
    monkeypatch.setattr(CompositeDevice, "mode_images", onto_path_zero)
    state = EnsembleState(
        ModeSpace(3), 1, {(ModeLabel(0, 1),): 0.6, (ModeLabel(2, 1),): 0.8}
    )
    expected = outcome(lambda: amplitude_bits(prefix_expansion_amplitudes(state, device)))
    assert outcome(lambda: amplitude_bits(apply_mode_map(state, device).amplitudes)) == expected
    assert device._dense.shared


class Gains:
    """Scales the labels on each path by that path's gain."""

    def __init__(self, gains):
        self.gains = gains

    def mode_images(self, label):
        return ((label, self.gains.get(label.path, 1.0 + 0j)),)


def test_a_row_pruned_at_one_slot_stays_out_when_a_later_factor_is_large():
    state = EnsembleState(
        ModeSpace(3),
        2,
        {
            (ModeLabel(2, 0), ModeLabel(2, 1)): math.sqrt(1 - 1e-16),
            (ModeLabel(0, 0), ModeLabel(1, 0)): 1e-8,
        },
    )
    # the second row falls to 1e-16 at its first slot and would be back at
    # 1e-8 after its second
    gains = Gains({0: 1e-8, 1: 1e8})
    expected = amplitude_bits(prefix_expansion_amplitudes(state, gains))
    assert len(expected) == 1
    assert amplitude_bits(apply_mode_map(state, gains).amplitudes) == expected


def test_windings_beyond_the_label_bound_raise_a_domain_error():
    space = ModeSpace(2, 10**30)
    with pytest.raises(DomainError, match="^winding number 10{20} beyond the label bound"):
        tensor([PhotonState(space, {ModeLabel(0, 10**20): 1.0})])
    with pytest.raises(DomainError, match="beyond the label bound"):
        EnsembleState(space, 1, {(ModeLabel(0, -(2**62) - 1),): 1.0})
    with pytest.raises(DomainError, match="2\\*\\*62"):
        ModeSpace(2**62 + 1)
    edge = EnsembleState(space, 1, {(ModeLabel(1, -(2**62), V),): 1.0})
    assert edge.amplitudes.winding.tolist() == [-(2**62)]
    assert edge.occupied_labels() == [ModeLabel(1, -(2**62), V)]


@pytest.mark.parametrize(
    "bank",
    [
        HologramBank((2**61, 0)),  # gathers, then the bound check fails
        HologramBank((-(2**61) - 7, 3)),  # shift past 2**61, image within
        ReflectorBank((-(2**62), 0)),
        HologramBank((10**25, 0)),  # shift past int64
    ],
)
def test_a_bank_that_could_leave_the_bound_goes_label_by_label(bank):
    state = EnsembleState(
        ModeSpace(2, 10**30), 2, {(ModeLabel(0, 2**62), ModeLabel(1, -5)): 1.0}
    )
    expected = outcome(lambda: amplitude_bits(prefix_expansion_amplitudes(state, bank)))
    evolved = outcome(lambda: amplitude_bits(apply_mode_map(state, bank).amplitudes))
    assert evolved == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_occupied_labels_follow_the_tuples_then_the_slots(data):
    if data.draw(st.booleans()):
        state = data.draw(ensembles())
    else:
        # a product numbers its labels slot by slot, not as the rows meet them
        space = ModeSpace(data.draw(st.integers(2, 10)))
        paths = st.lists(
            st.integers(0, space.dimension - 1), min_size=1, max_size=4, unique=True
        )
        state = tensor([data.draw(photons(space, path)) for path in data.draw(paths)])
    operator = data.draw(operators(state.space.dimension))
    evolved = outcome(lambda: apply_mode_map(state, operator))
    for ensemble in (state, evolved):
        if isinstance(ensemble, EnsembleState):
            walk = [label for key in ensemble.amplitudes for label in key]
            assert ensemble.occupied_labels() == list(dict.fromkeys(walk))
