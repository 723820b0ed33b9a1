"""Whole-map transit through Fourier multiports, Dove prism stages and
elements.

``transit`` is a pure speed-up of the label-wise loop: every result must
agree bit for bit with ``oracles.label_wise_transit`` (amplitudes and key
order, signs of zeros included), and the devices built from the stages must
keep the invariants of the paper's OAM beamsplitter.  The batched replay
behind ``oambs_netlist_error`` must likewise equal ``compose_images`` per
input, and the metric must equal ``oracles.label_wise_netlist_error``,
errors included.
"""

import cmath
import math
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    Direction,
    DomainError,
    DovePrism,
    DoveStage,
    H,
    Hologram,
    Mirror,
    ModeLabel,
    ModeSpace,
    Netlist,
    OamNetError,
    PhaseShifter,
    PhotonState,
    ReflectiveHologram,
    SymmetricMultiport,
    V,
    WindowOverflowError,
    apply_mode_map,
    default_oam_values,
    netlist_apply,
    oambs,
    oambs_closed_form,
    oambs_netlist,
    oambs_netlist_error,
    sbmao,
)
from oamnet.elements import PortElement
from oamnet.netlist import _replay_columns, _rounds
from oamnet.states import PRUNE_TOL, compose_images
from oracles import (
    amplitude_bits,
    label_wise_netlist_error,
    label_wise_transit,
    seed_stage_images,
)

MAX_DIMENSION = 8

# amplitudes straddling the pruning threshold, so that sums and products
# land on both sides of it
NEAR_PRUNE = (0.5, 0.999999, 1.0, 1.000001, 2.0, 3.0)


@st.composite
def labels(draw, dimension, path_slack=0):
    return ModeLabel(
        draw(st.integers(-path_slack, dimension - 1 + path_slack)),
        draw(st.integers(-3 * dimension, 3 * dimension)),
        draw(st.sampled_from((H, V))),
    )


def amplitudes():
    plain = st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    tiny = st.builds(
        lambda scale, angle: scale * PRUNE_TOL * complex(math.cos(angle), math.sin(angle)),
        st.sampled_from(NEAR_PRUNE),
        st.floats(-math.pi, math.pi),
    )
    # a real or imaginary amplitude with a signed zero part: products keep
    # the -0.0 that summing from 0j turns into +0.0
    axis = st.builds(
        lambda value, zero, imaginary: complex(zero, value) if imaginary else complex(value, zero),
        st.sampled_from((1.0, -1.0, 0.5, -0.25, PRUNE_TOL, -PRUNE_TOL)),
        st.sampled_from((0.0, -0.0)),
        st.booleans(),
    )
    return st.one_of(plain, tiny, axis)


def amplitude_maps(dimension, path_slack=0):
    return st.dictionaries(
        labels(dimension, path_slack), amplitudes(), min_size=1, max_size=12
    )


def stages(dimension):
    return st.one_of(
        st.builds(SymmetricMultiport, st.just(dimension), st.booleans()),
        st.builds(
            DoveStage,
            st.just(dimension),
            st.sampled_from((Direction.FORWARD, Direction.REVERSE)),
        ),
    )


def elements(dimension):
    port = st.integers(0, dimension - 1)
    angle = st.one_of(
        st.floats(-math.pi, math.pi),
        # mixing angles whose small branch falls near or under PRUNE_TOL
        st.sampled_from((1e-16, 5e-16, 1e-15, 2e-15, 1e-14)),
    )
    choices = [
        st.builds(PhaseShifter, port, angle),
        st.builds(Hologram, port, st.integers(-dimension, dimension)),
        st.builds(ReflectiveHologram, port, st.integers(-dimension, dimension)),
        st.builds(Mirror, port),
        st.builds(DovePrism, port, angle),
    ]
    if dimension > 1:
        # either port order: (2, 0) puts path 2's image ahead of path 0's
        pairs = st.tuples(port, port).filter(lambda pair: pair[0] != pair[1])
        choices.append(
            st.builds(
                lambda pair, theta, phi: BeamSplitter(pair[0], pair[1], theta, phi),
                pairs,
                angle,
                angle,
            )
        )
    return st.one_of(choices)


@st.composite
def chains(draw):
    dimension = draw(st.integers(1, MAX_DIMENSION))
    operators = draw(
        st.lists(st.one_of(stages(dimension), elements(dimension)), max_size=6)
    )
    return dimension, operators


def transit_or_error(operators, amplitudes_in, run):
    try:
        return amplitude_bits(run(operators, amplitudes_in))
    except DomainError as exc:
        return str(exc)


# --- bit-identity against the label-wise loop ------------------------------


@settings(max_examples=200, deadline=None)
@given(chains(), st.data())
def test_chains_match_label_wise_loop(chain, data):
    dimension, operators = chain
    label = data.draw(labels(dimension))
    assert amplitude_bits(dict(compose_images(operators, label))) == amplitude_bits(
        label_wise_transit(operators, {label: 1.0 + 0j})
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, MAX_DIMENSION).flatmap(
    lambda d: st.tuples(stages(d), amplitude_maps(d, path_slack=1))
))
def test_transit_matches_label_wise_loop_on_any_map(case):
    stage, amplitudes_in = case
    # out-of-range paths must raise the same message as the label-wise loop
    assert transit_or_error(
        [stage], amplitudes_in, lambda ops, amps: ops[0].transit(amps)
    ) == transit_or_error([stage], amplitudes_in, label_wise_transit)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, MAX_DIMENSION).flatmap(
    lambda d: st.tuples(elements(d), amplitude_maps(d, path_slack=1))
))
def test_element_transit_matches_label_wise_loop_on_any_map(case):
    element, amplitudes_in = case
    assert amplitude_bits(element.transit(amplitudes_in)) == amplitude_bits(
        label_wise_transit([element], amplitudes_in)
    )


@pytest.mark.parametrize(
    "amplitudes_in",
    [
        # signed zeros, on the ports (0 and 1) and off them (2)
        {
            ModeLabel(2, 1): complex(-1.0, -0.0),
            ModeLabel(0, 2, V): complex(-0.0, -0.5),
            ModeLabel(2, 3, V): complex(-0.0, 0.25),
        },
        # sums of exactly PRUNE_TOL are pruned on and off the ports
        {
            ModeLabel(2, 0): complex(PRUNE_TOL, 0.0),
            ModeLabel(0, 1): complex(0.0, PRUNE_TOL),
            ModeLabel(1, 0, V): 1.0 + 0j,
        },
    ],
)
@pytest.mark.parametrize(
    "element",
    [
        Mirror(0),
        PhaseShifter(1, 0.0),
        DovePrism(0, 0.0),
        Hologram(0, 0),
        ReflectiveHologram(0, 0),
        BeamSplitter(1, 0, 0.0),
        BeamSplitter(0, 1, 1e-16, 0.5),
    ],
)
def test_element_signed_zeros_and_prune_threshold(element, amplitudes_in):
    assert amplitude_bits(element.transit(amplitudes_in)) == amplitude_bits(
        label_wise_transit([element], amplitudes_in)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, MAX_DIMENSION).flatmap(
    lambda d: st.tuples(stages(d), labels(d))
))
def test_mode_images_is_the_one_label_transit(case):
    stage, label = case
    images = stage.mode_images(label)
    assert amplitude_bits(dict(images)) == amplitude_bits(
        stage.transit({label: 1.0 + 0j})
    )
    assert amplitude_bits(dict(images)) == amplitude_bits(
        dict(seed_stage_images(stage, label))
    )


def test_beamsplitter_out_of_path_order_before_a_multiport():
    splitter = BeamSplitter(2, 0, 0.7, 0.3)
    label = ModeLabel(0, 1, V)
    mixed = dict(splitter.mode_images(label))
    assert [image.path for image in mixed] == [2, 0]
    operators = [splitter, SymmetricMultiport(3), DoveStage(3), SymmetricMultiport(3)]
    assert amplitude_bits(dict(compose_images(operators, label))) == amplitude_bits(
        label_wise_transit(operators, {label: 1.0 + 0j})
    )


@pytest.mark.parametrize(
    "amplitudes_in",
    [
        # signed zeros: -1 - 0j times a real factor has imaginary part -0.0
        {ModeLabel(0, 1): complex(-1.0, -0.0), ModeLabel(1, 2, V): complex(-0.0, -0.5)},
        # sums of exactly PRUNE_TOL are pruned, as the label-wise loop does
        {ModeLabel(0, 0): complex(PRUNE_TOL, 0.0), ModeLabel(1, 0, V): 1.0 + 0j},
    ],
)
@pytest.mark.parametrize(
    "stage",
    [SymmetricMultiport(1), SymmetricMultiport(2), DoveStage(2), DoveStage(2, "reverse")],
)
def test_signed_zeros_and_prune_threshold(stage, amplitudes_in):
    if stage.dimension == 1:
        amplitudes_in = {l: a for l, a in amplitudes_in.items() if l.path == 0}
    assert amplitude_bits(stage.transit(amplitudes_in)) == amplitude_bits(
        label_wise_transit([stage], amplitudes_in)
    )


@pytest.mark.parametrize("dimension", range(1, 9))
def test_full_window_matches_label_wise_loop(dimension):
    for device in (oambs(dimension), sbmao(dimension)):
        for path in range(dimension):
            for oam in default_oam_values(dimension):
                for pol in (H, V):
                    label = ModeLabel(path, oam, pol)
                    assert amplitude_bits(
                        dict(compose_images(device.stages, label))
                    ) == amplitude_bits(
                        label_wise_transit(device.stages, {label: 1.0 + 0j})
                    )


@pytest.mark.parametrize("dimension", range(1, 9))
def test_oambs_netlist_matches_label_wise_loop(dimension):
    netlist = oambs_netlist(dimension)
    space = ModeSpace(dimension)
    for path in range(dimension):
        for oam in range(dimension):
            label = ModeLabel(path, oam)
            routed = netlist_apply(netlist, PhotonState(space, {label: 1.0}))
            expected = {
                ModeLabel(image.path, -image.oam, image.pol): amp
                for image, amp in label_wise_transit(
                    netlist.elements, {label: 1.0 + 0j}
                ).items()
            }
            assert amplitude_bits(routed.amplitudes) == amplitude_bits(expected)


# --- the batched basis replay of oambs_netlist_error --------------------------


@st.composite
def netlists(draw, max_elements=12):
    # longer chains that alternate holograms and beamsplitters double the
    # support again and again
    dimension = draw(st.integers(1, MAX_DIMENSION))
    size = draw(st.integers(0, max_elements))
    return Netlist(
        dimension,
        draw(st.lists(elements(dimension), min_size=size, max_size=size)),
        draw(st.booleans()),
    )


def flipped_images(netlist, label):
    """``compose_images`` of one label, then the netlist's parity flip."""
    images = dict(compose_images(netlist.elements, label))
    if netlist.parity_flip:
        images = {ModeLabel(l.path, -l.oam, l.pol): a for l, a in images.items()}
    return images


@settings(max_examples=300, deadline=None)
@given(netlists(), st.data())
def test_batched_replay_matches_compose_images(netlist, data):
    inputs = data.draw(
        st.lists(labels(netlist.dimension), min_size=1, max_size=12, unique=True)
    )
    replayed = _replay_columns(netlist, inputs)
    assert len(replayed) == len(inputs)
    for label, images in zip(inputs, replayed):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            flipped_images(netlist, label)
        )


@pytest.mark.parametrize(
    "netlist",
    [
        # the last splitter's sources have path 2's entry between them
        Netlist(3, (BeamSplitter(0, 2, 0.7), BeamSplitter(2, 1, 0.6), BeamSplitter(0, 1, 0.5))),
        Netlist(3, (BeamSplitter(0, 2, 0.7), BeamSplitter(2, 1, 0.6), BeamSplitter(1, 0, 0.5))),
        # down then up a staircase: 126 rounds of one splitter each, over
        # supports of up to 64 labels whose order every round rewrites
        Netlist(
            64,
            tuple(BeamSplitter(p, p + 1, 1.5) for p in reversed(range(63)))
            + tuple(BeamSplitter(p, p + 1, 1.5) for p in range(63)),
        ),
    ],
    ids=["between", "between-reversed", "re-ranked"],
)
def test_batched_replay_orders_images_by_first_source(netlist):
    paths = sorted({0, 1, 2, netlist.dimension - 1})
    inputs = [ModeLabel(p, l, pol) for p in paths for l in (-1, 2) for pol in (H, V)]
    for label, images in zip(inputs, _replay_columns(netlist, inputs)):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            flipped_images(netlist, label)
        )


@pytest.mark.parametrize("dimension", [8, 13])
def test_batched_replay_of_the_oambs_netlist(dimension):
    # D=13 reaches 10 labels per final support
    netlist = oambs_netlist(dimension)
    basis = [ModeLabel(p, l) for p in range(dimension) for l in range(dimension)]
    for label, images in zip(basis, _replay_columns(netlist, basis)):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            dict(netlist.mode_images(label))
        )


@dataclass(frozen=True)
class Tritter(PortElement):
    """A 3x3 DFT on three paths: each image sums terms from all three."""

    port_a: int
    port_b: int
    port_c: int

    @property
    def ports(self):
        return (self.port_a, self.port_b, self.port_c)

    def mode_images(self, label):
        if label.path not in self.ports:
            return ((label, 1.0 + 0j),)
        row = self.ports.index(label.path)
        return tuple(
            (
                ModeLabel(port, label.oam, label.pol),
                cmath.exp(2j * math.pi * row * column / 3) / math.sqrt(3),
            )
            for column, port in enumerate(self.ports)
        )


TRITTER_NETLISTS = [
    Netlist(3, (Tritter(0, 1, 2), Tritter(2, 0, 1))),
    Netlist(
        4,
        (
            Tritter(0, 1, 2),
            Hologram(1, 2),
            Tritter(3, 2, 0),
            BeamSplitter(1, 3, 0.4, 0.2),
            Tritter(2, 0, 1),
            DovePrism(3, 0.9),
        ),
        parity_flip=True,
    ),
]


@pytest.mark.parametrize("netlist", TRITTER_NETLISTS, ids=["d3", "d4"])
def test_batched_replay_sums_three_terms_into_one_image(netlist):
    inputs = [
        ModeLabel(p, l, pol)
        for p in range(netlist.dimension)
        for l in (-1, 0, 2)
        for pol in (H, V)
    ]
    replayed = _replay_columns(netlist, inputs)
    for label, images in zip(inputs, replayed):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            flipped_images(netlist, label)
        )
    assert netlist_error_or_message(
        netlist, oambs_netlist_error
    ) == netlist_error_or_message(netlist, label_wise_netlist_error)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batched_replay_with_tritters_matches_compose_images(data):
    dimension = data.draw(st.integers(3, MAX_DIMENSION))
    tritter = st.lists(
        st.integers(0, dimension - 1), min_size=3, max_size=3, unique=True
    ).map(lambda ports: Tritter(*ports))
    chain = data.draw(
        st.lists(st.one_of(tritter, elements(dimension)), min_size=1, max_size=8)
    )
    netlist = Netlist(dimension, chain, data.draw(st.booleans()))
    inputs = data.draw(
        st.lists(labels(dimension), min_size=1, max_size=12, unique=True)
    )
    for label, images in zip(inputs, _replay_columns(netlist, inputs)):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            flipped_images(netlist, label)
        )
    assert netlist_error_or_message(
        netlist, oambs_netlist_error
    ) == netlist_error_or_message(netlist, label_wise_netlist_error)


def test_batched_replay_keeps_the_dove_phase_in_a_mixed_round():
    # the second round holds a splitter and a Dove prism together, so its
    # tables fan out and add the prism's winding phase at once
    netlist = Netlist(
        3,
        (
            PhaseShifter(0, 0.0),
            PhaseShifter(2, 0.0),
            DovePrism(2, 1.0),
            BeamSplitter(0, 1, 0.0),
        ),
    )
    assert [len(elements) for elements in _rounds(netlist.elements)] == [2, 2]
    label = ModeLabel(2, 1)
    [images] = _replay_columns(netlist, [label])
    assert amplitude_bits(dict(images)) == amplitude_bits(
        flipped_images(netlist, label)
    )
    [(image, amplitude)] = images
    assert image == ModeLabel(2, -1)
    assert amplitude == pytest.approx(cmath.exp(-1j))


@dataclass(frozen=True)
class HalvingSplitter(BeamSplitter):
    """A subclass with its own images: the replay must not read the
    parent's port rules for it."""

    def mode_images(self, label):
        return tuple(
            (image, 0.5 * factor) for image, factor in super().mode_images(label)
        )


def test_batched_replay_calls_a_subclass_own_images():
    netlist = Netlist(3, (BeamSplitter(0, 1, 0.3), HalvingSplitter(1, 2, 0.7, 0.1)))
    inputs = [ModeLabel(p, l) for p in range(3) for l in (-1, 2)]
    for label, images in zip(inputs, _replay_columns(netlist, inputs)):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            flipped_images(netlist, label)
        )


@pytest.mark.parametrize("dimension", range(1, MAX_DIMENSION + 1))
def test_exported_netlists_take_the_batch(dimension, monkeypatch):
    # the photon-by-photon replay must never absorb the certification
    netlist = oambs_netlist(dimension)

    def refuse(self, label):
        raise AssertionError(f"{label} replayed photon by photon")

    monkeypatch.setattr(Netlist, "mode_images", refuse)
    assert oambs_netlist_error(netlist) < 1e-9


@pytest.mark.parametrize(
    "netlist, inputs",
    [
        (TRITTER_NETLISTS[0], [ModeLabel(p, 1) for p in range(3)]),
        (
            Netlist(3, (BeamSplitter(0, 1, 0.3), HalvingSplitter(1, 2, 0.7, 0.1))),
            [ModeLabel(p, 0, V) for p in range(3)],
        ),
        (Netlist(2, (Hologram(0, 2**70),)), [ModeLabel(p, 1) for p in range(2)]),
        (Netlist(2, (Hologram(0, 3),)), [ModeLabel(0, 1), ModeLabel(2, 1)]),
    ],
    ids=["tritter", "subclass", "2**70", "path-outside"],
)
def test_other_netlists_replay_photon_by_photon(netlist, inputs, monkeypatch):
    calls = []
    own_images = Netlist.mode_images

    def counted(self, label):
        calls.append(label)
        return own_images(self, label)

    monkeypatch.setattr(Netlist, "mode_images", counted)
    replayed = _replay_columns(netlist, inputs)
    assert calls == inputs
    for label, images in zip(inputs, replayed):
        assert amplitude_bits(dict(images)) == amplitude_bits(
            flipped_images(netlist, label)
        )


def test_netlist_error_memory_follows_the_summed_supports():
    # the replay holds one row per (photon, label) entry of the maps; a
    # dense label-by-photon array at D=16 peaks above 10 MB
    netlist = oambs_netlist(16)
    oambs_netlist_error(netlist)
    tracemalloc.start()
    try:
        oambs_netlist_error(netlist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def netlist_error_or_message(netlist, error):
    try:
        return error(netlist).hex()
    except OamNetError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(netlists(max_elements=8))
def test_netlist_error_matches_label_wise_walk(netlist):
    assert netlist_error_or_message(
        netlist, oambs_netlist_error
    ) == netlist_error_or_message(netlist, label_wise_netlist_error)


def test_netlist_error_raises_the_label_wise_window_error():
    # |0>_1 is the first input pushed past the window of [-12, 12]
    netlist = Netlist(3, (Hologram(2, 5), Hologram(1, 20), Hologram(2, 30)))
    with pytest.raises(WindowOverflowError) as batched:
        oambs_netlist_error(netlist)
    with pytest.raises(WindowOverflowError) as label_wise:
        label_wise_netlist_error(netlist)
    assert str(batched.value) == str(label_wise.value)
    assert str(batched.value) == "winding number 20 outside window [-12, 12]"


@pytest.mark.parametrize(
    "netlist, expected",
    [
        (
            Netlist(2, (Hologram(0, 2**62), Hologram(0, 2**62))),
            "WindowOverflowError: winding number 9223372036854775808 "
            "outside window [-8, 8]",
        ),
        (Netlist(2, (Hologram(0, 2**62), Hologram(0, -(2**62)))), (1.0).hex()),
        (
            Netlist(2, (Hologram(0, 2**70),)),
            "WindowOverflowError: winding number 1180591620717411303424 "
            "outside window [-8, 8]",
        ),
        (
            Netlist(2, (Hologram(1, 2**70),)),
            "WindowOverflowError: winding number 1180591620717411303424 "
            "outside window [-8, 8]",
        ),
        (Netlist(2, (Hologram(0, 1), Hologram(1, 2**70))), (1.0).hex()),
        (
            Netlist(
                3,
                (
                    ReflectiveHologram(0, 2**70),
                    BeamSplitter(0, 1, 0.3),
                    DovePrism(1, 0.2),
                ),
            ),
            "WindowOverflowError: winding number -1180591620717411303424 "
            "outside window [-12, 12]",
        ),
    ],
    ids=["2**63", "back-to-zero", "2**70-port-0", "2**70-port-1", "unreached", "mixed"],
)
def test_netlist_error_past_int64_matches_label_wise_walk(netlist, expected):
    # windings past int64 are carried as Python ints, never wrapped
    assert netlist_error_or_message(netlist, oambs_netlist_error) == expected
    assert netlist_error_or_message(netlist, label_wise_netlist_error) == expected


def test_netlist_error_is_one_when_the_first_amplitude_is_zero():
    # |0>_0 misses its closed-form image, so the walk stops before it
    # reaches the out-of-window winding on path 1
    netlist = Netlist(2, (Hologram(0, 1), Hologram(1, 100)))
    assert oambs_netlist_error(netlist) == 1.0
    assert label_wise_netlist_error(netlist) == 1.0


@pytest.mark.parametrize(
    "stage, name",
    [(SymmetricMultiport(3), "multiport"), (DoveStage(3, "reverse"), "Dove stage")],
)
@pytest.mark.parametrize("path", [3, -1])
def test_out_of_range_path_error_text(stage, name, path):
    amplitudes_in = {ModeLabel(0, 1): 0.6, ModeLabel(path, 2): 0.8}
    message = f"path {path} outside {name} of dimension 3"
    with pytest.raises(DomainError) as whole_map:
        stage.transit(amplitudes_in)
    with pytest.raises(DomainError) as label_wise:
        label_wise_transit([stage], amplitudes_in)
    assert str(whole_map.value) == str(label_wise.value) == message
    with pytest.raises(DomainError, match=f"^{message}$"):
        stage.mode_images(ModeLabel(path, 0))


# --- invariants of the devices on random inputs ------------------------------


@st.composite
def photons(draw):
    dimension = draw(st.integers(1, MAX_DIMENSION))
    window = dimension - 1
    raw = draw(
        st.dictionaries(
            st.builds(
                ModeLabel,
                st.integers(0, dimension - 1),
                st.integers(-window, window),
                st.sampled_from((H, V)),
            ),
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
            min_size=1,
            max_size=8,
        )
    )
    norm = math.sqrt(sum(abs(amp) ** 2 for amp in raw.values()))
    space = ModeSpace(dimension)
    return PhotonState(space, {label: amp / norm for label, amp in raw.items()})


@settings(max_examples=100, deadline=None)
@given(photons(), st.sampled_from(("oambs", "sbmao", "multiport", "dove")))
def test_norm_is_preserved(photon, kind):
    dimension = photon.space.dimension
    device = {
        "oambs": oambs(dimension),
        "sbmao": sbmao(dimension),
        "multiport": SymmetricMultiport(dimension),
        "dove": DoveStage(dimension),
    }[kind]
    out = apply_mode_map(photon, device)
    norm_sq = sum(abs(amp) ** 2 for amp in out.amplitudes.values())
    assert norm_sq == pytest.approx(1.0, abs=1e-12)


def single_image(images):
    """The one label carrying the photon, after checking the rest is dust."""
    label, amp = max(images.items(), key=lambda item: abs(item[1]))
    rest = sum(abs(a) ** 2 for l, a in images.items() if l != label)
    assert rest < 1e-24
    return label, amp


@settings(max_examples=200, deadline=None)
@given(st.integers(1, MAX_DIMENSION).flatmap(lambda d: labels(d)), st.data())
def test_reverse_transit_undoes_forward(label, data):
    dimension = data.draw(st.integers(max(1, label.path + 1), MAX_DIMENSION))
    chain = oambs(dimension).stages + sbmao(dimension).stages
    out, amp = single_image(dict(compose_images(chain, label)))
    assert out == label
    assert abs(amp - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, MAX_DIMENSION).flatmap(
        lambda d: st.tuples(st.just(d), labels(d))
    ),
    st.sampled_from((Direction.FORWARD, Direction.REVERSE)),
)
def test_device_matches_closed_form(case, direction):
    dimension, label = case
    device = oambs(dimension) if direction is Direction.FORWARD else sbmao(dimension)
    out, amp = single_image(dict(compose_images(device.stages, label)))
    assert (out.oam, out.path) == oambs_closed_form(
        label.oam, label.path, dimension, direction
    )
    assert out.pol is label.pol
    assert abs(abs(amp) - 1.0) < 1e-12
