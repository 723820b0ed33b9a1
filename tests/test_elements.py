"""Elementary optical elements: formulas, unitarity, and composition rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    CompositeDevice,
    DomainError,
    DovePrism,
    H,
    Hologram,
    Mirror,
    ModeLabel,
    ModeSpace,
    Netlist,
    PhaseShifter,
    PhotonState,
    ReflectiveHologram,
    V,
    apply_mode_map,
    beamsplitter_block,
)
from oracles import matrix_of_operator, seed_element_images

SPACE = ModeSpace(3, 8)


def h_photon(path, oam, space=SPACE):
    return PhotonState(space, {ModeLabel(path, oam): 1.0})


def test_phase_shifter_zero_is_identity():
    photon = h_photon(0, 1)
    assert apply_mode_map(photon, PhaseShifter(0, 0.0)) == photon


def test_phase_shifter_half_turn():
    flipped = apply_mode_map(h_photon(0, 0), PhaseShifter(0, math.pi))
    assert flipped.amplitude(ModeLabel(0, 0)) == pytest.approx(-1.0)


def test_phase_shifter_acts_on_one_path_only():
    root_half = 1 / math.sqrt(2)
    photon = PhotonState(
        SPACE, {ModeLabel(0, 0): root_half, ModeLabel(1, 0): root_half}
    )
    shifted = apply_mode_map(photon, PhaseShifter(0, math.pi / 2))
    assert shifted.amplitude(ModeLabel(0, 0)) == pytest.approx(1j * root_half)
    assert shifted.amplitude(ModeLabel(1, 0)) == pytest.approx(root_half)


def test_beamsplitter_zero_angle_is_identity():
    photon = h_photon(0, 2)
    assert apply_mode_map(photon, BeamSplitter(0, 1, 0.0)) == photon


def test_beamsplitter_balanced():
    split = apply_mode_map(h_photon(0, 2), BeamSplitter(0, 1, math.pi / 4))
    root_half = 1 / math.sqrt(2)
    assert split.amplitude(ModeLabel(0, 2)) == pytest.approx(root_half)
    assert split.amplitude(ModeLabel(1, 2)) == pytest.approx(1j * root_half)


def test_beamsplitter_full_swap():
    swapped = apply_mode_map(h_photon(0, 2), BeamSplitter(0, 1, math.pi / 2))
    assert swapped.amplitude(ModeLabel(1, 2)) == pytest.approx(1j)
    assert abs(swapped.amplitude(ModeLabel(0, 2))) < 1e-12


def test_beamsplitter_identical_ports_rejected():
    with pytest.raises(DomainError):
        BeamSplitter(1, 1, 0.3)


def test_mirror_fixes_zero_winding():
    photon = h_photon(0, 0)
    assert apply_mode_map(photon, Mirror(0)) == photon


def test_mirror_flips_winding_sign():
    reflected = apply_mode_map(h_photon(0, 3), Mirror(0))
    assert reflected.amplitudes == {ModeLabel(0, -3): 1 + 0j}


def test_mirror_is_involution():
    photon = h_photon(0, 2)
    assert apply_mode_map(apply_mode_map(photon, Mirror(0)), Mirror(0)) == photon


def test_dove_zero_rotation_still_reflects():
    out = apply_mode_map(h_photon(0, 5), DovePrism(0, 0.0))
    assert out.amplitudes == {ModeLabel(0, -5): 1 + 0j}


def test_dove_forward_phase():
    alpha = 2 * math.pi / 3
    out = apply_mode_map(h_photon(0, 1), DovePrism(0, alpha))
    assert out.amplitude(ModeLabel(0, -1)) == pytest.approx(
        np.exp(-1j * alpha)
    )


def test_dove_reverse_conjugates_phase():
    alpha = 2 * math.pi / 3
    out = apply_mode_map(h_photon(0, 1), DovePrism(0, alpha).reversed())
    assert out.amplitude(ModeLabel(0, -1)) == pytest.approx(np.exp(1j * alpha))


def test_dove_twice_is_identity():
    # reflection twice, phases exp(-i*a*l) then exp(+i*a*l): they cancel
    # because the second transit already sees the flipped winding
    alpha = 1.234
    photon = h_photon(0, 3)
    prism = DovePrism(0, alpha)
    out = apply_mode_map(apply_mode_map(photon, prism), prism)
    assert abs(out.amplitude(ModeLabel(0, 3)) - 1.0) < 1e-12


def test_dove_round_trip_through_mirror_is_pure_mirror():
    # forward transit, bounce, counter-propagating transit: the prism
    # phases cancel and only the odd reflection count survives
    alpha = 0.777
    photon = h_photon(0, 3)
    out = apply_mode_map(
        apply_mode_map(apply_mode_map(photon, DovePrism(0, alpha)), Mirror(0)),
        DovePrism(0, alpha).reversed(),
    )
    assert abs(out.amplitude(ModeLabel(0, -3)) - 1.0) < 1e-12


def test_hologram_zero_shift_is_identity():
    photon = h_photon(0, 1)
    assert apply_mode_map(photon, Hologram(0, 0)) == photon


def test_hologram_positive_shift():
    out = apply_mode_map(h_photon(0, 1), Hologram(0, 2))
    assert out.amplitudes == {ModeLabel(0, 3): 1 + 0j}


def test_hologram_negative_shift():
    out = apply_mode_map(h_photon(0, 1), Hologram(0, -3))
    assert out.amplitudes == {ModeLabel(0, -2): 1 + 0j}


def test_hologram_inverse_pair():
    photon = h_photon(0, 1)
    shifted = apply_mode_map(photon, Hologram(0, 4))
    assert apply_mode_map(shifted, Hologram(0, -4)) == photon


def test_reflective_hologram_zero_shift_is_mirror():
    out = apply_mode_map(h_photon(0, 2), ReflectiveHologram(0, 0))
    assert out.amplitudes == {ModeLabel(0, -2): 1 + 0j}


def test_reflective_hologram_shifts():
    out = apply_mode_map(h_photon(0, 1), ReflectiveHologram(0, 3))
    assert out.amplitudes == {ModeLabel(0, -4): 1 + 0j}
    out = apply_mode_map(h_photon(0, -1), ReflectiveHologram(0, -2))
    assert out.amplitudes == {ModeLabel(0, 3): 1 + 0j}


@pytest.mark.parametrize("oam", range(-4, 5))
@pytest.mark.parametrize("k", [-2, 0, 3])
def test_reflective_equals_mirror_then_negative_hologram(oam, k):
    photon = h_photon(0, oam)
    direct = apply_mode_map(photon, ReflectiveHologram(0, k))
    staged = apply_mode_map(apply_mode_map(photon, Mirror(0)), Hologram(0, -k))
    assert direct == staged


@pytest.mark.parametrize(
    "element",
    [
        PhaseShifter(0, 0.7),
        BeamSplitter(0, 1, 0.3, 1.1),
        Mirror(1),
        DovePrism(2, 2.1),
    ],
)
def test_element_unitary_on_closed_basis(element):
    labels = [
        ModeLabel(path, oam, pol)
        for path in range(3)
        for oam in range(-2, 3)
        for pol in (H, V)
    ]
    matrix = matrix_of_operator(element, labels)
    np.testing.assert_allclose(
        matrix.conj().T @ matrix, np.eye(len(labels)), atol=1e-12
    )


@pytest.mark.parametrize(
    "element",
    [
        PhaseShifter(0, 0.7),
        BeamSplitter(0, 1, 0.3, 1.1),
        Mirror(0),
        DovePrism(0, 2.1),
    ],
)
def test_elements_ignore_polarization(element):
    for_h = dict(element.mode_images(ModeLabel(0, 2, H)))
    for_v = dict(element.mode_images(ModeLabel(0, 2, V)))
    assert len(for_h) == len(for_v)
    for label, amp in for_h.items():
        twin = ModeLabel(label.path, label.oam, V)
        assert for_v[twin] == amp


def test_beamsplitter_block_is_not_part_of_its_value():
    splitter = BeamSplitter(2, 0, 0.3)
    assert repr(splitter) == "BeamSplitter(port_a=2, port_b=0, theta=0.3, phi=0.0)"
    assert splitter == BeamSplitter(2, 0, 0.3, 0.0)
    assert hash(splitter) == hash(BeamSplitter(2, 0, 0.3, 0.0))
    block = beamsplitter_block(0.3, 0.0)
    assert splitter.mode_images(ModeLabel(0, 1, V)) == (
        (ModeLabel(2, 1, V), block[0][1]),
        (ModeLabel(0, 1, V), block[1][1]),
    )


REVERSIBLE = [
    PhaseShifter(1, 0.7),
    Mirror(2),
    BeamSplitter(2, 0, 0.3, 1.1),
    DovePrism(1, 2.1),
]


@pytest.mark.parametrize(
    "element, expected",
    zip(
        REVERSIBLE,
        [
            PhaseShifter(1, 0.7),
            Mirror(2),
            BeamSplitter(2, 0, 0.3, -1.1),
            DovePrism(1, -2.1),
        ],
    ),
)
def test_reversed_element(element, expected):
    assert element.reversed() == expected
    assert element.reversed().reversed() == element


@pytest.mark.parametrize("element", REVERSIBLE)
def test_reverse_transit_is_the_transpose(element):
    # reciprocal optics: right to left, each element acts by its transpose
    labels = [
        ModeLabel(path, oam) for path in range(3) for oam in range(-2, 3)
    ]
    np.testing.assert_allclose(
        matrix_of_operator(element.reversed(), labels),
        matrix_of_operator(element, labels).T,
        rtol=0,
        atol=1e-15,
    )


@pytest.mark.parametrize("element", [Hologram(0, 2), ReflectiveHologram(1, -1)])
def test_holograms_have_no_reverse_transit(element):
    message = f"^no reverse-transit convention for {type(element).__name__}$"
    with pytest.raises(DomainError, match=message):
        element.reversed()


@pytest.mark.parametrize(
    "element, message",
    [
        (Hologram(3, 1), r"^Hologram port 3 outside \[0, 2\]$"),
        (BeamSplitter(0, 5, 0.3), r"^BeamSplitter port 5 outside \[0, 2\]$"),
        (Mirror(-1), r"^Mirror port -1 outside \[0, 2\]$"),
    ],
    ids=["hologram", "beamsplitter", "negative-port"],
)
def test_composite_device_validates_element_ports(element, message):
    # ports are checked where elements join a device, not per application
    with pytest.raises(DomainError, match=message):
        CompositeDevice((element,), 3)
    with pytest.raises(DomainError, match=message):
        Netlist(3, (element,))


# --- port rules against the seed formulas ------------------------------------

RULE_DIMENSION = 3
# windings up to 3D either way, and next to the label bound 2**62
WINDINGS = st.one_of(
    st.integers(-3 * RULE_DIMENSION, 3 * RULE_DIMENSION),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(-(2**62) - 3, -(2**62) + 3),
)
# signed zeros give factors and phases with zero parts of either sign
ANGLES = st.one_of(
    st.floats(-2 * math.pi, 2 * math.pi),
    st.sampled_from((0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e-300, -1e-16)),
)
PORTS = st.integers(0, RULE_DIMENSION - 1)


def ruled_elements():
    pairs = st.tuples(PORTS, PORTS).filter(lambda pair: pair[0] != pair[1])
    return st.one_of(
        st.builds(PhaseShifter, PORTS, ANGLES),
        st.builds(
            lambda pair, theta, phi: BeamSplitter(pair[0], pair[1], theta, phi),
            pairs,
            ANGLES,
            ANGLES,
        ),
        st.builds(Mirror, PORTS),
        st.builds(DovePrism, PORTS, ANGLES),
        st.builds(Hologram, PORTS, WINDINGS),
        st.builds(ReflectiveHologram, PORTS, WINDINGS),
    )


def image_bits(images):
    """Images with each factor's type and both parts in hex: equal only
    when they agree bit for bit, signs of zeros included."""
    return [
        (image, type(factor), factor.real.hex(), factor.imag.hex())
        for image, factor in images
    ]


@settings(max_examples=600, deadline=None)
@given(
    ruled_elements(),
    st.builds(ModeLabel, PORTS, WINDINGS, st.sampled_from((H, V))),
)
def test_port_rules_give_the_seed_formulas_bit_for_bit(element, label):
    assert len(element.port_rules) == len(element.ports)
    assert image_bits(element.mode_images(label)) == image_bits(
        seed_element_images(element, label)
    )


def test_an_element_without_rules_must_give_its_own_images():
    from oamnet.elements import PortElement

    class Bare(PortElement):
        port = 0

    with pytest.raises(NotImplementedError, match="Bare states no port rules"):
        Bare().mode_images(ModeLabel(0, 1))
    assert Bare().mode_images(ModeLabel(1, 1)) == ((ModeLabel(1, 1), 1.0 + 0j),)
