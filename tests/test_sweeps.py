"""Verify's per-label sweeps as array passes, against the seed walks.

Routing reports send all their photons through each device as label
columns, and the closed-form check reads a device's basis map, gathered
over the whole basis, in one pass.
Each must give the bits of the one-label-at-a-time walk kept in
``oracles``, and raise its error with its message.  The netlist path
matrix, replayed as two-row updates, must lie within 1e-15 of the matrix
products it replaced.  Also here: the typed refusals of those entry points and the
star's cached reflectors and space.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    CompositeDevice,
    Direction,
    DomainError,
    DoveStage,
    Hologram,
    HologramBank,
    Mirror,
    ModeLabel,
    MuxNetwork,
    Netlist,
    PhaseShifter,
    ReflectorBank,
    SimpleRoutingNetwork,
    StarNetwork,
    SymmetricMultiport,
    WindowOverflowError,
    choose_winding_simple,
    device_matrix,
    oambs,
    routing_report,
    sbmao,
)
from oamnet import cli, networks
from oamnet.netlist import (
    netlist_path_matrix,
    random_unitary,
    reck_decompose,
    symmetric_netlist,
)
from oamnet.multiport import _basis_map
from oamnet.states import LABEL_BOUND
from oracles import (
    basis_map_matrix,
    buffer_netlist_path_matrix,
    one_by_one_report_rows,
    seed_closed_form_error,
    seed_device_matrix,
    seed_netlist_path_matrix,
)


def _outcome(build):
    """The result of ``build()``, or the type and message it raised."""
    try:
        return build()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _row_bits(rows):
    return [(row, row.amplitude_error.hex()) for row in rows]


@st.composite
def routing_networks(draw):
    dimension = draw(st.integers(1, 8))
    window = draw(st.one_of(st.none(), st.integers(0, 3 * dimension)))
    kind = draw(st.sampled_from(("forward", "reverse", "star")))
    if kind != "star":
        return SimpleRoutingNetwork(dimension, kind, window)
    # ports up to D + 1 reach the invalid-port refusal; shifts past half the
    # label bound make the bank refuse its gather
    overrides = draw(
        st.lists(
            st.tuples(
                st.integers(0, dimension + 1),
                st.one_of(
                    st.integers(-3 * dimension, 3 * dimension),
                    st.sampled_from((LABEL_BOUND // 2 + 1, -(LABEL_BOUND // 2) - 1)),
                ),
            ),
            max_size=3,
        )
    )
    return StarNetwork(dimension, window, tuple(overrides))


@settings(max_examples=300, deadline=None)
@given(routing_networks())
def test_gathered_report_rows_equal_photon_by_photon_rows(network):
    reference = _outcome(lambda: _row_bits(one_by_one_report_rows(network)))
    gathered = _outcome(lambda: _row_bits(routing_report(network).rows))
    assert gathered == reference


@pytest.mark.parametrize("dimension", range(1, 9))
def test_reports_on_valid_networks_are_gathered(dimension, monkeypatch):
    def refuse(*args):
        raise AssertionError("a photon was delivered alone")

    monkeypatch.setattr(networks, "delivery_row", refuse)
    for network in (
        SimpleRoutingNetwork(dimension, Direction.FORWARD),
        SimpleRoutingNetwork(dimension, Direction.REVERSE),
        StarNetwork(dimension),
        StarNetwork(dimension, reflector_overrides=((0, 1),)),
    ):
        assert routing_report(network).rows


def test_a_refused_gather_falls_back_to_single_photons():
    # the reflector bank gathers no shift past half the label bound
    network = StarNetwork(3, LABEL_BOUND, ((1, LABEL_BOUND // 2 + 1),))
    rows = _row_bits(one_by_one_report_rows(network))
    assert not all(row.passed for row, _ in rows)
    assert _row_bits(routing_report(network).rows) == rows


class _PhaseDevice:
    """Keeps every label, times a phase of its own and the modulus
    ``scale``; its gather gives the factors of its ``mode_images``."""

    def __init__(self, dimension, scale, salt):
        self.dimension, self.scale, self.salt = dimension, scale, salt

    def _factor(self, path, winding):
        return self.scale * cmath.exp(0.37j * (31 * path + 7 * winding + self.salt))

    def mode_images(self, label):
        return [(label, self._factor(label.path, label.oam))]

    def label_images(self, path, winding):
        factors = [self._factor(*key) for key in zip(path.tolist(), winding.tolist())]
        re = np.array([factor.real for factor in factors])
        im = np.array([factor.imag for factor in factors])
        return path, winding, re, im


@pytest.mark.parametrize("scale", [1.0, 1 - 3e-10, 1 + 6e-10, 0.5, 1e-16])
@pytest.mark.parametrize("kind", ["forward", "star"])
def test_gathered_products_moduli_and_norm_checks_are_a_photons(
    scale, kind, monkeypatch
):
    # phases make numpy's complex multiply and abs round otherwise than the
    # split form and hypot; moduli off 1 by more than half the norm
    # tolerance must cross one by one, and raise as they would
    dimension = 6
    monkeypatch.setattr(networks, "oambs", lambda d: _PhaseDevice(d, scale, 1))
    monkeypatch.setattr(networks, "sbmao", lambda d: _PhaseDevice(d, scale, 2))
    if kind == "star":
        network = StarNetwork(dimension)
    else:
        network = SimpleRoutingNetwork(dimension, kind)
    reference = _outcome(lambda: _row_bits(one_by_one_report_rows(network)))
    if scale == 1.0:
        monkeypatch.setattr(networks, "delivery_row", None)
    assert _outcome(lambda: _row_bits(routing_report(network).rows)) == reference


class _Grounding:
    """Sends every label to winding 0 with factor 1, by gather too."""

    def __init__(self, dimension):
        self.dimension = dimension

    def mode_images(self, label):
        return [(ModeLabel(label.path, 0, label.pol), 1.0 + 0j)]

    def label_images(self, path, winding):
        return path, np.zeros_like(winding), None, None


def test_an_injected_label_is_window_checked_though_its_image_fits(monkeypatch):
    monkeypatch.setattr(networks, "oambs", _Grounding)
    network = SimpleRoutingNetwork(6, "forward", oam_window=2)
    reference = _outcome(lambda: one_by_one_report_rows(network))
    assert reference[0] is WindowOverflowError
    assert _outcome(lambda: routing_report(network)) == reference


def test_report_errors_are_the_first_photons(capsys):
    # photon (0, 1) is the first to carry winding 4 out of the window
    assert cli.main(["verify", "--dimension", "5", "--oam-window", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: winding number 4 outside window [-2, 2]\n"
    )


def _devices(dimension):
    """Tabled devices, banks and untabled devices of one dimension."""
    s = SymmetricMultiport(dimension)
    return (
        oambs(dimension),
        sbmao(dimension),
        CompositeDevice((s, DoveStage(dimension, Direction.REVERSE), s), dimension),
        CompositeDevice((s, s), dimension),
        HologramBank((0,) * dimension),
        ReflectorBank(tuple(range(dimension))),
        s,
        DoveStage(dimension),
        CompositeDevice((Hologram(0, 0), s), dimension),
    )


@pytest.mark.parametrize("dimension", range(1, 13))
def test_device_matrix_bits_equal_the_label_loop(dimension):
    for device in _devices(dimension):
        expected = _outcome(lambda: seed_device_matrix(device).tobytes())
        assert _outcome(lambda: device_matrix(device).tobytes()) == expected


@pytest.mark.parametrize(
    "device",
    [
        HologramBank((0, 5)),
        ReflectorBank((1, 0, 0)),
        CompositeDevice((Hologram(0, 5),), 2),
    ],
)
def test_device_matrix_names_the_first_label_leaving_the_basis(device):
    assert _outcome(lambda: device_matrix(device)) == _outcome(
        lambda: seed_device_matrix(device)
    )
    with pytest.raises(DomainError, match="^basis not closed: "):
        device_matrix(device)


@pytest.mark.parametrize("dimension", range(1, 17))
@pytest.mark.parametrize("build", [oambs, sbmao])
@pytest.mark.parametrize("direction", list(Direction))
def test_closed_form_error_bits_equal_the_walk(dimension, build, direction):
    # the device's basis map against the seed walk over its dense matrix;
    # includes each device against the other direction's closed form, and
    # D=2 forward, whose value moves under numpy's complex abs
    device = build(dimension)
    expected = seed_closed_form_error(device_matrix(device), dimension, direction)
    measured = cli._closed_form_error(_basis_map(device), dimension, direction)
    assert measured.hex() == float(expected).hex()


def test_closed_form_error_of_a_zero_first_amplitude_is_one():
    # every label one place on: the first photon's expected image is empty
    basis_map = (np.roll(np.arange(15), 1), np.ones(15, dtype=complex))
    matrix = basis_map_matrix(basis_map)
    assert cli._closed_form_error(basis_map, 3, Direction.FORWARD) == 1.0
    assert seed_closed_form_error(matrix, 3, Direction.FORWARD) == 1.0


def test_netlist_path_matrix_is_the_fresh_identity_product_within_1e_15():
    # the row updates round as scalar code does, the products as BLAS does
    rng = np.random.default_rng(23)
    for dimension in range(1, 17):
        netlists = [symmetric_netlist(dimension)]
        netlists += [reck_decompose(random_unitary(dimension, rng)) for _ in range(3)]
        for netlist in netlists:
            replayed = netlist_path_matrix(netlist)
            for reference in (
                seed_netlist_path_matrix(netlist),
                buffer_netlist_path_matrix(netlist),
            ):
                assert np.abs(replayed - reference).max() <= 1e-15
    # ports neither adjacent nor ascending, and a phase on a mixed port
    mixed = Netlist(
        5,
        (
            BeamSplitter(4, 1, 0.3, 0.2),
            PhaseShifter(1, 1.1),
            BeamSplitter(0, 3, 1.3, -0.5),
            BeamSplitter(1, 4, 0.7),
            PhaseShifter(4, -2.0),
        ),
    )
    assert np.abs(netlist_path_matrix(mixed) - seed_netlist_path_matrix(mixed)).max() <= 1e-15
    broken = Netlist(3, (BeamSplitter(0, 1, 0.4), Mirror(2)))
    assert _outcome(lambda: netlist_path_matrix(broken)) == _outcome(
        lambda: seed_netlist_path_matrix(broken)
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: routing_report(None), "not a routing network: NoneType"),
        (lambda: networks.delivery_row(None, 0, 0), "not a routing network: NoneType"),
        (lambda: networks.delivery_row(MuxNetwork(3), 0, 0), "no report for MuxNetwork"),
        (lambda: device_matrix(None), "not a device: NoneType"),
        (lambda: device_matrix(Mirror(0)), "not a device: Mirror"),
        (lambda: netlist_path_matrix(None), "not a netlist: NoneType"),
        (lambda: choose_winding_simple(0, 1, 3, side="x"), "not a direction: 'x'"),
        (lambda: SimpleRoutingNetwork(3, "x"), "not a direction: 'x'"),
    ],
)
def test_typed_refusals(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("dimension", [0, -1])
def test_random_unitary_refuses_a_dimension_below_one_before_drawing(dimension):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(DomainError, match=f"^dimension must be >= 1, got {dimension}$"):
        random_unitary(dimension, rng)
    assert rng.bit_generator.state == before


def test_star_reflectors_and_space_are_built_once_per_fields():
    assert StarNetwork(5).reflectors is StarNetwork(5).reflectors
    assert StarNetwork(5).space is StarNetwork(5).space
    assert StarNetwork(5, 7).space is not StarNetwork(5).space
    overridden = StarNetwork(4, reflector_overrides=((2, -3),))
    assert overridden.reflectors == ReflectorBank((0, 3, -3, 1))
    # overrides given as lists build the same bank
    assert StarNetwork(4, reflector_overrides=[[2, -3]]).reflectors is overridden.reflectors


def test_an_invalid_override_port_raises_on_every_use():
    star = StarNetwork(3, reflector_overrides=((3, 1),))
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^override port 3 outside \[0, 2\]$"):
            star.reflectors
        with pytest.raises(DomainError, match=r"^override port 3 outside \[0, 2\]$"):
            star.deliver(0, 1)


def test_the_space_cache_tells_an_int_dimension_from_a_float():
    # as building each space would: the float is refused even once the
    # int's space is cached
    assert type(StarNetwork(3).space.dimension) is int
    with pytest.raises(DomainError, match="^not an integer dimension: float$"):
        networks._mode_space(3.0)
