"""Triangular synthesis, netlist replay, and the flat device netlists."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oamnet import (
    BeamSplitter,
    DecompositionError,
    DomainError,
    DovePrism,
    Mirror,
    ModeLabel,
    ModeSpace,
    Netlist,
    PhaseShifter,
    PhotonState,
    global_phase_error,
    netlist_apply,
    netlist_path_matrix,
    oambs,
    oambs_closed_form,
    oambs_netlist,
    oambs_netlist_error,
    path_replay_error,
    random_unitary,
    reck_decompose,
    symmetric_matrix,
    symmetric_netlist,
)
from oracles import numpy_reck_decompose


def state_replay_matrix(netlist):
    """Replay through the sparse state machinery (independent of the
    matrix-product replay)."""
    dimension = netlist.dimension
    space = ModeSpace(dimension)
    matrix = np.zeros((dimension, dimension), dtype=complex)
    for path in range(dimension):
        photon = PhotonState(space, {ModeLabel(path, 0): 1.0})
        routed = netlist_apply(netlist, photon)
        for label, amp in routed.amplitudes.items():
            matrix[label.path, path] = amp
    return matrix


def test_identity_decomposes_to_no_beamsplitters():
    built = reck_decompose(np.eye(4))
    assert not any(isinstance(e, BeamSplitter) for e in built.elements)
    np.testing.assert_array_equal(netlist_path_matrix(built), np.eye(4))


def test_two_port_fourier_needs_one_beamsplitter():
    built = reck_decompose(symmetric_matrix(2))
    splitters = [e for e in built.elements if isinstance(e, BeamSplitter)]
    assert len(splitters) == 1
    assert path_replay_error(built, symmetric_matrix(2)) < 1e-12


def test_five_port_fourier_replay_residual():
    target = symmetric_matrix(5)
    assert path_replay_error(reck_decompose(target), target) < 1e-9


@pytest.mark.parametrize("dimension", range(2, 9))
def test_reck_reproduces_random_unitaries(dimension):
    rng = np.random.default_rng(100 + dimension)
    for _ in range(5):
        target = random_unitary(dimension, rng)
        built = reck_decompose(target)
        splitters = [e for e in built.elements if isinstance(e, BeamSplitter)]
        assert len(splitters) <= dimension * (dimension - 1) // 2
        assert path_replay_error(built, target) < 1e-9
        # independent route: replay through the state machinery
        err = global_phase_error(state_replay_matrix(built), target)
        assert err < 1e-9


def test_reck_rejects_non_unitary():
    with pytest.raises(DecompositionError):
        reck_decompose(np.ones((3, 3)))
    with pytest.raises(DecompositionError):
        reck_decompose(np.ones((2, 3)))


def nan_target():
    # every entry NaN: the unitarity gate compared NaN > 1e-10, which is
    # false, and six elements with NaN angles came out
    return np.full((3, 3), np.nan)


def inf_target():
    # one infinite entry: the gate's product warned "invalid value
    # encountered in matmul", and a splitter with a NaN angle came out
    target = np.eye(3, dtype=complex)
    target[1, 2] = np.inf
    return target


@pytest.mark.parametrize("build", [nan_target, inf_target], ids=["nan", "inf"])
def test_reck_refuses_non_finite_targets_without_a_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DecompositionError, match="non-finite"):
            reck_decompose(build())


@pytest.mark.parametrize(
    "target, defect",
    [
        (np.eye(3) * 1e300, "inf"),
        # inf - inf in every entry of U^H U: NaN > 1e-10 let it pass
        (np.array([[1e200, 1e200], [1e200, -1e200]]) * (1 + 1j), "nan"),
    ],
    ids=["inf", "nan"],
)
def test_reck_refuses_targets_whose_gate_overflows_without_a_warning(target, defect):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DecompositionError, match=f"not unitary: .* = {defect}$"):
            reck_decompose(target)


def test_netlist_validates_ports():
    with pytest.raises(DomainError):
        Netlist(2, (PhaseShifter(2, 0.1),))


def test_empty_netlist_is_identity():
    photon = PhotonState(ModeSpace(3), {ModeLabel(1, 2): 1.0})
    assert netlist_apply(Netlist(3, ()), photon) == photon


def test_netlist_dimension_must_match_state():
    photon = PhotonState(ModeSpace(3), {ModeLabel(1, 2): 1.0})
    with pytest.raises(DomainError):
        netlist_apply(Netlist(2, ()), photon)


def test_synthesized_multiport_spreads_winding_with_flip():
    # a winding-1 photon on path 0 must exit as a uniform spread of
    # winding -1 over all paths, up to one global phase
    dimension = 3
    built = reck_decompose(symmetric_matrix(dimension))
    photon = PhotonState(ModeSpace(dimension), {ModeLabel(0, 1): 1.0})
    routed = netlist_apply(replace(built, parity_flip=True), photon)
    expected = 1.0 / math.sqrt(dimension)
    amps = [routed.amplitude(ModeLabel(p, -1)) for p in range(dimension)]
    assert all(abs(abs(a) - expected) < 1e-9 for a in amps)
    phases = [a / abs(a) for a in amps]
    assert all(abs(p - phases[0]) < 1e-9 for p in phases)


def test_symmetric_netlist_declares_flip():
    built = symmetric_netlist(3)
    assert built.parity_flip
    assert path_replay_error(built, symmetric_matrix(3)) < 1e-9


def test_oambs_netlist_structure():
    dimension = 3
    built = oambs_netlist(dimension)
    assert built.parity_flip
    prisms = [e for e in built.elements if isinstance(e, DovePrism)]
    assert [p.port for p in prisms] == list(range(dimension))
    assert prisms[1].alpha == pytest.approx(2 * math.pi / dimension)
    mirrors = [e for e in built.elements if isinstance(e, Mirror)]
    assert len(mirrors) == dimension
    # prisms sit between the two triangles
    kinds = [type(e).__name__ for e in built.elements]
    first_bs = kinds.index("BeamSplitter")
    last_bs = len(kinds) - 1 - kinds[::-1].index("BeamSplitter")
    assert first_bs < kinds.index("DovePrism") < last_bs


@pytest.mark.parametrize("dimension", range(2, 6))
def test_oambs_netlist_matches_closed_form(dimension):
    built = oambs_netlist(dimension)
    space = ModeSpace(dimension)
    shared_phase = None
    for path in range(dimension):
        for oam in range(dimension):
            photon = PhotonState(space, {ModeLabel(path, oam): 1.0})
            routed = netlist_apply(built, photon)
            out_oam, out_path = oambs_closed_form(oam, path, dimension)
            amp = routed.amplitude(ModeLabel(out_path, out_oam))
            assert abs(abs(amp) - 1.0) < 1e-9
            if shared_phase is None:
                shared_phase = amp / abs(amp)
            assert abs(amp - shared_phase) < 1e-9


def test_oambs_netlist_error_metric():
    assert oambs_netlist_error(oambs_netlist(3)) < 1e-9
    # a broken netlist (missing prisms) must be flagged
    dimension = 3
    triangle = reck_decompose(symmetric_matrix(dimension))
    broken = Netlist(
        dimension,
        triangle.elements + triangle.elements,
        parity_flip=False,
    )
    assert oambs_netlist_error(broken) > 1e-3


def oambs_netlist_without_flip(dimension):
    return replace(oambs_netlist(dimension), parity_flip=False)


# exact values of the netlist metric, measured when the triangles came from
# the scalar elimination loop; the goldens print it too, and no value may
# depend on the BLAS kernel
@pytest.mark.parametrize(
    "build, dimension, expected",
    [
        (oambs_netlist_without_flip, 3, 1.0000000000000002),
        (oambs_netlist_without_flip, 4, 1.0000000000000002),
        (oambs_netlist, 3, 9.921724208499545e-16),
        (oambs_netlist, 4, 3.302818471710395e-16),
        (oambs_netlist, 8, 1.3276920329835231e-15),
        (oambs_netlist, 12, 2.4746156085054336e-15),
        (symmetric_netlist, 3, 1.3822747926960688),
        (symmetric_netlist, 4, 1.5),
        (symmetric_netlist, 8, 1.353553390593274),
    ],
)
def test_oambs_netlist_error_values(build, dimension, expected):
    assert oambs_netlist_error(build(dimension)) == expected


def _angles(netlist):
    """Each element's type and ports, and its angles."""
    shape, angles = [], []
    for element in netlist.elements:
        if isinstance(element, BeamSplitter):
            shape.append(("bs", element.port_a, element.port_b))
            angles += [element.theta, element.phi]
        else:
            shape.append(("ps", element.port))
            angles.append(element.phi)
    return shape, angles


@pytest.mark.parametrize("dimension", range(1, 17))
def test_the_scalar_reck_loop_agrees_with_numpy_pair_updates(dimension):
    rng = np.random.default_rng(100 + dimension)
    targets = [symmetric_matrix(dimension)]
    targets += [random_unitary(dimension, rng) for _ in range(4)]
    for target in targets:
        built = reck_decompose(target)
        reference = numpy_reck_decompose(target)
        shape, angles = _angles(built)
        assert shape == _angles(reference)[0]
        for angle, expected in zip(angles, _angles(reference)[1]):
            # a phase on the branch cut may come out as pi or -pi
            assert abs(math.remainder(angle - expected, 2 * math.pi)) <= 1e-13
        assert path_replay_error(built, target) <= 1e-12


def test_netlist_path_matrix_rejects_oam_elements():
    with pytest.raises(DomainError):
        netlist_path_matrix(Netlist(2, (Mirror(0),)))


def test_netlist_holds_elementary_elements_only():
    with pytest.raises(
        DomainError,
        match="^netlists hold elementary elements only, got CompositeDevice$",
    ):
        Netlist(2, (oambs(2),))


def test_reck_refuses_an_empty_target():
    with pytest.raises(
        DecompositionError,
        match=r"^target must be a non-empty square matrix, got \(0, 0\)$",
    ):
        reck_decompose(np.zeros((0, 0)))


@pytest.mark.parametrize("dimension", [1, 2, 5, 8])
def test_device_netlists_check_ports_once(dimension, monkeypatch):
    from oamnet.elements import PortElement
    from oamnet.serialize import netlist_dumps, netlist_loads

    checked = []
    check = PortElement.check_ports

    def spy(self, size):
        checked.append(self)
        return check(self, size)

    monkeypatch.setattr(PortElement, "check_ports", spy)
    triangle = reck_decompose(symmetric_matrix(dimension))
    assert checked == list(triangle.elements)
    for build in (oambs_netlist, symmetric_netlist):
        checked.clear()
        built = build(dimension)
        # only the triangle that reck_decompose returns is checked
        assert checked == list(triangle.elements)
        assert built == Netlist(dimension, built.elements, True)
        # a loaded netlist is checked again, element by element
        checked.clear()
        assert netlist_loads(netlist_dumps(built)) == built
        assert checked == list(built.elements)
    assert symmetric_netlist(dimension) == replace(triangle, parity_flip=True)
