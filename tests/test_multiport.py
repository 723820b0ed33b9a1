"""Multiport scattering, closed-form routing maps, and permutation checks."""

import math

import numpy as np
import pytest

from oamnet import (
    BeamSplitter,
    DomainError,
    DovePrism,
    Hologram,
    CompositeDevice,
    Mirror,
    ModeLabel,
    ModeSpace,
    PhotonState,
    SymmetricMultiport,
    apply_mode_map,
    default_oam_values,
    device_matrix,
    global_phase_error,
    is_generalized_permutation,
    oambs,
    oambs_closed_form,
    sbmao,
    symmetric_matrix,
)
from oracles import oam_beamsplitter_matrix

ROOT_HALF = 1.0 / math.sqrt(2.0)


def test_symmetric_matrix_dimension_one():
    np.testing.assert_array_equal(symmetric_matrix(1), np.array([[1.0 + 0j]]))


def test_symmetric_matrix_dimension_two():
    expected = np.array([[ROOT_HALF, ROOT_HALF], [ROOT_HALF, -ROOT_HALF]])
    np.testing.assert_allclose(symmetric_matrix(2), expected, atol=1e-15)


def test_symmetric_matrix_entry_two_three_of_four():
    # exp(i*2*pi*6/4)/2 = exp(i*3*pi)/2 = -1/2
    assert symmetric_matrix(4)[2, 3] == pytest.approx(-0.5)


def test_symmetric_matrix_rejects_zero_dimension():
    with pytest.raises(DomainError):
        symmetric_matrix(0)


@pytest.mark.parametrize("dimension", range(1, 13))
def test_symmetric_matrix_unitary_and_exactly_symmetric(dimension):
    s = symmetric_matrix(dimension)
    defect = np.max(np.abs(s.conj().T @ s - np.eye(dimension)))
    assert defect < 1e-12
    assert np.array_equal(s, s.T)


def test_closed_form_all_zero_fixed_point():
    assert oambs_closed_form(0, 0, 3) == (0, 0)


def test_closed_form_examples():
    assert oambs_closed_form(1, 1, 3) == (-1, 1)
    assert oambs_closed_form(2, 1, 4, "reverse") == (-2, 1)


@pytest.mark.parametrize("dimension", range(2, 9))
@pytest.mark.parametrize("reverse", [False, True])
def test_closed_form_matches_matrix_product_oracle(dimension, reverse):
    window = default_oam_values(dimension)
    oracle = oam_beamsplitter_matrix(dimension, window, reverse)
    stride = len(window)

    def index(path, oam):
        return path * stride + (oam + dimension - 1)

    direction = "reverse" if reverse else "forward"
    for path in range(dimension):
        for oam in range(dimension):
            out_oam, out_path = oambs_closed_form(
                oam, path, dimension, direction
            )
            column = oracle[:, index(path, oam)]
            assert column[index(out_path, out_oam)] == pytest.approx(
                1.0, abs=1e-9
            )
            rest = np.delete(column, index(out_path, out_oam))
            assert np.max(np.abs(rest)) < 1e-9


@pytest.mark.parametrize("dimension", range(1, 9))
@pytest.mark.parametrize("build", [oambs, sbmao])
def test_device_matrix_matches_oracle(dimension, build):
    device = device_matrix(build(dimension))
    oracle = oam_beamsplitter_matrix(
        dimension, default_oam_values(dimension), reverse=(build is sbmao)
    )
    np.testing.assert_allclose(device, oracle, atol=1e-12)


def test_identity_device_matrix():
    device = CompositeDevice((Hologram(0, 0),), 3)
    np.testing.assert_array_equal(device_matrix(device), np.eye(15))


@pytest.mark.parametrize("dimension", range(2, 9))
def test_device_matrix_unitary(dimension):
    matrix = device_matrix(oambs(dimension))
    np.testing.assert_allclose(
        matrix.conj().T @ matrix, np.eye(matrix.shape[0]), atol=1e-10
    )


@pytest.mark.parametrize("dimension", range(2, 9))
def test_reverse_composed_with_forward_is_identity(dimension):
    forward = device_matrix(oambs(dimension))
    backward = device_matrix(sbmao(dimension))
    err = global_phase_error(backward @ forward, np.eye(forward.shape[0]))
    assert err < 1e-9


def test_device_matrix_requires_sign_closed_window():
    with pytest.raises(DomainError):
        device_matrix(oambs(3), oam_values=[0, 1, 2])


def test_device_matrix_detects_escaping_images():
    device = CompositeDevice((Hologram(0, 5),), 2)
    with pytest.raises(DomainError):
        device_matrix(device, oam_values=range(-1, 2))


def test_is_generalized_permutation_identity():
    ok, witness = is_generalized_permutation(np.eye(4))
    assert ok
    assert witness == {i: (i, 1 + 0j) for i in range(4)}


def test_is_generalized_permutation_oambs():
    ok, witness = is_generalized_permutation(
        device_matrix(oambs(4), oam_values=range(-3, 4))
    )
    assert ok
    outputs = {i for i, _ in witness.values()}
    assert len(outputs) == len(witness)


def test_is_generalized_permutation_rejects_fourier():
    ok, witness = is_generalized_permutation(symmetric_matrix(2))
    assert not ok
    assert witness is None


def test_is_generalized_permutation_witness_phases():
    matrix = np.diag([1.0, -1.0, 1j])
    ok, witness = is_generalized_permutation(matrix)
    assert ok
    assert witness[1] == (1, -1 + 0j)
    assert witness[2] == (2, 1j)


def test_raw_multiport_stage_fails_permutation_check():
    ok, _ = is_generalized_permutation(device_matrix(SymmetricMultiport(3)))
    assert not ok


@pytest.mark.parametrize("dimension", range(2, 7))
def test_stage_application_matches_closed_form_exactly(dimension):
    # the geometric sum collapses: the delivered amplitude is exactly 1
    space = ModeSpace(dimension)
    device = oambs(dimension)
    for path in range(dimension):
        for oam in range(dimension):
            photon = PhotonState(space, {ModeLabel(path, oam): 1.0})
            routed = apply_mode_map(photon, device)
            out_oam, out_path = oambs_closed_form(oam, path, dimension)
            amp = routed.amplitude(ModeLabel(out_path, out_oam))
            assert amp == pytest.approx(1.0, abs=1e-12)


def test_dove_stage_direction_symmetry():
    # reversing twice restores the forward device
    device = oambs(5)
    assert device.reversed().reversed() == device


def test_devices_are_built_once_per_dimension():
    assert oambs(5) is oambs(5)
    assert sbmao(5) is sbmao(5)
    assert sbmao(5) == oambs(5).reversed()
    assert oambs(4) != oambs(5)


def test_composite_reversal_reverses_each_element():
    device = CompositeDevice(
        (BeamSplitter(0, 1, 0.3, 0.5), DovePrism(1, 0.2), Mirror(0)), 2
    )
    assert device.reversed().stages == (
        Mirror(0),
        DovePrism(1, -0.2),
        BeamSplitter(0, 1, 0.3, -0.5),
    )
    with pytest.raises(DomainError, match="for Hologram$"):
        CompositeDevice((Mirror(0), Hologram(1, 2)), 2).reversed()
