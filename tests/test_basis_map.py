"""Verify's device checks read basis maps, against the dense matrices.

``multiport._basis_map`` gathers a device's images of the whole
``device_basis`` at once: each label's one image, as a position in the
basis, and its amplitude.  Verify's closed-form, inverse and
generalized-permutation checks read these maps instead of dense device
matrices; each must give the bits, or the verdict, of the same check on
the matrices ``device_matrix`` builds label by label.  The closed-form
check's own comparison with the seed walk is in ``test_sweeps.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    CompositeDevice,
    Direction,
    DomainError,
    DoveStage,
    Hologram,
    HologramBank,
    ReflectorBank,
    SymmetricMultiport,
    cli,
    device_matrix,
    global_phase_error,
    is_generalized_permutation,
    multiport,
    oambs,
    sbmao,
    symmetric_matrix,
)
from oamnet.cli import RunConfig, _closed_form_error, _inverse_error, _is_permutation_map
from oamnet.multiport import GENPERM_TOL, _basis_map
from oracles import basis_map_matrix, split_matrix_product

PAIRS = [(oambs, sbmao), (oambs, oambs), (sbmao, sbmao)]


@pytest.mark.parametrize("dimension", range(1, 13))
def test_a_basis_map_holds_the_device_matrix(dimension):
    s = SymmetricMultiport(dimension)
    for device in (
        oambs(dimension),
        sbmao(dimension),
        CompositeDevice((s, DoveStage(dimension, Direction.REVERSE), s), dimension),
        HologramBank((0,) * dimension),
        ReflectorBank((0,) * dimension),
    ):
        basis_map = _basis_map(device)
        assert basis_map is not None
        matrix = basis_map_matrix(basis_map)
        assert matrix.tobytes() == device_matrix(device).tobytes()


@pytest.mark.parametrize("dimension", range(2, 6))
def test_devices_without_a_one_to_one_gather_have_no_basis_map(dimension):
    s = SymmetricMultiport(dimension)
    for device in (s, DoveStage(dimension), CompositeDevice((Hologram(0, 0), s), dimension)):
        assert _basis_map(device) is None
    # the shifted windings leave the basis, as device_matrix reports
    shifted = ReflectorBank(tuple(range(dimension)))
    assert _basis_map(shifted) is None
    with pytest.raises(DomainError, match="^basis not closed: "):
        device_matrix(shifted)


@pytest.mark.parametrize("dimension", range(1, 17))
@pytest.mark.parametrize("first, then", PAIRS)
def test_inverse_error_bits_equal_the_dense_product(dimension, first, then):
    # (oambs, oambs) and (sbmao, sbmao) send most columns off the diagonal
    product = device_matrix(then(dimension)) @ device_matrix(first(dimension))
    expected = global_phase_error(product, np.eye(len(product)))
    measured = _inverse_error(_basis_map(first(dimension)), _basis_map(then(dimension)))
    assert measured.hex() == expected.hex()


@st.composite
def basis_maps(draw, size):
    """A one-to-one map of ``size`` labels: a permutation, often the
    identity, and finite amplitudes, often of unit modulus."""
    if draw(st.booleans()):
        image = np.arange(size)
    else:
        image = np.array(draw(st.permutations(range(size))))
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    phase = st.floats(-np.pi, np.pi)
    amplitudes = [
        draw(
            st.one_of(
                st.builds(complex, part, part),
                st.builds(lambda angle: complex(np.exp(1j * angle)), phase),
                st.just(1 + 0j),
            )
        )
        for _ in range(size)
    ]
    return image, np.array(amplitudes, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inverse_error_of_any_two_maps_is_the_dense_product_scored(data):
    # the dense product in split form, whose entries hold the product of
    # the maps' amplitudes whichever BLAS kernel runs
    size = data.draw(st.integers(1, 12))
    first, then = data.draw(basis_maps(size)), data.draw(basis_maps(size))
    product = split_matrix_product(basis_map_matrix(then), basis_map_matrix(first))
    expected = global_phase_error(product, np.eye(size))
    assert _inverse_error(first, then).hex() == expected.hex()


@pytest.mark.parametrize("dimension", range(1, 17))
def test_permutation_verdicts_equal_the_dense_check(dimension):
    for device in (oambs(dimension), sbmao(dimension)):
        dense, _ = is_generalized_permutation(device_matrix(device))
        assert _is_permutation_map(_basis_map(device)) == dense
    raw, _ = is_generalized_permutation(device_matrix(SymmetricMultiport(dimension)))
    assert is_generalized_permutation(symmetric_matrix(dimension))[0] == raw
    assert raw == (dimension == 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_permutation_verdict_of_any_map_is_the_dense_one(data):
    size = data.draw(st.integers(1, 12))
    image, _ = data.draw(basis_maps(size))
    angles = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=size, max_size=size))
    amplitudes = np.exp(1j * np.array(angles))
    # one modulus on either side of the tolerance, zero or not finite
    modulus = data.draw(
        st.sampled_from(
            (1 + GENPERM_TOL / 2, 1 - 2 * GENPERM_TOL, GENPERM_TOL / 2, 0.0, np.nan, np.inf)
        )
    )
    if data.draw(st.booleans()):
        amplitudes[data.draw(st.integers(0, size - 1))] = modulus
    dense, _ = is_generalized_permutation(basis_map_matrix((image, amplitudes)))
    assert _is_permutation_map((image, amplitudes)) == dense


def test_without_a_basis_map_the_device_checks_fail_with_one():
    assert _basis_map(SymmetricMultiport(3)) is None
    known = _basis_map(oambs(3))
    assert _closed_form_error(None, 3, Direction.FORWARD) == 1.0
    assert _inverse_error(None, known) == _inverse_error(known, None) == 1.0
    assert not _is_permutation_map(None)


def test_verify_fails_its_device_checks_without_basis_maps(monkeypatch):
    monkeypatch.setattr(cli, "_basis_map", lambda device: None)
    checks = {check["name"]: check for check in cli._verify_checks(RunConfig("verify", 3))}
    for name in (
        "closed_form_forward",
        "closed_form_reverse",
        "inverse_identity",
        "generalized_permutation",
    ):
        assert (checks[name]["pass"], checks[name]["measured_error"]) == (False, 1.0)
    assert checks["mux_roundtrip"]["pass"]


def test_verify_builds_no_device_matrix(monkeypatch):
    def refuse(device):
        raise AssertionError("a device matrix was built")

    shapes = []
    check = is_generalized_permutation

    def spy(matrix, *args):
        shapes.append(np.shape(matrix))
        return check(matrix, *args)

    monkeypatch.setattr(multiport, "device_matrix", refuse)
    monkeypatch.setattr(cli, "device_matrix", refuse)
    monkeypatch.setattr(cli, "is_generalized_permutation", spy)
    checks = cli._verify_checks(RunConfig("verify", 6))
    assert all(check["pass"] for check in checks)
    assert shapes == [(6, 6)]
