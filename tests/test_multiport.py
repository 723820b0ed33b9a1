"""Multiport scattering, closed-form routing maps, and permutation checks."""

import math

import numpy as np
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
    HologramBank,
    CompositeDevice,
    Mirror,
    ModeLabel,
    ModeSpace,
    Netlist,
    PhotonState,
    QubitSpec,
    ReflectorBank,
    SymmetricMultiport,
    V,
    apply_mode_map,
    default_oam_values,
    device_matrix,
    global_phase_error,
    is_generalized_permutation,
    make_qubit_photon,
    oambs,
    oambs_closed_form,
    sbmao,
    symmetric_matrix,
    tensor,
)
from oamnet import cli, multiport
from oamnet.multiport import GENPERM_TOL
from oamnet.states import compose_images
from oracles import (
    amplitude_bits,
    column_walk_generalized_permutation,
    oam_beamsplitter_matrix,
    prefix_expansion_amplitudes,
)

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


def test_device_matrix_counts_its_entries_before_building(monkeypatch):
    # D=4 has 4 * 7 = 28 basis labels, so 784 entries
    device = oambs(4)
    monkeypatch.setattr(multiport, "MAX_MATRIX_ENTRIES", 783)

    def refuse(*args):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(multiport.np, "zeros", refuse)
    with pytest.raises(
        DomainError,
        match=r"^a device matrix of 784 entries exceeds the bound of 783 entries$",
    ):
        device_matrix(device)
    monkeypatch.undo()
    monkeypatch.setattr(multiport, "MAX_MATRIX_ENTRIES", 784)
    assert device_matrix(device).shape == (28, 28)


def test_the_matrix_bound_spares_verify_up_to_d20_and_stops_d40():
    assert (20 * 39) ** 2 <= multiport.MAX_MATRIX_ENTRIES < (40 * 79) ** 2


@pytest.fixture
def fresh_matrix_caches():
    # a cached Fourier matrix would skip the bound
    multiport._symmetric_matrix_cached.cache_clear()
    multiport._fourier_columns.cache_clear()
    yield
    multiport._symmetric_matrix_cached.cache_clear()
    multiport._fourier_columns.cache_clear()


def test_fourier_matrix_counts_its_entries_before_building(
    fresh_matrix_caches, monkeypatch
):
    monkeypatch.setattr(multiport, "MAX_MATRIX_ENTRIES", 15)

    def refuse(*args):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(multiport.np, "outer", refuse)
    message = r"^a Fourier matrix of 16 entries exceeds the bound of 15 entries$"
    with pytest.raises(DomainError, match=message):
        symmetric_matrix(4)
    with pytest.raises(DomainError, match=message):
        SymmetricMultiport(4).mode_images(ModeLabel(0, 1))
    monkeypatch.undo()
    monkeypatch.setattr(multiport, "MAX_MATRIX_ENTRIES", 16)
    assert symmetric_matrix(4).shape == (4, 4)


def test_verify_exits_2_on_the_fourier_matrix_bound(
    fresh_matrix_caches, monkeypatch, capsys
):
    monkeypatch.setattr(multiport, "MAX_MATRIX_ENTRIES", 15)
    assert cli.main(["verify", "--dimension", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: a Fourier matrix of 16 entries exceeds the bound of 15 entries\n"
    )


def test_the_matrix_bound_spares_the_fourier_matrix_up_to_d2048():
    assert 2048**2 <= multiport.MAX_MATRIX_ENTRIES < 2049**2


def test_device_matrix_detects_escaping_images():
    device = CompositeDevice((Hologram(0, 5),), 2)
    with pytest.raises(DomainError):
        device_matrix(device)


def test_is_generalized_permutation_identity():
    ok, witness = is_generalized_permutation(np.eye(4))
    assert ok
    assert witness == {i: (i, 1 + 0j) for i in range(4)}


def test_is_generalized_permutation_oambs():
    ok, witness = is_generalized_permutation(device_matrix(oambs(4)))
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


# entries on both sides of every threshold of the check
PERMUTATION_ENTRIES = (
    0.0,
    GENPERM_TOL / 2,
    GENPERM_TOL,
    1.0,
    -1.0,
    1j,
    1.0 + GENPERM_TOL / 2,
    1.0 + 2 * GENPERM_TOL,
    complex(0.6, 0.8),
    0.5,
    math.nan,
    complex(math.nan, 1.0),
    math.inf,
)


@st.composite
def near_permutations(draw):
    size = draw(st.integers(0, 5))
    matrix = np.zeros((size, size), dtype=complex)
    rows = draw(st.permutations(range(size)))
    for column, row in enumerate(rows):
        matrix[row, column] = draw(st.sampled_from(PERMUTATION_ENTRIES[3:6]))
    if size:
        cell = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        for row, column in draw(st.lists(cell, max_size=3)):
            matrix[row, column] = draw(st.sampled_from(PERMUTATION_ENTRIES))
    return matrix


@settings(max_examples=300, deadline=None)
@given(near_permutations(), st.sampled_from((GENPERM_TOL, 1e-3, 0.5)))
def test_is_generalized_permutation_matches_the_column_walk(matrix, tol):
    result = is_generalized_permutation(matrix, tol)
    assert repr(result) == repr(column_walk_generalized_permutation(matrix, tol))


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


# ------------------------------------------------------------ sector tables


def image_bits(images):
    """Images as (label, real hex, imag hex) in order: equal only when the
    labels, their order and every amplitude bit agree."""
    images = list(images)
    assert all(isinstance(label, ModeLabel) for label, _ in images)
    return [
        (tuple(label), amp.real.hex(), amp.imag.hex()) for label, amp in images
    ]


def assert_table_matches_stage_product(device, labels):
    # twice over: the first lookup may fill a sector, the second reads it
    for _ in range(2):
        for label in labels:
            assert image_bits(device.mode_images(label)) == image_bits(
                compose_images(device.stages, label)
            ), label


def window_labels(dimension, paths=None):
    paths = range(dimension) if paths is None else paths
    return [
        ModeLabel(path, oam, pol)
        for path in paths
        for oam in range(-5 * dimension, 5 * dimension + 1)
        for pol in (H, V)
    ]


@pytest.mark.parametrize("dimension", range(1, 9))
@pytest.mark.parametrize("build", [oambs, sbmao])
def test_sector_table_matches_stage_product_on_every_label(dimension, build):
    # a fresh device starts with an empty table; the cached one may not
    fresh = CompositeDevice(build(dimension).stages, dimension)
    labels = window_labels(dimension)
    assert_table_matches_stage_product(fresh, labels)
    assert_table_matches_stage_product(build(dimension), labels)


@st.composite
def multiport_dove_chains(draw):
    dimension = draw(st.integers(1, 8))
    stage = st.one_of(
        st.builds(SymmetricMultiport, st.just(dimension), st.booleans()),
        st.builds(
            DoveStage,
            st.just(dimension),
            st.sampled_from((Direction.FORWARD, Direction.REVERSE)),
        ),
    )
    stages = tuple(draw(st.lists(stage, max_size=4)))
    labels = draw(
        st.lists(
            st.builds(
                ModeLabel,
                st.integers(0, dimension - 1),
                st.integers(-5 * dimension, 5 * dimension),
                st.sampled_from((H, V)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return CompositeDevice(stages, dimension), labels


@settings(max_examples=150, deadline=None)
@given(multiport_dove_chains())
def test_sector_table_matches_stage_product_on_random_chains(case):
    device, labels = case
    assert_table_matches_stage_product(device, labels)


@pytest.mark.parametrize(
    "stages",
    [
        # a mirror among the stages keeps the device off the table
        (SymmetricMultiport(4), DoveStage(4), Mirror(1)),
        # a prism reads the unreduced winding, a hologram shifts it
        (SymmetricMultiport(4), DovePrism(1, 0.3), SymmetricMultiport(4)),
        (SymmetricMultiport(4), Hologram(2, 3)),
    ],
)
def test_devices_outside_the_table_give_the_stage_product(stages):
    device = CompositeDevice(stages, 4)
    assert_table_matches_stage_product(device, window_labels(4, paths=range(3)))


@pytest.mark.parametrize(
    "stages, name",
    [
        ((SymmetricMultiport(4), DoveStage(3), SymmetricMultiport(4)), "DoveStage"),
        ((DoveStage(3), SymmetricMultiport(4)), "DoveStage"),
        ((SymmetricMultiport(5),), "SymmetricMultiport"),
    ],
)
def test_stage_of_another_dimension_is_rejected_at_construction(stages, name):
    message = rf"^{name} of dimension \d in a device of dimension 4$"
    with pytest.raises(DomainError, match=message):
        CompositeDevice(stages, 4)


@pytest.mark.parametrize(
    "stage, name",
    [
        # each used to build, then fail on first use or, for the netlist,
        # pass a path-3 photon through untouched
        (HologramBank((1, 2, 3)), "HologramBank"),
        (ReflectorBank((0, 1, 2, 3, 4)), "ReflectorBank"),
        (Netlist(3, (Mirror(0),)), "Netlist"),
    ],
)
def test_bank_or_netlist_of_another_size_is_rejected_at_construction(
    stage, name
):
    message = rf"^{name} of dimension \d in a device of dimension 4$"
    with pytest.raises(DomainError, match=message):
        CompositeDevice((stage,), 4)


def test_stage_without_a_dimension_is_rejected_at_construction():
    class Identity:
        def mode_images(self, label):
            return ((label, 1.0 + 0j),)

    message = r"^Identity of dimension None in a device of dimension 2$"
    with pytest.raises(DomainError, match=message):
        CompositeDevice((Identity(),), 2)


def test_banks_and_netlists_of_the_device_size_are_accepted():
    device = CompositeDevice(
        (
            HologramBank((1, 0, 0, 2)),
            Netlist(4, (Mirror(3),)),
            ReflectorBank((0,) * 4),
        ),
        4,
    )
    # +2 shift, mirror flip, reflector flip: |1>_3 -> |3>_3 -> |-3>_3 -> |3>_3
    assert device.mode_images(ModeLabel(3, 1)) == [(ModeLabel(3, 3), 1 + 0j)]


@pytest.mark.parametrize("path", [-1, -4, 4, 9])
@pytest.mark.parametrize("build", [oambs, sbmao])
def test_path_outside_the_device_raises_the_stage_error(build, path):
    device = build(4)
    label = ModeLabel(path, 2)
    with pytest.raises(DomainError) as expected:
        compose_images(device.stages, label)
    with pytest.raises(DomainError) as raised:
        device.mode_images(label)
    assert str(raised.value) == str(expected.value)
    assert "outside multiport of dimension 4" in str(raised.value)


def test_sector_table_fills_each_key_once_from_one_stage_product(monkeypatch):
    device = CompositeDevice(oambs(6).stages, 6)
    calls = []

    def counted(stages, label):
        calls.append(label)
        return compose_images(stages, label)

    monkeypatch.setattr(multiport, "compose_images", counted)
    for oam in (1, 7, -5, 13, 1):
        device.mode_images(ModeLabel(2, oam, V))
    device.mode_images(ModeLabel(3, 7))
    device.mode_images(ModeLabel(3, -5, V))
    # one stage product per (path, winding mod D), run at the residue
    assert calls == [ModeLabel(2, 1), ModeLabel(3, 1)]
    assert list(device._table) == [(2, 1), (3, 1)]


@pytest.mark.parametrize("dimension", [1, 4, 24])
def test_sector_table_leaves_equality_hash_and_repr_alone(dimension):
    device = CompositeDevice(oambs(dimension).stages, dimension)
    device.mode_images(ModeLabel(0, 1))
    assert device == oambs(dimension)
    assert hash(device) == hash(oambs(dimension))
    assert repr(device) == (
        f"CompositeDevice(stages={device.stages!r}, dimension={dimension})"
    )


def test_an_ensemble_through_table_entries_of_several_images_is_the_expansion():
    # one multiport fans every label out, so no table entry has one image
    device = CompositeDevice((SymmetricMultiport(3),), 3)
    space = ModeSpace(3)
    state = tensor(
        [
            make_qubit_photon(QubitSpec(0.6, 0.8j), 0, 1, space),
            make_qubit_photon(QubitSpec(1, 0), 2, -1, space),
        ]
    )
    evolved = apply_mode_map(state, device)
    assert device._dense.image.min() == -1
    assert amplitude_bits(evolved.amplitudes) == amplitude_bits(
        prefix_expansion_amplitudes(state, device)
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: oambs(0), "dimension must be >= 1, got 0"),
        (lambda: oambs_closed_form(0, 0, 0), "dimension must be >= 1, got 0"),
        (lambda: oambs_closed_form(0, 3, 3), r"path 3 outside \[0, 2\]"),
        (
            lambda: is_generalized_permutation(np.ones((2, 3))),
            r"matrix must be square, got shape \(2, 3\)",
        ),
    ],
    ids=["oambs", "closed-form-dimension", "closed-form-path", "non-square"],
)
def test_device_helpers_refuse_arguments_out_of_domain(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "candidate, target, shapes",
    [
        (np.zeros((0, 0)), np.zeros((0, 0)), r"\(0, 0\) and \(0, 0\)"),
        (np.zeros(0), np.zeros(0), r"\(0,\) and \(0,\)"),
        (np.eye(2), np.eye(3), r"\(2, 2\) and \(3, 3\)"),
        (np.eye(2), np.ones(2), r"\(2, 2\) and \(2,\)"),
    ],
    ids=["empty", "empty-1d", "mismatched", "broadcastable"],
)
def test_global_phase_error_refuses_empty_and_mismatched_arrays(
    candidate, target, shapes
):
    message = f"^need two non-empty arrays of one shape, got {shapes}$"
    with pytest.raises(DomainError, match=message):
        global_phase_error(candidate, target)
