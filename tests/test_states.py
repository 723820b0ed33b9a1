"""State construction, fidelity, tensor products, and operator application."""

import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    BunchingError,
    DomainError,
    EnsembleState,
    H,
    Hologram,
    ModeLabel,
    ModeSpace,
    NormalizationError,
    PhotonState,
    QubitSpec,
    V,
    WindowOverflowError,
    apply_mode_map,
    fidelity,
    make_qubit_photon,
    oambs,
    path_probabilities,
    tensor,
)
from oamnet import states
from oamnet.states import _first_rows, _require_unit_moduli, label_key
from oracles import ensemble_vector, h_photon, oam_beamsplitter_matrix, random_qubit

SPACE3 = ModeSpace(3)
ROOT_HALF = 1.0 / math.sqrt(2.0)


def test_make_qubit_photon_basis_case():
    photon = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    assert photon.amplitudes == {ModeLabel(0, 0, H): 1 + 0j}


def test_make_qubit_photon_equal_superposition():
    photon = make_qubit_photon(QubitSpec(ROOT_HALF, ROOT_HALF), 2, 1, SPACE3)
    assert photon.amplitude(ModeLabel(2, 1, H)) == pytest.approx(ROOT_HALF)
    assert photon.amplitude(ModeLabel(2, 1, V)) == pytest.approx(ROOT_HALF)


def test_make_qubit_photon_complex_amplitudes():
    # |0.6|^2 + |0.8i|^2 = 0.36 + 0.64 = 1
    photon = make_qubit_photon(QubitSpec(0.6, 0.8j), 1, 3, SPACE3)
    assert len(photon.amplitudes) == 2
    assert photon.amplitude(ModeLabel(1, 3, H)) == 0.6 + 0j
    assert photon.amplitude(ModeLabel(1, 3, V)) == 0.8j
    norm_sq = sum(abs(a) ** 2 for a in photon.amplitudes.values())
    assert norm_sq == pytest.approx(1.0, abs=1e-12)


def test_qubit_spec_rejects_non_normalized():
    with pytest.raises(NormalizationError):
        QubitSpec(0.6, 0.9)


def test_make_qubit_photon_path_out_of_range():
    with pytest.raises(DomainError):
        make_qubit_photon(QubitSpec(1, 0), 3, 0, SPACE3)


def test_make_qubit_photon_oam_outside_window():
    with pytest.raises(WindowOverflowError):
        make_qubit_photon(QubitSpec(1, 0), 0, 13, SPACE3)


def test_photon_state_rejects_non_normalized():
    with pytest.raises(NormalizationError):
        PhotonState(SPACE3, {ModeLabel(0, 0): 0.5})


@pytest.mark.parametrize(
    "amp", [math.nan, complex(math.inf, math.nan), 1e200, complex(1.7e308, 1.7e308)]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda amp: PhotonState(ModeSpace(2), {ModeLabel(0, 0): amp}),
        lambda amp: EnsembleState(ModeSpace(2), 1, {(ModeLabel(0, 0),): amp}),
        lambda amp: QubitSpec(amp, 0),
        lambda amp: QubitSpec(0.6, amp),
    ],
    ids=["photon", "ensemble", "qubit-alpha", "qubit-beta"],
)
def test_norm_checks_reject_nan_and_overflow(build, amp):
    # a NaN norm used to pass the tolerance test, and the square of 1e200
    # (or the modulus of 1.7e308 + 1.7e308j) leaked OverflowError
    with pytest.raises(NormalizationError):
        build(amp)


@pytest.mark.parametrize("moduli", [[math.nan], [0.6, math.nan, 0.8], [1e200]])
def test_column_norm_check_rejects_nan_and_overflow(moduli):
    # the dot product of 1e200 overflows, which numpy reports as a warning
    with np.errstate(over="ignore"), pytest.raises(NormalizationError):
        _require_unit_moduli(np.array(moduli))


def _norm_outcome(moduli):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _require_unit_moduli(moduli)
    except NormalizationError as exc:
        return str(exc)
    return None


def test_column_norm_check_is_the_same_with_the_einsum_dot(monkeypatch):
    # numpy < 2 has no vecdot; states then sums the column dot products with
    # einsum, whose rounding may differ, but the check redoes any column near
    # or past the tolerance term by term, so outcome and message agree
    root = math.sqrt(0.5)
    columns = [
        np.array([[root, root], [root, root]]),
        np.array([[0.6, math.nan], [0.8, 0.0]]),
        np.array([[math.inf, 0.6], [0.0, 0.8]]),
        np.array([[1e200], [0.0]]),
    ]
    for excess in (0.25, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, -0.5, -1.0, -1.001):
        norm_sq = 1.0 + excess * states.NORM_TOL
        for split in (0.5, 0.3):
            columns.append(
                np.array([[math.sqrt(norm_sq * split)], [math.sqrt(norm_sq * (1 - split))]])
            )
    native = [_norm_outcome(moduli) for moduli in columns]
    monkeypatch.setattr(
        states, "_column_dot", functools.partial(np.einsum, "i...,i...->...")
    )
    assert [_norm_outcome(moduli) for moduli in columns] == native
    assert native.count(None) not in (0, len(native))


def test_photon_state_prunes_dust():
    photon = PhotonState(SPACE3, {ModeLabel(0, 0): 1.0, ModeLabel(1, 0): 1e-16})
    assert list(photon.amplitudes) == [ModeLabel(0, 0)]


def test_fidelity_identical_state_is_one():
    photon = make_qubit_photon(QubitSpec(0.6, 0.8j), 1, 3, SPACE3)
    assert abs(fidelity(photon, photon) - 1.0) < 1e-12


def test_fidelity_orthogonal_polarizations():
    a = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    b = make_qubit_photon(QubitSpec(0, 1), 0, 0, SPACE3)
    assert fidelity(a, b) == 0.0


def test_fidelity_half_overlap():
    a = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    b = make_qubit_photon(QubitSpec(ROOT_HALF, ROOT_HALF), 0, 0, SPACE3)
    assert fidelity(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = make_qubit_photon(random_qubit(rng), 1, 2, SPACE3)
        b = make_qubit_photon(random_qubit(rng), 1, 2, SPACE3)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12


def unnormalized_photon(amplitudes):
    """A photon built around the constructor's normalization check."""
    photon = object.__new__(PhotonState)
    object.__setattr__(photon, "space", SPACE3)
    object.__setattr__(photon, "amplitudes", amplitudes)
    return photon


def test_fidelity_rejects_unnormalized_state():
    # <a|a> = 4 used to be clamped silently to a fidelity of 1
    doubled = unnormalized_photon({ModeLabel(0, 0): 2.0 + 0j})
    with pytest.raises(NormalizationError):
        fidelity(doubled, doubled)


def test_fidelity_clamps_rounding_within_norm_tolerance():
    # norm^2 = 1 + 5e-10 passes the constructor's NORM_TOL check
    scale = math.sqrt(1.0 + 5e-10)
    a = PhotonState(SPACE3, {ModeLabel(0, 0): scale})
    assert fidelity(a, a) == 1.0


def test_fidelity_kind_mismatch():
    photon = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    ensemble = tensor([photon])
    with pytest.raises(DomainError, match="^cannot compare a single photon with an ensemble$"):
        fidelity(photon, ensemble)


def test_fidelity_slot_count_mismatch():
    p0 = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    p1 = make_qubit_photon(QubitSpec(1, 0), 1, 0, SPACE3)
    with pytest.raises(DomainError, match="^slot counts differ: 1 vs 2$"):
        fidelity(tensor([p0]), tensor([p0, p1]))


def test_fidelity_refuses_non_states():
    photon = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    for a, b, kind in (
        (1, 2, "int"),
        (None, None, "NoneType"),
        (photon, photon.amplitudes, "dict"),
        (photon.amplitudes, photon, "dict"),
    ):
        with pytest.raises(DomainError, match=f"^not a state: {kind}$"):
            fidelity(a, b)


def test_tensor_refuses_entries_that_are_not_photons():
    photon = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    ensemble = tensor([make_qubit_photon(QubitSpec(1, 0), 1, 0, SPACE3)])
    for entry, kind in ((None, "NoneType"), (ensemble, "EnsembleState")):
        with pytest.raises(DomainError, match=f"^not a photon state: {kind}$"):
            tensor([photon, entry])


def test_tensor_singleton():
    photon = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    ensemble = tensor([photon])
    assert ensemble.slot_count == 1
    assert ensemble.amplitude((ModeLabel(0, 0, H),)) == 1 + 0j


def test_tensor_basis_product():
    p0 = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    p1 = make_qubit_photon(QubitSpec(0, 1), 1, 1, SPACE3)
    ensemble = tensor([p0, p1])
    assert len(ensemble.amplitudes) == 1
    assert ensemble.amplitude(
        (ModeLabel(0, 0, H), ModeLabel(1, 1, V))
    ) == 1 + 0j


def test_tensor_expands_superpositions():
    p0 = make_qubit_photon(QubitSpec(ROOT_HALF, ROOT_HALF), 0, 0, SPACE3)
    p1 = make_qubit_photon(QubitSpec(1, 0), 2, 1, SPACE3)
    ensemble = tensor([p0, p1])
    assert len(ensemble.amplitudes) == 2
    for pol in (H, V):
        amp = ensemble.amplitude(
            (ModeLabel(0, 0, pol), ModeLabel(2, 1, H))
        )
        assert amp == pytest.approx(ROOT_HALF)


def test_tensor_empty_list_rejected():
    with pytest.raises(DomainError):
        tensor([])


def test_tensor_duplicate_labels_rejected():
    photon = make_qubit_photon(QubitSpec(1, 0), 0, 0, SPACE3)
    with pytest.raises(BunchingError):
        tensor([photon, photon])


def test_apply_identity_operator():
    photon = make_qubit_photon(QubitSpec(0.6, 0.8j), 1, 1, SPACE3)
    assert apply_mode_map(photon, Hologram(0, 0)) == photon


def test_apply_hologram_shifts_winding():
    photon = PhotonState(SPACE3, {ModeLabel(0, 1): 1.0})
    shifted = apply_mode_map(photon, Hologram(0, 2))
    assert shifted.amplitudes == {ModeLabel(0, 3): 1 + 0j}


def test_two_slot_ensemble_matches_kron_oracle():
    # Slot-wise device application must agree with the explicit two-photon
    # matrix product over the tuple basis.
    dimension, window = 3, range(-4, 5)
    space = ModeSpace(dimension, 4)
    pair = tensor(
        [
            PhotonState(space, {ModeLabel(0, 1): 1.0}),
            PhotonState(space, {ModeLabel(0, 2): 1.0}),
        ]
    )
    evolved = apply_mode_map(pair, oambs(dimension))
    single = oam_beamsplitter_matrix(dimension, window)
    expected = np.kron(single, single) @ ensemble_vector(pair, dimension, window)
    np.testing.assert_allclose(
        ensemble_vector(evolved, dimension, window), expected, atol=1e-12
    )


def test_norm_preserved_by_device_application():
    rng = np.random.default_rng(5)
    for _ in range(10):
        photon = make_qubit_photon(random_qubit(rng), 1, 2, SPACE3)
        evolved = apply_mode_map(photon, oambs(3))
        norm_sq = sum(abs(a) ** 2 for a in evolved.amplitudes.values())
        assert abs(norm_sq - 1.0) < 1e-9


def test_tensor_commutes_with_slotwise_application():
    rng = np.random.default_rng(6)
    device = oambs(3)
    photons = [
        make_qubit_photon(random_qubit(rng), path, 1, SPACE3)
        for path in (0, 2)
    ]
    before = apply_mode_map(tensor(photons), device)
    after = tensor([apply_mode_map(p, device) for p in photons])
    assert fidelity(before, after) == pytest.approx(1.0, abs=1e-9)


def test_colliding_slots_raise_bunching_error():
    space = ModeSpace(2)
    pair = tensor(
        [
            PhotonState(space, {ModeLabel(0, 0): 1.0}),
            PhotonState(space, {ModeLabel(1, 0): 1.0}),
        ]
    )
    with pytest.raises(BunchingError):
        apply_mode_map(pair, BeamSplitter(0, 1, math.pi / 4))


def test_window_overflow_on_apply():
    space = ModeSpace(2, 4)
    photon = PhotonState(space, {ModeLabel(0, 3): 1.0})
    with pytest.raises(WindowOverflowError):
        apply_mode_map(photon, Hologram(0, 2))


def test_zero_amplitude_image_outside_space_is_pruned_for_photon():
    # theta = 0 sends amplitude exactly 0 onto path 5, outside D = 4: the
    # image is pruned before any window check, as the constructor does
    space = ModeSpace(4)
    photon = PhotonState(space, {ModeLabel(0, 0): 1.0})
    evolved = apply_mode_map(photon, BeamSplitter(0, 5, 0.0))
    assert evolved.amplitudes == {ModeLabel(0, 0): 1 + 0j}


def test_zero_amplitude_image_outside_space_is_pruned_for_ensemble():
    space = ModeSpace(4)
    single = EnsembleState(space, 1, {(ModeLabel(0, 0),): 1.0})
    evolved = apply_mode_map(single, BeamSplitter(0, 5, 0.0))
    assert evolved.amplitudes == {(ModeLabel(0, 0),): 1 + 0j}


@pytest.mark.parametrize("kind", ["photon", "ensemble"])
def test_live_image_outside_space_raises_for_both_kinds(kind):
    space = ModeSpace(4)
    if kind == "photon":
        state = PhotonState(space, {ModeLabel(0, 0): 1.0})
    else:
        state = EnsembleState(space, 1, {(ModeLabel(0, 0),): 1.0})
    with pytest.raises(DomainError):
        apply_mode_map(state, BeamSplitter(0, 5, math.pi / 4))


def test_ensemble_rejects_duplicate_labels_at_construction():
    space = ModeSpace(2)
    with pytest.raises(BunchingError):
        EnsembleState(
            space, 2, {(ModeLabel(0, 0), ModeLabel(0, 0)): 1.0}
        )


@pytest.mark.parametrize(
    "key, slot_count",
    [
        # a bare label reads as a 3-slot tuple of its fields
        (ModeLabel(0, 0), 3),
        (ModeLabel(0, 1), 3),
        ((ModeLabel(0, 0), (1, 0, H)), 2),
        (0, 1),
    ],
)
def test_ensemble_rejects_keys_that_are_not_label_tuples(key, slot_count):
    with pytest.raises(DomainError, match="not a tuple of ModeLabels"):
        EnsembleState(ModeSpace(2), slot_count, {key: 1.0})


def test_path_probabilities():
    photon = PhotonState(
        SPACE3, {ModeLabel(0, 0): 0.6, ModeLabel(2, 1): 0.8j}
    )
    probs = path_probabilities(photon)
    assert probs[0] == pytest.approx(0.36)
    assert probs[2] == pytest.approx(0.64)
    assert sum(probs.values()) == pytest.approx(1.0)


# ------------------------------------------------------------ label contract


def test_mode_label_repr_and_str():
    label = ModeLabel(2, -3, V)
    assert repr(label) == "ModeLabel(path=2, oam=-3, pol=<Polarization.V: 'V'>)"
    assert str(label) == "|-3^V>_2"
    assert str(ModeLabel(0, 1)) == "|1^H>_0"


def test_mode_labels_built_apart_are_equal_and_hash_equal():
    first, second = ModeLabel(1, -4, V), ModeLabel(1, -4, V)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first == (1, -4, V) and hash(first) == hash((1, -4, V))
    assert ModeLabel(1, 4, V) != first and ModeLabel(1, -4) != first
    assert {first: 0.5}[second] == 0.5


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_mode_label_pickle_round_trip(protocol):
    label = ModeLabel(3, -7, V)
    copy = pickle.loads(pickle.dumps(label, protocol))
    assert type(copy) is ModeLabel and copy == label
    assert hash(copy) == hash(label) and copy.pol is V
    assert {label: 1.0}[copy] == 1.0


def test_label_key_orders_path_then_winding_then_polarization():
    labels = [
        ModeLabel(1, 0, V),
        ModeLabel(0, 2, H),
        ModeLabel(1, -1, H),
        ModeLabel(0, 2, V),
        ModeLabel(1, 0, H),
    ]
    assert sorted(labels, key=label_key) == [
        ModeLabel(0, 2, H),
        ModeLabel(0, 2, V),
        ModeLabel(1, -1, H),
        ModeLabel(1, 0, H),
        ModeLabel(1, 0, V),
    ]


# --- the row bound of ensemble steps -----------------------------------------


def equal_qubits(dimension):
    space = ModeSpace(dimension)
    spec = QubitSpec(ROOT_HALF, ROOT_HALF)
    return [make_qubit_photon(spec, path, 0, space) for path in range(dimension)]


def test_row_bound_admits_the_largest_swept_mux_round_trip():
    # verify runs a D=16 round trip (2**16 tuples); the D sweep reaches D=18
    assert 2**18 <= states.MAX_ENSEMBLE_ROWS


def test_tensor_bound_counts_every_row(monkeypatch):
    monkeypatch.setattr(states, "MAX_ENSEMBLE_ROWS", 8)
    assert len(tensor(equal_qubits(3)).amplitudes) == 8
    with pytest.raises(DomainError, match="^an ensemble step of 16 rows exceeds"):
        tensor(equal_qubits(4))


def test_multi_image_fan_out_refuses_rows_past_the_bound(monkeypatch):
    # each slot's label splits in two: one tuple becomes 2, then 4 rows
    pair = tensor([h_photon(SPACE3, 0, 0), h_photon(SPACE3, 1, 1)])
    splitter = BeamSplitter(0, 1, math.pi / 4)
    monkeypatch.setattr(states, "MAX_ENSEMBLE_ROWS", 4)
    assert len(apply_mode_map(pair, splitter).amplitudes) == 4
    monkeypatch.setattr(states, "MAX_ENSEMBLE_ROWS", 3)
    with pytest.raises(
        DomainError, match="^an ensemble step of 4 rows exceeds the bound of 3 rows$"
    ):
        apply_mode_map(pair, splitter)


@given(st.lists(st.integers(0, 20), max_size=40))
def test_first_rows_by_table_and_by_sort_match_a_dict(keys):
    ranks: dict[int, int] = {}
    group = [ranks.setdefault(key, len(ranks)) for key in keys]
    first = [keys.index(key) for key in ranks]
    # a bound of 21 takes the table from 2 rows on; 10**9 always sorts
    for bound in (21, 10**9):
        rows, ranked = _first_rows(np.array(keys, dtype=np.int64), bound)
        assert rows.tolist() == first
        assert ranked.tolist() == group


# --- refusals of the constructors and entry points ---------------------------


@pytest.mark.parametrize(
    "dimension, window, message",
    [
        (2**62 + 1, None, r"dimension must be <= 2\*\*62, got 4611686018427387905"),
        (3, -1, "oam_window must be >= 0, got -1"),
    ],
    ids=["dimension", "window"],
)
def test_mode_space_refuses_dimensions_and_windows_out_of_bounds(
    dimension, window, message
):
    with pytest.raises(DomainError, match=f"^{message}$"):
        ModeSpace(dimension, window)


def test_ensemble_refuses_no_slots_and_tuples_of_another_arity():
    with pytest.raises(DomainError, match="^slot_count must be >= 1, got 0$"):
        EnsembleState(SPACE3, 0, {})
    with pytest.raises(DomainError, match="^tuple arity 1 != slot_count 2$"):
        EnsembleState(SPACE3, 2, {(ModeLabel(0, 0),): 1.0})


def test_tensor_refuses_photons_in_different_spaces():
    photons = [h_photon(SPACE3, 0, 0), h_photon(ModeSpace(4), 1, 0)]
    with pytest.raises(DomainError, match="^all photons must share one mode space$"):
        tensor(photons)


def test_apply_mode_map_refuses_what_is_not_a_state():
    with pytest.raises(DomainError, match="^not a state: dict$"):
        apply_mode_map({ModeLabel(0, 0): 1.0}, oambs(3))
