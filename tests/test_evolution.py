"""Single-pass ensemble evolution and the disjoint-support tensor product.

Both are pure speed-ups: every result must agree bit for bit with the
slot-by-slot prefix expansion and the nested tensor expansion in
``oracles``, signs of zeros included.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from oamnet import (
    BeamSplitter,
    BunchingError,
    CompositeDevice,
    DovePrism,
    EnsembleState,
    H,
    Hologram,
    HologramBank,
    Mirror,
    ModeLabel,
    ModeSpace,
    PhaseShifter,
    ReflectiveHologram,
    V,
    apply_mode_map,
    make_qubit_photon,
    oambs,
    sbmao,
    tensor,
)
from oamnet.states import BUNCHING_TOL, PRUNE_TOL
from oracles import (
    amplitude_bits,
    nested_tensor_amplitudes,
    prefix_expansion_amplitudes,
    random_qubit,
)

NARROW = CompositeDevice(
    (
        BeamSplitter(0, 1, 0.3, 0.2),
        PhaseShifter(1, 0.7),
        DovePrism(2, 0.4),
        Hologram(0, 2),
        Mirror(1),
        ReflectiveHologram(2, 1),
        BeamSplitter(1, 2, 1.1, -0.5),
    ),
    3,
)


def random_product(rng, dimension, slots):
    space = ModeSpace(dimension)
    paths = rng.choice(dimension, size=slots, replace=False)
    photons = [
        make_qubit_photon(
            random_qubit(rng), int(path), int(rng.integers(dimension)), space
        )
        for path in paths
    ]
    return tensor(photons), photons


@pytest.mark.parametrize("dimension", range(2, 7))
def test_tensor_equals_nested_expansion(dimension):
    rng = np.random.default_rng(dimension)
    state, photons = random_product(rng, dimension, dimension)
    assert amplitude_bits(state.amplitudes) == amplitude_bits(
        nested_tensor_amplitudes(photons)
    )


def assert_chain_matches_prefix_expansion(state, operators):
    for operator in operators:
        expected = prefix_expansion_amplitudes(state, operator)
        state = apply_mode_map(state, operator)
        assert amplitude_bits(state.amplitudes) == amplitude_bits(expected)
    return state


@pytest.mark.parametrize("seed", range(6))
def test_single_pass_equals_prefix_expansion_on_products(seed):
    rng = np.random.default_rng(100 + seed)
    dimension = int(rng.integers(2, 7))
    state, _ = random_product(rng, dimension, int(rng.integers(1, dimension + 1)))
    bank = HologramBank(tuple(int(k) for k in rng.integers(-2, 3, dimension)))
    assert_chain_matches_prefix_expansion(
        state, [bank, oambs(dimension), sbmao(dimension), oambs(dimension)]
    )


def test_single_pass_equals_prefix_expansion_on_bell_pair():
    dimension = 5
    space = ModeSpace(dimension)
    root_half = 1.0 / math.sqrt(2.0)
    pair = EnsembleState(
        space,
        2,
        {
            (ModeLabel(0, 0, H), ModeLabel(3, 0, V)): root_half,
            (ModeLabel(0, 0, V), ModeLabel(3, 0, H)): root_half,
        },
    )
    assert_chain_matches_prefix_expansion(
        pair, [HologramBank((2, 0, 0, 4, 0)), oambs(dimension), sbmao(dimension)]
    )


def test_multi_term_images_keep_the_prefix_expansion():
    rng = np.random.default_rng(7)
    state, _ = random_product(rng, 3, 2)
    assert_chain_matches_prefix_expansion(state, [NARROW])


def test_tiny_amplitude_takes_the_prefix_expansion():
    # a partial product of 2e-15 sits near PRUNE_TOL, where only the
    # expansion's per-slot pruning is exact
    space = ModeSpace(3)
    tiny = 2 * PRUNE_TOL
    state = EnsembleState(
        space,
        2,
        {
            (ModeLabel(0, 0), ModeLabel(1, 0)): math.sqrt(1 - tiny**2),
            (ModeLabel(1, 1), ModeLabel(2, 2)): tiny,
        },
    )
    assert_chain_matches_prefix_expansion(state, [oambs(3), sbmao(3)])


@dataclass(frozen=True)
class PathGain:
    """Test operator: scales each path by its gain and shifts its winding."""

    gains: tuple[float, ...]
    shifts: tuple[int, ...] = (0, 0, 0)

    def mode_images(self, label):
        image = ModeLabel(
            label.path, label.oam + self.shifts[label.path], label.pol
        )
        return ((image, complex(self.gains[label.path])),)


def test_partial_product_pruned_midway_stays_pruned():
    # the last label met brings gain 0.1, which takes the small tuple to
    # 5e-16 after its first slot, where the expansion prunes it; its second
    # slot's gain 10 would lift it back above PRUNE_TOL
    space = ModeSpace(3)
    small = 5 * PRUNE_TOL
    state = EnsembleState(
        space,
        2,
        {
            (ModeLabel(2, 0), ModeLabel(2, 1)): math.sqrt(1 - 1e-12 - small**2),
            (ModeLabel(1, 0), ModeLabel(2, 2)): 1e-6,
            (ModeLabel(0, 0), ModeLabel(1, 0)): small,
        },
    )
    evolved = assert_chain_matches_prefix_expansion(
        state, [PathGain((0.1, 10.0, 1.0))]
    )
    assert len(evolved.amplitudes) == 2


def test_labels_past_a_pruned_prefix_are_not_window_checked():
    # the expansion prunes the small tuple after its first slot, so it
    # never computes the second slot's image, which leaves the window
    space = ModeSpace(3)
    small = 5 * PRUNE_TOL
    state = EnsembleState(
        space,
        2,
        {
            (ModeLabel(1, 0), ModeLabel(2, 0)): math.sqrt(1 - small**2),
            (ModeLabel(0, 0), ModeLabel(2, space.oam_window)): small,
        },
    )
    evolved = assert_chain_matches_prefix_expansion(
        state, [PathGain((0.1, 1.0, 1.0), (0, 0, 1))]
    )
    assert list(evolved.amplitudes) == [(ModeLabel(1, 0), ModeLabel(2, 1))]


@dataclass(frozen=True)
class MergeOnto:
    """Test operator: moves every label on path ``source`` onto ``target``."""

    source: int
    target: int

    def mode_images(self, label):
        if label.path != self.source:
            return ((label, 1.0 + 0j),)
        return ((ModeLabel(self.target, label.oam, label.pol), 1.0 + 0j),)


def test_two_labels_onto_one_raise_the_same_bunching_error():
    space = ModeSpace(2)
    pair = EnsembleState(space, 2, {(ModeLabel(0, 1), ModeLabel(1, 1)): 1.0})
    with pytest.raises(BunchingError) as expected:
        prefix_expansion_amplitudes(pair, MergeOnto(1, 0))
    with pytest.raises(BunchingError) as raised:
        apply_mode_map(pair, MergeOnto(1, 0))
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == (
        "operator drove two slots onto |1^H>_0 with amplitude 1.000e+00"
    )


def test_bunching_dust_is_dropped():
    space = ModeSpace(3)
    dust = BUNCHING_TOL / 2
    state = EnsembleState(
        space,
        2,
        {
            (ModeLabel(0, 0), ModeLabel(2, 0)): math.sqrt(1 - dust**2),
            (ModeLabel(0, 1), ModeLabel(1, 1)): dust,
        },
    )
    evolved = assert_chain_matches_prefix_expansion(state, [MergeOnto(1, 0)])
    assert list(evolved.amplitudes) == [(ModeLabel(0, 0), ModeLabel(2, 0))]


def test_single_pass_cancellation_is_pruned():
    # two tuples land on one tuple with opposite amplitudes
    space = ModeSpace(3)
    part = 1e-6
    state = EnsembleState(
        space,
        2,
        {
            (ModeLabel(0, 0), ModeLabel(2, 0)): part,
            (ModeLabel(1, 0), ModeLabel(2, 0)): -part,
            (ModeLabel(2, 1), ModeLabel(0, 1)): math.sqrt(1 - 2 * part**2),
        },
    )
    evolved = assert_chain_matches_prefix_expansion(state, [MergeOnto(1, 0)])
    assert list(evolved.amplitudes) == [(ModeLabel(2, 1), ModeLabel(0, 1))]


def test_multi_term_cancellation_is_pruned():
    # a balanced splitter sends (|0>_0 + i|0>_1)/sqrt2 wholly onto path 1;
    # what is left on path 0 is rounding noise at or below PRUNE_TOL
    space = ModeSpace(2)
    root_half = 1.0 / math.sqrt(2.0)
    state = EnsembleState(
        space,
        1,
        {(ModeLabel(0, 0),): root_half, (ModeLabel(1, 0),): 1j * root_half},
    )
    evolved = assert_chain_matches_prefix_expansion(
        state, [BeamSplitter(0, 1, math.pi / 4)]
    )
    assert list(evolved.amplitudes) == [(ModeLabel(1, 0),)]
