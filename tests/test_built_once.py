"""Verify's matrices and products built once, against the code they replace.

``device_matrix`` of a bare symmetric multiport places its entries straight
from the cached Fourier matrix; the synthesis check draws its random
unitaries as one stack with one stacked QR factorization; and the MUX
check's block reference in ``oracles`` builds its tagged comparison block
from the originals' codes and amplitudes under relabeled label columns.
Each must give the bits of what it replaces: the label loop of
``oracles.seed_device_matrix``, unitaries drawn one by one
(``oracles.seed_random_unitary``, and ``random_unitary`` itself), and
``oracles.qubit_block`` on the tagged slots.  The stacked and single QR
factorizations must agree whichever kernel OpenBLAS picks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    ModeSpace,
    OamNetError,
    SymmetricMultiport,
    device_matrix,
    random_unitary,
)
from oamnet import cli
from oamnet.netlist import _random_unitaries
from oamnet.states import PRUNE_TOL
from oracles import (
    qubit_block,
    random_qubit,
    seed_device_matrix,
    seed_random_unitary,
    tagged_block,
)

SEEDS = (0, 1, 7, 123, 2**32 - 1)


def _outcome(build):
    """The result of ``build()``, or the type and message it raised."""
    try:
        return build()
    except OamNetError as exc:
        return type(exc), str(exc)


# ------------------------------------------------- Fourier device matrix


@pytest.mark.parametrize("dimension", range(1, 17))
@pytest.mark.parametrize("parity_flip", [True, False])
def test_fourier_device_matrix_bits_equal_the_label_loop(dimension, parity_flip):
    device = SymmetricMultiport(dimension, parity_flip)
    assert device_matrix(device).tobytes() == seed_device_matrix(device).tobytes()


def test_fourier_device_matrix_crosses_no_label(monkeypatch):
    def refuse(self, amplitudes):
        raise AssertionError("transit called")

    monkeypatch.setattr(SymmetricMultiport, "transit", refuse)
    assert device_matrix(SymmetricMultiport(5)).shape == (45, 45)


def test_a_subclassed_multiport_keeps_the_label_loop():
    class Traced(SymmetricMultiport):
        calls = 0

        def transit(self, amplitudes):
            Traced.calls += 1
            return super().transit(amplitudes)

    device = Traced(4, False)
    matrix = device_matrix(device)
    assert Traced.calls == 4 * 7  # one per basis label
    assert matrix.tobytes() == seed_device_matrix(device).tobytes()


# ------------------------------------------------------ stacked unitaries


@pytest.mark.parametrize("dimension", range(1, 17))
def test_stacked_unitaries_bits_equal_draws_one_by_one(dimension):
    for seed in SEEDS:
        stacked, alone, public = (np.random.default_rng(seed) for _ in range(3))
        stack = _random_unitaries(dimension, stacked, 5)
        assert stack.shape == (5, dimension, dimension)
        for target in stack:
            expected = seed_random_unitary(dimension, alone).tobytes()
            assert target.tobytes() == expected
            assert random_unitary(dimension, public).tobytes() == expected
        assert stacked.bit_generator.state == alone.bit_generator.state
        assert public.bit_generator.state == alone.bit_generator.state


def test_verify_draws_its_targets_as_one_stack(monkeypatch):
    counts = []
    draw = cli._random_unitaries

    def spy(dimension, rng, count):
        counts.append(count)
        return draw(dimension, rng, count)

    monkeypatch.setattr(cli, "_random_unitaries", spy)
    cli._verify_checks(cli.RunConfig("verify", 3, seed=4))
    assert counts == [cli._VERIFY_RANDOM_UNITARIES]


# ----------------------------------------- relabeled MUX block reference

# qubits with a zero part, or one that their photon prunes
PRUNED_QUBITS = (
    (1, 0),
    (0, 1),
    (0, 1j),
    (-1j, 0),
    (1, PRUNE_TOL / 2),
    (PRUNE_TOL * 1j, 1),
    (math.sqrt(1 - 4e-30), 2 * PRUNE_TOL),
)


def _qubits(seed, count, dimension):
    """A (count, dimension, 2) qubit array, random qubits mixed with ones
    whose alpha or beta part is zero or pruned."""
    rng = np.random.default_rng(seed)
    qubits = np.empty((count, dimension, 2), dtype=complex)
    for k in range(count):
        for n in range(dimension):
            if rng.random() < 0.4:
                qubits[k, n] = PRUNED_QUBITS[rng.integers(len(PRUNED_QUBITS))]
            else:
                spec = random_qubit(rng)
                qubits[k, n] = spec.alpha, spec.beta
    return qubits


def _block_bits(state):
    columns = state.amplitudes
    return (
        state.space,
        state.slot_count,
        [array.tobytes() for array in (columns.path, columns.winding, columns.vpol)],
        columns.codes.shape,
        columns.codes.tobytes(),
        columns.re.shape,
        columns.re.tobytes(),
        columns.im.tobytes(),
        columns._smallest_modulus().hex(),
    )


@settings(max_examples=80, deadline=None)
@given(
    dimension=st.integers(1, 9),
    count=st.sampled_from((1, 2, 5, 20)),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_relabeled_block_equals_the_tagged_qubit_block(dimension, count, seed):
    qubits = _qubits(seed, count, dimension)
    space = ModeSpace(dimension)
    originals = qubit_block(space, qubits, [(n, 0) for n in range(dimension)])
    tagged = tagged_block(originals)
    expected = qubit_block(space, qubits, [(0, n) for n in range(dimension)])
    assert _block_bits(tagged) == _block_bits(expected)
    # the codes and amplitudes are the originals' own, read-only
    for name in ("codes", "re", "im"):
        shared = getattr(tagged.amplitudes, name)
        assert shared is getattr(originals.amplitudes, name)
        assert not shared.flags.writeable


@pytest.mark.parametrize("dimension", range(1, 7))
def test_the_relabeled_block_refuses_a_tag_as_the_qubit_block(dimension):
    qubits = _qubits(dimension, 3, dimension)
    for window in range(dimension + 1):
        space = ModeSpace(dimension, window)
        originals = qubit_block(space, qubits, [(n, 0) for n in range(dimension)])
        tagged_slots = [(0, n) for n in range(dimension)]
        expected = _outcome(lambda: _block_bits(qubit_block(space, qubits, tagged_slots)))
        assert _outcome(lambda: _block_bits(tagged_block(originals))) == expected
