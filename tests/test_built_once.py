"""Verify's matrices built once, against the code they replace.

``device_matrix`` of a bare symmetric multiport places its entries straight
from the cached Fourier matrix, and the synthesis check draws its random
unitaries as one stack with one stacked QR factorization.  Each must give
the bits of what it replaces: the label loop of
``oracles.seed_device_matrix``, and unitaries drawn one by one
(``oracles.seed_random_unitary``, and ``random_unitary`` itself).  The
stacked and single QR factorizations must agree whichever kernel OpenBLAS
picks.
"""

import numpy as np
import pytest

from oamnet import SymmetricMultiport, device_matrix, random_unitary
from oamnet import cli
from oamnet.netlist import _random_unitaries
from oracles import seed_device_matrix, seed_random_unitary

SEEDS = (0, 1, 7, 123, 2**32 - 1)


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

