"""The closed-form walk shared by verify's matrix checks and the netlist
certification: positions in the device basis of each basis photon and of
its closed-form image, in the order of the seed's walk."""

import numpy as np
import pytest

from oamnet import (
    Direction,
    DomainError,
    ModeLabel,
    cli,
    device_basis,
    oambs,
)
from oamnet.multiport import _basis_map, _closed_form_walk, oambs_closed_form
from oracles import basis_map_matrix, seed_closed_form_error


@pytest.mark.parametrize("dimension", range(1, 13))
@pytest.mark.parametrize("direction", list(Direction))
def test_the_walk_is_the_closed_form_in_seed_order(dimension, direction):
    basis = device_basis(dimension)
    photons, images = _closed_form_walk(dimension, direction)
    expected = []
    for path in range(dimension):
        for oam in range(dimension):
            out_oam, out_path = oambs_closed_form(oam, path, dimension, direction)
            expected.append((ModeLabel(path, oam), ModeLabel(out_path, out_oam)))
    walked = [(basis[p], basis[i]) for p, i in zip(photons.tolist(), images.tolist())]
    assert walked == expected


def test_the_walk_is_cached_and_read_only():
    walk = _closed_form_walk(5, Direction.REVERSE)
    again = _closed_form_walk(5, Direction.REVERSE)
    assert again is walk
    assert walk.shape == (2, 25)
    for row in walk:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0


def test_the_walk_takes_only_a_direction():
    before = _closed_form_walk.cache_info().currsize
    with pytest.raises(DomainError, match="^not a direction: 'forward'$"):
        _closed_form_walk(3, "forward")
    assert _closed_form_walk.cache_info().currsize == before


def test_verify_keeps_the_numpy_phase_quotient():
    # a first amplitude whose numpy and Python unit-phase quotients differ
    # in the last bit: verify's error is the numpy one's, as in the seed walk
    photons, images = _closed_form_walk(4, Direction.FORWARD)
    image, amplitudes = _basis_map(oambs(4))
    assert image[photons[0]] == images[0]
    for angle in np.random.default_rng(3).uniform(0, 2 * np.pi, 256):
        rotated = (image, amplitudes * np.exp(1j * angle))
        first = rotated[1][photons[0]]
        if complex(first / abs(first)) != complex(first) / abs(complex(first)):
            break
    else:
        pytest.fail("no phase found whose quotients differ")
    matrix = basis_map_matrix(rotated)
    expected = float(seed_closed_form_error(matrix, 4, Direction.FORWARD))
    measured = cli._closed_form_error(rotated, 4, Direction.FORWARD)
    assert measured.hex() == expected.hex()
