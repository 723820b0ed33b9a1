"""The MUX check slot by slot, against each round run alone.

``cli._mux_roundtrip(network, rng, K)`` draws K rounds of qubits as one
array, which must give the bits of ``oracles.random_qubit`` called qubit by
qubit, and computes each round's transmit and round-trip fidelity from the
slots' label images (``cli._mux_fidelities``).  The reference is each round
run alone through the public per-state API (``tensor``,
``MuxNetwork.merge`` and ``receive``, ``fidelity``).  The per-slot
fidelities must lie within 1e-13 of it, also when the rounds' supports
differ (qubits with a zero or near-zero part), and must raise the error
that the first failing round raises alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    DomainError,
    MuxNetwork,
    NormalizationError,
    OamNetError,
    QubitSpec,
    fidelity,
    make_qubit_photon,
    tensor,
)
from oamnet import cli, states
from oamnet.states import PRUNE_TOL
from oracles import random_qubit

# qubits whose supports differ from a random qubit's: a part that the photon
# prunes (zero or not), or one just above PRUNE_TOL whose products prune later
SPECIAL_QUBITS = (
    QubitSpec(1, 0),
    QubitSpec(0, 1),
    QubitSpec(0, 1j),
    QubitSpec(math.sqrt(1 - 4e-30), 2 * PRUNE_TOL),
    QubitSpec(-2j * PRUNE_TOL, math.sqrt(1 - 4e-30)),
    QubitSpec(math.sqrt(0.5), -math.sqrt(0.5) * 1j),
    QubitSpec(1, PRUNE_TOL / 2),
)


def outcome(compute):
    """The result of ``compute()``, or the type and text of its error."""
    try:
        return compute()
    except OamNetError as exc:
        return type(exc), str(exc)


def qubit_array(rounds):
    """Rounds of ``QubitSpec``s as the (K, D, 2) array of
    ``cli._mux_fidelities``."""
    return np.array(
        [[(spec.alpha, spec.beta) for spec in qubits] for qubits in rounds],
        dtype=complex,
    )


def bits(results):
    return [(transmit.hex(), roundtrip.hex()) for transmit, roundtrip in results]


def round_alone(network, qubits):
    """One round through the public per-state API."""
    space = network.space
    originals = tensor(
        [make_qubit_photon(spec, path, 0, space) for path, spec in enumerate(qubits)]
    )
    sent = network.merge(originals)
    tagged = tensor(
        [make_qubit_photon(spec, 0, winding, space) for winding, spec in enumerate(qubits)]
    )
    transmit = fidelity(sent, tagged)
    received = network.receive(sent, restore_oam=True)
    return transmit, fidelity(received, originals)


def rounds_alone(network, rounds):
    return bits(round_alone(network, qubits) for qubits in rounds)


def close(results, expected, tol=1e-13):
    """Whether two lists of (transmit, round-trip) fidelities agree within
    ``tol``."""
    assert len(results) == len(expected)
    return all(
        abs(a - b) <= tol
        for pair, other in zip(results, expected)
        for a, b in zip(pair, other)
    )


def round_counts(monkeypatch, module, name):
    """The round count of every qubit array passed to ``module.name``."""
    counts = []
    function = getattr(module, name)

    def spy(network, qubits):
        counts.append(len(qubits))
        return function(network, qubits)

    monkeypatch.setattr(module, name, spy)
    return counts


@st.composite
def mixed_rounds(draw, dimension, count):
    """``count`` rounds of random qubits, some swapped for special ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = st.one_of(st.none(), st.sampled_from(SPECIAL_QUBITS))
    return [
        [
            random_qubit(rng) if (special := draw(specials)) is None else special
            for _ in range(dimension)
        ]
        for _ in range(count)
    ]


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dimension=st.integers(1, 16),
    count=st.sampled_from((1, 2, 3)),
    refuse=st.booleans(),
)
def test_per_slot_fidelities_match_rounds_alone(data, dimension, count, refuse):
    # qubits with zero parts among them, and windows below D - 1 that
    # refuse the holograms' or the tags' windings
    window = data.draw(st.integers(0, dimension - 2)) if refuse and dimension > 1 else None
    network = MuxNetwork(dimension, window)
    rounds = data.draw(mixed_rounds(dimension, count))
    expected = outcome(lambda: [round_alone(network, qubits) for qubits in rounds])
    found = outcome(lambda: cli._mux_fidelities(network, qubit_array(rounds)))
    if window is not None:
        assert isinstance(expected, tuple) and issubclass(expected[0], OamNetError)
        assert found == expected
    else:
        assert close(found, expected)


@settings(max_examples=30, deadline=None)
@given(
    dimension=st.integers(1, 9),
    count=st.sampled_from((1, 2, 20)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mux_roundtrip_draws_and_matches_rounds_alone(dimension, count, seed):
    network = MuxNetwork(dimension)
    rng = np.random.default_rng(seed)
    results = cli._mux_roundtrip(network, rng, count)
    oracle_rng = np.random.default_rng(seed)
    rounds = [
        [random_qubit(oracle_rng) for _ in range(dimension)] for _ in range(count)
    ]
    alone = [round_alone(network, qubits) for qubits in rounds]
    assert close(results, alone)
    # one draw per qubit, in order, and nothing more
    assert rng.standard_normal() == oracle_rng.standard_normal()


@settings(max_examples=30, deadline=None)
@given(
    count=st.sampled_from((1, 2, 20)),
    dimension=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_array_draw_gives_the_bits_of_qubits_drawn_one_by_one(
    count, dimension, seed
):
    rng = np.random.default_rng(seed)
    qubits = cli._draw_qubits(rng, count, dimension)
    oracle_rng = np.random.default_rng(seed)
    specs = [
        [random_qubit(oracle_rng) for _ in range(dimension)] for _ in range(count)
    ]
    assert qubits.shape == (count, dimension, 2)
    assert [
        [(part.real.hex(), part.imag.hex()) for part in qubit]
        for qubit in qubits.reshape(-1, 2).tolist()
    ] == [
        [(part.real.hex(), part.imag.hex()) for part in (spec.alpha, spec.beta)]
        for row in specs
        for spec in row
    ]
    # the array draw consumes exactly what the qubit-by-qubit draw does
    assert rng.standard_normal() == oracle_rng.standard_normal()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dimension=st.integers(2, 7),
    count=st.sampled_from((1, 2, 20)),
)
def test_a_failing_block_raises_the_first_rounds_error(data, dimension, count):
    # a window below D - 1 rejects the holograms' or the tags' windings
    window = data.draw(st.integers(0, dimension - 2))
    network = MuxNetwork(dimension, window)
    rounds = data.draw(mixed_rounds(dimension, count))
    expected = outcome(lambda: rounds_alone(network, rounds))
    assert isinstance(expected, tuple) and issubclass(expected[0], OamNetError)
    assert outcome(lambda: cli._mux_fidelities(network, qubit_array(rounds))) == expected


def test_per_slot_fidelities_refuse_a_qubit_of_non_unit_norm():
    # the norm check of the rounds' product states, before any label check
    qubits = qubit_array([[QubitSpec(0.6, 0.8), QubitSpec(1, 0)]] * 2)
    qubits[1, 1, 0] = 1.1
    with pytest.raises(NormalizationError, match=r"ensemble norm\^2 = 1\.21"):
        cli._mux_fidelities(MuxNetwork(2, 0), qubits)


def test_a_slot_lists_h_before_v_when_rounds_prune_different_parts():
    # round 0 prunes H on path 0 and round 1 prunes V there, so that slot
    # crosses as its H label, which round 0 does not hold
    network = MuxNetwork(3)
    rounds = [
        [QubitSpec(0, 1j), QubitSpec(0.6, 0.8), QubitSpec(0.8, -0.6j)],
        [QubitSpec(1, 0), QubitSpec(0.6, -0.8j), QubitSpec(0.6, 0.8)],
    ]
    alone = [round_alone(network, qubits) for qubits in rounds]
    assert close(cli._mux_fidelities(network, qubit_array(rounds)), alone)


def test_a_round_beyond_the_row_bound_fails_as_alone(monkeypatch):
    # 2**5 rows exceed a bound of 16, with the message that tensor gives
    # for the round alone
    monkeypatch.setattr(states, "MAX_ENSEMBLE_ROWS", 16)
    network = MuxNetwork(5)
    rng = np.random.default_rng(4)
    rounds = [[random_qubit(rng) for _ in range(5)]]
    expected = outcome(lambda: rounds_alone(network, rounds))
    assert expected == (
        DomainError, "an ensemble step of 32 rows exceeds the bound of 16 rows"
    )
    assert outcome(lambda: cli._mux_roundtrip(network, np.random.default_rng(4), 3)) == expected


def test_scenario_and_verify_blocks_use_count_one_and_twenty(monkeypatch):
    # one array of rounds each: the scenario's single round, verify's twenty
    sizes = round_counts(monkeypatch, cli, "_mux_fidelities")
    assert cli.main(["scenario", "mux-roundtrip", "--dimension", "4", "--output", "/dev/null"]) == 0
    assert cli.main(["verify", "--dimension", "4", "--output", "/dev/null"]) == 0
    assert sizes == [1, cli._VERIFY_MUX_VECTORS]
