"""The benchmark's workloads: inputs drawn from a seed, one op, an output check.

Each workload fixes one dimension, chosen so that the layer it targets does
most of the work (see ``bench/baseline.json`` for the reasons and for which
layer metric should move which end-to-end metric).  An op calls oamnet only
through its public functions, looked up on the module at call time so that
the traced run can wrap them.  Checks are independent of the code under
test: expected outputs are rebuilt here from the closed forms in the
package docstrings, and a check raises :class:`CheckFailed` on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from oamnet import cli, netlist, networks, serialize
from oamnet.states import H, V, ModeLabel, ModeSpace, PhotonState, QubitSpec

TOL = 1e-9

MUX_DIMENSION = 8
STAR_DIMENSION = 24
VERIFY_DIMENSION = 5
NETLIST_DIMENSION = 8
NETLIST_SAMPLES = 4

# Checks every `oamnet verify` report must contain; a later version may add
# more, but dropping one would make the op cheaper without doing the work.
VERIFY_CHECKS = frozenset(
    {
        "symmetric_unitarity",
        "closed_form_forward",
        "closed_form_reverse",
        "inverse_identity",
        "synthesis_symmetric",
        "synthesis_random",
        "routing_simple_forward",
        "routing_simple_reverse",
        "routing_star",
        "mux_roundtrip",
        "generalized_permutation",
    }
)


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own expectation."""


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    ``draw`` makes one op's input from the seeded generator, ``run`` is the
    timed op, and ``check`` validates its output outside the timed interval.
    ``trace_ops`` is the fixed op count of the traced run, so that its count
    metrics repeat exactly for a given seed.
    """

    name: str
    draw: Callable[[np.random.Generator], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    trace_ops: int


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``oamnet`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# --- mux-roundtrip ---------------------------------------------------------


def draw_qubits(rng: np.random.Generator) -> list[QubitSpec]:
    qubits = []
    for _ in range(MUX_DIMENSION):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        qubits.append(QubitSpec(complex(raw[0]), complex(raw[1])))
    return qubits


def run_mux(qubits: list[QubitSpec]):
    sent = networks.mux_transmit(qubits)
    return networks.demux_receive(sent, restore_oam=True)


def check_mux(qubits: list[QubitSpec], state) -> None:
    """User ``n``'s qubit must come back on (path ``n``, winding 0)."""
    if state.slot_count != len(qubits):
        raise CheckFailed(f"slot count {state.slot_count} != {len(qubits)}")
    expected: dict[tuple[ModeLabel, ...], complex] = {}
    for pols in itertools.product((H, V), repeat=len(qubits)):
        amp = 1.0 + 0j
        for spec, pol in zip(qubits, pols):
            amp *= spec.alpha if pol is H else spec.beta
        key = tuple(ModeLabel(path, 0, pol) for path, pol in enumerate(pols))
        expected[key] = amp
    for key in expected.keys() | state.amplitudes.keys():
        got = state.amplitudes.get(key, 0j)
        want = expected.get(key, 0j)
        if abs(got - want) > TOL:
            raise CheckFailed(f"amplitude of {key} is {got}, expected {want}")


# --- star-routing ----------------------------------------------------------


def draw_pair(rng: np.random.Generator) -> tuple[int, int]:
    sender, destination = rng.integers(0, STAR_DIMENSION, size=2)
    return int(sender), int(destination)


def run_star(pair: tuple[int, int]):
    return networks.star_deliver(pair[0], pair[1], STAR_DIMENSION)


def check_star(pair: tuple[int, int], state) -> None:
    """Lands on path d with unit modulus, winding ``((d+s) mod D) - d``."""
    sender, destination = pair
    label, amp = max(state.amplitudes.items(), key=lambda item: abs(item[1]))
    if label.path != destination:
        raise CheckFailed(f"landed on path {label.path}, expected {destination}")
    if abs(abs(amp) - 1.0) > TOL:
        raise CheckFailed(f"|amplitude| = {abs(amp)!r}, expected 1")
    winding = (destination + sender) % STAR_DIMENSION - destination
    if label.oam != winding:
        raise CheckFailed(f"winding {label.oam}, expected {winding}")


# --- verify ----------------------------------------------------------------


def draw_verify_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def run_verify(seed: int) -> tuple[int, str]:
    return run_cli(
        ["verify", "--dimension", str(VERIFY_DIMENSION), "--seed", str(seed)]
    )


def check_verify(seed: int, output: tuple[int, str]) -> None:
    """Exit code 0, every check present and passing, config echoed back."""
    code, text = output
    if code != 0:
        raise CheckFailed(f"verify exited with {code}")
    try:
        report = json.loads(text)
        checks = {check["name"]: check["pass"] for check in report["checks"]}
        config = report["config"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable verify report: {exc!r}") from exc
    missing = VERIFY_CHECKS - checks.keys()
    if missing:
        raise CheckFailed(f"verify report lacks {sorted(missing)}")
    failing = sorted(name for name, passed in checks.items() if passed is not True)
    if failing:
        raise CheckFailed(f"verify checks failed: {failing}")
    if config.get("seed") != seed or config.get("dimension") != VERIFY_DIMENSION:
        raise CheckFailed(f"verify echoed config {config}")


# --- netlist-export --------------------------------------------------------


def draw_basis_samples(rng: np.random.Generator) -> list[tuple[int, int]]:
    """(path, winding) basis photons used to replay the exported netlist."""
    samples = rng.integers(0, NETLIST_DIMENSION, size=(NETLIST_SAMPLES, 2))
    return [(int(path), int(oam)) for path, oam in samples]


def run_netlist(_samples) -> tuple[int, str, Any]:
    code, text = run_cli(
        [
            "netlist",
            "--target",
            "oambs",
            "--dimension",
            str(NETLIST_DIMENSION),
        ]
    )
    return code, text, serialize.netlist_loads(text)


def check_netlist(samples: list[tuple[int, int]], output) -> None:
    """Small replay error, byte-exact re-export, and sampled photons routed
    by the forward closed form ``|l>_n -> |-l>_{(-l-n) mod D}`` with one
    shared unit-modulus phase."""
    code, text, loaded = output
    if code != 0:
        raise CheckFailed(f"netlist exited with {code}")
    try:
        replay_error = json.loads(text)["metadata"]["replay_error"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable netlist document: {exc!r}") from exc
    if not replay_error <= TOL:
        raise CheckFailed(f"replay_error {replay_error!r} above {TOL}")
    if serialize.netlist_dumps(loaded, replay_error) != text:
        raise CheckFailed("re-exported netlist differs from the exported bytes")
    space = ModeSpace(NETLIST_DIMENSION)
    phase = None
    for path, oam in samples:
        photon = PhotonState(space, {ModeLabel(path, oam): 1.0})
        routed = netlist.netlist_apply(loaded, photon)
        target = ModeLabel((-oam - path) % NETLIST_DIMENSION, -oam)
        amp = routed.amplitude(target)
        if abs(abs(amp) - 1.0) > TOL:
            raise CheckFailed(f"|{oam}>_{path} reaches {target} with {amp}")
        if phase is None:
            phase = amp
        elif abs(amp - phase) > 2 * TOL:
            raise CheckFailed(f"|{oam}>_{path} phase {amp} differs from {phase}")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("mux-roundtrip", draw_qubits, run_mux, check_mux, 30),
        Workload("star-routing", draw_pair, run_star, check_star, 300),
        Workload("verify", draw_verify_seed, run_verify, check_verify, 12),
        Workload(
            "netlist-export", draw_basis_samples, run_netlist, check_netlist, 24
        ),
    )
}


def prepare(workload: Workload, seed: int) -> np.random.Generator:
    """Seed the input stream and run one untimed warm-up op, which fills the
    package's caches; returns the generator positioned after it."""
    rng = np.random.default_rng(seed)
    workload.run(workload.draw(rng))
    return rng
