"""Command-line front end for building, checking, and exporting networks.

Exit codes: 0 when everything passed, 1 when a check or delivery failed,
2 for usage/configuration errors, 3 for output I/O failures.  JSON output
is byte-deterministic for identical flags (including ``--seed``); text
output is for humans and carries no such guarantee.  The ``netlist``
subcommand always writes the JSON netlist schema regardless of ``--format``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .elements import Direction
from .errors import DomainError, OamNetError
from .multiport import (
    GENPERM_TOL,
    UNITARITY_TOL,
    _basis_map,
    _closed_form_walk,
    device_matrix,  # kept as a binding: bench/tracing.py wraps it
    global_phase_error,
    is_generalized_permutation,
    oambs,
    sbmao,
    symmetric_matrix,
)
from .netlist import (
    _random_unitaries,
    oambs_netlist,
    oambs_netlist_error,
    path_replay_error,
    reck_decompose,
    symmetric_netlist,
)
from .networks import (
    MuxNetwork,
    SimpleRoutingNetwork,
    StarNetwork,
    delivery_row,
    routing_report,
    sender_tag,
    superposed_destination,
    bell_target,
    distribute_bell_pair,
)
from . import states
from .serialize import dumps_canonical, netlist_dumps
from .states import (
    fidelity,
    path_probabilities,
    tensor,  # kept as a binding: bench/tracing.py wraps it
)

_VERIFY_RANDOM_UNITARIES = 5
_VERIFY_MUX_VECTORS = 20


@dataclass(frozen=True)
class RunConfig:
    command: str
    dimension: int
    tolerance: float = 1e-9
    oam_window: int | None = None
    fmt: str = "json"
    seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise DomainError(f"--dimension must be >= 1, got {self.dimension}")
        if not (self.tolerance > 0) or not np.isfinite(self.tolerance):
            raise DomainError(f"--tolerance must be > 0, got {self.tolerance}")
        if self.oam_window is not None and self.oam_window < 0:
            raise DomainError(
                f"--oam-window must be >= 0, got {self.oam_window}"
            )
        if self.seed < 0:
            raise DomainError(f"--seed must be >= 0, got {self.seed}")

    def config_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "dimension": self.dimension,
            "tolerance": self.tolerance,
            "oam_window": self.oam_window,
            "format": self.fmt,
            "seed": self.seed,
        }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``oamnet`` parser, built once per process: parsing reads it and
    never changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dimension", type=int, default=3, help="number of paths/users")
    common.add_argument("--tolerance", type=float, default=1e-9, help="pass/fail tolerance for device-level checks")
    common.add_argument("--oam-window", type=int, default=None, help="winding-number window override (default 4x dimension)")
    common.add_argument("--format", choices=("json", "text"), default="json", dest="fmt", help="report format")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument("--output", default=None, help="write the report/netlist to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="oamnet",
        description="Simulate and check OAM-routed single-photon networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", parents=[common], help="run the full invariant suite for one dimension")

    route = sub.add_parser("route", parents=[common], help="route one photon and report the delivery")
    route.add_argument("--kind", choices=("simple", "star"), required=True)
    route.add_argument("--from", dest="sender", type=int, required=True, help="sender index")
    route.add_argument("--to", dest="destination", type=int, required=True, help="destination index")
    route.add_argument("--side", choices=("forward", "reverse"), default=None, help="transit direction of a simple network (default forward); not for --kind star")

    netlist = sub.add_parser("netlist", parents=[common], help="synthesize a device netlist and export it as JSON")
    netlist.add_argument("--target", choices=("symmetric", "oambs"), required=True)

    scenario = sub.add_parser("scenario", parents=[common], help="run an end-to-end usage scenario")
    scenario.add_argument("name", choices=("mux-roundtrip", "bell", "superposed"))
    scenario.add_argument("--src", default=None, help="bell: comma-separated input paths x,y")
    scenario.add_argument("--dst", default=None, help="bell: comma-separated user indices n,m")
    scenario.add_argument("--from", dest="sender", type=int, default=None, help="superposed: sender index")
    scenario.add_argument("--to", dest="destinations", default=None, help="superposed: comma-separated destination indices")
    return parser


def _parse_int_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"{flag} expects two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise DomainError(f"{flag} expects integers, got {text!r}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    parts = text.split(",")
    if "" in parts:
        raise DomainError(f"{flag} has an empty field in {text!r}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise DomainError(f"{flag} expects integers, got {text!r}") from exc


def _write_output(text: str, config: RunConfig) -> int:
    if config.output is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(config.output).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
        return 3
    return 0


def _closed_form_error(basis_map, dimension: int, direction: Direction) -> float:
    """Worst deviation of a device, given by its ``multiport._basis_map``,
    from the closed-form routing map for ``direction`` over all basis
    inputs, sharing one global phase; the residual is the largest entry off
    the expected row.  A device without a basis map gives 1.0.

    Reads the map along ``multiport``'s closed-form walk, the one the
    netlist certification also reads, with the bits of these steps on the
    dense matrix: the phase is the first amplitude's numpy quotient (the
    certification keeps Python's, which differs in the last bit),
    deviations are ``np.hypot`` of their parts, residuals ``np.abs`` of the
    entries off their expected row, and the largest value is taken in walk
    order.
    """
    if basis_map is None:
        return 1.0
    image, amplitudes = basis_map
    photons, expected = _closed_form_walk(dimension, direction)
    hit = image[photons] == expected
    entries = amplitudes[photons]
    found = np.where(hit, entries, 0)
    if found[0] == 0:
        return 1.0
    deviation = found - found[0] / abs(found[0])
    off = np.where(hit, 0.0, np.abs(entries))
    walk = np.column_stack((np.hypot(deviation.real, deviation.imag), off))
    return max(0.0, *walk.ravel().tolist())


def _inverse_error(first, then) -> float:
    """``global_phase_error`` of ``then``'s device matrix times ``first``'s
    against the identity, from their ``multiport._basis_map`` (1.0 unless
    both have one).  Each column of the product holds one entry, multiplied
    in split form, so no value depends on the BLAS kernel."""
    if first is None or then is None:
        return 1.0
    image, a = first
    rows, b = then[0][image], then[1][image]
    # adding 0.0 makes a zero part +0.0, as the dense product's sums of
    # zero terms do; its sign decides the angle of a real negative entry
    product = np.empty(len(a), dtype=complex)
    product.real = b.real * a.real - b.imag * a.imag + 0.0
    product.imag = b.real * a.imag + b.imag * a.real + 0.0
    # the entries on the diagonal against 1, the others against 0
    fixed = rows == np.arange(len(rows))
    entries = np.append(np.where(fixed, product, 0), np.where(fixed, 0, product))
    return global_phase_error(entries, np.repeat([1.0, 0.0], len(a)))


def _is_permutation_map(basis_map) -> bool:
    """``is_generalized_permutation``'s verdict on a device, from its
    one-to-one ``multiport._basis_map``: every amplitude of unit modulus."""
    if basis_map is None:
        return False
    return bool((np.abs(np.abs(basis_map[1]) - 1.0) <= GENPERM_TOL).all())


def _draw_qubits(
    rng: np.random.Generator, count: int, dimension: int
) -> np.ndarray:
    """``count`` rounds of one random unit qubit per user, as a complex
    array of shape (count, dimension, 2) holding each (alpha, beta).

    Each qubit takes the real parts of alpha and beta, then their imaginary
    parts, from ``rng``, and is divided by its norm ``sqrt((re0*re0 +
    re1*re1) + (im0*im0 + im1*im1))``, summed elementwise in that order, so
    the array holds the bits of drawing the qubits one by one and leaves
    ``rng`` in the same state, whichever BLAS kernel runs.
    """
    raw = rng.standard_normal((count, dimension, 2, 2))
    re, im = raw[..., 0, :], raw[..., 1, :]
    squares = raw * raw
    norm_sq = (squares[..., 0, 0] + squares[..., 0, 1]) + (
        squares[..., 1, 0] + squares[..., 1, 1]
    )
    qubits = re + 1j * im
    qubits /= np.sqrt(norm_sq)[..., None]
    return qubits


def _mux_roundtrip(
    network: MuxNetwork, rng: np.random.Generator, count: int = 1
) -> list[tuple[float, float]]:
    """``MuxNetwork._round_fidelities`` of ``count`` rounds of one qubit per
    user from ``rng``; past ``MAX_ENSEMBLE_ROWS`` product rows (``2**D``)
    it raises the ensemble's row bound before it draws."""
    states._require_power_row_bound(network.dimension)
    return network._round_fidelities(
        _draw_qubits(rng, count, network.dimension)
    )


def _verify_checks(config: RunConfig) -> list[dict[str, Any]]:
    dimension = config.dimension
    tol = config.tolerance
    rng = np.random.default_rng(config.seed)
    checks: list[dict[str, Any]] = []

    def add(name: str, passed: bool, error: float) -> None:
        checks.append(
            {"name": name, "pass": bool(passed), "measured_error": float(error)}
        )

    # the MUX check's 2**D product rows bound verify, so they are counted
    # before any other check does work
    states._require_power_row_bound(dimension)
    s = symmetric_matrix(dimension)
    identity = np.eye(dimension)
    unitarity = float(np.max(np.abs(s.conj().T @ s - identity)))
    symmetry = float(np.max(np.abs(s - s.T)))
    err = max(unitarity, symmetry)
    add("symmetric_unitarity", err < UNITARITY_TOL, err)

    forward = _basis_map(oambs(dimension))
    reverse = _basis_map(sbmao(dimension))
    err = _closed_form_error(forward, dimension, Direction.FORWARD)
    add("closed_form_forward", err < tol, err)
    err = _closed_form_error(reverse, dimension, Direction.REVERSE)
    add("closed_form_reverse", err < tol, err)

    err = _inverse_error(forward, reverse)
    add("inverse_identity", err < tol, err)

    err = path_replay_error(reck_decompose(s), s)
    add("synthesis_symmetric", err < tol, err)

    err = 0.0
    for target in _random_unitaries(dimension, rng, _VERIFY_RANDOM_UNITARIES):
        err = max(err, path_replay_error(reck_decompose(target), target))
    add("synthesis_random", err < tol, err)

    window = config.oam_window
    for name, network in zip(
        ("routing_simple_forward", "routing_simple_reverse", "routing_star"),
        (
            SimpleRoutingNetwork(dimension, Direction.FORWARD, window),
            SimpleRoutingNetwork(dimension, Direction.REVERSE, window),
            StarNetwork(dimension, window),
        ),
    ):
        report = routing_report(network, max_dimension=dimension)
        # a simple network's rows carry no sender tag
        delivered = report.all_pass and all(
            row.sender_tag in (None, row.sender) for row in report.rows
        )
        err = max((row.amplitude_error for row in report.rows), default=0.0)
        if not delivered:
            err = 1.0
        add(name, delivered and err < tol, err)

    qubits = _draw_qubits(rng, _VERIFY_MUX_VECTORS, dimension)
    rounds = MuxNetwork(dimension, config.oam_window)._round_fidelities(qubits)
    worst = max(1.0 - value for pair in rounds for value in pair)
    add("mux_roundtrip", worst < tol, worst)

    # the multiport's device matrix is a generalized permutation exactly
    # when its scattering matrix is
    raw_ok, _ = is_generalized_permutation(s)
    passed = _is_permutation_map(forward) and _is_permutation_map(reverse)
    passed = passed and (dimension == 1 or not raw_ok)
    add("generalized_permutation", passed, 0.0 if passed else 1.0)

    return checks


def _render_text_checks(checks: Sequence[dict[str, Any]]) -> str:
    lines = []
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        lines.append(
            f"check {check['name']}: {status} "
            f"(measured_error={check['measured_error']:.3e})"
        )
    failures = sum(1 for check in checks if not check["pass"])
    lines.append(
        "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    )
    return "\n".join(lines) + "\n"


def _render_text_fields(data: dict[str, Any]) -> str:
    return "".join(f"{key}: {value}\n" for key, value in data.items())


def _write_report(
    data: dict[str, Any], config: RunConfig, text: str, passed: bool
) -> int:
    """Write ``data`` as canonical JSON, or ``text`` for ``--format text``;
    exit 1 unless ``passed``."""
    if config.fmt == "json":
        text = dumps_canonical(data) + "\n"
    code = _write_output(text, config)
    return code if code != 0 else (0 if passed else 1)


def cmd_verify(config: RunConfig) -> int:
    checks = _verify_checks(config)
    report = {"checks": checks, "config": config.config_dict()}
    passed = all(check["pass"] for check in checks)
    return _write_report(report, config, _render_text_checks(checks), passed)


def cmd_route(config: RunConfig, args: argparse.Namespace) -> int:
    dimension = config.dimension
    if args.kind == "star" and args.side is not None:
        raise DomainError("--side applies to --kind simple only")
    for name, value in (("--from", args.sender), ("--to", args.destination)):
        if not 0 <= value < dimension:
            raise DomainError(f"{name} {value} outside [0, {dimension - 1}]")

    if args.kind == "simple":
        side = args.side or Direction.FORWARD.value
        network = SimpleRoutingNetwork(dimension, Direction(side), config.oam_window)
    else:
        network = StarNetwork(dimension, config.oam_window)
        side = "star"
    row = delivery_row(network, args.sender, args.destination, config.tolerance)

    data = {"kind": args.kind, "side": side, "dimension": dimension, **asdict(row)}
    data["pass"] = data.pop("passed")
    return _write_report(data, config, _render_text_fields(data), data["pass"])


def cmd_netlist(config: RunConfig, args: argparse.Namespace) -> int:
    dimension = config.dimension
    if args.target == "symmetric":
        built = symmetric_netlist(dimension)
        error = path_replay_error(built, symmetric_matrix(dimension))
    else:
        built = oambs_netlist(dimension)
        error = oambs_netlist_error(built)
    return _write_output(netlist_dumps(built, replay_error=error), config)


def _scenario_mux_roundtrip(config: RunConfig) -> dict[str, Any]:
    network = MuxNetwork(config.dimension, config.oam_window)
    [(transmit_fidelity, roundtrip_fidelity)] = _mux_roundtrip(
        network, np.random.default_rng(config.seed)
    )
    passed = (
        transmit_fidelity >= 1.0 - config.tolerance
        and roundtrip_fidelity >= 1.0 - config.tolerance
    )
    return {
        "scenario": "mux-roundtrip",
        "dimension": config.dimension,
        "seed": config.seed,
        "transmit_fidelity": transmit_fidelity,
        "roundtrip_fidelity": roundtrip_fidelity,
        "pass": passed,
    }


def _scenario_bell(config: RunConfig, args: argparse.Namespace) -> dict[str, Any]:
    if args.src is None or args.dst is None:
        raise DomainError("scenario bell requires --src x,y and --dst n,m")
    x, y = _parse_int_pair(args.src, "--src")
    n, m = _parse_int_pair(args.dst, "--dst")
    delivered = distribute_bell_pair(x, y, n, m, config.dimension)
    target = bell_target(x, y, n, m, config.dimension)
    value = fidelity(delivered, target)
    # Both surviving tuples share one path/winding structure (only the
    # polarizations swap), so any tuple yields the per-slot sender tags.
    sample = next(iter(delivered.amplitudes))
    tags = [sender_tag(label.oam, config.dimension) for label in sample]
    return {
        "scenario": "bell",
        "dimension": config.dimension,
        "sources": [x, y],
        "destinations": [n, m],
        "fidelity": value,
        "delivered_tags": tags,
        "pass": value >= 1.0 - config.tolerance,
    }


def _scenario_superposed(
    config: RunConfig, args: argparse.Namespace
) -> dict[str, Any]:
    if args.sender is None or args.destinations is None:
        raise DomainError(
            "scenario superposed requires --from <sender> and --to <m1,m2,...>"
        )
    destinations = _parse_int_list(args.destinations, "--to")
    amplitude = 1.0 / np.sqrt(len(destinations))
    state = superposed_destination(
        args.sender,
        config.dimension,
        [(path, amplitude) for path in destinations],
    )
    weights = path_probabilities(state)
    expected = 1.0 / len(destinations)
    deviation = max(
        abs(weights.get(path, 0.0) - expected) for path in destinations
    )
    return {
        "scenario": "superposed",
        "dimension": config.dimension,
        "sender": args.sender,
        "destinations": destinations,
        "path_weights": {str(path): weight for path, weight in weights.items()},
        "pass": deviation <= config.tolerance,
    }


def cmd_scenario(config: RunConfig, args: argparse.Namespace) -> int:
    if args.name == "mux-roundtrip":
        data = _scenario_mux_roundtrip(config)
    elif args.name == "bell":
        data = _scenario_bell(config, args)
    else:
        data = _scenario_superposed(config, args)
    return _write_report(data, config, _render_text_fields(data), data["pass"])


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = RunConfig(
            command=args.command,
            dimension=args.dimension,
            tolerance=args.tolerance,
            oam_window=args.oam_window,
            fmt=args.fmt,
            seed=args.seed,
            output=args.output,
        )
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "route":
            return cmd_route(config, args)
        if args.command == "netlist":
            return cmd_netlist(config, args)
        return cmd_scenario(config, args)
    except OamNetError as exc:
        # every library-raised error reachable from the CLI traces back to
        # a bad flag combination, so it belongs to the usage exit class
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
