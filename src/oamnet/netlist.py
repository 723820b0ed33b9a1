"""Netlists: flat element lists that realize path unitaries and OAM devices.

``reck_decompose`` synthesizes any path unitary from beamsplitters on
adjacent port pairs arranged in a triangle, plus trailing phase shifters.
Rows are eliminated top to bottom and, within a row, right to left; this
fixed order makes netlists reproducible byte for byte.

A netlist may also declare a ``parity_flip``: one aggregate winding sign
flip applied after its elements, standing in for the odd number of internal
reflections a photon suffers while crossing a synthesized multiport.

``oambs_netlist_error`` certifies an export by replaying every basis photon
``|l>_n`` through it, and sends all ``D**2`` of them through at once: one
list of rows, each a (photon and polarization, path, winding, amplitude)
entry of some photon's map, grouped by photon and in each photon's dict
order.  The elements are grouped into rounds of elements on disjoint ports
(the 88 elements of the D=8 OAM beamsplitter make 30 rounds), and each
round fans the rows out to their images and sums equal rows with the
ensemble's own kernels, so every photon's images equal
``Netlist.mode_images`` bit for bit and in key order, and memory follows
the summed supports.

Each round reads its elements' port rules
(:class:`~oamnet.elements.PortRule`) into port tables indexed by path:
fan-out, image path and factor per term, winding sign and shift.  Every
row's images then come from a few numpy gathers, and only a Dove prism's
winding phase is computed, once per distinct (path, winding), by its own
formula.  The batch takes netlists of the six built-in element types whose
windings stay within ``LABEL_BOUND``; any other netlist (another
:class:`~oamnet.elements.PortElement`, subclasses of the six included) is
replayed photon by photon through ``Netlist.mode_images``, in Python ints
that never wrap.  ``netlist_apply``, ``Netlist.mode_images`` and
``compose_images`` remain the path for single states and the reference
the tests compare the batch against.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .elements import (
    BeamSplitter,
    Direction,
    DovePrism,
    Element,
    Hologram,
    Mirror,
    PhaseShifter,
    PortElement,
    ReflectiveHologram,
    beamsplitter_block,
)
from .errors import DecompositionError, DomainError
from .multiport import closed_form_error, global_phase_error, symmetric_matrix
from .states import (
    LABEL_BOUND,
    PRUNE_TOL,
    EnsembleState,
    H,
    V,
    ModeLabel,
    ModeSpace,
    PhotonState,
    _fan_out,
    _sum_equal_rows,
    apply_mode_map,
    compose_images,
)

# Entries below this are treated as already-nulled during elimination.
_NULL_TOL = 1e-14


@dataclass(frozen=True)
class Netlist:
    """Ordered optical elements over ``dimension`` paths."""

    dimension: int
    elements: tuple[Element, ...]
    parity_flip: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "elements", tuple(self.elements))
        for element in self.elements:
            if not isinstance(element, PortElement):
                raise DomainError(
                    "netlists hold elementary elements only, got "
                    f"{type(element).__name__}"
                )
            element.check_ports(self.dimension)

    def mode_images(self, label: ModeLabel):
        images = compose_images(self.elements, label)
        if self.parity_flip:
            images = [
                (ModeLabel(l.path, -l.oam, l.pol), amp) for l, amp in images
            ]
        return images


def netlist_apply(
    netlist: Netlist,
    state: PhotonState | EnsembleState,
    parity_flip: bool | None = None,
) -> PhotonState | EnsembleState:
    """Run a state through the netlist; ``parity_flip`` overrides the
    netlist's own declaration when given."""
    if state.space.dimension != netlist.dimension:
        raise DomainError(
            f"state spans {state.space.dimension} paths, netlist "
            f"{netlist.dimension}"
        )
    effective = netlist
    if parity_flip is not None and parity_flip != netlist.parity_flip:
        effective = replace(netlist, parity_flip=parity_flip)
    return apply_mode_map(state, effective)


def reck_decompose(target: np.ndarray) -> Netlist:
    """Triangular synthesis of a path unitary.

    Returns at most ``D*(D-1)/2`` beamsplitters on adjacent port pairs plus
    trailing phase shifters whose replayed product reproduces ``target``
    exactly (up to accumulated round-off, well under 1e-9).
    """
    work = np.array(target, dtype=complex)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise DecompositionError(f"target must be square, got {work.shape}")
    dimension = work.shape[0]
    identity = np.eye(dimension)
    defect = float(np.max(np.abs(work.conj().T @ work - identity)))
    if defect > 1e-10:
        raise DecompositionError(
            f"target is not unitary: max |U^H U - I| = {defect:.3e}"
        )

    splitters: list[BeamSplitter] = []
    for row in range(dimension - 1):
        for col in range(dimension - 1, row, -1):
            a, b = col - 1, col
            u, v = work[row, a], work[row, b]
            if abs(v) <= _NULL_TOL:
                continue
            theta = math.atan2(abs(v), abs(u))
            phi = float(np.angle(-v * np.conj(u))) - math.pi / 2.0
            block = np.array(beamsplitter_block(theta, phi))
            work[:, [a, b]] = work[:, [a, b]] @ block
            # The netlist needs the inverse of the nulling block, which is
            # the same convention with the mixing angle negated.
            splitters.append(BeamSplitter(a, b, -theta, phi))

    shifters = [
        PhaseShifter(port, float(np.angle(work[port, port])))
        for port in range(dimension)
        if np.angle(work[port, port]) != 0.0
    ]
    return Netlist(dimension, tuple(splitters) + tuple(shifters))


def netlist_path_matrix(netlist: Netlist) -> np.ndarray:
    """Path-space matrix replayed from beamsplitters and phase shifters.

    Only path-acting elements are admissible here; OAM-acting elements have
    no path-matrix meaning and raise :class:`DomainError`.
    """
    dimension = netlist.dimension
    matrix = np.eye(dimension, dtype=complex)
    for element in netlist.elements:
        if isinstance(element, BeamSplitter):
            embedded = np.eye(dimension, dtype=complex)
            block = beamsplitter_block(element.theta, element.phi)
            a, b = element.port_a, element.port_b
            embedded[a, a] = block[0][0]
            embedded[a, b] = block[0][1]
            embedded[b, a] = block[1][0]
            embedded[b, b] = block[1][1]
        elif isinstance(element, PhaseShifter):
            embedded = np.eye(dimension, dtype=complex)
            embedded[element.port, element.port] = np.exp(1j * element.phi)
        else:
            raise DomainError(
                f"{type(element).__name__} has no path-only matrix"
            )
        matrix = embedded @ matrix
    return matrix


def path_replay_error(netlist: Netlist, target: np.ndarray) -> float:
    """Max deviation of the replayed path matrix from ``target`` after
    removing one global phase."""
    return global_phase_error(netlist_path_matrix(netlist), target)


def symmetric_netlist(dimension: int) -> Netlist:
    """Triangular netlist of the symmetric multiport, with its transit flip."""
    decomposed = reck_decompose(symmetric_matrix(dimension))
    return replace(decomposed, parity_flip=True)


def dove_stage_elements(
    dimension: int, direction: Direction | str = Direction.FORWARD
) -> tuple[DovePrism, ...]:
    """One prism per port (port 0 included: a zero-angle prism still flips).

    A prism computes ``exp(-i*alpha*l)`` from the unreduced winding, where
    :class:`~oamnet.multiport.DoveStage` reduces ``path * oam`` mod ``D``
    first; the last bits differ, so neither replaces the other.
    """
    sign = 1.0 if Direction.coerce(direction) is Direction.FORWARD else -1.0
    return tuple(
        DovePrism(port, sign * 2.0 * math.pi * port / dimension)
        for port in range(dimension)
    )


def oambs_netlist(dimension: int) -> Netlist:
    """Full forward OAM beamsplitter as a flat netlist.

    Layout: first multiport's triangle, a mirror per port standing in for
    that transit's aggregate winding flip (it must land before the prisms,
    which read the flipped winding), the Dove prism stage, the second
    triangle; the second transit's flip is the netlist-level parity flag.
    """
    triangle = reck_decompose(symmetric_matrix(dimension))
    mirrors = tuple(Mirror(port) for port in range(dimension))
    prisms = dove_stage_elements(dimension, Direction.FORWARD)
    elements = triangle.elements + mirrors + prisms + triangle.elements
    return Netlist(dimension, elements, parity_flip=True)


def _rounds(elements: Sequence[PortElement]) -> list[list[PortElement]]:
    """Elements grouped into rounds: each joins the round after the last
    round holding an earlier element that shares a port with it.  The
    elements of one round act on disjoint paths, so they commute, dict key
    order included."""
    rounds: list[list[PortElement]] = []
    next_round: dict[int, int] = {}
    for element in elements:
        ports = element.ports
        index = max([next_round.get(port, 0) for port in ports])
        if index == len(rounds):
            rounds.append([])
        rounds[index].append(element)
        for port in ports:
            next_round[port] = index + 1
    return rounds


# the exact element types whose port rules the batch reads as tables; a
# netlist holding any other element, subclasses included, is replayed
# photon by photon
_RULED = (PhaseShifter, BeamSplitter, Mirror, DovePrism, Hologram, ReflectiveHologram)


class _PortTables(NamedTuple):
    """Every round's port rules as tables (see :func:`_port_tables`)."""

    start: np.ndarray
    count: np.ndarray
    path: np.ndarray
    re: np.ndarray
    im: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    dove: np.ndarray
    alpha: list[dict[int, float]]
    spread: list[bool]
    moved: list[bool]
    width: int


def _port_tables(rounds: list[list[PortElement]], dimension: int) -> _PortTables:
    """The port rules of each round's elements as tables indexed by round
    and path, with the identity on every path off their ports.

    In round ``r``, path ``p`` has ``count[r, p]`` terms, from ``start[p]``
    on in row ``r`` of ``path``, ``re`` and ``im`` (image path and factor
    parts), ``width`` entries apart, and its image winding is ``sign[r, p] *
    l + shift[r, p]``.  ``dove`` marks the Dove prisms' ports and
    ``alpha[r]`` holds their angles.  ``spread[r]`` tells that some term
    leaves its port or shares it with another term, and ``moved[r]`` that
    some winding changes; a round that is not spread sends distinct labels
    to distinct images on their own paths.
    """
    rules = [
        [
            (port, rule)
            for element in elements
            for port, rule in zip(element.ports, element.port_rules)
        ]
        for elements in rounds
    ]
    width = max(
        (len(rule.terms) for round_rules in rules for _, rule in round_rules),
        default=1,
    )
    cells = len(rounds) * dimension
    count = [1] * cells
    paths = [p for p in range(dimension) for _ in range(width)] * len(rounds)
    factors = [1.0 + 0j] * (cells * width)
    sign = [1] * cells
    shift = [0] * cells
    dove = [False] * cells
    alpha: list[dict[int, float]] = [{} for _ in rounds]
    spread = [False] * len(rounds)
    moved = [False] * len(rounds)
    for r, round_rules in enumerate(rules):
        for port, (terms, s, k, a) in round_rules:
            cell = r * dimension + port
            count[cell], sign[cell], shift[cell] = len(terms), s, k
            at = cell * width
            for image_path, factor in terms:
                paths[at], factors[at] = image_path, factor
                at += 1
            spread[r] = spread[r] or len(terms) > 1 or terms[0][0] != port
            moved[r] = moved[r] or s != 1 or k != 0
            if a is not None:
                dove[cell] = True
                alpha[r][port] = a
    grid = (len(rounds), dimension)
    terms = (len(rounds), dimension * width)
    factor_array = np.array(factors, dtype=np.complex128).reshape(terms)
    return _PortTables(
        np.arange(0, dimension * width, width),
        np.array(count, dtype=np.int64).reshape(grid),
        np.array(paths, dtype=np.int64).reshape(terms),
        factor_array.real,
        factor_array.imag,
        np.array(sign, dtype=np.int64).reshape(grid),
        np.array(shift, dtype=np.int64).reshape(grid),
        np.array(dove, dtype=bool).reshape(grid),
        alpha,
        spread,
        moved,
        width,
    )


def _batch_reach(
    netlist: Netlist, rounds: list[list[PortElement]], inputs: Sequence[ModeLabel]
) -> int | None:
    """The bound on every |winding| of the batched replay, or ``None`` when
    the inputs must be replayed photon by photon.

    The batch needs elements of the six built-in types, input paths in
    ``[0, D)``, and a reach (the inputs' largest |winding| plus each
    round's largest |shift|, in Python ints) within ``LABEL_BOUND``, such
    that the row keys of :func:`_row_keys` over the ``2 * len(inputs)``
    streams fit int64.
    """
    dimension = netlist.dimension
    if not inputs or not all(type(e) in _RULED for e in netlist.elements):
        return None
    if not all(0 <= label.path < dimension for label in inputs):
        return None
    reach = max(abs(label.oam) for label in inputs) + sum(
        max(abs(rule.shift) for element in elements for rule in element.port_rules)
        for elements in rounds
    )
    keys = 2 * len(inputs) * dimension * (2 * reach + 1)
    return reach if reach <= LABEL_BOUND and keys <= 2**63 else None


def _row_keys(
    path: np.ndarray,
    winding: np.ndarray,
    reach: int,
    dimension: int,
    stream: np.ndarray | int = 0,
) -> np.ndarray:
    """One int64 key per row, equal exactly where rows hold the same path,
    winding and stream: paths in ``[0, dimension)`` and windings within
    ``[-reach, reach]`` pack with the stream into one number
    (:func:`_batch_reach` checks that it fits)."""
    return (stream * dimension + path) * (2 * reach + 1) + (winding + reach)


def _dove_phases(
    alpha: dict[int, float],
    dove: np.ndarray,
    path: np.ndarray,
    winding: np.ndarray,
    reach: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows on Dove prism ports (``dove`` marks them by path), and each
    one's prism phase, computed once per distinct (path, winding) by the
    formula of ``DovePrism.mode_images``."""
    at = np.flatnonzero(dove[path])
    path, winding = path[at], winding[at]
    _, first, inverse = np.unique(
        _row_keys(path, winding, reach, len(dove)),
        return_index=True,
        return_inverse=True,
    )
    phases = [
        cmath.exp(-1j * alpha[p] * l)
        for p, l in zip(path[first].tolist(), winding[first].tolist())
    ]
    return at, np.array(phases, dtype=np.complex128)[inverse]


def _replay_columns(
    netlist: Netlist, inputs: Sequence[ModeLabel]
) -> list[list[tuple[ModeLabel, complex]]]:
    """``netlist.mode_images(label)`` for every label of ``inputs`` at once.

    All maps share one row list: row ``r`` is the entry of label
    ``(path[r], winding[r], V if vpol else H)`` in the map of
    ``inputs[photon]``, worth ``re[r] + i*im[r]``, where
    ``stream[r] = 2 * photon + vpol``.  Rows stay grouped by photon and,
    within a photon, in dict order, so order needs no keys.  Each round of
    :func:`_rounds` reads its elements' port rules as path-indexed tables
    (:func:`_port_tables`) and gathers every row's images at once (a label
    off the round's ports is its own image with factor ``1+0j``, as in
    ``PortElement.transit``); only a Dove prism's phase is computed per
    distinct (path, winding), by the formula of its ``mode_images``.  The
    round then multiplies in split form, sums equal (stream, path, winding)
    rows into the first of them and prunes at ``PRUNE_TOL``: the
    ensemble's own fan-out and row merge, which add the terms of
    ``transit``'s dict in its order.

    A netlist that :func:`_batch_reach` rejects (another element type, a
    path outside the netlist, or windings that may pass ``LABEL_BOUND``)
    is replayed photon by photon through ``netlist.mode_images``, whose
    Python ints never wrap.
    """
    rounds = _rounds(netlist.elements)
    reach = _batch_reach(netlist, rounds, inputs)
    if reach is None:
        return [list(netlist.mode_images(label)) for label in inputs]
    dimension = netlist.dimension
    tables = _port_tables(rounds, dimension)
    stream = np.array(
        [2 * photon + (label.pol is V) for photon, label in enumerate(inputs)],
        dtype=np.int64,
    )
    path = np.array([label.path for label in inputs], dtype=np.int64)
    winding = np.array([label.oam for label in inputs], dtype=np.int64)
    re, im = np.ones(len(inputs)), np.zeros(len(inputs))
    for r in range(len(rounds)):
        source = path
        if tables.spread[r]:
            rows, pick = _fan_out(path, tables.start, tables.count[r])
            stream, source, winding = stream[rows], path[rows], winding[rows]
            re, im = re[rows], im[rows]
            path = tables.path[r][pick]
            fr, fi = tables.re[r][pick], tables.im[r][pick]
        else:
            # one term per path, on the path itself
            fr = tables.re[r, :: tables.width][path]
            fi = tables.im[r, :: tables.width][path]
        if tables.alpha[r]:
            at, phase = _dove_phases(
                tables.alpha[r], tables.dove[r], source, winding, reach
            )
            fr[at], fi[at] = phase.real, phase.imag
        if tables.moved[r]:
            winding = tables.sign[r][source] * winding + tables.shift[r][source]
        re, im = re * fr - im * fi, re * fi + im * fr
        if tables.spread[r]:
            key = _row_keys(path, winding, reach, dimension, stream)
            first, re, im = _sum_equal_rows(key, re, im)
            keep = np.hypot(re, im) > PRUNE_TOL
            first = first[keep]
        else:
            # distinct labels keep distinct images, so each sum is 0.0 + x
            re, im = 0.0 + re, 0.0 + im
            keep = np.hypot(re, im) > PRUNE_TOL
            first = np.flatnonzero(keep)
        stream, path, winding = stream[first], path[first], winding[first]
        re, im = re[keep], im[keep]

    sign = -1 if netlist.parity_flip else 1
    pols = (H, V)
    values = map(complex, re.tolist(), im.tolist())
    replayed: list[list[tuple[ModeLabel, complex]]] = [[] for _ in inputs]
    for s, n, l, value in zip(stream.tolist(), path.tolist(), winding.tolist(), values):
        replayed[s >> 1].append((ModeLabel(n, sign * l, pols[s & 1]), value))
    return replayed


def oambs_netlist_error(netlist: Netlist) -> float:
    """Max deviation of the replayed netlist from the closed-form routing map
    over all basis inputs, after removing one shared global phase; the
    residual is the root of the norm left off the expected label.

    All ``D**2`` basis photons cross the netlist together as one row list
    in :func:`_replay_columns`, whose images equal ``netlist.mode_images``
    bit for bit and in key order, whatever the number of terms summed into
    an image.  Each input's :class:`PhotonState` is then
    built in walk order, so pruning, the window and norm checks, the sums
    of squares and the first error raised are those of replaying one photon
    at a time with :func:`netlist_apply`.
    """
    dimension = netlist.dimension
    space = ModeSpace(dimension)
    basis = [
        ModeLabel(path, oam) for path in range(dimension) for oam in range(dimension)
    ]
    replayed = dict(zip(basis, _replay_columns(netlist, basis)))

    def deviation(label: ModeLabel, expected: ModeLabel) -> tuple[complex, float]:
        routed = PhotonState(space, dict(replayed[label]))
        amp = routed.amplitude(expected)
        leftover = (
            sum(abs(a) ** 2 for a in routed.amplitudes.values()) - abs(amp) ** 2
        )
        return amp, math.sqrt(max(0.0, leftover))

    return closed_form_error(netlist.dimension, Direction.FORWARD, deviation)


def random_unitary(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a complex
    Gaussian matrix, with the phase ambiguity of R's diagonal removed."""
    gaussian = rng.standard_normal((dimension, dimension))
    gaussian = gaussian + 1j * rng.standard_normal((dimension, dimension))
    q, r = np.linalg.qr(gaussian)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


__all__ = [
    "Netlist",
    "dove_stage_elements",
    "netlist_apply",
    "netlist_path_matrix",
    "oambs_netlist",
    "oambs_netlist_error",
    "path_replay_error",
    "random_unitary",
    "reck_decompose",
    "symmetric_netlist",
]
