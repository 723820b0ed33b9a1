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
pair of float64 columns per photon, one row per label, and one numpy round
per group of elements on disjoint ports (the 88 elements of the D=8 OAM
beamsplitter make 30 rounds).  The rounds repeat ``PortElement.transit``'s
arithmetic in split form and keep each photon's dict order as sortable
keys, so every photon's images equal ``Netlist.mode_images`` bit for bit
and in key order.  ``netlist_apply``, ``Netlist.mode_images`` and
``compose_images`` remain the path for single states and the reference
the tests compare the batch against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

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
    beamsplitter_block,
)
from .errors import DecompositionError, DomainError
from .multiport import closed_form_error, global_phase_error, symmetric_matrix
from .states import (
    PRUNE_TOL,
    EnsembleState,
    ModeLabel,
    ModeSpace,
    PhotonState,
    apply_mode_map,
    compose_images,
)

# Entries below this are treated as already-nulled during elimination.
_NULL_TOL = 1e-14

# Below this step the batched replay re-ranks its dict-order keys, which
# keeps every key a dyadic rational that float64 holds exactly.
_MIN_KEY_STEP = 2.0 ** -20


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
        index = max(next_round.get(port, 0) for port in element.ports)
        if index == len(rounds):
            rounds.append([])
        rounds[index].append(element)
        for port in element.ports:
            next_round[port] = index + 1
    return rounds


def _replay_columns(
    netlist: Netlist, inputs: Sequence[ModeLabel]
) -> list[list[tuple[ModeLabel, complex]]]:
    """``netlist.mode_images(label)`` for every label of ``inputs`` at once.

    Column ``c`` of the float64 arrays ``re`` and ``im`` holds the map of
    ``inputs[c]``, one row per label met so far; an entry off the map is
    exactly zero, and row 0 is zero throughout.  Each round of
    :func:`_rounds` calls ``mode_images`` once per occupied row on its ports
    and rewrites only those rows.  An image may have at most two terms, as
    it has for every element type: ``0.0 + t1 + t2`` is then the same sum
    in either order, down to the sign of a zero, and a term from an entry
    off the map is a zero that changes nothing, so the columns need no
    order of their own.  Products are split-form, as in Python's complex
    multiply.  ``keys`` holds each column's dict order: an image takes the
    key of its first source present in the column, plus ``pos * step`` for
    the ``pos``-th image of that source.  ``step`` halves in each round
    where a source has two images; keys stay dyadic, so exact, and are
    re-ranked before the step gets small.
    """
    count = len(inputs)
    labels: list[ModeLabel | None] = [None]
    rows: dict[ModeLabel, int] = {}
    on_path: dict[int, list[int]] = {}

    def row_of(label: ModeLabel) -> int:
        row = rows.get(label)
        if row is None:
            row = rows[label] = len(labels)
            labels.append(label)
            on_path.setdefault(label.path, []).append(row)
        return row

    starts = [row_of(label) for label in inputs]
    re, im, keys = (np.zeros((2 * len(labels), count)) for _ in range(3))
    re[starts, np.arange(count)] = 1.0
    step = 1.0
    no_term = (0, 0j, 0)  # row 0 stays zero, so this term adds a zero
    for elements in _rounds(netlist.elements):
        used = len(labels)
        present = (re[:used] != 0.0) | (im[:used] != 0.0)
        occupied = present.any(axis=1).tolist()
        sources: list[int] = []
        terms: dict[ModeLabel, list[tuple[int, complex, int]]] = {}
        for element in elements:
            for port in element.ports:
                for row in on_path.get(port, ()):
                    if occupied[row]:
                        sources.append(row)
                        images = element.mode_images(labels[row])
                        for pos, (image, factor) in enumerate(images):
                            terms.setdefault(image, []).append((row, factor, pos))
        if not sources:
            continue
        if step < _MIN_KEY_STEP:
            # each column's present keys become their ranks 0, 1, 2, ...
            order = np.argsort(np.where(present, keys[:used], np.inf), axis=0)
            keys[:used] = np.argsort(order, axis=0)
            step = 1.0
        targets, first, second = [], [], []
        for image, found in terms.items():
            if len(found) > 2:
                raise DomainError(
                    f"{len(found)} terms sum into {image}; the batched "
                    "replay takes at most 2"
                )
            targets.append(row_of(image))
            first.append(found[0])
            second.append(found[1] if len(found) == 2 else no_term)
        if len(labels) > len(re):
            grow = np.zeros((len(labels), count))
            re, im, keys = (np.concatenate([array, grow]) for array in (re, im, keys))
        a, a_factor, a_pos = (np.array(column) for column in zip(*first))
        b, b_factor, b_pos = (np.array(column) for column in zip(*second))
        re_a, im_a, re_b, im_b = re[a], im[a], re[b], im[b]
        ar, ai = a_factor.real[:, None], a_factor.imag[:, None]
        br, bi = b_factor.real[:, None], b_factor.imag[:, None]
        sum_re = 0.0 + (re_a * ar - im_a * ai) + (re_b * br - im_b * bi)
        sum_im = 0.0 + (re_a * ai + im_a * ar) + (re_b * bi + im_b * br)
        keep = np.hypot(sum_re, sum_im) > PRUNE_TOL
        # a source's images must all fit below the next key of its column
        step /= 1 << int(max(a_pos.max(), b_pos.max())).bit_length()
        from_a = ((re_a != 0.0) | (im_a != 0.0)) & ~(
            ((re_b != 0.0) | (im_b != 0.0)) & (keys[b] < keys[a])
        )
        key_a = keys[a] + a_pos[:, None] * step
        key_b = keys[b] + b_pos[:, None] * step
        re[sources] = 0.0
        im[sources] = 0.0
        re[targets] = np.where(keep, sum_re, 0.0)
        im[targets] = np.where(keep, sum_im, 0.0)
        keys[targets] = np.where(from_a, key_a, key_b)

    used = len(labels)
    row_ix, col_ix = np.nonzero((re[:used] != 0.0) | (im[:used] != 0.0))
    order = np.lexsort((keys[row_ix, col_ix], col_ix))
    row_ix, col_ix = row_ix[order], col_ix[order]
    values = map(complex, re[row_ix, col_ix].tolist(), im[row_ix, col_ix].tolist())
    replayed: list[list[tuple[ModeLabel, complex]]] = [[] for _ in inputs]
    for row, column, value in zip(row_ix.tolist(), col_ix.tolist(), values):
        label = labels[row]
        if netlist.parity_flip:
            label = ModeLabel(label.path, -label.oam, label.pol)
        replayed[column].append((label, value))
    return replayed


def oambs_netlist_error(netlist: Netlist) -> float:
    """Max deviation of the replayed netlist from the closed-form routing map
    over all basis inputs, after removing one shared global phase; the
    residual is the root of the norm left off the expected label.

    All ``D**2`` basis photons cross the netlist together in
    :func:`_replay_columns`, whose images equal ``netlist.mode_images`` bit
    for bit and in key order.  Each input's :class:`PhotonState` is then
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
