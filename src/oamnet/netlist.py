"""Netlists: flat element lists that realize path unitaries and OAM devices.

``reck_decompose`` synthesizes any path unitary from beamsplitters on
adjacent port pairs arranged in a triangle, plus trailing phase shifters.
Rows are eliminated top to bottom and, within a row, right to left; this
fixed order makes netlists reproducible byte for byte.

A netlist may also declare a ``parity_flip``: one aggregate winding sign
flip applied after its elements, standing in for the odd number of internal
reflections a photon suffers while crossing a synthesized multiport.
"""

from __future__ import annotations

import math
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
    EnsembleState,
    ModeLabel,
    ModeSpace,
    PhotonState,
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


def oambs_netlist_error(netlist: Netlist) -> float:
    """Max deviation of the replayed netlist from the closed-form routing map
    over all basis inputs, after removing one shared global phase; the
    residual is the root of the norm left off the expected label."""
    space = ModeSpace(netlist.dimension)

    def deviation(label: ModeLabel, expected: ModeLabel) -> tuple[complex, float]:
        routed = netlist_apply(netlist, PhotonState(space, {label: 1.0}))
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
