"""Elementary linear-optical elements acting on path/OAM/polarization labels.

Conventions used throughout the package:

* A mirror flips the winding number with unit phase; any fixed reflection
  phase would be unobservable at the device level, where everything is
  compared up to a global phase.
* A Dove prism physically rotated by ``alpha/2`` maps ``|l>`` to
  ``exp(-i*alpha*l)|-l>``; traversed against the reference direction the
  rotation angle is seen negated, conjugating the phase.
* A transmissive hologram with shift ``k`` maps ``|l>`` to ``|l+k>``; its
  reflective counterpart maps ``|l>`` to ``|-l-k>`` and turns the photon
  around (callers model the return trip explicitly).
* Beamsplitters mix two paths by ``[[cos t, i e^{i p} sin t],
  [i e^{-i p} sin t, cos t]]`` and, like phase shifters, never touch the
  winding number: the sign flips photons pick up inside a multiport are
  accounted for once per transit at the composite level.

Every element acts as the identity on modes whose path differs from its
port(s), and all of them ignore polarization.  They share the base
:class:`PortElement`, a :class:`~oamnet.states.WholeMapOperator` whose
``transit`` passes labels off the ports straight through and calls the
element's ``mode_images`` only for labels on a port, and whose
``reversed()`` gives the element as a photon crossing it right to left sees
it (holograms have no such convention and raise :class:`DomainError`).
Elements act on states through :func:`~oamnet.states.apply_mode_map`; their
ports are checked (``check_ports``) where they join a netlist or a device.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import DomainError
from .states import PRUNE_TOL, ModeLabel, WholeMapOperator


class Direction(Enum):
    """Transit direction through an element or device."""

    FORWARD = "forward"
    REVERSE = "reverse"

    @classmethod
    def coerce(cls, value: "Direction | str") -> "Direction":
        return value if isinstance(value, cls) else cls(value)


def beamsplitter_block(theta: float, phi: float) -> list[list[complex]]:
    """2x2 mixing matrix for the beamsplitter convention above."""
    cos_t = complex(math.cos(theta))
    sin_t = math.sin(theta)
    return [
        [cos_t, 1j * cmath.exp(1j * phi) * sin_t],
        [1j * cmath.exp(-1j * phi) * sin_t, cos_t],
    ]


class PortElement(WholeMapOperator):
    """Base of the elements: acts on the paths in ``ports``, passes the rest.

    ``transit`` passes a label off the element's ports through as
    ``0j + amp * (1+0j)``, keeping its key position, and calls the element's
    own ``mode_images`` only for a label on a port; those images must stay
    on the ports.  Sums and pruning follow the label-wise loop of
    :func:`~oamnet.states.compose_images`, so results agree bit for bit.
    Each element's formula lives only in its ``mode_images``, which keeps
    factors at or below ``PRUNE_TOL`` that ``transit`` prunes.
    """

    @property
    def ports(self) -> tuple[int, ...]:
        return (self.port,)

    def transit(self, amplitudes):
        ports = self.ports
        mode_images = self.mode_images
        out: dict[ModeLabel, complex] = {}
        images: list[ModeLabel] = []
        for label, amp in amplitudes.items():
            if label.path in ports:
                for image, factor in mode_images(label):
                    out[image] = out.get(image, 0j) + amp * factor
                    images.append(image)
            else:
                # a label passed through is final at once: the images of
                # port labels stay on the ports and never add to it
                total = 0j + amp * (1.0 + 0j)
                if abs(total) > PRUNE_TOL:
                    out[label] = total
        for image in images:
            if image in out and abs(out[image]) <= PRUNE_TOL:
                del out[image]
        return out

    def check_ports(self, dimension: int) -> None:
        """Raise :class:`DomainError` for a port outside ``[0, dimension-1]``."""
        for port in self.ports:
            if not 0 <= port < dimension:
                raise DomainError(
                    f"{type(self).__name__} port {port} outside "
                    f"[0, {dimension - 1}]"
                )

    def reversed(self) -> "PortElement":
        """The element as seen by a photon traversing it right to left."""
        raise DomainError(
            f"no reverse-transit convention for {type(self).__name__}"
        )


@dataclass(frozen=True)
class PhaseShifter(PortElement):
    port: int
    phi: float

    def mode_images(self, label: ModeLabel):
        if label.path != self.port:
            return ((label, 1.0 + 0j),)
        return ((label, cmath.exp(1j * self.phi)),)

    def reversed(self) -> "PhaseShifter":
        return self


@dataclass(frozen=True)
class BeamSplitter(PortElement):
    port_a: int
    port_b: int
    theta: float
    phi: float = 0.0
    _block: list[list[complex]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.port_a == self.port_b:
            raise DomainError(f"beamsplitter ports must differ, got {self.port_a}")
        object.__setattr__(self, "_block", beamsplitter_block(self.theta, self.phi))

    @property
    def ports(self) -> tuple[int, ...]:
        return (self.port_a, self.port_b)

    def mode_images(self, label: ModeLabel):
        if label.path == self.port_a:
            column = 0
        elif label.path == self.port_b:
            column = 1
        else:
            return ((label, 1.0 + 0j),)
        block = self._block
        return (
            (ModeLabel(self.port_a, label.oam, label.pol), block[0][column]),
            (ModeLabel(self.port_b, label.oam, label.pol), block[1][column]),
        )

    def reversed(self) -> "BeamSplitter":
        return BeamSplitter(self.port_a, self.port_b, self.theta, -self.phi)


@dataclass(frozen=True)
class Mirror(PortElement):
    port: int

    def mode_images(self, label: ModeLabel):
        if label.path != self.port:
            return ((label, 1.0 + 0j),)
        return ((ModeLabel(label.path, -label.oam, label.pol), 1.0 + 0j),)

    def reversed(self) -> "Mirror":
        return self


@dataclass(frozen=True)
class DovePrism(PortElement):
    port: int
    alpha: float

    def mode_images(self, label: ModeLabel):
        if label.path != self.port:
            return ((label, 1.0 + 0j),)
        phase = cmath.exp(-1j * self.alpha * label.oam)
        return ((ModeLabel(label.path, -label.oam, label.pol), phase),)

    def reversed(self) -> "DovePrism":
        return DovePrism(self.port, -self.alpha)


@dataclass(frozen=True)
class Hologram(PortElement):
    port: int
    k: int

    def mode_images(self, label: ModeLabel):
        if label.path != self.port:
            return ((label, 1.0 + 0j),)
        return ((ModeLabel(label.path, label.oam + self.k, label.pol), 1.0 + 0j),)


@dataclass(frozen=True)
class ReflectiveHologram(PortElement):
    """Mirror-backed hologram: ``|l> -> |-l-k>`` on its port.

    The photon leaves against its arrival direction; pipelines that use one
    must send the state back through the preceding optics in reverse.
    """

    port: int
    k: int

    def mode_images(self, label: ModeLabel):
        if label.path != self.port:
            return ((label, 1.0 + 0j),)
        return ((ModeLabel(label.path, -label.oam - self.k, label.pol), 1.0 + 0j),)


Element = Union[
    PhaseShifter, BeamSplitter, Mirror, DovePrism, Hologram, ReflectiveHologram
]


__all__ = [
    "BeamSplitter",
    "Direction",
    "DovePrism",
    "Element",
    "Hologram",
    "Mirror",
    "PhaseShifter",
    "PortElement",
    "ReflectiveHologram",
    "beamsplitter_block",
]
