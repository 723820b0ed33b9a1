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
port(s), and all of them ignore polarization.  Each states its action once,
as one :class:`PortRule` per port (``port_rules``): the image paths with
their constant factors, in image order, and the image winding
``sign * l + shift``; the Dove prism's factor is instead its winding phase
``exp(-i*alpha*l)``.  The elements share the base :class:`PortElement`,
whose ``mode_images`` is derived from the rules and whose ``reversed()``
gives the element as a photon crossing it right to left sees it (holograms
have no such convention and raise :class:`DomainError`).
Rules are built from the element's fields on first use and kept, so
constructing an element costs no more than its fields.  The netlist
certification of :mod:`oamnet.netlist` reads the rules of a whole round of
elements as path-indexed tables.  Elements act on states through
:func:`~oamnet.states.apply_mode_map`; their ports are checked
(``check_ports``) where they join a netlist or a device.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union

from .errors import DomainError
from .states import ModeLabel


class Direction(Enum):
    """Transit direction through an element or device."""

    FORWARD = "forward"
    REVERSE = "reverse"

    @classmethod
    def coerce(cls, value: "Direction | str") -> "Direction":
        """``value`` as a direction; :class:`DomainError` for anything
        other than a direction or its name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise DomainError(f"not a direction: {value!r}") from None


def beamsplitter_block(theta: float, phi: float) -> list[list[complex]]:
    """2x2 mixing matrix for the beamsplitter convention above."""
    cos_t = complex(math.cos(theta))
    sin_t = math.sin(theta)
    return [
        [cos_t, 1j * cmath.exp(1j * phi) * sin_t],
        [1j * cmath.exp(-1j * phi) * sin_t, cos_t],
    ]


class PortRule(NamedTuple):
    """What an element does to a label ``(port, l, pol)`` on one of its ports.

    The label goes to ``(path, sign * l + shift, pol)`` with ``factor`` for
    each ``(path, factor)`` of ``terms``, in that order.  A Dove prism sets
    ``alpha``: its one term's factor is then ``exp(-i*alpha*l)`` of the
    arriving winding ``l``.
    """

    terms: tuple[tuple[int, complex], ...]
    sign: int = 1
    shift: int = 0
    alpha: float | None = None


class PortElement:
    """Base of the elements: acts on the paths in ``ports``, passes the rest.

    A label off the element's ports is its own image with factor ``1+0j``.
    The built-in elements give one :class:`PortRule` per port in
    ``port_rules``, and ``mode_images`` reads them; images keep factors at
    or below ``PRUNE_TOL``, which :func:`~oamnet.states.compose_images`
    prunes after summing.  An element without rules overrides
    ``mode_images``.
    """

    @property
    def ports(self) -> tuple[int, ...]:
        return (self.port,)

    @property
    def port_rules(self) -> tuple[PortRule, ...]:
        """One rule per port, in ``ports`` order: ``_rules()``, built on
        first use and kept in the instance dict, as ``cached_property``
        does, for less per-element overhead."""
        rules = self.__dict__.get("_port_rules")
        if rules is None:
            rules = self.__dict__["_port_rules"] = self._rules()
        return rules

    def _rules(self) -> tuple[PortRule, ...]:
        raise NotImplementedError(f"{type(self).__name__} states no port rules")

    def mode_images(self, label: ModeLabel):
        ports = self.ports
        if label.path not in ports:
            return ((label, 1.0 + 0j),)
        terms, sign, shift, alpha = self.port_rules[ports.index(label.path)]
        oam = sign * label.oam + shift
        if alpha is not None:
            phase = cmath.exp(-1j * alpha * label.oam)
            return ((ModeLabel(terms[0][0], oam, label.pol), phase),)
        return tuple(
            (ModeLabel(path, oam, label.pol), factor) for path, factor in terms
        )

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

    def _rules(self) -> tuple[PortRule, ...]:
        return (PortRule(((self.port, cmath.exp(1j * self.phi)),)),)

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

    def _rules(self) -> tuple[PortRule, ...]:
        (aa, ab), (ba, bb) = self._block
        return (
            PortRule(((self.port_a, aa), (self.port_b, ba))),
            PortRule(((self.port_a, ab), (self.port_b, bb))),
        )

    def reversed(self) -> "BeamSplitter":
        return BeamSplitter(self.port_a, self.port_b, self.theta, -self.phi)


@dataclass(frozen=True)
class Mirror(PortElement):
    port: int

    def _rules(self) -> tuple[PortRule, ...]:
        return (PortRule(((self.port, 1.0 + 0j),), -1),)

    def reversed(self) -> "Mirror":
        return self


@dataclass(frozen=True)
class DovePrism(PortElement):
    port: int
    alpha: float

    def _rules(self) -> tuple[PortRule, ...]:
        return (PortRule(((self.port, 1.0 + 0j),), -1, 0, self.alpha),)

    def reversed(self) -> "DovePrism":
        return DovePrism(self.port, -self.alpha)


@dataclass(frozen=True)
class Hologram(PortElement):
    port: int
    k: int

    def _rules(self) -> tuple[PortRule, ...]:
        return (PortRule(((self.port, 1.0 + 0j),), 1, self.k),)


@dataclass(frozen=True)
class ReflectiveHologram(PortElement):
    """Mirror-backed hologram: ``|l> -> |-l-k>`` on its port.

    The photon leaves against its arrival direction; pipelines that use one
    must send the state back through the preceding optics in reverse.
    """

    port: int
    k: int

    def _rules(self) -> tuple[PortRule, ...]:
        return (PortRule(((self.port, 1.0 + 0j),), -1, -self.k),)


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
    "PortRule",
    "ReflectiveHologram",
    "beamsplitter_block",
]
