"""Network applications: OAM multiplexing and two self-routing topologies.

All three builders ride on the winding-routed beamsplitter from
:mod:`oamnet.multiport`:

* ``MuxNetwork`` merges ``D`` spatial channels into path 0 by tagging each
  photon with its sender's winding number, and splits them back apart with
  the reverse device.
* ``SimpleRoutingNetwork`` connects a left and a right user group through
  one device; the sender picks the winding number that lands on the desired
  output port, in either direction.
* ``StarNetwork`` adds a reflective hologram at every output port so any
  user can reach any other through a single central node: the photon crosses
  forward, bounces off the landing port's reflector, and returns through the
  reverse transit to the path equal to its injected winding number.

Winding bookkeeping: a photon delivered by the star carries the sender's
index modulo the path count (the "sender tag").  The physical winding is a
true integer, so it equals the sender index itself only when no modular
reduction happened along the way; reports therefore carry both the exact
delivered winding and its tag.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Number

import numpy as np

from .elements import Direction
from .errors import (
    BunchingError,
    DomainError,
    RoutingDomainError,
)
from .multiport import (
    CompositeDevice,
    device_matrix,  # kept as a binding: bench/tracing.py wraps it
    is_generalized_permutation,  # kept as a binding: bench/tracing.py wraps it
    oambs,
    sbmao,
)
from .states import (
    LABEL_BOUND,
    NORM_TOL,
    PRUNE_TOL,
    EnsembleState,
    H,
    ModeLabel,
    ModeSpace,
    PhotonState,
    QubitSpec,
    V,
    _Images,
    _LabelColumns,
    _apply_ensemble,
    _label_images,
    _overlap_fidelities,
    _require_unit_moduli,
    _require_unit_norm,
    apply_mode_map,
    fidelity,  # kept as a binding: bench/tracing.py wraps networks.fidelity
    make_qubit_photon,
    tensor,
)

REPORT_DIMENSION_MAX = 8


def sender_tag(oam: int, dimension: int) -> int:
    """Sender index encoded in a delivered winding number (mod path count)."""
    return oam % dimension


@dataclass(frozen=True)
class HologramBank:
    """Independent OAM shift per port: ``|l> -> |l+k_p>`` on port ``p``.

    A bank, not a chain of :class:`~oamnet.elements.Hologram` elements:
    the images are equal, but one lookup per label costs about a tenth of
    crossing ``D`` single-port elements at D=24.
    """

    shifts: tuple[int, ...]

    _sign = 1

    @property
    def dimension(self) -> int:
        return len(self.shifts)

    def mode_images(self, label: ModeLabel):
        if not 0 <= label.path < len(self.shifts):
            raise DomainError(
                f"path {label.path} outside bank of {len(self.shifts)} ports"
            )
        oam = self._sign * (label.oam + self.shifts[label.path])
        return ((ModeLabel(label.path, oam, label.pol), 1.0 + 0j),)

    def label_images(self, path: np.ndarray, winding: np.ndarray):
        """``mode_images`` of every label at once (see
        :class:`~oamnet.states.ModeOperator`); ``None`` for a path outside
        the bank or a shift past half the label bound, which could carry a
        winding within the bound out of int64."""
        shifts = self.shifts
        if int(path.max()) >= len(shifts) or max(map(abs, shifts)) > LABEL_BOUND // 2:
            return None
        shifted = winding + np.array(shifts, dtype=np.int64)[path]
        return path, shifted if self._sign == 1 else -shifted, None, None


@dataclass(frozen=True)
class ReflectorBank(HologramBank):
    """Reflective hologram per port: ``|l> -> |-l-k_p>`` on port ``p``.

    A bank for the cost reason given in :class:`HologramBank`.
    """

    _sign = -1


def _device_apply(
    state: PhotonState | EnsembleState, device: CompositeDevice
) -> PhotonState | EnsembleState:
    """``device`` applied to ``state``; an ensemble crosses slot-wise (see
    :func:`_crossing_images`)."""
    if not isinstance(state, EnsembleState):
        return apply_mode_map(state, device)
    return _apply_ensemble(state, _crossing_images(state, device))


def _crossing_images(state: EnsembleState, device) -> _Images:
    """The images of ``state``'s labels under ``device`` for a slot-wise
    crossing, which is exact only while each occupied label has one image
    and distinct labels have distinct images: after any error its images
    record, a crossing that is not one to one raises
    :class:`BunchingError`."""
    images = _label_images(device, state.amplitudes, state.space)
    if images.count is None and images.distinct:
        return images
    if images.failures:
        _apply_ensemble(state, images)  # raises the error the expansion meets
    raise BunchingError(
        "device does not map the occupied labels one to one; "
        "ensembles cannot cross it slot-wise"
    )


def _slot_row(space: ModeSpace, labels: _LabelColumns) -> EnsembleState:
    """The ensemble of one row holding label ``n`` in slot ``n``."""
    slots = len(labels.path)
    return EnsembleState._from_columns(
        space, slots, labels, np.arange(slots)[None], np.ones(1), np.zeros(1), 1.0
    )


def _cross_slots(
    row: EnsembleState,
    devices: Sequence[CompositeDevice | HologramBank],
    re: np.ndarray,
    im: np.ndarray,
) -> tuple[EnsembleState, np.ndarray, np.ndarray]:
    """``row`` (see :func:`_slot_row`) across ``devices`` slot-wise, as an
    ensemble crosses them, with the qubit parts ``re`` and ``im`` (rounds,
    slots, H and V) times each slot's factors in split form."""
    for device in devices:
        images = _crossing_images(row, device)
        labels = images.labels
        if images.target is not None:
            labels = _LabelColumns(*(part[images.target] for part in labels))
        if images.re is not None:
            fr, fi = images.re[:, None], images.im[:, None]
            re, im = re * fr - im * fi, re * fi + im * fr
        row = _slot_row(row.space, labels)
    return row, re, im


def _slot_overlaps(
    re: np.ndarray, im: np.ndarray, qubits: np.ndarray, matched: bool
) -> list[complex]:
    """Each round's ``<a|b>`` of the product with parts ``re`` and ``im``
    and the product of ``qubits``, or 0 unless their labels ``matched``."""
    if not matched:
        return [0j] * len(qubits)
    br, bi = qubits.real, qubits.imag
    # conj(a) * b in split form, as states' overlap forms it
    parts_re, parts_im = re * br + im * bi, re * bi - im * br
    slots = np.empty(qubits.shape[:-1], dtype=complex)
    slots.real = parts_re[..., 0] + parts_re[..., 1]
    slots.imag = parts_im[..., 0] + parts_im[..., 1]
    return list(map(math.prod, slots.tolist()))


def _require_ensemble(state: EnsembleState) -> None:
    if not isinstance(state, EnsembleState):
        raise DomainError(f"not an ensemble: {type(state).__name__}")


def _require_qubits(qubits: Sequence[QubitSpec]) -> None:
    if not isinstance(qubits, Sequence):
        raise DomainError(f"not a sequence of QubitSpecs: {type(qubits).__name__}")


def _check_index(value: int, dimension: int, name: str) -> None:
    if not 0 <= value < dimension:
        raise DomainError(f"{name} {value} outside [0, {dimension - 1}]")


@dataclass(frozen=True)
class MuxNetwork:
    """D-into-1 multiplexer and its demultiplexer.

    Port ``n`` carries a ``-n`` hologram in front of the forward device, so
    user ``n``'s photon reaches path 0 wearing winding ``n`` as its channel
    tag; the reverse device undoes the merge, and an optional ``+n`` bank
    restores every winding to 0.
    """

    dimension: int
    oam_window: int | None = None

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.dimension, self.oam_window)

    @property
    def input_holograms(self) -> HologramBank:
        return HologramBank(tuple(-n for n in range(self.dimension)))

    @property
    def core(self) -> CompositeDevice:
        return oambs(self.dimension)

    @property
    def demux_core(self) -> CompositeDevice:
        return sbmao(self.dimension)

    @property
    def output_holograms(self) -> HologramBank:
        return HologramBank(tuple(range(self.dimension)))

    def transmit(self, qubits: Sequence[QubitSpec]) -> EnsembleState:
        """Merge one photon per user onto path 0.

        Expects a sequence of exactly ``dimension`` qubit specs; user ``n``
        injects on path ``n`` with winding 0.  The first entry that is not
        a :class:`QubitSpec` raises :class:`DomainError` from
        ``make_qubit_photon``, since the photons before it cannot fail.
        """
        _require_qubits(qubits)
        if len(qubits) != self.dimension:
            raise DomainError(
                f"expected {self.dimension} qubits, got {len(qubits)}"
            )
        space = self.space
        photons = [
            make_qubit_photon(spec, path, 0, space)
            for path, spec in enumerate(qubits)
        ]
        return self.merge(tensor(photons))

    def merge(self, product: EnsembleState) -> EnsembleState:
        """The optics of :meth:`transmit` acting on a product state already
        built, slot ``n`` holding user ``n``'s photon on path ``n``."""
        _require_ensemble(product)
        if product.space.dimension != self.dimension:
            raise DomainError(
                f"state spans {product.space.dimension} paths, "
                f"mux has {self.dimension}"
            )
        merged = apply_mode_map(product, self.input_holograms)
        return _device_apply(merged, self.core)

    def receive(
        self,
        multiplexed: EnsembleState,
        restore_oam: bool = False,
    ) -> EnsembleState:
        """Split a multiplexed ensemble back onto its tagged paths.

        Photons must arrive on path 0 with windings in ``0..dimension-1``;
        anything else is not a merge product and is rejected.
        """
        _require_ensemble(multiplexed)
        if multiplexed.space.dimension != self.dimension:
            raise DomainError(
                f"state spans {multiplexed.space.dimension} paths, "
                f"demux has {self.dimension}"
            )
        self._require_tagged(multiplexed)
        separated = _device_apply(multiplexed, self.demux_core)
        if restore_oam:
            separated = apply_mode_map(separated, self.output_holograms)
        return separated

    def _round_fidelities(self, qubits: np.ndarray) -> list[tuple[float, float]]:
        """The transmit and round-trip fidelities of the rounds of ``qubits``
        (round ``k``'s (alpha, beta) for user ``n`` at ``qubits[k, n]``),
        slot by slot through the optics of :meth:`merge` and of
        :meth:`receive` with ``restore_oam``.

        While every crossing maps labels one to one, a product state stays a
        product (see :mod:`oamnet.states`), and its overlaps are products of
        slot overlaps.  User ``n``'s ``(n, 0, H)`` and ``(n, 0, V)`` share
        every image and factor, so the slots cross each device as the one
        row of an ensemble (:func:`_cross_slots`): row 0 of the rounds'
        product states, each slot's H label or, where every round prunes
        alpha, its V label.  Qubit parts take their slot's factors, and
        slot overlaps (``conj(a) * b`` over H then V) multiply from left to
        right, all in split form, so no value depends on the BLAS kernel.

        Each qubit first takes the ensemble norm check, as those product
        states do; then errors come as their round trip raises them:
        :meth:`merge`'s window refusal at the input holograms or the core
        (which covers the tags ``(0, n)``, of the holograms' ``|n|``), the
        demux path and winding check, and a :class:`BunchingError` for a
        crossing that is not one to one.
        """
        users = np.arange(self.dimension)
        # one norm column per qubit: a product of unit qubits has unit norm
        _require_unit_moduli(np.hypot(qubits.real, qubits.imag).transpose(2, 0, 1))
        alpha = qubits[..., 0]
        vpol = ~(np.hypot(alpha.real, alpha.imag) > PRUNE_TOL).any(axis=0)
        origin = _LabelColumns(users, np.zeros(self.dimension, dtype=np.int64), vpol)
        start = _slot_row(self.space, origin)
        sent, re, im = _cross_slots(
            start, (self.input_holograms, self.core), qubits.real, qubits.imag
        )
        columns = sent.amplitudes
        tagged = not columns.path.any() and (columns.winding == users).all()
        transmit = _overlap_fidelities(_slot_overlaps(re, im, qubits, tagged))
        self._require_tagged(sent)
        received, re, im = _cross_slots(
            sent, (self.demux_core, self.output_holograms), re, im
        )
        columns = received.amplitudes
        restored = (columns.path == users).all() and not columns.winding.any()
        roundtrip = _overlap_fidelities(_slot_overlaps(re, im, qubits, restored))
        return list(zip(transmit, roundtrip))

    def _require_tagged(self, multiplexed: EnsembleState) -> None:
        """Raise :class:`RoutingDomainError` for the first label, in tuple
        order, that is off path 0 or has a winding outside ``[0, D)``."""
        # the label columns hold exactly the occupied labels; only a failing
        # check walks them in tuple order to name the first offender
        columns = multiplexed.amplitudes
        if (
            columns.path.any()
            or int(columns.winding.min()) < 0
            or int(columns.winding.max()) >= self.dimension
        ):
            for label in multiplexed.occupied_labels():
                if label.path != 0 or not 0 <= label.oam < self.dimension:
                    raise RoutingDomainError(
                        f"demux input must sit on path 0 with winding in "
                        f"[0, {self.dimension - 1}]; got {label}"
                    )


@dataclass(frozen=True)
class SimpleRoutingNetwork:
    """Two user groups facing one winding-routed device.

    The forward side injects on the left; the reverse side rides the same
    optics right to left and therefore sees the inverse transit.
    """

    dimension: int
    side: Direction = Direction.FORWARD
    oam_window: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", Direction.coerce(self.side))

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.dimension, self.oam_window)

    @property
    def core(self) -> CompositeDevice:
        return oambs(self.dimension)

    @property
    def transit(self) -> CompositeDevice:
        if self.side is Direction.FORWARD:
            return self.core
        return sbmao(self.dimension)

    def choose_winding(self, sender: int, destination: int) -> int:
        return choose_winding_simple(
            sender, destination, self.dimension, self.side
        )

    def send(
        self, sender: int, winding: int, payload: QubitSpec = QubitSpec(1, 0)
    ) -> PhotonState:
        """Inject ``|winding>`` on the sender's port and cross the device."""
        _check_index(sender, self.dimension, "sender")
        photon = make_qubit_photon(payload, sender, winding, self.space)
        return _device_apply(photon, self.transit)

    def deliver(
        self,
        sender: int,
        destination: int,
        payload: QubitSpec = QubitSpec(1, 0),
    ) -> PhotonState:
        _check_index(destination, self.dimension, "destination")
        return self.send(
            sender, self.choose_winding(sender, destination), payload
        )


# A star is rebuilt for every one-shot delivery (star_deliver), so its
# space and reflectors are cached on the star's fields, not per instance.
# typed, so that ModeSpace refuses 3.0 even once 3 is cached.  An invalid
# field raises on every call, since lru_cache keeps no exceptions.
_mode_space = lru_cache(maxsize=None, typed=True)(ModeSpace)


@lru_cache(maxsize=None, typed=True)
def _star_reflectors(
    dimension: int, overrides: tuple[tuple[int, int], ...]
) -> ReflectorBank:
    shifts = [(-port) % dimension for port in range(dimension)]
    for port, shift in overrides:
        _check_index(port, dimension, "override port")
        shifts[port] = shift
    return ReflectorBank(tuple(shifts))


@dataclass(frozen=True)
class StarNetwork:
    """All-to-all routing through one central node.

    The node is the forward device with a reflective hologram on each output
    port ``p`` whose shift is ``-p`` reduced into ``0..D-1`` (a hologram
    shift only matters modulo the path count for routing, and the reduced
    value is the one the bounce algebra singles out).  ``reflector_overrides``
    deliberately mis-shifts chosen ports, for fault-localization studies.
    """

    dimension: int
    oam_window: int | None = None
    reflector_overrides: tuple[tuple[int, int], ...] = ()

    @property
    def space(self) -> ModeSpace:
        return _mode_space(self.dimension, self.oam_window)

    @property
    def core(self) -> CompositeDevice:
        return oambs(self.dimension)

    @property
    def return_core(self) -> CompositeDevice:
        return sbmao(self.dimension)

    @property
    def reflectors(self) -> ReflectorBank:
        overrides = self.reflector_overrides
        # the cache key must be hashable, whatever sequences were passed
        key = tuple(map(tuple, overrides)) if overrides else ()
        return _star_reflectors(self.dimension, key)

    def _transits(self) -> Iterator[CompositeDevice | HologramBank]:
        """The devices a delivered photon crosses, in order; the reflectors
        are built only once the photons have crossed the core, where
        :meth:`route_state` builds them."""
        yield self.core
        yield self.reflectors
        yield self.return_core

    def route_state(
        self, state: PhotonState | EnsembleState
    ) -> PhotonState | EnsembleState:
        """Forward transit, bounce at the landing ports, reverse transit."""
        outbound = _device_apply(state, self.core)
        bounced = apply_mode_map(outbound, self.reflectors)
        return _device_apply(bounced, self.return_core)

    def deliver(
        self,
        sender: int,
        destination: int,
        payload: QubitSpec = QubitSpec(1, 0),
    ) -> PhotonState:
        """Send a payload from ``sender`` to ``destination``.

        The sender only needs to give the photon a winding equal to the
        destination index; the delivered photon lands on that path carrying
        the sender's tag in its winding.
        """
        _check_index(sender, self.dimension, "sender")
        _check_index(destination, self.dimension, "destination")
        photon = make_qubit_photon(payload, sender, destination, self.space)
        return self.route_state(photon)


@dataclass(frozen=True)
class ReportRow:
    sender: int
    destination: int
    winding: int
    delivered_path: int
    delivered_oam: int
    sender_tag: int | None
    amplitude_error: float
    passed: bool


@dataclass(frozen=True)
class RoutingReport:
    """Exhaustive (sender, destination) delivery table for one network."""

    dimension: int
    kind: str
    side: str
    rows: tuple[ReportRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)


def choose_winding_simple(
    sender: int,
    destination: int,
    dimension: int,
    side: Direction | str = Direction.FORWARD,
) -> int:
    """Winding number that delivers ``sender``'s photon to ``destination``."""
    _check_index(sender, dimension, "sender")
    _check_index(destination, dimension, "destination")
    return _simple_winding(sender, destination, dimension, Direction.coerce(side))


def _simple_winding(sender, destination, dimension: int, side: Direction):
    """:func:`choose_winding_simple` without its checks, for ints and for
    int64 arrays alike."""
    if side is Direction.FORWARD:
        return (-destination - sender) % dimension
    return (destination + sender) % dimension


def dominant_label(state: PhotonState) -> tuple[ModeLabel, float]:
    """The label of largest amplitude modulus, and that modulus."""
    label = max(state.amplitudes, key=lambda l: abs(state.amplitudes[l]))
    return label, abs(state.amplitudes[label])


def _routing_kind(network: SimpleRoutingNetwork | StarNetwork) -> tuple[str, str]:
    """The ``kind`` and ``side`` of a report on ``network``."""
    if isinstance(network, SimpleRoutingNetwork):
        return "simple", network.side.value
    if isinstance(network, StarNetwork):
        return "star", "star"
    if isinstance(network, MuxNetwork):
        raise DomainError(f"no report for {type(network).__name__}")
    raise DomainError(f"not a routing network: {type(network).__name__}")


def _judged_row(
    network: SimpleRoutingNetwork | StarNetwork,
    sender: int,
    destination: int,
    winding: int,
    path: int,
    oam: int,
    modulus: float,
    tolerance: float,
) -> ReportRow:
    """The row of a photon sent with ``winding`` that arrived on ``path``
    with winding ``oam`` and amplitude modulus ``modulus``."""
    amplitude_error = abs(modulus - 1.0)
    return ReportRow(
        sender,
        destination,
        winding,
        path,
        oam,
        sender_tag(oam, network.dimension) if isinstance(network, StarNetwork) else None,
        amplitude_error,
        path == destination and amplitude_error <= tolerance,
    )


def delivery_row(
    network: SimpleRoutingNetwork | StarNetwork,
    sender: int,
    destination: int,
    tolerance: float = NORM_TOL,
) -> ReportRow:
    """Deliver one photon from ``sender`` to ``destination`` and judge it.

    The row passes when the photon lands on the requested path with
    amplitude modulus 1 within ``tolerance``; the delivered winding is
    reported, never judged (for the star it identifies the sender modulo
    the path count).  The photon crosses the network as a
    :class:`PhotonState`, so every check of a delivery runs, and the first
    that fails raises.
    """
    kind, _ = _routing_kind(network)
    if kind == "star":
        winding = destination
    else:
        winding = network.choose_winding(sender, destination)
    label, modulus = dominant_label(network.deliver(sender, destination))
    return _judged_row(
        network, sender, destination, winding, label.path, label.oam, modulus, tolerance
    )


def routing_report(
    network: SimpleRoutingNetwork | StarNetwork,
    max_dimension: int = REPORT_DIMENSION_MAX,
) -> RoutingReport:
    """The :func:`delivery_row` of every (sender, destination) pair, sender
    first, judged at ``NORM_TOL``.

    All ``D**2`` photons cross each device together, as label columns
    (:func:`_gathered_rows`).  Where that cannot give every row as
    :func:`delivery_row` would, the rows come from :func:`delivery_row`
    photon by photon, so a report raises the error of the first photon that
    fails, in pair order.
    """
    kind, side = _routing_kind(network)
    dimension = network.dimension
    if dimension > max_dimension:
        raise DomainError(
            f"report capped at dimension {max_dimension}, got {dimension}"
        )
    rows = _gathered_rows(network)
    if rows is None:
        rows = [
            delivery_row(network, sender, destination)
            for sender in range(dimension)
            for destination in range(dimension)
        ]
    return RoutingReport(dimension, kind, side, tuple(rows))


def _gathered_rows(
    network: SimpleRoutingNetwork | StarNetwork,
) -> list[ReportRow] | None:
    """The rows of :func:`routing_report` from one pass of every pair's
    photon through each device, or ``None`` where some photon may fail.

    Photon ``k`` is the pair ``divmod(k, D)``, one H label with amplitude
    1.  Each device answers with one ``label_images`` gather for all of
    them, and the amplitudes multiply in split form, summed from ``0.0``:
    the bits of the dict loop of a photon crossing it alone (see
    :mod:`oamnet.states`); a device of unit factors changes none.  A
    photon's modulus is ``np.hypot`` of its parts, which is Python's
    ``abs`` of the complex amplitude.  The pass gives up when a device
    cannot answer by gather, when an injected or delivered label leaves
    the network's space, or when some modulus is not within half the
    norm tolerance of 1, where alone the photon might fail; the photons
    then cross one by one.
    """
    dimension = network.dimension
    space = network.space
    bound = min(space.oam_window, LABEL_BOUND)
    sender, destination = np.divmod(np.arange(dimension * dimension), dimension)
    if isinstance(network, StarNetwork):
        winding, transits = destination, network._transits()
    else:
        winding = _simple_winding(sender, destination, dimension, network.side)
        transits = (network.transit,)
    sent = winding
    if int(np.abs(winding).max()) > bound:
        return None
    path = sender
    re, im = np.ones(len(sender)), np.zeros(len(sender))
    modulus = re
    for device in transits:
        found = device.label_images(path, winding)
        if found is None:
            return None
        path, winding, fr, fi = found
        if int(path.max()) >= dimension or int(np.abs(winding).max()) > bound:
            return None
        if fr is not None:
            re, im = 0.0 + (re * fr - im * fi), 0.0 + (re * fi + im * fr)
            modulus = np.hypot(re, im)
            if not (np.abs(modulus * modulus - 1.0) <= NORM_TOL / 2).all():
                return None
    columns = (sender, destination, sent, path, winding, modulus)
    return [
        _judged_row(network, *row, NORM_TOL)
        for row in zip(*(column.tolist() for column in columns))
    ]


def mux_transmit(qubits: Sequence[QubitSpec]) -> EnsembleState:
    """Merge ``len(qubits)`` users' photons onto path 0 (one per port)."""
    _require_qubits(qubits)
    return MuxNetwork(len(qubits)).transmit(qubits)


def demux_receive(
    multiplexed: EnsembleState, restore_oam: bool = False
) -> EnsembleState:
    """Split a merged ensemble back onto per-user paths."""
    _require_ensemble(multiplexed)
    network = MuxNetwork(
        multiplexed.space.dimension, multiplexed.space.oam_window
    )
    return network.receive(multiplexed, restore_oam)


def star_deliver(
    sender: int,
    destination: int,
    dimension: int,
    payload: QubitSpec = QubitSpec(1, 0),
) -> PhotonState:
    """One-shot delivery through a freshly built star of ``dimension`` users."""
    return StarNetwork(dimension).deliver(sender, destination, payload)


def superposed_destination(
    sender: int,
    dimension: int,
    destinations: Sequence[tuple[int, complex]],
) -> PhotonState:
    """Send one photon toward a superposition of destinations.

    ``destinations`` holds (path, amplitude) pairs with distinct paths and
    unit total norm; by linearity each branch arrives on its own path with
    probability ``|amplitude|^2``.
    """
    star = StarNetwork(dimension)
    _check_index(sender, dimension, "sender")
    if not isinstance(destinations, Sequence):
        raise DomainError(
            f"not a sequence of destinations: {type(destinations).__name__}"
        )
    for entry in destinations:
        if not (
            isinstance(entry, Sequence)
            and len(entry) == 2
            and isinstance(entry[0], Integral) and not isinstance(entry[0], bool)
            and isinstance(entry[1], Number)
        ):
            raise DomainError(f"not a (path, amplitude) pair: {entry!r}")
    paths = [path for path, _ in destinations]
    if len(set(paths)) != len(paths):
        raise DomainError("destination paths must be distinct")
    try:
        norm_sq = sum(abs(amp) ** 2 for _, amp in destinations)
    except OverflowError:
        norm_sq = math.inf
    _require_unit_norm(norm_sq, "destination amplitudes norm^2")
    for path, _ in destinations:
        _check_index(path, dimension, "destination")
    photon = PhotonState(
        star.space,
        {
            ModeLabel(sender, path, H): complex(amp)
            for path, amp in destinations
        },
    )
    return star.route_state(photon)


def distribute_bell_pair(
    x: int, y: int, n: int, m: int, dimension: int
) -> EnsembleState:
    """Route one polarization-entangled pair from input paths ``x, y`` to
    users ``n, m`` through the star.

    A ``+n`` hologram on path ``x`` and a ``+m`` hologram on path ``y`` give
    each photon the winding that steers it; entanglement rides along
    untouched because every element ignores polarization.
    """
    for name, value in (("x", x), ("y", y), ("n", n), ("m", m)):
        _check_index(value, dimension, name)
    if x == y:
        raise DomainError("both photons on one input path is out of scope")
    star = StarNetwork(dimension)
    space = star.space
    root_half = 1.0 / math.sqrt(2.0)
    pair = EnsembleState(
        space,
        2,
        {
            (ModeLabel(x, 0, H), ModeLabel(y, 0, V)): root_half,
            (ModeLabel(x, 0, V), ModeLabel(y, 0, H)): root_half,
        },
    )
    shifts = [0] * dimension
    shifts[x] = n
    shifts[y] = m
    addressed = apply_mode_map(pair, HologramBank(tuple(shifts)))
    return star.route_state(addressed)


def delivered_star_oam(sender: int, destination: int, dimension: int) -> int:
    """Exact winding the star delivers: congruent to ``sender`` mod ``D``."""
    bounce = (destination + sender) % dimension
    return bounce - destination


def bell_target(
    x: int, y: int, n: int, m: int, dimension: int
) -> EnsembleState:
    """Delivered-state template for :func:`distribute_bell_pair`."""
    space = ModeSpace(dimension)
    oam_x = delivered_star_oam(x, n, dimension)
    oam_y = delivered_star_oam(y, m, dimension)
    root_half = 1.0 / math.sqrt(2.0)
    return EnsembleState(
        space,
        2,
        {
            (ModeLabel(n, oam_x, H), ModeLabel(m, oam_y, V)): root_half,
            (ModeLabel(n, oam_x, V), ModeLabel(m, oam_y, H)): root_half,
        },
    )


__all__ = [
    "HologramBank",
    "MuxNetwork",
    "REPORT_DIMENSION_MAX",
    "ReflectorBank",
    "ReportRow",
    "RoutingReport",
    "SimpleRoutingNetwork",
    "StarNetwork",
    "bell_target",
    "choose_winding_simple",
    "delivered_star_oam",
    "demux_receive",
    "distribute_bell_pair",
    "dominant_label",
    "mux_transmit",
    "routing_report",
    "sender_tag",
    "star_deliver",
    "superposed_destination",
]
