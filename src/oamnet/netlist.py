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
list of rows, each a (lane, path, amplitude) entry of some photon's map,
grouped by photon and in each photon's dict order.  A lane stands for one
(photon and polarization, winding) pair, and per-lane arrays hold each
lane's photon, polarization and winding, so a row carries two integers and
two floats.  The elements are grouped into rounds of elements on disjoint
ports (the 88 elements of the D=8 OAM beamsplitter make 30 rounds), and
each round fans the rows out to their images and sums equal (lane, path)
rows with the ensemble's own kernels: the first of each is found in a
table indexed by ``lane * D + path``, with no sort.  Only a round that
changes windings (a mirror, prism or hologram) renumbers the lanes; the
beamsplitter and phase rounds keep them.  Every photon's images equal
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
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, get_args

import numpy as np

from .elements import (
    BeamSplitter,
    Direction,
    DovePrism,
    Element,
    Mirror,
    PhaseShifter,
    PortElement,
    beamsplitter_block,
)
from .errors import DecompositionError, DomainError
from .multiport import (
    _closed_form_walk,
    device_basis,
    global_phase_error,
    symmetric_matrix,
)
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
    _first_rows,
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

    @classmethod
    def _from_checked(
        cls, dimension: int, elements: tuple[Element, ...], parity_flip: bool
    ) -> "Netlist":
        """Wrap a tuple of elementary elements whose ports already passed
        ``check_ports(dimension)``, without checking them again."""
        netlist = object.__new__(cls)
        object.__setattr__(netlist, "dimension", dimension)
        object.__setattr__(netlist, "elements", elements)
        object.__setattr__(netlist, "parity_flip", parity_flip)
        return netlist

    def mode_images(self, label: ModeLabel):
        images = compose_images(self.elements, label)
        if self.parity_flip:
            images = [
                (ModeLabel(l.path, -l.oam, l.pol), amp) for l, amp in images
            ]
        return images


def netlist_apply(
    netlist: Netlist, state: PhotonState | EnsembleState
) -> PhotonState | EnsembleState:
    """Run a state through the netlist; :class:`DomainError` for an
    argument that is not a netlist or a state."""
    if not isinstance(netlist, Netlist):
        raise DomainError(f"not a netlist: {type(netlist).__name__}")
    if not isinstance(state, (PhotonState, EnsembleState)):
        raise DomainError(f"not a state: {type(state).__name__}")
    if state.space.dimension != netlist.dimension:
        raise DomainError(
            f"state spans {state.space.dimension} paths, netlist "
            f"{netlist.dimension}"
        )
    return apply_mode_map(state, netlist)


def reck_decompose(target: np.ndarray) -> Netlist:
    """Triangular synthesis of a path unitary.

    Returns at most ``D*(D-1)/2`` beamsplitters on adjacent port pairs plus
    trailing phase shifters whose replayed product reproduces ``target``
    exactly (up to accumulated round-off, well under 1e-9).

    The elimination runs on the target's columns held as lists of Python
    ``complex`` values.  Each pivot takes its angles from ``math.atan2``,
    its beamsplitter updates the column pair entry by entry as ``p * b00 +
    q * b10`` and ``p * b01 + q * b11``, and the trailing phases are
    ``cmath.phase`` of the diagonal.  Every step is scalar arithmetic in a
    fixed order, so the netlist does not depend on the BLAS kernel; only
    the unitarity gate, which decides whether to raise, runs a matrix
    product.
    """
    work = np.array(target, dtype=complex)
    if work.ndim != 2 or work.shape[0] != work.shape[1] or not work.size:
        raise DecompositionError(
            f"target must be a non-empty square matrix, got {work.shape}"
        )
    if not np.isfinite(work).all():
        raise DecompositionError("target has non-finite entries")
    dimension = work.shape[0]
    identity = np.eye(dimension)
    # finite entries past 1e154 overflow the product; the gate refuses the
    # inf or NaN that results
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(work.conj().T @ work - identity)))
    if not defect <= 1e-10:
        raise DecompositionError(
            f"target is not unitary: max |U^H U - I| = {defect:.3e}"
        )

    columns = work.T.tolist()
    splitters: list[BeamSplitter] = []
    for row in range(dimension - 1):
        for col in range(dimension - 1, row, -1):
            a, b = col - 1, col
            u, v = columns[a][row], columns[b][row]
            if abs(v) <= _NULL_TOL:
                continue
            theta = math.atan2(abs(v), abs(u))
            w = -v * u.conjugate()
            phi = math.atan2(w.imag, w.real) - math.pi / 2.0
            (b00, b01), (b10, b11) = beamsplitter_block(theta, phi)
            pair = tuple(zip(columns[a], columns[b]))
            columns[a] = [p * b00 + q * b10 for p, q in pair]
            columns[b] = [p * b01 + q * b11 for p, q in pair]
            # The netlist needs the inverse of the nulling block, which is
            # the same convention with the mixing angle negated.
            splitters.append(BeamSplitter(a, b, -theta, phi))

    angles = [cmath.phase(columns[port][port]) for port in range(dimension)]
    shifters = [
        PhaseShifter(port, angle) for port, angle in enumerate(angles) if angle != 0.0
    ]
    return Netlist(dimension, tuple(splitters) + tuple(shifters))


def netlist_path_matrix(netlist: Netlist) -> np.ndarray:
    """Path-space matrix replayed from beamsplitters and phase shifters.

    The product is held as rows of Python ``complex`` values, starting from
    the identity.  A beamsplitter on ports ``a`` and ``b`` with block
    ``((m00, m01), (m10, m11))`` replaces rows ``a`` and ``b`` entry by
    entry with ``m00 * x + m01 * y`` and ``m10 * x + m11 * y``, and a phase
    shifter scales its row by ``cmath.exp(1j * phi)``, so the result does
    not depend on the BLAS kernel.  Only path-acting elements are
    admissible here; OAM-acting elements have no path-matrix meaning and
    raise :class:`DomainError`, and so does an argument that is not a
    :class:`Netlist`.
    """
    if not isinstance(netlist, Netlist):
        raise DomainError(f"not a netlist: {type(netlist).__name__}")
    rows = np.eye(netlist.dimension, dtype=complex).tolist()
    for element in netlist.elements:
        if isinstance(element, BeamSplitter):
            a, b = element.port_a, element.port_b
            (m00, m01), (m10, m11) = element._block
            pair = tuple(zip(rows[a], rows[b]))
            rows[a] = [m00 * x + m01 * y for x, y in pair]
            rows[b] = [m10 * x + m11 * y for x, y in pair]
        elif isinstance(element, PhaseShifter):
            phase = cmath.exp(1j * element.phi)
            rows[element.port] = [phase * x for x in rows[element.port]]
        else:
            raise DomainError(
                f"{type(element).__name__} has no path-only matrix"
            )
    return np.array(rows, dtype=complex)


def path_replay_error(netlist: Netlist, target: np.ndarray) -> float:
    """Max deviation of the replayed path matrix from ``target`` after
    removing one global phase."""
    return global_phase_error(netlist_path_matrix(netlist), target)


def symmetric_netlist(dimension: int) -> Netlist:
    """Triangular netlist of the symmetric multiport, with its transit flip."""
    decomposed = reck_decompose(symmetric_matrix(dimension))
    return Netlist._from_checked(dimension, decomposed.elements, True)


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
    Only ``reck_decompose`` checks ports: the triangle's elements passed
    its check, and the mirrors and prisms sit on ports ``0..D-1``.
    """
    triangle = reck_decompose(symmetric_matrix(dimension))
    mirrors = tuple(Mirror(port) for port in range(dimension))
    prisms = dove_stage_elements(dimension, Direction.FORWARD)
    elements = triangle.elements + mirrors + prisms + triangle.elements
    return Netlist._from_checked(dimension, elements, True)


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
_RULED = get_args(Element)


# the most terms a rule of the six types has: a beamsplitter's two
_WIDTH = 2


class _PortTables(NamedTuple):
    """Every round's port rules as tables (see :func:`_port_tables`)."""

    start: np.ndarray
    count: np.ndarray
    path: np.ndarray
    factor: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    dove: np.ndarray
    alpha: list[dict[int, float]]
    spread: list[bool]
    moved: list[bool]
    reach: int


def _port_tables(
    netlist: Netlist, inputs: Sequence[ModeLabel]
) -> _PortTables | None:
    """The port rules of each round's elements (:func:`_rounds`) as tables
    indexed by round and path, with the identity on every path off their
    ports, or ``None`` when the inputs must be replayed photon by photon.

    In round ``r``, path ``p`` has ``count[r, p]`` terms, from ``start[p]``
    on in row ``r`` of ``path`` and ``factor`` (image path and factor),
    ``_WIDTH`` entries apart, and its image winding is ``sign[r, p] * l +
    shift[r, p]``.  ``dove`` marks the Dove prisms' ports and ``alpha[r]``
    holds their angles.  ``spread[r]`` tells that some term leaves its port
    or shares it with another term, and ``moved[r]`` that some winding
    changes; a round that is not spread sends distinct labels to distinct
    images on their own paths.

    The batch needs elements of the six built-in types, input paths in
    ``[0, D)``, and a ``reach`` (the inputs' largest |winding| plus each
    round's largest |shift|, in Python ints) within ``LABEL_BOUND``, such
    that the int64 keys of :func:`_lanes` fit, over the ``2 * len(inputs)``
    streams of the rows and over the ``D`` paths of :func:`_dove_phases`.
    """
    dimension = netlist.dimension
    if not inputs or not all(type(e) in _RULED for e in netlist.elements):
        return None
    if not all(0 <= label.path < dimension for label in inputs):
        return None
    rounds = _rounds(netlist.elements)
    cells = len(rounds) * dimension
    count = [1] * cells
    paths = [p for p in range(dimension) for _ in range(_WIDTH)] * len(rounds)
    factors = [1.0 + 0j] * (cells * _WIDTH)
    sign = [1] * cells
    shift = [0] * cells
    dove = [False] * cells
    alpha: list[dict[int, float]] = [{} for _ in rounds]
    spread = [False] * len(rounds)
    moved = [False] * len(rounds)
    reach = max(abs(label.oam) for label in inputs)
    for r, elements in enumerate(rounds):
        top = 0
        for element in elements:
            for port, (terms, s, k, a) in zip(element.ports, element.port_rules):
                cell = r * dimension + port
                count[cell], sign[cell], shift[cell] = len(terms), s, k
                at = cell * _WIDTH
                for image_path, factor in terms:
                    paths[at], factors[at] = image_path, factor
                    at += 1
                spread[r] = spread[r] or len(terms) > 1 or terms[0][0] != port
                if s != 1 or k != 0:
                    moved[r] = True
                    top = max(top, abs(k))
                if a is not None:
                    dove[cell] = True
                    alpha[r][port] = a
        reach += top
    keys = 2 * len(inputs) * dimension * (2 * reach + 1)
    if reach > LABEL_BOUND or keys > 2**63:
        return None
    grid = (len(rounds), dimension)
    terms = (len(rounds), dimension * _WIDTH)
    return _PortTables(
        np.arange(0, dimension * _WIDTH, _WIDTH),
        np.array(count, dtype=np.int64).reshape(grid),
        np.array(paths, dtype=np.int64).reshape(terms),
        np.array(factors, dtype=np.complex128).reshape(terms),
        np.array(sign, dtype=np.int64).reshape(grid),
        np.array(shift, dtype=np.int64).reshape(grid),
        np.array(dove, dtype=bool).reshape(grid),
        alpha,
        spread,
        moved,
        reach,
    )


def _lanes(
    stream: np.ndarray, winding: np.ndarray, streams: int, reach: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every lane's stream and winding, and each row's lane: the rank of
    its (stream, winding) pair by first appearance.  With streams in ``[0,
    streams)`` and windings within ``[-reach, reach]``, a pair packs into
    one int64 key."""
    span = 2 * reach + 1
    first, lane = _first_rows(stream * span + (winding + reach), streams * span)
    return stream[first], winding[first], lane


def _dove_phases(
    alpha: dict[int, float],
    dove: np.ndarray,
    path: np.ndarray,
    winding: np.ndarray,
    reach: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows on Dove prism ports (``dove`` marks them by path), and each
    one's prism phase, computed by the formula of ``DovePrism.mode_images``
    once per distinct (path, winding): :func:`_lanes` ranks the pairs, with
    paths as its streams."""
    at = dove[path].nonzero()[0]
    paths, windings, group = _lanes(path[at], winding[at], len(dove), reach)
    phases = [
        cmath.exp(-1j * alpha[p] * l)
        for p, l in zip(paths.tolist(), windings.tolist())
    ]
    return at, np.array(phases, dtype=np.complex128)[group]


def _replay_columns(
    netlist: Netlist, inputs: Sequence[ModeLabel]
) -> list[list[tuple[ModeLabel, complex]]]:
    """``netlist.mode_images(label)`` for every label of ``inputs`` at once.

    All maps share one row list: row ``r`` is the entry of label ``(path[r],
    w, V if vpol else H)`` in the map of ``inputs[photon]``, worth ``re[r] +
    i*im[r]``, where ``lane[r]`` is a lane: a number standing for one pair
    of stream ``2 * photon + vpol`` and winding ``w``, whose stream and
    winding the per-lane arrays ``lane_stream`` and ``lane_winding`` hold.
    Rows stay grouped by photon and, within a photon, in dict order, so
    order needs no keys.

    Each round of :func:`_rounds` reads its elements' port rules as
    path-indexed tables (:func:`_port_tables`) and gathers every row's
    images at once (a label off the round's ports is its own image with
    factor ``1+0j``, as in ``PortElement.mode_images``); only a Dove
    prism's phase is computed per distinct (path, winding), by the formula
    of its ``mode_images``.  A round that moves windings gives the rows new
    windings and so new pairs, and :func:`_lanes` renumbers the lanes by
    first appearance; every other round keeps them.  The round then
    multiplies in split form, sums equal (lane, path) rows into the first
    of them and prunes at ``PRUNE_TOL``: the ensemble's own fan-out and row
    merge, which add the terms in the order of the label-wise loop of
    ``compose_images``.  The merge finds each row's first equal row in a
    table indexed by ``lane * D + path`` (:func:`~oamnet.states._first_rows`),
    sized by the lanes and so by the rows, and sorts only where the table
    would pass ``_TABLE_PER_ROW`` entries per row.  A round that would fan out to more
    than ``MAX_ENSEMBLE_ROWS`` rows raises :class:`DomainError` before it
    allocates them.

    A netlist that :func:`_port_tables` rejects (another element type, a
    path outside the netlist, or windings that may pass ``LABEL_BOUND``)
    is replayed photon by photon through ``netlist.mode_images``, whose
    Python ints never wrap.
    """
    tables = _port_tables(netlist, inputs)
    if tables is None:
        return [list(netlist.mode_images(label)) for label in inputs]
    dimension, reach = netlist.dimension, tables.reach
    # every input is a stream of its own, so its own lane
    lane_stream = np.array(
        [2 * photon + (label.pol is V) for photon, label in enumerate(inputs)],
        dtype=np.int64,
    )
    lane_winding = np.array([label.oam for label in inputs], dtype=np.int64)
    lane = np.arange(len(inputs))
    path = np.array([label.path for label in inputs], dtype=np.int64)
    re, im = np.ones(len(inputs)), np.zeros(len(inputs))
    rounds = zip(
        tables.spread, tables.moved, tables.alpha, tables.count, tables.path,
        tables.factor, tables.sign, tables.shift, tables.dove,
    )
    for spread, moved, alpha, count, image_path, factor, sign, shift, dove in rounds:
        source = path
        if spread:
            rows, pick = _fan_out(path, tables.start, count, width=1)
            lane, re, im = lane[rows], re[rows], im[rows]
            if moved:
                source = path[rows]
            path, factor = image_path[pick], factor[pick]
        else:
            # one term per path, on the path itself
            factor = factor[::_WIDTH][path]
        if moved:
            winding = lane_winding[lane]
            # a Dove prism flips the winding, so its round is a moving one
            if alpha:
                at, phase = _dove_phases(alpha, dove, source, winding, reach)
                factor[at] = phase
            winding = sign[source] * winding + shift[source]
            lane_stream, lane_winding, lane = _lanes(
                lane_stream[lane], winding, 2 * len(inputs), reach
            )
        fr, fi = factor.real, factor.imag
        re, im = re * fr - im * fi, re * fi + im * fr
        if spread:
            first, re, im = _sum_equal_rows(
                lane * dimension + path, re, im, len(lane_stream) * dimension
            )
        else:
            # distinct labels keep distinct images, so each sum is 0.0 + x
            first, re, im = None, 0.0 + re, 0.0 + im
        keep = np.hypot(re, im) > PRUNE_TOL
        if not keep.all():
            first = keep.nonzero()[0] if first is None else first[keep]
            re, im = re[keep], im[keep]
        if first is not None:
            lane, path = lane[first], path[first]

    stream, winding = lane_stream[lane], lane_winding[lane]
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

    Inputs and images come from ``multiport``'s closed-form walk, which
    verify's matrix checks also read; the phase here is Python's complex
    quotient, theirs numpy's.  All ``D**2`` basis photons cross the netlist
    together as one row list in :func:`_replay_columns`, whose images equal
    ``netlist.mode_images`` bit for bit and in key order.  Each input's
    :class:`PhotonState` is then built in walk order, so pruning, the window
    and norm checks, the sums of squares and the first error raised are
    those of replaying one photon at a time with :func:`netlist_apply`.
    An argument that is not a :class:`Netlist` raises :class:`DomainError`.
    """
    if not isinstance(netlist, Netlist):
        raise DomainError(f"not a netlist: {type(netlist).__name__}")
    dimension = netlist.dimension
    space = ModeSpace(dimension)
    basis = device_basis(dimension)
    photons, images = _closed_form_walk(dimension, Direction.FORWARD)
    replayed = _replay_columns(netlist, [basis[i] for i in photons.tolist()])
    gamma: complex | None = None
    worst = 0.0
    for amplitudes, image in zip(replayed, images.tolist()):
        routed = PhotonState(space, dict(amplitudes))
        amp = routed.amplitude(basis[image])
        leftover = sum(abs(a) ** 2 for a in routed.amplitudes.values()) - abs(amp) ** 2
        if gamma is None:
            if amp == 0:
                return 1.0
            gamma = amp / abs(amp)
        worst = max(worst, abs(amp - gamma), math.sqrt(max(0.0, leftover)))
    return worst


def random_unitary(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a complex
    Gaussian matrix, with the phase ambiguity of R's diagonal removed: the
    one-matrix case of :func:`_random_unitaries`.  A dimension that is
    not an integer or is below 1, and then an ``rng`` that is not a
    :class:`numpy.random.Generator`, raise :class:`DomainError` before
    ``rng`` draws."""
    if not isinstance(dimension, Integral):
        raise DomainError(f"not an integer dimension: {type(dimension).__name__}")
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"not a random generator: {type(rng).__name__}")
    return _random_unitaries(dimension, rng, 1)[0]


def _random_unitaries(
    dimension: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` random unitaries as one (count, D, D) stack, from one draw
    and one stacked QR factorization.

    Matrix ``k`` takes the real parts of its Gaussian, then the imaginary
    parts, so the stack holds the bits, and leaves ``rng`` in the state, of
    ``count`` calls of :func:`random_unitary` in a row: the stacked QR runs
    the same LAPACK calls on each matrix, and every later step is
    elementwise, with inner loops over rows of ``D`` entries as for one
    matrix."""
    raw = rng.standard_normal((count, 2, dimension, dimension))
    q, r = np.linalg.qr(raw[:, 0] + 1j * raw[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


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
