"""Symmetric multiports, Dove prism stages, and composite OAM beamsplitters.

The central device routes photons among ``D`` paths according to their
winding number.  It sandwiches a stage of Dove prisms (one per port, prism
``n`` rotated so its phase coefficient is ``2*pi*n/D``) between two identical
symmetric multiports whose scattering matrix is the discrete-Fourier matrix

    ``S[n, m] = exp(i*2*pi*n*m/D) / sqrt(D)``.

Because photons reflect an odd number of times inside a symmetric multiport,
each transit also flips the winding sign; that aggregate flip is modeled as a
single parity attribute of the multiport rather than being distributed over
individual beamsplitters.

Closed forms for a photon entering with winding ``l`` on path ``n``:

* forward transit:  ``|l>_n  ->  |-l>_{(-l-n) mod D}``
* reverse transit:  ``|l>_n  ->  |-l>_{(l-n) mod D}``

with amplitude exactly 1 in both cases; the reverse device (the same optics
traversed right to left) conjugates the prism phases, making it the exact
inverse of the forward device.

Both stages derive from :class:`~oamnet.states.WholeMapOperator`: ``transit``
sends a whole sparse amplitude map through the stage in one call, doing the
same complex products and sums in the same order as the label-wise loop of
:func:`~oamnet.states.compose_images`, so results agree bit for bit; each
stage's ``mode_images`` is the one-label case.  Per dimension, the module
caches rows of Python complex values (the ``D`` columns of the Fourier
matrix and the ``D`` Dove prism phases) and the immutable devices built by
:func:`oambs` and :func:`sbmao`.

Per device, a :class:`CompositeDevice` made only of these two stage types
keeps a table of its images.  A multiport never reads the winding, a Dove
stage reads it only through ``(path * oam) mod D``, and polarization is a
spectator, so the image amplitudes of ``|l>_n`` depend only on
``(n, l mod D)``; the output winding is ``l`` or ``-l`` by the parity of the
flipping stages.  The table is keyed by the input path and the winding mod
``D`` (the label's winding sector), so it holds at most ``D**2`` entries.
Each entry is filled on the first label that needs it by one call of the
stage product :func:`~oamnet.states.compose_images`, and nothing else writes
it, so a lookup returns the stage product's amplitude bits in its key order.

Ensembles read the same entries through ``label_images`` as dense arrays
indexed by ``path * D + winding mod D``: the one image path and the parts
of its amplitude, with the output winding ``sign * winding``.  The arrays
start zeroed and are filled from the table, only for the keys some call
has needed, so a device that only routes photons never fills them.  A key
whose entry has other than one image, and every key once two entries of
one winding sector share an image path (two labels would then share an
image), sends the call back to ``mode_images`` label by label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .elements import Direction, Element, PortElement
from .errors import DomainError
from .states import (
    PRUNE_TOL,
    ModeLabel,
    Polarization,
    WholeMapOperator,
    compose_images,
)

UNITARITY_TOL = 1e-12
GENPERM_TOL = 1e-9
# entries a dense device_matrix or Fourier matrix may hold (64 MiB of
# complex values): the default basis of D <= 32 and the Fourier matrix of
# D <= 2048 fit, and a larger one raises DomainError before anything is
# allocated
MAX_MATRIX_ENTRIES = 2**22


@lru_cache(maxsize=None)
def _symmetric_matrix_cached(dimension: int) -> np.ndarray:
    if dimension * dimension > MAX_MATRIX_ENTRIES:
        raise DomainError(
            f"a Fourier matrix of {dimension * dimension} entries exceeds the "
            f"bound of {MAX_MATRIX_ENTRIES} entries"
        )
    indices = np.arange(dimension)
    # reduce the integer phase index first: exp(2*pi*i*q/D) is periodic in
    # q mod D, and small arguments keep the cancellation noise well under
    # the amplitude pruning threshold
    phase_index = np.outer(indices, indices) % dimension
    matrix = np.exp(2j * np.pi * phase_index / dimension)
    matrix /= np.sqrt(dimension)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def _fourier_columns(dimension: int) -> tuple[tuple[complex, ...], ...]:
    """Columns of the scattering matrix as Python complex values."""
    return tuple(map(tuple, _symmetric_matrix_cached(dimension).T.tolist()))


@lru_cache(maxsize=None)
def _dove_phases(dimension: int) -> tuple[complex, ...]:
    """Phase of every reduced phase index ``k = (path * oam) mod D``."""
    # prism n at phase coefficient 2*pi*n/D acting on an integer winding:
    # the phase index n*oam is exact, so it is reduced mod D before
    # exponentiating (see _symmetric_matrix_cached)
    return tuple(
        complex(np.exp(-2j * np.pi * k / dimension)) for k in range(dimension)
    )


def symmetric_matrix(dimension: int) -> np.ndarray:
    """Discrete-Fourier scattering matrix of the ``dimension``-port multiport.

    Exactly symmetric by construction (entry ``(n, m)`` is computed from the
    integer product ``n*m``), which is what makes forward and backward
    transits of the multiport identical.
    """
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    return _symmetric_matrix_cached(dimension).copy()


@dataclass(frozen=True)
class SymmetricMultiport(WholeMapOperator):
    """Symmetric multiport stage; ``parity_flip`` is the per-transit sign flip."""

    dimension: int
    parity_flip: bool = True

    def transit(self, amplitudes):
        # Every label fans out over all D paths with the same flipped winding
        # and polarization, so the images of labels sharing those two add
        # into one row of D sums.  Rows come out in order of first
        # appearance, paths ascending: the label-wise loop's key order.
        columns = _fourier_columns(self.dimension)
        rows: dict[tuple[int, Polarization], list[complex]] = {}
        for label, amp in amplitudes.items():
            if not 0 <= label.path < self.dimension:
                raise DomainError(
                    f"path {label.path} outside multiport of dimension "
                    f"{self.dimension}"
                )
            oam = -label.oam if self.parity_flip else label.oam
            key = (oam, label.pol)
            column = columns[label.path]
            row = rows.get(key)
            if row is None:
                rows[key] = [0j + amp * factor for factor in column]
            else:
                rows[key] = [
                    total + amp * factor for total, factor in zip(row, column)
                ]
        out: dict[ModeLabel, complex] = {}
        for (oam, pol), row in rows.items():
            for out_path, total in enumerate(row):
                if abs(total) > PRUNE_TOL:
                    out[ModeLabel(out_path, oam, pol)] = total
        return out

    def reversed(self) -> "SymmetricMultiport":
        return self


@dataclass(frozen=True)
class DoveStage(WholeMapOperator):
    """One Dove prism per port; prism ``n`` has phase coefficient ``2*pi*n/D``.

    Not the same bits as the prisms of
    :func:`~oamnet.netlist.dove_stage_elements`: the stage reduces the phase
    index ``path * oam`` mod ``D`` before exponentiating, a
    :class:`~oamnet.elements.DovePrism` exponentiates the unreduced winding,
    and the last bits differ, so the two stay apart.
    """

    dimension: int
    direction: Direction = Direction.FORWARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", Direction.coerce(self.direction))

    def transit(self, amplitudes):
        # a prism keeps the path and flips the winding, so distinct labels
        # have distinct images and nothing sums
        phases = _dove_phases(self.dimension)
        reverse = self.direction is Direction.REVERSE
        out: dict[ModeLabel, complex] = {}
        for label, amp in amplitudes.items():
            if not 0 <= label.path < self.dimension:
                raise DomainError(
                    f"path {label.path} outside Dove stage of dimension "
                    f"{self.dimension}"
                )
            phase_index = label.path * label.oam
            if reverse:
                phase_index = -phase_index
            total = 0j + amp * phases[phase_index % self.dimension]
            if abs(total) > PRUNE_TOL:
                out[ModeLabel(label.path, -label.oam, label.pol)] = total
        return out

    def reversed(self) -> "DoveStage":
        flipped = (
            Direction.REVERSE
            if self.direction is Direction.FORWARD
            else Direction.FORWARD
        )
        return DoveStage(self.dimension, flipped)


Stage = SymmetricMultiport | DoveStage | Element


@dataclass(frozen=True)
class CompositeDevice:
    """Ordered stages applied left to right, all sharing one dimension.

    Construction raises :class:`DomainError` for an element port outside
    the device and for any other stage (multiport, Dove stage, bank,
    netlist) whose ``dimension`` differs from the device's or is missing.
    When every stage is a :class:`SymmetricMultiport` or a
    :class:`DoveStage`, ``mode_images`` reads a
    per-device image table (see the module docstring): the first label on
    path ``n`` with winding ``l`` runs the stage product for ``|l mod D>_n``
    and keeps its ``(path, amplitude)`` images.  Any other device, and any
    label whose path is outside the device, goes through
    :func:`~oamnet.states.compose_images` directly.  ``label_images``
    reads the same table for a whole ensemble's labels at once.
    """

    stages: tuple[Stage, ...]
    dimension: int
    # (path, winding mod dimension) -> image (path, amplitude) pairs; None
    # when some stage may read the winding beyond its residue
    _table: dict[tuple[int, int], tuple[tuple[int, complex], ...]] | None = field(
        init=False, repr=False, compare=False
    )
    _sign: int = field(init=False, repr=False, compare=False)
    # the table as dense arrays for label_images, made on its first call
    _dense: "_DenseTable | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for stage in self.stages:
            if isinstance(stage, PortElement):
                stage.check_ports(self.dimension)
                continue
            dimension = getattr(stage, "dimension", None)
            if dimension != self.dimension:
                raise DomainError(
                    f"{type(stage).__name__} of dimension {dimension} "
                    f"in a device of dimension {self.dimension}"
                )
        table, sign = None, 1
        if all(
            type(stage) in (SymmetricMultiport, DoveStage) for stage in self.stages
        ):
            table = {}
            for stage in self.stages:
                if type(stage) is DoveStage or stage.parity_flip:
                    sign = -sign
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_sign", sign)
        object.__setattr__(self, "_dense", None)

    def mode_images(self, label: ModeLabel):
        table = self._table
        if table is None or not 0 <= label.path < self.dimension:
            return compose_images(self.stages, label)
        path, oam, pol = label
        key = (path, oam % self.dimension)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = tuple(
                (image.path, amp)
                for image, amp in compose_images(self.stages, ModeLabel(*key))
            )
        out_oam = self._sign * oam
        return [(ModeLabel(p, out_oam, pol), amp) for p, amp in entry]

    def label_images(self, path: np.ndarray, winding: np.ndarray):
        """``mode_images`` of every label at once, read from the table (see
        :class:`~oamnet.states.ModeOperator` and the module docstring);
        ``None`` for a device without a table, a path outside the device, a
        label whose entry has other than one image, or once two labels may
        share an image."""
        if self._table is None or int(path.max()) >= self.dimension:
            return None
        dense = self._dense
        if dense is None:
            dense = _DenseTable(self.dimension)
            object.__setattr__(self, "_dense", dense)
        key = path * self.dimension + winding % self.dimension
        found = dense.image[key]
        if found.min() <= 0:
            # a set, not np.unique, which imports numpy.ma on first use
            for k in set(key[found == 0].tolist()):
                dense.fill(k, self.mode_images(ModeLabel(*divmod(k, self.dimension))))
            found = dense.image[key]
            if found.min() <= 0:
                return None
        if dense.shared:
            return None
        return found - 1, self._sign * winding, dense.re[key], dense.im[key]

    def reversed(self) -> "CompositeDevice":
        return CompositeDevice(
            tuple(stage.reversed() for stage in reversed(self.stages)),
            self.dimension,
        )


class _DenseTable:
    """A tabled device's entries as flat arrays, at ``path * D + residue``.

    ``image`` holds the one image path plus 1, 0 for an entry not filled yet
    and -1 for an entry of other than one image, so the arrays start as
    zeroed memory; ``re`` and ``im`` hold the image amplitude's parts.
    ``shared`` turns true once two filled entries of one residue share an
    image path, that is once two labels may share an image.
    """

    __slots__ = ("dimension", "image", "re", "im", "shared")

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self.image = np.zeros(dimension * dimension, dtype=np.int64)
        self.re = np.zeros(dimension * dimension)
        self.im = np.zeros(dimension * dimension)
        self.shared = False

    def fill(self, key: int, images: list[tuple[ModeLabel, complex]]) -> None:
        """Enter the entry at ``key`` from the device's images of its label."""
        if len(images) != 1:
            self.image[key] = -1
            return
        (image, amp), = images
        # the entries of one residue sit a dimension apart
        column = self.image[key % self.dimension :: self.dimension]
        if (column == image.path + 1).any():
            self.shared = True
        self.image[key] = image.path + 1
        self.re[key] = amp.real
        self.im[key] = amp.imag


@lru_cache(maxsize=None)
def oambs(dimension: int) -> CompositeDevice:
    """Forward OAM beamsplitter: multiport, Dove stage, multiport."""
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    s = SymmetricMultiport(dimension)
    return CompositeDevice(
        (s, DoveStage(dimension, Direction.FORWARD), s), dimension
    )


@lru_cache(maxsize=None)
def sbmao(dimension: int) -> CompositeDevice:
    """The OAM beamsplitter traversed right to left; exact inverse of forward."""
    return oambs(dimension).reversed()


def oambs_closed_form(
    oam: int,
    path: int,
    dimension: int,
    direction: Direction | str = Direction.FORWARD,
) -> tuple[int, int]:
    """Output ``(oam, path)`` for a basis photon, by the collapsed geometric sum.

    The winding flips sign exactly (no modular wrap); only the output path is
    reduced modulo the dimension.
    """
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    if not 0 <= path < dimension:
        raise DomainError(f"path {path} outside [0, {dimension - 1}]")
    if Direction.coerce(direction) is Direction.FORWARD:
        return -oam, (-oam - path) % dimension
    return -oam, (oam - path) % dimension


def default_oam_values(dimension: int) -> tuple[int, ...]:
    """Window closed under one sign flip for basis windings ``0..D-1``."""
    return tuple(range(-(dimension - 1), dimension))


def device_basis(dimension: int) -> list[ModeLabel]:
    """Enumeration basis over ``default_oam_values``: path ascending, then
    OAM ascending (polarization is a spectator for every device, so only H
    labels are enumerated)."""
    values = default_oam_values(dimension)
    return [
        ModeLabel(path, oam) for path in range(dimension) for oam in values
    ]


@lru_cache(maxsize=None)
def _basis_columns(dimension: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The labels of :func:`device_basis` as int64 path and winding
    columns, and the position of label ``(p, l)`` in it at ``position[p,
    l - lowest]``, ``lowest`` being the smallest basis winding."""
    basis = device_basis(dimension)
    path = np.array([label.path for label in basis], dtype=np.int64)
    winding = np.array([label.oam for label in basis], dtype=np.int64)
    values = default_oam_values(dimension)
    position = np.zeros((dimension, len(values)), dtype=np.int64)
    position[path, winding - values[0]] = np.arange(len(basis))
    for column in (path, winding, position):
        column.setflags(write=False)
    return path, winding, position


@lru_cache(maxsize=None)
def _closed_form_walk(dimension: int, direction: Direction) -> np.ndarray:
    """Each basis photon ``|l>_n`` (``0 <= n, l < D``, path first) and its
    :func:`oambs_closed_form` image, as the two rows of a read-only array of
    positions in :func:`device_basis`: the one walk of both closed-form
    checks, read as data by verify's matrix checks (``cli._closed_form_error``)
    and by the netlist certification.  They keep numpy's and Python's phase
    quotients, which differ in the last bit, so printed errors keep their
    bits.  Only a :class:`Direction` reaches the cache; anything else raises.
    """
    if not isinstance(direction, Direction):
        raise DomainError(f"not a direction: {direction!r}")
    position = _basis_columns(dimension)[2]
    lowest = default_oam_values(dimension)[0]
    photons, images = [], []
    for path in range(dimension):
        for oam in range(dimension):
            out_oam, out_path = oambs_closed_form(oam, path, dimension, direction)
            photons.append(position[path, oam - lowest])
            images.append(position[out_path, out_oam - lowest])
    walk = np.array([photons, images], dtype=np.intp)
    walk.setflags(write=False)
    return walk


def device_matrix(
    device: CompositeDevice | SymmetricMultiport | DoveStage,
) -> np.ndarray:
    """Explicit matrix of ``device`` over the :func:`device_basis` labels.

    A device with ``label_images`` (a tabled :class:`CompositeDevice`, a
    bank) gives the images of the whole basis in one gather, and each
    column receives its one entry as the label loop would add it to zero.
    A bare :class:`SymmetricMultiport` places every label's ``D`` images
    straight from the cached Fourier matrix in one scatter: the factors
    ``transit`` would multiply by ``1+0j``, which changes no bit but the
    sign of a zero part, each added to zero (which makes every zero part
    ``+0.0``) and pruned at ``PRUNE_TOL``, as the label loop does.  Any
    other device, and a gather whose images leave the basis, goes label by
    label through ``mode_images``.  Images falling outside the basis
    raise :class:`DomainError`, naming the first basis label that has one,
    and so does a matrix of more than ``MAX_MATRIX_ENTRIES`` entries,
    before it is built, and an argument that is not a mode operator with a
    ``dimension``.
    """
    if not (hasattr(device, "mode_images") and hasattr(device, "dimension")):
        raise DomainError(f"not a device: {type(device).__name__}")
    dimension = device.dimension
    values = default_oam_values(dimension)
    size = dimension * len(values)
    if size * size > MAX_MATRIX_ENTRIES:
        raise DomainError(
            f"a device matrix of {size * size} entries exceeds the bound of "
            f"{MAX_MATRIX_ENTRIES} entries"
        )
    matrix = np.zeros((size, size), dtype=complex)
    if type(device) is SymmetricMultiport and size:
        # label |l>_p has image |+-l>_n with factor S[n, p] for every n;
        # the windings +-l stay in the basis, whose window is symmetric
        path, winding, position = _basis_columns(dimension)
        image_winding = -winding if device.parity_flip else winding
        factors = _symmetric_matrix_cached(dimension)[:, path]
        kept = np.hypot(factors.real, factors.imag) > PRUNE_TOL
        rows = position[:, image_winding - values[0]]
        columns = np.broadcast_to(np.arange(size), rows.shape)
        matrix[rows[kept], columns[kept]] += factors[kept]
        return matrix
    gather = getattr(device, "label_images", None)
    if gather is not None and size:
        path, winding, position = _basis_columns(dimension)
        found = gather(path, winding)
        if found is not None:
            image_path, image_winding, re, im = found
            offset = image_winding - values[0]
            if (
                int(image_path.max()) < dimension
                and int(offset.min()) >= 0
                and int(offset.max()) < len(values)
            ):
                amplitudes = np.ones(size, dtype=complex)
                if re is not None:
                    amplitudes.real, amplitudes.imag = re, im
                matrix[position[image_path, offset], np.arange(size)] += amplitudes
                return matrix
    basis = device_basis(dimension)
    index = {label: i for i, label in enumerate(basis)}
    for j, label in enumerate(basis):
        for image, amplitude in device.mode_images(label):
            i = index.get(image)
            if i is None:
                raise DomainError(
                    f"basis not closed: {label} maps onto {image}"
                )
            matrix[i, j] += amplitude
    return matrix


def is_generalized_permutation(
    matrix: np.ndarray, tol: float = GENPERM_TOL
) -> tuple[bool, dict[int, tuple[int, complex]] | None]:
    """Whether ``matrix`` maps each basis vector to one basis vector.

    Returns ``(True, witness)`` where ``witness[input] = (output, phase)``
    when every column holds exactly one entry of unit modulus (within
    ``tol``) with all others below ``tol`` and no two columns share an
    output row; ``(False, None)`` otherwise.
    """
    array = np.asarray(matrix)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise DomainError(f"matrix must be square, got shape {array.shape}")
    magnitude = np.abs(array)
    big = magnitude >= tol
    # one large entry in every column and every row: the columns' outputs
    # are distinct rows
    if not ((big.sum(axis=0) == 1).all() and (big.sum(axis=1) == 1).all()):
        return False, None
    inputs, outputs = np.nonzero(big.T)
    if (np.abs(magnitude[outputs, inputs] - 1.0) > tol).any():
        return False, None
    return True, {
        j: (i, complex(array[i, j])) for j, i in zip(inputs.tolist(), outputs.tolist())
    }


def global_phase_error(candidate: np.ndarray, target: np.ndarray) -> float:
    """``max |candidate - e^{i*gamma}*target|`` for the phase gamma that
    aligns ``candidate`` with ``target`` at the target's largest-magnitude
    entry.  Raises :class:`DomainError` unless both are non-empty arrays of
    one shape."""
    candidate, target = np.asarray(candidate), np.asarray(target)
    if candidate.shape != target.shape or not target.size:
        raise DomainError(
            "need two non-empty arrays of one shape, got "
            f"{candidate.shape} and {target.shape}"
        )
    at = np.unravel_index(int(np.argmax(np.abs(target))), target.shape)
    gamma = float(np.angle(candidate[at]) - np.angle(target[at]))
    return float(np.max(np.abs(candidate - np.exp(1j * gamma) * target)))


__all__ = [
    "CompositeDevice",
    "DoveStage",
    "GENPERM_TOL",
    "Stage",
    "SymmetricMultiport",
    "UNITARITY_TOL",
    "default_oam_values",
    "device_basis",
    "device_matrix",
    "global_phase_error",
    "is_generalized_permutation",
    "oambs",
    "oambs_closed_form",
    "sbmao",
    "symmetric_matrix",
]
