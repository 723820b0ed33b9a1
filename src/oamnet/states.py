"""Sparse photon states over path / orbital-angular-momentum / polarization modes.

A single-photon mode is labeled by its spatial path index, its integer OAM
winding number, and its polarization.  States store only nonzero complex
amplitudes, keyed by :class:`ModeLabel` for one photon and by ordered tuples
of labels (one slot per photon) for few-photon ensembles.  A label is itself
a named tuple ``(path, oam, pol)``: it hashes and compares in C, and equals
the plain tuple with the same three entries.

Winding numbers are true signed integers.  Devices routinely produce negative
values (every reflection flips the sign) and routing formulas reduce them
modulo the path count only where they must; the state itself never wraps.

Multi-photon states use distinguishable slots: each slot evolves on its own.
That is exact while an operator sends the occupied labels one to one, each
onto a single label, as the composite devices of this package do; the
networks check it on every crossing and raise
:class:`~oamnet.errors.BunchingError` otherwise.  Where a label fans out,
``apply_mode_map`` computes distinguishable photons, without the exchange
symmetry of identical ones, and raises only for a row holding one label in
two slots above ``BUNCHING_TOL``.  So a polarization singlet
``(|0,H>|1,V> - |0,V>|1,H>)/sqrt(2)`` through a 50:50 beamsplitter on paths
0 and 1 puts both photons on one path with probability 0.5, where identical
photons never would.

An ensemble is stored as columns (:class:`EnsembleAmplitudes`): the labels
its tuples use, as an int64 path column, an int64 winding column and a bool
V-polarization column indexed by label code; an int64 code matrix with one
row per tuple and one column per slot; and two float64 arrays with each
row's real and imaginary part.  The labels as a list of :class:`ModeLabel`
values is a view, built from the columns when first read.  Paths and
windings stay within ``LABEL_BOUND`` (2**62), which every
:meth:`ModeSpace.check_label` enforces, so the columns never wrap.
:func:`tensor`, :func:`apply_mode_map` and :func:`fidelity` work on the
columns with a few numpy calls per slot.  ``amplitudes`` stays a read-only
mapping from label tuples to complex amplitudes: ``len()`` is free, and the
tuple-keyed dict is built only when something iterates or looks up.

``apply_mode_map`` finds the images of every label once per call
(:func:`_label_images`).  An operator with ``label_images`` answers with
array gathers on the label columns: a tabled
:class:`~oamnet.multiport.CompositeDevice` reads a dense (path, winding mod
D) table of image paths and factors, and the hologram and reflector banks
add their shifts by path.  Every other operator, and any call whose
gathered images fail the path, window or bound check, goes label by label
through ``mode_images`` and ``check_label``, in the order the prefix
expansion meets the labels, so the same first error is raised.

When each label has one image and every factor is exactly ``1+0j`` (the
banks), the slot products are skipped.  That is bit-exact for finite
amplitudes: ``re*1 - im*0`` and ``re*0 + im*1`` equal ``re`` and ``im``
except that a zero part may change sign, later split-form products keep
the results equal up to the signs of zeros, and every result then passes
through ``0.0 + x`` or a sum from ``0.0``, which makes every zero ``+0.0``.
The moduli do not change, so ``PRUNE_TOL`` drops the same rows, and when
no row drops the norm check is skipped too: the state passed it with the
same moduli.  Each step keeps its result's smallest amplitude modulus for
the pruning test of the next.

Column arithmetic reproduces the plain dict loops bit for bit, in key order
and down to the signs of zeros.  Products are formed in split form,
``re*fr - im*fi`` and ``re*fi + im*fr``, one slot after another in slot
order, because that is exactly what Python's complex multiply does, while
numpy's complex multiply may round the last bit differently.  Sums of
amplitudes start from ``0.0`` and add in row order, as sums from ``0j`` do.
Moduli come from ``np.hypot(re, im)``, which is Python's ``abs`` of a
complex value (and numpy's scalar ``abs``), never from ``np.abs`` of a
complex array: numpy's vectorized complex ``abs`` may differ from it in the
last bit, as it did on a quarter to a third of random values on AVX-512
hosts.  One fan-out (:func:`_fan_out`, a row into its label's images) and
one row merge (:func:`_sum_equal_rows`) serve both ensemble evolution and
the netlist certification of :mod:`oamnet.netlist`.  Evolution merges equal
rows, and :func:`fidelity` joins two ensembles' rows, by one int64 row key
(:func:`_row_key`), with no dict of row tuples.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Protocol

import numpy as np

from .errors import (
    BunchingError,
    DomainError,
    NormalizationError,
    OamNetError,
    WindowOverflowError,
)

NORM_TOL = 1e-9
PRUNE_TOL = 1e-15
BUNCHING_TOL = 1e-12
# paths and |windings| a state may hold, so that label columns are int64 and
# a winding plus a bank shift of at most half the bound cannot wrap
LABEL_BOUND = 2**62
# rows an ensemble step may allocate: a D=20 MUX round trip (2**20 tuples)
# still fits, a larger one raises DomainError before anything is allocated
MAX_ENSEMBLE_ROWS = 2**20

# dot products down the rows, one per column
_column_dot = functools.partial(np.einsum, "i...,i...->...")


class Polarization(Enum):
    """Photon polarization. Every element here treats it as a spectator."""

    H = "H"
    V = "V"

    # Members are singletons, so identity is an exact hash, and a C-level
    # one unlike Enum's own.
    __hash__ = object.__hash__


H = Polarization.H
V = Polarization.V


class ModeLabel(NamedTuple):
    """One single-photon mode: (path, winding number, polarization).

    A tuple, so hashing and equality run in C; a label equals (and hashes
    as) the plain tuple ``(path, oam, pol)``.
    """

    path: int
    oam: int
    pol: Polarization = H

    def __str__(self) -> str:
        return f"|{self.oam}^{self.pol.value}>_{self.path}"


def label_key(label: ModeLabel) -> tuple[int, int, str]:
    """Sort key: path ascending, then OAM ascending, then H before V."""
    return (label.path, label.oam, label.pol.value)


@dataclass(frozen=True)
class ModeSpace:
    """Declared mode space: paths ``0..dimension-1``, ``|oam| <= oam_window``.

    The window turns runaway winding numbers into loud errors instead of
    silently growing supports.  Four times the path count leaves room for
    every device chain built here, since no pipeline shifts a winding by
    more than a few multiples of the dimension.  Whatever the window, a
    label's path and |winding| stay within ``LABEL_BOUND`` (2**62), so that
    an ensemble's label columns hold them as int64; a winding beyond it
    raises :class:`DomainError`.  Both fields are kept as Python ints.
    """

    dimension: int
    oam_window: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", _dimension(self.dimension))
        if self.dimension > LABEL_BOUND:
            raise DomainError(f"dimension must be <= 2**62, got {self.dimension}")
        window = 4 * self.dimension if self.oam_window is None else self.oam_window
        object.__setattr__(self, "oam_window", _integer(window, "oam_window"))
        if self.oam_window < 0:
            raise DomainError(f"oam_window must be >= 0, got {self.oam_window}")

    def check_label(self, label: ModeLabel) -> None:
        if not 0 <= label.path < self.dimension:
            raise DomainError(
                f"path {label.path} outside [0, {self.dimension - 1}]"
            )
        winding = abs(label.oam)
        if winding > self.oam_window:
            raise WindowOverflowError(
                f"winding number {label.oam} outside window "
                f"[{-self.oam_window}, {self.oam_window}]"
            )
        if winding > LABEL_BOUND:
            raise DomainError(
                f"winding number {label.oam} beyond the label bound 2**62"
            )


def _integer(value: object, name: str) -> int:
    """``value`` by ``operator.index``, which a bool may not pass."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise DomainError(f"not an integer {name}: {type(value).__name__}")


def _dimension(value: object) -> int:
    """``value`` as a path count: an integer (:func:`_integer`) of at least 1."""
    dimension = _integer(value, "dimension")
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    return dimension


class ModeOperator(Protocol):
    """Anything that maps one mode label to a sparse list of (label, amplitude).

    An operator may also offer a whole-map ``transit(amplitudes)``, taking
    and returning a sparse ``{label: amplitude}`` dict, by deriving from
    :class:`WholeMapOperator`; :func:`compose_images` then sends the whole
    map through it in one call instead of one label at a time.

    For ensembles, an operator may also offer ``label_images(path,
    winding)``, which takes a label column pair (int64 arrays) and returns
    ``(path, winding, re, im)``: each label's one image and the parts of its
    factor, exactly as ``mode_images`` gives them, with the polarization
    kept and distinct labels sent to distinct images.  ``re`` and ``im`` are
    ``None`` when every factor is exactly ``1+0j``.  It returns ``None``
    when it cannot answer for every label; ``mode_images`` then serves them
    one by one.
    """

    def mode_images(
        self, label: ModeLabel
    ) -> Iterable[tuple[ModeLabel, complex]]: ...


class WholeMapOperator:
    """Base of operators that map a whole sparse amplitude dict at once.

    ``transit(amplitudes)`` must return what the label-wise loop of
    :func:`compose_images` makes of ``amplitudes``: every image of every
    input label, summed as ``0j + amp * factor + ...`` in input order and
    keyed in first-insertion order, with sums at or below ``PRUNE_TOL``
    dropped.  By default ``mode_images`` is its one-label case.  Keys are
    :class:`ModeLabel` tuples; since a label equals its plain
    ``(path, oam, pol)`` tuple, either finds the same entry.
    """

    def transit(
        self, amplitudes: Mapping[ModeLabel, complex]
    ) -> dict[ModeLabel, complex]:
        raise NotImplementedError

    def mode_images(self, label: ModeLabel) -> list[tuple[ModeLabel, complex]]:
        return list(self.transit({label: 1.0 + 0j}).items())


@dataclass(frozen=True)
class QubitSpec:
    """Polarization qubit: ``alpha`` on H, ``beta`` on V, unit norm."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        try:
            # a number too large for a float has an infinite norm too
            object.__setattr__(self, "alpha", _number(self.alpha))
            object.__setattr__(self, "beta", _number(self.beta))
            norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        except OverflowError:
            norm_sq = math.inf
        _require_unit_norm(norm_sq, "|alpha|^2 + |beta|^2")


def _number(value: object) -> complex:
    """``value`` by ``complex()``, which a string may not pass."""
    if not isinstance(value, str):
        with suppress(TypeError):
            return complex(value)
    raise DomainError(f"not a number: {type(value).__name__}")


@dataclass(frozen=True)
class PhotonState:
    """One photon as a sparse map from mode labels to complex amplitudes.

    Construction prunes entries with magnitude at or below ``PRUNE_TOL``,
    validates every label against ``space`` and requires unit norm within
    ``NORM_TOL``.  Instances are immutable values; treat ``amplitudes`` as
    read-only.
    """

    space: ModeSpace
    amplitudes: Mapping[ModeLabel, complex]

    def __post_init__(self) -> None:
        clean: dict[ModeLabel, complex] = {}
        norm_sq = 0.0
        try:
            for label, raw in self.amplitudes.items():
                amp = complex(raw)
                modulus = abs(amp)
                if modulus <= PRUNE_TOL:
                    continue
                self.space.check_label(label)
                clean[label] = amp
                norm_sq += modulus ** 2
        except OverflowError:
            norm_sq = math.inf
        _require_unit_norm(norm_sq, "photon norm^2")
        object.__setattr__(self, "amplitudes", clean)

    def amplitude(self, label: ModeLabel) -> complex:
        return self.amplitudes.get(label, 0j)

    def labels(self) -> list[ModeLabel]:
        return sorted(self.amplitudes, key=label_key)

    def __str__(self) -> str:
        terms = [
            f"({self.amplitudes[label]:.6g}){label}" for label in self.labels()
        ]
        return " + ".join(terms) if terms else "0"


class _LabelColumns(NamedTuple):
    """Labels as an int64 path column, an int64 winding column and a bool
    column that is true for V polarization."""

    path: np.ndarray
    winding: np.ndarray
    vpol: np.ndarray

    @classmethod
    def of(cls, labels: list[ModeLabel]) -> "_LabelColumns":
        """Columns of labels that passed ``check_label``, so they fit int64."""
        return cls(
            np.array([label.path for label in labels], dtype=np.int64),
            np.array([label.oam for label in labels], dtype=np.int64),
            np.array([label.pol is V for label in labels], dtype=bool),
        )

    def take(self, used: np.ndarray) -> "_LabelColumns":
        """The labels where ``used`` is true."""
        return _LabelColumns(*(column[used] for column in self))


class EnsembleAmplitudes(Mapping):
    """Read-only ``{label tuple: amplitude}`` view of an ensemble's columns.

    ``path``, ``winding`` and ``vpol`` give each label code's path, winding
    number and whether its polarization is V; ``codes`` is an int64 matrix
    with one row per tuple and one column per slot whose entries are label
    codes, and ``re`` and ``im`` are 1-D float64 arrays holding each row's
    amplitude.  ``labels`` lists the codes' labels as :class:`ModeLabel`
    values, built from the columns on first use and kept, and so is the
    smallest amplitude modulus unless the step that made the columns gave
    it.  ``len()`` is the row count and builds nothing; the tuple-keyed
    dict behind every other read is built on first use and kept.  The
    arrays are not writeable.
    """

    __slots__ = (
        "path", "winding", "vpol", "codes", "re", "im", "_named", "_dict", "_low"
    )

    def __init__(
        self,
        labels: _LabelColumns,
        codes: np.ndarray,
        re: np.ndarray,
        im: np.ndarray,
        low: float | None = None,
    ) -> None:
        self.path, self.winding, self.vpol = labels
        self._named: list[ModeLabel] | None = None
        for column in (self.path, self.winding, self.vpol, codes, re, im):
            column.setflags(write=False)
        self.codes = codes
        self.re = re
        self.im = im
        self._dict: dict[tuple[ModeLabel, ...], complex] | None = None
        self._low = low

    def _smallest_modulus(self) -> float:
        """The smallest amplitude modulus, from the step that built the
        columns or else computed once."""
        if self._low is None:
            self._low = float(np.hypot(self.re, self.im).min())
        return self._low

    @property
    def labels(self) -> list[ModeLabel]:
        if self._named is None:
            self._named = self._build_labels(self.path, self.winding, self.vpol)
        return self._named

    @staticmethod
    def _build_labels(
        path: np.ndarray, winding: np.ndarray, vpol: np.ndarray
    ) -> list[ModeLabel]:
        """The labels of label columns (see :class:`_LabelColumns`)."""
        pols = (H, V)
        return [
            ModeLabel(p, w, pols[v])
            for p, w, v in zip(path.tolist(), winding.tolist(), vpol.tolist())
        ]

    def _mapping(self) -> dict[tuple[ModeLabel, ...], complex]:
        if self._dict is None:
            labels = self.labels
            keys = [tuple([labels[c] for c in row]) for row in self.codes.tolist()]
            values = map(complex, self.re.tolist(), self.im.tolist())
            self._dict = dict(zip(keys, values))
        return self._dict

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, key: tuple[ModeLabel, ...]) -> complex:
        return self._mapping()[key]

    def __iter__(self) -> Iterator[tuple[ModeLabel, ...]]:
        return iter(self._mapping())

    def __repr__(self) -> str:
        return repr(self._mapping())


@dataclass(frozen=True)
class EnsembleState:
    """Few photons in distinguishable slots: amplitudes over label tuples.

    Every stored tuple has exactly ``slot_count`` entries and pairwise
    distinct labels; see the module docstring for why duplicates are
    rejected rather than symmetrized.  The constructor takes any mapping
    from label tuples to amplitudes and runs every check on it.  The state
    is kept as columns, one row per tuple (the module docstring gives the
    layout and its arithmetic), and ``amplitudes`` is the read-only
    :class:`EnsembleAmplitudes` view of them.
    """

    space: ModeSpace
    slot_count: int
    amplitudes: Mapping[tuple[ModeLabel, ...], complex]

    def __post_init__(self) -> None:
        if self.slot_count < 1:
            raise DomainError(f"slot_count must be >= 1, got {self.slot_count}")
        index: dict[ModeLabel, int] = {}
        codes: list[int] = []
        re: list[float] = []
        im: list[float] = []
        norm_sq = 0.0
        try:
            for labels, raw in self.amplitudes.items():
                # a bare label is itself a tuple, so check what each slot holds
                if not isinstance(labels, tuple) or not all(
                    isinstance(label, ModeLabel) for label in labels
                ):
                    raise DomainError(
                        f"ensemble key {labels!r} is not a tuple of ModeLabels"
                    )
                amp = complex(raw)
                modulus = abs(amp)
                if modulus <= PRUNE_TOL:
                    continue
                if len(labels) != self.slot_count:
                    raise DomainError(
                        f"tuple arity {len(labels)} != slot_count {self.slot_count}"
                    )
                if len(set(labels)) != len(labels):
                    raise BunchingError(
                        "two slots share the label "
                        + str(_first_duplicate(labels))
                    )
                for label in labels:
                    self.space.check_label(label)
                codes.extend(index.setdefault(label, len(index)) for label in labels)
                re.append(amp.real)
                im.append(amp.imag)
                norm_sq += modulus ** 2
        except OverflowError:
            norm_sq = math.inf
        _require_unit_norm(norm_sq, "ensemble norm^2")
        columns = EnsembleAmplitudes(
            _LabelColumns.of(list(index)),
            np.array(codes, dtype=np.int64).reshape(-1, self.slot_count),
            np.array(re, dtype=np.float64),
            np.array(im, dtype=np.float64),
        )
        object.__setattr__(self, "amplitudes", columns)

    @classmethod
    def _from_columns(
        cls,
        space: ModeSpace,
        slot_count: int,
        labels: _LabelColumns,
        codes: np.ndarray,
        re: np.ndarray,
        im: np.ndarray,
        low: float,
    ) -> "EnsembleState":
        """Wrap columns that already passed every check of ``__post_init__``
        and whose smallest amplitude modulus is ``low``."""
        state = object.__new__(cls)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "slot_count", slot_count)
        columns = EnsembleAmplitudes(labels, codes, re, im, low)
        object.__setattr__(state, "amplitudes", columns)
        return state

    def amplitude(self, labels: tuple[ModeLabel, ...]) -> complex:
        return self.amplitudes.get(tuple(labels), 0j)

    def occupied_labels(self) -> list[ModeLabel]:
        """Distinct labels held by some slot, in order of first appearance
        (tuple by tuple, then slot by slot)."""
        columns = self.amplitudes
        flat = columns.codes.ravel()
        first, _ = _first_rows(flat, len(columns.path))
        labels = columns.labels
        return [labels[code] for code in flat[first].tolist()]

    def tuples(self) -> list[tuple[ModeLabel, ...]]:
        return sorted(
            self.amplitudes, key=lambda t: tuple(label_key(l) for l in t)
        )

    def __str__(self) -> str:
        parts = []
        for labels in self.tuples():
            joint = "".join(str(l) for l in labels)
            parts.append(f"({self.amplitudes[labels]:.6g}){joint}")
        return " + ".join(parts) if parts else "0"


def _require_unit_norm(norm_sq: float, what: str) -> None:
    """Raise :class:`NormalizationError` unless ``norm_sq`` lies within
    ``NORM_TOL`` of 1.

    Callers sum Python's ``modulus ** 2`` in order from ``0.0`` (numpy's
    ``x * x`` does not always match its last bit) and pass ``math.inf``
    when an amplitude is too large for its modulus or square to be a
    float.  A NaN norm fails.
    """
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise NormalizationError(f"{what} = {norm_sq!r}, expected 1")


def _first_duplicate(labels: Sequence[ModeLabel]) -> ModeLabel:
    seen: set[ModeLabel] = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    raise AssertionError("no duplicate present")


def make_qubit_photon(
    spec: QubitSpec, path: int, oam: int, space: ModeSpace
) -> PhotonState:
    """Photon on one (path, winding) carrying ``spec`` in its polarization;
    :class:`DomainError` when ``spec`` is not a :class:`QubitSpec`."""
    if not isinstance(spec, QubitSpec):
        raise DomainError(f"not a QubitSpec: {type(spec).__name__}")
    return PhotonState(
        space,
        {
            ModeLabel(path, oam, H): spec.alpha,
            ModeLabel(path, oam, V): spec.beta,
        },
    )


def fidelity(
    a: PhotonState | EnsembleState, b: PhotonState | EnsembleState
) -> float:
    """Squared overlap ``|<a|b>|^2``; symmetric in its arguments.

    States normalized within ``NORM_TOL`` have ``|<a|b>| <= 1 + NORM_TOL``,
    and a result that rounding lifts above 1 is clamped to 1.  Raises
    :class:`NormalizationError` when ``|<a|b>|`` exceeds that bound, which
    only a state that bypassed its constructor's checks can do, and
    :class:`DomainError` when an argument is not a state, when the states
    are of different kinds or when the ensembles disagree on slot count.
    """
    for state in (a, b):
        if not isinstance(state, (PhotonState, EnsembleState)):
            raise DomainError(f"not a state: {type(state).__name__}")
    if isinstance(a, PhotonState) != isinstance(b, PhotonState):
        raise DomainError("cannot compare a single photon with an ensemble")
    if isinstance(a, EnsembleState):
        if a.slot_count != b.slot_count:
            raise DomainError(
                f"slot counts differ: {a.slot_count} vs {b.slot_count}"
            )
        overlap = _ensemble_overlap(a.amplitudes, b.amplitudes)
    else:
        overlap = 0j
        for key, amp in a.amplitudes.items():
            other = b.amplitudes.get(key)
            if other is not None:
                overlap += amp.conjugate() * other
    (value,) = _overlap_fidelities([overlap])
    return value


def _overlap_fidelities(overlaps: Iterable[complex]) -> list[float]:
    """``|<a|b>|^2`` of each overlap ``<a|b>``, clamped to 1 as in
    :func:`fidelity`, which also says when it raises."""
    values = []
    for overlap in overlaps:
        modulus = abs(overlap)
        if modulus > 1.0 + NORM_TOL:
            raise NormalizationError(
                f"|<a|b>| = {modulus!r} exceeds 1: a state is not normalized"
            )
        values.append(min(1.0, modulus ** 2))
    return values


def _ensemble_overlap(a: EnsembleAmplitudes, b: EnsembleAmplitudes) -> complex:
    """``<a|b>``: each row of ``a`` joined to the equal row of ``b`` by one
    :func:`_row_key` of both, adding ``conj(a) * b`` in split form and in
    ``a``'s row order."""
    index = {label: code for code, label in enumerate(a.labels)}
    # a label that a lacks gets a code that no row of a holds
    b_codes = np.array(
        [index.get(label, len(index)) for label in b.labels], dtype=np.int64
    )[b.codes]
    codes = np.concatenate((a.codes, b_codes))
    first, rank = _first_rows(*_row_key(codes, len(index) + 1))
    # rows of one ensemble are distinct, so each rank names one row of b
    b_row = np.full(len(first), -1)
    b_row[rank[len(a) :]] = np.arange(len(b))
    match = b_row[rank[: len(a)]]
    found = match >= 0
    ar, ai = a.re[found], a.im[found]
    br, bi = b.re[match[found]], b.im[match[found]]
    if not len(ar):
        return 0j
    nai = -ai
    # a running sum, as the dict loop's; a pairwise sum rounds differently
    re = np.add.accumulate(ar * br - nai * bi)[-1]
    im = np.add.accumulate(ar * bi + nai * br)[-1]
    return complex(re, im)


def tensor(photons: Sequence[PhotonState]) -> EnsembleState:
    """Product state of independent photons; slot order follows list order.

    Rows grow photon by photon, each row by each of the photon's labels in
    turn, with split-form products; products at or below ``PRUNE_TOL`` drop
    out as they form.
    """
    if not photons:
        raise DomainError("tensor of an empty photon list")
    # Every photon's label codes and factors, one photon after another.  A
    # product over the first photons is at least the product of their
    # smallest moduli, give or take a rounding far under the factor 2, so
    # while that stays above 2 * PRUNE_TOL nothing can drop out: those
    # photons grow the rows in groups of at most 32, within the 64 axes of
    # np.unravel_index, and the rest one by one with pruning.
    index: dict[ModeLabel, int] = {}
    label_codes: list[int] = []
    factors: list[complex] = []
    starts: list[int] = []
    floor, safe = 1.0, 0
    for photon in photons:
        if not isinstance(photon, PhotonState):
            raise DomainError(f"not a photon state: {type(photon).__name__}")
        if photon.space != photons[0].space:
            raise DomainError("all photons must share one mode space")
        amplitudes = photon.amplitudes
        starts.append(len(label_codes))
        label_codes += [index.setdefault(label, len(index)) for label in amplitudes]
        factors += amplitudes.values()
        floor *= min(map(abs, amplitudes.values()))
        if safe == len(starts) - 1 and floor > 2 * PRUNE_TOL:
            safe += 1
    starts.append(len(label_codes))
    # counted as a whole, so that a refusal names every safe photon's rows
    _require_row_bound(math.prod(starts[p + 1] - starts[p] for p in range(safe)))
    groups = [range(p, min(p + 32, safe)) for p in range(0, safe, 32)]
    groups += [range(p, p + 1) for p in range(safe, len(photons))]
    label_codes = np.array(label_codes, dtype=np.int64)
    factors = np.array(factors, dtype=np.complex128)
    offsets = np.array(starts, dtype=np.int64)
    codes = np.empty((1, 0), dtype=np.int64)
    re, im = np.ones(1), np.zeros(1)
    for group in groups:
        # every row times every combination of the group's labels, in
        # row-major order; picks index the flat label and factor arrays
        shape = (len(re), *(starts[p + 1] - starts[p] for p in group))
        _require_row_bound(math.prod(shape))
        row, *digits = np.unravel_index(np.arange(math.prod(shape)), shape)
        picks = np.array(digits) + offsets[group.start : group.stop, None]
        codes = np.concatenate((codes[row], label_codes[picks].T), axis=1)
        re, im = re[row], im[row]
        # gather the factors of as many slots at a time as fit in
        # MAX_ENSEMBLE_ROWS amplitudes, so a group's gathers stay bounded
        step = max(1, MAX_ENSEMBLE_ROWS // len(re))
        for first in range(0, len(picks), step):
            chunk = picks[first : first + step]
            for fr, fi in zip(factors.real[chunk], factors.imag[chunk]):
                re, im = re * fr - im * fi, re * fi + im * fr
        if group.stop > safe:
            codes, re, im = _drop(np.hypot(re, im) > PRUNE_TOL, codes, re, im)
    labels = list(index)
    if len(labels) != len(label_codes):
        # two slots share a label: reject the first tuple holding it twice
        bunched = np.flatnonzero(_bunched_rows(codes))
        if len(bunched):
            row_labels = [labels[code] for code in codes[bunched[0]].tolist()]
            raise BunchingError(
                "two slots share the label " + str(_first_duplicate(row_labels))
            )
    magnitude = np.hypot(re, im)
    _require_unit_moduli(magnitude)
    columns = _LabelColumns.of(labels)
    if safe < len(photons):
        columns, codes = _occupied(columns, codes)
    return EnsembleState._from_columns(
        photons[0].space, len(photons), columns, codes, re, im,
        float(magnitude.min()),
    )


def compose_images(
    operators: Sequence[ModeOperator], label: ModeLabel
) -> list[tuple[ModeLabel, complex]]:
    """Image of one label under a chain of operators, applied left to right.

    A :class:`WholeMapOperator` (the ``SymmetricMultiport`` and
    ``DoveStage`` stages) takes the whole intermediate map in one
    ``transit`` call; any other operator is applied label by label.
    """
    current: dict[ModeLabel, complex] = {label: 1.0 + 0j}
    for operator in operators:
        if isinstance(operator, WholeMapOperator):
            current = operator.transit(current)
            continue
        mode_images = operator.mode_images
        grown: dict[ModeLabel, complex] = {}
        for lbl, amp in current.items():
            for image, factor in mode_images(lbl):
                grown[image] = grown.get(image, 0j) + amp * factor
        current = {l: a for l, a in grown.items() if abs(a) > PRUNE_TOL}
    return list(current.items())


def apply_mode_map(
    state: PhotonState | EnsembleState, operator: ModeOperator
) -> PhotonState | EnsembleState:
    """Apply a single-photon linear operator to a state.

    Single photons evolve by plain linearity, ensembles slot by slot (the
    module docstring says what that computes).  An output tuple that
    collides two slots on one label with magnitude above ``BUNCHING_TOL``
    raises :class:`BunchingError`; collisions at or below it are numerical
    dust and are dropped.
    """
    if isinstance(state, PhotonState):
        return _apply_photon(state, operator)
    if isinstance(state, EnsembleState):
        return _apply_ensemble(
            state, _label_images(operator, state.amplitudes, state.space)
        )
    raise DomainError(f"not a state: {type(state).__name__}")


def _apply_photon(state: PhotonState, operator: ModeOperator) -> PhotonState:
    # the constructor prunes the summed amplitudes before it window-checks
    # their labels, so an image of zero amplitude is never checked
    out: dict[ModeLabel, complex] = {}
    for label, amp in state.amplitudes.items():
        for image, factor in operator.mode_images(label):
            out[image] = out.get(image, 0j) + amp * factor
    return PhotonState(state.space, out)


class _Images(NamedTuple):
    """Every label's images under one operator (see :func:`_label_images`).

    ``labels`` are the distinct images.  Label ``c``'s images sit at
    ``start[c]`` to ``start[c] + count[c] - 1`` of ``target`` (their codes
    in ``labels``) and of ``re`` and ``im`` (their factors' parts); a label
    in ``failures`` has none and keeps the exception its images raised.
    ``start`` and ``count`` are ``None`` when every label has one image, at
    its own code; ``target`` is ``None`` when that image's code in
    ``labels`` is also the label's own, and ``re`` and ``im`` are ``None``
    when every such image's factor is exactly ``1+0j``.  ``low`` is the
    smallest factor modulus and ``distinct`` whether no two labels share an
    image.
    """

    labels: _LabelColumns
    target: np.ndarray | None
    re: np.ndarray | None
    im: np.ndarray | None
    start: np.ndarray | None
    count: np.ndarray | None
    failures: dict[int, OamNetError]
    low: float
    distinct: bool


def _label_images(
    operator: ModeOperator, columns: EnsembleAmplitudes, space: ModeSpace
) -> _Images:
    """The images of every label of ``columns`` under ``operator``.

    An operator with ``label_images`` (a tabled device or a bank) answers
    for all labels in a few gathers, and one comparison per column checks
    every image against ``space``.  If it cannot answer, or some image
    fails the check, every label goes through ``mode_images`` and
    ``check_label`` instead, which record the same errors as the prefix
    expansion of the ensemble meets them.
    """
    gather = getattr(operator, "label_images", None)
    found = None if gather is None else gather(columns.path, columns.winding)
    if found is not None:
        path, winding, re, im = found
        if int(path.max()) < space.dimension and int(
            np.abs(winding).max()
        ) <= min(space.oam_window, LABEL_BOUND):
            low = 1.0 if re is None else float(np.hypot(re, im).min())
            images = _LabelColumns(path, winding, columns.vpol)
            return _Images(images, None, re, im, None, None, {}, low, True)

    # One mode_images call per label, kept as a (start, count) slice of the
    # flat image columns.  A label whose images raise keeps the exception,
    # which counts only where the expansion reaches that label.
    index: dict[ModeLabel, int] = {}
    starts: list[int] = []
    counts: list[int] = []
    failures: dict[int, OamNetError] = {}
    image_codes: list[int] = []
    image_re: list[float] = []
    image_im: list[float] = []
    low = 1.0
    check_label = space.check_label
    for code, label in enumerate(columns.labels):
        try:
            images = [
                (image, factor, modulus)
                for image, factor in operator.mode_images(label)
                if (modulus := abs(factor)) > PRUNE_TOL
            ]
            for image, _, _ in images:
                check_label(image)
        except OamNetError as exc:
            failures[code] = exc
            images = []
        starts.append(len(image_codes))
        counts.append(len(images))
        for image, factor, modulus in images:
            image_codes.append(index.setdefault(image, len(index)))
            image_re.append(factor.real)
            image_im.append(factor.imag)
            low = min(low, modulus)
    labels = list(index)
    target = np.array(image_codes, dtype=np.int64)
    re = np.array(image_re, dtype=np.float64)
    im = np.array(image_im, dtype=np.float64)
    start = count = None
    if failures or any(n != 1 for n in counts):
        start = np.array(starts, dtype=np.int64)
        count = np.array(counts, dtype=np.int64)
    elif (re == 1.0).all() and (im == 0.0).all():
        re = im = None
    return _Images(
        _LabelColumns.of(labels),
        target,
        re,
        im,
        start,
        count,
        failures,
        low,
        len(labels) == len(image_codes),
    )


def _apply_ensemble(state: EnsembleState, images: _Images) -> EnsembleState:
    """``state`` along the :func:`_label_images` of its labels, slot by slot
    as the prefix expansion goes tuple by tuple: a label of ``n`` images
    turns its row into ``n`` rows in image order, products at or below
    ``PRUNE_TOL`` drop out as they form, and a dropped row reaches none of
    its later slots' labels."""
    space = state.space
    columns = state.amplitudes
    codes, re, im = columns.codes, columns.re, columns.im
    # Every partial product is at least the smallest row modulus times
    # low ** slot_count, give or take a rounding far under the factor 2;
    # while that exceeds 2 * PRUNE_TOL, no product can drop out.
    prune = (
        columns._smallest_modulus() * images.low ** state.slot_count
        <= 2 * PRUNE_TOL
    )
    single = images.count is None
    if single:
        # A label's code is the index of its one image.  Rows are products
        # of elementwise factors, so an entry that drops out at some slot is
        # only marked dead, and all dead entries leave at the end.  Factors
        # of exactly 1+0j change no part but the sign of a zero, and the
        # sums from 0.0 below make every zero +0.0, so their products are
        # skipped; the moduli, and with them the pruning, stay the same.
        alive = None
        if images.re is not None:
            fr_all, fi_all = images.re[codes.T], images.im[codes.T]
            for slot in range(state.slot_count):
                fr, fi = fr_all[slot], fi_all[slot]
                re, im = re * fr - im * fi, re * fi + im * fr
                if prune:
                    keep = np.hypot(re, im) > PRUNE_TOL
                    alive = keep if alive is None else alive & keep
        elif prune:
            alive = np.hypot(re, im) > PRUNE_TOL
        if alive is not None:
            codes, re, im = _drop(alive, codes, re, im)
        if images.target is not None:
            codes = images.target[codes]
    else:
        failures = images.failures
        failed = np.zeros(len(images.count), dtype=bool)
        failed[list(failures)] = True
        codes = codes.copy()
        raised = None
        for slot in range(state.slot_count):
            column = codes[:, slot]
            hit = failed[column]
            if hit.any():
                # the expansion raises at the first row reaching a failed
                # label; only rows of earlier tuples can still raise first
                first = int(hit.argmax())
                raised = failures[int(column[first])]
                codes, re, im = codes[:first], re[:first], im[:first]
                column = column[:first]
            rows, pick = _fan_out(column, images.start, images.count)
            codes, re, im = codes[rows], re[rows], im[rows]
            fr, fi = images.re[pick], images.im[pick]
            re, im = re * fr - im * fi, re * fi + im * fr
            codes[:, slot] = images.target[pick]
            if prune:
                codes, re, im = _drop(np.hypot(re, im) > PRUNE_TOL, codes, re, im)
        if raised is not None:
            raise raised

    labels = images.labels
    # With one image per label and no two labels sharing one, distinct
    # tuples stay distinct and unbunched; otherwise equal rows are summed.
    # Either way each sum starts from 0.0, as the dict loop's from 0j.
    merge = not single or not images.distinct
    low = None
    if not merge:
        re, im = 0.0 + re, 0.0 + im
        if images.re is None and alive is None:
            # unit factors and no dropped row leave every modulus, and with
            # them the norm that the state passed, as they were
            low = columns._smallest_modulus()
        else:
            magnitude = np.hypot(re, im)
    else:
        key, bound = _row_key(codes, len(labels.path))
        first, re, im = _sum_equal_rows(key, re, im, bound)
        codes = codes[first]
        magnitude = np.hypot(re, im)
        bunched = _bunched_rows(codes)
        loud = np.flatnonzero(bunched & (magnitude > BUNCHING_TOL))
        if len(loud):
            named = EnsembleAmplitudes._build_labels(*labels)
            row_labels = [named[code] for code in codes[loud[0]].tolist()]
            raise BunchingError(
                "operator drove two slots onto "
                + str(_first_duplicate(row_labels))
                + f" with amplitude {float(magnitude[loud[0]]):.3e}"
            )
        keep = (magnitude > PRUNE_TOL) & ~bunched
        codes, re, im, magnitude = _drop(keep, codes, re, im, magnitude)
    if low is None:
        _require_unit_moduli(magnitude)
        low = float(magnitude.min())
    if prune or merge:
        labels, codes = _occupied(labels, codes)
    return EnsembleState._from_columns(
        space, state.slot_count, labels, codes, re, im, low
    )


def _fan_out(
    column: np.ndarray, start: np.ndarray, count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every row turned into its label's images, in row then image order.

    Label ``c``'s images sit at ``start[c]`` to ``start[c] + count[c] - 1``
    of flat image arrays, and row ``r`` holds label ``column[r]``.  Returns
    ``rows``, the source row of each image row, and ``pick``, the index of
    its image in the flat arrays.  More than ``MAX_ENSEMBLE_ROWS`` image
    rows raise :class:`DomainError` before they are allocated.
    """
    fan = count[column]
    ends = fan.cumsum()
    if len(ends):
        _require_row_bound(int(ends[-1]))
    rows = np.arange(len(column)).repeat(fan)
    pick = np.arange(len(rows)) + (start[column] - (ends - fan)).repeat(fan)
    return rows, pick


def _require_row_bound(rows: int) -> None:
    """Raise :class:`DomainError` for an ensemble step of more than
    ``MAX_ENSEMBLE_ROWS`` rows."""
    if rows > MAX_ENSEMBLE_ROWS:
        try:
            count = str(rows)
        except ValueError:  # more digits than int-to-str conversion allows
            count = f"at least 2**{rows.bit_length() - 1}"
        raise DomainError(
            f"an ensemble step of {count} rows exceeds the bound of "
            f"{MAX_ENSEMBLE_ROWS} rows"
        )


def _require_power_row_bound(exponent: int) -> None:
    """:func:`_require_row_bound` of ``2**exponent`` rows, the product rows
    of a MUX round of ``exponent`` users; a count past ``2**(2**24)`` is
    refused as that one is, so that none fills memory."""
    _require_row_bound(1 << min(exponent, 2**24))


# a first-appearance table may hold this many entries per row before the
# rows are sorted instead: it then costs no more memory than the few
# per-row arrays around it
_TABLE_PER_ROW = 16


def _first_rows(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct int64 ``key``, all keys lying in
    ``[0, bound)``, in order of first appearance, and each row's rank among
    those first rows.

    While ``bound`` is at most ``_TABLE_PER_ROW`` entries per row, a table
    of ``bound`` entries takes the smallest row index of each key, with no
    sort; otherwise a sort finds it.
    """
    rows = np.arange(len(key))
    if bound <= _TABLE_PER_ROW * len(key):
        table = np.full(bound, len(key))
        np.minimum.at(table, key, rows)
        first_of = table[key]
    else:
        _, first_of, inverse = np.unique(key, return_index=True, return_inverse=True)
        first_of = first_of[inverse.reshape(-1)]
    new = first_of == rows
    return new.nonzero()[0], (new.cumsum() - 1)[first_of]


def _row_key(codes: np.ndarray, labels: int) -> tuple[np.ndarray, int]:
    """An int64 key per row of ``codes`` (entries in ``[0, labels)``), equal
    exactly where the rows are, and a bound on the keys: the columns packed
    in mixed radix, renumbered by rank (below the row count) before a key
    could pass 2**62, so none wraps while rows times labels fit in int64."""
    key, bound = np.zeros(len(codes), dtype=np.int64), 1
    for column in codes.T:
        if bound * labels > LABEL_BOUND:
            values, key = np.unique(key, return_inverse=True)
            bound = len(values)
        key = key * labels + column
        bound *= labels
    return key, bound


def _sum_equal_rows(
    key: np.ndarray, re: np.ndarray, im: np.ndarray, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of equal int64 ``key``, in ``[0, bound)``, summed into the
    first of them (:func:`_first_rows`).

    Returns the first row of each sum, in order of first appearance, and
    the sums; each runs from 0.0 in row order (``bincount`` adds in input
    order), as a dict's sum from ``0j`` does.
    """
    first, group = _first_rows(key, bound)
    return (
        first,
        np.bincount(group, re, len(first)),
        np.bincount(group, im, len(first)),
    )


def _drop(
    keep: np.ndarray, codes: np.ndarray, *parts: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The rows where the mask ``keep`` is true."""
    return (codes[keep], *(part[keep] for part in parts))


def _occupied(
    labels: _LabelColumns, codes: np.ndarray
) -> tuple[_LabelColumns, np.ndarray]:
    """The labels some row still holds, with the codes renumbered to them;
    rows that dropped out may have held the others."""
    used = np.zeros(len(labels.path), dtype=bool)
    used[codes] = True
    if used.all():
        return labels, codes
    return labels.take(used), (np.cumsum(used) - 1)[codes]


def _bunched_rows(codes: np.ndarray) -> np.ndarray:
    """Whether each row holds some label in two slots."""
    ordered = np.sort(codes, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def _require_unit_moduli(moduli: np.ndarray) -> None:
    """The ensemble norm check on the kept amplitude moduli, down each
    column of ``moduli`` (an ensemble's 1-D moduli are one column).

    A dot product lands within a few ulp of the term-by-term sum of
    ``modulus ** 2`` that the constructor makes.  A column near or past the
    tolerance is redone term by term, so the decision and the message see
    exactly the constructor's sum; so is one whose dot product is NaN or
    overflows.
    """
    norms = _column_dot(moduli, moduli).reshape(-1)
    for column, norm in enumerate(norms.tolist()):
        if not abs(norm - 1.0) <= NORM_TOL / 2:
            columns = moduli.reshape(len(moduli), len(norms))
            norm_sq = 0.0
            try:
                for modulus in columns[:, column].tolist():
                    norm_sq += modulus ** 2
            except OverflowError:
                norm_sq = math.inf
            _require_unit_norm(norm_sq, "ensemble norm^2")


def path_probabilities(state: PhotonState) -> dict[int, float]:
    """Probability of finding the photon on each path (Born rule)."""
    if not isinstance(state, PhotonState):
        raise DomainError(f"not a photon state: {type(state).__name__}")
    probs: dict[int, float] = {}
    for label, amp in state.amplitudes.items():
        probs[label.path] = probs.get(label.path, 0.0) + abs(amp) ** 2
    return dict(sorted(probs.items()))


__all__ = [
    "BUNCHING_TOL",
    "EnsembleAmplitudes",
    "EnsembleState",
    "H",
    "ModeLabel",
    "ModeOperator",
    "ModeSpace",
    "NORM_TOL",
    "PRUNE_TOL",
    "PhotonState",
    "Polarization",
    "QubitSpec",
    "V",
    "WholeMapOperator",
    "apply_mode_map",
    "compose_images",
    "fidelity",
    "label_key",
    "make_qubit_photon",
    "path_probabilities",
    "tensor",
]
