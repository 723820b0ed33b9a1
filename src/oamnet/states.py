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

Multi-photon states use distinguishable slots.  That is exact as long as each
operator sends every occupied label to a single label (all composite devices
in this package do); driving two slots onto one label raises
:class:`~oamnet.errors.BunchingError` instead of silently producing wrong
interference terms.

An ensemble is stored as columns (:class:`EnsembleAmplitudes`): a list of
the labels its tuples use, an int64 code matrix with one row per tuple and
one column per slot whose entries index that list, and two float64 arrays
with each row's real and imaginary part.  :func:`tensor`,
:func:`apply_mode_map` and :func:`fidelity` work on the columns with a few
numpy calls per slot, and ``apply_mode_map`` computes the images of each
label once per call.  ``amplitudes`` stays a read-only mapping from label
tuples to complex amplitudes: ``len()`` is free, and the tuple-keyed dict is
built only when something iterates or looks up.

Column arithmetic reproduces the plain dict loops bit for bit, in key order
and down to the signs of zeros.  Products are formed in split form,
``re*fr - im*fi`` and ``re*fi + im*fr``, one slot after another in slot
order, because that is exactly what Python's complex multiply does, while
numpy's complex multiply may round the last bit differently.  Sums of
amplitudes start from ``0.0`` and add in row order, as sums from ``0j`` do.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
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
    more than a few multiples of the dimension.
    """

    dimension: int
    oam_window: int | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        if self.oam_window is None:
            object.__setattr__(self, "oam_window", 4 * self.dimension)
        if self.oam_window < 0:
            raise DomainError(f"oam_window must be >= 0, got {self.oam_window}")

    def check_label(self, label: ModeLabel) -> None:
        if not 0 <= label.path < self.dimension:
            raise DomainError(
                f"path {label.path} outside [0, {self.dimension - 1}]"
            )
        if abs(label.oam) > self.oam_window:
            raise WindowOverflowError(
                f"winding number {label.oam} outside window "
                f"[-{self.oam_window}, {self.oam_window}]"
            )


class ModeOperator(Protocol):
    """Anything that maps one mode label to a sparse list of (label, amplitude).

    An operator may also offer a whole-map ``transit(amplitudes)``, taking
    and returning a sparse ``{label: amplitude}`` dict, by deriving from
    :class:`WholeMapOperator`; :func:`compose_images` then sends the whole
    map through it in one call instead of one label at a time.
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
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"|alpha|^2 + |beta|^2 = {norm_sq!r}, expected 1"
            )


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
        for label, raw in self.amplitudes.items():
            amp = complex(raw)
            if abs(amp) <= PRUNE_TOL:
                continue
            self.space.check_label(label)
            clean[label] = amp
            norm_sq += abs(amp) ** 2
        _require_unit_norm(norm_sq, "photon")
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


class EnsembleAmplitudes(Mapping):
    """Read-only ``{label tuple: amplitude}`` view of an ensemble's columns.

    ``labels`` lists the mode labels the tuples use, ``codes`` is an int64
    matrix with one row per tuple and one column per slot whose entries
    index ``labels``, and ``re`` and ``im`` are float64 arrays holding each
    row's amplitude.  ``len()`` is the row count and builds nothing; the
    tuple-keyed dict behind every other read is built on first use and
    kept.  The arrays are not writeable.
    """

    __slots__ = ("labels", "codes", "re", "im", "_dict")

    def __init__(
        self,
        labels: list[ModeLabel],
        codes: np.ndarray,
        re: np.ndarray,
        im: np.ndarray,
    ) -> None:
        for column in (codes, re, im):
            column.setflags(write=False)
        self.labels = labels
        self.codes = codes
        self.re = re
        self.im = im
        self._dict: dict[tuple[ModeLabel, ...], complex] | None = None

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
        for labels, raw in self.amplitudes.items():
            # a bare label is itself a tuple, so check what each slot holds
            if not isinstance(labels, tuple) or not all(
                isinstance(label, ModeLabel) for label in labels
            ):
                raise DomainError(
                    f"ensemble key {labels!r} is not a tuple of ModeLabels"
                )
            amp = complex(raw)
            if abs(amp) <= PRUNE_TOL:
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
            norm_sq += abs(amp) ** 2
        _require_unit_norm(norm_sq, "ensemble")
        columns = EnsembleAmplitudes(
            list(index),
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
        labels: list[ModeLabel],
        codes: np.ndarray,
        re: np.ndarray,
        im: np.ndarray,
    ) -> "EnsembleState":
        """Wrap columns that already passed every check of ``__post_init__``."""
        state = object.__new__(cls)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "slot_count", slot_count)
        columns = EnsembleAmplitudes(labels, codes, re, im)
        object.__setattr__(state, "amplitudes", columns)
        return state

    def amplitude(self, labels: tuple[ModeLabel, ...]) -> complex:
        return self.amplitudes.get(tuple(labels), 0j)

    def occupied_labels(self) -> list[ModeLabel]:
        """Distinct labels held by some slot, in order of first appearance
        (tuple by tuple, then slot by slot)."""
        flat = self.amplitudes.codes.ravel()
        _, first = np.unique(flat, return_index=True)
        labels = self.amplitudes.labels
        return [labels[code] for code in flat[np.sort(first)].tolist()]

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


def _require_unit_norm(norm_sq: float, kind: str) -> None:
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise NormalizationError(f"{kind} norm^2 = {norm_sq!r}, expected 1")


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
    """Photon on one (path, winding) carrying ``spec`` in its polarization."""
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
    :class:`DomainError`
    when the states are of different kinds or the ensembles disagree on
    slot count.
    """
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
    modulus = abs(overlap)
    if modulus > 1.0 + NORM_TOL:
        raise NormalizationError(
            f"|<a|b>| = {modulus!r} exceeds 1: a state is not normalized"
        )
    return min(1.0, modulus ** 2)


def _ensemble_overlap(a: EnsembleAmplitudes, b: EnsembleAmplitudes) -> complex:
    """``<a|b>``: each row of ``a`` joined to the equal row of ``b``, adding
    ``conj(a) * b`` in split form and in ``a``'s row order."""
    index = {label: code for code, label in enumerate(a.labels)}
    # a label that a lacks gets code -1, so rows holding it match nothing
    b_codes = np.array(
        [index.get(label, -1) for label in b.labels], dtype=np.int64
    )[b.codes]
    if b_codes.shape == a.codes.shape and (b_codes == a.codes).all():
        ar, ai, br, bi = a.re, a.im, b.re, b.im  # the rows already line up
    else:
        b_rows = {row: i for i, row in enumerate(map(tuple, b_codes.tolist()))}
        match = np.array(
            [b_rows.get(row, -1) for row in map(tuple, a.codes.tolist())],
            dtype=np.int64,
        )
        found = match >= 0
        ar, ai = a.re[found], a.im[found]
        br, bi = b.re[match[found]], b.im[match[found]]
    nai = -ai
    # a running sum, as the dict loop's; a pairwise sum rounds differently
    re = np.add.accumulate(ar * br - nai * bi)
    im = np.add.accumulate(ar * bi + nai * br)
    return complex(re[-1], im[-1]) if len(re) else 0j


def tensor(photons: Sequence[PhotonState]) -> EnsembleState:
    """Product state of independent photons; slot order follows list order.

    Rows grow photon by photon, each row by each of the photon's labels in
    turn, with split-form products; products at or below ``PRUNE_TOL`` drop
    out as they form.
    """
    if not photons:
        raise DomainError("tensor of an empty photon list")
    space = photons[0].space
    for photon in photons[1:]:
        if photon.space != space:
            raise DomainError("all photons must share one mode space")
    # Every photon's label codes and factors, one photon after another.  A
    # product over the first photons is at least the product of their
    # smallest moduli, give or take a rounding far under the factor 2, so
    # while that stays above 2 * PRUNE_TOL nothing can drop out: those
    # photons grow the rows in one block, the rest one by one with pruning.
    index: dict[ModeLabel, int] = {}
    label_codes: list[int] = []
    factors: list[complex] = []
    starts: list[int] = []
    floor, safe = 1.0, 0
    for photon in photons:
        amplitudes = photon.amplitudes
        starts.append(len(label_codes))
        label_codes += [index.setdefault(label, len(index)) for label in amplitudes]
        factors += amplitudes.values()
        floor *= min(map(abs, amplitudes.values()))
        if safe == len(starts) - 1 and floor > 2 * PRUNE_TOL:
            safe += 1
    starts.append(len(label_codes))
    blocks = [range(safe)] if safe else []
    blocks += [range(p, p + 1) for p in range(safe, len(photons))]
    label_codes = np.array(label_codes, dtype=np.int64)
    factors = np.array(factors, dtype=np.complex128)
    offsets = np.array(starts, dtype=np.int64)
    codes = np.empty((1, 0), dtype=np.int64)
    re, im = np.ones(1), np.zeros(1)
    for block in blocks:
        # every row times every combination of the block's labels, in
        # row-major order; picks index the flat label and factor arrays
        shape = (len(re), *(starts[p + 1] - starts[p] for p in block))
        row, *digits = np.unravel_index(np.arange(math.prod(shape)), shape)
        picks = np.array(digits) + offsets[block.start : block.stop, None]
        codes = np.concatenate((codes[row], label_codes[picks].T), axis=1)
        re, im = re[row], im[row]
        for fr, fi in zip(factors.real[picks], factors.imag[picks]):
            re, im = re * fr - im * fi, re * fi + im * fr
        if block.stop > safe:
            keep = np.hypot(re, im) > PRUNE_TOL
            codes, re, im = codes[keep], re[keep], im[keep]
    labels = list(index)
    if len(labels) != len(label_codes):
        # two photons share a label: reject the first tuple holding it twice
        bunched = np.flatnonzero(_bunched_rows(codes))
        if len(bunched):
            row_labels = [labels[code] for code in codes[bunched[0]].tolist()]
            raise BunchingError(
                "two slots share the label " + str(_first_duplicate(row_labels))
            )
    _require_unit_moduli(np.hypot(re, im))
    if safe < len(photons):
        labels, codes = _occupied(labels, codes)
    return EnsembleState._from_columns(
        space, len(photons), labels, codes, re, im
    )


def compose_images(
    operators: Sequence[ModeOperator], label: ModeLabel
) -> list[tuple[ModeLabel, complex]]:
    """Image of one label under a chain of operators, applied left to right.

    A :class:`WholeMapOperator` (every stage and element of this package)
    takes the whole intermediate map in one ``transit`` call; any other
    operator is applied label by label.
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

    Single photons evolve by plain linearity.  Ensembles evolve slot by
    slot: each slot's label is replaced by its image and the tuple
    amplitudes recombined, which is exact for the generalized-permutation
    devices this package builds.  An output tuple that collides two slots
    on one label with magnitude above ``BUNCHING_TOL`` raises
    :class:`BunchingError`; collisions at or below it are numerical dust
    and are dropped.
    """
    if isinstance(state, PhotonState):
        return _apply_photon(state, operator)
    if isinstance(state, EnsembleState):
        return _apply_ensemble(state, operator)
    raise DomainError(f"not a state: {type(state).__name__}")


def _apply_photon(state: PhotonState, operator: ModeOperator) -> PhotonState:
    # the constructor prunes the summed amplitudes before it window-checks
    # their labels, so an image of zero amplitude is never checked
    out: dict[ModeLabel, complex] = {}
    for label, amp in state.amplitudes.items():
        for image, factor in operator.mode_images(label):
            out[image] = out.get(image, 0j) + amp * factor
    return PhotonState(state.space, out)


def _apply_ensemble(
    state: EnsembleState, operator: ModeOperator
) -> EnsembleState:
    """Slot by slot over the columns, as the prefix expansion goes tuple by
    tuple: a label of ``n`` images turns its row into ``n`` rows in image
    order, products at or below ``PRUNE_TOL`` drop out as they form, and a
    dropped row reaches none of its later slots' labels."""
    space = state.space
    columns = state.amplitudes
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
    target = np.array(image_codes, dtype=np.int64)
    factor_re = np.array(image_re, dtype=np.float64)
    factor_im = np.array(image_im, dtype=np.float64)

    codes, re, im = columns.codes, columns.re, columns.im
    # Every partial product is at least the smallest row modulus times
    # low ** slot_count, give or take a rounding far under the factor 2;
    # while that exceeds 2 * PRUNE_TOL, no product can drop out.
    prune = (
        float(np.hypot(re, im).min()) * low ** state.slot_count <= 2 * PRUNE_TOL
    )
    single = not failures and all(count == 1 for count in counts)
    if single:
        # a label's code is the index of its one image: gather all factors
        fr_all, fi_all = factor_re[codes.T], factor_im[codes.T]
        for slot in range(state.slot_count):
            fr, fi = fr_all[slot], fi_all[slot]
            re, im = re * fr - im * fi, re * fi + im * fr
            if prune:
                keep = np.hypot(re, im) > PRUNE_TOL
                re, im, codes = re[keep], im[keep], codes[keep]
                fr_all, fi_all = fr_all[:, keep], fi_all[:, keep]
        codes = target[codes]
    else:
        start = np.array(starts, dtype=np.int64)
        count = np.array(counts, dtype=np.int64)
        failed = np.zeros(len(counts), dtype=bool)
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
            fan = count[column]
            rows = np.repeat(np.arange(len(column)), fan)
            pick = np.arange(len(rows)) + np.repeat(
                start[column] - (np.cumsum(fan) - fan), fan
            )
            codes, re, im = codes[rows], re[rows], im[rows]
            fr, fi = factor_re[pick], factor_im[pick]
            re, im = re * fr - im * fi, re * fi + im * fr
            codes[:, slot] = target[pick]
            if prune:
                keep = np.hypot(re, im) > PRUNE_TOL
                codes, re, im = codes[keep], re[keep], im[keep]
        if raised is not None:
            raise raised

    labels = list(index)
    # With one image per label and no two labels sharing one, distinct
    # tuples stay distinct and unbunched; otherwise equal rows are summed.
    # Either way each sum starts from 0.0, as the dict loop's from 0j.
    merge = not single or len(labels) != len(image_codes)
    if not merge:
        re, im = 0.0 + re, 0.0 + im
        magnitude = np.hypot(re, im)
    else:
        codes, re, im = _sum_equal_rows(codes, re, im)
        magnitude = np.hypot(re, im)
        bunched = _bunched_rows(codes)
        loud = np.flatnonzero(bunched & (magnitude > BUNCHING_TOL))
        if len(loud):
            row_labels = [labels[code] for code in codes[loud[0]].tolist()]
            raise BunchingError(
                "operator drove two slots onto "
                + str(_first_duplicate(row_labels))
                + f" with amplitude {float(magnitude[loud[0]]):.3e}"
            )
        keep = (magnitude > PRUNE_TOL) & ~bunched
        codes, re, im, magnitude = (
            codes[keep], re[keep], im[keep], magnitude[keep]
        )
    _require_unit_moduli(magnitude)
    if prune or merge:
        labels, codes = _occupied(labels, codes)
    return EnsembleState._from_columns(
        space, state.slot_count, labels, codes, re, im
    )


def _sum_equal_rows(
    codes: np.ndarray, re: np.ndarray, im: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal rows summed into one, in order of first appearance; each sum
    runs from 0.0 in row order (``bincount`` adds in input order)."""
    groups: dict[tuple[int, ...], int] = {}
    group = np.array(
        [groups.setdefault(row, len(groups)) for row in map(tuple, codes.tolist())],
        dtype=np.int64,
    )
    return (
        np.array(list(groups), dtype=np.int64).reshape(-1, codes.shape[1]),
        np.bincount(group, re, len(groups)),
        np.bincount(group, im, len(groups)),
    )


def _occupied(
    labels: list[ModeLabel], codes: np.ndarray
) -> tuple[list[ModeLabel], np.ndarray]:
    """The labels some row still holds, with the codes renumbered to them;
    rows that dropped out may have held the others."""
    used = np.zeros(len(labels), dtype=bool)
    used[codes] = True
    if used.all():
        return labels, codes
    kept = [label for label, keep in zip(labels, used.tolist()) if keep]
    return kept, (np.cumsum(used) - 1)[codes]


def _bunched_rows(codes: np.ndarray) -> np.ndarray:
    """Whether each row holds some label in two slots."""
    ordered = np.sort(codes, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def _require_unit_moduli(moduli: np.ndarray) -> None:
    """The ensemble norm check on the kept amplitude moduli.

    A dot product lands within a few ulp of the term-by-term sum of
    ``modulus ** 2`` that the constructor makes.  One near or past the
    tolerance is redone term by term, so the decision and the message see
    exactly the constructor's sum.
    """
    if abs(float(moduli @ moduli) - 1.0) > NORM_TOL / 2:
        norm_sq = 0.0
        for modulus in moduli.tolist():
            norm_sq += modulus ** 2
        _require_unit_norm(norm_sq, "ensemble")


def path_probabilities(state: PhotonState) -> dict[int, float]:
    """Probability of finding the photon on each path (Born rule)."""
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
