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

Ensemble evolution computes each occupied label's image once per call.
When every occupied label has a single image, :func:`apply_mode_map` maps
each ensemble tuple straight to its image tuple in one pass, and the result
is built with each check (window, bunching, pruning, norm) run once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence

from .errors import (
    BunchingError,
    DomainError,
    NormalizationError,
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


@dataclass(frozen=True)
class EnsembleState:
    """Few photons in distinguishable slots: amplitudes over label tuples.

    Every stored tuple has exactly ``slot_count`` entries and pairwise
    distinct labels; see the module docstring for why duplicates are
    rejected rather than symmetrized.
    """

    space: ModeSpace
    slot_count: int
    amplitudes: Mapping[tuple[ModeLabel, ...], complex]

    def __post_init__(self) -> None:
        if self.slot_count < 1:
            raise DomainError(f"slot_count must be >= 1, got {self.slot_count}")
        clean: dict[tuple[ModeLabel, ...], complex] = {}
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
            clean[tuple(labels)] = amp
            norm_sq += abs(amp) ** 2
        _require_unit_norm(norm_sq, "ensemble")
        object.__setattr__(self, "amplitudes", clean)

    @classmethod
    def _checked(
        cls,
        space: ModeSpace,
        slot_count: int,
        amplitudes: dict[tuple[ModeLabel, ...], complex],
    ) -> "EnsembleState":
        """Wrap amplitudes that already passed every check of ``__post_init__``."""
        state = object.__new__(cls)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "slot_count", slot_count)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    def amplitude(self, labels: tuple[ModeLabel, ...]) -> complex:
        return self.amplitudes.get(tuple(labels), 0j)

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
    if isinstance(a, EnsembleState) and a.slot_count != b.slot_count:
        raise DomainError(
            f"slot counts differ: {a.slot_count} vs {b.slot_count}"
        )
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


def tensor(photons: Sequence[PhotonState]) -> EnsembleState:
    """Product state of independent photons; slot order follows list order."""
    if not photons:
        raise DomainError("tensor of an empty photon list")
    space = photons[0].space
    for photon in photons[1:]:
        if photon.space != space:
            raise DomainError("all photons must share one mode space")
    # prefixes are distinct, so they grow as lists and are hashed only once
    terms: list[tuple[tuple[ModeLabel, ...], complex]] = [((), 1.0 + 0j)]
    for photon in photons:
        grown = []
        for labels, amp in terms:
            for label, factor in photon.amplitudes.items():
                value = amp * factor
                if abs(value) > PRUNE_TOL:
                    grown.append((labels + (label,), value))
        terms = grown
    amplitudes = dict(terms)
    supports = [photon.amplitudes.keys() for photon in photons]
    if len(set().union(*supports)) != sum(map(len, supports)):
        # two photons share a label: the constructor finds the bunched tuples
        return EnsembleState(space, len(photons), amplitudes)
    # Disjoint supports already checked by each photon: no tuple bunches and
    # every label is in the window, so only the norm is left to check.
    norm_sq = 0.0
    for value in amplitudes.values():
        norm_sq += abs(value) ** 2
    _require_unit_norm(norm_sq, "ensemble")
    return EnsembleState._checked(space, len(photons), amplitudes)


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


_SlotImage = Callable[[ModeLabel], list[tuple[ModeLabel, complex]]]


def _apply_ensemble(
    state: EnsembleState, operator: ModeOperator
) -> EnsembleState:
    space = state.space
    images: dict[ModeLabel, list[tuple[ModeLabel, complex]]] = {}

    def slot_image(label: ModeLabel) -> list[tuple[ModeLabel, complex]]:
        cached = images.get(label)
        if cached is None:
            cached = [
                (image, factor)
                for image, factor in operator.mode_images(label)
                if abs(factor) > PRUNE_TOL
            ]
            for image, _ in cached:
                space.check_label(image)
            images[label] = cached
        return cached

    mapped = _map_tuples(state, slot_image)
    if mapped is None:
        out, may_bunch = _expand_tuples(state, slot_image), True
    else:
        out, may_bunch = mapped
    return _ensemble_result(state, out, may_bunch)


def _map_tuples(
    state: EnsembleState, slot_image: _SlotImage
) -> tuple[dict[tuple[ModeLabel, ...], complex], bool] | None:
    """Single pass for operators that send every occupied label to one label.

    Returns the summed image amplitudes and whether two slots may share a
    label, or ``None`` when some slot image is not a single term or an
    amplitude is small enough for :func:`_expand_tuples` to prune a partial
    product; that expansion must then run instead.
    """
    # The expansion prunes each partial product at or below PRUNE_TOL.  With
    # every factor of modulus >= low (low <= 1), partial products stay above
    # min|amp| * low**slot_count, give or take a rounding far under the
    # factor 2 in floor; while that exceeds PRUNE_TOL, the expansion prunes
    # nothing the single pass keeps and reaches (so window-checks) the same
    # labels.
    floor = 2 * PRUNE_TOL / min(map(abs, state.amplitudes.values()))
    low = 1.0
    singles: dict[ModeLabel, tuple[ModeLabel, complex]] = {}
    mapped: list[tuple[tuple[ModeLabel, ...], complex]] = []
    for labels, amp in state.amplitudes.items():
        joint = []
        for label in labels:
            try:
                image, factor = singles[label]
            except KeyError:
                if low ** state.slot_count <= floor:
                    return None
                images = slot_image(label)
                if len(images) != 1:
                    return None
                image, factor = singles[label] = images[0]
                low = min(low, abs(factor))
            joint.append(image)
            amp = amp * factor
        mapped.append((tuple(joint), amp))
    if low ** state.slot_count <= floor:
        return None
    # Input tuples hold distinct labels, so they map to distinct tuples with
    # distinct labels unless two occupied labels share an image.  Sums
    # start from 0j as the expansion's sums do, down to the sign of a zero.
    if len({image for image, _ in singles.values()}) == len(singles):
        return {key: 0j + amp for key, amp in mapped}, False
    out: dict[tuple[ModeLabel, ...], complex] = {}
    for key, amp in mapped:
        out[key] = out.get(key, 0j) + amp
    return out, True


def _expand_tuples(
    state: EnsembleState, slot_image: _SlotImage
) -> dict[tuple[ModeLabel, ...], complex]:
    """Grow every tuple slot by slot over multi-term images, pruning each
    partial product at or below ``PRUNE_TOL``."""
    out: dict[tuple[ModeLabel, ...], complex] = {}
    for labels, amp in state.amplitudes.items():
        partial: list[tuple[tuple[ModeLabel, ...], complex]] = [((), amp)]
        for label in labels:
            grown = []
            for prefix, value in partial:
                for image, factor in slot_image(label):
                    joint = value * factor
                    if abs(joint) > PRUNE_TOL:
                        grown.append((prefix + (image,), joint))
            partial = grown
        for joint_labels, value in partial:
            out[joint_labels] = out.get(joint_labels, 0j) + value
    return out


def _ensemble_result(
    state: EnsembleState,
    out: dict[tuple[ModeLabel, ...], complex],
    may_bunch: bool,
) -> EnsembleState:
    """Evolved state from summed image amplitudes, checking each tuple once.

    Images were window-checked as they were computed and tuples keep their
    arity, so what is left is pruning, bunching and the norm.  ``out`` is
    reused as the state's mapping.
    """
    dropped = []
    norm_sq = 0.0
    for joint_labels, value in out.items():
        magnitude = abs(value)
        if magnitude <= PRUNE_TOL:
            dropped.append(joint_labels)
            continue
        if may_bunch and len(set(joint_labels)) != len(joint_labels):
            if magnitude > BUNCHING_TOL:
                raise BunchingError(
                    "operator drove two slots onto "
                    + str(_first_duplicate(joint_labels))
                    + f" with amplitude {magnitude:.3e}"
                )
            dropped.append(joint_labels)
            continue
        norm_sq += magnitude ** 2
    _require_unit_norm(norm_sq, "ensemble")
    for joint_labels in dropped:
        del out[joint_labels]
    return EnsembleState._checked(state.space, state.slot_count, out)


def path_probabilities(state: PhotonState) -> dict[int, float]:
    """Probability of finding the photon on each path (Born rule)."""
    probs: dict[int, float] = {}
    for label, amp in state.amplitudes.items():
        probs[label.path] = probs.get(label.path, 0.0) + abs(amp) ** 2
    return dict(sorted(probs.items()))


__all__ = [
    "BUNCHING_TOL",
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
