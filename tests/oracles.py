"""Independent brute-force oracles for the test suite.

Everything here is computed straight from the elementwise formulas with
plain matrix products, deliberately bypassing the package's sparse state
machinery and stage composition, so the two routes can check each other.
"""

from __future__ import annotations

import numpy as np

from oamnet import ModeLabel


def pair_basis(dimension: int, oam_values) -> list[tuple[int, int]]:
    """(path, oam) enumeration: path ascending, then OAM ascending."""
    return [
        (path, oam)
        for path in range(dimension)
        for oam in sorted(set(oam_values))
    ]


def pair_index(dimension: int, oam_values) -> dict[tuple[int, int], int]:
    return {pair: i for i, pair in enumerate(pair_basis(dimension, oam_values))}


def multiport_stage_matrix(dimension: int, oam_values) -> np.ndarray:
    """Fourier path mixing combined with the per-transit winding sign flip."""
    index = pair_index(dimension, oam_values)
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    for (path, oam), j in index.items():
        for out_path in range(dimension):
            amp = np.exp(2j * np.pi * path * out_path / dimension) / np.sqrt(
                dimension
            )
            matrix[index[(out_path, -oam)], j] += amp
    return matrix


def dove_stage_matrix(dimension: int, oam_values, reverse: bool = False) -> np.ndarray:
    index = pair_index(dimension, oam_values)
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    for (path, oam), j in index.items():
        alpha = 2.0 * np.pi * path / dimension
        if reverse:
            alpha = -alpha
        matrix[index[(path, -oam)], j] = np.exp(-1j * alpha * oam)
    return matrix


def oam_beamsplitter_matrix(
    dimension: int, oam_values, reverse: bool = False
) -> np.ndarray:
    """Explicit stage product; rightmost factor acts first."""
    s = multiport_stage_matrix(dimension, oam_values)
    dp = dove_stage_matrix(dimension, oam_values, reverse)
    return s @ dp @ s


def photon_vector(state, dimension: int, oam_values) -> np.ndarray:
    """H-polarized single photon as a dense vector over the pair basis."""
    index = pair_index(dimension, oam_values)
    vector = np.zeros(len(index), dtype=complex)
    for label, amp in state.amplitudes.items():
        vector[index[(label.path, label.oam)]] = amp
    return vector


def ensemble_vector(state, dimension: int, oam_values) -> np.ndarray:
    """H-polarized two-slot ensemble as a dense vector over the kron basis."""
    assert state.slot_count == 2
    index = pair_index(dimension, oam_values)
    size = len(index)
    vector = np.zeros(size * size, dtype=complex)
    for (first, second), amp in state.amplitudes.items():
        i = index[(first.path, first.oam)]
        j = index[(second.path, second.oam)]
        vector[i * size + j] = amp
    return vector


def h_photon(space, path: int, oam: int):
    from oamnet import PhotonState

    return PhotonState(space, {ModeLabel(path, oam): 1.0})


def random_qubit(rng: np.random.Generator):
    from oamnet import QubitSpec

    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    raw /= np.linalg.norm(raw)
    return QubitSpec(complex(raw[0]), complex(raw[1]))


def matrix_of_operator(operator, labels) -> np.ndarray:
    """Dense matrix of any mode operator over an explicit label list."""
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=complex)
    for label, j in index.items():
        for image, amp in operator.mode_images(label):
            matrix[index[image], j] += amp
    return matrix


def prefix_expansion_amplitudes(state, operator):
    """Ensemble evolution by plain slot-by-slot prefix expansion.

    Every tuple grows one slot at a time over each slot's (pruned,
    window-checked) image, partial products at or below ``PRUNE_TOL`` are
    dropped, bunched tuples raise above ``BUNCHING_TOL`` and are dropped at
    or below it, and the result goes through the full ``EnsembleState``
    constructor.  Returns the evolved amplitudes in insertion order.
    """
    from oamnet import BunchingError, EnsembleState
    from oamnet.states import BUNCHING_TOL, PRUNE_TOL

    images = {}

    def slot_image(label):
        if label not in images:
            images[label] = [
                (image, factor)
                for image, factor in operator.mode_images(label)
                if abs(factor) > PRUNE_TOL
            ]
            for image, _ in images[label]:
                state.space.check_label(image)
        return images[label]

    out = {}
    for labels, amp in state.amplitudes.items():
        partial = [((), amp)]
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
    kept = {}
    for joint_labels, value in out.items():
        if len(set(joint_labels)) != len(joint_labels):
            if abs(value) > BUNCHING_TOL:
                duplicate = next(
                    l for i, l in enumerate(joint_labels) if l in joint_labels[:i]
                )
                raise BunchingError(
                    f"operator drove two slots onto {duplicate}"
                    f" with amplitude {abs(value):.3e}"
                )
            continue
        kept[joint_labels] = value
    return EnsembleState(state.space, state.slot_count, kept).amplitudes


def nested_tensor_amplitudes(photons):
    """Product amplitudes grown photon by photon through dicts, pruning each
    partial product at or below ``PRUNE_TOL``, then the full constructor."""
    from oamnet import EnsembleState
    from oamnet.states import PRUNE_TOL

    terms = {(): 1.0 + 0j}
    for photon in photons:
        grown = {}
        for labels, amp in terms.items():
            for label, factor in photon.amplitudes.items():
                value = amp * factor
                if abs(value) > PRUNE_TOL:
                    grown[labels + (label,)] = value
        terms = grown
    return EnsembleState(photons[0].space, len(photons), terms).amplitudes


def dict_fidelity(a, b):
    """``|<a|b>|^2`` by the plain dict loop: ``conj(a) * b`` added from
    ``0j`` over ``a``'s keys in order, clamped to 1."""
    overlap = 0j
    b_amplitudes = dict(b.amplitudes)
    for key, amp in a.amplitudes.items():
        other = b_amplitudes.get(key)
        if other is not None:
            overlap += amp.conjugate() * other
    return min(1.0, abs(overlap) ** 2)


def amplitude_bits(amplitudes):
    """Keys with both float parts in hex, in insertion order: equal only when
    two mappings agree bit for bit, signs of zeros included."""
    return [
        (key, amp.real.hex(), amp.imag.hex()) for key, amp in amplitudes.items()
    ]


def seed_stage_images(operator, label):
    """Per-label images of a multiport or Dove stage by the original
    formulas (a fresh matrix column, a fresh phase per label); any other
    operator gives its own ``mode_images``."""
    from oamnet import Direction, DomainError, DoveStage, SymmetricMultiport
    from oamnet import symmetric_matrix

    if isinstance(operator, SymmetricMultiport):
        dimension = operator.dimension
        if not 0 <= label.path < dimension:
            raise DomainError(
                f"path {label.path} outside multiport of dimension {dimension}"
            )
        column = symmetric_matrix(dimension)[:, label.path]
        oam = -label.oam if operator.parity_flip else label.oam
        return [
            (ModeLabel(out_path, oam, label.pol), complex(column[out_path]))
            for out_path in range(dimension)
        ]
    if isinstance(operator, DoveStage):
        dimension = operator.dimension
        if not 0 <= label.path < dimension:
            raise DomainError(
                f"path {label.path} outside Dove stage of dimension {dimension}"
            )
        phase_index = label.path * label.oam
        if operator.direction is Direction.REVERSE:
            phase_index = -phase_index
        phase = complex(
            np.exp(-2j * np.pi * (phase_index % dimension) / dimension)
        )
        return [(ModeLabel(label.path, -label.oam, label.pol), phase)]
    return list(operator.mode_images(label))


def label_wise_transit(operators, amplitudes):
    """A sparse amplitude map pushed through a chain of operators one label
    and one image at a time (images from :func:`seed_stage_images`), summing
    from ``0j`` in insertion order and pruning at or below ``PRUNE_TOL``
    after each operator: the reference for whole-map transit."""
    from oamnet.states import PRUNE_TOL

    current = dict(amplitudes)
    for operator in operators:
        grown = {}
        for label, amp in current.items():
            for image, factor in seed_stage_images(operator, label):
                grown[image] = grown.get(image, 0j) + amp * factor
        current = {l: a for l, a in grown.items() if abs(a) > PRUNE_TOL}
    return current


def label_wise_netlist_error(netlist):
    """``oambs_netlist_error`` replaying one basis photon at a time through
    ``netlist_apply``: the reference for the batched replay, errors
    included."""
    import math

    from oamnet import Direction, ModeSpace, PhotonState, netlist_apply
    from oamnet.multiport import closed_form_error

    space = ModeSpace(netlist.dimension)

    def deviation(label, expected):
        routed = netlist_apply(netlist, PhotonState(space, {label: 1.0}))
        amp = routed.amplitude(expected)
        leftover = (
            sum(abs(a) ** 2 for a in routed.amplitudes.values()) - abs(amp) ** 2
        )
        return amp, math.sqrt(max(0.0, leftover))

    return closed_form_error(netlist.dimension, Direction.FORWARD, deviation)


def seed_element_images(element, label):
    """Images of one label under a built-in element by the six original
    formulas, each written out on its own: the reference for the images
    that ``mode_images`` derives from the element's port rules."""
    import cmath

    from oamnet import (
        BeamSplitter,
        DovePrism,
        Hologram,
        Mirror,
        PhaseShifter,
        ReflectiveHologram,
    )

    if isinstance(element, BeamSplitter):
        if label.path == element.port_a:
            column = 0
        elif label.path == element.port_b:
            column = 1
        else:
            return ((label, 1.0 + 0j),)
        block = element._block
        return (
            (ModeLabel(element.port_a, label.oam, label.pol), block[0][column]),
            (ModeLabel(element.port_b, label.oam, label.pol), block[1][column]),
        )
    if label.path != element.port:
        return ((label, 1.0 + 0j),)
    if isinstance(element, PhaseShifter):
        return ((label, cmath.exp(1j * element.phi)),)
    if isinstance(element, Mirror):
        return ((ModeLabel(label.path, -label.oam, label.pol), 1.0 + 0j),)
    if isinstance(element, DovePrism):
        phase = cmath.exp(-1j * element.alpha * label.oam)
        return ((ModeLabel(label.path, -label.oam, label.pol), phase),)
    if isinstance(element, Hologram):
        return ((ModeLabel(label.path, label.oam + element.k, label.pol), 1.0 + 0j),)
    if isinstance(element, ReflectiveHologram):
        return (
            (ModeLabel(label.path, -label.oam - element.k, label.pol), 1.0 + 0j),
        )
    raise TypeError(f"no seed formula for {type(element).__name__}")


def column_walk_generalized_permutation(matrix, tol):
    """``is_generalized_permutation`` by the original walk, one column at a
    time: the reference for its single pass over the whole matrix."""
    array = np.asarray(matrix)
    witness = {}
    used_rows = set()
    for j in range(array.shape[1]):
        column = array[:, j]
        big = np.flatnonzero(np.abs(column) >= tol)
        if big.size != 1:
            return False, None
        i = int(big[0])
        if abs(abs(column[i]) - 1.0) > tol or i in used_rows:
            return False, None
        used_rows.add(i)
        witness[j] = (i, complex(column[i]))
    return True, witness
