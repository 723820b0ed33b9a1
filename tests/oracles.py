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

    re, im = rng.standard_normal(2), rng.standard_normal(2)
    # the norm summed elementwise in a fixed order, as cli._draw_qubits does
    norm = np.sqrt((re[0] * re[0] + re[1] * re[1]) + (im[0] * im[0] + im[1] * im[1]))
    raw = re + 1j * im
    raw /= norm
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


def dict_row_numbering(codes):
    """Each row of an integer code matrix numbered in order of first
    appearance, by a dict of row tuples: the seed's key for summing equal
    ensemble rows and for joining the rows of two ensembles."""
    groups = {}
    return [groups.setdefault(row, len(groups)) for row in map(tuple, codes.tolist())]


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


def seed_closed_form_walk(dimension, direction, deviation):
    """The seed's closed-form walker, kept as reference code: worst
    deviation of a device from the closed-form routing map.

    Walks ``|l>_n`` for ``0 <= n, l < D``, path first; ``deviation(label,
    expected)`` gives the amplitude on the closed-form image ``expected``
    and the caller's residual for the rest.  One global phase, fixed by the
    first amplitude, is shared by all inputs; a zero first amplitude gives 1.0.
    """
    from oamnet.multiport import oambs_closed_form

    gamma = None
    worst = 0.0
    for path in range(dimension):
        for oam in range(dimension):
            out_oam, out_path = oambs_closed_form(oam, path, dimension, direction)
            amp, residual = deviation(
                ModeLabel(path, oam), ModeLabel(out_path, out_oam)
            )
            if gamma is None:
                if amp == 0:
                    return 1.0
                gamma = amp / abs(amp)
            worst = max(worst, abs(amp - gamma), residual)
    return worst


def label_wise_netlist_error(netlist):
    """``oambs_netlist_error`` replaying one basis photon at a time through
    ``netlist_apply``: the reference for the batched replay, errors
    included."""
    import math

    from oamnet import Direction, ModeSpace, PhotonState, netlist_apply

    space = ModeSpace(netlist.dimension)

    def deviation(label, expected):
        routed = netlist_apply(netlist, PhotonState(space, {label: 1.0}))
        amp = routed.amplitude(expected)
        leftover = (
            sum(abs(a) ** 2 for a in routed.amplitudes.values()) - abs(amp) ** 2
        )
        return amp, math.sqrt(max(0.0, leftover))

    return seed_closed_form_walk(netlist.dimension, Direction.FORWARD, deviation)


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


def reference_dumps_canonical(value):
    """``serialize.dumps_canonical`` as one ``isinstance`` chain: the
    reference for its dispatch on exact types."""
    import json
    import math
    from collections.abc import Mapping

    from oamnet import DomainError

    def format_float(value):
        if math.isnan(value) or math.isinf(value):
            raise DomainError(f"non-finite float {value!r} is not serializable")
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text

    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, Mapping):
        items = ", ".join(
            f"{json.dumps(str(key))}: {reference_dumps_canonical(item)}"
            for key, item in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_dumps_canonical(item) for item in value) + "]"
    raise DomainError(f"cannot serialize {type(value).__name__}")


def seed_device_matrix(device):
    """``device_matrix`` by the original label loop: every basis label's
    ``mode_images`` added into a zero matrix, one entry at a time; the
    reference for the gathered matrix."""
    from oamnet import DomainError
    from oamnet.multiport import default_oam_values, device_basis

    dimension = device.dimension
    size = dimension * len(default_oam_values(dimension))
    basis = device_basis(dimension)
    index = {label: i for i, label in enumerate(basis)}
    matrix = np.zeros((size, size), dtype=complex)
    for j, label in enumerate(basis):
        for image, amplitude in device.mode_images(label):
            i = index.get(image)
            if i is None:
                raise DomainError(f"basis not closed: {label} maps onto {image}")
            matrix[i, j] += amplitude
    return matrix


def seed_closed_form_error(matrix, dimension, direction):
    """``cli._closed_form_error`` by the original walk: one basis input at a
    time through ``seed_closed_form_walk``, with a label dict lookup and
    ``np.abs`` of the input's column; the reference for the one-pass
    check."""
    from oamnet.multiport import device_basis

    index = {label: i for i, label in enumerate(device_basis(dimension))}

    def deviation(label, expected):
        column = matrix[:, index[label]]
        i = index[expected]
        off = np.abs(column)
        off[i] = 0.0
        return column[i], float(off.max(initial=0.0))

    return seed_closed_form_walk(dimension, direction, deviation)


def basis_map_matrix(basis_map):
    """The dense matrix of a basis map (``multiport._basis_map``): each
    column's one amplitude added into a zero matrix at its image's row, as
    the label loop of ``device_matrix`` adds a one-to-one device's images;
    the reference the basis-map checks are compared with."""
    image, amplitudes = basis_map
    matrix = np.zeros((len(image), len(image)), dtype=complex)
    matrix[image, np.arange(len(image))] += amplitudes
    return matrix


def split_matrix_product(left, right):
    """``left @ right`` from four real matrix products, in split form.  With
    at most one nonzero term per entry, as between two matrices of one
    entry per column, each real product is that term's rounded product
    whatever the BLAS kernel, so the entries are the split-form products
    of the amplitudes."""
    product = np.empty((len(left), right.shape[1]), dtype=complex)
    product.real = left.real @ right.real - left.imag @ right.imag
    product.imag = left.real @ right.imag + left.imag @ right.real
    return product


def seed_netlist_path_matrix(netlist):
    """``netlist_path_matrix`` by the original product: a fresh identity and
    a fresh ``beamsplitter_block`` per element, multiplied from the left;
    the reference for the one-buffer replay."""
    from oamnet import BeamSplitter, DomainError, PhaseShifter
    from oamnet.elements import beamsplitter_block

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
            raise DomainError(f"{type(element).__name__} has no path-only matrix")
        matrix = embedded @ matrix
    return matrix


def one_by_one_report_rows(network):
    """``routing_report``'s rows by the original walk: every (sender,
    destination) photon delivered alone through ``network.deliver`` and
    judged at ``NORM_TOL``, sender first; the reference for the gathered
    report, errors included."""
    from oamnet import ReportRow, StarNetwork
    from oamnet.networks import dominant_label, sender_tag
    from oamnet.states import NORM_TOL

    star = isinstance(network, StarNetwork)
    dimension = network.dimension
    rows = []
    for sender in range(dimension):
        for destination in range(dimension):
            if star:
                winding = destination
            else:
                winding = network.choose_winding(sender, destination)
            label, modulus = dominant_label(network.deliver(sender, destination))
            error = abs(modulus - 1.0)
            rows.append(
                ReportRow(
                    sender=sender,
                    destination=destination,
                    winding=winding,
                    delivered_path=label.path,
                    delivered_oam=label.oam,
                    sender_tag=sender_tag(label.oam, dimension) if star else None,
                    amplitude_error=error,
                    passed=label.path == destination and error <= NORM_TOL,
                )
            )
    return rows


def seed_random_unitary(dimension, rng):
    """``random_unitary`` by the original draw: a real and then an
    imaginary Gaussian matrix from ``rng``, one QR factorization, and the
    phases of R's diagonal divided out; the reference for the stacked
    draw."""
    gaussian = rng.standard_normal((dimension, dimension))
    gaussian = gaussian + 1j * rng.standard_normal((dimension, dimension))
    q, r = np.linalg.qr(gaussian)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def numpy_reck_decompose(target):
    """``reck_decompose`` as numpy pair updates: the pivot angles from
    ``np.arctan2``, each beamsplitter applied as a matmul of the column
    pair by its block, the trailing phases from ``np.angle``; the reference
    for the scalar loop (whose last bits may differ from it)."""
    import math

    from oamnet import BeamSplitter, Netlist, PhaseShifter
    from oamnet.elements import beamsplitter_block
    from oamnet.netlist import _NULL_TOL

    work = np.array(target, dtype=complex)
    dimension = work.shape[0]
    splitters = []
    for row in range(dimension - 1):
        for col in range(dimension - 1, row, -1):
            a, b = col - 1, col
            u, v = work[row, a], work[row, b]
            if abs(v) <= _NULL_TOL:
                continue
            theta = math.atan2(abs(v), abs(u))
            w = -v * np.conj(u)
            phi = float(np.arctan2(w.imag, w.real)) - math.pi / 2.0
            pair = work[:, a : b + 1]
            pair[...] = pair @ np.array(beamsplitter_block(theta, phi))
            splitters.append(BeamSplitter(a, b, -theta, phi))
    angles = [float(np.angle(work[port, port])) for port in range(dimension)]
    shifters = [
        PhaseShifter(port, angle) for port, angle in enumerate(angles) if angle != 0.0
    ]
    return Netlist(dimension, tuple(splitters) + tuple(shifters))


def buffer_netlist_path_matrix(netlist):
    """``netlist_path_matrix`` as matrix products: each element embedded in
    one identity buffer that multiplies the product from the left and is
    then restored; the reference for the row updates."""
    from oamnet import BeamSplitter, PhaseShifter

    dimension = netlist.dimension
    matrix = np.eye(dimension, dtype=complex)
    embedded = np.eye(dimension, dtype=complex)
    for element in netlist.elements:
        if isinstance(element, BeamSplitter):
            a, b = element.port_a, element.port_b
            (embedded[a, a], embedded[a, b]), (embedded[b, a], embedded[b, b]) = (
                element._block
            )
            matrix = embedded @ matrix
            embedded[a, a] = embedded[b, b] = 1.0
            embedded[a, b] = embedded[b, a] = 0.0
        else:
            port = element.port
            embedded[port, port] = np.exp(1j * element.phi)
            matrix = embedded @ matrix
            embedded[port, port] = 1.0
    return matrix

