"""MUX/DEMUX, simple and star self-routing, and the two-photon scenarios."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from oamnet import (
    BeamSplitter,
    BunchingError,
    CompositeDevice,
    DomainError,
    EnsembleState,
    H,
    Hologram,
    HologramBank,
    Mirror,
    ModeLabel,
    ModeSpace,
    MuxNetwork,
    NormalizationError,
    PhotonState,
    QubitSpec,
    RoutingDomainError,
    SimpleRoutingNetwork,
    StarNetwork,
    V,
    apply_mode_map,
    bell_target,
    choose_winding_simple,
    delivered_star_oam,
    demux_receive,
    distribute_bell_pair,
    fidelity,
    make_qubit_photon,
    mux_transmit,
    netlist_apply,
    oambs,
    oambs_netlist,
    oambs_netlist_error,
    path_probabilities,
    random_unitary,
    routing_report,
    sbmao,
    sender_tag,
    star_deliver,
    superposed_destination,
    tensor,
)
from oamnet import cli, multiport, networks
from oamnet.networks import _device_apply
from oamnet.serialize import netlist_dumps, netlist_to_dict
from oracles import random_qubit

ROOT_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------- mux/demux


def test_mux_single_user_is_identity():
    sent = mux_transmit([QubitSpec(1, 0)])
    assert sent.amplitude((ModeLabel(0, 0, H),)) == pytest.approx(1.0)


def test_mux_assigns_identifying_windings():
    sent = mux_transmit([QubitSpec(1, 0)] * 3)
    expected = tuple(ModeLabel(0, winding, H) for winding in range(3))
    assert abs(sent.amplitude(expected)) == pytest.approx(1.0, abs=1e-9)


def test_mux_of_64_one_label_qubits_is_one_tuple():
    # one array axis per photon would pass numpy's limit of 64
    sent = mux_transmit([QubitSpec(1, 0)] * 64)
    assert len(sent.amplitudes) == 1


def test_mux_matches_product_formula():
    rng = np.random.default_rng(21)
    for dimension in (2, 3, 5):
        network = MuxNetwork(dimension)
        qubits = [random_qubit(rng) for _ in range(dimension)]
        sent = network.transmit(qubits)
        tagged = tensor(
            [
                make_qubit_photon(spec, 0, winding, network.space)
                for winding, spec in enumerate(qubits)
            ]
        )
        assert fidelity(sent, tagged) == pytest.approx(1.0, abs=1e-9)


def test_mux_rejects_wrong_user_count():
    with pytest.raises(DomainError):
        MuxNetwork(3).transmit([QubitSpec(1, 0)] * 2)


def test_demux_splits_tags_onto_paths():
    space = ModeSpace(2)
    merged = EnsembleState(
        space, 2, {(ModeLabel(0, 0, H), ModeLabel(0, 1, H)): 1.0}
    )
    received = demux_receive(merged)
    assert abs(
        received.amplitude((ModeLabel(0, 0, H), ModeLabel(1, -1, H)))
    ) == pytest.approx(1.0, abs=1e-9)


def test_demux_restore_returns_windings_to_zero():
    space = ModeSpace(2)
    merged = EnsembleState(
        space, 2, {(ModeLabel(0, 0, H), ModeLabel(0, 1, H)): 1.0}
    )
    received = demux_receive(merged, restore_oam=True)
    assert abs(
        received.amplitude((ModeLabel(0, 0, H), ModeLabel(1, 0, H)))
    ) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dimension", range(1, 9))
def test_mux_roundtrip_restores_inputs(dimension):
    rng = np.random.default_rng(300 + dimension)
    network = MuxNetwork(dimension)
    qubits = [random_qubit(rng) for _ in range(dimension)]
    originals = tensor(
        [
            make_qubit_photon(spec, path, 0, network.space)
            for path, spec in enumerate(qubits)
        ]
    )
    received = network.receive(network.transmit(qubits), restore_oam=True)
    assert fidelity(received, originals) >= 1.0 - 1e-9


def test_demux_rejects_out_of_band_input():
    space = ModeSpace(2)
    off_path = EnsembleState(space, 1, {(ModeLabel(1, 0, H),): 1.0})
    with pytest.raises(RoutingDomainError):
        demux_receive(off_path)
    bad_winding = EnsembleState(space, 1, {(ModeLabel(0, 5, H),): 1.0})
    with pytest.raises(RoutingDomainError):
        demux_receive(bad_winding)


# ---------------------------------------------------------------- choosers


def test_chooser_trivial():
    assert choose_winding_simple(0, 0, 4) == 0
    assert choose_winding_simple(0, 0, 2, "reverse") == 0


def test_chooser_examples():
    assert choose_winding_simple(2, 4, 5) == 4
    assert choose_winding_simple(1, 2, 4, "reverse") == 3


@pytest.mark.parametrize("dimension", range(1, 9))
@pytest.mark.parametrize("side", ["forward", "reverse"])
def test_chooser_unique_delivery_by_brute_force(dimension, side):
    network = SimpleRoutingNetwork(dimension, side)
    for sender in range(dimension):
        for destination in range(dimension):
            delivering = []
            for winding in range(dimension):
                state = network.send(sender, winding)
                label = max(
                    state.amplitudes, key=lambda l: abs(state.amplitudes[l])
                )
                if (
                    label.path == destination
                    and abs(abs(state.amplitudes[label]) - 1.0) < 1e-9
                ):
                    delivering.append(winding)
            assert delivering == [
                choose_winding_simple(sender, destination, dimension, side)
            ]


def test_chooser_validates_indices():
    with pytest.raises(DomainError):
        choose_winding_simple(0, 9, 4)


# ---------------------------------------------------------------- star


def test_star_all_zero_case():
    delivered = star_deliver(0, 0, 2)
    assert delivered.amplitude(ModeLabel(0, 0, H)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_star_delivery_and_sender_tag():
    delivered = star_deliver(1, 3, 4)
    label = max(
        delivered.amplitudes, key=lambda l: abs(delivered.amplitudes[l])
    )
    assert label.path == 3
    assert sender_tag(label.oam, 4) == 1
    assert label.oam == delivered_star_oam(1, 3, 4)


def test_star_self_loop():
    delivered = star_deliver(2, 2, 5)
    assert delivered.amplitude(ModeLabel(2, 2, H)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_networks_share_one_device_per_dimension():
    star, mux = StarNetwork(5), MuxNetwork(5)
    assert star.core is oambs(5) and star.return_core is sbmao(5)
    assert mux.core is oambs(5) and mux.demux_core is sbmao(5)
    assert SimpleRoutingNetwork(5).transit is oambs(5)
    assert SimpleRoutingNetwork(5, "reverse").transit is sbmao(5)


def test_star_intermediate_state_after_reflector():
    # trace the pipeline by hand for one basis input
    dimension, sender, destination = 4, 1, 3
    star = StarNetwork(dimension)
    photon = PhotonState(
        star.space, {ModeLabel(sender, destination): 1.0}
    )
    outbound = apply_mode_map(photon, star.core)
    landing = (-destination - sender) % dimension
    assert abs(
        outbound.amplitude(ModeLabel(landing, -destination))
    ) == pytest.approx(1.0, abs=1e-9)
    bounced = apply_mode_map(outbound, star.reflectors)
    bounce_winding = (destination + sender) % dimension - destination
    assert abs(
        bounced.amplitude(ModeLabel(landing, -bounce_winding))
    ) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dimension", range(1, 9))
def test_star_exhaustive_delivery(dimension):
    network = StarNetwork(dimension)
    for sender in range(dimension):
        for destination in range(dimension):
            state = network.deliver(sender, destination)
            label = max(
                state.amplitudes, key=lambda l: abs(state.amplitudes[l])
            )
            assert label.path == destination
            assert abs(abs(state.amplitudes[label]) - 1.0) < 1e-9
            assert sender_tag(label.oam, dimension) == sender % dimension


def test_star_polarization_rides_along():
    rng = np.random.default_rng(33)
    for _ in range(5):
        spec = random_qubit(rng)
        delivered = star_deliver(2, 1, 4, payload=spec)
        out_h = delivered.amplitude(
            ModeLabel(1, delivered_star_oam(2, 1, 4), H)
        )
        out_v = delivered.amplitude(
            ModeLabel(1, delivered_star_oam(2, 1, 4), V)
        )
        # both qubit components acquire the same transit phase
        if abs(spec.alpha) > 1e-6 and abs(spec.beta) > 1e-6:
            assert out_h / spec.alpha == pytest.approx(
                out_v / spec.beta, abs=1e-9
            )


# ---------------------------------------------------------------- reports


def test_report_single_user():
    report = routing_report(SimpleRoutingNetwork(1))
    assert len(report.rows) == 1
    assert report.all_pass


def test_report_simple_forward_d5():
    report = routing_report(SimpleRoutingNetwork(5))
    assert len(report.rows) == 25
    assert report.all_pass


def test_report_deterministic():
    first = routing_report(StarNetwork(4))
    second = routing_report(StarNetwork(4))
    assert first == second


def test_report_rejects_large_dimension():
    with pytest.raises(DomainError):
        routing_report(SimpleRoutingNetwork(9))


def test_star_fault_injection_localized():
    dimension, broken_port = 4, 2
    sound = StarNetwork(dimension)
    faulty = StarNetwork(
        dimension,
        reflector_overrides=((broken_port, -broken_port - 1),),
    )
    report = routing_report(faulty)
    for row in report.rows:
        landing = (-row.destination - row.sender) % dimension
        if landing == broken_port:
            assert not row.passed
        else:
            assert row.passed
    # and the sound network passes everywhere
    assert routing_report(sound).all_pass


def test_ensembles_refuse_non_permutation_composites():
    # the slot model is checked on the images of the occupied labels
    # whenever an ensemble crosses a composite device
    from oamnet import BeamSplitter, BunchingError, CompositeDevice
    from oamnet.networks import _device_apply

    space = ModeSpace(2)
    pair = tensor(
        [
            PhotonState(space, {ModeLabel(0, 0, H): 1.0}),
            PhotonState(space, {ModeLabel(1, 2, H): 1.0}),
        ]
    )
    splitter = CompositeDevice((BeamSplitter(0, 1, math.pi / 4),), 2)
    with pytest.raises(BunchingError):
        _device_apply(pair, splitter)


def _h_pair(space, first, second):
    return tensor([PhotonState(space, {label: 1.0}) for label in (first, second)])


@pytest.mark.parametrize(
    "device",
    [
        # windings shift past any dense basis window, yet map one to one
        CompositeDevice((Mirror(0), Hologram(1, 2)), 6),
        # the splitter mixes only ports the pair does not occupy
        CompositeDevice((BeamSplitter(2, 3, math.pi / 4),), 6),
    ],
    ids=["shifted-windings", "splitter-elsewhere"],
)
def test_ensembles_cross_devices_that_are_one_to_one_on_their_labels(device):
    pair = _h_pair(ModeSpace(6), ModeLabel(0, 1, H), ModeLabel(1, 2, V))
    crossed = _device_apply(pair, device)
    assert dict(crossed.amplitudes) == dict(apply_mode_map(pair, device).amplitudes)
    assert len(crossed.amplitudes) == 1


def test_ensembles_refuse_a_singlet_through_a_splitter():
    # apply_mode_map alone evolves it as distinguishable photons, which
    # share a path with probability 1/2 where identical ones never would
    space = ModeSpace(2)
    singlet = EnsembleState(
        space,
        2,
        {
            (ModeLabel(0, 0, H), ModeLabel(1, 0, V)): ROOT_HALF,
            (ModeLabel(0, 0, V), ModeLabel(1, 0, H)): -ROOT_HALF,
        },
    )
    splitter = CompositeDevice((BeamSplitter(0, 1, math.pi / 4),), 2)
    spread = apply_mode_map(singlet, splitter)
    together = sum(
        abs(amp) ** 2
        for labels, amp in spread.amplitudes.items()
        if labels[0].path == labels[1].path
    )
    assert together == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(BunchingError, match="one to one"):
        _device_apply(singlet, splitter)


def test_a_recorded_image_error_raises_before_the_slot_check():
    # path 5 lies outside the D=4 device
    pair = _h_pair(ModeSpace(6), ModeLabel(0, 0, H), ModeLabel(5, 0, H))
    with pytest.raises(DomainError) as direct:
        apply_mode_map(pair, oambs(4))
    with pytest.raises(DomainError) as crossed:
        _device_apply(pair, oambs(4))
    assert type(crossed.value) is type(direct.value)
    assert str(crossed.value) == str(direct.value)


def test_an_ensemble_crossing_gathers_its_images_once(monkeypatch):
    calls = []
    gather = CompositeDevice.label_images

    def spy(self, path, winding):
        calls.append(self)
        return gather(self, path, winding)

    monkeypatch.setattr(CompositeDevice, "label_images", spy)
    network = MuxNetwork(4)
    merged = network.transmit([QubitSpec(ROOT_HALF, ROOT_HALF)] * 4)
    assert calls == [oambs(4)]
    network.receive(merged)
    assert calls == [oambs(4), sbmao(4)]
    calls.clear()
    distribute_bell_pair(0, 1, 2, 3, 4)
    assert calls == [oambs(4), sbmao(4)]


def test_network_ensembles_build_no_device_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense device matrix was built")

    monkeypatch.setattr(multiport, "device_matrix", refuse)
    monkeypatch.setattr(networks, "device_matrix", refuse)
    monkeypatch.setattr(networks, "is_generalized_permutation", refuse)
    for argv in (
        ["scenario", "mux-roundtrip", "--dimension", "6"],
        ["scenario", "bell", "--src", "0,1", "--dst", "2,3", "--dimension", "4"],
    ):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    results = cli._mux_roundtrip(MuxNetwork(5), np.random.default_rng(1), 20)
    assert len(results) == 20
    qubits = [random_qubit(np.random.default_rng(2)) for _ in range(5)]
    assert len(demux_receive(mux_transmit(qubits)).amplitudes) == 2**5


@pytest.mark.parametrize("dimension", [33, 64])
def test_bell_runs_past_the_device_matrix_bound(dimension):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(
            ["scenario", "bell", "--src", "0,1", "--dst", "2,3",
             "--dimension", str(dimension)]
        )
    assert code == 0
    report = json.loads(out.getvalue())
    assert report["fidelity"] >= 1.0 - 1e-9
    assert report["delivered_tags"] == report["sources"] == [0, 1]
    assert report["pass"] is True


def test_bell_stops_at_the_fourier_bound():
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(
            ["scenario", "bell", "--src", "0,1", "--dst", "2,3", "--dimension", "2049"]
        )
    assert code == 2
    assert err.getvalue() == (
        "error: a Fourier matrix of 4198401 entries exceeds the bound of "
        "4194304 entries\n"
    )


# ---------------------------------------------------------------- scenarios


def test_superposed_single_destination_reduces_to_star_deliver():
    via_superposition = superposed_destination(1, 4, [(3, 1.0)])
    direct = star_deliver(1, 3, 4)
    assert fidelity(via_superposition, direct) == pytest.approx(
        1.0, abs=1e-12
    )


def test_superposed_equal_weights():
    state = superposed_destination(
        0, 4, [(1, ROOT_HALF), (2, ROOT_HALF)]
    )
    weights = path_probabilities(state)
    assert weights[1] == pytest.approx(0.5, abs=1e-9)
    assert weights[2] == pytest.approx(0.5, abs=1e-9)


def test_superposed_born_rule_weights():
    rng = np.random.default_rng(77)
    amplitudes = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amplitudes /= np.linalg.norm(amplitudes)
    destinations = [(0, amplitudes[0]), (2, amplitudes[1]), (3, amplitudes[2])]
    state = superposed_destination(1, 4, destinations)
    weights = path_probabilities(state)
    for path, amp in destinations:
        assert weights[path] == pytest.approx(abs(amp) ** 2, abs=1e-9)


def test_superposed_linearity():
    state = superposed_destination(0, 4, [(1, ROOT_HALF), (2, ROOT_HALF)])
    recombined: dict = {}
    for destination in (1, 2):
        branch = star_deliver(0, destination, 4)
        for label, amp in branch.amplitudes.items():
            recombined[label] = recombined.get(label, 0j) + ROOT_HALF * amp
    for label, amp in state.amplitudes.items():
        assert amp == pytest.approx(recombined[label], abs=1e-12)


def test_superposed_validates_inputs():
    with pytest.raises(NormalizationError):
        superposed_destination(0, 4, [(1, 1.0), (2, 1.0)])
    with pytest.raises(DomainError):
        superposed_destination(0, 4, [(1, ROOT_HALF), (1, ROOT_HALF)])


@pytest.mark.parametrize(
    "amplitude, norm_text",
    [
        (1e200, "inf"),  # squaring the modulus overflows
        (complex(1.7e308, 1.7e308), "inf"),  # so does the modulus itself
        (math.nan, "nan"),
    ],
)
def test_superposed_rejects_an_unsquarable_or_nan_norm(amplitude, norm_text):
    with pytest.raises(NormalizationError) as raised:
        superposed_destination(1, 3, [(0, amplitude)])
    assert str(raised.value) == (
        f"destination amplitudes norm^2 = {norm_text}, expected 1"
    )


def test_superposed_norm_message_is_unchanged_for_a_finite_norm():
    with pytest.raises(NormalizationError) as raised:
        superposed_destination(0, 4, [(1, 1.0), (2, 1.0)])
    assert str(raised.value) == "destination amplitudes norm^2 = 2.0, expected 1"


# ---------------------------------------------------------------- bell


def test_bell_pair_basic_delivery():
    delivered = distribute_bell_pair(0, 1, 0, 1, 2)
    assert fidelity(delivered, bell_target(0, 1, 0, 1, 2)) == pytest.approx(
        1.0, abs=1e-9
    )
    sample = next(iter(delivered.amplitudes))
    assert [label.path for label in sample] == [0, 1]
    assert [sender_tag(label.oam, 2) for label in sample] == [0, 1]


def test_bell_pair_matches_target_formula():
    delivered = distribute_bell_pair(0, 1, 2, 3, 4)
    target = bell_target(0, 1, 2, 3, 4)
    assert fidelity(delivered, target) >= 1.0 - 1e-9
    # target structure: polarization-entangled pair on paths 2 and 3 whose
    # windings identify the input paths modulo the dimension
    tuples = target.tuples()
    assert len(tuples) == 2
    for labels in tuples:
        assert [label.path for label in labels] == [2, 3]
        assert sender_tag(labels[0].oam, 4) == 0
        assert sender_tag(labels[1].oam, 4) == 1


def test_bell_pair_entanglement_survives():
    # the delivered state must not factor: compare against the closest
    # product state built from its single-photon marginals
    delivered = distribute_bell_pair(0, 1, 1, 2, 3)
    tuples = list(delivered.amplitudes)
    assert len(tuples) == 2
    values = sorted(
        abs(amp) for amp in delivered.amplitudes.values()
    )
    assert values == pytest.approx([ROOT_HALF, ROOT_HALF], abs=1e-9)


def test_bell_swap_destinations_swaps_paths():
    one = distribute_bell_pair(0, 1, 2, 3, 4)
    other = distribute_bell_pair(0, 1, 3, 2, 4)
    paths_one = sorted(
        {label.path for labels in one.amplitudes for label in labels}
    )
    paths_other = sorted(
        {label.path for labels in other.amplitudes for label in labels}
    )
    assert paths_one == paths_other == [2, 3]
    slot_paths_one = [labels[0].path for labels in one.amplitudes]
    slot_paths_other = [labels[0].path for labels in other.amplitudes]
    assert set(slot_paths_one) == {2}
    assert set(slot_paths_other) == {3}


def test_bell_same_input_path_rejected():
    with pytest.raises(DomainError):
        distribute_bell_pair(1, 1, 0, 2, 4)


@pytest.mark.parametrize("dimension", range(2, 7))
def test_bell_fidelity_sweep(dimension):
    rng = np.random.default_rng(400 + dimension)
    for _ in range(5):
        x, y = rng.choice(dimension, size=2, replace=False)
        n, m = rng.integers(0, dimension, size=2)
        delivered = distribute_bell_pair(
            int(x), int(y), int(n), int(m), dimension
        )
        target = bell_target(int(x), int(y), int(n), int(m), dimension)
        assert fidelity(delivered, target) >= 1.0 - 1e-9


# ---------------------------------------------------------------- refusals


def test_a_bank_refuses_a_path_outside_its_ports():
    with pytest.raises(DomainError, match="^path 2 outside bank of 2 ports$"):
        HologramBank((0, 1)).mode_images(ModeLabel(2, 0))


def test_demux_refuses_a_state_of_another_dimension():
    state = tensor([make_qubit_photon(QubitSpec(1, 0), 0, 0, ModeSpace(4))])
    with pytest.raises(DomainError, match="^state spans 4 paths, demux has 3$"):
        MuxNetwork(3).receive(state)


def test_no_report_for_a_network_that_does_not_route():
    with pytest.raises(DomainError, match="^no report for MuxNetwork$"):
        routing_report(MuxNetwork(3))


def _photon():
    return make_qubit_photon(QubitSpec(1, 0), 0, 0, ModeSpace(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mux_transmit([1]), "not a QubitSpec: int"),
        (
            lambda: MuxNetwork(2).transmit([QubitSpec(1, 0), None]),
            "not a QubitSpec: NoneType",
        ),
        (lambda: demux_receive(None), "not an ensemble: NoneType"),
        (lambda: MuxNetwork(2).receive(None), "not an ensemble: NoneType"),
        (lambda: MuxNetwork(2).receive(_photon()), "not an ensemble: PhotonState"),
        (lambda: path_probabilities(None), "not a photon state: NoneType"),
        (lambda: netlist_apply(None, _photon()), "not a netlist: NoneType"),
        (lambda: netlist_apply(oambs_netlist(2), None), "not a state: NoneType"),
    ],
    ids=[
        "mux_transmit",
        "MuxNetwork.transmit",
        "demux_receive",
        "MuxNetwork.receive",
        "MuxNetwork.receive-photon",
        "path_probabilities",
        "netlist_apply-netlist",
        "netlist_apply-state",
    ],
)
def test_typed_refusals_of_mux_states_and_netlists(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message, error",
    [
        (lambda: mux_transmit(None), "not a sequence of QubitSpecs: NoneType", DomainError),
        (lambda: MuxNetwork(2).transmit(5), "not a sequence of QubitSpecs: int", DomainError),
        (lambda: star_deliver(0, 1, 3, None), "not a QubitSpec: NoneType", DomainError),
        (
            lambda: make_qubit_photon(None, 0, 0, ModeSpace(2)),
            "not a QubitSpec: NoneType",
            DomainError,
        ),
        (lambda: MuxNetwork(2).merge(None), "not an ensemble: NoneType", DomainError),
        (lambda: MuxNetwork(2).merge(_photon()), "not an ensemble: PhotonState", DomainError),
        (lambda: netlist_dumps(None), "not a netlist: NoneType", DomainError),
        (lambda: netlist_to_dict(None), "not a netlist: NoneType", DomainError),
        (lambda: oambs_netlist_error(None), "not a netlist: NoneType", DomainError),
        (lambda: random_unitary(3, None), "not a random generator: NoneType", DomainError),
        (
            lambda: superposed_destination(0, 3, None),
            "not a sequence of destinations: NoneType",
            DomainError,
        ),
        (
            lambda: superposed_destination(0, 3, [None]),
            r"not a \(path, amplitude\) pair: None",
            DomainError,
        ),
        (
            lambda: superposed_destination(0, 3, [(0, "a")]),
            r"not a \(path, amplitude\) pair: \(0, 'a'\)",
            DomainError,
        ),
        (
            lambda: superposed_destination(0, 3, [(True, 1.0)]),
            r"not a \(path, amplitude\) pair: \(True, 1\.0\)",
            DomainError,
        ),
        (
            lambda: random_unitary(2.5, np.random.default_rng(1)),
            "not an integer dimension: float",
            DomainError,
        ),
        (
            lambda: netlist_dumps(oambs_netlist(2), replay_error="x"),
            "not a replay error: str",
            DomainError,
        ),
        (lambda: ModeSpace(2.5), "not an integer dimension: float", DomainError),
        (lambda: ModeSpace(3, 2.5), "not an integer oam_window: float", DomainError),
        (lambda: ModeSpace(True), "not an integer dimension: bool", DomainError),
        (lambda: ModeSpace("a"), "not an integer dimension: str", DomainError),
        (lambda: QubitSpec("a", 0), "not a number: str", DomainError),
        (lambda: QubitSpec(None, 0), "not a number: NoneType", DomainError),
        (
            lambda: random_unitary(True, np.random.default_rng(1)),
            "not an integer dimension: bool",
            DomainError,
        ),
        # a number too large for a float has an infinite norm
        (
            lambda: QubitSpec(10**400, 0),
            r"\|alpha\|\^2 \+ \|beta\|\^2 = inf, expected 1",
            NormalizationError,
        ),
    ],
    ids=[
        "mux_transmit",
        "MuxNetwork.transmit",
        "star_deliver",
        "make_qubit_photon",
        "MuxNetwork.merge",
        "MuxNetwork.merge-photon",
        "netlist_dumps",
        "netlist_to_dict",
        "oambs_netlist_error",
        "random_unitary",
        "superposed_destination",
        "superposed_destination-entry",
        "superposed_destination-amplitude",
        "superposed_destination-bool-path",
        "random_unitary-dimension",
        "netlist_dumps-replay_error",
        "ModeSpace-float",
        "ModeSpace-oam_window",
        "ModeSpace-bool",
        "ModeSpace-str",
        "QubitSpec-str",
        "QubitSpec-None",
        "random_unitary-bool",
        "QubitSpec-overflow",
    ],
)
def test_typed_refusals_at_entry_points(call, message, error):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_mode_space_takes_numpy_integers_as_python_ints():
    space = ModeSpace(np.int64(3), np.int64(5))
    assert space == ModeSpace(3, 5)
    assert type(space.dimension) is int and type(space.oam_window) is int


def test_transmit_refuses_the_first_entry_that_is_not_a_qubit():
    # the photons before it are built first, and none of them can fail
    with pytest.raises(DomainError, match="^not a QubitSpec: str$"):
        MuxNetwork(3).transmit([QubitSpec(0, 1), "x", None])
    with pytest.raises(DomainError, match="^expected 2 qubits, got 1$"):
        MuxNetwork(2).transmit([None])
