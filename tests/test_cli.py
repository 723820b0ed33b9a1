"""CLI contract: exit codes, determinism, and netlist file round trips."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from oamnet import (
    Direction,
    SymmetricMultiport,
    device_matrix,
    netlist_path_matrix,
    oambs,
    sbmao,
    symmetric_netlist,
)
from oamnet.cli import _closed_form_error, main
from oamnet.serialize import (
    dumps_canonical,
    matrix_pairs,
    netlist_dumps,
    netlist_loads,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------ serialization


def test_canonical_dump_is_parseable_json():
    doc = {"a": 1, "b": [0.5, -0.0, 3.0], "c": None, "d": True, "e": "x"}
    text = dumps_canonical(doc)
    assert json.loads(text) == doc


def test_canonical_floats_round_trip_exactly():
    values = [0.1, 1 / 3, np.pi, 2 ** -52, 1e300, -7.25]
    text = dumps_canonical(values)
    assert json.loads(text) == values


def test_netlist_json_round_trip_bit_for_bit():
    built = symmetric_netlist(4)
    text = netlist_dumps(built, replay_error=0.0)
    reloaded = netlist_loads(text)
    assert reloaded == built
    # replay of the imported netlist reproduces the replayed unitary
    # bit for bit, through the serialized matrix entries
    first = matrix_pairs(netlist_path_matrix(built))
    second = matrix_pairs(netlist_path_matrix(reloaded))
    assert dumps_canonical(first) == dumps_canonical(second)
    # and a second export of the reloaded netlist is byte-identical
    assert netlist_dumps(reloaded, replay_error=0.0) == text


def test_netlist_schema_fields():
    built = symmetric_netlist(2)
    data = json.loads(netlist_dumps(built, replay_error=1e-16))
    assert set(data) == {"dimension", "parity_flip", "elements", "metadata"}
    assert data["dimension"] == 2
    assert data["parity_flip"] is True
    assert data["metadata"]["replay_error"] == 1e-16
    kinds = {element["type"] for element in data["elements"]}
    assert kinds <= {
        "beamsplitter",
        "phase",
        "dove",
        "hologram",
        "reflective_hologram",
        "mirror",
    }
    for element in data["elements"]:
        if element["type"] == "beamsplitter":
            assert isinstance(element["ports"], list)
            assert isinstance(element["theta"], float)


# ------------------------------------------------------------------ verify


def test_verify_passes_and_is_deterministic():
    code_a, out_a, _ = run_cli("verify", "--dimension", "3", "--seed", "42")
    code_b, out_b, _ = run_cli("verify", "--dimension", "3", "--seed", "42")
    assert code_a == code_b == 0
    assert out_a.encode() == out_b.encode()
    report = json.loads(out_a)
    assert all(check["pass"] for check in report["checks"])
    names = [check["name"] for check in report["checks"]]
    assert "closed_form_forward" in names
    assert report["config"]["dimension"] == 3


def test_verify_dimension_zero_is_config_error():
    code, out, err = run_cli("verify", "--dimension", "0")
    assert code == 2
    assert out == ""
    assert "dimension" in err


def test_verify_text_format():
    code, out, _ = run_cli("verify", "--dimension", "2", "--format", "text")
    assert code == 0
    assert "all checks passed" in out


def test_negative_seed_is_config_error():
    code, _, err = run_cli("verify", "--dimension", "2", "--seed", "-1")
    assert code == 2
    assert "--seed" in err


def test_too_small_window_is_config_error():
    # a window of 1 cannot hold the mux channel tags
    code, _, err = run_cli(
        "scenario", "mux-roundtrip", "--dimension", "3", "--oam-window", "1"
    )
    assert code == 2
    assert "window" in err


# ------------------------------------------------------------------- route


def test_route_simple():
    code, out, _ = run_cli(
        "route", "--kind", "simple", "--dimension", "5", "--from", "2",
        "--to", "4",
    )
    assert code == 0
    row = json.loads(out)
    assert row["winding"] == 4
    assert row["delivered_path"] == 4
    assert row["pass"] is True


def test_route_star_reports_tag():
    code, out, _ = run_cli(
        "route", "--kind", "star", "--dimension", "4", "--from", "1",
        "--to", "3",
    )
    assert code == 0
    row = json.loads(out)
    assert row["winding"] == 3
    assert row["delivered_path"] == 3
    assert row["sender_tag"] == 1


def test_route_simple_reverse_side():
    code, out, _ = run_cli(
        "route", "--kind", "simple", "--dimension", "4", "--from", "1",
        "--to", "2", "--side", "reverse",
    )
    assert code == 0
    row = json.loads(out)
    assert row["winding"] == 3
    assert row["delivered_path"] == 2


@pytest.mark.parametrize("side", ["forward", "reverse"])
def test_route_star_rejects_side(side):
    code, out, err = run_cli(
        "route", "--kind", "star", "--dimension", "4", "--from", "1",
        "--to", "2", "--side", side,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --side applies to --kind simple only\n"


def test_route_simple_side_defaults_to_forward():
    code, out, _ = run_cli(
        "route", "--kind", "simple", "--dimension", "4", "--from", "1",
        "--to", "2",
    )
    assert code == 0
    assert json.loads(out)["side"] == "forward"


def test_route_out_of_range_is_config_error():
    code, _, err = run_cli(
        "route", "--kind", "simple", "--dimension", "2", "--from", "0",
        "--to", "5",
    )
    assert code == 2
    assert "--to" in err


def test_route_trivial_case():
    code, out, _ = run_cli(
        "route", "--kind", "simple", "--dimension", "2", "--from", "0",
        "--to", "0",
    )
    assert code == 0
    assert json.loads(out)["winding"] == 0


def test_route_honours_tolerance():
    # the D=2 delivery lands with |amp| one ulp below 1 (error 2.22e-16)
    argv = ("route", "--kind", "simple", "--dimension", "2", "--from", "0", "--to", "0")
    code, out, _ = run_cli(*argv, "--tolerance", "1e-16")
    assert code == 1
    row = json.loads(out)
    assert row["pass"] is False
    assert row["amplitude_error"] == 2.220446049250313e-16
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert json.loads(out)["pass"] is True


# ------------------------------------------------------------ closed form

# exact values of the closed-form metric, measured before its basis walk
# was shared with oambs_netlist_error; the goldens print it to 17 digits
@pytest.mark.parametrize(
    "build, dimension, direction, expected",
    [
        (SymmetricMultiport, 3, Direction.FORWARD, 1.3822747926960686),
        (SymmetricMultiport, 4, Direction.FORWARD, 1.5),
        (SymmetricMultiport, 4, Direction.REVERSE, 1.5),
        (oambs, 3, Direction.FORWARD, 4.996003610813204e-16),
        (oambs, 3, Direction.REVERSE, 1.0000000000000002),
        (oambs, 4, Direction.FORWARD, 1.8369701987210297e-16),
        (sbmao, 3, Direction.FORWARD, 1.0000000000000002),
        (sbmao, 4, Direction.FORWARD, 1.0),
        (sbmao, 4, Direction.REVERSE, 1.8369701987210297e-16),
    ],
)
def test_closed_form_error_values(build, dimension, direction, expected):
    matrix = device_matrix(build(dimension))
    assert _closed_form_error(matrix, dimension, direction) == expected


# ----------------------------------------------------------------- netlist


def test_netlist_symmetric_to_file(tmp_path):
    target = tmp_path / "netlist.json"
    code, out, _ = run_cli(
        "netlist", "--target", "symmetric", "--dimension", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    splitters = [e for e in data["elements"] if e["type"] == "beamsplitter"]
    assert len(splitters) == 1
    assert data["metadata"]["replay_error"] < 1e-9
    # import and replay reproduce the matrix bit for bit
    reloaded = netlist_loads(target.read_text())
    assert np.array_equal(
        netlist_path_matrix(reloaded),
        netlist_path_matrix(symmetric_netlist(2)),
    )


def test_netlist_dimension_one_has_no_beamsplitters():
    code, out, _ = run_cli("netlist", "--target", "symmetric", "--dimension", "1")
    assert code == 0
    data = json.loads(out)
    assert [e for e in data["elements"] if e["type"] == "beamsplitter"] == []


def test_netlist_oambs_structure():
    code, out, _ = run_cli("netlist", "--target", "oambs", "--dimension", "3")
    assert code == 0
    data = json.loads(out)
    kinds = [element["type"] for element in data["elements"]]
    assert kinds.count("dove") == 3
    first_bs = kinds.index("beamsplitter")
    last_bs = len(kinds) - 1 - kinds[::-1].index("beamsplitter")
    assert first_bs < kinds.index("dove") < last_bs
    assert data["metadata"]["replay_error"] < 1e-9


def test_netlist_unwritable_output_is_io_error(tmp_path):
    target = tmp_path / "missing" / "deep" / "netlist.json"
    code, _, err = run_cli(
        "netlist", "--target", "symmetric", "--dimension", "2",
        "--output", str(target),
    )
    assert code == 3
    assert "cannot write" in err


# ---------------------------------------------------------------- scenario


def test_scenario_bell():
    code, out, _ = run_cli(
        "scenario", "bell", "--dimension", "4", "--src", "0,1", "--dst", "2,3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["fidelity"] >= 1 - 1e-9
    assert data["delivered_tags"] == [0, 1]


def test_scenario_bell_missing_params():
    code, _, err = run_cli("scenario", "bell", "--dimension", "4")
    assert code == 2
    assert "--src" in err


def test_scenario_mux_roundtrip_deterministic():
    code_a, out_a, _ = run_cli(
        "scenario", "mux-roundtrip", "--dimension", "3", "--seed", "7"
    )
    code_b, out_b, _ = run_cli(
        "scenario", "mux-roundtrip", "--dimension", "3", "--seed", "7"
    )
    assert code_a == code_b == 0
    assert out_a == out_b
    data = json.loads(out_a)
    assert data["roundtrip_fidelity"] >= 1 - 1e-9


def test_scenario_superposed_weights():
    code, out, _ = run_cli(
        "scenario", "superposed", "--dimension", "4", "--from", "0",
        "--to", "1,2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["path_weights"]["1"] == pytest.approx(0.5, abs=1e-9)
    assert data["path_weights"]["2"] == pytest.approx(0.5, abs=1e-9)


def test_scenario_superposed_missing_params():
    code, _, _ = run_cli("scenario", "superposed", "--dimension", "4")
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_help_exits_zero():
    code, _, _ = run_cli("--help")
    assert code == 0
