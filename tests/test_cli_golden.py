"""CLI golden outputs: stdout bytes for a fixed matrix of invocations.

Every subcommand in both report formats across dimensions 2 to 6, plus a
star route at D=24, a MUX round trip and verify run at D=8, verify runs at
D=5 (the benchmark's dimension), D=10 and D=16 (whose MUX check runs its
20 rounds slot by slot, not over 2**16-row product states), a MUX round
trip at D=12 (4096 tuples) and the OAMBS netlist at D=8 and D=12, whose
replay error sums final supports of up to 5 labels.  The committed
``golden/*.out`` files pin the exact bytes, so any change in behaviour or
float formatting shows up as a diff.  Regenerate them (only when an output
change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from oamnet.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

CASES = {
    "verify_d2": ["verify", "--dimension", "2"],
    "verify_d4_seed7": ["verify", "--dimension", "4", "--seed", "7"],
    "verify_d6_text": ["verify", "--dimension", "6", "--seed", "3", "--format", "text"],
    "route_simple_d3": ["route", "--kind", "simple", "--from", "0", "--to", "2", "--dimension", "3"],
    "route_simple_reverse_d5": [
        "route", "--kind", "simple", "--from", "1", "--to", "3",
        "--dimension", "5", "--side", "reverse",
    ],
    "route_star_d6": ["route", "--kind", "star", "--from", "2", "--to", "4", "--dimension", "6"],
    "route_star_d4_text": [
        "route", "--kind", "star", "--from", "1", "--to", "0",
        "--dimension", "4", "--format", "text",
    ],
    "netlist_symmetric_d3": ["netlist", "--target", "symmetric", "--dimension", "3"],
    "netlist_oambs_d4": ["netlist", "--target", "oambs", "--dimension", "4"],
    "netlist_oambs_d8": ["netlist", "--target", "oambs", "--dimension", "8"],
    "netlist_oambs_d12": ["netlist", "--target", "oambs", "--dimension", "12"],
    "scenario_mux_d5_seed3": ["scenario", "mux-roundtrip", "--dimension", "5", "--seed", "3"],
    "scenario_mux_d6_text": [
        "scenario", "mux-roundtrip", "--dimension", "6", "--seed", "11",
        "--format", "text",
    ],
    "scenario_bell_d4": ["scenario", "bell", "--src", "0,1", "--dst", "2,3", "--dimension", "4"],
    "scenario_superposed_d3_text": [
        "scenario", "superposed", "--from", "1", "--to", "0,2",
        "--dimension", "3", "--format", "text",
    ],
    "route_star_d24": ["route", "--kind", "star", "--from", "5", "--to", "17", "--dimension", "24"],
    "scenario_mux_d8_seed5": ["scenario", "mux-roundtrip", "--dimension", "8", "--seed", "5"],
    "verify_d8_seed2": ["verify", "--dimension", "8", "--seed", "2"],
    "scenario_mux_d12_seed1": ["scenario", "mux-roundtrip", "--dimension", "12", "--seed", "1"],
    "verify_d10_seed4": ["verify", "--dimension", "10", "--seed", "4"],
    "verify_d5_seed11": ["verify", "--dimension", "5", "--seed", "11"],
    "verify_d16_seed1": ["verify", "--dimension", "16", "--seed", "1"],
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    code, text = run_cli(CASES[name])
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert text.encode("utf-8") == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, text = run_cli(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.out").write_bytes(text.encode("utf-8"))
