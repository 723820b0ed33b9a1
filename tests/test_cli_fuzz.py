"""The CLI end to end over generated flag sets.

Every argv mixes the real flags of one subcommand with small and odd
values: empty, negative, NaN and inf strings, malformed pairs, duplicate
flags (argparse keeps the last) and conflicting ones.  Whatever the argv,
``main`` must return an exit code in {0, 1, 2, 3} without raising, no
``Traceback`` may reach stderr, a JSON report must parse, and a second
run must give the same bytes.  Dimensions stay at or below 6 and every
``--output`` lies in a test directory, so no argv asks for a large
allocation or writes elsewhere.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet.cli import main

ODD = (
    "", " ", "-1", "-0", "nan", "-nan", "inf", "-inf", "1e3", "0x3", "3.0",
    "a", ",", "1,", ",1", "1,,2", "0,0", "1,2,3", "-1,1",
)


def values(*valid):
    """Mostly a valid value, sometimes an odd one."""
    good = st.sampled_from(valid)
    return st.integers(0, 3).flatmap(lambda n: good if n < 3 else st.sampled_from(ODD))


INDEX = values("0", "1", "2", "3", "5", "6")
COMMON = {
    "--dimension": values("1", "2", "3", "4", "5", "6", " 2", "+4"),
    "--tolerance": values("1e-9", "0.5", "1e-300", "1e300", "0"),
    "--oam-window": values("0", "1", "2", "7", "100", str(10**23)),
    "--format": values("json", "text", "xml", "JSON"),
    "--seed": values("0", "1", "7", str(2**64), "-1"),
}
SCENARIO_FLAGS = {
    "--src": values("0,1", "1,0", "2,3", "1,1", "0,9"),
    "--dst": values("0,1", "2,3", "3,2", "2,2"),
    "--from": INDEX,
    "--to": values("0", "2", "0,2", "1,2", "0,1,2", "2,2"),
}
FLAGS = {
    **COMMON,
    **SCENARIO_FLAGS,
    "--kind": values("simple", "star", "ring"),
    "--side": values("forward", "reverse", "star"),
    "--target": values("symmetric", "oambs", "bell"),
}
# per command: the flags it needs, then the ones it may also take;
# "--output" joins every command, with a path in the test directory
COMMANDS = {
    "verify": ((), ()),
    "route": (("--kind", "--from", "--to"), ("--side",)),
    "netlist": (("--target",), ()),
    "scenario mux-roundtrip": ((), tuple(SCENARIO_FLAGS)),
    "scenario bell": (("--src", "--dst"), ("--from", "--to")),
    "scenario superposed": (("--from", "--to"), ("--src", "--dst")),
    "scenario": ((), tuple(SCENARIO_FLAGS)),
    "scenario ring": ((), tuple(SCENARIO_FLAGS)),
}


@st.composite
def argvs(draw, output_dir):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    needed, optional = COMMANDS[command]
    # route's --to is one index, scenario's a list
    flags = {**FLAGS, "--to": INDEX} if command == "route" else FLAGS
    chosen = [flag for flag in needed if draw(st.integers(0, 9))]
    pool = sorted(COMMON) + list(needed + optional) + ["--output"]
    chosen += draw(st.lists(st.sampled_from(pool), max_size=5))
    argv = command.split()
    output = None
    for flag in draw(st.permutations(chosen)):
        if flag == "--output":
            output = output_dir / draw(
                st.sampled_from(("report.out", "missing/report.out"))
            )
            value = str(output)
        else:
            value = draw(flags[flag])
        argv += [flag, value]
    return argv, output


def run(argv, output):
    if output is not None and output.exists():
        output.unlink()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = output.read_bytes() if output is not None and output.exists() else None
    return code, out.getvalue(), err.getvalue(), written


def effective_format(argv):
    # argparse keeps the last of repeated flags
    formats = [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag == "--format"]
    return formats[-1] if formats else "json"


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_any_flag_set_exits_cleanly_and_repeats(output_dir, data):
    argv, output = data.draw(argvs(output_dir))
    first = run(argv, output)
    code, stdout, stderr, written = first
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in stderr, argv
    if code in (0, 1) and effective_format(argv) == "json":
        json.loads(written.decode() if output is not None else stdout)
    assert run(argv, output) == first, argv
