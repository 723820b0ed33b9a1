"""Tests of the benchmark itself: output checks, op accounting, the tracer,
the compare command and the result contract.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.load_source()

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oamnet import serialize  # noqa: E402
from oamnet.states import EnsembleState, ModeLabel, PhotonState  # noqa: E402

CheckFailed = workloads.CheckFailed


def _op(name: str, x=None, seed: int = 3):
    workload = workloads.WORKLOADS[name]
    if x is None:
        x = workload.draw(np.random.default_rng(seed))
    output = workload.run(x)
    workload.check(x, output)
    return workload, x, output


# --- output checks ---------------------------------------------------------


def test_mux_check_rejects_wrong_state():
    workload, qubits, state = _op("mux-roundtrip")
    amps = dict(state.amplitudes)
    key = max(amps, key=lambda k: abs(amps[k]))
    amps[key] = -amps[key]
    flipped = EnsembleState(state.space, state.slot_count, amps)
    with pytest.raises(CheckFailed):
        workload.check(qubits, flipped)
    with pytest.raises(CheckFailed):
        workload.check(qubits[::-1], state)


def test_star_check_rejects_wrong_delivery():
    workload, pair, state = _op("star-routing", (3, 17))
    ((label, amp),) = state.amplitudes.items()
    space, dim = state.space, workloads.STAR_DIMENSION
    neighbour = ModeLabel((label.path + 1) % dim, label.oam)
    wrong = [
        PhotonState(space, {neighbour: amp}),
        # same sender tag modulo D, but not the exact delivered winding
        PhotonState(space, {ModeLabel(label.path, label.oam + dim): amp}),
        PhotonState(space, {label: 0.9, neighbour: math.sqrt(0.19)}),
    ]
    for state in wrong:
        with pytest.raises(CheckFailed):
            workload.check(pair, state)


def test_verify_check_rejects_failed_report():
    workload, seed, (code, text) = _op("verify", 7)
    report = json.loads(text)
    failing = json.loads(text)
    failing["checks"][3]["pass"] = False
    missing = json.loads(text)
    del missing["checks"][-1]
    wrong = [
        (seed, (1, text)),
        (seed, (0, json.dumps(failing))),
        (seed, (0, json.dumps(missing))),
        (seed, (0, "not json")),
        (seed + 1, (code, text)),
    ]
    assert report["checks"]
    for x, output in wrong:
        with pytest.raises(CheckFailed):
            workload.check(x, output)


def test_netlist_check_rejects_wrong_export():
    samples = [(path, 1) for path in range(workloads.NETLIST_DIMENSION)]
    workload, _, (code, text, loaded) = _op("netlist-export", samples)
    error = json.loads(text)["metadata"]["replay_error"]
    broken = dataclasses.replace(
        loaded, elements=loaded.elements[:10] + loaded.elements[11:]
    )
    wrong = [
        (2, text, loaded),
        (code, text.replace(", ", ",", 1), loaded),
        (code, serialize.netlist_dumps(loaded, 1e-6), loaded),
        (code, serialize.netlist_dumps(broken, error), broken),
    ]
    for output in wrong:
        with pytest.raises(CheckFailed):
            workload.check(samples, output)


# --- op accounting ---------------------------------------------------------


def test_failed_raising_and_timed_out_ops_are_counted(monkeypatch):
    def op(x):
        if x == 2:
            raise RuntimeError("boom")
        if x == 3:
            time.sleep(5)
        return x

    def check(x, output):
        if x == 1:
            raise CheckFailed("wrong output")

    monkeypatch.setattr(run, "OP_CAP_S", 0.2)
    fake = workloads.Workload("fake", None, op, check, 0)
    tally = run.Tally()
    started = time.perf_counter()
    run.run_ops(fake, range(5), tally)
    assert time.perf_counter() - started < 2
    assert list(tally.ok) == [1, 0, 0, 0, 1]
    assert (tally.attempted, tally.failed, tally.timeouts) == (5, 3, 1)
    assert len(tally.latencies) == 5
    assert run.ops_per_s(tally) >= 0


# --- tracer ----------------------------------------------------------------


def _traced(name: str, ops: int, seed: int = 11):
    workload = dataclasses.replace(workloads.WORKLOADS[name], trace_ops=ops)
    rng = workloads.prepare(workload, seed)
    return run.traced_run(workload, rng, 0.01)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    def counts():
        tally, values, _ = _traced(name, 2)
        assert tally.failed == 0
        return {
            key: value
            for key, value in values.items()
            if not key.endswith("ms_per_op") and key != "trace.overhead_frac"
        }

    first = counts()
    assert first == counts()
    probe = "cli.main" if name in ("verify", "netlist-export") else "states.compose_images"
    assert first[f"{probe}.calls_per_op"] > 0


def test_self_times_add_up_to_op_wall_time():
    _, values, residual = _traced("verify", 2)
    attributed = values["trace.unattributed_ms_per_op"] + sum(
        values[f"{name}.self_ms_per_op"] for name in tracing.SPAN_NAMES
    )
    assert attributed == pytest.approx(values["trace.op_ms_per_op"], rel=1e-9)
    assert 0 <= residual < 0.5
    assert values["serialize.dumps_canonical.calls_per_op"] == 1


def test_tracer_restores_every_binding():
    bindings = [b for bs in tracing.SPAN_BINDINGS.values() for b in bs]
    before = [getattr(owner, attr) for owner, attr in bindings]
    with tracing.Tracer().installed():
        assert all(getattr(o, a) is not f for (o, a), f in zip(bindings, before))
    assert [getattr(owner, attr) for owner, attr in bindings] == before


# --- BENCHMARK.json and the result line -------------------------------------


def test_benchmark_json_names_match_the_code():
    data = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == tracing.metric_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload",
         "star-routing", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = tracing.metric_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert record["error_rate"] == 0
    assert {"python", "numpy", "nproc", "cpu_model", "loadavg_start",
            "loadavg_end", "commit", "seed"} <= set(record["env"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star-routing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- compare ---------------------------------------------------------------


def _write_runs(path, workload, values_by_metric):
    runs = len(next(iter(values_by_metric.values())))
    lines = []
    for seed in range(runs):
        metrics = {
            name: {"value": values[seed], "unit": "x"}
            for name, values in values_by_metric.items()
        }
        record = {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics}
        lines.append(json.dumps({"record": record}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_compare_rejects_bad_metric_names(tmp_path, capsys):
    parent = _write_runs(tmp_path / "p", "verify", {"latency ms": [1.0, 2.0]})
    change = _write_runs(tmp_path / "c", "verify", {"ops_per_s": [1.0, 2.0]})
    assert compare.main([str(parent), str(change)]) == 2
    assert "invalid metric name" in capsys.readouterr().err


def test_compare_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [p - 2 for p in parent], "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, parent, "lower", 0.1)[:2] == ("no worse", 0)
    assert compare.verdict(parent, [p * 1.3 for p in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [p * 1.3 for p in parent], "higher", 0.1)[0] == "improved"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, parent, "lower", None)[0] == "unresolved"


def test_compare_flags_more_failures(tmp_path):
    parent = _write_runs(tmp_path / "p", "verify", {"error_rate": [0.0] * 10})
    change = _write_runs(tmp_path / "c", "verify", {"error_rate": [0.0] * 9 + [0.1]})
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(change)]) == 1
