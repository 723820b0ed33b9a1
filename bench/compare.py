"""Compare a parent's and a change's benchmark results, metric by metric.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are each a file or a directory of files holding the
standard output of ``bench/run.py`` runs, any number of runs per file; the
``{"record": ...}`` lines are read and the rest ignored.  Runs are grouped by
workload and by trace mode, sorted by seed and paired by position.

For every workload and metric the report gives each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict:

* ``improved``: the change won at least 9 in 10 pairs and its median beats
  the parent's by more than the parent's own quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from ``BENCHMARK.json``;
* ``unresolved``: the parent's own quartile spread is wider than the bound
  (and not every change run beats every parent run), or the metric has no
  bound;
* ``no worse``: otherwise.

For ``error_rate`` any rise in the mean over runs is ``worse``.  Metric and
workload names must match ``[A-Za-z0-9_.-]+``.  Exit status: 0, or 1 when
any verdict is ``worse``, or 2 for unreadable or invalid input.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WIN_SHARE = 0.9


class InputError(Exception):
    pass


def check_name(name: object, what: str) -> str:
    if not isinstance(name, str) or not NAME.fullmatch(name):
        raise InputError(f"invalid {what} name {name!r}: use [A-Za-z0-9_.-]")
    return name


def metric_specs(benchmark: Path) -> dict[str, tuple[str, float | None]]:
    """``name -> (better, bound)`` from BENCHMARK.json; per-layer metrics
    have no bound."""
    specs: dict[str, tuple[str, float | None]] = {}
    if not benchmark.is_file():
        return specs
    try:
        data = json.loads(benchmark.read_text(encoding="utf-8"))
        for entry in data["end_to_end"]:
            specs[check_name(entry["name"], "metric")] = (entry["better"], entry["bound"])
        for entry in data["per_layer"]:
            specs[check_name(entry["name"], "metric")] = (entry["better"], None)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"unreadable {benchmark}: {exc!r}") from exc
    return specs


def load_records(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace) and sorted by seed."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    if not files:
        raise InputError(f"no result files under {path}")
    groups: dict[tuple[str, int], list[dict]] = {}
    for file in files:
        try:
            lines = file.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {file}: {exc}") from exc
        for line in lines:
            if not line.startswith('{"record"'):
                continue
            try:
                record = json.loads(line)["record"]
                key = (check_name(record["workload"], "workload"), int(record["trace"]))
                for name in record["metrics"]:
                    check_name(name, "metric")
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"malformed record in {file}: {exc!r}") from exc
            groups.setdefault(key, []).append(record)
    for records in groups.values():
        records.sort(key=lambda record: record["seed"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> tuple[str, int, int]:
    """``(verdict, pairs won by the change, pairs)``; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if pairs and won >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "improved", won, len(pairs)
    if bound is None:
        return "unresolved", won, len(pairs)
    scale = abs(pm)
    spread = (p3 - p1) / scale if scale else (0.0 if p3 == p1 else math.inf)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", won, len(pairs)
    loss = -gain / scale if scale else (math.inf if gain < 0 else 0.0)
    if loss > bound:
        return "worse", won, len(pairs)
    return "no worse", won, len(pairs)


def compare(parent_path: Path, change_path: Path, benchmark: Path) -> tuple[list[str], bool]:
    specs = metric_specs(benchmark)
    parent = load_records(parent_path)
    change = load_records(change_path)
    lines = [
        f"{'workload':16s} {'t':1s} {'metric':50s} {'unit':6s} "
        f"{'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} {'won':>7s}  verdict"
    ]
    any_worse = False
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        names = sorted(set(p_runs[0]["metrics"]) & set(c_runs[0]["metrics"]))
        for name in names:
            p_vals = [run["metrics"][name]["value"] for run in p_runs if name in run["metrics"]]
            c_vals = [run["metrics"][name]["value"] for run in c_runs if name in run["metrics"]]
            better, bound = specs.get(name, ("lower", None))
            result, won, n = verdict(p_vals, c_vals, better, bound)
            if name == "error_rate":
                # a gain does not count when more ops fail, whatever the medians
                rose = statistics.fmean(c_vals) > statistics.fmean(p_vals)
                result = "worse" if rose else "no worse"
            any_worse |= result == "worse"
            unit = p_runs[0]["metrics"][name]["unit"]
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            lines.append(
                f"{workload:16s} {trace:1d} {name:50s} {unit:6s} "
                f"{pm:10.4g} [{p1:9.4g}, {p3:9.4g}]  {cm:10.4g} [{c1:9.4g}, {c3:9.4g}]  "
                f"{won:3d}/{n:<3d}  {result}"
            )
    for key in sorted(parent.keys() ^ change.keys()):
        lines.append(f"{key[0]:16s} {key[1]:1d} only on one side; not compared")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        lines, any_worse = compare(Path(args[0]), Path(args[1]), ROOT / "BENCHMARK.json")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
