"""Host-time benchmark for oamnet.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single caller for ``S`` seconds of
wall time (longer if needed to reach ``P90_MIN_OPS`` ops, up to
``MAX_RUN_S``).  The inputs come from ``--seed`` alone, and every op's output
is checked outside the timed interval; a failed or raising op counts against
``error_rate`` and is never dropped, and an op running past ``OP_CAP_S`` is
interrupted and recorded as timed out.

Times are normalized to host speed.  On a shared host the same op's wall
time drifts by up to a factor of 1.8 over tens of seconds, with CPU time
equal to wall time, so the loop runs a fixed pure-Python reference kernel
between ops, and each op's time is scaled by ``REF_NOMINAL_S`` over the mean
of the kernel times just before and just after it.  The reported times are
thus those of a host on which the kernel takes ``REF_NOMINAL_S``; the record
line also carries the raw wall-clock figures.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s``,
``latency_p50_ms``, ``latency_p90_ms``, ``setup_s`` (interpreter start to
ready, the median over ``SETUP_PROBES`` fresh interpreters) and
``peak_rss_mb``.  ``error_rate`` is ``failed / attempted``.  ``--trace 1``
runs a fixed number of ops with every layer wrapped by ``tracing.Tracer``,
then the same inputs untraced for the rest of the time, and reports the
per-layer metrics (raw wall-clock self times) and ``trace.overhead_frac``
(untraced over traced ``ops_per_s``, minus one).

numpy's BLAS is held to one thread, set before numpy is imported, so that
each run is one single-threaded process.

Standard output ends with a human-readable table, one ``{"record": ...}``
line (environment stamp and every metric; ``bench/compare.py`` reads it)
and, last, ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OP_CAP_S = 30.0
SETUP_PROBES = 5
P90_MIN_OPS = 100
MAX_RUN_S = 100.0
FAILURES_KEPT = 5
REF_ITERATIONS = 300
REF_NOMINAL_S = 0.75e-3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SourceMissing(Exception):
    pass


def load_source():
    """Import oamnet from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "oamnet" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"{package} not found")
    sys.path.insert(0, str(SRC))
    import oamnet

    if not Path(oamnet.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SourceMissing(f"oamnet resolved to {oamnet.__file__}, not {SRC}")
    return oamnet


# --- host speed ------------------------------------------------------------


@dataclass(frozen=True)
class _Key:
    path: int
    oam: int


def reference_kernel() -> float:
    """Seconds for a fixed slice of interpreter work of the kind oamnet's hot
    loops do: frozen-dataclass keys, dict updates, complex arithmetic.

    The collector is off so that the kernel measures the host, not the
    size of the heap the program under test keeps.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc: dict[_Key, complex] = {}
        for i in range(REF_ITERATIONS):
            key = _Key(i % 31, -(i % 7))
            acc[key] = acc.get(key, 0j) + complex(i, 1.0) * (0.5 + 0.25j)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# --- ops -------------------------------------------------------------------


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the code under
    test that catches Exception can swallow it."""


def _raise_timeout(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S} s")


@dataclass
class Tally:
    """Every attempted op: its wall time, the reference-kernel time around
    it, and whether its output checked out.

    Compact arrays, so that a faster program running more ops grows the
    benchmark's own share of ``peak_rss_mb`` as little as possible.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    refs: array = field(default_factory=lambda: array("d"))
    ok: bytearray = field(default_factory=bytearray)
    timeouts: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(0)

    def add(self, latency: float, ref: float, failure: str | None) -> None:
        if failure is not None and len(self.failures) < FAILURES_KEPT:
            self.failures.append(f"op {self.attempted}: {failure}")
        self.latencies.append(latency)
        self.refs.append(ref)
        self.ok.append(failure is None)

    def extend(self, other: "Tally") -> None:
        self.failures = (self.failures + other.failures)[:FAILURES_KEPT]
        self.latencies.extend(other.latencies)
        self.refs.extend(other.refs)
        self.ok.extend(other.ok)
        self.timeouts += other.timeouts

    def normalized(self) -> list[float]:
        """Op times on a host where the reference kernel takes REF_NOMINAL_S."""
        return [lat * REF_NOMINAL_S / ref for lat, ref in zip(self.latencies, self.refs)]


def _attempt(workload, x, tracer, op_id: int):
    """One timed op: ``(seconds, output, failure)``; raises OpTimeout."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            if tracer is None:
                output = workload.run(x)
            else:
                with tracer.op(op_id):
                    output = workload.run(x)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:
        return perf_counter() - start, None, f"raised {exc!r}"
    return perf_counter() - start, output, None


def run_ops(workload, inputs, tally: Tally, until: float | None = None, tracer=None) -> None:
    """Run ops over ``inputs`` (until the deadline ``until``, if given).

    The reference kernel runs between ops; each op is timed alone, and its
    check runs after the clock stops.
    """
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        ref = reference_kernel()
        for x in inputs:
            if until is not None and perf_counter() >= until:
                break
            start = perf_counter()
            try:
                latency, output, failure = _attempt(workload, x, tracer, tally.attempted)
            except OpTimeout as exc:
                latency, failure = perf_counter() - start, f"timed out: {exc}"
                tally.timeouts += 1
            else:
                if failure is None:
                    try:
                        workload.check(x, output)
                    except Exception as exc:
                        failure = f"check: {exc}"
            after = reference_kernel()
            tally.add(latency, (ref + after) / 2, failure)
            ref = after
    finally:
        signal.signal(signal.SIGALRM, previous)


def draws(workload, rng):
    while True:
        yield workload.draw(rng)


def ops_per_s(tally: Tally) -> float:
    """Ops that passed their check per normalized second spent in ops."""
    busy = sum(tally.normalized())
    return (tally.attempted - tally.failed) / busy if busy > 0 else 0.0


def percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(tally: Tally) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end op metrics, normalized and as raw wall-clock figures."""
    good = [i for i, ok in enumerate(tally.ok) if ok]
    normalized = tally.normalized()
    busy = sum(tally.latencies)
    wall_rate = len(good) / busy if busy > 0 else 0.0
    norm = [normalized[i] for i in good]
    wall = [tally.latencies[i] for i in good]
    return (
        {
            "ops_per_s": ops_per_s(tally),
            "latency_p50_ms": percentile_ms(norm, 50),
            "latency_p90_ms": percentile_ms(norm, 90),
        },
        {
            "ops_per_s": wall_rate,
            "latency_p50_ms": percentile_ms(wall, 50),
            "latency_p90_ms": percentile_ms(wall, 90),
            "reference_ms": 1e3 * statistics.median(tally.refs) if tally.refs else 0.0,
        },
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up time -------------------------------------------------------------


def measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line, for
    each probe: ``(normalized, wall)``.  The probe runs the reference kernel
    as it starts and again when ready, and reports both times on that line."""
    normalized, wall = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        child = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload_name,
                "--seed",
                str(seed),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=OP_CAP_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        words = line.split()
        if code != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed with status {code}")
        ref = (float(words[1]) + float(words[2])) / 2
        normalized.append(elapsed * REF_NOMINAL_S / ref)
        wall.append(elapsed)
    return normalized, wall


# --- environment stamp -------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
    }


# --- runs --------------------------------------------------------------------


def plain_run(workload, rng, seconds: float) -> Tally:
    """Ops for ``seconds``, topped up to ``P90_MIN_OPS`` ops (within
    ``MAX_RUN_S``) so that the p90 has ten samples beyond it."""
    tally = Tally()
    inputs = draws(workload, rng)
    start = perf_counter()
    run_ops(workload, inputs, tally, until=start + seconds)
    missing = P90_MIN_OPS - tally.attempted
    if missing > 0:
        run_ops(workload, itertools.islice(inputs, missing), tally, until=start + MAX_RUN_S)
    return tally


def traced_run(workload, rng, seconds: float) -> tuple[Tally, dict[str, float], float]:
    """Fixed traced ops, then the same inputs untraced until time is up."""
    import tracing

    inputs = [workload.draw(rng) for _ in range(workload.trace_ops)]
    deadline = perf_counter() + seconds
    tracer = tracing.Tracer()
    traced = Tally()
    with tracer.installed():
        run_ops(workload, inputs, traced, tracer=tracer)
    untraced = Tally()
    while True:
        run_ops(workload, inputs, untraced, until=deadline)
        if perf_counter() >= deadline:
            break
    values = tracer.metrics()
    traced_rate = ops_per_s(traced)
    values["trace.overhead_frac"] = (
        ops_per_s(untraced) / traced_rate - 1.0 if traced_rate > 0 else 0.0
    )
    # self times must account for the op wall time the harness measured
    residual = 1e3 * statistics.fmean(traced.latencies) - tracer.attributed_ms_per_op()
    traced.extend(untraced)
    return traced, values, residual


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller, no threads: keep numpy's BLAS from spreading small matrix
    # products over the other CPU, whose load by other tenants varies
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    ref_at_start = reference_kernel() if args.setup_probe else None
    try:
        load_source()
    except SourceMissing as exc:
        print(f"error: cannot import oamnet from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        # child side of measure_setup: warm up, then say ready
        workloads.prepare(workloads.WORKLOADS[args.workload], args.seed)
        print("ready", ref_at_start, reference_kernel(), flush=True)
        return 0

    env = environment(args.seed)
    setup, setup_wall = [], []
    if not args.trace:
        setup, setup_wall = measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    rng = workloads.prepare(workload, args.seed)

    record: dict = {}
    if args.trace:
        import tracing

        tally, values, residual = traced_run(workload, rng, args.seconds)
        units = tracing.metric_units()
        record["self_time_residual_ms_per_op"] = residual
    else:
        tally = plain_run(workload, rng, args.seconds)
        # read before the summaries below allocate per-op lists
        rss = peak_rss_mb()
        values, wall = latency_metrics(tally)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = rss
        units = END_TO_END_UNITS
        wall["setup_s"] = statistics.median(setup_wall)
        record["wall"] = wall
        record["setup_samples_s"] = setup
    env["loadavg_end"] = list(os.getloadavg())

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    error_rate = tally.failed / tally.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "timeouts": tally.timeouts,
        "failures": tally.failures,
        "error_rate": error_rate,
        "latency_p90_valid": tally.attempted - tally.failed >= P90_MIN_OPS,
        "metrics": dict(metrics, error_rate={"value": error_rate, "unit": "ratio"}),
        **record,
    }

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"ops {tally.attempted}  failed {tally.failed}  timed out {tally.timeouts}"
    )
    for name, metric in record["metrics"].items():
        note = ""
        if name == "latency_p90_ms" and not record["latency_p90_valid"]:
            note = f"  (fewer than {P90_MIN_OPS} ops: not valid)"
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}{note}")
    for failure in tally.failures:
        print(f"  failure: {failure}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
