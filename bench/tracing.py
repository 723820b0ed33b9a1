"""Span tracer for the benchmark's traced run.

The tracer wraps oamnet's public functions from outside, at the binding each
caller uses (``oamnet.cli.dumps_canonical``, not ``oamnet.serialize``'s own
global, so the recursive serializer stays one span per outer call).  Spans
are kept in memory as ``(op, span, parent, name, start, end)`` and folded
into per-op metrics when the run ends.  A span's self time is its duration
minus that of its child spans; the benchmark's own root span per op takes
the rest, so all self times of an op add up to its wall time.

Stage and element ``mode_images`` are too fine-grained for spans; they are
wrapped for counts only.  Nothing is recorded outside an op, so the output
checks that run between ops leave no trace.
"""

from __future__ import annotations

import contextlib
import functools
import typing
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

from oamnet import cli, elements, multiport, netlist, networks, serialize, states

LAYERS = ("states", "elements", "multiport", "netlist", "networks", "serialize", "cli")
ROOT_SPAN = "bench.op"

# Span name -> every binding through which a workload reaches the function.
SPAN_BINDINGS: dict[str, tuple[tuple[Any, str], ...]] = {
    "cli.main": ((cli, "main"),),
    "networks.mux_transmit": ((networks, "mux_transmit"),),
    "networks.demux_receive": ((networks, "demux_receive"),),
    "networks.StarNetwork.route_state": ((networks.StarNetwork, "route_state"),),
    "networks.routing_report": ((cli, "routing_report"),),
    "multiport.CompositeDevice.mode_images": (
        (multiport.CompositeDevice, "mode_images"),
    ),
    "multiport.device_matrix": ((cli, "device_matrix"), (networks, "device_matrix")),
    "multiport.is_generalized_permutation": (
        (cli, "is_generalized_permutation"),
        (networks, "is_generalized_permutation"),
    ),
    "states.apply_mode_map": ((networks, "apply_mode_map"), (netlist, "apply_mode_map")),
    "states.tensor": ((cli, "tensor"), (networks, "tensor")),
    "states.compose_images": ((multiport, "compose_images"), (netlist, "compose_images")),
    "states.fidelity": ((cli, "fidelity"), (networks, "fidelity")),
    "netlist.reck_decompose": ((cli, "reck_decompose"), (netlist, "reck_decompose")),
    "netlist.oambs_netlist": ((cli, "oambs_netlist"),),
    "netlist.oambs_netlist_error": ((cli, "oambs_netlist_error"),),
    "netlist.netlist_apply": ((netlist, "netlist_apply"),),
    "serialize.dumps_canonical": ((cli, "dumps_canonical"),),
    "serialize.netlist_dumps": ((cli, "netlist_dumps"),),
    "serialize.netlist_loads": ((serialize, "netlist_loads"),),
}

# apply_mode_map is reported split by the kind of state it receives.
SPAN_NAMES = tuple(
    split
    for name in SPAN_BINDINGS
    for split in (
        (f"{name}.photon", f"{name}.ensemble")
        if name == "states.apply_mode_map"
        else (name,)
    )
)

# Classes whose mode_images are wrapped for counts only: (classes, layer, counter).
COUNTED_CLASSES = (
    ((multiport.SymmetricMultiport, multiport.DoveStage), "multiport", "stage_images"),
    (typing.get_args(elements.Element), "elements", "element_images"),
)

COUNT_METRICS = (
    ("states.ensemble_tuples_per_op", "ensemble_tuples"),
    ("states.photon_labels_per_op", "photon_labels"),
    ("multiport.stage_images_per_op", "stage_images"),
    ("elements.images_per_op", "element_images"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_ms_per_op"] = "ms"
    for metric, _ in COUNT_METRICS:
        units[metric] = "count"
    units["states.compose_yield"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.errors_per_op"] = "count"
    units["trace.op_ms_per_op"] = "ms"
    units["trace.unattributed_ms_per_op"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Records spans and counts while an op is open; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.ops = 0
        self._op: int | None = None
        self._stack: list[int] = []
        self._next_span = 0
        self._compose_depth = 0
        self._counted_errors: set[int] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    # --- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            for name, bindings in SPAN_BINDINGS.items():
                for owner, attr in bindings:
                    self._patch(owner, attr, functools.partial(self._span_wrapper, name))
            for classes, layer, key in COUNTED_CLASSES:
                for cls in classes:
                    wrap = functools.partial(self._count_wrapper, layer, key)
                    self._patch(cls, "mode_images", wrap)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        try:
            original = getattr(owner, attr)
        except AttributeError:
            raise RuntimeError(
                f"{getattr(owner, '__name__', owner)}.{attr} is gone; "
                "update SPAN_BINDINGS to the binding its callers now use"
            ) from None
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    # --- recording --------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Open the root span of one op; every wrapped call inside is its child."""
        self._op = op_id
        self._counted_errors.clear()
        span = self._push()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._pop(span, None, ROOT_SPAN, start, end)
            self._op = None
            self.ops += 1

    def _push(self) -> int:
        span = self._next_span
        self._next_span += 1
        self._stack.append(span)
        return span

    def _pop(self, span: int, parent: int | None, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((self._op, span, parent, name, start, end))

    def _error(self, layer: str, exc: BaseException) -> None:
        # count an exception once, at the innermost wrapped layer it left
        if id(exc) not in self._counted_errors:
            self._counted_errors.add(id(exc))
            self.errors[layer] += 1

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        layer = name.split(".", 1)[0]
        is_apply = name == "states.apply_mode_map"
        is_compose = name == "states.compose_images"
        is_cli = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span_name = name
            if is_apply:
                state = args[0] if args else kwargs["state"]
                if isinstance(state, states.PhotonState):
                    span_name = name + ".photon"
                    tracer.counts["photon_labels"] += len(state.amplitudes)
                else:
                    span_name = name + ".ensemble"
                    tracer.counts["ensemble_tuples"] += len(state.amplitudes)
            parent = tracer._stack[-1]
            span = tracer._push()
            if is_compose:
                tracer._compose_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                end = perf_counter()
                if is_compose:
                    tracer._compose_depth -= 1
                tracer._pop(span, parent, span_name, start, end)
            if is_compose:
                tracer.counts["compose_out"] += len(result)
            if is_cli and result != 0:
                tracer.errors["cli"] += 1
            return result

        return wrapper

    def _count_wrapper(self, layer: str, key: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            try:
                images = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            if not isinstance(images, (list, tuple)):
                images = tuple(images)
            tracer.counts[key] += len(images)
            if tracer._compose_depth:
                tracer.counts["compose_generated"] += len(images)
            return images

        return wrapper

    # --- summary ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-op span and count metrics over every traced op (without
        ``trace.overhead_frac``, which needs an untraced run)."""
        ops = max(self.ops, 1)
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter[str] = Counter()
        self_time: defaultdict[str, float] = defaultdict(float)
        op_time = 0.0
        for _, span, _, name, start, end in self.spans:
            if name == ROOT_SPAN:
                op_time += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time[span]
        values: dict[str, float] = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls_per_op"] = calls[name] / ops
            values[f"{name}.self_ms_per_op"] = 1e3 * self_time[name] / ops
        for metric, key in COUNT_METRICS:
            values[metric] = self.counts[key] / ops
        generated = self.counts["compose_generated"]
        values["states.compose_yield"] = (
            self.counts["compose_out"] / generated if generated else 0.0
        )
        for layer in LAYERS:
            values[f"{layer}.errors_per_op"] = self.errors[layer] / ops
        values["trace.op_ms_per_op"] = 1e3 * op_time / ops
        values["trace.unattributed_ms_per_op"] = 1e3 * self_time[ROOT_SPAN] / ops
        return values

    def attributed_ms_per_op(self) -> float:
        """Sum of every span's self time, the root's included, per op."""
        values = self.metrics()
        return values["trace.unattributed_ms_per_op"] + sum(
            values[f"{name}.self_ms_per_op"] for name in SPAN_NAMES
        )

