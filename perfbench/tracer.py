"""Layer tracer that wraps gridflex's public functions from outside `src/`.

Wrappers are installed by replacing module attributes (the names the
callers look up at call time) and removed again by `Tracer.uninstall`,
so the same process can alternate untraced and traced passes.

Busy time is the calling thread's CPU time (`time.thread_time_ns`): in
the experiment thread pool a thread waiting for the interpreter lock uses
no CPU, so per-layer figures do not absorb other threads' work. Each call
adds its busy time to its layer and subtracts it from the enclosing
layer's self time. Coarse calls (one per op or per run) also keep a span
(name, wall start, wall end, parent span, op id); calls made once per
device-slot only feed aggregated counters, which keeps memory bounded.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_cpu_ns = time.thread_time_ns
_wall_ns = time.perf_counter_ns


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.frames: list[list[int]] = []  # per open call: [child busy ns]
        self.spans: list[int] = []  # open span ids, innermost last
        self.acc: dict[str, list[int]] | None = None  # layer -> [busy, self, calls]


class Tracer:
    """Aggregated layer counters plus a span log, filled by installed wrappers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread = _ThreadState()
        self._accs: list[dict[str, list[int]]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, int] = {}
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self.op_id: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting ---------------------------------------------------------

    def _acc(self) -> dict[str, list[int]]:
        state = self._thread
        if state.acc is None:
            state.acc = defaultdict(lambda: [0, 0, 0])
            with self._lock:
                self._accs.append(state.acc)
        return state.acc

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def gauge_max(self, name: str, value: int) -> None:
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    def current_span(self) -> int | None:
        spans = self._thread.spans
        return spans[-1] if spans else None

    def wrap(
        self,
        name: str,
        fn: Callable,
        span: bool = False,
        parent: int | None = None,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """`fn` with its busy time, self time and calls booked to `name`.

        `parent` overrides the enclosing span, for calls handed to another
        thread. `on_result(args, kwargs, result)` derives counters from a
        call's inputs and output, outside the timed interval.
        """
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._thread
            frame = [0]
            state.frames.append(frame)
            if span:
                span_id = next(tracer._ids)
                span_parent = parent if parent is not None else tracer.current_span()
                state.spans.append(span_id)
                wall0 = _wall_ns()
            cpu0 = _cpu_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = _cpu_ns() - cpu0
                if span:
                    wall1 = _wall_ns()
                    state.spans.pop()
                    with tracer._lock:
                        tracer.spans.append(
                            (span_id, name, wall0, wall1, span_parent, tracer.op_id)
                        )
                state.frames.pop()
                if state.frames:
                    state.frames[-1][0] += busy
                acc = tracer._acc()[name]
                acc[0] += busy
                acc[1] += busy - frame[0]
                acc[2] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict[str, Any]:
        """Totals so far: per layer busy/self seconds and calls, counters, gauges."""
        layers: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        with self._lock:
            for acc in self._accs:
                for name, (busy, self_ns, calls) in list(acc.items()):
                    total = layers[name]
                    total[0] += busy
                    total[1] += self_ns
                    total[2] += calls
            counts = dict(self.counts)
            gauges = dict(self.gauges)
        return {
            "layers": {
                name: {"busy_s": b / 1e9, "self_s": s / 1e9, "calls": c}
                for name, (b, s, c) in sorted(layers.items())
            },
            "counts": counts,
            "gauges": gauges,
        }

    def reset(self) -> None:
        """Zero the aggregates (spans are kept for the trace file)."""
        with self._lock:
            for acc in self._accs:
                acc.clear()
            # pool threads have exited; only this thread's table is reused
            self._accs = [a for a in self._accs if a is self._thread.acc]
            self.counts.clear()
            self.gauges.clear()

    # -- installation ---------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced gridflex layer; `tracer.uninstall()` undoes it."""
    from gridflex import cli, engine, exact, heuristic, utility, workload

    def wrap(owner: Any, attr: str, name: str, **kw) -> None:
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    def count_result(name: str, measure: Callable[[Any], int]):
        return lambda _args, _kwargs, result: tracer.count(name, measure(result))

    # inputs
    wrap(workload, "generate", "workload.generate", span=True,
         on_result=count_result("workload.requests", lambda s: len(s.devices)))
    wrap(workload, "ingest_sessions", "workload.ingest", span=True,
         on_result=count_result("workload.requests", lambda r: len(r[0].devices)))
    wrap(cli, "load_scenario", "model.load_scenario", span=True)
    wrap(engine, "validate_config", "model.validate_config", span=True,
         on_result=count_result("model.violations", len))

    # runs and their packaging
    wrap(cli, "main", "cli.run", span=True)
    wrap(engine, "run", "engine.run", span=True)
    wrap(engine.RunResult, "to_dict", "engine.result_to_dict", span=True)
    wrap(exact, "validate_schedule", "exact.validate_schedule", span=True)

    # the horizon loop and its per-slot / per-device-slot calls
    original_horizon = heuristic.run_horizon
    rank_names = {"heuristic_rank": "heuristic", "edf_rank": "edf", "hp_rank": "hp"}

    def run_horizon(cfg, devices, rank_fn=heuristic.heuristic_rank, *args, **kwargs):
        label = rank_names.get(getattr(rank_fn, "__name__", ""), "other")
        rank = tracer.wrap(f"baselines.rank.{label}", rank_fn)
        return original_horizon(cfg, devices, rank, *args, **kwargs)

    def count_window(args, _kwargs, _result) -> None:
        tracer.count(
            "workload.in_window_device_slots",
            sum(d.deadline_slot - d.arrival_slot for d in args[1]),
        )

    tracer.patch(
        heuristic,
        "run_horizon",
        tracer.wrap("heuristic.run_horizon", run_horizon, span=True, on_result=count_window),
    )
    wrap(heuristic, "schedule_slot", "heuristic.schedule_slot")
    wrap(heuristic, "mobility_decision", "heuristic.mobility_decision",
         on_result=count_result("heuristic.moves", lambda move: int(move is not None)))
    wrap(utility, "slot_loss", "utility.slot_loss")

    # experiments and the worker pool
    for attr in ("baseline_compare", "mobility_delta_experiment"):
        wrap(engine, attr, "engine.experiment", span=True)
    original_map = engine._parallel_map

    def parallel_map(fn, items):
        items = list(items)
        workers = min(engine.worker_count(), max(len(items), 1)) if len(items) > 1 else 1
        tracer.gauge_max("engine.workers", workers)
        parent = tracer.current_span()

        def item(x):
            wall0 = _wall_ns()
            cpu0 = _cpu_ns()
            try:
                return fn(x)
            finally:
                # wall time this item spent not on its thread's CPU: lock waits
                wait = (_wall_ns() - wall0) - (_cpu_ns() - cpu0)
                tracer.count("engine.pool_wait_ns", max(wait, 0))

        return original_map(tracer.wrap("engine.pool_item", item, span=True, parent=parent), items)

    tracer.patch(engine, "_parallel_map", parallel_map)

    # the exact oracle
    wrap(exact, "solve_exact", "exact.solve_exact", span=True,
         on_result=count_result("exact.nodes", lambda r: r.nodes))
