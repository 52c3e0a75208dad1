"""The traced run: self time and counts per module, from wrappers.

Each wrapped public call opens a span on a stack.  Its **self time** is
its duration minus the time its wrapped callees took, so the self times
of all spans in a window add up to the time spent inside any wrapped call,
and ``trace.unattributed_s`` (window wall minus that sum) is the client
loop plus wrapper overhead.  A name is patched where its caller looks it
up: ``rows_to_states`` on both ``repro.serve.protocol`` and
``repro.serve.streams``, methods on their classes.

The ``ColumnStore`` build is lazy, so its public accessors are wrapped:
the one-pass build is charged to ``semantics.columns_s`` whichever caller
first touches the store, not to that caller.

Only this process is traced.  Shard workers run untraced, so on
sharded-fleet the in-worker layers read zero.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Metrics whose value is a span self time (they partition the window).
SELF_TIME_METRICS = (
    "protocol.decode_s",
    "protocol.materialize_s",
    "protocol.encode_s",
    "service.dispatch_s",
    "streams.open_s",
    "streams.append_s",
    "streams.close_s",
    "worker.roundtrip_s",
    "session.monitor_s",
    "session.release_s",
    "session.check_s",
    "compile.bind_s",
    "compile.evaluate_s",
    "compile.note_append_s",
    "semantics.trace_build_s",
    "semantics.columns_s",
    "semantics.absorb_s",
    "monitor.observe_s",
)

#: Exact counts taken at the wrapped calls.
COUNT_METRICS = (
    "protocol.bytes_in",
    "protocol.bytes_out",
    "protocol.states_materialized",
    "worker.requests",
    "compile.dispatch_calls",
)


class LayerTracer:
    """Accumulates self time and counts per metric while installed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        fn: Callable,
        metric: str,
        count: Optional[Tuple[str, Callable]] = None,
        delta: Optional[Tuple[str, Callable]] = None,
    ) -> Callable:
        """``fn`` timed into ``metric``; ``count=(name, f(args, result))``
        adds to a count, ``delta=(name, f(args))`` adds ``f`` after minus
        ``f`` before."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            before = delta[1](args) if delta is not None else 0
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[metric] += elapsed - stack.pop()
                stack[-1] += elapsed
            if count is not None:
                counts[count[0]] += count[1](args, result)
            if delta is not None:
                counts[delta[0]] += delta[1](args) - before
            return result

        return wrapper

    def patch(self, owner: Any, name: str, metric: str, **hooks: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, property):
            replacement: Any = property(self.wrap(original.fget, metric, **hooks))
        else:
            replacement = self.wrap(original, metric, **hooks)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def install(self) -> None:
        from repro.api import session
        from repro.checking import monitor
        from repro.compile import plan, runtime, specplan
        from repro.semantics import columns, trace
        from repro.serve import protocol, service, streams, worker

        materialized = ("protocol.states_materialized", lambda args, result: len(result))
        dispatches = ("compile.dispatch_calls", lambda args: args[0].stats.dispatch_calls)
        table = [
            (protocol.FrameDecoder, "feed", "protocol.decode_s",
             {"count": ("protocol.bytes_in", lambda args, result: len(args[1]))}),
            (protocol, "decode_frame", "protocol.decode_s", {}),
            (protocol, "rows_to_states", "protocol.materialize_s", {"count": materialized}),
            (streams, "rows_to_states", "protocol.materialize_s", {"count": materialized}),
            (protocol, "encode_frame", "protocol.encode_s",
             {"count": ("protocol.bytes_out", lambda args, result: len(result))}),
            (service.MonitorService, "handle_batch", "service.dispatch_s", {}),
            (streams.StreamRegistry, "handle_batch", "service.dispatch_s", {}),
            (streams.StreamRegistry, "handle", "service.dispatch_s", {}),
            (streams.StreamRegistry, "open", "streams.open_s", {}),
            (streams.StreamRegistry, "append", "streams.append_s", {}),
            (streams.StreamRegistry, "append_group", "streams.append_s", {}),
            (streams.StreamRegistry, "close", "streams.close_s", {}),
            (worker.ShardPool, "handle_batch", "worker.roundtrip_s",
             {"count": ("worker.requests", lambda args, result: 1)}),
            (session.Session, "monitor", "session.monitor_s", {}),
            (session.Session, "release_monitor", "session.release_s", {}),
            (session.Session, "check_spec", "session.check_s", {}),
            (session.Session, "check", "session.check_s", {}),
            (specplan.SpecPlan, "evaluator", "compile.bind_s", {}),
            (plan.CompiledPlan, "evaluator", "compile.bind_s", {}),
            (specplan.SpecPlanState, "check_all", "compile.evaluate_s", {}),
            (specplan.SpecPlanState, "satisfies", "compile.evaluate_s", {"delta": dispatches}),
            (runtime.PlanState, "satisfies", "compile.evaluate_s", {"delta": dispatches}),
            (specplan.SpecPlanState, "note_append", "compile.note_append_s", {}),
            (trace.Trace, "__init__", "semantics.trace_build_s", {}),
            (columns.IncrementalColumnStore, "absorb", "semantics.absorb_s", {}),
            (monitor.Monitor, "observe_batch", "monitor.observe_s", {}),
        ]
        table += [
            (columns.ColumnStore, accessor, "semantics.columns_s", {})
            for accessor in ("columns", "op_columns", "column", "op_column",
                             "value_universe", "state_values", "state_operations")
        ]
        for owner, name, metric, hooks in table:
            self.patch(owner, name, metric, **hooks)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def mark(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """A copy of the accumulators, to take window deltas against."""
        return dict(self.self_s), dict(self.counts)

    def since(self, mark) -> Dict[str, float]:
        """Every self time and count accumulated after ``mark``."""
        self_s, counts = mark
        values = {m: self.self_s.get(m, 0.0) - self_s.get(m, 0.0)
                  for m in SELF_TIME_METRICS}
        values.update({m: self.counts.get(m, 0) - counts.get(m, 0)
                       for m in COUNT_METRICS})
        return values
