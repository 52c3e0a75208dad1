"""Opt-in sampling profiler for the plan runtime.

``PlanState`` dispatches every node evaluation through a closure table
(``state._ops[nid](lo, hi)`` — see :func:`repro.compile.lower.bind_dispatch`),
which makes the dispatch layer itself the natural interposition point:
:meth:`PlanProfiler.attach` replaces the table with a wrapped copy and no
other runtime code changes.

Attribution is by **node kind**, the four cost classes that matter when
tuning a plan: ``forall`` (quantifier expansion over the domain product),
``event-search`` (interval/occurs term construction and event scans),
``bitset-kernel`` (node ids bound to the vectorized columnwise mode), and
``fallback`` (everything evaluated by the scalar closures).  Kernel-bound
ids are classified first — a vectorized forall is kernel time, which is
exactly the question the profiler answers ("did the fast path engage?").

Overhead control: every call is *counted* (one integer add), but only
every ``sample_every``-th call per kind is *timed* (two ``perf_counter``
reads).  :meth:`report` scales sampled time back up by ``calls/sampled``.
Timings are **inclusive** — a forall's time includes the children it
evaluates beneath itself — so kind totals overlap and are not expected to
sum to wall time; they rank where time goes, they don't partition it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from ..compile.dag import N_FORALL, N_INTERVAL, N_OCCURS

__all__ = ["PlanProfiler", "KIND_FORALL", "KIND_EVENT", "KIND_KERNEL", "KIND_FALLBACK"]

KIND_FORALL = "forall"
KIND_EVENT = "event-search"
KIND_KERNEL = "bitset-kernel"
KIND_FALLBACK = "fallback"

KINDS = (KIND_FORALL, KIND_EVENT, KIND_KERNEL, KIND_FALLBACK)


def classify(node: Any, vector_nids: frozenset) -> str:
    """The cost class of one plan node (kernel binding wins)."""
    if node.id in vector_nids:
        return KIND_KERNEL
    if node.op == N_FORALL:
        return KIND_FORALL
    if node.op in (N_INTERVAL, N_OCCURS):
        return KIND_EVENT
    return KIND_FALLBACK


class _KindTally:
    __slots__ = ("calls", "sampled", "time_s")

    def __init__(self) -> None:
        self.calls = 0
        self.sampled = 0
        self.time_s = 0.0


class PlanProfiler:
    """Samples node-dispatch time by cost class across attached states.

    One profiler may be attached to many plan states (a multi-clause spec
    compiles to several); tallies accumulate across all of them.  Detach
    is per-state via the handle :meth:`attach` returns, or just drop the
    state — attachment never mutates the plan, only the state's own
    dispatch table.
    """

    def __init__(self, sample_every: int = 64) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.attached = 0
        self._tallies: Dict[str, _KindTally] = {kind: _KindTally() for kind in KINDS}

    def attach(self, state: Any) -> "PlanProfiler":
        """Wrap ``state._ops`` so every dispatch lands in the tallies.

        Nodes the closure table never routes through (inlined atoms, the
        kernel's internal columns) stay invisible, same as before —
        the profiler sees exactly what ``PlanState._holds`` dispatches.
        Accepts a ``SpecPlanState`` too (attaches to its shared inner
        ``PlanState``).
        """
        inner = getattr(state, "_state", None)
        if inner is not None and not hasattr(state, "_ops"):
            state = inner
        every = self.sample_every
        wrapped = []
        for node, op in zip(state._plan.nodes, state._ops):
            tally = self._tallies[classify(node, state._vector_nids)]

            def profiled(lo, hi, _op=op, _tally=tally, _every=every):
                _tally.calls += 1
                if _tally.calls % _every:
                    return _op(lo, hi)
                start = time.perf_counter()
                value = _op(lo, hi)
                _tally.time_s += time.perf_counter() - start
                _tally.sampled += 1
                return value

            wrapped.append(profiled)
        state._ops = tuple(wrapped)
        self.attached += 1
        return self

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-kind ``{calls, sampled, time_s, est_time_s}`` (estimated
        total = sampled time scaled by the sampling ratio; inclusive)."""
        out: Dict[str, Dict[str, float]] = {}
        for kind in KINDS:
            tally = self._tallies[kind]
            estimate = (
                tally.time_s * (tally.calls / tally.sampled) if tally.sampled else 0.0
            )
            out[kind] = {
                "calls": tally.calls,
                "sampled": tally.sampled,
                "time_s": tally.time_s,
                "est_time_s": estimate,
            }
        return out

    def total_calls(self) -> int:
        return sum(t.calls for t in self._tallies.values())

    def export(self, metrics: Any) -> None:
        """Write the current tallies into a ``MetricsRegistry`` as
        ``repro_plan_node_calls_total{kind}`` and
        ``repro_plan_node_seconds_total{kind}`` (estimated, inclusive)."""
        calls = metrics.counter(
            "repro_plan_node_calls_total",
            "Plan-node dispatches by cost class (sampling profiler).",
            ("kind",),
        )
        seconds = metrics.counter(
            "repro_plan_node_seconds_total",
            "Estimated inclusive seconds by cost class (sampling profiler).",
            ("kind",),
        )
        for kind, row in self.report().items():
            existing = calls.child(kind)
            existing.inc(row["calls"] - existing.value)
            existing = seconds.child(kind)
            existing.inc(row["est_time_s"] - existing.value)

    def reset(self) -> None:
        self._tallies = {kind: _KindTally() for kind in KINDS}
