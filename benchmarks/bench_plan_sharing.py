"""Trajectory gate: alpha-interned plans and pooled plan states at fleet scale.

A 1,000-stream fleet cycling over five spec families, where the families
deliberately overlap up to bound-variable renaming: three copies of the
FIFO-ordering clauses written with binders ``(a, b)`` / ``(u, v)`` /
``(x, y)``, and two copies of the consecutive-enqueue clause written with
``(c, d)`` / ``(p, q)``.  Under alpha-invariant interning that is **two**
plans, not five — the gate asserts the session compiles exactly
``ALPHA_CLASSES`` plans for the whole fleet.

Two fleets ingest the identical wire:

* **pooled** — a default :class:`~repro.api.session.Session`: alpha-
  interned plans, the per-family identity fast path, and the cross-trace
  :class:`~repro.compile.pool.PlanStatePool` recycling each stream's
  lowered state as it closes (``release_monitor``);
* **unpooled** — ``Session(share_plan_states=False)``: same interned
  plans, but every open lowers a fresh plan state and nothing is
  recycled (the pre-pool behaviour).

Gates: compilations == alpha classes, nearly every pooled open is served
from the pool, per-stream verdicts identical across the two fleets, and
pooled cold-fleet throughput >= ``BENCH_SHARING_SPEEDUP`` (default 1.3x)
of unpooled.  Records the ``plan-sharing-v1`` row in
``BENCH_sharing.json``.
"""

import os
import time

from repro.api.session import Session
from repro.serve.protocol import rows_to_states, trace_to_rows
from repro.syntax.builder import (
    after_op,
    at_op,
    backward,
    event,
    forall,
    forward,
    iff,
    implies,
    interval,
    lnot,
    lvar,
    ne,
    occurs,
)
from repro.systems import reliable_queue_trace

from trajectory import record_point

STREAMS = int(os.environ.get("BENCH_SHARING_STREAMS", "1000"))
SPEEDUP_GATE = float(os.environ.get("BENCH_SHARING_SPEEDUP", "1.3"))
ROUNDS = int(os.environ.get("BENCH_SHARING_ROUNDS", "3"))

SERIES_FILE = "BENCH_sharing.json"


def fifo_family(a, b):
    """The queue FIFO-ordering clauses, parameterized by binder names."""
    return {
        "order": forall(
            (a, b),
            interval(
                backward(None, event(after_op("Dq", lvar(b)))),
                iff(
                    occurs(event(after_op("Dq", lvar(a)))),
                    occurs(
                        backward(
                            event(at_op("Enq", lvar(a))),
                            event(at_op("Enq", lvar(b))),
                        )
                    ),
                ),
            ),
        ),
        "exists": forall(
            a,
            interval(
                forward(None, event(after_op("Dq", lvar(a)))),
                occurs(event(at_op("Enq", lvar(a)))),
            ),
        ),
    }


def burst_family(c, d):
    """The consecutive-enqueue clause, parameterized by binder names."""
    return {
        "burst": forall(
            (c, d),
            interval(
                forward(event(at_op("Enq", lvar(c))), event(at_op("Enq", lvar(c)))),
                implies(
                    ne(lvar(d), lvar(c)),
                    lnot(occurs(event(at_op("Enq", lvar(d))))),
                ),
            ),
        ),
    }


#: Five families, two alpha-equivalence classes: renaming a family's
#: binders must not cost the fleet another compilation.
FAMILY_BUILDERS = (
    ("fifo-ab", lambda: fifo_family("a", "b")),
    ("fifo-uv", lambda: fifo_family("u", "v")),
    ("fifo-xy", lambda: fifo_family("x", "y")),
    ("burst-cd", lambda: burst_family("c", "d")),
    ("burst-pq", lambda: burst_family("p", "q")),
)
ALPHA_CLASSES = 2


def build_families():
    """One identity-stable clause map per family, like the serve registry."""
    return [(name, builder()) for name, builder in FAMILY_BUILDERS]


def fleet_states():
    """The per-stream wire: a short FIFO history through the protocol codec."""
    rows = trace_to_rows(reliable_queue_trace(num_values=3, seed=7))
    return rows_to_states(rows)


def drive_fleet(session, families, states):
    """Open/ingest/close ``STREAMS`` monitors round-robin over the families.

    Every stream observes the identical history and is released back to
    the session when it closes — on a pooling session the next stream of
    the same family reuses its lowered state; on a non-pooling session
    the release is a no-op.  Returns (elapsed_s, per-stream verdicts).
    """
    verdicts = []
    started = time.perf_counter()
    for index in range(STREAMS):
        _, formulas = families[index % len(families)]
        monitor = session.monitor(formulas, capture_errors=True)
        monitor.observe_batch(states)
        verdicts.append(
            {name: v.holds for name, v in monitor.verdicts.items()}
        )
        session.release_monitor(monitor)
    elapsed = time.perf_counter() - started
    return elapsed, verdicts


def test_plan_sharing(benchmark):
    """Alpha-interned, state-pooled fleet vs the lower-everything baseline."""
    families = build_families()
    states = fleet_states()

    def sweep():
        best = {True: None, False: None}
        stats = None
        fleet_verdicts = {}
        for round_index in range(ROUNDS):
            modes = (False, True) if round_index % 2 == 0 else (True, False)
            for pooled in modes:
                session = (
                    Session()
                    if pooled
                    else Session(share_plan_states=False)
                )
                elapsed, verdicts = drive_fleet(session, families, states)
                fleet_verdicts[pooled] = verdicts
                if best[pooled] is None or elapsed < best[pooled]:
                    best[pooled] = elapsed
                if pooled:
                    stats = session.cache_statistics()

        # Renamed binders must not cost compilations: the whole fleet
        # compiles exactly one plan per alpha class.
        assert stats["plan_cache_misses"] == ALPHA_CLASSES, stats
        assert stats["plan_alpha_interned"] > 0, stats
        # Nearly every pooled open is served from the pool (the first
        # open of each family lowers the prototype).
        assert stats["plan_state_pool_hits"] >= STREAMS - len(families), stats
        # Pooling is a speed change only: per-stream verdicts identical.
        assert fleet_verdicts[True] == fleet_verdicts[False]

        pooled_s, unpooled_s = best[True], best[False]
        return {
            "streams": STREAMS,
            "families": len(families),
            "alpha_classes": ALPHA_CLASSES,
            "rounds": ROUNDS,
            "states_per_stream": len(states),
            "compilations": stats["plan_cache_misses"],
            "pool_hits": stats["plan_state_pool_hits"],
            "pooled_streams_per_second": round(STREAMS / pooled_s),
            "unpooled_streams_per_second": round(STREAMS / unpooled_s),
            "pool_speedup": round(unpooled_s / pooled_s, 2),
            "speedup_gate": SPEEDUP_GATE,
        }

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print(row)

    assert row["pool_speedup"] >= SPEEDUP_GATE, row
    record_point(SERIES_FILE, "plan-sharing-v1", row)
