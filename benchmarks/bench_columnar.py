"""Trajectory gate: vectorized columnar checking on a 100k-state trace.

The columnar refactor's whole point is that state formulas over a long
trace answer as whole-column bitset operations instead of per-position
dispatch.  This benchmark reports two rows on a >= 100k-state lasso:

* **build columns** — ``Trace(states, ...)``: the one column-wise
  builder turning the states into the trace's columns, the only work
  both evaluation modes share;
* **evaluate on built columns** — the same compiled plans bound fresh to
  the already-built trace twice per formula, once with the
  :class:`~repro.compile.vector.BitsetKernel` (the default binding) and
  once with ``vectorize=False`` (the per-position memo path), in
  alternating order.  Each mode keeps its own one-off work in its
  window: the kernel's per-code bitsets, the per-position path's row
  views.

It asserts verdict parity per formula and gates on an aggregate >= 3x
kernel speedup over the per-position path.  With the column build out of
the window, run order no longer decides the ratio (charging it to
whichever mode ran first made it read 2.0–2.4x or 320–380x).
With ``BENCH_RECORD=1`` the point is appended to ``BENCH_columnar.json``.
"""

import time

from repro.compile import compile_formula
from repro.semantics.state import State
from repro.semantics.trace import Trace
from repro.syntax.parser import parse_formula

from trajectory import record_point

#: >= 100k concrete states, with a small loop so the cycle machinery is in
#: the measured path too (stem 99,990 + cycle 12).
STEM_STATES = 99_990
CYCLE_STATES = 12

#: Pure state/temporal formulas the kernel vectorizes end to end.  The mix
#: covers boolean columns, comparisons both satisfied and refuted,
#: ``[]``/``<>`` directly over state formulas, and connective combinations.
FORMULAS = [
    "[] (p -> (q \\/ x != 3))",
    "<> (x == 7 /\\ p)",
    "[] (x >= 0)",
    "<> (x == 11)",
    "[] ((p /\\ q) -> x < 9)",
    "[] (~p \\/ ~q \\/ x == 0 \\/ x == 2 \\/ x == 4 \\/ x == 6 \\/ x == 8)",
]

SERIES_FILE = "BENCH_columnar.json"
SERIES_LABEL = "columnar-v2"


def build_states():
    """A deterministic >=100k-state lasso over two booleans and one int."""
    return [
        State({"p": i % 2 == 0, "q": i % 3 == 0, "x": (i * 7 + i // 13) % 10})
        for i in range(STEM_STATES + CYCLE_STATES)
    ]


def test_vectorized_speedup_on_100k_states(benchmark):
    """Vectorized >= 3x vs per-position compiled on a >=100k-state trace."""
    states = build_states()
    plans = [compile_formula(parse_formula(text)) for text in FORMULAS]

    def sweep():
        started = time.perf_counter()
        trace = Trace(states, loop_start=STEM_STATES + 1)
        build_s = time.perf_counter() - started
        assert trace.length >= 100_000
        timings = {True: 0.0, False: 0.0}
        rows = []
        for index, (text, plan) in enumerate(zip(FORMULAS, plans)):
            verdicts, elapsed = {}, {}
            for vectorize in ((True, False) if index % 2 == 0 else (False, True)):
                started = time.perf_counter()
                # A fresh binding per mode: its kernel or memo work is
                # what the mode costs on columns that already exist.
                verdicts[vectorize] = plan.evaluator(trace, vectorize=vectorize).satisfies()
                elapsed[vectorize] = time.perf_counter() - started
                timings[vectorize] += elapsed[vectorize]
            assert verdicts[True] is verdicts[False], text  # verdict parity, in-gate
            rows.append({
                "formula": text,
                "verdict": verdicts[True],
                "vectorized_ms": round(elapsed[True] * 1000.0, 3),
                "per_position_ms": round(elapsed[False] * 1000.0, 3),
            })
        return {
            "states": trace.length,
            "formulas": len(FORMULAS),
            "build_columns_ms": round(build_s * 1000.0, 3),
            "vectorized_ms": round(timings[True] * 1000.0, 3),
            "per_position_ms": round(timings[False] * 1000.0, 3),
            "speedup": round(timings[False] / timings[True], 2),
            "per_formula": rows,
        }

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print({"build columns": {"states": row["states"], "ms": row["build_columns_ms"]}})
    print({"evaluate on built columns": {
        k: v for k, v in row.items()
        if k not in ("per_formula", "build_columns_ms", "states")
    }})
    assert row["speedup"] >= 3.0, row
    record_point(
        SERIES_FILE, SERIES_LABEL, {k: v for k, v in row.items() if k != "per_formula"}
    )
