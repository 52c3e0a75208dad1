"""The program under test as each workload sets it up.

This module imports only the program's own entry points, never the
benchmark's input generators, so ``setup_probe.py`` times the program's
set-up and nothing else.  The warm-up traces are literal wire rows.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.api.session import Session
from repro.semantics import trace as trace_module
from repro.serve import protocol
from repro.serve.service import MonitorService
from repro.serve.streams import SPEC_FACTORIES
from repro.syntax.parser import parse_formula

FAMILIES = ("mutex", "reliable_queue", "arbiter", "request_ack")
SHARDS = 2  # shard workers in sharded-fleet

#: The 100k-state lasso of ``benchmarks/bench_columnar.py`` and its six
#: formulas, with verdicts pinned from the interpreting evaluator.
LASSO_STEM = 99_990
LASSO_CYCLE = 12
LASSO_FORMULAS = (
    "[] (p -> (q \\/ x != 3))",
    "<> (x == 7 /\\ p)",
    "[] (x >= 0)",
    "<> (x == 11)",
    "[] ((p /\\ q) -> x < 9)",
    "[] (~p \\/ ~q \\/ x == 0 \\/ x == 2 \\/ x == 4 \\/ x == 6 \\/ x == 8)",
)
LASSO_EXPECTED = (False, True, True, False, False, False)

#: One all-quiet state per family: checking it compiles the family's
#: plan, which every later trace of the family reuses.
WARMUP_ROWS = {
    "mutex": [{"values": {"x1": False, "cs1": False, "x2": False, "cs2": False}}],
    "reliable_queue": [{"values": {"queue_len": 0}}],
    "arbiter": [{"values": {name: False for name in (
        "UR1", "UR2", "UA1", "UA2", "TR1", "TR2", "TA1", "TA2", "RMR", "RMA")}}],
    "request_ack": [{"values": {"R": False, "A": False}}],
}


def lasso_rows(count: int = LASSO_STEM + LASSO_CYCLE) -> List[Dict[str, Any]]:
    return [
        {"values": {"p": i % 2 == 0, "q": i % 3 == 0, "x": (i * 7 + i // 13) % 10}}
        for i in range(count)
    ]


def open_service(workload: str) -> MonitorService:
    """The serving backend, warmed with one compile per spec family."""
    shards = SHARDS if workload == "sharded-fleet" else 0
    service = MonitorService(shards=shards)
    frames: List[Dict[str, Any]] = []
    for family in FAMILIES:
        names = [f"warmup-{family}"]
        if service.pool is not None:
            # One warm-up stream per shard, so every worker compiles.
            names, seen, index = [], set(), 0
            while len(seen) < service.pool.shard_count:
                name = f"warmup-{family}-{index}"
                shard = service.pool.worker_for(name)
                if shard not in seen:
                    seen.add(shard)
                    names.append(name)
                index += 1
        for name in names:
            frames.append({"op": "open", "stream": name, "spec": family})
            frames.append({"op": "close", "stream": name})
    for response in service.handle_batch(frames):
        if "error" in response:
            raise RuntimeError(f"warm-up failed: {response}")
    return service


class BatchContext:
    """One checking session with its spec objects and lasso formulas."""

    def __init__(self) -> None:
        self.session = Session()
        self.specs = {family: SPEC_FACTORIES()[family]() for family in FAMILIES}
        self.formulas = [(text, parse_formula(text)) for text in LASSO_FORMULAS]
        # One warm-up compile per family and per lasso formula.
        for family in FAMILIES:
            states = protocol.rows_to_states(WARMUP_ROWS[family])
            self.session.check_spec(self.specs[family], trace_module.Trace(states))
        tiny = trace_module.Trace(protocol.rows_to_states(lasso_rows(24)), loop_start=13)
        for _, formula in self.formulas:
            self.session.check(formula, trace=tiny)
