"""Seeded inputs and their reference verdicts for the four workloads.

Everything here runs outside the timed window.  The program under test
only ever sees what these builders return: encoded request frames for the
serve workloads, wire rows for the batch workload.

Reference verdicts come from the interpreting evaluator
(``Specification.check``, the Chapter 3 satisfaction relation), never
from the compiled path the workloads measure, plus the pinned verdicts of
the fixed lasso.  The interpreter is slow on quantified specs, so stream
and trace contents are drawn from a seeded pool of distinct simulator
runs and each distinct content is checked once per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gen.cases import SYSTEM_FACTORIES
from repro.gen.loadgen import LOAD_FAMILIES, StreamScript
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import Trace
from repro.serve.protocol import encode_frame, trace_to_rows
from repro.serve.streams import SPEC_FACTORIES
from repro.syntax.pretty import to_ascii

from backend import FAMILIES, LASSO_EXPECTED, LASSO_FORMULAS, LASSO_STEM, lasso_rows

#: fleet-churn / sharded-fleet shape.
FLEET_STREAMS = 1000  # per pass; a run makes several passes
FLEET_POOL = 400  # distinct seeded simulator runs the streams draw from
FLEET_MAX_OPEN = 128
FLEET_FAULT_RATE = 0.2
FLEET_FORMULA_OPENS = 0.25
SHARD_GROUP = 64  # frames per request in sharded-fleet

#: long-streams shape: 6 streams per family, 4-state appends.
LONG_STREAMS_PER_FAMILY = 6
LONG_APPEND = 4
LONG_FAULT_RATE = 0.2
LONG_QUEUE_VALUES = 20
#: Distinct contents per family (interpreter cost bounds these; the
#: queue reference is cubic in its value count).
LONG_POOL = {"mutex": 5, "reliable_queue": 3, "arbiter": 6, "request_ack": 6}

#: batch-check shape.
BATCH_SHORT_TRACES = 500
BATCH_LONG_STATES = 10_000

#: Binder renamings of the quantified queue clause: each stays one plan
#: under alpha-invariant interning.
QUEUE_BINDERS = (("a", "b"), ("u", "v"), ("x", "y"))


def verdict_map(result) -> Dict[str, Optional[bool]]:
    """A ``SpecificationResult`` keyed like the wire: errors read ``None``."""
    return {
        v.clause.name: (None if v.error is not None else v.holds)
        for v in result.verdicts
    }


@dataclass
class Content:
    """One distinct recorded run: its rows and its reference verdicts."""

    family: str
    faulty: bool
    rows: List[Dict[str, Any]]
    expected: Dict[str, Optional[bool]] = field(default_factory=dict)


def check_reference(contents: List[Content]) -> None:
    """Fill ``expected`` from the interpreting evaluator."""
    specs = {family: SPEC_FACTORIES()[family]() for family in FAMILIES}
    for content in contents:
        trace = Trace([State(row["values"], _ops(row)) for row in content.rows])
        content.expected = verdict_map(specs[content.family].check(trace))


def _ops(row: Dict[str, Any]) -> Dict[str, OperationRecord]:
    return {
        name: OperationRecord(phase, tuple(args), tuple(results))
        for name, (phase, args, results) in row.get("ops", {}).items()
    }


def _short_pool(rng: random.Random) -> List[Content]:
    """``FLEET_POOL`` short runs over ``LOAD_FAMILIES``, in seeded order.

    Every family gets the same number of runs and exactly
    ``FLEET_FAULT_RATE`` of them are fault-injected, so seeds vary the
    runs but not the mix.
    """
    per_family = FLEET_POOL // len(LOAD_FAMILIES)
    faulty_count = round(per_family * FLEET_FAULT_RATE)
    pool = []
    for spec, correct, faulty_system, args in LOAD_FAMILIES:
        for index in range(per_family):
            script = StreamScript(
                stream=f"{spec}-{index}",
                spec=spec,
                system=faulty_system if index < faulty_count else correct,
                args={**args, "seed": rng.randrange(1 << 30)},
                faulty=index < faulty_count,
            )
            pool.append(Content(spec, script.faulty, script.rows()))
    rng.shuffle(pool)
    return pool


def formula_texts() -> Dict[str, List[Dict[str, str]]]:
    """Per family, the clause-text variants an ad-hoc ``formulas`` open
    may send.

    The queue clause comes in one variant per binder renaming; the
    propositional families have no binders, so their text is their only
    variant.
    """
    texts = {}
    for family in FAMILIES:
        spec = SPEC_FACTORIES()[family]()
        texts[family] = [{
            clause.name: to_ascii(clause.interpreted_formula())
            for clause in spec.clauses
        }]
    old_a, old_b = QUEUE_BINDERS[0]
    texts["reliable_queue"] = [
        {
            name: text.replace(f"forall {old_a}, {old_b} .", f"forall {a}, {b} .")
            .replace(f"?{old_a}", f"?{a}")
            .replace(f"?{old_b}", f"?{b}")
            for name, text in texts["reliable_queue"][0].items()
        }
        for a, b in QUEUE_BINDERS
    ]
    return texts


# -- serve workloads ----------------------------------------------------------


@dataclass
class Stream:
    name: str
    content: Content


@dataclass
class ServeInputs:
    """Requests of one pass, each ``(kind, encoded bytes, frame count)``.

    ``before`` and ``after`` run outside the timed window (long-streams
    opens and closes); ``timed`` is the window.
    """

    streams: List[Stream]
    contents: List[Content]
    before: List[Tuple[str, bytes, int]]
    timed: List[Tuple[str, bytes, int]]
    after: List[Tuple[str, bytes, int]]
    states_per_pass: int
    formula_opens: int = 0


def _open_frame(stream: Stream, texts, rng: random.Random) -> Dict[str, Any]:
    """An open by spec name, or in about a quarter of the cases by clause
    text in a seeded alpha variant."""
    family = stream.content.family
    if rng.random() < FLEET_FORMULA_OPENS:
        return {"op": "open", "stream": stream.name,
                "formulas": rng.choice(texts[family])}
    return {"op": "open", "stream": stream.name, "spec": family}


def fleet_inputs(seed: int, group: int = 1) -> ServeInputs:
    """fleet-churn (``group=1``) and sharded-fleet (``group=64``) requests.

    1,000 short-lived streams, each open -> one append of its whole run
    -> close, interleaved at random with at most 128 open at once.  About
    a quarter of the opens send clause text instead of a spec name.
    """
    rng = random.Random(seed)
    pool = _short_pool(rng)
    texts = formula_texts()
    streams = []
    for index in range(FLEET_STREAMS):
        content = pool[index % FLEET_POOL]
        streams.append(Stream(f"{content.family}-{index:04d}", content))
    frames: List[Tuple[str, Dict[str, Any]]] = []
    active: List[List[int]] = []  # [stream index, stage]
    next_open = 0
    while next_open < len(streams) or active:
        can_open = next_open < len(streams) and len(active) < FLEET_MAX_OPEN
        if can_open and (not active or rng.random() < 0.5):
            frames.append(("open", _open_frame(streams[next_open], texts, rng)))
            active.append([next_open, 0])
            next_open += 1
            continue
        slot = rng.randrange(len(active))
        index, stage = active[slot]
        stream = streams[index]
        if stage == 0:
            frames.append(("append", {"op": "append", "stream": stream.name,
                                      "states": stream.content.rows}))
            active[slot][1] = 1
        else:
            frames.append(("close", {"op": "close", "stream": stream.name}))
            active[slot] = active[-1]
            active.pop()
    encoded = [(kind, encode_frame(frame), 1) for kind, frame in frames]
    if group > 1:
        encoded = [
            ("batch", b"".join(data for _, data, _ in encoded[i:i + group]),
             len(encoded[i:i + group]))
            for i in range(0, len(encoded), group)
        ]
    return ServeInputs(
        streams=streams,
        contents=pool,
        before=[],
        timed=encoded,
        after=[],
        states_per_pass=sum(len(s.content.rows) for s in streams),
        formula_opens=sum(frame.get("formulas") is not None for _, frame in frames),
    )


def _long_content(family: str, faulty: bool, stratum: float, rng: random.Random) -> Content:
    """One long run; ``stratum`` in [0, 1) places its length in the
    family's range, so a pool's lengths are the same whatever the seed.
    Faulty variants carry one injected violation."""
    systems = SYSTEM_FACTORIES()
    sim_seed = rng.randrange(1 << 30)

    def spread(low: int, high: int) -> int:
        return low + int((high - low) * stratum)

    if family == "mutex":
        # 1,000-1,500 states.
        trace = systems["mutex"](processes=2, entries=spread(145, 215), seed=sim_seed)
        rows = trace_to_rows(trace)
        if faulty:
            # mutex_faulty_trace has no length knob: prefix its barge-in
            # onto a long correct run (both start with every flag down).
            rows = trace_to_rows(systems["mutex_faulty"](seed=sim_seed)) + rows[1:]
    elif family == "arbiter":
        requests = [rng.randint(1, 2) for _ in range(spread(84, 126))]
        name = "arbiter_faulty" if faulty else "arbiter"
        rows = trace_to_rows(systems[name](requests=requests, seed=sim_seed))
    elif family == "request_ack":
        name = "request_ack_faulty" if faulty else "request_ack"
        rows = trace_to_rows(systems[name](cycles=spread(125, 185), seed=sim_seed))
    else:
        name = "reordering_queue" if faulty else "reliable_queue"
        rows = trace_to_rows(
            systems[name](num_values=LONG_QUEUE_VALUES, seed=sim_seed)
        )
    return Content(family, faulty, rows)


def long_inputs(seed: int) -> ServeInputs:
    """long-streams: 24 streams opened before the window, 4-state
    appends interleaved round-robin inside it, closes after it."""
    rng = random.Random(seed)
    contents: List[Content] = []
    streams: List[Stream] = []
    for family in FAMILIES:
        size = LONG_POOL[family]
        faulty_count = max(1, round(size * LONG_FAULT_RATE))
        pool = [
            _long_content(family, index < faulty_count, (index + 0.5) / size, rng)
            for index in range(size)
        ]
        contents.extend(pool)
        for index in range(LONG_STREAMS_PER_FAMILY):
            content = pool[index % size]
            streams.append(Stream(f"{family}-long-{index:03d}", content))
    rng.shuffle(streams)
    opens = [("open", encode_frame({"op": "open", "stream": s.name,
                                    "spec": s.content.family}), 1)
             for s in streams]
    appends = []
    depth = max(len(s.content.rows) for s in streams)
    for offset in range(0, depth, LONG_APPEND):
        for stream in streams:
            chunk = stream.content.rows[offset:offset + LONG_APPEND]
            if chunk:
                appends.append(("append", encode_frame(
                    {"op": "append", "stream": stream.name, "states": chunk}), 1))
    closes = [("close", encode_frame({"op": "close", "stream": s.name}), 1)
              for s in streams]
    return ServeInputs(
        streams=streams,
        contents=contents,
        before=opens,
        timed=appends,
        after=closes,
        states_per_pass=sum(len(s.content.rows) for s in streams),
    )


# -- batch workload -----------------------------------------------------------


@dataclass
class BatchItem:
    """One recorded trace to check: a spec family's run, or the lasso."""

    content: Content
    loop_start: Optional[int] = None


@dataclass
class BatchInputs:
    items: List[BatchItem]
    contents: List[Content]
    states_per_pass: int


def batch_inputs(seed: int) -> BatchInputs:
    """batch-check: 500 short runs, one ~10k-state run per propositional
    family, and the 100k-state lasso, in seeded order.

    The queue family has no long run: its quantified clause costs grow
    quadratically in the compiled path and cubically in the reference
    (a 7k-state queue run takes a minute to check).
    """
    rng = random.Random(seed)
    pool = _short_pool(rng)
    items = [BatchItem(pool[index % FLEET_POOL])
             for index in range(BATCH_SHORT_TRACES)]
    systems = SYSTEM_FACTORIES()
    longs = []
    sim_seed = rng.randrange(1 << 30)
    mutex = systems["mutex"](processes=2, entries=BATCH_LONG_STATES // 7, seed=sim_seed)
    longs.append(Content("mutex", False, trace_to_rows(mutex)))
    arbiter = systems["arbiter"](
        requests=[rng.randint(1, 2) for _ in range(BATCH_LONG_STATES // 12)],
        seed=sim_seed,
    )
    longs.append(Content("arbiter", False, trace_to_rows(arbiter)))
    handshake = systems["request_ack"](cycles=BATCH_LONG_STATES // 8, seed=sim_seed)
    longs.append(Content("request_ack", False, trace_to_rows(handshake)))
    lasso = Content("lasso", False, lasso_rows(),
                    {text: verdict for text, verdict in zip(LASSO_FORMULAS, LASSO_EXPECTED)})
    for content in longs:
        items.insert(rng.randrange(len(items) + 1), BatchItem(content))
    items.insert(rng.randrange(len(items) + 1),
                 BatchItem(lasso, loop_start=LASSO_STEM + 1))
    return BatchInputs(
        items=items,
        contents=pool + longs,
        states_per_pass=sum(len(item.content.rows) for item in items),
    )
