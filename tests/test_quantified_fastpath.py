"""The quantified-spec fast path, proven by parity.

The compiled quantifier loop and batched tail-window appends must give
bit-for-bit the answers of the interpreting evaluator and of single-state
appends.  This harness pins that:

- the ``quantified_incremental`` corpus (queue I1-I3, the Chapter 5
  queue/stack foralls, quantified mutual-exclusion obligations) replays
  disagreement-free through the differential oracle AND incrementally
  through monitors with batched appends, against pinned verdicts;
- the quantifier loop agrees with ``Evaluator`` on explicit domain
  products of 4, 9 and 27 (errors and short-circuit order included), on
  an empty outer domain (vacuous truth) and on observed-value domains
  checked at every monitored append, and only observed-value domains
  make a verdict tail-dependent;
- the serve registry's same-stream coalescing answers byte-identical
  response and snapshot sequences to frame-at-a-time dispatch, including
  mid-group verdict flips and malformed frames;
- warm parallel workers load every compiled plan from the persistent
  store (``plan_disk_hits``) with zero recompiles;
- a fixed-seed quantified mini-fuzz keeps the whole engine family in
  agreement.
"""

import copy
import os
import random

from repro.api import CheckRequest, Session
from repro.checking import Monitor
from repro.compile import compile_formula
from repro.gen import (
    DifferentialOracle,
    FuzzConfig,
    fuzz,
    load_corpus,
    replay_corpus,
)
from repro.gen.loadgen import generate_stream_scripts
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import State
from repro.semantics.trace import Trace
from repro.serve.protocol import trace_to_rows
from repro.serve.streams import StreamRegistry
from repro.specs import reliable_queue_spec
from repro.syntax.parser import parse_formula
from repro.systems import reliable_queue_trace

CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), "corpus", "quantified_incremental.jsonl"
)


def corpus_cases():
    cases = load_corpus(CORPUS_PATH)
    assert cases, "quantified_incremental.jsonl must not be empty"
    return cases


def clause_formulas(case):
    return {str(i): clause for i, clause in enumerate(case.clauses)}


def monitor_holds(monitor):
    return {name: v.holds for name, v in monitor.verdicts.items()}


class TestQuantifiedCorpus:
    def test_replays_clean_through_the_oracle(self):
        report = replay_corpus(corpus_cases())
        assert report.ok, report.summary()

    def test_incremental_batched_replay_matches_pinned_verdicts(self):
        """Each case replayed as a monitored stream with batched appends
        must land on the pinned one-shot verdicts — and agree with a
        single-state monitor at every batch boundary along the way."""
        session = Session()
        for case in corpus_cases():
            states = case.built_trace().states()
            formulas = clause_formulas(case)
            batched = session.monitor(
                formulas, domain=case.domain, capture_errors=True
            )
            single = session.monitor(
                formulas, domain=case.domain, capture_errors=True
            )
            position, size = 0, 1
            while position < len(states):
                chunk = states[position : position + size]
                batched.observe_batch(chunk, commits=len(chunk))
                for state in chunk:
                    single.observe(state)
                assert monitor_holds(batched) == monitor_holds(single), case.id
                position += len(chunk)
                size = size % 4 + 1  # batch sizes cycle 1, 2, 3, 4
            finals = monitor_holds(batched)
            for index in range(len(case.clauses)):
                pinned = case.expect.get(f"compiled[{index}]")
                if pinned is not None:
                    assert finals[str(index)] is pinned, (case.id, index)

    def test_stable_for_weights_match_per_state_commits(self):
        """Once verdicts are established, ``observe_batch(chunk,
        commits=len(chunk))`` advances ``stable_for`` exactly as the
        per-state loop does.  (The establishing observation itself resets
        the counter, so it is fed alone — a weighted batch cannot know
        where inside itself a change landed; the serve layer replays
        frame-at-a-time on flips for exactly that reason.)"""
        session = Session()
        case = next(c for c in corpus_cases() if c.id == "qinc/reliable-queue")
        states = case.built_trace().states()
        formulas = clause_formulas(case)
        batched = session.monitor(formulas, domain=case.domain)
        single = session.monitor(formulas, domain=case.domain)
        batched.observe(states[0])
        single.observe(states[0])
        for start in range(1, len(states), 5):
            chunk = states[start : start + 5]
            batched.observe_batch(chunk, commits=len(chunk))
            for state in chunk:
                single.observe(state)
        assert {n: v.stable_for for n, v in batched.verdicts.items()} == {
            n: v.stable_for for n, v in single.verdicts.items()
        }


QUANTIFIED = {
    "pairs_seen": "forall a, b . <> (x == ?a /\\ z == ?b)",
    "pairs_avoided": "forall a, b . (?a != ?b -> [] ~(x == ?a /\\ y == ?b))",
    "triples": "forall a, b, c . [] ((x == ?a /\\ y == ?b) -> (?a == ?b \\/ z != ?c))",
    "nested": "forall a . forall b . <> (x == ?a /\\ z == ?b)",
    "ordered": "forall b, a . [] (z != ?b \\/ x >= ?a)",
    "shadowed": "forall a . ((forall a . [] z != ?a) \\/ <> (x == ?a /\\ z == 2))",
}


def _outcome(decide):
    """A verdict, or the error type the computation raised."""
    try:
        return decide()
    except Exception as exc:
        return type(exc).__name__


class TestQuantifierLoop:
    def test_single_loop_matches_the_evaluator(self):
        """The compiled quantifier loop agrees with the interpreting
        evaluator on explicit domain products of 4, 9 and 27 (one with an
        erroring value), on an empty explicit outer domain whose inner
        variable ranges over the observed values (vacuous truth), and on
        observed-value quantifiers checked after every monitored append."""
        rng = random.Random(14)
        states = []
        for k in range(40):
            # y copies x until state 30, so the pair clauses flip mid-stream.
            x = rng.randrange(3)
            y = x if k < 30 else rng.randrange(3)
            states.append(State({"x": x, "y": y, "z": rng.randrange(3)}))
        formulas = {name: parse_formula(text) for name, text in QUANTIFIED.items()}
        domains = [
            {v: (0, 1) for v in "abc"},  # products 4 and 8
            {v: (0, 1, 2) for v in "abc"},  # products 9 and 27
            {"a": (1, "three"), "b": (1, 0), "c": (0,)},  # ``x >= "three"`` errors
            {"a": ()},  # empty outer domain, b and c over the observed values
            None,  # every variable over the observed values
        ]
        products = {
            len(domains[0]["a"]) ** len(f.variables) for f in formulas.values()
        } | {len(domains[1]["a"]) ** len(f.variables) for f in formulas.values()}
        assert {4, 9, 27} <= products
        for domain in domains:
            trace = Trace(states)
            expected = {
                name: _outcome(lambda: Evaluator(trace, domain).satisfies(f))
                for name, f in formulas.items()
            }
            for vectorize in (True, False):
                for name, f in formulas.items():
                    plan = compile_formula(f)
                    got = _outcome(
                        lambda: plan.evaluator(trace, domain, vectorize).satisfies()
                    )
                    assert got == expected[name], (domain, vectorize, name)
            if domain == {"a": ()}:
                assert expected["pairs_seen"] is expected["nested"] is True
            monitor = Monitor(formulas, domain, capture_errors=True)
            for length, state in enumerate(states, 1):
                monitor.observe(state)
                prefix = Trace(states[:length])
                for name, f in formulas.items():
                    want = _outcome(lambda: Evaluator(prefix, domain).satisfies(f))
                    verdict = monitor.verdicts[name]
                    got = verdict.holds if verdict.error is None else "error"
                    assert got == (want if isinstance(want, bool) else "error"), (
                        domain, length, name,
                    )

    def test_only_observed_value_domains_make_verdicts_tail_dependent(self):
        """On a growing prefix a quantifier over the observed values is
        re-decided after every append (its domain can grow), while the same
        quantifier over an explicit domain freezes in the stable memo."""
        plan = compile_formula(parse_formula("forall a . ~(x == ?a /\\ y == ?a)"))

        def holds_root(memo):
            return any(key[0] == plan.root for key in memo)

        for domain, tail_dependent in (({"a": (0, 1, 2)}, False), (None, True)):
            state = plan.monitor(domain)
            for k in range(3):
                state.trace.append(State({"x": k, "y": k + 1}))
                state.note_append()
                assert state.satisfies() is True
                assert holds_root(state._volatile) is tail_dependent, domain
                assert holds_root(state._stable) is not tail_dependent, domain


class TestServeCoalescing:
    """Same-stream run coalescing in ``StreamRegistry.handle_batch`` must be
    observationally identical to frame-at-a-time ``handle`` dispatch."""

    ROWS_PER_FRAME = 3

    def _fleet(self, streams=6, seed=3, fault_rate=0.9):
        scripts = generate_stream_scripts(streams, seed=seed, fault_rate=fault_rate)
        frame_at_a_time, coalesced = StreamRegistry(), StreamRegistry()
        for registry in (frame_at_a_time, coalesced):
            for script in scripts:
                (opened,) = registry.handle(
                    {"op": "open", "stream": script.stream, "spec": script.spec}
                )
                assert opened.get("ok") == "opened", opened
        return scripts, frame_at_a_time, coalesced

    def _append_frames(self, script):
        rows = trace_to_rows(script.build_trace())
        return [
            {
                "op": "append",
                "stream": script.stream,
                "states": rows[start : start + self.ROWS_PER_FRAME],
            }
            for start in range(0, len(rows), self.ROWS_PER_FRAME)
        ]

    def _snapshot(self, registry, stream):
        (snapshot,) = registry.handle({"op": "snapshot", "stream": stream})
        # step_cost meters actual evaluation work, which coalescing is
        # *supposed* to change (fewer, larger batches); every semantic
        # field — version, length, verdicts, stable_for, alerts — must
        # still match exactly.
        snapshot.pop("step_cost", None)
        return snapshot

    def test_coalesced_runs_match_frame_at_a_time_with_flips(self):
        scripts, frame_at_a_time, coalesced = self._fleet()
        saw_alert = False
        for script in scripts:
            frames = self._append_frames(script)
            sequential = [
                response
                for frame in frames
                for response in frame_at_a_time.handle(copy.deepcopy(frame))
            ]
            grouped = coalesced.handle_batch(copy.deepcopy(frames))
            assert grouped == sequential, script.stream
            saw_alert = saw_alert or any(
                r.get("event") == "alert" for r in sequential
            )
            assert self._snapshot(coalesced, script.stream) == self._snapshot(
                frame_at_a_time, script.stream
            )
        # At fault_rate 0.9 some stream must flip mid-run, otherwise the
        # alert-replay path was never exercised.
        assert saw_alert

    def test_malformed_frame_mid_group_truncates_identically(self):
        scripts, frame_at_a_time, coalesced = self._fleet(streams=2, fault_rate=0.0)
        script = scripts[0]
        frames = self._append_frames(script)
        frames.insert(2, {"op": "append", "stream": script.stream, "states": []})
        frames.insert(5, {"op": "append", "stream": script.stream,
                          "states": ["not-a-state"]})
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        grouped = coalesced.handle_batch(copy.deepcopy(frames))
        assert grouped == sequential
        assert sum(1 for r in sequential if "error" in r) == 2
        assert self._snapshot(coalesced, script.stream) == self._snapshot(
            frame_at_a_time, script.stream
        )

    def test_interleaved_ops_break_runs_without_changing_answers(self):
        scripts, frame_at_a_time, coalesced = self._fleet(streams=2, fault_rate=0.5)
        a, b = scripts
        frames = []
        for frame_a, frame_b in zip(self._append_frames(a), self._append_frames(b)):
            frames.extend(
                [frame_a, frame_b, {"op": "snapshot", "stream": a.stream}]
            )
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        grouped = coalesced.handle_batch(copy.deepcopy(frames))
        assert grouped == sequential


class TestWarmParallelPlanCache:
    def test_workers_load_plans_from_disk_with_zero_recompiles(self, tmp_path):
        trace = reliable_queue_trace()
        requests = [
            CheckRequest(
                clause.interpreted_formula(),
                trace=trace,
                compile=True,
                capture_errors=True,
                label=clause.name,
            )
            for clause in reliable_queue_spec().clauses
        ] * 4
        session = Session(plan_cache_dir=str(tmp_path))
        fanned = session.check_many(requests, processes=2)
        serial = Session().check_many(requests)
        assert [r.verdict for r in fanned] == [r.verdict for r in serial]
        stats = session.last_parallel_cache_stats
        assert stats, "parallel fan-out must report worker cache statistics"
        for worker_stats in stats:
            assert worker_stats["plan_disk_hits"] > 0
            assert worker_stats["plan_cache_misses"] == worker_stats["plan_disk_hits"]
            assert worker_stats["plan_compile_time_s"] == 0.0


class TestQuantifiedMiniFuzz:
    def test_specs_mini_fuzz_is_disagreement_free(self):
        report = fuzz(FuzzConfig(seed=1107, cases=200, specs=True))
        assert report.ok, report.summary()
