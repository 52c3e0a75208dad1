"""The bitset kernel's extension arithmetic on growing prefixes.

One :class:`~repro.compile.vector.BitsetKernel` serves static traces and
growing prefixes.  On a prefix each profile extends over the appended
window on its next read, so the invariant pinned here is: after any
sequence of batched appends, the profile of every kernel-supported state
node on the :class:`~repro.compile.runtime.GrowingPrefix` equals its
profile on the static :class:`~repro.semantics.trace.Trace` of the same
states — including ``None`` (the exact-fallback verdict) for ragged
variables and for columns past the per-code bitset cap.
"""

import random

import pytest

from repro.api import Session
from repro.checking.monitor import Monitor
from repro.compile import UNSET, compile_formula
from repro.gen.generators import ScenarioProfile, gen_formula, gen_trace
from repro.semantics import columns
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import State
from repro.semantics.trace import Trace, make_trace
from repro.syntax.parser import parse_formula
from repro.syntax.terms import Cmp


PROFILE = ScenarioProfile()

#: Atoms over the columns the generated traces are reshaped to stress: a
#: ragged ``y`` (absent in some states), a late ``z``, a fresh-valued ``w``
#: that crosses the (lowered) cardinality cap, and operation predicates
#: with and without arguments.
FIXED_CLAUSES = (
    "y == 2",
    "z",
    "w >= 3",
    "w == 5",
    "at Dq(2)",
    "in Req",
    "after Dq(1)",
    "forall a . (x == ?a \\/ at Req(?a))",
    "start",
)


def _reshape(states, rng):
    """Drop ``y`` from some states, add ``z`` only late, and give ``w`` a
    fresh value in every state (its column crosses any small cap)."""
    late = rng.randint(1, len(states))
    out = []
    for index, state in enumerate(states):
        values = dict(state.values_map)
        values.pop("__start__", None)
        if rng.random() < 0.1:
            values.pop("y", None)
        if index + 1 >= late:
            values["z"] = rng.random() < 0.5
        values["w"] = index
        out.append(State(values, state.operations))
    return out


def _bindings(node, rng):
    """Slot assignments to check a node under: unbound, then a few values."""
    if not node.free_slots:
        return [()]
    lo, hi = PROFILE.int_range
    return [tuple(UNSET for _ in node.free_slots)] + [
        tuple(rng.randint(lo, hi) for _ in node.free_slots) for _ in range(3)
    ]


def _profiles_agree(grow, static, rng):
    kernel = grow._kernel
    checked = 0
    for node in grow.plan.nodes:
        if not (node.is_state and kernel.supports(node.id)):
            continue
        for binding in _bindings(node, rng):
            if rng.random() < 0.3:
                continue  # leave a gap: the next read extends further
            for state in (grow, static):
                for slot, value in zip(node.free_slots, binding):
                    state._slots[slot] = value
            assert kernel.profile(node) == static._kernel.profile(node), (
                str(node.predicate or node.op), binding, grow.trace.length,
            )
            checked += 1
    return checked


class TestGrowingProfileParity:
    @pytest.mark.parametrize("seed", range(24))
    def test_batched_prefix_profiles_equal_static_profiles(self, seed, monkeypatch):
        monkeypatch.setattr(columns, "_MAX_BITSET_CODES", 40)
        rng = random.Random(seed)
        trace = gen_trace(rng, PROFILE, max_states=160, lasso_probability=0.0)
        states = _reshape(list(trace.states()), rng)
        clauses = [gen_formula(rng, PROFILE, size=6) for _ in range(3)]
        clauses += [parse_formula(text) for text in FIXED_CLAUSES]
        formula = clauses[0]
        for clause in clauses[1:]:
            formula = parse_formula(f"({formula}) /\\ ({clause})")
        plan = compile_formula(formula)
        grow = plan.monitor()
        fed = checked = 0
        while fed < len(states):
            batch = states[fed:fed + rng.choice((1, 3, 4, 17, 70, 90))]
            for state in batch:
                grow.trace.append(state)
            grow.note_append(len(batch))
            fed += len(batch)
            static = plan.evaluator(Trace(states[:fed]))
            checked += _profiles_agree(grow, static, rng)
        assert checked > 0

    def test_cap_crossing_kills_the_profile_at_the_same_length(self, monkeypatch):
        monkeypatch.setattr(columns, "_MAX_BITSET_CODES", 8)
        states = [State({"w": i, "p": True}) for i in range(20)]
        plan = compile_formula(parse_formula("<> (w == 3)"))
        node = next(n for n in plan.nodes if isinstance(n.predicate, Cmp))
        grow = plan.monitor()
        for length, state in enumerate(states, start=1):
            grow.trace.append(state)
            static = plan.evaluator(Trace(states[:length]))
            bits = grow._kernel.profile(node)
            assert bits == static._kernel.profile(node)
            assert (bits is None) == (length > 8)


class TestUnhashableBinding:
    """An unhashable slot binding cannot key a profile, so on either binding
    the kernel declines it and the per-position path decides."""

    FORMULA = "forall v . [] (x != ?v)"

    def _trace(self):
        return make_trace([{"x": [1, 2]}, {"x": 3}, {"x": [1, 2]}])

    def test_static_and_growing_kernels_both_decline(self):
        trace = self._trace()
        plan = compile_formula(parse_formula(self.FORMULA))
        node = next(n for n in plan.nodes if isinstance(n.predicate, Cmp))
        static = plan.evaluator(trace)
        grow = plan.monitor()
        for state in trace.states():
            grow.trace.append(state)
        for state in (static, grow):
            state._slots[node.free_slots[0]] = [1, 2]
            assert state._kernel.profile(node) is None
            state._slots[node.free_slots[0]] = 3
            assert state._kernel.profile(node) == 0b101

    def test_verdicts_match_the_stepwise_engine(self):
        # The interpreting evaluator cannot memoize a list binding, so the
        # ``stepwise`` engine (no kernel at all) is the reference here.
        trace = self._trace()
        formula = parse_formula(self.FORMULA)
        session = Session()
        reference = session.check(formula, trace=trace, mode="stepwise").verdict
        assert reference is False
        assert session.check(formula, trace=trace, mode="compiled").verdict is reference
        monitor = Monitor({"c": formula})
        monitor.observe_batch(list(trace.states()))
        assert monitor.verdicts["c"].holds is reference


class TestCardinalityCapOnStreams:
    """A monitored stream with more fresh values than the cap: the growing
    column drops its per-code bitsets, the profiles over it fall back to
    the exact per-position path, and the verdicts stay those of the
    reference evaluator and the ``stepwise`` engine."""

    CLAUSES = {
        "never": "[x == 99999999999] p",
        "reached": "<> (x == 2500)",
        "avoided": "[] (x != 1700)",
    }

    def test_fresh_values_past_the_cap(self):
        count = 3000
        assert count > columns._MAX_BITSET_CODES
        rows = [{"x": k, "p": True} for k in range(count)]
        formulas = {name: parse_formula(text) for name, text in self.CLAUSES.items()}
        monitor = Monitor(formulas)
        for start in range(0, count, 4):
            monitor.observe_batch([State(row) for row in rows[start:start + 4]])

        trace = make_trace(rows)
        evaluator = Evaluator(trace)
        session = Session()
        for name, formula in formulas.items():
            reference = evaluator.satisfies(formula)
            stepwise = session.check(formula, trace=trace, mode="stepwise").verdict
            assert monitor.verdicts[name].holds is reference is stepwise, name

        inner = monitor.plan_state._state
        assert inner.trace.columns.column("x").code_bitsets() is None
        kernel = inner._kernel
        for node in inner.plan.nodes:
            if isinstance(node.predicate, Cmp):
                assert kernel.profile(node) is None
        assert not any(entry.passes for entry in kernel._entries.values() if entry.dead)
