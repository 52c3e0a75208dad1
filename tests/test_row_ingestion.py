"""Column-wise ingestion: every source of states builds the same columns.

Wire rows (``rows_to_states``), ``State`` lists and a growing prefix fed
blocks of any size all go through one column-wise builder.  These tests
pin that builder against the row-at-a-time construction it replaced
(:func:`reference_columns` below, written out per row): column codes,
values and ``missing`` flags, operation columns, the ``__start__``
marking, ``value_universe()`` element for element, the materialised
``State`` views and engine verdicts — plus the protocol's error discipline
(first bad row wins, nothing commits).
"""

import random

import pytest

from repro.compile import compile_formula
from repro.compile.runtime import GrowingPrefix
from repro.gen.cases import SYSTEM_FACTORIES
from repro.gen.generators import ScenarioProfile, gen_formula, gen_trace
from repro.semantics.columns import ABSENT, StateBlock
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import Trace
from repro.serve.protocol import ProtocolError, row_to_state, rows_to_states, trace_to_rows
from repro.serve.streams import StreamRegistry


# -- the row-at-a-time reference ---------------------------------------------


def _intern(value, values, code_of, unhashable):
    try:
        code = code_of.get(value)
    except TypeError:
        for known in unhashable:
            if values[known] == value:
                return known
        unhashable.append(len(values))
        values.append(value)
        return len(values) - 1
    if code is None:
        code = code_of[value] = len(values)
        values.append(value)
    return code


def reference_columns(states, mark_start=True):
    """Columns, operation columns and universe built one row at a time."""
    tables = ({}, {})  # name -> [codes, values, code_of, unhashable, missing]
    universe, seen, unhashable_seen = [], set(), []
    for index, state in enumerate(states):
        for table, items in zip(tables, (state.raw_values, state.raw_operations)):
            for name, value in items.items():
                if name not in table:
                    table[name] = [[ABSENT] * index, [], {}, [], index > 0]
                entry = table[name]
                entry[0].append(_intern(value, entry[1], entry[2], entry[3]))
            for entry in table.values():
                if len(entry[0]) <= index:
                    entry[0].append(ABSENT)
                    entry[4] = True
        observed = [v for v in state.raw_values.values() if not isinstance(v, bool)]
        for record in state.raw_operations.values():
            observed += list(record.args) + list(record.results)
        for value in observed:
            try:
                if value in seen:
                    continue
                seen.add(value)
            except TypeError:
                if value in unhashable_seen:
                    continue
                unhashable_seen.append(value)
            universe.append(value)
    columns = tables[0]
    if mark_start:
        n = len(states)
        entry = columns.setdefault("__start__", [[ABSENT] * n, [], {}, [], True])
        entry[0][0] = _intern(True, entry[1], entry[2], entry[3])
        for i in range(1, n):
            if entry[0][i] == ABSENT:
                entry[0][i] = _intern(False, entry[1], entry[2], entry[3])
        entry[4] = ABSENT in entry[0]
    return tables, universe


def shape(store):
    """A store's columns as comparable data (value types included)."""
    def table(columns):
        return {
            name: (
                list(column.codes),
                [(type(v), v) for v in column.values],
                column.missing,
            )
            for name, column in columns.items()
        }

    return table(store.columns), table(store.op_columns)


def reference_shape(states, mark_start=True):
    (columns, op_columns), universe = reference_columns(states, mark_start)

    def table(entries):
        return {
            name: (codes, [(type(v), v) for v in values], missing)
            for name, (codes, values, _, _, missing) in entries.items()
        }

    return (table(columns), table(op_columns)), universe


def typed(values):
    return [(type(v), v) for v in values]


# -- cases --------------------------------------------------------------------

HAND_CASES = {
    "ragged": [
        {"values": {"x": 1}},
        {"values": {"x": 2, "y": 5}},
        {"values": {"y": 5}},
        {"values": {"z": "a", "x": 2}},
    ],
    "unhashable": [
        {"values": {"q": [1, 2], "n": 3}},
        {"values": {"q": [1, 2], "n": [3]}},
        {"values": {"q": [], "n": 3}},
        {"values": {"q": [1, 2], "n": {"k": 1}}},
    ],
    "one-float-true": [
        {"values": {"x": 1, "p": True}},
        {"values": {"x": 1.0, "p": 1}},
        {"values": {"x": True, "p": 0.0}},
        {"values": {"x": 2, "p": False}},
        {"values": {"x": 0, "p": 1}},
    ],
    "key-orders": [
        {"values": {"a": 1, "b": 2, "c": 3}},
        {"values": {"c": 4, "a": 5, "b": 6}},
        {"values": {"b": 7, "c": 3, "a": 8}},
    ],
    "operations": [
        {"values": {"n": 0}},
        {"values": {"n": 0}, "ops": {"Enq": ["at", [1], []]}},
        {"values": {"n": 1}, "ops": {"Enq": ["after", [1], []], "Go": ["at", [], []]}},
        {"values": {"n": 1}, "ops": {"Dq": ["after", [], [1]], "Go": ["in", [], []]}},
        {"values": {"n": 0}, "ops": {"Enq": ["at", [True], []]}},
        {"values": {"n": 0}, "ops": {"Enq": ["at", [1], []], "Dq": ["at", [[2]], []]}},
        {"values": {"n": 0}, "ops": {"Dq": ["at", [[2]], []]}},
    ],
    # Operation arguments and results keep their booleans in the universe:
    # the first truthy value here is a True argument, ahead of any 1.
    "true-argument-first": [
        {"values": {"p": True}, "ops": {"Go": ["at", [True], []]}},
        {"values": {"p": False}, "ops": {"Go": ["after", [True], [False]]}},
        {"values": {"p": 1, "x": 1}, "ops": {"Go": ["at", [1], []]}},
        {"values": {"x": 0.0}, "ops": {"Go": ["at", [True], []]}},
    ],
}


def states_of(rows):
    """The ``State`` objects the rows stand for, built without the protocol."""
    return [
        State(
            row["values"],
            {
                name: OperationRecord(phase, tuple(args), tuple(results))
                for name, (phase, args, results) in row.get("ops", {}).items()
            },
        )
        for row in rows
    ]


def generated_cases():
    profile = ScenarioProfile()
    for seed in range(12):
        trace = gen_trace(random.Random(seed), profile, max_states=9)
        yield f"gen-{seed}", trace_to_rows(trace), trace.loop_start
    factories = SYSTEM_FACTORIES()
    for name in ("reliable_queue", "mutex", "arbiter"):
        trace = factories[name](seed=2)
        yield name, trace_to_rows(trace), None


ALL_CASES = [(name, rows, None) for name, rows in HAND_CASES.items()]
ALL_CASES += list(generated_cases())


@pytest.mark.parametrize("name,rows,loop_start", ALL_CASES, ids=[c[0] for c in ALL_CASES])
class TestBlockParity:
    def test_block_trace_matches_the_row_at_a_time_reference(self, name, rows, loop_start):
        states = states_of(rows)
        expected, universe = reference_shape(states)
        for trace in (
            Trace(rows_to_states(rows), loop_start=loop_start),
            Trace(states, loop_start=loop_start),
        ):
            assert shape(trace.columns) == expected
            assert typed(trace.value_universe()) == typed(universe)

    def test_views_and_verdicts_agree(self, name, rows, loop_start):
        states = states_of(rows)
        from_rows = Trace(rows_to_states(rows), loop_start=loop_start)
        from_states = Trace(states, loop_start=loop_start)
        assert from_rows.states() == from_states.states()
        assert list(rows_to_states(rows)) == states
        eager = [State(dict(s.raw_values, __start__=i == 0), s.raw_operations)
                 for i, s in enumerate(states)]
        for i, s in enumerate(states):
            if i and "__start__" in s.raw_values:
                eager[i] = s
        assert list(from_rows.states()) == eager
        rng = random.Random(len(name))
        profile = ScenarioProfile()
        engines = (
            lambda formula, t: Evaluator(t).satisfies(formula),
            lambda formula, t: compile_formula(formula).evaluator(t).satisfies(),
            lambda formula, t: compile_formula(formula).evaluator(
                t, vectorize=False).satisfies(),
        )
        for _ in range(6):
            formula = gen_formula(rng, profile, size=5)
            for engine in engines:
                outcomes = []
                for trace in (from_rows, from_states):
                    try:
                        outcomes.append(engine(formula, trace))
                    except Exception as exc:  # errors must agree too
                        outcomes.append(type(exc).__name__)
                assert outcomes[0] == outcomes[1], (formula, outcomes)

    def test_growing_prefix_matches_at_every_block_boundary(self, name, rows, loop_start):
        states = states_of(rows)
        rng = random.Random(name)
        for largest in (1, 90, 90, 90):
            prefix = GrowingPrefix()
            at = 0
            while at < len(rows):
                size = rng.randint(1, largest)
                prefix.extend(rows_to_states(rows[at:at + size]))
                at = min(len(rows), at + size)
                expected, universe = reference_shape(states[:at])
                assert prefix.length == at
                assert shape(prefix.columns) == expected
                assert typed(prefix.value_universe()) == typed(universe)
                assert prefix.states() == Trace(states[:at]).states()


def test_growing_prefix_over_long_seeded_runs():
    rows = []
    for seed in range(4):
        rows += trace_to_rows(SYSTEM_FACTORIES()["reliable_queue"](num_values=6, seed=seed))
    states = states_of(rows)
    rng = random.Random(7)
    prefix = GrowingPrefix()
    at = 0
    while at < len(rows):
        size = rng.randint(1, 90)
        prefix.extend(rows_to_states(rows[at:at + size]))
        at = min(len(rows), at + size)
        expected, universe = reference_shape(states[:at])
        assert shape(prefix.columns) == expected
        assert typed(prefix.value_universe()) == typed(universe)


def test_block_slices_rebuild_a_prefix_exactly():
    # The coalesced-group replay rebuilds a stream from slices of its own
    # prefix: the hidden 1 under the True code must survive in the universe.
    rows = HAND_CASES["one-float-true"] + HAND_CASES["operations"]
    prefix = GrowingPrefix()
    prefix.extend(rows_to_states(rows))
    replayed = GrowingPrefix()
    for start, stop in ((0, 2), (2, 3), (3, 9), (9, len(rows))):
        replayed.extend(prefix.columns.block(start, stop))
    assert shape(replayed.columns) == shape(prefix.columns)
    assert typed(replayed.value_universe()) == typed(prefix.value_universe())
    assert replayed.states() == prefix.states()


def test_a_true_argument_enters_the_universe_before_any_1():
    # The universe drops boolean variable values only: a True argument is
    # observed first, so the later 1s and 0.0 are already in it.
    rows = HAND_CASES["true-argument-first"]
    prefix = GrowingPrefix()
    prefix.extend(rows_to_states(rows))
    for source in (Trace(rows_to_states(rows)), Trace(states_of(rows)), prefix):
        assert typed(source.value_universe()) == typed([True, False])
    only_ops = [{"values": {}, "ops": {"Go": ["at", [True], []]}}, {"values": {"n": 1}}]
    assert typed(Trace(rows_to_states(only_ops)).value_universe()) == typed([True])


def test_unhashable_arguments_intern_as_records():
    rows = [
        {"values": {}, "ops": {"Enq": ["at", [1], []]}},
        {"values": {}, "ops": {"Enq": ["at", [[2]], []]}},
        {"values": {}, "ops": {"Enq": ["at", [1], []]}},
        {"values": {}, "ops": {"Enq": ["at", [[2]], []]}},
    ]
    column = Trace(rows_to_states(rows)).columns.op_column("Enq")
    assert column.values == [OperationRecord("at", (1,), ()), OperationRecord("at", ([2],), ())]
    assert all(isinstance(record, OperationRecord) for record in column.values)
    assert list(column.codes) == [0, 1, 0, 1]
    assert OperationRecord("at", (), ()) != ("at", (), ())


def test_operation_records_are_interned_once_per_distinct_record():
    rows = [{"values": {}, "ops": {"Enq": ["at", [1], []]}} for _ in range(50)]
    column = Trace(rows_to_states(rows)).columns.op_column("Enq")
    assert column.values == [OperationRecord("at", (1,), ())]
    assert isinstance(column.values[0], OperationRecord)
    assert set(column.codes) == {0}


def test_a_block_is_a_sequence_of_state_views():
    block = rows_to_states(HAND_CASES["ragged"])
    assert isinstance(block, StateBlock)
    assert len(block) == 4
    assert block[-1] == State({"z": "a", "x": 2})
    assert block[1:3] == [State({"x": 2, "y": 5}), State({"y": 5})]
    assert block[0] is block[0]  # cached views


# -- protocol errors ------------------------------------------------------------

BAD_ROWS = [
    ("not a dict", "a state row is an object, got str"),
    ({}, "a state row requires an object field 'values'"),
    ({"values": []}, "a state row requires an object field 'values'"),
    ({"values": {}, "ops": []}, "'ops' must map operation names to records"),
    ({"values": {}, "ops": {"Enq": ["at", [1]]}},
     "operation 'Enq' record must be [phase, args, results]"),
    ({"values": {}, "ops": {"Enq": [7, [], []]}},
     "operation 'Enq' record must be [phase, args, results]"),
    ({"values": {}, "ops": {"Enq": ["at", {}, []]}},
     "operation 'Enq' record must be [phase, args, results]"),
    ({"values": {}, "ops": {"Enq": ["at", [], []], "Dq": ["soon", [], []]}},
     "operation 'Dq': unknown operation phase: 'soon'"),
]


@pytest.mark.parametrize("row,message", BAD_ROWS)
def test_bad_rows_fail_identically_at_the_first_bad_row(row, message):
    good = [{"values": {"p": True}}, {"values": {"p": False}, "ops": {"Go": ["at", [], []]}}]
    later_bad = {"values": {}, "ops": {"X": ["never", [], []]}}
    for rows in ([row], good + [row], good + [row] + good + [later_bad]):
        with pytest.raises(ProtocolError) as exc:
            rows_to_states(rows, stream="s")
        assert (exc.value.code, exc.value.message, exc.value.stream) == (
            "bad-state", message, "s",
        )
    with pytest.raises(ProtocolError) as exc:
        row_to_state(row, stream="s")
    assert exc.value.message == message


def test_an_append_with_a_bad_third_row_commits_nothing():
    registry = StreamRegistry()
    (opened,) = registry.handle({"op": "open", "stream": "s", "spec": "request_ack"})
    assert opened["ok"] == "opened"
    good = [{"values": {"R": i % 2 == 0, "A": i % 2 == 1}} for i in range(6)]
    registry.handle({"op": "append", "stream": "s", "states": good[:3]})
    (before,) = registry.handle({"op": "snapshot", "stream": "s"})
    bad = good[3:5] + [{"values": {"R": True}, "ops": {"A": ["late", [], []]}}] + good[5:]
    (error,) = registry.handle({"op": "append", "stream": "s", "states": bad})
    assert error["error"] == "bad-state" and error["stream"] == "s"
    (after,) = registry.handle({"op": "snapshot", "stream": "s"})
    assert (after["length"], after["version"]) == (before["length"], before["version"]) == (3, 1)
    # The coalesced path: a good frame commits, the bad one after it does not.
    responses = registry.handle_batch([
        {"op": "append", "stream": "s", "states": good[3:5]},
        {"op": "append", "stream": "s", "states": bad},
    ])
    assert responses[-1]["error"] == "bad-state"
    (final,) = registry.handle({"op": "snapshot", "stream": "s"})
    assert (final["length"], final["version"]) == (5, 2)
