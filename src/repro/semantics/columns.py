"""Column-major trace storage: dictionary-encoded per-variable columns.

The paper's satisfaction relation sweeps a state sequence, and almost every
question the compiled runtime asks of it is *per variable*: "where does
``x == c`` hold", "where is operation ``O`` at its entry point", "which
non-boolean values were ever observed".  So every source of states — wire
rows (:func:`repro.serve.protocol.rows_to_states`) and ``State`` lists
alike — goes through **one** column-wise builder into a :class:`StateBlock`:
one :class:`Column` per state variable (a stdlib ``array`` of small codes
into an interned value list, filled by one interning pass), one
:class:`OperationColumn` per operation name (one
:class:`~repro.semantics.state.OperationRecord` per distinct record), and
the observed value universe.  A :class:`~repro.semantics.trace.Trace`
adopts the block's :class:`ColumnStore` plus a ``__start__`` column; a
monitored stream's :class:`IncrementalColumnStore` remaps each block's
codes into its own dictionaries.  ``State`` rows are lazy views only.

Each column owns one packed-int **bitset** per code (bit ``c`` = concrete
position ``c + 1``), extended in place as the column grows; operation
columns also group their codes by argument tuple.  Truthiness,
comparisons against a constant and operation phase/argument matches then
answer as an OR of per-code bitsets, which is what
:mod:`repro.compile.vector` evaluates whole state formulas on.  Bitset
construction goes through per-code ``bytearray`` buffers so cost stays
O(n + codes·n/8) rather than O(n²/wordsize) of repeated big-int shifting.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import TraceError
from .state import OperationRecord, State

__all__ = [
    "ABSENT",
    "Column",
    "OperationColumn",
    "ColumnStore",
    "IncrementalColumnStore",
    "StateBlock",
]


#: Code marking "this state does not bind the column's variable / operation".
ABSENT = -1

#: Columns with more distinct values than this skip per-code bitsets: the
#: memory (codes · n/8 bytes) stops paying for itself, and a comparison
#: against a high-cardinality column is better served by the per-position
#: endpoint indexes.  Kernels treat a ``None`` bitset table as "fall back".
_MAX_BITSET_CODES = 1024
_MAX_BITSET_BYTES = 8_000_000

#: Bitset extensions over at most this many positions (a monitored
#: stream's append) set their bits in place; longer ones go through
#: per-code buffers.
_SHIFT_WINDOW = 64

#: A row's entry in a column's value list when the row does not bind it.
_GAP = object()



def _intern(
    value: Any,
    values: List[Any],
    code_of: Dict[Any, int],
    unhashable: List[int],
) -> int:
    """The dictionary-encoding intern: one code per distinct value.

    Distinctness follows ``dict`` key semantics (``1``, ``1.0`` and ``True``
    share a code — consistent with ``==`` everywhere the codes are compared);
    unhashable values fall back to a linear scan over their own codes.
    """
    try:
        code = code_of.get(value)
    except TypeError:
        for known in unhashable:
            if values[known] == value:
                return known
        code = len(values)
        values.append(value)
        unhashable.append(code)
        return code
    if code is None:
        code = len(values)
        values.append(value)
        code_of[value] = code
    return code


def _window_bitsets(codes: "array", start: int, stop: int, count: int) -> List[int]:
    """One bitset per code of the window ``codes[start:stop]`` (bit 0 =
    position ``start``), built in one pass through per-code ``bytearray``
    buffers — O(window + count · window/8) rather than the
    O(window²/wordsize) of shifting one big int per position."""
    nbytes = (stop - start + 7) >> 3
    buffers = [bytearray(nbytes) for _ in range(count)]
    for i, code in enumerate(codes[start:stop]):
        if code >= 0:
            buffers[code][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(buffer, "little") for buffer in buffers]


class _ColumnBase:
    """Shared dictionary-encoded storage of one column.

    The column owns its per-code position bitsets (bit ``c`` = concrete
    position ``c + 1``), extended in place as the column grows: a static
    trace's column builds them once, a growing prefix's column extends them
    over each appended window.  Past the cardinality cap the table is
    dropped for good and :meth:`code_bitsets` answers ``None``.
    """

    __slots__ = ("name", "codes", "values", "missing", "has_bool", "_bitsets", "_bits_to")

    def __init__(self, name: str, prefix_length: int = 0) -> None:
        self.name = name
        self.codes: "array" = array("l", [ABSENT]) * prefix_length
        self.values: List[Any] = []
        self.missing = prefix_length > 0
        #: Some value of a variable column is a bool.
        self.has_bool = False
        self._bitsets: Optional[List[int]] = []
        self._bits_to = 0

    def __len__(self) -> int:
        return len(self.codes)

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        # Pickles ship codes and values; the bitset table rebuilds on demand.
        slots = [slot for cls in type(self).__mro__ for slot in getattr(cls, "__slots__", ())]
        state = {slot: getattr(self, slot) for slot in slots}
        state.update(_bitsets=[], _bits_to=0)
        return None, state

    def value_at(self, index: int) -> Tuple[bool, Any]:
        """``(present, value)`` at 0-based concrete index."""
        code = self.codes[index]
        if code < 0:
            return False, None
        return True, self.values[code]

    def code_bitsets(self) -> Optional[List[int]]:
        """Per-code position bitsets up to the column's length, or ``None``
        above the cardinality cap.  Extends over the positions appended
        since the last call: O(window + touched codes) for a short window."""
        bitsets = self._bitsets
        start = self._bits_to
        stop = len(self.codes)
        if start == stop or bitsets is None:
            return bitsets
        count = len(self.values)
        if count > _MAX_BITSET_CODES or count * ((stop + 7) >> 3) > _MAX_BITSET_BYTES:
            # Over the cap for good: a column only grows.
            self._bitsets = None
            return None
        if count > len(bitsets):
            bitsets.extend([0] * (count - len(bitsets)))
        if stop - start <= _SHIFT_WINDOW:
            codes = self.codes
            for i in range(start, stop):
                code = codes[i]
                if code >= 0:
                    bitsets[code] |= 1 << i
        else:
            for code, bits in enumerate(_window_bitsets(self.codes, start, stop, count)):
                if bits:
                    bitsets[code] |= bits << start
        self._bits_to = stop
        return bitsets


class Column(_ColumnBase):
    """Dictionary-encoded values of one state variable across a trace."""

    __slots__ = ()


class OperationColumn(_ColumnBase):
    """Dictionary-encoded :class:`OperationRecord` s of one operation name.

    ``ABSENT`` means the operation is idle in that state (a ``State`` with
    an ``operations`` mapping treats a missing record as idle).
    """

    __slots__ = ("_by_args", "_args_to")

    def __init__(self, name: str, prefix_length: int = 0) -> None:
        super().__init__(name, prefix_length)
        self._by_args: Optional[Dict[Any, List[int]]] = {}
        self._args_to = 0

    def codes_by_args(self) -> Optional[Dict[Any, List[int]]]:
        """The column's codes grouped by their record's ``args`` tuple,
        extended as new records are interned; ``None`` (permanently) once
        some argument tuple is unhashable."""
        by_args = self._by_args
        if by_args is not None and self._args_to < len(self.values):
            values = self.values
            try:
                for code in range(self._args_to, len(values)):
                    by_args.setdefault(values[code].args, []).append(code)
            except TypeError:
                self._by_args = None
                return None
            self._args_to = len(values)
        return by_args


def _extend(
    column: _ColumnBase,
    interns: Tuple[Dict[Any, int], List[int]],
    raw: Sequence[Any],
    is_op: bool,
) -> Optional[List[int]]:
    """Append one code per row of ``raw`` (``_GAP`` where the row does not
    bind the column) in one interning pass through ``code_of``.  Returns
    the rows where new codes first occur, or ``None`` after the per-value
    fallback for unhashable values."""
    code_of, unhashable = interns
    values = column.values
    before, start = len(code_of), len(values)
    try:
        # A new value's provisional code is ``start`` + its first row: above
        # every known code, and already final when new values first occur
        # at rows 0, 1, ...; the dict lists new values in first-seen order.
        provisional = list(map(code_of.setdefault, raw, range(start, start + len(raw))))
    except TypeError:
        while len(code_of) > before:
            code_of.popitem()
        # The scan compares in key form: operation records as their tuples.
        keys = [(r.phase, r.args, r.results) for r in values] if is_op else values
        column.codes.extend([_intern(value, keys, code_of, unhashable) for value in raw])
        new, firsts = keys[start:], None
    else:
        if len(code_of) == before:
            column.codes.fromlist(provisional)
            return []
        new = list(islice(reversed(code_of), len(code_of) - before))[::-1]
        firsts = [code_of[value] - start for value in new]
        if firsts != list(range(len(new))):
            renumber = {code_of[value]: start + i for i, value in enumerate(new)}
            provisional = list(map(renumber.get, provisional, provisional))
        for code, value in enumerate(new, start):
            code_of[value] = code
        values.extend(new)
        column.codes.fromlist(provisional)
    if is_op:
        values[start:] = [OperationRecord(*key) for key in new]
    else:
        column.has_bool = column.has_bool or any(type(v) is bool for v in new)
    return firsts


def _fill(
    store: "ColumnStore",
    interns: Dict[Any, Any],
    value_maps: Sequence[Mapping[str, Any]],
    op_maps: Sequence[Mapping[str, Tuple[str, tuple, tuple]]],
    universe: Optional[Tuple[List[Any], List[int]]] = None,
) -> None:
    """The column-wise builder: append rows to ``store``, one interning
    pass per column through its ``(code_of, unhashable)`` pair in
    ``interns`` (variable columns by name under ``False``, operation
    columns under ``True``, the value universe under ``None``).

    The universe gains each new value in row-major first-observation
    order — a row's non-boolean variable values in key order, then every
    operation argument and result, booleans included — unless ``universe``
    gives the entries.  A value first observed at row ``p`` is a new code
    there, so only such rows are read — or every row, where a ``1`` may
    hide under a variable's ``True`` code or values are unhashable.
    """
    offset, n = store.length, len(value_maps)
    names = list(value_maps[0]) if n else []
    raws = None
    if sum(map(len, value_maps)) == n * len(names):
        try:  # every row binds exactly the first row's variables
            raws = [list(map(itemgetter(name), value_maps)) for name in names]
        except KeyError:
            pass
    ragged = raws is None
    if ragged:
        names = list(dict.fromkeys(name for values in value_maps for name in values))
        raws = [[values.get(name, _GAP) for values in value_maps] for name in names]
    op_names: List[str] = []
    if any(op_maps):
        op_names = list(dict.fromkeys(name for ops in op_maps for name in ops))
    first_rows: set = set()
    bool_raws: List[List[Any]] = []  # where a 1 may hide under a True code
    for is_op, columns, kind, block_names in (
        (False, store._columns, Column, names),
        (True, store._op_columns, OperationColumn, op_names),
    ):
        kind_interns = interns[is_op]
        for index, name in enumerate(block_names):
            raw = [ops.get(name, _GAP) for ops in op_maps] if is_op else raws[index]
            column = columns.get(name)
            if column is None:
                column = columns[name] = kind(name, prefix_length=offset)
                kind_interns[name] = ({_GAP: ABSENT}, [])
            firsts = _extend(column, kind_interns[name], raw, is_op)
            if is_op or ragged:
                column.missing = column.missing or ABSENT in column.codes[offset:]
            if firsts is None:
                first_rows.update(range(n))
                continue
            if column.has_bool:
                bool_raws.append(raw)
            if firsts:
                new = column.values[len(column.values) - len(firsts):]
                first_rows.update(
                    at for at, value in zip(firsts, new) if is_op or type(value) is not bool
                )
        if len(columns) > len(block_names):
            for column in columns.values():
                if len(column.codes) < offset + n:
                    column.codes.extend(array("l", [ABSENT]) * n)
                    column.missing = True
    if bool_raws and not {bool, object}.issuperset(
        map(type, chain.from_iterable(bool_raws))
    ):
        first_rows.update(range(n))
    code_of, unhashable = interns[None]
    universe_values, universe_at = store._universe, store._universe_at
    observed: Iterable[Tuple[Any, int]] = zip(*universe) if universe else ()
    for value, at in observed:
        if _intern(value, universe_values, code_of, unhashable) == len(universe_at):
            universe_at.append(offset + at)
    for at in () if universe else sorted(first_rows):
        row = [value for value in value_maps[at].values() if type(value) is not bool]
        for _, args, results in op_maps[at].values():
            row += args + results
        for value in row:
            try:
                if value in code_of:
                    continue
            except TypeError:  # unhashable: ``_intern`` compares by ``==``
                pass
            if _intern(value, universe_values, code_of, unhashable) == len(universe_at):
                universe_at.append(offset + at)
    store.length += n


def _mark_start(
    column: Column, code_of: Dict[Any, int], unhashable: List[int], begin: int
) -> None:
    """Init-clause marking of the ``__start__`` column from ``begin`` on:
    position 0 reads ``True`` whatever the source said, and every other
    position without a value reads ``False``."""
    codes = column.codes
    if begin == 0:
        codes[0] = _intern(True, column.values, code_of, unhashable)
        begin = 1
    window = codes[begin:]
    if ABSENT in window:
        false = _intern(False, column.values, code_of, unhashable)
        if window.count(ABSENT) == len(window):
            codes[begin:] = array("l", [false]) * len(window)
        else:
            codes[begin:] = array("l", [false if c == ABSENT else c for c in window])
    column.missing = False


class ColumnStore:
    """The column-major form of a run of states (filled by :func:`_fill`).

    A :class:`~repro.semantics.trace.Trace` holds its block's store plus
    the ``__start__`` column (:meth:`marked`).  ``value_universe()`` comes
    from the source rows, before marking.
    """

    __slots__ = ("length", "_columns", "_op_columns", "_universe", "_universe_at")

    def __init__(
        self,
        length: int,
        columns: Dict[str, Column],
        op_columns: Dict[str, OperationColumn],
        universe: Sequence[Any],
        universe_at: Sequence[int],  # the row observing each universe value first
    ) -> None:
        self.length = length
        self._columns = columns
        self._op_columns = op_columns
        self._universe = universe
        self._universe_at = universe_at

    def marked(self) -> "ColumnStore":
        """This store plus the ``__start__`` column; the other columns are
        shared, a source ``__start__`` column is copied first."""
        columns = dict(self._columns)
        start = columns["__start__"] = Column("__start__", prefix_length=self.length)
        code_of: Dict[Any, int] = {}
        unhashable: List[int] = []
        source = self._columns.get("__start__")
        if source is not None:
            start.codes = array("l", source.codes)
            for value in source.values:
                _intern(value, start.values, code_of, unhashable)
        _mark_start(start, code_of, unhashable, 0)
        return ColumnStore(
            self.length, columns, self._op_columns, self._universe, self._universe_at
        )

    @property
    def columns(self) -> Dict[str, Column]:
        return self._columns

    @property
    def op_columns(self) -> Dict[str, OperationColumn]:
        return self._op_columns

    def column(self, name: str) -> Optional[Column]:
        return self._columns.get(name)

    def op_column(self, name: str) -> Optional[OperationColumn]:
        return self._op_columns.get(name)

    def value_universe(self) -> Tuple[Any, ...]:
        """Distinct observed non-boolean values, in first-observation order."""
        return tuple(self._universe)

    def state_values(self, index: int) -> Dict[str, Any]:
        """The variable assignment of concrete state ``index`` (0-based)."""
        out: Dict[str, Any] = {}
        for name, column in self._columns.items():
            code = column.codes[index]
            if code >= 0:
                out[name] = column.values[code]
        return out

    def state_operations(self, index: int) -> Dict[str, OperationRecord]:
        out: Dict[str, OperationRecord] = {}
        for name, column in self._op_columns.items():
            code = column.codes[index]
            if code >= 0:
                out[name] = column.values[code]
        return out

    def state(self, index: int) -> State:
        """The row view of concrete state ``index`` (0-based)."""
        return State._adopt(self.state_values(index), self.state_operations(index))


class IncrementalColumnStore(ColumnStore):
    """The columns of a growing prefix, a block at a time: rows interned
    straight into this store's dictionaries, ``__start__`` marked.  Per-code
    bitsets extend over the appended window on their next read, so the
    kernel reads a growing column as it reads a static one.
    """

    __slots__ = ("_interns",)

    def __init__(self) -> None:
        super().__init__(0, {}, {}, [], [])
        self._interns: Dict[Any, Any] = {False: {}, True: {}, None: ({}, [])}

    def absorb(self, block: "StateBlock") -> None:
        """Append every row of ``block``."""
        offset = self.length
        _fill(self, self._interns, *block.rows)
        if self.length == offset:
            return
        if offset == 0 and "__start__" not in self._columns:
            self._columns["__start__"] = Column("__start__", prefix_length=self.length)
            self._interns[False]["__start__"] = ({_GAP: ABSENT}, [])
        _mark_start(self._columns["__start__"], *self._interns[False]["__start__"], offset)

    def block(self, start: int, stop: int) -> "StateBlock":
        """Rows ``start..stop-1`` as a standalone block (their values and
        the universe entries first observed there): absorbing
        ``block(0, a)``, ``block(a, b)``, ... in order rebuilds this store."""
        lo = bisect_left(self._universe_at, start)
        hi = bisect_left(self._universe_at, stop)
        positions = range(start, stop)
        return StateBlock(
            [self.state_values(i) for i in positions],
            [
                {name: (op.phase, op.args, op.results) for name, op in ops.items()}
                for ops in map(self.state_operations, positions)
            ],
            (self._universe[lo:hi], [at - start for at in self._universe_at[lo:hi]]),
        )


class StateBlock(Sequence[State]):
    """Validated rows as variable maps plus ``(phase, args, results)``
    operation maps: what :func:`repro.serve.protocol.rows_to_states`
    returns.  A growing prefix interns the rows straight into its own
    columns; :attr:`store` builds the block's own (unmarked) columns on
    first use, which a ``Trace`` adopts and the ``State`` views read.
    """

    __slots__ = ("rows", "_store", "_views")

    def __init__(
        self,
        value_maps: Sequence[Mapping[str, Any]],
        op_maps: Sequence[Mapping[str, Tuple[str, tuple, tuple]]],
        universe: Optional[Tuple[List[Any], List[int]]] = None,
    ) -> None:
        self.rows = (value_maps, op_maps, universe)
        self._store: Optional[ColumnStore] = None
        self._views: List[Optional[State]] = [None] * len(value_maps)

    @property
    def store(self) -> ColumnStore:
        if self._store is None:
            self._store = ColumnStore(0, {}, {}, [], [])
            _fill(self._store, {False: {}, True: {}, None: ({}, [])}, *self.rows)
        return self._store

    @classmethod
    def from_states(cls, states: Iterable[State], first_index: int = 0) -> "StateBlock":
        """A block of ``State`` objects; ``TraceError`` on anything else,
        naming its index counted from ``first_index``."""
        states = list(states)
        for index, state in enumerate(states):
            if not isinstance(state, State):
                raise TraceError(
                    f"trace element {first_index + index} is not a State: "
                    f"{type(state).__name__}"
                )
        return cls([state.raw_values for state in states], [
            {name: (op.phase, op.args, op.results) for name, op in state.raw_operations.items()}
            for state in states
        ])

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._views)))]
        view = self._views[index]
        if view is None:
            view = self._views[index] = self.store.state(index)
        return view
