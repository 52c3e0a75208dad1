"""Column-major trace storage: dictionary-encoded per-variable columns.

The paper's satisfaction relation sweeps a state sequence, and almost every
question the compiled runtime asks of that sequence is *per variable*, not
per state: "where does ``x == c`` hold", "where is operation ``O`` at its
entry point", "which non-boolean values were ever observed".  Storing the
trace row-major — one dict-backed :class:`~repro.semantics.state.State` per
position — makes each of those questions an O(n) Python-object walk.

A :class:`ColumnStore` turns the same data column-major, built in **one**
pass over the source states:

* one :class:`Column` per state variable — a stdlib ``array`` of small
  integer codes into a per-column interned value list (dictionary
  encoding), so booleans, enums and repeated non-scalar values all store as
  machine integers;
* one :class:`OperationColumn` per operation name, dictionary-encoding the
  (phase, args, results) records the same way;
* the ``__start__`` marking of the Init-clause ``start`` predicate done
  columnwise (one code write) instead of rebuilding the first state;
* the trace's observed value universe, deduplicated through a set during
  the same pass (replacing the quadratic ``value not in seen`` list scan).

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .state import OperationRecord, State

__all__ = [
    "ABSENT",
    "Column",
    "OperationColumn",
    "ColumnStore",
    "IncrementalColumnStore",
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


def _intern(
    value: Any,
    values: List[Any],
    code_of: Dict[Any, int],
    unhashable: List[int],
) -> int:
    """The dictionary-encoding intern: one code per distinct value.

    Distinctness follows ``dict`` key semantics (``1``, ``1.0`` and ``True``
    share a code — consistent with ``==`` everywhere the codes are compared);
    unhashable values fall back to a linear scan over their own codes, the
    same convention :class:`repro.compile.runtime.GrowingPrefix` uses for
    its value universe.
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

    __slots__ = ("name", "codes", "values", "missing", "_bitsets", "_bits_to")

    def __init__(self, name: str, prefix_length: int = 0) -> None:
        self.name = name
        self.codes: "array" = array("l", [ABSENT]) * prefix_length
        self.values: List[Any] = []
        self.missing = prefix_length > 0
        self._bitsets: Optional[List[int]] = []
        self._bits_to = 0

    def __len__(self) -> int:
        return len(self.codes)

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

    def pad(self) -> None:
        """Mark the next position as not binding this column."""
        self.codes.append(ABSENT)
        self.missing = True


class Column(_ColumnBase):
    """Dictionary-encoded values of one state variable across a trace."""

    __slots__ = ()

    def append(self, value: Any, code_of: Dict[Any, int], unhashable: List[int]) -> None:
        self.codes.append(_intern(value, self.values, code_of, unhashable))


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


def _absorb_row(
    index: int,
    state: State,
    columns: Dict[str, Column],
    interns: Dict[str, Tuple[Dict[Any, int], List[int]]],
    op_columns: Dict[str, OperationColumn],
    op_interns: Dict[str, Tuple[Dict[Any, int], List[int]]],
) -> None:
    """Append state ``index``'s values and operations to every column,
    padding the columns it does not bind with ``ABSENT``."""
    for name, value in state.raw_values.items():
        column = columns.get(name)
        if column is None:
            column = columns[name] = Column(name, prefix_length=index)
            interns[name] = ({}, [])
        code_of, unhashable = interns[name]
        column.append(value, code_of, unhashable)
    for name, record in state.raw_operations.items():
        op_column = op_columns.get(name)
        if op_column is None:
            op_column = op_columns[name] = OperationColumn(name, prefix_length=index)
            op_interns[name] = ({}, [])
        code_of, unhashable = op_interns[name]
        op_column.codes.append(_intern(record, op_column.values, code_of, unhashable))
    filled = index + 1
    for column in columns.values():
        if len(column.codes) < filled:
            column.pad()
    for op_column in op_columns.values():
        if len(op_column.codes) < filled:
            op_column.pad()


class IncrementalColumnStore:
    """The column-major form of a *growing* state prefix, fed one state at
    a time.

    The per-state twin of :class:`ColumnStore` (both absorb rows through
    one helper): the incremental monitors'
    :class:`~repro.compile.runtime.GrowingPrefix` absorbs each appended
    state into the same dictionary-encoded :class:`Column` /
    :class:`OperationColumn` objects (``ABSENT`` padding included).  Each
    column's per-code bitsets extend over just the appended window on the
    next :meth:`~_ColumnBase.code_bitsets` call, so the bitset kernel
    (:class:`~repro.compile.vector.BitsetKernel`) reads a growing column
    exactly as it reads a static one.  No ``__start__`` marking happens
    here — ``GrowingPrefix.append`` injects it into the state rows before
    they arrive.
    """

    __slots__ = ("length", "_columns", "_op_columns", "_interns", "_op_interns")

    def __init__(self) -> None:
        self.length = 0
        self._columns: Dict[str, Column] = {}
        self._op_columns: Dict[str, OperationColumn] = {}
        self._interns: Dict[str, Tuple[Dict[Any, int], List[int]]] = {}
        self._op_interns: Dict[str, Tuple[Dict[Any, int], List[int]]] = {}

    def absorb(self, state: State) -> None:
        """Append one state's values/operations to every column (padded)."""
        _absorb_row(
            self.length, state, self._columns, self._interns,
            self._op_columns, self._op_interns,
        )
        self.length += 1

    def column(self, name: str) -> Optional[Column]:
        return self._columns.get(name)

    def op_column(self, name: str) -> Optional[OperationColumn]:
        return self._op_columns.get(name)


class ColumnStore:
    """The column-major form of one trace, built lazily in a single pass.

    Parameters
    ----------
    source_states:
        The trace's concrete states, **without** ``__start__`` injection —
        marking happens columnwise here.
    mark_start:
        Mirror of ``Trace(mark_start=...)``: when true, position 1 gets
        ``__start__ = True`` (overriding any source value, as the eager
        marking did) and every other position missing it gets ``False``.
    """

    __slots__ = ("length", "_source", "_mark_start", "_columns", "_op_columns", "_universe")

    def __init__(self, source_states: Sequence[State], mark_start: bool) -> None:
        self.length = len(source_states)
        self._source: Optional[Sequence[State]] = source_states
        self._mark_start = mark_start
        self._columns: Optional[Dict[str, Column]] = None
        self._op_columns: Optional[Dict[str, OperationColumn]] = None
        self._universe: Optional[Tuple[Any, ...]] = None

    # -- the single build pass ----------------------------------------------

    def _build(self) -> None:
        columns: Dict[str, Column] = {}
        interns: Dict[str, Tuple[Dict[Any, int], List[int]]] = {}
        op_columns: Dict[str, OperationColumn] = {}
        op_interns: Dict[str, Tuple[Dict[Any, int], List[int]]] = {}
        universe: List[Any] = []
        seen: set = set()
        unhashable_seen: List[Any] = []
        for index, state in enumerate(self._source or ()):
            _absorb_row(index, state, columns, interns, op_columns, op_interns)
            for value in state.observed_values():
                try:
                    if value in seen:
                        continue
                    seen.add(value)
                except TypeError:
                    if value in unhashable_seen:  # unhashable: linear fallback
                        continue
                    unhashable_seen.append(value)
                universe.append(value)
        if self._mark_start and self.length:
            start = columns.get("__start__")
            if start is None:
                start = columns["__start__"] = Column("__start__", prefix_length=self.length)
                interns["__start__"] = ({}, [])
            code_of, unhashable = interns["__start__"]
            # Position 1 is always True (the eager marking overrode the
            # source value there too); other positions default to False.
            start.codes[0] = _intern(True, start.values, code_of, unhashable)
            false_code: Optional[int] = None
            for i in range(1, self.length):
                if start.codes[i] == ABSENT:
                    if false_code is None:
                        false_code = _intern(False, start.values, code_of, unhashable)
                    start.codes[i] = false_code
            start.missing = any(code == ABSENT for code in start.codes)
        self._columns = columns
        self._op_columns = op_columns
        self._universe = tuple(universe)
        self._source = None  # the states are no longer needed here

    def _ensure(self) -> None:
        if self._columns is None:
            self._build()

    # -- accessors -----------------------------------------------------------

    @property
    def columns(self) -> Dict[str, Column]:
        self._ensure()
        return self._columns  # type: ignore[return-value]

    @property
    def op_columns(self) -> Dict[str, OperationColumn]:
        self._ensure()
        return self._op_columns  # type: ignore[return-value]

    def column(self, name: str) -> Optional[Column]:
        self._ensure()
        return self._columns.get(name)  # type: ignore[union-attr]

    def op_column(self, name: str) -> Optional[OperationColumn]:
        self._ensure()
        return self._op_columns.get(name)  # type: ignore[union-attr]

    def value_universe(self) -> Tuple[Any, ...]:
        """Distinct observed non-boolean values, in first-observation order."""
        self._ensure()
        return self._universe  # type: ignore[return-value]

    # -- row reconstruction (the lazy State view) ----------------------------

    def state_values(self, index: int) -> Dict[str, Any]:
        """The variable assignment of concrete state ``index`` (0-based)."""
        self._ensure()
        out: Dict[str, Any] = {}
        for name, column in self._columns.items():  # type: ignore[union-attr]
            present, value = column.value_at(index)
            if present:
                out[name] = value
        return out

    def state_operations(self, index: int) -> Dict[str, OperationRecord]:
        self._ensure()
        out: Dict[str, OperationRecord] = {}
        for name, column in self._op_columns.items():  # type: ignore[union-attr]
            present, record = column.value_at(index)
            if present:
                out[name] = record
        return out

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # Ship the built columns (compact arrays + interned values), never
        # the source State objects: this is the zero-copy worker handoff.
        self._ensure()
        return {
            "length": self.length,
            "columns": [
                (c.name, c.codes.tobytes(), c.values, c.missing)
                for c in self._columns.values()  # type: ignore[union-attr]
            ],
            "op_columns": [
                (c.name, c.codes.tobytes(), c.values, c.missing)
                for c in self._op_columns.values()  # type: ignore[union-attr]
            ],
            "universe": self._universe,
        }

    def __setstate__(self, payload: Dict[str, Any]) -> None:
        self.length = payload["length"]
        self._source = None
        self._mark_start = False  # marking is already in the columns
        self._universe = payload["universe"]
        columns: Dict[str, Column] = {}
        for name, raw, values, missing in payload["columns"]:
            column = Column(name)
            column.codes = array("l")
            column.codes.frombytes(raw)
            column.values = values
            column.missing = missing
            columns[name] = column
        self._columns = columns
        op_columns: Dict[str, OperationColumn] = {}
        for name, raw, values, missing in payload["op_columns"]:
            column = OperationColumn(name)
            column.codes = array("l")
            column.codes.frombytes(raw)
            column.values = values
            column.missing = missing
            op_columns[name] = column
        self._op_columns = op_columns
