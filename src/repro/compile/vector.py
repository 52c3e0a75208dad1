"""The bitset kernel: whole-column evaluation of state formulas.

A *state formula* (``PlanNode.is_state``) depends only on the first state
of its context, so over the concrete states its full semantic content is
one bit per position — a **profile**.  The per-position runtime recomputes
that profile point by point through the memo tables; this module computes
it as packed-int bitset operations over the trace's dictionary-encoded
columns (:mod:`repro.semantics.columns`):

* boolean variables, comparison atoms (all six operators, against a
  constant or a bound logical variable), operation predicates with
  state-independent arguments, and the ``start`` predicate each read one
  column and answer per *distinct value*, not per state;
* ``¬ / ∧ / ∨ / ⊃ / ≡`` combine child profiles with single big-int ops;
* ``[] φ`` / ``<> φ`` over a state-formula body reduce to one mask test
  against the **coverage bitset** of the context — the canonical positions
  a virtual range ``<lo, hi>`` touches, cycle wrap-around included;
* event change positions (the False→True edges
  :class:`~repro.compile.runtime.EventIndex` bisects) derive from a bitset
  shift instead of a per-state scan.

One kernel serves static traces and growing prefixes alike: a profile
covers the concrete states seen so far and extends over the appended
window on its next read, so a batched append to a monitored stream is one
window pass per touched profile instead of N per-position re-evaluations.

Exactness is non-negotiable: the kernel never guesses.  Any situation whose
error or semantics it cannot reproduce bit-for-bit — a variable missing in
some state (the per-position path raises there *lazily*), an unbound
logical variable, a comparison between incomparable values, a column past
the dictionary-cardinality cap, an unhashable slot binding — makes
:meth:`BitsetKernel.profile` return ``None`` and the caller falls back to
the per-position memo path, which preserves the evaluator's
(deferred-)error behaviour exactly.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..semantics.trace import INFINITY
from ..syntax.terms import (
    Cmp,
    Const,
    FalsePredicate,
    LogicalVar,
    OpAfter,
    OpAt,
    OpIn,
    Prop,
    StartPredicate,
    TruePredicate,
    Var,
)
from .dag import (
    N_AND,
    N_ATOM,
    N_FALSE,
    N_IFF,
    N_IMPLIES,
    N_NOT,
    N_OR,
    N_TRUE,
    STATE_NODE_OPS,
)

__all__ = ["BitsetKernel", "bit_positions", "changes_from_bits"]


_CMP_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: bit offsets of the set bits of each byte value, for sparse extraction.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(b for b in range(8) if byte & (1 << b)) for byte in range(256)
)


class _Fallback(Exception):
    """Internal: this node cannot be vectorized faithfully — use the
    per-position path."""


def bit_positions(bits: int) -> List[int]:
    """0-based indices of the set bits, ascending (sparse-friendly)."""
    out: List[int] = []
    if bits <= 0:
        return out
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for i, byte in enumerate(data):
        if byte:
            base = i << 3
            for offset in _BYTE_BITS[byte]:
                out.append(base + offset)
    return out


def changes_from_bits(bits: int, trace) -> Tuple[List[int], List[int]]:
    """The ``(stem, cycle)`` False→True change positions of a truth bitset.

    Mirrors :meth:`repro.semantics.trace.Trace.change_positions` — ``stem``
    holds virtual positions ``k`` in ``[2, length]`` whose adjacent pair is
    a change, ``cycle`` the changes in the first virtual copy of the
    repeating cycle — but reads the profile as one packed int: the stem is
    a single shift-and-mask, the cycle one bit test per cycle position.
    """
    n = trace.length
    # bit j set in `chg` iff bit j set and bit j-1 clear; `| 1` excludes
    # j = 0 (position 1 has no predecessor).
    chg = bits & ~((bits << 1) | 1)
    stem = [j + 1 for j in bit_positions(chg)]
    cycle = [
        k
        for k in range(n + 1, n + trace.period + 1)
        if (bits >> (trace.canonical(k) - 1)) & 1
        and not (bits >> (trace.canonical(k - 1) - 1)) & 1
    ]
    return stem, cycle


class _Entry:
    """One (node, bindings) profile of a :class:`BitsetKernel`.

    ``bits`` covers concrete positions ``1..built_to``; ``passes`` caches
    an atom's test verdict per dictionary code, so the test runs once per
    *distinct value* across every extension window.  ``dead`` is the
    permanent exact-fallback verdict.
    """

    __slots__ = ("bits", "built_to", "dead", "passes")

    def __init__(self) -> None:
        self.bits = 0
        self.built_to = 0
        self.dead = False
        self.passes: Dict[int, bool] = {}


class BitsetKernel:
    """Bitset evaluation of one plan state's state-formula nodes.

    Bound to a static :class:`~repro.semantics.trace.Trace` or to a growing
    :class:`~repro.compile.runtime.GrowingPrefix`.  Profiles cache per
    ``(node, free-slot bindings)`` and extend to the trace's current length
    on each read: a static trace extends once, a growing prefix once per
    appended window.  A ``None`` profile (the faithful-fallback verdict)
    caches too, so a node that cannot vectorize is decided once.

    The lasso queries (:meth:`holds_at`, :meth:`eventually`, :meth:`always`,
    :meth:`coverage`) read static traces only; the incremental lowering in
    :mod:`repro.compile.lower` works on :meth:`profile` directly and owns
    the tail-marking a growing prefix needs.
    """

    __slots__ = (
        "_state",
        "_trace",
        "_entries",
        "_supported",
        "_bytes",
        "_inv_bounds",
        "_coverage",
    )

    def __init__(self, plan_state, trace) -> None:
        self._state = plan_state
        self._trace = trace
        self._entries: Dict[Any, _Entry] = {}
        self._bytes: Dict[Any, bytes] = {}
        self._inv_bounds: Dict[Any, int] = {}
        self._coverage: Dict[Any, int] = {}
        # The support verdicts depend only on the plan's node shapes, so
        # every kernel bound to the same plan (each stream of a pooled
        # serve fleet, each trace of a batch) shares one table and the
        # shape walk runs once.
        plan = plan_state._plan
        supported = getattr(plan, "_kernel_supported", None)
        if supported is None:
            supported = {}
            try:
                plan._kernel_supported = supported
            except Exception:  # pragma: no cover - exotic plan objects
                pass
        self._supported: Dict[int, bool] = supported

    def reset(self) -> None:
        """Drop every per-trace profile (plan-state pool reuse).

        ``_supported`` survives: it is a pure function of the plan's node
        shapes, identical for every stream that recycles this state.
        """
        self._entries.clear()
        self._bytes.clear()
        self._inv_bounds.clear()

    # -- static shape check ---------------------------------------------------

    def supports(self, nid: int) -> bool:
        """Whether the node's *shape* is vectorizable (bindings checked later)."""
        cached = self._supported.get(nid)
        if cached is not None:
            return cached
        node = self._state._nodes[nid]
        op = node.op
        if op not in STATE_NODE_OPS:
            ok = False
        elif op in (N_TRUE, N_FALSE):
            ok = True
        elif op == N_NOT:
            ok = self.supports(node.a)
        elif op == N_ATOM:
            ok = self._atom_supported(node.predicate)
        else:  # and / or / implies / iff
            ok = self.supports(node.a) and self.supports(node.b)
        self._supported[nid] = ok
        return ok

    @staticmethod
    def _atom_supported(predicate) -> bool:
        # Exact types only: a Prop/Cmp *subclass* may override ``holds``
        # with semantics the column read would silently disagree with.
        kind = type(predicate)
        if kind in (Prop, TruePredicate, FalsePredicate, StartPredicate):
            return True
        if kind is Cmp:
            left, right = predicate.left, predicate.right
            if type(left) is Var and type(right) in (Const, LogicalVar):
                return True
            if type(right) is Var and type(left) in (Const, LogicalVar):
                return True
            return False
        if kind in (OpAt, OpIn, OpAfter):
            return not any(arg.state_vars() for arg in predicate.args)
        return False

    # -- profiles -------------------------------------------------------------

    def _key(self, node) -> Any:
        """Profile cache key: the node id plus its free-slot bindings (the
        bare id for slot-free nodes).  Hashing it may raise ``TypeError``."""
        free = node.free_slots
        if not free:
            return node.id
        slots = self._state._slots
        return (node.id,) + tuple(slots[s] for s in free)

    def profile(self, node) -> Optional[int]:
        """The node's truth bits over concrete positions ``1..length`` under
        the current slot bindings, or ``None`` when the per-position path
        must decide instead.

        On a growing prefix a profile that becomes unusable mid-stream (a
        variable missing from some appended state, a comparison raising on
        a fresh value, a column crossing the cardinality cap) dies for
        good; its earlier answers stay valid because they were bit-for-bit
        the per-position verdicts of the shorter prefix.
        """
        free = node.free_slots  # ``_key``, inlined on this hot path
        if free:
            slots = self._state._slots
            key = (node.id,) + tuple(slots[s] for s in free)
        else:
            key = node.id
        try:
            entry = self._entries.get(key)
        except TypeError:
            # An unhashable binding cannot key a profile: the per-position
            # path, which needs no cache, decides.
            return None
        if entry is None:
            entry = self._entries[key] = _Entry()
        if entry.dead:
            return None
        n = self._trace.length
        if entry.built_to < n:
            try:
                entry.bits = self._bits(node, entry, n)
            except Exception:
                entry.dead = True
                entry.bits = 0
                entry.passes.clear()
                return None
            entry.built_to = n
        return entry.bits

    def _child(self, nid: int) -> int:
        bits = self.profile(self._state._nodes[nid])
        if bits is None:
            raise _Fallback(nid)
        return bits

    def _bits(self, node, entry: _Entry, n: int) -> int:
        """The node's bits over positions ``1..n`` (bit 0 = position 1)."""
        op = node.op
        if op == N_ATOM:
            return self._atom_bits(node, entry, n)
        if op == N_TRUE:
            return (1 << n) - 1
        if op == N_FALSE:
            return 0
        if op == N_NOT:
            return ~self._child(node.a) & ((1 << n) - 1)
        a = self._child(node.a)
        b = self._child(node.b)
        if op == N_AND:
            return a & b
        if op == N_OR:
            return a | b
        mask = (1 << n) - 1
        if op == N_IMPLIES:
            return (~a | b) & mask
        if op == N_IFF:
            return ~(a ^ b) & mask
        raise _Fallback(node.id)

    def _resolve(self, expr) -> Any:
        """A ``Const`` / *bound* ``LogicalVar`` value (else fall back: the
        per-position path raises its unbound-variable error lazily)."""
        if isinstance(expr, Const):
            return expr.value
        from .runtime import UNSET  # late: vector loads during runtime's import

        slot = self._state._plan.slot_of.get(expr.name)
        if slot is not None:
            value = self._state._slots[slot]
            if value is not UNSET:
                return value
        raise _Fallback(expr)

    def _atom_bits(self, node, entry: _Entry, n: int) -> int:
        predicate = node.predicate
        if isinstance(predicate, TruePredicate):
            return (1 << n) - 1
        if isinstance(predicate, FalsePredicate):
            return 0
        store = self._trace.columns
        if isinstance(predicate, StartPredicate):
            # Missing ``__start__`` is False, not an error — no presence
            # requirement; positions outside the column contribute 0.
            column = store.column("__start__")
            if column is None:
                return 0
            return self._select(entry, column, bool, n)
        if isinstance(predicate, Prop):
            column = store.column(predicate.name)
            if column is None or column.missing:
                # The per-position path raises UnknownStateVariableError at
                # the position it touches; only it can do that lazily.
                raise _Fallback(predicate.name)
            return self._select(entry, column, bool, n)
        if isinstance(predicate, Cmp):
            left, right = predicate.left, predicate.right
            if isinstance(left, Var) and isinstance(right, (Const, LogicalVar)):
                name, constant, flipped = left.name, self._resolve(right), False
            elif isinstance(right, Var) and isinstance(left, (Const, LogicalVar)):
                name, constant, flipped = right.name, self._resolve(left), True
            else:
                raise _Fallback(predicate)
            column = store.column(name)
            if column is None or column.missing:
                raise _Fallback(name)
            compare = _CMP_FUNCS[predicate.op]
            if flipped:
                test = lambda value: bool(compare(constant, value))
            else:
                test = lambda value: bool(compare(value, constant))
            # A TypeError inside `compare` kills the profile: the
            # per-position path raises at the position it touches.
            return self._select(entry, column, test, n)
        if isinstance(predicate, (OpAt, OpIn, OpAfter)):
            env = self._state._env_view(node)
            # Arguments are state-independent (checked by supports); any
            # evaluation error falls back to surface per position.
            arg_values = tuple(arg.evaluate({}, env) for arg in predicate.args)
            column = store.op_column(predicate.operation)
            if column is None:
                # No state records this operation (yet): idle everywhere.  A
                # column that arrives later is ABSENT-padded, i.e. idle.
                return 0
            phases = predicate.PHASES
            if not arg_values:
                return self._select(
                    entry, column, lambda record: record.phase in phases, n
                )

            def test(record) -> bool:
                # The elementwise ``!=`` convention of
                # :func:`repro.syntax.terms._args_match`.
                if record.phase not in phases:
                    return False
                actual = record.args
                if len(arg_values) != len(actual):
                    return False
                return not any(
                    expected != value for expected, value in zip(arg_values, actual)
                )

            # Only codes whose ``args`` equal the query can match, so the
            # column's args index narrows the codes to test to (usually)
            # one per binding; anything unhashable tests every code.
            by_args = column.codes_by_args()
            try:
                candidates = None if by_args is None else by_args.get(arg_values, ())
            except TypeError:
                candidates = None
            return self._select(entry, column, test, n, candidates)
        raise _Fallback(predicate)

    def _select(self, entry: _Entry, column, test, n: int, candidates=None) -> int:
        """``entry``'s bits extended to ``n`` with the positions whose value
        passes ``test`` (``ABSENT`` positions are False; Prop/Cmp bail on
        the column's ``missing`` flag before reaching here).

        Only ``candidates``, when given, can pass.  A window longer than
        the list of codes that can pass — every first build on a static
        trace, an append over a small dictionary — ORs the column's
        per-code bitsets of the passing codes.  A shorter window — an
        append over a wide dictionary — tests just the codes it holds.
        Either way ``test`` runs once per distinct code, and a column over
        the cardinality cap falls back.
        """
        bitsets = column.code_bitsets()
        if bitsets is None:
            raise _Fallback("cardinality cap")
        passes = entry.passes
        values = column.values
        start = entry.built_to
        if candidates is None:
            candidates = range(len(values))
        if len(candidates) < n - start:
            out = 0
            for code in candidates:
                truth = passes.get(code)
                if truth is None:
                    truth = passes[code] = bool(test(values[code]))
                if truth:
                    out |= bitsets[code]
            return out
        window = 0
        for i, code in enumerate(column.codes[start:n]):
            if code >= 0:
                truth = passes.get(code)
                if truth is None:
                    truth = passes[code] = code in candidates and bool(
                        test(values[code])
                    )
                if truth:
                    window |= 1 << i
        return entry.bits | (window << start)

    # -- O(1) queries over a static profile -------------------------------------

    def holds_at(self, node, pos: int) -> Optional[bool]:
        """The node's truth at virtual position ``pos`` (None → fall back).

        Reads a cached little-endian byte image of the profile so that a
        per-position parent iterating over a vectorized child pays O(1) per
        query instead of an O(length/64) big-int shift.
        """
        key = self._key(node)
        try:
            data = self._bytes.get(key)
        except TypeError:
            return None
        if data is None:
            bits = self.profile(node)
            if bits is None:
                return None
            data = self._bytes[key] = bits.to_bytes((self._trace.length + 7) >> 3, "little")
        c = self._trace.canonical(pos) - 1
        return bool((data[c >> 3] >> (c & 7)) & 1)

    def eventually(self, node, lo: int, hi) -> Optional[bool]:
        """``<lo, hi> |= <> node`` for a state-formula body (None → fall back)."""
        bits = self.profile(node)
        if bits is None:
            return None
        if hi == INFINITY:
            # Coverage is the suffix [start, n]: one O(1) bound test beats
            # building a per-lo suffix mask.
            trace = self._trace
            start = lo if lo < trace.loop_start else trace.loop_start
            return bits.bit_length() >= start
        cov = self.coverage(lo, hi)
        return (bits & cov) != 0

    def always(self, node, lo: int, hi) -> Optional[bool]:
        """``<lo, hi> |= [] node`` for a state-formula body (None → fall back)."""
        bits = self.profile(node)
        if bits is None:
            return None
        if hi == INFINITY:
            trace = self._trace
            start = lo if lo < trace.loop_start else trace.loop_start
            return self._inverse_bound(node, bits) < start
        cov = self.coverage(lo, hi)
        return (bits & cov) == cov

    def _inverse_bound(self, node, bits: int) -> int:
        """Highest position (1-based) where the profile is *false*, cached
        per (node, bindings); 0 when the profile is all-true."""
        key = self._key(node)
        bound = self._inv_bounds.get(key)
        if bound is None:
            mask = (1 << self._trace.length) - 1
            bound = self._inv_bounds[key] = (~bits & mask).bit_length()
        return bound

    # -- context coverage ------------------------------------------------------

    def coverage(self, lo: int, hi) -> int:
        """Bitset of canonical positions the virtual range ``<lo, hi>`` hits.

        ``[] φ`` on the range is ``profile ⊇ coverage``; ``<> φ`` is
        ``profile ∩ coverage ≠ ∅``.  Correct under the runtime's context
        normalization: shifts by whole periods never change the canonical
        position set.
        """
        key = (lo, hi)
        cov = self._coverage.get(key)
        if cov is None:
            cov = self._coverage[key] = self._compute_coverage(lo, hi)
        return cov

    def _compute_coverage(self, lo: int, hi) -> int:
        trace = self._trace
        n = trace.length
        if hi == INFINITY:
            # Beyond position n the walk wraps through the entire cycle.
            start = lo if lo < trace.loop_start else trace.loop_start
            return _mask_range(start, n)
        hi = int(hi)
        if hi < lo:
            return 0
        cov = 0
        if lo <= n:
            cov = _mask_range(lo, min(hi, n))
        beyond = max(lo, n + 1)
        if hi >= beyond:
            if hi - beyond + 1 >= trace.period:
                cov |= _mask_range(trace.loop_start, n)
            else:
                for k in range(beyond, hi + 1):
                    cov |= 1 << (trace.canonical(k) - 1)
        return cov


def _mask_range(lo: int, hi: int) -> int:
    """Bits for 1-based positions ``lo..hi`` inclusive (empty when lo > hi)."""
    if lo > hi:
        return 0
    return (1 << hi) - (1 << (lo - 1))
