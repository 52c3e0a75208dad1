"""Model-theoretic semantics of the interval logic (Chapter 3).

States, traces, the interval construction function ``F``, the satisfaction
relation, and the Appendix A reduction of the ``*`` interval-term modifier.
"""

from .columns import Column, ColumnStore, OperationColumn, StateBlock
from .construction import BOTTOM, Direction, Interval, IntervalConstructor
from .evaluator import Evaluator, holds_on_context, satisfies
from .reduction import (
    eliminate_stars,
    has_star,
    occurs_requirement,
    strip_stars,
    term_obligation,
)
from .state import OperationRecord, State
from .trace import INFINITY, Trace, boolean_trace, make_trace

__all__ = [
    "Column",
    "ColumnStore",
    "OperationColumn",
    "StateBlock",
    "BOTTOM",
    "Direction",
    "Interval",
    "IntervalConstructor",
    "Evaluator",
    "holds_on_context",
    "satisfies",
    "eliminate_stars",
    "has_star",
    "occurs_requirement",
    "strip_stars",
    "term_obligation",
    "OperationRecord",
    "State",
    "INFINITY",
    "Trace",
    "boolean_trace",
    "make_trace",
]
