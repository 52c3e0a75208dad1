"""Cross-trace pooling of fully-lowered incremental plan states.

Binding a plan is the expensive half of opening a monitored stream: one
closure per DAG node, kernel probes per node, slot/memo skeletons.  All
of that is trace-independent — only the *contents* of the memo tables and
the growing prefix belong to a particular stream — so when a stream
closes (or a serve handle is rebuilt), its spec-plan state can be reset
in place and handed to the next stream that opens the same plan over the
same domain.  A 1,000-stream fleet cycling
over a handful of spec families then pays the lowering once per family
and recycles the skeletons forever after.

Keys carry everything a state was bound with: the plan digest (alpha-
invariant, so renamed spec variants share a pool slot) and the *full*
domain key — names **and** values, because each state keeps its explicit
``Forall`` domains and its quantifiers read them on every call.  States
whose domain fails to hash are simply never pooled.

The pool is bounded two ways (per key and in total; beyond the total the
least recently touched key sheds states) so a fleet that churns through
unbounded spec variety stays bounded, exactly like the plan LRU above it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, List

__all__ = [
    "DEFAULT_POOL_STATES",
    "DEFAULT_POOL_STATES_PER_KEY",
    "PlanStatePool",
]

#: Total parked states across every key; beyond it the least recently
#: touched key sheds states first.
DEFAULT_POOL_STATES = 256

#: Parked states per (plan, domain) key — the most concurrent
#: close/open churn one shape is expected to see between acquires.
DEFAULT_POOL_STATES_PER_KEY = 8


class PlanStatePool:
    """Bounded free-lists of lowered plan states, keyed by binding shape."""

    def __init__(
        self,
        max_states: int = DEFAULT_POOL_STATES,
        max_states_per_key: int = DEFAULT_POOL_STATES_PER_KEY,
    ) -> None:
        if max_states < 1:
            raise ValueError(f"max_states must be at least 1, got {max_states}")
        if max_states_per_key < 1:
            raise ValueError(
                f"max_states_per_key must be at least 1, got {max_states_per_key}"
            )
        self._free: "OrderedDict[Hashable, List[Any]]" = OrderedDict()
        self._size = 0
        self._max_states = max_states
        self._max_per_key = max_states_per_key
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.discards = 0

    def __len__(self) -> int:
        return self._size

    def acquire(self, key: Hashable):
        """Pop a parked state for ``key`` (already reset), or ``None``."""
        bucket = self._free.get(key)
        if not bucket:
            self.misses += 1
            return None
        state = bucket.pop()
        if bucket:
            self._free.move_to_end(key)
        else:
            del self._free[key]
        self._size -= 1
        self.hits += 1
        return state

    def release(self, key: Hashable, state: Any) -> bool:
        """Reset ``state`` in place and park it for the next acquire.

        Returns whether the state was kept; a full bucket or a failing
        reset discards it (a discarded state is simply garbage, exactly
        what would have happened without a pool).
        """
        bucket = self._free.get(key)
        if bucket is not None and len(bucket) >= self._max_per_key:
            self.discards += 1
            return False
        try:
            state.reset()
        except Exception:
            self.discards += 1
            return False
        if bucket is None:
            bucket = self._free[key] = []
        bucket.append(state)
        self._free.move_to_end(key)
        self._size += 1
        self.releases += 1
        while self._size > self._max_states:
            oldest_key = next(iter(self._free))
            oldest = self._free[oldest_key]
            oldest.pop()
            if not oldest:
                del self._free[oldest_key]
            self._size -= 1
            self.discards += 1
        return True

    def drop_plan(self, digest: str) -> int:
        """Drop every parked state of one plan (the cache-eviction hook).

        Keys lead with the plan digest, so an evicted plan's states cannot
        outlive it in the pool and alias a later recompilation.
        """
        dropped = 0
        for key in [k for k in self._free if k[0] == digest]:
            dropped += len(self._free.pop(key))
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        """Drop every parked state and reset the counters."""
        self._free.clear()
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.discards = 0

    def statistics(self) -> Dict[str, Any]:
        return {
            "plan_state_pool_size": self._size,
            "plan_state_pool_keys": len(self._free),
            "plan_state_pool_hits": self.hits,
            "plan_state_pool_misses": self.misses,
            "plan_state_pool_releases": self.releases,
            "plan_state_pool_discards": self.discards,
        }
