"""The session-level compiled-plan cache.

Plans are trace-independent, so one compilation serves every trace, every
``check_many`` batch and every monitoring session that asks the same
question.  The cache holds both single-formula :class:`CompiledPlan`\\ s and
multi-root :class:`~repro.compile.specplan.SpecPlan`\\ s in one **bounded
LRU**: entries key on the content digest (formula or spec digest plus the
names carrying explicit quantification domains), lookups refresh recency,
and inserts beyond ``max_plans`` evict the least recently used plan —
long-lived sessions churning through unbounded formula streams stay
bounded without manual ``clear_caches`` calls.  Hit/miss/eviction and
compile-time counters are reported by the ``compiled`` engine on every
:class:`~repro.api.result.CheckResult`; :meth:`PlanCache.clear` drops the
plans *and* resets the counters, so cache statistics always describe the
current cache generation.

Plans are also **digest-addressed on disk**: give the cache a directory
(``disk_path=...``, or the ``REPRO_PLAN_CACHE`` environment variable, which
worker processes inherit) and every compiled plan is pickled to
``<dir>/<digest>.plan`` with an atomic rename, while in-memory misses try
the directory before compiling.  This is what lets ``check_many
--processes`` workers and :mod:`repro.serve` shard workers start *warm*:
the parent (or a previous run) compiles each plan once and every worker
loads it instead of recompiling per process.  The store is best-effort —
corrupt, truncated or version-skewed files read as misses and are
rewritten — and the pickled payload is format-stamped so plan-layout
changes invalidate old entries instead of resurrecting them.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..syntax.formulas import Formula
from .plan import CompiledPlan, formula_digest
from .specplan import SpecPlan, spec_digest

__all__ = ["PlanCache", "DiskPlanStore", "DEFAULT_MAX_PLANS", "PLAN_FORMAT"]

#: Environment variable naming the default on-disk plan-cache directory.
#: Inherited by worker processes, so setting it once warms every fan-out.
PLAN_CACHE_ENV = "REPRO_PLAN_CACHE"

#: Bump when the pickled plan layout changes incompatibly — stale files
#: then read as misses (and are overwritten) instead of loading garbage.
#: Format 2: every plan's digest hashes what it compiled, and spec plans
#: always carry ``canonical_sources``.
PLAN_FORMAT = 2


class DiskPlanStore:
    """A digest-addressed directory of pickled plans.

    Writes are atomic (temp file + ``os.replace``) so concurrent workers
    racing on the same digest each leave a complete file; reads treat any
    unreadable, truncated or format-skewed entry as a miss.  All I/O
    errors are swallowed — a broken cache directory degrades to cold
    compilation, never to a failed check.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)

    def _file(self, digest: str) -> str:
        return os.path.join(self.path, f"{digest}.plan")

    def load(self, digest: str) -> Optional[Any]:
        try:
            with open(self._file(digest), "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            return None
        if not isinstance(payload, tuple) or len(payload) != 2:
            return None
        fmt, plan = payload
        if fmt != PLAN_FORMAT:
            return None
        return plan

    def store(self, digest: str, plan: Any) -> bool:
        target = self._file(digest)
        tmp = f"{target}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump((PLAN_FORMAT, plan), handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, target)
        except (OSError, pickle.PickleError, TypeError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.path) if name.endswith(".plan"))
        except OSError:
            return 0


#: Default LRU capacity: generous for any hand-written campaign, small
#: enough that a fuzzing session streaming random formulas stays bounded.
DEFAULT_MAX_PLANS = 256


class PlanCache:
    """Digest-keyed bounded LRU of compiled plans (single- and multi-root).

    Parameters
    ----------
    max_plans:
        LRU capacity; inserting beyond it evicts the least recently used
        entry.  ``None`` disables eviction (the pre-LRU behaviour).
    on_evict:
        Called with each evicted digest — the session uses this to drop the
        plan states bound to an evicted plan.
    disk_path:
        Directory of the digest-addressed persistent store.  Defaults to
        the ``REPRO_PLAN_CACHE`` environment variable (fresh worker
        processes inherit it, so fan-outs start warm); pass ``False`` to
        force a purely in-memory cache even when the variable is set.
    """

    def __init__(
        self,
        max_plans: Optional[int] = DEFAULT_MAX_PLANS,
        on_evict: Optional[Callable[[str], None]] = None,
        disk_path: Any = None,
    ) -> None:
        if max_plans is not None and max_plans < 1:
            raise ValueError(f"max_plans must be at least 1, got {max_plans}")
        self._plans: "OrderedDict[str, Any]" = OrderedDict()
        self._max_plans = max_plans
        self._on_evict = on_evict
        if disk_path is None:
            disk_path = os.environ.get(PLAN_CACHE_ENV) or False
        self._disk: Optional[DiskPlanStore] = None
        if disk_path:
            try:
                self._disk = DiskPlanStore(disk_path)
            except OSError:
                self._disk = None  # unusable directory: stay in-memory
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.compile_time_s = 0.0
        self.alpha_interned = 0

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def max_plans(self) -> Optional[int]:
        return self._max_plans

    @property
    def disk_path(self) -> Optional[str]:
        return self._disk.path if self._disk is not None else None

    # -- the LRU core --------------------------------------------------------

    def _lookup(self, digest: str) -> Optional[Any]:
        plan = self._plans.get(digest)
        if plan is not None:
            self._plans.move_to_end(digest)
            self.hits += 1
        else:
            self.misses += 1
        return plan

    def _store(self, digest: str, plan: Any) -> None:
        self._plans[digest] = plan
        self._plans.move_to_end(digest)
        if self._max_plans is None:
            return
        while len(self._plans) > self._max_plans:
            evicted, _ = self._plans.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted)

    @staticmethod
    def _domain_shape(domain: Optional[Mapping[str, Iterable[Any]]]) -> Tuple[str, ...]:
        return tuple(sorted(domain)) if domain else ()

    # -- plans ---------------------------------------------------------------

    def get(
        self,
        formula: Formula,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Tuple[CompiledPlan, bool]:
        """The cached plan for ``formula`` (compiling on miss).

        Returns ``(plan, from_cache)``.
        """
        shape = self._domain_shape(domain)
        return self._resolve(
            formula_digest(formula, domain_shape=shape),
            CompiledPlan,
            lambda plan: plan.source != formula,
            lambda: CompiledPlan(formula, domain_shape=shape),
        )

    def get_spec(
        self,
        items: Sequence[Tuple[str, Formula]],
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Tuple[SpecPlan, bool]:
        """The cached multi-root plan for ``(clause name, formula)`` pairs.

        Returns ``(spec_plan, from_cache)``; keyed by the spec digest plus
        domain shape, in the same LRU as single-formula plans.
        """
        items = tuple((name, formula) for name, formula in items)
        shape = self._domain_shape(domain)
        return self._resolve(
            spec_digest(items, domain_shape=shape),
            SpecPlan,
            lambda plan: plan.sources != items,
            lambda: SpecPlan(items, domain_shape=shape),
        )

    def _resolve(
        self,
        digest: str,
        expected_type: type,
        renamed: Callable[[Any], bool],
        compile_plan: Callable[[], Any],
    ) -> Tuple[Any, bool]:
        """Memory, then disk, then a fresh compilation for ``digest``.

        ``renamed(plan)`` tells whether a cached plan was compiled from an
        alpha-equivalent (renamed) source rather than this one.
        """
        plan = self._lookup(digest)
        if plan is None:
            plan = self._disk_load(digest, expected_type)
            if plan is not None:
                self._store(digest, plan)
        if plan is not None:
            if renamed(plan):
                self.alpha_interned += 1
            return plan, True
        started = time.perf_counter()
        plan = compile_plan()
        self.compile_time_s += time.perf_counter() - started
        self._store(digest, plan)
        self._disk_store(digest, plan)
        return plan, False

    # -- the persistent layer -------------------------------------------------

    def _disk_load(self, digest: str, expected_type: type) -> Optional[Any]:
        if self._disk is None:
            return None
        plan = self._disk.load(digest)
        if not isinstance(plan, expected_type) or plan.digest != digest:
            return None  # hash-named file holding something else: miss
        self.disk_hits += 1
        return plan

    def _disk_store(self, digest: str, plan: Any) -> None:
        if self._disk is not None and self._disk.store(digest, plan):
            self.disk_writes += 1

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Drop every in-memory plan and reset the statistics counters.

        The on-disk store is *not* purged — persistence across
        processes/runs is its purpose; delete the directory to cold-start.
        """
        self._plans.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.compile_time_s = 0.0
        self.alpha_interned = 0

    def statistics(self) -> Dict[str, Any]:
        """Counters reported on compiled-engine results."""
        stats = {
            "plan_cache_size": len(self._plans),
            "plan_cache_capacity": self._max_plans,
            "plan_cache_hits": self.hits,
            "plan_cache_misses": self.misses,
            "plan_cache_evictions": self.evictions,
            "plan_compile_time_s": self.compile_time_s,
            "plan_alpha_interned": self.alpha_interned,
        }
        if self._disk is not None:
            stats["plan_cache_dir"] = self._disk.path
            stats["plan_disk_hits"] = self.disk_hits
            stats["plan_disk_writes"] = self.disk_writes
        return stats
