"""Chunked multiprocessing fan-out for large checking campaigns.

``Session.check_many`` hands a prepared request list here when asked for
worker processes.  The batch is split into contiguous chunks (preserving
order), each worker materializes its own :class:`~repro.api.session.Session`
and runs a chunk serially, and the results are re-concatenated in request
order.  Workers share nothing in memory; per-trace memo sharing still
happens within a chunk, so chunks should group requests over the same trace
— which is how the conformance runner lays them out.

Workers *do* share the parent session's persistent plan store: when the
session was built with ``plan_cache_dir=...`` the directory travels to
every worker session, and the parent precompiles each compiled-path plan
into it before the fan-out — so workers start **warm**, loading plans by
digest (``plan_disk_hits``) instead of recompiling per process.  Digests
are **alpha-invariant**: requests whose formulas differ only in
bound-variable names address one store entry, so a campaign sweeping
renamed variants of one specification compiles it once in the parent and
every worker warm-loads that single plan (``plan_alpha_interned`` counts
the collapsed variants).  Each worker's
cache statistics come back with its chunk and are exposed on
``Session.last_parallel_cache_stats``.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..semantics.trace import Trace
from .request import CheckRequest
from .result import CheckResult

__all__ = ["run_chunked", "split_chunks"]


def _prepare_columns(requests: Sequence[CheckRequest]) -> None:
    """Build each distinct trace's column store once before pickling.

    Traces pickle as their dictionary-encoded columns (never as
    materialized ``State`` rows), so forcing the build here means every
    chunk that shares a trace ships the same already-encoded payload and
    no worker pays the encoding pass again — the columns are the wire
    format, handed to workers as-is.
    """
    for request in requests:
        if isinstance(request.trace, Trace):
            request.trace.columns  # noqa: B018 — property builds once, then caches


def split_chunks(
    requests: Sequence[CheckRequest], chunk_count: int, chunk_size: Optional[int] = None
) -> List[List[CheckRequest]]:
    """Split ``requests`` into order-preserving chunks.

    Without an explicit ``chunk_size``, aims at one chunk per worker (never
    more chunks than requests).
    """
    total = len(requests)
    if chunk_size is None:
        chunk_size = max(1, (total + chunk_count - 1) // chunk_count)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    return [list(requests[i : i + chunk_size]) for i in range(0, total, chunk_size)]


def _run_chunk(
    payload: Tuple[List[CheckRequest], Optional[str]]
) -> Tuple[List[CheckResult], Dict[str, Any], Dict[str, Any]]:
    # A fresh session per worker: evaluator memo tables are shared within
    # the chunk, never across processes — but the persistent plan store
    # (when configured) is shared with the parent, so plans the parent
    # precompiled load from disk instead of recompiling per worker.  The
    # worker session carries its own child MetricsRegistry; its snapshot
    # rides home with the chunk and the parent merges it on join.
    from .session import Session

    requests, plan_cache_dir = payload
    session = Session(plan_cache_dir=plan_cache_dir)
    results = [session._run(request) for request in requests]
    return results, session.cache_statistics(), session.metrics.snapshot()


def run_chunked(
    requests: Sequence[CheckRequest],
    processes: int,
    chunk_size: Optional[int] = None,
    plan_cache_dir: Optional[str] = None,
    stats_sink: Optional[List[Dict[str, Any]]] = None,
    metrics_sink: Optional[List[Dict[str, Any]]] = None,
) -> List[CheckResult]:
    """Run ``requests`` over ``processes`` workers; results in request order.

    ``plan_cache_dir`` hands every worker session the persistent plan
    store; ``stats_sink`` (a list) collects one cache-statistics dict per
    worker chunk, in chunk order; ``metrics_sink`` likewise collects one
    :meth:`~repro.obs.MetricsRegistry.snapshot` per chunk, ready for
    ``merge_snapshot`` into the parent registry.
    """
    chunks = split_chunks(requests, processes, chunk_size)
    if len(chunks) <= 1:
        results, stats, metrics = _run_chunk((list(requests), plan_cache_dir))
        if stats_sink is not None:
            stats_sink.append(stats)
        if metrics_sink is not None:
            metrics_sink.append(metrics)
        return results
    _prepare_columns(requests)
    context = multiprocessing.get_context()
    with context.Pool(processes=min(processes, len(chunks))) as pool:
        chunk_results = pool.map(
            _run_chunk, [(chunk, plan_cache_dir) for chunk in chunks]
        )
    if stats_sink is not None:
        stats_sink.extend(stats for _, stats, _ in chunk_results)
    if metrics_sink is not None:
        metrics_sink.extend(metrics for _, _, metrics in chunk_results)
    return [result for results, _, _ in chunk_results for result in results]
