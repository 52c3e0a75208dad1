"""The repository benchmark: four seeded workloads, one closed-loop client.

Usage::

    python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 15 --trace 0

Workloads: ``fleet-churn``, ``long-streams``, ``batch-check``,
``sharded-fleet`` (see ``perfbench/README.md``); ``--workload all`` runs
each in turn and exits with the worst exit code.  A run repeats passes
over the seeded inputs for about ``--seconds``; each pass's outputs are
checked against reference verdicts after its timed window.  Timings
are taken per pass, divided by the pass's host-speed factor
(``hostspeed.py``), and reported as the median across the passes, so
the host's fast and slow phases do not move them.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` spends half the time
untraced and half with every layer wrapped, and reports the per-layer
breakdown.  The last line of standard
output is one JSON object; a readable table with sample counts precedes
it.  The exit code is 0 when every verdict matched, 1 on a mismatch, 2
when the program under test cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Bytecode goes to a private cache, never to the tracked ``__pycache__``
#: directories under ``src/``, so a run changes no tracked file.
BYTECODE = os.path.join(ROOT, ".bench_build", "pycache")

WORKLOADS = ("fleet-churn", "long-streams", "batch-check", "sharded-fleet")
SETUP_PROBES = 9


class Pass:
    """One pass over the inputs: per-request latencies in request order,
    the host-speed factor they ran at, the timed window's wall, the
    counts its outputs were checked into, and (traced) the per-layer
    values."""

    def __init__(self) -> None:
        self.latencies: Sequence[float] = ()
        self.factor = 1.0
        self.window_s = 0.0
        self.check: Dict[str, int] = {}
        self.layers: Dict[str, float] = {}


class Run:
    """Everything a workload hands to reporting."""

    def __init__(self, kinds: List[str], timed: range, request_kind: str,
                 states_per_pass: int) -> None:
        self.kinds = kinds
        self.timed = timed
        self.request_kind = request_kind
        self.states_per_pass = states_per_pass
        self.passes: List[Pass] = []
        self.traced: List[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.rss_mb = 0.0
        self.setup_samples: List[float] = []
        self.setup_scaled: List[float] = []
        self.totals: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}


def run_passes(budget_s: float, one_pass: Callable[[], Pass],
               between: Callable[[Pass], None] = lambda _: None) -> List[Pass]:
    """Passes until the budget is spent; a pass that would end more than
    half a pass past the budget is not started.  ``between`` runs after
    each pass, outside its window, and is handed that pass."""
    passes: List[Pass] = []
    started = time.perf_counter()
    elapsed = last = 0.0
    while not passes or elapsed + last / 2 < budget_s:
        passes.append(one_pass())
        between(passes[-1])
        last = time.perf_counter() - started - elapsed
        elapsed += last
    return passes


def measure(args, run: Run, tracer, one_pass: Callable[[bool], Pass]) -> None:
    """Untraced passes; with ``--trace 1``, then traced passes.

    Without tracing, one set-up probe follows each pass until there are
    ``SETUP_PROBES``, so the probes sample the host at different times.
    Each probe is scaled by the host-speed factor of the pass before it.
    """
    budget = args.seconds / 2 if args.trace else args.seconds

    def probe(after: Pass) -> None:
        if not args.trace and len(run.setup_samples) < SETUP_PROBES:
            measured = setup_seconds(args.workload)
            run.setup_samples.append(measured)
            run.setup_scaled.append(measured / after.factor)

    run.passes = run_passes(budget, lambda: one_pass(False), probe)
    while not args.trace and len(run.setup_samples) < SETUP_PROBES:
        probe(run.passes[-1])
    if args.trace:
        tracer.install()
        try:
            run.traced = run_passes(budget, lambda: one_pass(True))
        finally:
            tracer.uninstall()


def status_kib(field: str, pid: str = "self") -> int:
    """One ``kB`` field of ``/proc/<pid>/status``, such as ``VmRSS``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def inputs_resident(since_kib: int) -> int:
    """Freeze the inputs built since RSS read ``since_kib`` and return
    the KiB they keep resident; then restart this process's peak RSS
    count, so set-up transients do not count into it."""
    freeze_inputs()
    resident = max(0, status_kib("VmRSS") - since_kib)
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        # Without peak reset the peak also covers the input build.
        pass
    return resident


def peak_rss_mb(inputs_kib: int, worker_pids: List[int]) -> float:
    """Peak RSS of this process, less the benchmark's resident inputs,
    plus each shard worker's peak RSS, in MiB.  The workers fork before
    the inputs are built, so they hold none of them."""
    total_kib = status_kib("VmHWM") - inputs_kib
    total_kib += sum(status_kib("VmHWM", str(pid)) for pid in worker_pids)
    return total_kib / 1024.0


def setup_seconds(workload: str) -> float:
    """Set-up time measured in one fresh interpreter."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = BYTECODE
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    return float(done.stdout.strip().splitlines()[-1])


def freeze_inputs() -> None:
    """Move everything built so far, the inputs above all, out of the
    cyclic collector's reach: a service reads its rows off the wire, so
    scanning hundreds of thousands of resident input dicts on every full
    collection would be a cost of the benchmark, not of the program."""
    gc.collect()
    gc.freeze()


class Stopwatch:
    """Records how long an untimed stage (inputs, reference) took."""

    def __init__(self, into: Dict[str, float], name: str) -> None:
        self.into = into
        self.name = name

    def __enter__(self) -> None:
        self.started = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.into[self.name] = time.perf_counter() - self.started


# -- serve workloads ----------------------------------------------------------


def serve_workload(args, backend, drive, hostspeed, layers, workloads) -> Run:
    from repro.serve import protocol

    stages: Dict[str, float] = {}
    group = workloads.SHARD_GROUP if args.workload == "sharded-fleet" else 1
    # The service, and with it the shard workers, starts before any
    # input exists, so the workers inherit none of the inputs.
    service = backend.open_service(args.workload)
    worker_pids = [p.pid for p in multiprocessing.active_children()]
    base_kib = status_kib("VmRSS")
    with Stopwatch(stages, "input build s"):
        if args.workload == "long-streams":
            inputs = workloads.long_inputs(args.seed)
        else:
            inputs = workloads.fleet_inputs(args.seed, group=group)
    with Stopwatch(stages, "reference check s"):
        workloads.check_reference(inputs.contents)
    host = hostspeed.HostSpeed()
    inputs_kib = inputs_resident(base_kib)
    requests = inputs.before + inputs.timed + inputs.after
    start = len(inputs.before)
    run = Run(
        kinds=[kind for kind, _, _ in requests],
        timed=range(start, start + len(inputs.timed)),
        request_kind="batch" if group > 1 else "append",
        states_per_pass=inputs.states_per_pass,
    )
    expected = {stream.name: stream.content for stream in inputs.streams}
    sent = sum(frames for _, _, frames in requests)
    tracer = layers.LayerTracer()

    def one_pass(traced: bool) -> Pass:
        result = Pass()
        decoder = protocol.FrameDecoder()
        # The traced run compares traced with untraced windows, so
        # neither runs the host-speed kernel.
        sampler = None if args.trace else host
        host.reset()
        before, out_before = drive.serve(service, decoder, inputs.before, sampler)
        gc.collect()
        if traced:
            mark = tracer.mark()
            rebuilds = _rebuild_seconds(service)
        started = time.perf_counter()
        timed, out_timed = drive.serve(service, decoder, inputs.timed, sampler)
        result.window_s = time.perf_counter() - started
        if traced:
            result.layers = tracer.since(mark)
            result.layers["streams.snapshot_s"] = _rebuild_seconds(service) - rebuilds
        after, out_after = drive.serve(service, decoder, inputs.after, sampler)
        result.latencies = before + timed + after
        if sampler is not None:
            result.factor = host.factor()
        # Checked now, so no pass's responses outlive it.
        result.check = _verify_serve(
            _read_responses((out_before, out_timed, out_after)), expected, sent)
        return result

    measure(args, run, tracer, one_pass)
    run.rss_mb = peak_rss_mb(inputs_kib, worker_pids)
    cache = _service_cache(service)
    service.close()

    checks = [p.check for p in run.passes + run.traced]
    run.attempted = sent * len(checks)
    run.failed = sum(c["failed"] for c in checks)
    run.mismatches = sum(c["mismatches"] for c in checks)
    for p in run.traced:
        opens = p.check["opens"] or 1
        p.layers["streams.alerts"] = p.check["timed_alerts"]
        p.layers["compile.plan_hit_ratio"] = p.check["plan_hits"] / opens
        p.layers["compile.pool_hit_ratio"] = p.check["pool_hits"] / opens
    run.totals = {
        "session.plan_states_held": cache["plan_states"],
        "compile.plans_compiled": cache["plan_cache_misses"],
        "compile.compile_s": cache["plan_compile_time_s"],
    }
    streams = inputs.streams
    run.info = {
        "streams": len(streams),
        "distinct contents": len(inputs.contents),
        "faulty share": sum(s.content.faulty for s in streams) / len(streams),
        "states per stream": inputs.states_per_pass / len(streams),
        "formula opens": inputs.formula_opens,
        "alerts per pass": statistics.median(c["alerts"] for c in checks),
        "inputs resident MB": inputs_kib / 1024.0,
        **stages,
    }
    return run


def _rebuild_seconds(service) -> float:
    """Summed ``serve_snapshot_rebuild_seconds`` the service exports."""
    entry = service.metrics_snapshot().get("serve_snapshot_rebuild_seconds", {})
    return sum(series["sum"] for series in entry.get("series", []))


def _service_cache(service) -> Dict[str, float]:
    """Session cache statistics, summed over shard workers when sharded."""
    snapshot = service.service_snapshot()
    caches = [w["cache"] for w in snapshot.get("workers", [])] or [snapshot["cache"]]
    keys = ("plan_states", "plan_cache_misses", "plan_compile_time_s")
    return {key: sum(cache.get(key, 0) for cache in caches) for key in keys}


def _read_responses(phases) -> Dict[str, Any]:
    """Decode a pass's responses as the client reads them: counts by
    frame type, and every ``closed`` frame by stream."""
    counts: Dict[str, Any] = {"ok": 0, "errors": 0, "alerts": 0, "timed_alerts": 0,
                              "opens": 0, "plan_hits": 0, "pool_hits": 0}
    closed: Dict[str, Dict[str, Any]] = {}
    for phase, outputs in enumerate(phases):
        for out in outputs:
            for line in out.splitlines():
                frame = json.loads(line)
                if "error" in frame:
                    counts["errors"] += 1
                elif frame.get("event") == "alert":
                    counts["alerts"] += 1
                    counts["timed_alerts"] += phase == 1
                else:
                    counts["ok"] += 1
                    if frame["ok"] == "opened":
                        counts["opens"] += 1
                        counts["plan_hits"] += bool(frame["plan_from_cache"])
                        counts["pool_hits"] += bool(frame["state_from_pool"])
                    elif frame["ok"] == "closed":
                        closed[frame["stream"]] = frame
    counts["closed"] = closed
    return counts


def _verify_serve(counts: Dict[str, Any], expected, sent: int) -> Dict[str, Any]:
    """Compare every close verdict and length with the reference."""
    closed = counts["closed"]
    mismatches = 0
    for name, content in expected.items():
        frame = closed.get(name)
        if (
            frame is None
            or frame["verdicts"] != content.expected
            or frame["length"] != len(content.rows)
        ):
            mismatches += 1
            if mismatches <= 3:
                print(f"MISMATCH {name}: served {frame} expected "
                      f"{content.expected} over {len(content.rows)} states",
                      file=sys.stderr)
    refused = max(0, sent - counts["ok"] - counts["errors"])
    counts["failed"] = counts["errors"] + refused
    counts["mismatches"] = mismatches
    del counts["closed"]
    return counts


# -- batch workload -----------------------------------------------------------


def batch_workload(args, backend, drive, hostspeed, layers, workloads) -> Run:
    stages: Dict[str, float] = {}
    base_kib = status_kib("VmRSS")
    with Stopwatch(stages, "input build s"):
        inputs = workloads.batch_inputs(args.seed)
    with Stopwatch(stages, "reference check s"):
        workloads.check_reference(inputs.contents)
    host = hostspeed.HostSpeed()
    inputs_kib = inputs_resident(base_kib)
    items = inputs.items
    run = Run(
        kinds=["trace"] * len(items),
        timed=range(len(items)),
        request_kind="trace",
        states_per_pass=inputs.states_per_pass,
    )
    tracer = layers.LayerTracer()
    cache: Dict[str, Any] = {}

    def one_pass(traced: bool) -> Pass:
        result = Pass()
        gc.collect()
        context = backend.BatchContext()
        # The traced run compares traced with untraced windows, so
        # neither runs the host-speed kernel.
        sampler = None if args.trace else host
        host.reset()
        if traced:
            mark = tracer.mark()
        started = time.perf_counter()
        result.latencies, verdicts = drive.check_batch(context, items, sampler)
        result.window_s = time.perf_counter() - started
        if sampler is not None:
            result.factor = host.factor()
        if traced:
            result.layers = tracer.since(mark)
            metrics = context.session.metrics_snapshot()
            result.layers["compile.plan_hit_ratio"] = _hit_ratio(
                metrics, "repro_plan_requests_total")
            result.layers["compile.pool_hit_ratio"] = _hit_ratio(
                metrics, "repro_plan_state_pool_total")
            result.layers["streams.alerts"] = 0
            result.layers["streams.snapshot_s"] = 0.0
        cache.update(context.session.cache_statistics())
        result.check = {"mismatches": _verify_batch(items, verdicts)}
        return result

    measure(args, run, tracer, one_pass)
    run.rss_mb = peak_rss_mb(inputs_kib, [])

    run.mismatches = sum(p.check["mismatches"] for p in run.passes + run.traced)
    run.attempted = len(items) * len(run.passes + run.traced)
    run.totals = {
        "session.plan_states_held": cache["plan_states"],
        "compile.plans_compiled": cache["plan_cache_misses"],
        "compile.compile_s": cache["plan_compile_time_s"],
    }
    run.info = {
        "traces": len(items),
        "distinct contents": len(inputs.contents) + 1,
        "faulty share": sum(i.content.faulty for i in items) / len(items),
        "states per trace": inputs.states_per_pass / len(items),
        "inputs resident MB": inputs_kib / 1024.0,
        **stages,
    }
    return run


def _verify_batch(items, verdicts) -> int:
    """Compare every checked verdict with the reference; returns the
    number of traces that disagree."""
    mismatches = 0
    for item, got in zip(items, verdicts):
        if got != item.content.expected:
            mismatches += 1
            if mismatches <= 3:
                print(f"MISMATCH {item.content.family} trace of "
                      f"{len(item.content.rows)} states: checked {got} "
                      f"expected {item.content.expected}", file=sys.stderr)
    return mismatches


def _hit_ratio(snapshot, name) -> float:
    entry = snapshot.get(name, {})
    outcomes = {s["labels"][0]: s["value"] for s in entry.get("series", [])}
    requests = outcomes.get("hit", 0) + outcomes.get("miss", 0)
    return outcomes.get("hit", 0) / requests if requests else 0.0


# -- reporting ----------------------------------------------------------------


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(args, run: Run):
    passes = run.passes

    def timing(value: Callable[[Pass], float], scaled: bool = True) -> float:
        """``value`` of each pass, divided by the pass's host-speed
        factor (``hostspeed.py``) unless unscaled; the median across
        the passes."""
        return statistics.median(value(p) / (p.factor if scaled else 1.0) for p in passes)

    def busy(p: Pass) -> float:
        return sum(p.latencies[i] for i in run.timed)

    def quantile(kind: str, q: float) -> Callable[[Pass], float]:
        return lambda p: percentile(
            [latency for latency, k in zip(p.latencies, run.kinds) if k == kind], q)

    n_timed = len(run.timed) * len(passes)
    n_request = run.kinds.count(run.request_kind) * len(passes)
    setup = run.setup_scaled
    metrics = {
        "states_per_s": (run.states_per_pass / timing(busy), "1/s", n_timed),
        "request_p50_us": (timing(quantile(run.request_kind, 0.5)) * 1e6, "us", n_request),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (run.rss_mb, "MB", 1),
    }
    rows = [(name, value, unit, n) for name, (value, unit, n) in metrics.items()]
    rows += [
        ("measured states_per_s",
         run.states_per_pass / timing(busy, scaled=False), "1/s", n_timed),
        ("measured request_p50_us",
         timing(quantile(run.request_kind, 0.5), scaled=False) * 1e6, "us", n_request),
        ("measured setup_s", statistics.median(run.setup_samples), "s", len(setup)),
    ]
    # Every request kind's percentiles, scaled like the metrics.
    for kind in ("open", "append", "close", "batch", "trace"):
        count = run.kinds.count(kind) * len(passes)
        if count:
            for q in (0.5, 0.9, 0.99):
                rows.append((f"{kind}_p{round(q * 100)}_us",
                             timing(quantile(kind, q)) * 1e6, "us", count))
    rows.append(("error_rate", run.failed / run.attempted, "ratio", run.attempted))
    run.info["pass states_per_s"] = " ".join(
        f"{run.states_per_pass / busy(p):.0f}" for p in passes)
    run.info["pass host factors"] = " ".join(f"{p.factor:.3f}" for p in passes)
    run.info["setup_s samples"] = " ".join(f"{x:.3f}" for x in run.setup_samples)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"window {sum(p.window_s for p in passes):.2f} s  (timings: per pass, "
          f"scaled to the reference host speed, median of {len(passes)} passes; "
          f"measured rows unscaled)")
    print_table(run.info, rows)
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


#: Per-layer units; self times and everything unlisted are seconds per pass.
PER_LAYER_UNITS = {
    "protocol.bytes_in": "B",
    "protocol.bytes_out": "B",
    "protocol.states_materialized": "count",
    "worker.requests": "count",
    "compile.dispatch_calls": "count",
    "streams.alerts": "count",
    "session.plan_states_held": "count",
    "compile.plans_compiled": "count",
    "compile.plan_hit_ratio": "ratio",
    "compile.pool_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer(args, run: Run, self_time_metrics):
    traced = run.traced
    n = len(traced)
    values = {name: sum(p.layers[name] for p in traced) / n for name in traced[0].layers}
    wall = sum(p.window_s for p in traced) / n
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - sum(values[m] for m in self_time_metrics)
    values["trace.overhead_ratio"] = (
        statistics.median(p.window_s for p in traced)
        / statistics.median(p.window_s for p in run.passes)
    )
    values.update(run.totals)
    rows = [(name, value, PER_LAYER_UNITS.get(name, "s"), n)
            for name, value in sorted(values.items())]
    rows.append(("trace.unattributed_share", values["trace.unattributed_s"] / wall,
                 "ratio", n))
    print(f"workload {args.workload}  seed {args.seed}  traced passes {n}  "
          f"untraced passes {len(run.passes)}  (values per traced pass; self "
          f"times plus trace.unattributed_s make trace.wall_s)")
    print_table(run.info, rows)
    return {name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "s")}
            for name, value in values.items()}


def print_table(info: Dict[str, Any], rows) -> None:
    for key, value in info.items():
        print(f"  {key:28s} {value}")
    for name, value, unit, n in rows:
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One child process per workload, so each has its own peak RSS.
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for workload in WORKLOADS
        ]
        return max(codes)

    sys.pycache_prefix = BYTECODE
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import backend
    import drive
    import hostspeed
    import layers
    import workloads

    modules = (backend, drive, hostspeed, layers, workloads)
    if args.workload == "batch-check":
        run = batch_workload(args, *modules)
    else:
        run = serve_workload(args, *modules)
    if args.trace:
        metrics = per_layer(args, run, layers.SELF_TIME_METRICS)
    else:
        metrics = end_to_end(args, run)
    correct = run.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
