"""Observability overhead gate: instrumented vs uninstrumented serve path.

The :mod:`repro.obs` wiring records every check, batch, alert and step
cost on the serving hot path.  That instrumentation is only acceptable if
it is invisible in the throughput numbers, so this gate ingests the same
wire twice through the **real** protocol path (encoded frames ->
:class:`FrameDecoder` -> registry dispatch):

* **instrumented** — a default :class:`~repro.api.session.Session`, whose
  registry and tracer record everything (the production configuration);
* **baseline** — the same session wired to :data:`~repro.obs.NULL_METRICS`
  and :data:`~repro.obs.NULL_TRACER`, so every instrument call is a no-op
  and the recording work vanishes.

Two assertions:

* the instrumented run still clears the absolute serve floor
  (``BENCH_OBS_FLOOR``, default the 50,000 st/s the serve series gates),
  with every stream's final verdicts identical to one-shot
  ``Session.check_spec`` — instrumentation must not change answers;
* instrumented throughput stays within the overhead budget of the
  baseline: throughput retention ``>= BENCH_OBS_MAX_OVERHEAD`` (default
  0.90; the nightly multi-core runner can pin 0.95).

Retention is the **median of per-round paired ratios**: every round
ingests the wire in both modes, back to back chunk by chunk with the
order alternating, and contributes one ratio ``baseline_s /
instrumented_s``.  A pair shares the host's state of the moment, so a
slow phase of a shared runner moves both halves of it; a ratio of two
best-of-N walls, the old shape, took each mode's luckiest round from
different moments and read 0.64 in one run and 1.17 in the next on
unchanged code.  The absolute floor judges the best instrumented round.

Records the ``obs-overhead-v1`` row in ``BENCH_obs.json`` (with
``BENCH_RECORD=1``): both modes' best states/second, the retention and
its per-round ratios, and the metrics the instrumented run accumulated
(states ingested per the registry must equal states sent — the gate
doubles as an accounting check).
"""

import os
import statistics
import time

from repro.api.session import Session
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.serve.protocol import FrameDecoder, decode_frame, encode_frame
from repro.serve.streams import StreamRegistry

from bench_serve import (
    BATCH,
    STREAMS,
    assert_fleet_parity,
    build_fleet,
    interleaved_append_frames,
)
from trajectory import record_point

FLOOR = float(os.environ.get("BENCH_OBS_FLOOR", "50000"))
MAX_OVERHEAD = float(os.environ.get("BENCH_OBS_MAX_OVERHEAD", "0.90"))
#: Paired rounds behind the retention median.
ROUNDS = 7

SERIES_FILE = "BENCH_obs.json"


def make_session(instrumented):
    if instrumented:
        return Session()
    return Session(metrics=NULL_METRICS, tracer=NULL_TRACER)


#: Wire bytes fed per step; the two modes alternate at this grain.
CHUNK = 64 * 1024


def open_registry(fleet, instrumented):
    """A fresh registry with every stream of the fleet opened."""
    registry = StreamRegistry(session=make_session(instrumented))
    for script, _ in fleet:
        (response,) = registry.handle(
            {"op": "open", "stream": script.stream, "spec": script.spec}
        )
        assert response.get("ok") == "opened", response
    return registry


def ingest_round(fleet, wire, round_index):
    """One paired round: both modes ingest the whole wire into fresh
    registries, alternating chunk by chunk and swapping which mode goes
    first each chunk, so a slow phase of the host lands on both.  Returns
    each mode's summed time and the instrumented registry."""
    registries = {mode: open_registry(fleet, mode) for mode in (False, True)}
    decoders = {mode: FrameDecoder() for mode in (False, True)}
    spent = {False: 0.0, True: 0.0}
    for step, offset in enumerate(range(0, len(wire), CHUNK)):
        chunk = wire[offset:offset + CHUNK]
        for mode in (False, True) if (step + round_index) % 2 == 0 else (True, False):
            started = time.perf_counter()
            for line in decoders[mode].feed(chunk):
                registries[mode].handle(decode_frame(line))
            spent[mode] += time.perf_counter() - started
    return spent, registries[True]


def ingest_paired(fleet, wire):
    """``ROUNDS`` paired rounds after one unrecorded warm-up round (the
    first rounds of a process read slow for the instrumented mode).

    Returns ``(base_s, inst_s, ratios, registry)``: each mode's best
    round, the per-round ``baseline / instrumented`` ratios, and the best
    instrumented round's registry (it carries the fleet for the
    parity/accounting checks).
    """
    best = {False: None, True: None}
    ratios = []
    inst_registry = None
    ingest_round(fleet, wire, 0)
    for round_index in range(ROUNDS):
        spent, registry = ingest_round(fleet, wire, round_index)
        for mode in (False, True):
            if best[mode] is None or spent[mode] < best[mode]:
                best[mode] = spent[mode]
                if mode:
                    inst_registry = registry
        ratios.append(spent[False] / spent[True])
    return best[False], best[True], ratios, inst_registry


def test_instrumentation_overhead(benchmark):
    """Instrumented serve throughput within budget of the NULL baseline."""
    fleet = build_fleet(STREAMS)
    total_states = sum(len(rows) for _, rows in fleet)
    frames = interleaved_append_frames(fleet, BATCH)
    wire = b"".join(encode_frame(frame) for frame in frames)

    def sweep():
        base_s, inst_s, ratios, registry = ingest_paired(fleet, wire)

        snapshot = registry.metrics_snapshot()
        recorded = sum(
            row.get("value", 0)
            for row in snapshot.get("serve_states_ingested_total", {}).get(
                "series", ()
            )
        )
        # The registry's own accounting must agree with what was sent.
        assert recorded == total_states, (recorded, total_states)

        row = {
            "streams": len(fleet),
            "states": total_states,
            "batch": BATCH,
            "rounds": ROUNDS,
            "baseline_states_per_second": round(total_states / base_s),
            "instrumented_states_per_second": round(total_states / inst_s),
            "throughput_retention": round(statistics.median(ratios), 4),
            "round_ratios": [round(ratio, 4) for ratio in ratios],
            "retention_gate": MAX_OVERHEAD,
        }
        # Verdict parity in-gate: instrumentation cannot change answers.
        assert_fleet_parity(registry, fleet)
        row["parity_streams"] = len(fleet)
        return row

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print(row)

    assert row["instrumented_states_per_second"] >= FLOOR, row
    assert row["throughput_retention"] >= MAX_OVERHEAD, row
    record_point(SERIES_FILE, "obs-overhead-v1", row)
