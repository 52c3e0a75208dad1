"""The timed loops: one closed-loop client each.

The serve loop is the socket front end's per-read path without the
socket: request bytes go through ``FrameDecoder.feed`` and
``decode_frame`` into ``MonitorService.handle_batch``, and every response
comes back through ``encode_frame`` before the next request is sent.  The
batch loop turns each recorded trace's wire rows into verdicts through
``rows_to_states``, ``Trace`` and ``Session.check_spec`` / ``Session.check``.

Entry points are looked up on their modules at call time, so the traced
run's wrappers (``layers.py``) see every call.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from repro.semantics import trace as trace_module
from repro.serve import protocol
from repro.serve.service import MonitorService

import workloads
from backend import BatchContext


def serve(
    service: MonitorService,
    decoder: protocol.FrameDecoder,
    requests: List[Tuple[str, bytes, int]],
    host: Optional[HostSpeed] = None,
) -> Tuple[array, List[bytes]]:
    """Send each request, wait for its encoded responses; returns
    ``(latencies_s, response_bytes)`` in request order.  With a ``host``,
    the host-speed kernel runs between requests (``HostSpeed.tick``)."""
    clock = time.perf_counter
    latencies = array("d")
    outputs: List[bytes] = []
    for _, data, _ in requests:
        if host is not None:
            host.tick()
        started = clock()
        lines = decoder.feed(data)
        frames: List[Dict[str, Any]] = []
        responses: List[Dict[str, Any]] = []
        for line in lines:
            try:
                frames.append(protocol.decode_frame(line))
            except protocol.ProtocolError as exc:
                if frames:
                    responses.extend(service.handle_batch(frames))
                    frames = []
                responses.append(exc.to_frame())
        if frames:
            responses.extend(service.handle_batch(frames))
        out = b"".join([protocol.encode_frame(response) for response in responses])
        latencies.append(clock() - started)
        outputs.append(out)
    return latencies, outputs


def check_batch(
    context: BatchContext,
    items: List[workloads.BatchItem],
    host: Optional[HostSpeed] = None,
) -> Tuple[array, List[Dict[str, Optional[bool]]]]:
    """Rows to verdicts for every item; returns ``(latencies_s,
    verdicts)``; ``host`` as in ``serve``."""
    clock = time.perf_counter
    session = context.session
    latencies = array("d")
    verdicts: List[Dict[str, Optional[bool]]] = []
    for item in items:
        if host is not None:
            host.tick()
        started = clock()
        states = protocol.rows_to_states(item.content.rows)
        trace = trace_module.Trace(states, loop_start=item.loop_start)
        if item.loop_start is None:
            result = session.check_spec(context.specs[item.content.family], trace)
            got = workloads.verdict_map(result)
        else:
            got = {
                text: session.check(formula, trace=trace).verdict
                for text, formula in context.formulas
            }
        latencies.append(clock() - started)
        verdicts.append(got)
    return latencies, verdicts
