"""Append-only benchmark trajectories in the ``BENCH_*.json`` files.

A gate's numbers are recorded only on request (``BENCH_RECORD=1``), so a
plain benchmark run leaves the working tree clean.  A recorded point is
appended, never overwritten: each entry carries its label, the commit it
measured and a fingerprint of the host, so the series keeps its history
and numbers from different runners stay distinguishable.
"""

import json
import os
import platform
import subprocess

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def host_fingerprint():
    """What a number depends on besides the code: machine, cores, Python."""
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def current_commit():
    """The checked-out commit (``None`` outside a git checkout)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def record_point(filename, label, row):
    """Append ``row`` under ``label`` to ``filename`` at the repository root
    when ``BENCH_RECORD=1``; otherwise do nothing."""
    if os.environ.get("BENCH_RECORD") != "1":
        return
    path = os.path.join(ROOT, filename)
    series = []
    if os.path.exists(path):
        with open(path) as handle:
            series = json.load(handle)
    series.append({
        "label": label,
        "commit": current_commit(),
        "host": host_fingerprint(),
        **row,
    })
    with open(path, "w") as handle:
        json.dump(series, handle, indent=2, sort_keys=True)
        handle.write("\n")
