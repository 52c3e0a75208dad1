"""Set-up time of one workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload>``.  Times ``import
repro`` through the construction of the workload's service (shard
workers included) or checking session and one warm-up compile per spec
family, prints the seconds as one JSON number, then tears down.  Only
``backend.py`` is imported, which imports the program's entry points and
none of the benchmark's input generators.
"""

import time

started = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro  # noqa: E402,F401
import backend  # noqa: E402


def main() -> int:
    workload = sys.argv[1]
    if workload == "batch-check":
        backend.BatchContext()
        service = None
    else:
        service = backend.open_service(workload)
    elapsed = time.perf_counter() - started
    if service is not None:
        service.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
