"""One benchmark process: run a robinlab CLI call repeatedly and time it.

Started by run.py in a fresh interpreter, so peak RSS belongs to this one
workload.  Reads a JSON job from argv[1] and prints one JSON line:

    {"calls": [{"wall_s", "host_s", "probe_s", "probes", "rc", "out", "error"}...],
     "peak_rss_mb": ..., "layers": [per-layer metrics of each traced call],
     "spans": [...]}

A call is timed from argument parsing to the rendered table, with stdout
and stderr captured.  A short warm-up call first finishes lazy imports.
The host-speed probe (calibrate.py) runs during every call: ``wall_s`` is
the measured wall time, probes included, and ``host_s`` the wall time
without the probes, at the reference host speed.
Calls repeat while the next one is expected to end within the time
budget, and at least ``min_calls`` run unless that would take more than
OVERRUN times the budget.  Peak RSS is read after the first call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibrate
from tracer import Tracer

OVERRUN = 1.15


def call_cli(argv, probe):
    import robinlab.cli
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    probe.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = robinlab.cli.cli_main(list(argv))
    except Exception as exc:  # a crash is a failed call, reported, not fatal
        rc, error = None, f"{type(exc).__name__}: {exc}"
    probe_s, probes = probe.stop()
    wall = time.perf_counter() - start
    probe_mean = probe_s / probes if probes else calibrate.timed_kernel()
    return {"wall_s": wall, "host_s": calibrate.reference_seconds(wall - probe_s, probe_mean),
            "probe_s": probe_s, "probes": probes, "rc": rc, "out": out.getvalue(), "error": error}


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "machine": platform.machine(),
    }


def main():
    job = json.loads(sys.argv[1])
    probe = calibrate.HostProbe()
    tracer = None
    if job["trace"]:
        tracer = Tracer(probe.clock_ns)
        tracer.install()
    call_cli(job["warmup"], probe)
    calls, layers = [], []
    budget = job["seconds"]
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        calls.append(call_cli(job["argv"], probe))
        if tracer is not None:
            layers.append(tracer.metrics(job["splits"]))
        calls[-1]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        expected_end = elapsed + statistics.median(c["wall_s"] for c in calls)
        if expected_end > budget and (len(calls) >= job["min_calls"]
                                      or expected_end > OVERRUN * budget):
            break
    result = {
        "calls": calls,
        # A CLI process makes one call; later calls only add heap fragmentation,
        # and how many run depends on the machine's speed.
        "peak_rss_mb": calls[0]["peak_rss_mb"],
        "layers": layers,
        "spans": tracer.spans if tracer is not None else [],
        "env": environment(),
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
