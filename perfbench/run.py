"""robinlab benchmark: the time to a correct table, per CLI workload.

    python3 perfbench/run.py --workload rate_sweep --seed 0 --seconds 24 --trace 0

Run from the repository root.  The workloads, metrics and units are listed
in BENCHMARK.json; perfbench/README.md says which layer metric should move
which end-to-end metric on which workload.

Each run builds the workload's argv from the seed, then

- times ``SETUP_SAMPLES`` fresh interpreters from their start to having
  imported ``robinlab.cli`` (setup_s, the median);
- starts one fresh worker process that calls ``robinlab.cli.cli_main(argv)``
  repeatedly for ``--seconds`` (wall_s is the median call, peak_rss_mb the
  worker's peak resident memory after its first call, which is what a CLI
  process uses);
- reports both times at a reference host speed: a fixed kernel
  (calibrate.py) is timed every 80 ms during each call, and the call's
  time without the probes is scaled by the reference probe time over the
  mean probe time measured with it, so the host's drifting speed cancels
  out; setup_s is scaled by the median of the calls' factors;
- checks every table cell of every call (check.py); ops_passed_frac is the
  share of checked cells that passed.

With ``--trace 1`` the run instead splits ``--seconds`` between an untraced
worker and a traced one (tracer.py) and reports the per-layer metrics and
trace_overhead_frac, the traced over the untraced median call, minus 1.

The worker processes see PYTHONPATH=src and BLAS/OpenMP thread pools capped
at the CPUs this process may use.  Stdout ends with one JSON line; the full
result, with versions, BLAS, CPU count, seed, argv and (traced) the spans
of the last call, goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

from check import check_call

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULTS = os.path.join(ROOT, ".perfbench_results")

# name: (subcommand, seed-0 meshes, damping values per row, expected exit code)
WORKLOADS = {
    "mesh_refine": ("table1", (36, 72, 108, 144), 1, 0),
    "rate_sweep": ("table2", (36, 72), 7, 0),
    "dn_baseline": ("table3", (18, 36, 54), 8, 3),  # theta = 0 never converges
    "trace_operator": ("operator", (8, 16, 24), 1, 0),
}
MAX_ITER = 2000
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BALANCE_RTOL = 0.01  # see mesh_list
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def mesh_list(base, seed):
    """Seed 0 gives the base meshes.  Any other seed adds an offset in 0..3
    to each n.  The offsets are drawn among the vectors whose work proxy
    sum(n^2) (unknowns per strip) lies within BALANCE_RTOL of that of
    shifting every mesh by 1.5, so a seed changes the meshes the program
    sees but hardly the work a run times, and runs on different seeds stay
    comparable."""
    if seed == 0:
        return tuple(base)

    def work(offsets):
        return sum((n + o) ** 2 for n, o in zip(base, offsets))

    target = work([1.5] * len(base))
    candidates = [offsets for offsets in itertools.product(range(4), repeat=len(base))
                  if abs(work(offsets) - target) <= BALANCE_RTOL * target]
    offsets = random.Random(seed).choice(candidates)
    return tuple(n + o for n, o in zip(base, offsets))


def workload_argv(name, seed):
    command, base, _, _ = WORKLOADS[name]
    n_list = mesh_list(base, seed)
    return [command, "--n", ",".join(map(str, n_list))], n_list


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cpus = str(len(os.sched_getaffinity(0)))
    env.update({var: cpus for var in THREAD_VARS})
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark run exceeded its deadline")
    return left


# The child reads the clock once robinlab.cli is imported.  Timing it from
# here would add up to 50 ms: subprocess polls a child it waits on with a
# timeout at that interval.  CLOCK_MONOTONIC is one clock for all processes.
IMPORT_AND_CLOCK = ("import robinlab.cli, time; "
                    "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def measure_setup(env, deadline):
    """Times from starting a fresh interpreter to its having imported robinlab.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", IMPORT_AND_CLOCK], env=env, check=True,
                              capture_output=True, text=True, timeout=remaining(deadline))
        samples.append(float(proc.stdout) - start)
    return samples


def run_worker(job, env, deadline):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=remaining(deadline))
    return json.loads(proc.stdout.splitlines()[-1])


def check_calls(name, seed, n_list, calls):
    command, _, n_thetas, expected_rc = WORKLOADS[name]
    reference = None
    if seed == 0:
        with open(os.path.join(HERE, "reference", f"{name}.csv")) as fh:
            reference = fh.read()
    checked = failed = 0
    messages = []
    for call in calls:
        c, f, message = check_call(command, n_list, n_thetas, MAX_ITER, call, expected_rc,
                                   reference)
        checked += c
        failed += f
        if message:
            messages.append(message)
    return checked, failed, messages


def measure(name, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "robinlab", "cli.py")):
        raise FileNotFoundError("run from the repository root: src/robinlab/cli.py is missing")
    deadline = time.monotonic() + DEADLINE_S
    argv, n_list = workload_argv(name, seed)
    warmup = [argv[0], "--n", "2"]
    splits = 2 * len(n_list) if argv[0] == "operator" else 0
    env = child_env()
    job = {"argv": argv, "warmup": warmup, "seconds": seconds, "trace": False,
           "splits": splits, "min_calls": 3}
    result = {"workload": name, "seed": seed, "argv": argv, "trace": trace,
              "seconds": seconds}
    if not trace:
        setup = measure_setup(env, deadline)
        run = run_worker(job, env, deadline)
        runs = [run]
    else:
        half = dict(job, seconds=seconds / 2.0, min_calls=1)
        untraced = run_worker(half, env, deadline)
        run = run_worker(dict(half, trace=True), env, deadline)
        runs = [untraced, run]
    calls = [c for r in runs for c in r["calls"]]
    checked, failed, messages = check_calls(name, seed, n_list, calls)
    raw_walls = [c["wall_s"] for c in run["calls"]]
    walls = [c["host_s"] for c in run["calls"]]
    result.update(env=run["env"], ops=checked, ops_failed=failed,
                  ops_failed_frac=failed / checked, check_messages=messages,
                  wall_samples_s=walls, raw_wall_samples_s=raw_walls,
                  probes=[c["probes"] for c in run["calls"]],
                  probe_s=[c["probe_s"] for c in run["calls"]],
                  exit_codes=[c["rc"] for c in calls])
    if not trace:
        # The imports ran in other processes, where no probe can run; they
        # are scaled by the host speed the worker's probes measured next.
        speed = statistics.median(c["host_s"] / (c["wall_s"] - c["probe_s"])
                                  for c in run["calls"])
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": run["peak_rss_mb"],
            "ops_passed_frac": 1.0 - failed / checked,
        }
        result.update(raw_wall_s=statistics.median(raw_walls), raw_setup_s=statistics.median(setup),
                      setup_samples_s=setup)
    else:
        layers = run["layers"]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        untraced_wall = statistics.median(c["host_s"] for c in untraced["calls"])
        metrics["trace_overhead_frac"] = statistics.median(walls) / untraced_wall - 1.0
        result["metrics"] = metrics
        result["untraced_wall_samples_s"] = [c["host_s"] for c in untraced["calls"]]
        result["spans"] = run["spans"]
    return result


def load_metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(result, specs):
    """Human-readable lines, then the one-line JSON result (last line)."""
    print(f"robinlab benchmark  workload={result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} argv={' '.join(result['argv'])!r}")
    walls = result["wall_samples_s"]
    raw = result["raw_wall_samples_s"]
    print(f"  calls timed: {len(walls)} ({min(walls):.4f} .. {max(walls):.4f} s at reference "
          f"host speed; {min(raw):.4f} .. {max(raw):.4f} s measured with "
          f"{sum(result['probes'])} probes)")
    print(f"  ops checked: {result['ops']}; ops_failed_frac: {result['ops_failed_frac']:g}")
    for message in result["check_messages"][:5]:
        print(f"  check failed: {message}")
    metrics = {}
    for spec in specs:
        value = result["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:48s} {value:>16.6g} {spec['unit']}")
    summary = {"correct": result["ops_failed"] == 0, "attempted": result["ops"],
               "failed": result["ops_failed"], "metrics": metrics}
    print(json.dumps(summary))


def save(result):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{result['workload']}_seed{result['seed']}"
                                 f"_trace{int(result['trace'])}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        specs = load_metric_specs(args.trace)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        print(f"perfbench: {exc}\n{detail}", file=sys.stderr)
        return 1
    save(result)
    report(result, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
