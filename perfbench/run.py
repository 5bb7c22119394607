"""Benchmark of the genpol library: the learn, verify and run workloads.

Run from the repository root:

    python3 perfbench/run.py --workload learn|verify|run --seed N \\
        --seconds S --trace 0|1

One process drives the library directly (no CLI, no worker threads or
processes).  The load is a closed loop of passes: each pass starts when the
previous one has been checked, and no pass is started that would, at the
last pass's pace, end after `--seconds`.  Every output is checked; a pass
with a failed check or an exception counts as failed.

On a shared host the process's speed swings by half within seconds, so the
JSON metrics read times at reference speed (see speed.py): `pass_ref` is the
median pass time in reference units, and `setup_s` is the set-up time (import,
input generation, policy parsing, warm-up; median of SETUP_REPEATS, import
once) in seconds at reference speed.  `peak_rss_mb` is the peak resident set
up to the end of the first pass.

`--trace 0` prints those end-to-end metrics.  `--trace 1` alternates untraced
and traced passes, prints the per-layer metrics of the traced ones (medians
over traced passes; 0 for a layer the workload does not run) and the tracing
overhead, and writes the spans to `perfbench/out/`.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are the environment and every metric by the
name used for its workload, with its unit, times as timed included.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Workload -> (name of the pass time, output field summed into a throughput,
# throughput name); names follow the workload so the report reads naturally.
NAMES = {
    "learn": ("learn_s", None, None),
    "verify": ("verify_s", "states", "verify_states_per_s"),
    "run": ("run_s", "steps", "run_steps_per_s"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu_model(), "nproc": nproc, "seed": seed,
            "commit": git_commit(), "processes": 1, "worker_threads": 0}


def tail(samples: list):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it, or None when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class PassResult:
    seconds: float = 0.0  # time spent in the cases
    refs: float = 0.0     # the same time in reference units, case by case
    outs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall: float = 0.0     # the whole pass, checks included


def run_pass(cases, run_case, check_case, host) -> PassResult:
    """Runs and checks one pass, timing each case with `host` (an active
    speed.HostSpeed)."""
    res = PassResult()
    t0 = time.perf_counter()
    for case in cases:
        try:
            out, dt, refs = host.timed(run_case, case)
        except Exception:
            res.errors.append(f"{case.name}: {traceback.format_exc()}")
            continue
        res.seconds += dt
        res.refs += refs
        res.outs.append(out)
        res.errors += [f"{case.name}: {e}" for e in check_case(case, out)]
    res.wall = time.perf_counter() - t0
    return res


def set_up(make_cases, warm_cases, run_case, seed: int) -> list:
    """Generates the inputs, parses the policies and warms up on small cases."""
    cases = make_cases(ROOT, seed)
    for case in warm_cases(ROOT, seed):
        run_case(case)
    return cases


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "genpol").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"error: {ROOT} lacks src/genpol or benchmarks/; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import speed

    tracer = None
    passes = {False: [], True: []}
    work = 0
    attempted = failed = 0
    with speed.HostSpeed() as host:
        workloads, import_s, import_ref = host.timed(importlib.import_module,
                                                     "workloads")
        make_cases, warm_cases, run_case, check_case = (
            workloads.WORKLOADS[args.workload])
        pass_name, work_field, rate_name = NAMES[args.workload]
        setups = [host.timed(set_up, make_cases, warm_cases, run_case, args.seed)
                  for _ in range(SETUP_REPEATS)]
        cases = setups[-1][0]
        setup_raw = import_s + statistics.median(s[1] for s in setups)
        setup_ref = import_ref + statistics.median(s[2] for s in setups)
        setup_s = setup_ref * speed.SLICE_S
        if args.trace:
            import tracing
            tracer = tracing.Tracer()

        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and attempted % 2 == 1
            if traced:
                tracer.begin_op(attempted)
                tracer.install()
            try:
                res = run_pass(cases, run_case, check_case, host)
            finally:
                if traced:
                    tracer.uninstall()
            if attempted == 0:
                # Later passes only add allocator fragmentation, and how many
                # fit in the run depends on the host's speed.
                peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024)
            attempted += 1
            passes[traced].append(res)
            if res.errors:
                failed += 1
                print(f"pass {attempted - 1} failed:\n  "
                      + "\n  ".join(res.errors), file=sys.stderr)
            elif not traced and work_field:
                work += sum(o[work_field] for o in res.outs)
            # Stop after whole (untraced, traced) pairs in a traced run.
            if tracer is not None and attempted % 2:
                continue
            next_wall = (passes[False][-1].wall
                         + (passes[True][-1].wall if tracer else 0.0))
            if time.perf_counter() + next_wall > deadline:
                break

    seconds = [p.seconds for p in passes[False]]
    n = len(seconds)
    pass_s = statistics.median(seconds)
    pass_ref = statistics.median(p.refs for p in passes[False])
    report = [(pass_name, pass_s, "s", f"median of {n} passes")]
    t = tail(seconds)
    if t is None:
        report.append((f"{pass_name}.tail", "n/a", "s",
                       f"{n} samples; a tail needs more than {TAIL_BEYOND}"))
    else:
        report.append((f"{pass_name}.tail", t[0], "s",
                       f"p{t[1]:.0f} of {n} samples"))
    if rate_name:
        report.append((rate_name, work / sum(seconds), "1/s",
                       f"{work} over {n} passes"))
    report += [
        ("pass_ref", pass_ref, "ref", f"median of {n} passes, in units of the "
                                      f"reference slice sampled during each case"),
        ("peak_rss_mb", peak_rss_mb, "MB", "maximum resident set up to the "
                                           "end of the first pass"),
        ("setup_s", setup_s, "s", f"import + median of {SETUP_REPEATS} set-ups "
                                  f"at reference speed; {setup_raw:.4g} s as timed"),
        ("fail_frac", failed / attempted, "frac",
         f"{failed} of {attempted} passes failed"),
    ]

    if tracer is None:
        metrics = {"pass_ref": (pass_ref, "ref"),
                   "peak_rss_mb": (peak_rss_mb, "MB"), "setup_s": (setup_s, "s")}
    else:
        per_pass = tracer.pass_metrics(host)
        units = {m: u for m, (u, _k, _s) in tracing.METRICS.items()}
        units.update({"policy.compatible_frac": "frac", "trace.spans": "count"})
        metrics = {m: (statistics.median(p[m] for p in per_pass.values()), u)
                   for m, u in units.items()}
        overhead = statistics.median(p.refs for p in passes[True]) / pass_ref - 1.0
        metrics["trace.overhead_frac"] = (overhead, "frac")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    print("env " + json.dumps(environment(args.seed)))
    for name, value, unit, note in report:
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}  ({note})")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
