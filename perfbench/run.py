#!/usr/bin/env python3
"""hmtlab benchmark: one workload's job list through ``hmtlab.cli.main(argv)``.

    python3 perfbench/run.py --workload {green_fine,certify,search} --seed N \
        --seconds S --trace {0,1}

Run from any directory of a source checkout; hmtlab is imported from the
checkout's ``src``.  Jobs run in this process, one at a time (a closed loop
with one client), with BLAS threads capped at the number of usable cores.
Every job's output is checked; a job fails on an exception, a nonzero exit
or a failed check.

``--trace 0`` cycles through the job list until ``--seconds`` of job time
have been measured (at least one full pass) and reports the end-to-end
metrics.  ``--trace 1`` makes passes in which each job runs untraced and
then traced, reports the per-layer metrics of the traced runs and writes
their spans to ``.bench_out/``.  Human-readable lines come first; the last line of stdout
is one JSON result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 3
# Figures only some workloads produce.  They are printed for reading, not put in the
# result line, which carries the same metrics for every workload.
EXTRA_METRICS = (("c_g_err", "1", max), ("residual", "1", max), ("defect", "1", max),
                 ("mt_search_s", "s", statistics.median),
                 ("lambda1_search_s", "s", statistics.median),
                 ("mt_best", "1", statistics.median), ("lambda1_upper", "1", statistics.median))


def load_program(root: Path) -> None:
    """Cap BLAS threads and import hmtlab from ``root/src``, nowhere else."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(root / "src"))
    import hmtlab.cli

    expected = (root / "src" / "hmtlab").resolve()
    if Path(hmtlab.cli.__file__).resolve().parent != expected:
        raise ImportError(f"hmtlab imported from {hmtlab.cli.__file__}, not from {expected}")


@dataclass
class Runs:
    """Job times keyed by the job's place in the list, failures, and reported values."""

    times: Dict[int, List[float]] = field(default_factory=dict)
    failed: int = 0
    values: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    @property
    def total(self) -> float:
        return sum(sum(t) for t in self.times.values())


def run_job(job_id: int, job, oracles, runs: Runs, tracer=None) -> None:
    """Run one job, timing ``cli.main`` alone; the check runs untimed and untraced."""
    from workloads import CheckFailed, check_output

    out = io.StringIO()
    code: Optional[int] = None
    if tracer is not None:
        tracer.job_id = job_id
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            # looked up per call, so a traced job reaches the wrapper
            code = sys.modules["hmtlab.cli"].main(list(job.argv))
    except Exception:  # a crashing job is a failed job; keep measuring the rest
        traceback.print_exc()
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    runs.times.setdefault(job_id, []).append(elapsed)
    text = out.getvalue()
    if tracer is not None:
        tracer.counters["cli.out_bytes"] += len(text.encode())
    try:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        values = check_output(job, text, oracles)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        print(f"FAILED {job.label}: {exc!r}", file=sys.stderr)
        runs.failed += 1
        return
    if job.kind in ("search_mt", "search_lambda1"):
        values[job.kind.replace("search_", "") + "_search_s"] = elapsed
    for key, value in values.items():
        runs.values.setdefault(key, []).append(value)


def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time of fresh processes that import hmtlab and build the job list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(jobs, oracles, seconds: float, setup: List[float]):
    runs = Runs()
    k = 0
    while k < len(jobs) or runs.total < seconds:
        run_job(k % len(jobs), jobs[k % len(jobs)], oracles, runs)
        k += 1
    job_medians = [statistics.median(ts) for ts in runs.times.values()]
    wall = sum(job_medians)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (len(jobs) / wall, "1/s"),
        "job_p50_s": (statistics.median(job_medians), "s"),
        "ok_frac": ((runs.attempted - runs.failed) / runs.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{len(jobs)} jobs in the list, {runs.attempted} timed")
    for job_id, ts in sorted(runs.times.items()):
        print(f"  job {job_id:<3} {' '.join(f'{t:.4f}' for t in ts):<30} {jobs[job_id].label}")
    notes = {"setup_s": f"median of {len(setup)} fresh set-ups",
             "wall_s": "sum over the list of each job's median time",
             "job_p50_s": f"median over the {len(jobs)} jobs of each one's median time"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:<14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'fail_frac':<18} {runs.failed / runs.attempted:<14.6g} {'ratio':<6} "
          f"{runs.failed} of {runs.attempted} jobs failed")
    for name, unit, reduce in EXTRA_METRICS:
        label = f"{name}_max" if reduce is max else name
        vals = runs.values.get(name)
        shown = f"{reduce(vals):<14.6g} {unit:<6} {reduce.__name__} over jobs" if vals else "n/a"
        print(f"  {label:<18} {shown}")
    return (runs.attempted, runs.failed,
            {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})


def per_layer(workload: str, seed: int, jobs, oracles, seconds: float):
    from spans import Tracer, layer_metrics, unit_of

    untraced: List[Runs] = []
    traced: List[Runs] = []
    tracers: List[Tracer] = []
    while not traced or sum(r.total for r in untraced + traced) < seconds:
        # each job runs untraced, then traced, so both see the same machine load
        untraced.append(Runs())
        traced.append(Runs())
        tracers.append(Tracer())
        for job_id, job in enumerate(jobs):
            run_job(job_id, job, oracles, untraced[-1])
            run_job(job_id, job, oracles, traced[-1], tracers[-1])
    layer_runs = [layer_metrics(t.arrays(), t.counters) for t in tracers]
    for i, tracer in enumerate(tracers, 1):
        path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}-pass{i}.npz"
        tracer.save(path)
        print(f"{len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    layers = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
    layers["trace.overhead_s"] = (statistics.median(r.total for r in traced)
                                  - statistics.median(r.total for r in untraced))
    for name, value in layers.items():
        print(f"  {name:<30} {value:<14.6g} {unit_of(name)}")
    every = untraced + traced
    return (sum(r.attempted for r in every), sum(r.failed for r in every),
            {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the job list, then exit (used to time set-up)")
    args = parser.parse_args(argv)

    try:
        load_program(ROOT)
        from workloads import WORKLOADS, load_oracles, make_jobs

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        jobs = make_jobs(args.workload, args.seed)
        oracles = load_oracles(ROOT)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        attempted, failed, metrics = per_layer(args.workload, args.seed, jobs, oracles,
                                               args.seconds)
    else:
        setup = measure_setup(args.workload, args.seed)
        attempted, failed, metrics = end_to_end(jobs, oracles, args.seconds, setup)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
