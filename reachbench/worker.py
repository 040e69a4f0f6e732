"""Run one workload's jobs in-process through ``reachnet.cli.main``.

run.py starts this script once per measurement, so the process's peak
resident memory belongs to that workload alone.  One client, no threads:
each job starts only after the previous one returned (a closed loop).
The result is one JSON object on stdout.

    python3 reachbench/worker.py --workload reach --seed 1 --seconds 20 --mode timed

Modes:
  setup   import reachnet and run the warm-up pass; report the time taken
  timed   setup, then whole passes until about --seconds have been spent
  traced  setup, then a fixed number of passes, each run once untraced
          and once traced, so that work counts repeat exactly per seed
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Job, make_pass, warmup_jobs

ROOT = Path(__file__).resolve().parent.parent


def run_job(main, job: Job) -> dict:
    """Pipe the job's steps through ``main``; stop after a nonzero exit."""
    steps: list[tuple[int, str, str]] = []
    exception = None
    prev = ""
    saved_stdin = sys.stdin
    start = perf_counter()
    try:
        for step in job.steps:
            sys.stdin = io.StringIO(prev if step.stdin is None else step.stdin)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(step.argv))
            prev = out.getvalue()
            steps.append((rc, prev, err.getvalue()))
            if rc != 0:
                break
    except Exception:  # an escaped exception is a wrong answer, not a crash
        exception = traceback.format_exc(limit=4)
    finally:
        sys.stdin = saved_stdin
    return {"id": job.id, "latency_s": perf_counter() - start, "steps": steps,
            "exception": exception}


def run_pass(main, jobs: list[Job], records: list[dict], on_job=None) -> float:
    start = perf_counter()
    for job in jobs:
        if on_job is not None:
            on_job(job)
        records.append(run_job(main, job))
    return perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    args = parser.parse_args()

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import reachnet
    from reachnet import cli

    if Path(reachnet.__file__).resolve().parent != ROOT / "src" / "reachnet":
        print(f"error: imported reachnet from {reachnet.__file__}", file=sys.stderr)
        return 2
    run_pass(cli.main, warmup_jobs(args.seed), [])
    out: dict = {"setup_s": perf_counter() - start}

    records: list[dict] = []
    if args.mode == "timed":
        wall, passes = 0.0, 0
        # whole passes only, so every run measures the same job mix; stop
        # at the pass boundary nearest to --seconds
        while passes == 0 or wall + wall / passes / 2 <= args.seconds:
            wall += run_pass(cli.main, make_pass(args.workload, args.seed, passes), records)
            passes += 1
        out.update(wall_s=wall, passes=passes)
    elif args.mode == "traced":
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        untraced = traced = 0.0
        passes = WORKLOADS[args.workload].trace_passes
        for index in range(passes):
            jobs = make_pass(args.workload, args.seed, index)
            untraced += run_pass(cli.main, jobs, records)
            with tracer.installed(cli) as traced_main:
                traced += run_pass(
                    traced_main, jobs, records, lambda job: setattr(tracer, "job", job.id)
                )
        out.update(untraced_wall_s=untraced, traced_wall_s=traced, passes=passes,
                   layers=layer_metrics(tracer.spans), spans=tracer.spans)

    out.update(
        records=records,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
