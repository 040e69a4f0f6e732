"""reachnet benchmark: closed-loop CLI pipelines, timed end to end and per layer.

    python3 reachbench/run.py --workload reach --seed 1 --seconds 20 --trace 0

Run from the root of a reachnet source tree (``src/reachnet`` must exist).
Each measurement runs in a fresh worker process (worker.py); this parent
never imports reachnet.  It checks every job's answer against the
independent references in reference.py, writes a full record of the run
to ``.reachbench/`` and prints, as its last stdout line, one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  setup_s is the median of
several fresh processes, each importing reachnet and running the warm-up
pass.  --trace 1 runs a fixed set of passes once untraced and once
traced and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from reference import check
from workloads import WORKLOADS, make_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".reachbench"
SETUP_PROBES = 8  # extra setup-only processes; the timed worker adds one more
TIME_LIMIT_S = 170  # the whole run, all workers included

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the {TIME_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check_records(workload: str, seed: int, records: list[dict]) -> tuple[list[dict], int]:
    """Check every job's answer; return per-job rows and the wrong count."""
    jobs = {}
    for index in sorted({int(r["id"].split(".")[0]) for r in records}):
        jobs.update((job.id, job) for job in make_pass(workload, seed, index))
    rows, wrong = [], 0
    for record in records:
        error, counts = check(jobs[record["id"]], record)
        wrong += error is not None
        rows.append({"id": record["id"], **counts, "latency_s": record["latency_s"],
                     "error": error})
    return rows, wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reachnet" / "cli.py").is_file():
        print(f"error: no reachnet source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            result = run_worker(args, "traced", deadline)
        else:
            setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            result = run_worker(args, "timed", deadline)
            setups.append(result["setup_s"])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows, wrong = check_records(args.workload, args.seed, result["records"])
    attempted = len(rows)
    latencies = [row["latency_s"] for row in rows]
    summary: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": result["passes"],
        "nproc": len(os.sched_getaffinity(0)), "python": result["python"],
        "numpy": result["numpy"], "error_rate": wrong / attempted,
    }
    if args.trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_ratio"] = result["traced_wall_s"] / result["untraced_wall_s"]
        summary.update(untraced_wall_s=result["untraced_wall_s"],
                       traced_wall_s=result["traced_wall_s"])
        units = {name: layer_unit(name) for name in metrics}
    else:
        tail_pct = WORKLOADS[args.workload].tail_pct
        tail = percentile(latencies, tail_pct)
        metrics = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": attempted / result["wall_s"],
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail,
            "ok_rate": 1 - wrong / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary.update(setup_samples_s=setups, wall_s=result["wall_s"],
                       tail_percentile=tail_pct,
                       tail_samples_beyond=sum(x > tail for x in latencies))
        units = END_TO_END_UNITS

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "metrics": metrics, "jobs": rows}, fh, indent=1)
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)

    for row in rows:
        if row["error"]:
            print(f"WRONG {row['id']} {row['kind']} n={row['n']} t={row['t']}: {row['error']}",
                  file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in summary.items() if not isinstance(v, list)))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": wrong,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
