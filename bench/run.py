"""Run the spin9 benchmark: one workload, or all three, and print metrics.

    python3 bench/run.py --workload verify|construct|curvature|all
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout of the repository: spin9 is
imported from the checkout's `src`, never from an installed copy.  Every
pass is a fresh worker process, started one at a time, so a pass never
sees a cache filled by another and never shares the two cores.

--trace 0 measures the end-to-end metrics.  Passes are made until the
next one would end after --seconds (at least one pass; a pass longer
than --seconds makes the run longer), and each metric is the median over
the passes.  set-up time is sampled at least SETUP_SAMPLES times, by
extra processes that stop at the first measured call when there are
fewer passes.

--trace 1 makes one untraced and one traced pass and reports the
per-layer metrics of the traced one, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Result and span files go to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify", "construct", "curvature")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # one benchmark run must end within 180 s


class RunError(Exception):
    pass


def spawn(args, deadline) -> dict:
    """Run one worker process and return its result record."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=src + os.pathsep + path if path else src)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker {args} printed nothing")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_call"] - start
    result["process_s"] = time.monotonic() - start
    return result


def measure(workload, seed, seconds, deadline) -> tuple:
    base = [workload, "--seed", str(seed)]
    spawn(base + ["--setup-only"], deadline)  # compile bytecode, warm the file cache
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(base, deadline))
        typical = statistics.median(p["process_s"] for p in passes)
        if time.monotonic() - start + typical > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(base + ["--setup-only"], deadline)["setup_s"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
    }
    units = dict(END_TO_END)
    return passes, {k: (v, units[k]) for k, v in metrics.items()}


def trace(workload, seed, deadline) -> tuple:
    from tracing import PER_LAYER

    base = [workload, "--seed", str(seed)]
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    untraced = spawn(base, deadline)
    traced = spawn(base + ["--trace", "--spans", str(spans)], deadline)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return [untraced, traced], {n: (values[n], u) for n, u in PER_LAYER}


def run_workload(workload, seed, seconds, traced) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if traced:
        passes, metrics = trace(workload, seed, deadline)
    else:
        passes, metrics = measure(workload, seed, seconds, deadline)
    problems = [p for r in passes for p in r["problems"]]
    if len({r["attempted"] for r in passes}) != 1:
        problems.append("passes attempted different numbers of operations")
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "failures": sorted({f for r in passes for f in r["failures"]}),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    (OUT / name).write_text(json.dumps({**summary, "pass_records": passes},
                                       indent=1))
    return summary


def report(summary) -> None:
    print(f"workload {summary['workload']}: seed {summary['seed']}, "
          f"{summary['passes']} pass(es), {summary['attempted']} operations "
          f"attempted, {summary['failed']} failed, "
          f"correct={summary['correct']}")
    for text in summary["problems"] + [f"failed: {f}" for f in summary["failures"]]:
        print(f"  {text}")
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spin9" / "__init__.py").is_file():
        print(f"no spin9 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                     for n in names]
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        report(summary)
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{k}" if prefix else k): m
            for s in summaries for k, m in s["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
