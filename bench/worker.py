"""One workload process: set up, make one measured pass, check it.

    python3 bench/worker.py <workload> --seed N [--setup-only] [--trace]
        [--spans PATH]

The last line of standard output is one JSON object:

    first_call   time.monotonic() when the measured pass starts
    wall_s       duration of the measured pass
    rss_mib      peak resident memory at the end of the pass
    attempted, failed, failures, problems   from the workload's check
    layers       per-layer metrics (traced passes only), with
                 untraced_targets and dropped_spans

With --setup-only the process stops at the first measured call and
reports `first_call` alone.  spin9 is imported from the `src` directory
the runner puts on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from tracing import NullTracer, Tracer
from workloads import construct, curvature, verify

WORKLOADS = {"verify": verify, "construct": construct, "curvature": curvature}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import spin9.cli  # noqa: F401  (importing is part of set-up)

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    workload.prepare()
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return
    t0 = time.perf_counter()
    outputs = workload.run_pass(inputs, tracer)
    wall = time.perf_counter() - t0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"first_call": first_call, "wall_s": wall, "rss_mib": rss_mib}
    if args.trace:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["untraced_targets"] = tracer.missing
        result["dropped_spans"] = tracer.dropped_spans
        if args.spans:
            tracer.write_spans(args.spans)
    tally = workload.check(inputs, outputs)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, problems=tally.problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
