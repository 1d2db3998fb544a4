"""Runs one workload in a fresh process and writes what it measured.

    python3 perfbench/child.py --workload sweep --seed 1 --seconds 25 \
        --trace 0 --tmp DIR --out RESULT.json

``run.py`` starts it; the vaporplate sources must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys

import vaporplate

import probes
from workloads import WORKLOADS, Context, Loop, closed_loop, percentile_ms


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summarize(loop: Loop) -> dict:
    lat = loop.latencies or [0.0]
    return {
        "throughput_per_s": loop.throughput(),
        "latency_ms_p50": percentile_ms(lat, 50),
        "latency_ms_p90": percentile_ms(lat, 90),
        "samples": len(loop.latencies),
        "rounds": len(loop.round_rates),
        "work": loop.work,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    ctx = Context(args)
    op, verify = WORKLOADS[args.workload](ctx)
    result = {"workload": args.workload}
    if args.trace:
        plain, traced = closed_loop(ctx, args.seconds, op, traced=True)
        verify()
        result["layers"] = probes.run_probes(ctx)
        ratio = plain.throughput() / (traced.throughput() or math.inf)
        result["layers"]["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
        result["untraced"] = summarize(plain)
        result["traced"] = summarize(traced)
        result["spans"] = ctx.tracer.spans
    else:
        loop, _ = closed_loop(ctx, args.seconds, op)
        verify()
        result.update(summarize(loop))
    result.update({
        "peak_rss_mb": peak_rss_mb(),
        "attempted": ctx.attempted,
        "failed": len(ctx.failed_ops),
        "errors": ctx.errors,
        "package_version": vaporplate.__version__,
    })
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
