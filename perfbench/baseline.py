"""Run the benchmark over several seeds and write BENCH_<label>.json.

    python3 perfbench/baseline.py --label seed --seeds 1-10 [--workloads sweep cli-cold]

For every workload: one untraced run per seed, then one traced run on the
first seed.  For each end-to-end metric the file holds the values, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; for the per-layer metrics, the traced
run's values; and the provenance (commit, versions, BLAS, nproc, thread
settings) of the first traced run.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: failed {result['failed']}/"
          f"{result['attempted']}, {time.monotonic() - start:.1f} s",
          flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    out = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
           "provenance": None, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, s, bench["run_seconds"], 0) for s in args.seeds]
        traced = run(workload, args.seeds[0], bench["run_seconds"], 1)
        if out["provenance"] is None:
            report = json.loads((ROOT / "perfbench" / "out" / (
                f"{workload}-seed{args.seeds[0]}-trace1.json")).read_text())
            out["provenance"] = {**report["provenance"],
                                 "package_version": report["package_version"]}
            del out["provenance"]["seed"]
        out["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **summary([r["metrics"][m["name"]]["value"]
                                       for r in runs])}
                for m in bench["end_to_end"]},
            "per_layer": traced["metrics"],
        }
    path = ROOT / "perfbench" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
