"""The vaporplate benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it measures the package under
``src/`` and writes only under ``perfbench/out/``.  One run

1. times five cold set-ups, each in a fresh interpreter (``cold_setup.py``);
   the first one in a checkout also fills the bytecode caches (the build),
2. runs the workload in a fresh process (``child.py``), which checks
   its outputs and, with ``--trace 1``, records spans and runs the
   per-layer probes (``probes.py``),
3. prints every metric by name with its unit, then, as the last line, the
   JSON result with the end-to-end metrics (``--trace 0``) or the per-layer
   metrics (``--trace 1``) declared in ``BENCHMARK.json``.

The full result, with provenance and the environment, goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.
BLAS threads are left as the environment sets them, as users run it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5
DEADLINE_S = 170.0
LAYERS = ("scenario", "liouville", "doppler", "polarimetry", "cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The end-to-end metrics are shared by all workloads; on each workload they
# are also printed under the name that says what they count.
ALIASES = {
    "sweep": {"throughput_per_s": "sweep_cells_per_s"},
    "operating-point": {"latency_ms_p50": "point_latency_ms_p50",
                        "latency_ms_p90": "point_latency_ms_p90"},
    "cli-cold": {"latency_ms_p50": "cli_latency_ms_p50",
                 "latency_ms_p90": "cli_latency_ms_p90"},
}
# Requests of fixed work: the cold set-ups, the oracle and the probes.  The
# closed loop's requests are left out of self time, because the loop's
# length is fixed in seconds, not in work.
FIXED_WORK = ("setup-", "oracle-", "probe-")


class BenchError(Exception):
    pass


def run_child(cmd: list[str], deadline: float) -> str:
    """Run `cmd` in its own process group until `deadline` (monotonic) and
    return its stdout.  The whole group is killed afterwards, so no pool
    worker or CLI process it started outlives it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:3])} ran past the deadline")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n"
                         f"{err.strip()[-2000:]}")
    return out


def cold_setups(tracer: Tracer, deadline: float) -> dict[str, list[float]]:
    """Seconds per phase over SETUP_RUNS fresh interpreters.  The first run
    in a checkout also writes the bytecode caches; the median absorbs it."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "cold_setup.py")]
    phases: dict[str, list[float]] = {}
    for k in range(SETUP_RUNS):
        with tracer.span("bench.cold_setup", f"setup-{k}"):
            rec = json.loads(run_child(cmd, deadline).splitlines()[-1])
            if not Path(rec["package"]).resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"imported vaporplate from {rec['package']}, "
                                 f"not from {ROOT / 'src'}")
            for name in ("import", "load_cold", "load_warm", "sweep_spec"):
                a, b = rec[name]
                tracer.add(f"scenario.{name}", f"setup-{k}", a, b)
                phases.setdefault(name, []).append((b - a) / 1e9)
    return phases


def provenance(seed: int) -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def merge_spans(tracer: Tracer, child_spans: list) -> None:
    offset = len(tracer.spans)
    for sid, parent, name, request, t0, t1 in child_spans:
        tracer.spans.append([sid + offset,
                             None if parent is None else parent + offset,
                             name, request, t0, t1])


def main() -> int:
    ap = argparse.ArgumentParser(description="vaporplate benchmark")
    ap.add_argument("--workload", required=True, choices=list(ALIASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    src = ROOT / "src"
    if not (src / "vaporplate" / "__init__.py").is_file():
        print(f"error: no vaporplate sources under {src}; run from the root "
              "of a vaporplate checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    tracer = Tracer(bool(args.trace))
    try:
        deadline = start + DEADLINE_S
        phases = cold_setups(tracer, deadline)
        child_out = os.path.join(tmp, "result.json")
        run_child([sys.executable, str(ROOT / "perfbench" / "child.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--tmp", tmp, "--out", child_out], deadline)
        with open(child_out) as fh:
            child = json.load(fh)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setup = [a + b + c for a, b, c in zip(
        phases["import"], phases["load_cold"], phases["sweep_spec"])]
    if args.trace:
        merge_spans(tracer, child.pop("spans"))
        values = dict(child["layers"])
        for name, secs in phases.items():
            values[f"scenario.{name}_ms"] = statistics.median(secs) * 1e3
        self_ms = tracer.self_time_ms(lambda req: req.startswith(FIXED_WORK))
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        child["self_ms"] = self_ms
    else:
        values = {name: child[name] for name in
                  ("throughput_per_s", "latency_ms_p50", "latency_ms_p90",
                   "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": child["failed"] == 0,
              "attempted": child["attempted"],
              "failed": child["failed"],
              "metrics": metrics}

    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed),
              "package_version": child.pop("package_version"),
              "setup_phases_s": phases, "child": child, "result": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    print(f"vaporplate benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("provenance: " + json.dumps(report["provenance"])
          + f", package {report['package_version']}")
    print(f"ops_attempted = {result['attempted']}")
    print(f"ops_failed = {result['failed']}")
    for err in child["errors"]:
        print(f"  failure: {err}")
    aliases = ALIASES[args.workload]
    for name, m in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{alias}")
    if not args.trace:
        print(f"samples = {child['samples']}, rounds = {child['rounds']}, "
              f"work = {child['work']}, setup runs = {len(setup)}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
