"""Per-layer measurements of the traced run.

Every traced run, whatever its workload, ends with these probes, so each
per-layer metric is measured on the same small seeded inputs every time:

- liouville and polarimetry.response_from_density: the dense oracle path,
  stage by stage, over the velocity cells of one gate-8 detuning;
- doppler: one-detuning requests, the same sweep at 1 and at nproc workers
  (compared bitwise, as gate 10 does), a resume from the finished
  checkpoint, and a preset-sized CSV written and read back;
- polarimetry: scan synthesis and both inversions, call by call, and a
  fixed set of scans that must be rejected;
- cli: bare interpreter start-up and each command of a cli-cold round.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from vaporplate import (InversionError, OpticalResponse, VelocityGrid,
                        load_preset, read_sweep_csv, sweep, synthesize_scan,
                        write_sweep_csv)

from workloads import (DETUNING_RANGE, GATE8_WINDOW, GRID_MASS_AMU,
                       GRID_NODES, GRID_TEMPERATURE, PRESET, THETAS19, TOL,
                       CliCases, Context, check_scan, dense_average,
                       oracle_error, pinned_spec, run_cli, scan_items)

POINT_REPS = 3            # one-detuning requests timed for doppler.point_ms
SCALING_DETUNINGS = 8     # detunings of the 1-vs-nproc scaling sweep
SCALING_NODES = 32        # velocity nodes of the 1-vs-nproc scaling sweep
CSV_ROWS = 512            # fig7-full's default sweep length
SCAN_SAMPLES = 400        # scans timed call by call
CLI_REPS = 3              # rounds of CLI commands timed


def _median(values) -> float:
    return float(np.median(np.asarray(values)))


def _check(ctx: Context, name: str, ok: bool, msg: str) -> None:
    ctx.attempted += 1
    ctx.check(f"probe-{name}", ok, msg)


def doppler_probes(ctx: Context, base) -> dict:
    tr = ctx.tracer
    m = {}
    point_s = []
    for k in range(POINT_REPS):
        d = float(ctx.rng(4, k).uniform(*GATE8_WINDOW))
        spec = replace(base, detunings=np.array([d]))
        t0 = time.perf_counter()
        with tr.span("doppler.sweep", f"probe-point-{k}"):
            (r,) = sweep(spec, workers=1)
        point_s.append(time.perf_counter() - t0)
        ctx.cells += GRID_NODES
        if k == 0:
            err = oracle_error(r, dense_average(spec, d, tr, ctx.oracle,
                                                "probe-oracle"))
            ctx.oracle.max_err = max(ctx.oracle.max_err, err)
            _check(ctx, "oracle", err <= TOL, f"oracle error {err:.3e}")
    m["doppler.point_ms"] = _median(point_s) * 1e3

    grid0 = np.linspace(*DETUNING_RANGE, SCALING_DETUNINGS)
    spec = replace(
        base, grid=VelocityGrid.gauss_hermite(SCALING_NODES, GRID_TEMPERATURE,
                                              GRID_MASS_AMU),
        detunings=grid0 + ctx.rng(4).uniform() * (grid0[1] - grid0[0]))
    cells = SCALING_DETUNINGS * SCALING_NODES
    ckpt = os.path.join(ctx.tmp, "probe.ckpt.npz")
    t0 = time.perf_counter()
    with tr.span("doppler.sweep", "probe-serial"):
        serial = sweep(spec, workers=1)
    t1 = time.perf_counter()
    with tr.span("doppler.sweep", "probe-parallel"):
        parallel = sweep(spec, workers=ctx.nproc, checkpoint=ckpt)
    t2 = time.perf_counter()
    with tr.span("doppler.sweep", "probe-resume"):
        resumed = sweep(spec, workers=ctx.nproc, checkpoint=ckpt)
    t3 = time.perf_counter()
    ctx.cells += 2 * cells
    mismatch = sum(a.as_tuple() != b.as_tuple()
                   for a, b in zip(serial, parallel))
    _check(ctx, "workers", mismatch == 0,
           f"{mismatch} rows differ between 1 and {ctx.nproc} workers")
    _check(ctx, "resume", all(a.as_tuple() == b.as_tuple()
                              for a, b in zip(parallel, resumed)),
           "resumed sweep differs from the checkpointed one")
    m.update({
        "doppler.cells": ctx.cells,
        "doppler.sweep_serial_s": t1 - t0,
        "doppler.sweep_parallel_s": t2 - t1,
        "doppler.scaling": (t1 - t0) / (t2 - t1),
        "doppler.cell_us": (t1 - t0) / cells * 1e6,
        "doppler.worker_mismatch_rows": mismatch,
        "doppler.checkpoint_bytes": os.path.getsize(ckpt),
        "doppler.resume_ms": (t3 - t2) * 1e3,
    })

    detunings = np.linspace(*DETUNING_RANGE, CSV_ROWS)
    rows = [parallel[k % len(parallel)] for k in range(CSV_ROWS)]
    path = os.path.join(ctx.tmp, "probe.csv")
    t0 = time.perf_counter()
    with tr.span("doppler.write_sweep_csv", "probe-csv"):
        write_sweep_csv(path, detunings, rows)
    t1 = time.perf_counter()
    with tr.span("doppler.read_sweep_csv", "probe-csv"):
        back_d, back = read_sweep_csv(path)
    t2 = time.perf_counter()
    # the CSV keeps 12 significant digits
    same = len(back) == CSV_ROWS and np.allclose(back_d, detunings,
                                                 rtol=1e-11, atol=0) and \
        np.allclose([r.as_tuple() for r in back],
                    [r.as_tuple() for r in rows], rtol=1e-11, atol=1e-300)
    _check(ctx, "csv", same, "CSV read back differs from what was written")
    m.update({"doppler.csv_write_ms": (t1 - t0) * 1e3,
              "doppler.csv_read_ms": (t2 - t1) * 1e3,
              "doppler.csv_bytes": os.path.getsize(path),
              "doppler.oracle_max_err_rad": ctx.oracle.max_err})
    return m


def liouville_metrics(ctx: Context) -> dict:
    o = ctx.oracle
    return {
        "liouville.build_hamiltonian_us": _median(o.build_s) * 1e6,
        "liouville.vectorize_ms": _median(o.vectorize_s) * 1e3,
        "liouville.steady_state_ms": _median(o.steady_s) * 1e3,
        "liouville.dim": o.dim,
        "liouville.max_trace_err": o.max_trace_err,
        "liouville.max_herm_err": o.max_herm_err,
        "liouville.min_population": o.min_population,
        "polarimetry.response_from_density_us": _median(o.response_s) * 1e6,
    }


def _time_calls(calls) -> tuple[list[float], list]:
    times, outcomes = [], []
    for call, args in calls:
        t0 = time.perf_counter()
        try:
            outcome = call(*args)
        except InversionError as exc:
            outcome = exc
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return times, outcomes


def polarimetry_probes(ctx: Context) -> dict:
    tr = ctx.tracer
    items = scan_items(ctx.rng(5), SCAN_SAMPLES)
    m = {}
    with tr.span("polarimetry.synthesize_scan", "probe-synthesize"):
        times, _ = _time_calls(
            (synthesize_scan, (OpticalResponse(it.phi_d, 0.0, it.alpha_d, 0.0),
                               THETAS19))
            for it in items if it.kind == "lsq")
    m["polarimetry.synthesize_us"] = _median(times) * 1e6
    rejected = 0
    for kinds, name, metric in (
            (("closed",), "polarimetry.invert_scan", "invert3_us"),
            (("lsq",), "polarimetry.invert_scan_lsq", "invert_lsq_us"),
            (("reject3", "reject_lsq"), "polarimetry.reject", None)):
        chosen = [it for it in items if it.kind in kinds]
        with tr.span(name, f"probe-{metric or 'reject'}"):
            times, outcomes = _time_calls((it.call, it.args) for it in chosen)
        for it, outcome in zip(chosen, outcomes):
            err = check_scan(it, outcome)
            _check(ctx, "scan", err is None, str(err))
            rejected += isinstance(outcome, InversionError)
        if metric:
            m[f"polarimetry.{metric}"] = _median(times) * 1e6
    m["polarimetry.rejected"] = rejected
    return m


def cli_probes(ctx: Context) -> dict:
    tr = ctx.tracer
    startup = []
    for k in range(CLI_REPS):
        t0 = time.perf_counter()
        with tr.span("cli.python_startup", f"probe-startup-{k}"):
            subprocess.run([sys.executable, "-c", "pass"], check=True,
                           timeout=60)
        startup.append(time.perf_counter() - t0)
    times: dict[str, list[float]] = {}
    cases = CliCases(ctx)
    for rep in range(CLI_REPS):
        for name, argv, check in cases.round(10_000 + rep):
            seconds, proc = run_cli(argv, tr, f"cli.{name}",
                                    f"probe-cli-{rep}")
            key = "invert" if name.startswith("invert") else name
            times.setdefault(key, []).append(seconds)
            err = check(proc.stdout) if proc.returncode == 0 else \
                f"exit code {proc.returncode}"
            _check(ctx, f"cli-{name}", err is None, f"{name}: {err}")
    return {
        "cli.python_startup_ms": _median(startup) * 1e3,
        "cli.validate_ms": _median(times["validate"]) * 1e3,
        "cli.solve_ms": _median(times["solve"]) * 1e3,
        "cli.invert_ms": _median(times["invert"]) * 1e3,
        "cli.export_table1_ms": _median(times["export_table1"]) * 1e3,
    }


def run_probes(ctx: Context) -> dict:
    base = pinned_spec(load_preset(PRESET))
    m = doppler_probes(ctx, base)
    m.update(liouville_metrics(ctx))
    m.update(polarimetry_probes(ctx))
    m.update(cli_probes(ctx))
    return m
