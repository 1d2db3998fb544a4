"""The benchmark's workloads, run in a fresh process by ``child.py``.

Each workload is a closed loop with a single client: the next operation
starts when the previous one has returned, while it can still end within
``--seconds``.
The inputs of operation ``i`` come from the seed and ``i`` alone.  Outputs
are checked outside the timed intervals; a check that misses marks its
operation failed.  With ``--trace 1`` rounds alternate with and without
spans (their difference is the tracing overhead), and then
``probes.run_probes`` measures every layer on its own.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from vaporplate import (COUNTER, InversionError, LcrScan, OpticalResponse,
                        VelocityGrid, build_hamiltonian, cli,
                        doppler_shifts, invert_scan, invert_scan_lsq,
                        load_preset, response_from_density, steady_state,
                        sweep, synthesize_scan, vectorize, write_sweep_csv)

from tracer import Tracer

# Gate 6's bound on phi_d (rad) and alpha_d, used for every numeric check.
TOL = 1e-6

# The workload shapes are pinned here so that a change to a preset does not
# silently change what is measured.
PRESET = "fig7-full"
DETUNING_RANGE = (-1200.0, 1200.0)     # fig7-full's sweep range
# Detunings per velocity node in one `sweep` operation.  A velocity-major
# kernel pays about 11 ms per node once, against 1.6 ms per dense solve, so
# it breaks even near 8 detunings; 48 sits six times past that.  fig7-full's
# own 512 would take over 200 s per sweep at about 2.5 ms per cell.
SWEEP_DETUNINGS = 48
GRID_NODES, GRID_TEMPERATURE, GRID_MASS_AMU = 200, 403.0, 86.909
GATE8_WINDOW = (230.0, 260.0)          # gate 8's half-wave search window
THETAS3 = tuple(float(t) for t in np.radians([30.0, 90.0, 150.0]))
THETAS19 = tuple(float(t) for t in np.radians(np.linspace(0.0, 180.0, 19)))
E0 = 1.0
SCAN_ROUND = 10                        # scans per block of the probes' mix
CLI_CSV_PAIRS = 4                      # scan CSVs written before cli-cold


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_spec(scn):
    """fig7-full, counter-propagating, on the pinned velocity grid."""
    grid = VelocityGrid.gauss_hermite(GRID_NODES, GRID_TEMPERATURE,
                                      GRID_MASS_AMU)
    return replace(scn.sweep_spec(geometry=COUNTER), grid=grid)


def principal(phi: float) -> float:
    """The branch of phi_d that the scan inversions report, in [0, pi]."""
    return math.acos(max(-1.0, min(1.0, math.cos(phi))))


def roundtrip_error(res, alpha_d: float, phi_d: float) -> float:
    return max(abs(res.alpha_d - alpha_d), abs(res.phi_d - principal(phi_d)))


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


# ---------------------------------------------------------------------------
# The dense, fully validated path that the checks compare against
# ---------------------------------------------------------------------------

@dataclass
class OracleStats:
    """Per-stage timings and invariant errors over the oracle cells."""

    build_s: list = field(default_factory=list)
    vectorize_s: list = field(default_factory=list)
    steady_s: list = field(default_factory=list)
    response_s: list = field(default_factory=list)
    dim: int = 0
    max_trace_err: float = 0.0
    max_herm_err: float = 0.0
    min_population: float = math.inf
    max_err: float = 0.0


def dense_cell(scheme, transitions, network, fields, medium, geometry,
               v: float, tracer: Tracer, stats: OracleStats):
    """build_hamiltonian -> vectorize -> steady_state -> response, timed."""
    shifts = doppler_shifts(v, geometry, fields["pump"].k, fields["signal"].k)
    t0 = time.perf_counter()
    with tracer.span("liouville.build_hamiltonian"):
        h = build_hamiltonian(scheme, transitions, fields,
                              velocity_shifts=shifts)
    t1 = time.perf_counter()
    with tracer.span("liouville.vectorize"):
        liou = vectorize(h, scheme, network)
    t2 = time.perf_counter()
    with tracer.span("liouville.steady_state"):
        rho = steady_state(liou)
    t3 = time.perf_counter()
    with tracer.span("polarimetry.response_from_density"):
        r = response_from_density(rho, scheme, transitions, fields["signal"],
                                  medium)
    t4 = time.perf_counter()
    stats.build_s.append(t1 - t0)
    stats.vectorize_s.append(t2 - t1)
    stats.steady_s.append(t3 - t2)
    stats.response_s.append(t4 - t3)
    stats.dim = len(liou.coords)
    stats.max_trace_err = max(stats.max_trace_err,
                              abs(np.trace(rho).real - 1.0))
    stats.max_herm_err = max(stats.max_herm_err,
                             float(np.max(np.abs(rho - rho.conj().T))))
    stats.min_population = min(stats.min_population,
                               float(np.min(np.diag(rho).real)))
    return r


def dense_average(spec, delta_s: float, tracer: Tracer, stats: OracleStats,
                  request: str) -> OpticalResponse:
    """Doppler average of one detuning, in grid order, without CellSolver."""
    fields = dict(spec.fields)
    fields["signal"] = replace(fields["signal"], detuning=delta_s)
    acc = np.zeros(4)
    with tracer.span("bench.oracle", request):
        for v, w in zip(spec.grid.velocities, spec.grid.weights):
            r = dense_cell(spec.scheme, spec.transitions, spec.network,
                           fields, spec.medium, spec.geometry, v, tracer,
                           stats)
            acc += w * np.asarray(r.as_tuple())
    return OpticalResponse(*acc)


def oracle_error(got: OpticalResponse, want: OpticalResponse) -> float:
    return max(abs(got.phi_d - want.phi_d), abs(got.alpha_d - want.alpha_d))


# ---------------------------------------------------------------------------
# Closed loop and bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    """What one closed-loop pass measured.

    Operations are grouped into rounds of equal work: one sweep, one
    request, or one CLI round of five processes.  Throughput is
    taken at the median round, so one stalled operation cannot move it."""

    latencies: array = field(default_factory=lambda: array("d"))
    round_rates: array = field(default_factory=lambda: array("d"))
    work: int = 0                # cells, requests or processes
    attempted: int = 0
    _busy: float = 0.0           # time inside the measured calls this round

    def record(self, latency: float, busy: float | None = None) -> None:
        """One operation's latency; `busy` is its share inside the measured
        call when the operation also does other work."""
        self.latencies.append(latency)
        self._busy += latency if busy is None else busy

    def end_round(self, work: int) -> None:
        self.round_rates.append(work / self._busy)
        self.work += work
        self._busy = 0.0

    def throughput(self) -> float:
        """Work per second at the median round; 0 if no round completed."""
        if not self.round_rates:
            return 0.0
        return float(np.median(np.asarray(self.round_rates)))


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.tmp = args.tmp
        self.nproc = nproc()
        self.tracer = Tracer(False)
        self.failed_ops: set[str] = set()
        self.errors: list[str] = []
        self.attempted = 0
        self.oracle = OracleStats()
        self.cells = 0

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def fail(self, op: str, msg: str) -> None:
        self.failed_ops.add(op)
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {msg}")

    def check(self, op: str, ok: bool, msg: str) -> None:
        if not ok:
            self.fail(op, msg)


def closed_loop(ctx: Context, seconds: float, op, traced: bool = False
                ) -> tuple[Loop, Loop]:
    """Call op(i, loop) back to back for `seconds`.

    No operation starts that would end past `seconds` if it took as long as
    the one before it, so a run measures about `seconds` even when one
    operation (a `sweep`) takes most of them.  With `traced`, rounds
    alternate between running with spans and without, so slow drift of the
    machine cancels out of the tracing overhead.
    Returns the (untraced, traced) passes.  Each pass gets at least one
    round unless operations keep failing for three times `seconds`."""
    loops = (Loop(), Loop())
    used = loops if traced else loops[:1]
    k = i = 0
    last = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + last > seconds and (all(lp.round_rates for lp in used)
                                         or elapsed >= 3 * seconds):
            break
        loop = loops[k]
        ctx.tracer.enabled = k == 1
        rounds = len(loop.round_rates)
        loop.attempted += 1
        t0 = time.perf_counter()
        try:
            op(i, loop)
        except Exception as exc:  # a failed operation must not end the run
            ctx.fail(f"op{i}", f"{type(exc).__name__}: {exc}")
        last = time.perf_counter() - t0
        if traced and len(loop.round_rates) > rounds:
            k = 1 - k
        i += 1
    ctx.tracer.enabled = traced
    ctx.attempted += loops[0].attempted + loops[1].attempted
    return loops


# ---------------------------------------------------------------------------
# Workloads.  Each returns a function op(i, loop) and a function that runs
# the checks needing work done after the loop.
# ---------------------------------------------------------------------------

def sweep_workload(ctx: Context):
    """fig7-full sweeps with a checkpoint, then the CSV.

    One sweep of SWEEP_DETUNINGS x GRID_NODES cells takes most of a
    25-second run, so a run usually holds one.  One worker, the CLI's
    default: at nproc workers with BLAS threads unpinned, one process
    measured 14 to 330 cells/s on the same sweep, too unsteady for a
    bounded metric.  The traced run measures that case as
    doppler.sweep_parallel_s and doppler.scaling."""
    base = pinned_spec(load_preset(PRESET))
    grid0 = np.linspace(*DETUNING_RANGE, SWEEP_DETUNINGS)
    spacing = grid0[1] - grid0[0]
    ckpt = os.path.join(ctx.tmp, "sweep.ckpt.npz")
    csv = os.path.join(ctx.tmp, "sweep.csv")
    cells = SWEEP_DETUNINGS * GRID_NODES
    done = {}
    tr = ctx.tracer

    def op(i, loop):
        spec = replace(base, detunings=grid0
                       + ctx.rng(0, i).uniform(0.0, 1.0) * spacing)
        t0 = time.perf_counter()
        with tr.span("bench.sweep_request", f"sweep-{i}"):
            with tr.span("doppler.sweep"):
                res = sweep(spec, workers=1, checkpoint=ckpt)
            t1 = time.perf_counter()
            with tr.span("doppler.write_sweep_csv"):
                write_sweep_csv(csv, spec.detunings, res)
        t2 = time.perf_counter()
        os.remove(ckpt)
        loop.record(t2 - t0, busy=t1 - t0)
        loop.end_round(cells)
        ctx.cells += cells
        ctx.check(f"op{i}", len(res) == SWEEP_DETUNINGS and all(
            np.all(np.isfinite(r.as_tuple())) for r in res),
            "sweep returned missing or non-finite rows")
        done[i] = (spec, res)

    def verify():
        if 0 not in done:
            return
        spec, res = done[0]
        j = int(ctx.rng(1).integers(SWEEP_DETUNINGS))
        want = dense_average(spec, float(spec.detunings[j]), ctx.tracer,
                             ctx.oracle, "oracle-sweep")
        err = oracle_error(res[j], want)
        ctx.oracle.max_err = max(ctx.oracle.max_err, err)
        ctx.check("op0", err <= TOL, f"oracle error {err:.3e} at detuning "
                  f"{spec.detunings[j]:.6g}")

    return op, verify


def point_request(spec, delta_s: float, tracer: Tracer, request: str):
    """One detuning at one worker (the work of `vaporplate lcr`), then the
    3- and 19-retardance scans and both inversions."""
    spec = replace(spec, detunings=np.array([delta_s]))
    with tracer.span("bench.point_request", request):
        with tracer.span("doppler.sweep"):
            (r,) = sweep(spec, workers=1)
        with tracer.span("polarimetry.synthesize_scan"):
            s3 = synthesize_scan(r, THETAS3, E0)
        with tracer.span("polarimetry.synthesize_scan"):
            s19 = synthesize_scan(r, THETAS19, E0)
        with tracer.span("polarimetry.invert_scan"):
            inv3 = invert_scan(s3.thetas, s3.intensities, E0, r.alpha_minus)
        with tracer.span("polarimetry.invert_scan_lsq"):
            inv19 = invert_scan_lsq(s19, E0, r.alpha_minus)
    err = max(roundtrip_error(inv3, r.alpha_d, r.phi_d),
              roundtrip_error(inv19, r.alpha_d, r.phi_d))
    return r, err


def operating_point_workload(ctx: Context):
    """Single-detuning requests in gate 8's window on fig7-full."""
    base = pinned_spec(load_preset(PRESET))
    done = {}

    def op(i, loop):
        d = float(ctx.rng(0, i).uniform(*GATE8_WINDOW))
        t0 = time.perf_counter()
        r, err = point_request(base, d, ctx.tracer, f"point-{i}")
        loop.record(time.perf_counter() - t0)
        loop.end_round(1)
        ctx.cells += GRID_NODES
        ctx.check(f"op{i}", err <= TOL,
                  f"inversion round trip error {err:.3e} at {d:.6g}")
        done[i] = (d, r)

    def verify():
        if 0 not in done:
            return
        d, r = done[0]
        want = dense_average(replace(base, detunings=np.array([d])), d,
                             ctx.tracer, ctx.oracle, "oracle-point")
        err = oracle_error(r, want)
        ctx.oracle.max_err = max(ctx.oracle.max_err, err)
        ctx.check("op0", err <= TOL, f"oracle error {err:.3e} at {d:.6g}")

    return op, verify


# --- cli-cold ---------------------------------------------------------------

def run_cli(argv: list[str], tracer: Tracer, name: str, request: str):
    """One `python -m vaporplate.cli` process; returns (seconds, result)."""
    t0 = time.perf_counter()
    with tracer.span(name, request):
        proc = subprocess.run([sys.executable, "-m", "vaporplate.cli", *argv],
                              capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


def in_process_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"in-process {argv} exited {code}")
    return buf.getvalue()


def write_scan_csv(path: str, thetas, rng) -> tuple[float, float, float, float]:
    """A synthetic analyzer scan with gate 6's parameter ranges."""
    ad, pd = rng.uniform(0.0, 1.0), rng.uniform(0.05, math.pi - 0.05)
    am, e0 = rng.uniform(0.0, 0.5), rng.uniform(0.5, 2.0)
    scan = synthesize_scan(OpticalResponse(pd, 0.0, am + ad, am), thetas, e0)
    with open(path, "w") as fh:
        fh.write("theta_deg,intensity\n")
        for t, i in zip(scan.thetas, scan.intensities):
            fh.write(f"{math.degrees(t)!r},{i!r}\n")
    return ad, pd, am, e0


_NUM = r"([-+0-9.eE]+)"


def check_solve(stdout: str, want: OpticalResponse) -> str | None:
    for key in ("phi_plus", "phi_minus", "alpha_plus", "alpha_minus"):
        m = re.search(rf"^\s*{key}\s*=\s*{_NUM}", stdout, re.M)
        if m is None:
            return f"no {key} in output"
        got, ref = float(m.group(1)), getattr(want, key)
        # printed with 7 significant digits
        if not abs(got - ref) <= TOL * abs(ref):
            return f"{key} {got!r} != {ref!r}"
    return None


def check_invert(stdout: str, alpha_d: float, phi_d: float) -> str | None:
    ma = re.search(rf"^alpha_d\s*=\s*{_NUM}", stdout, re.M)
    mp = re.search(rf"^phi_d\s*=\s*{_NUM} deg", stdout, re.M)
    if ma is None or mp is None:
        return "no alpha_d/phi_d in output"
    err = max(abs(float(ma.group(1)) - alpha_d),
              abs(math.radians(float(mp.group(1))) - principal(phi_d)))
    return None if err <= TOL else f"round trip error {err:.3e}"


class CliCases:
    """The commands of one cli-cold round, with their expected outputs."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.reduced = load_preset("fig7-reduced15")
        self.expected = {
            "validate": in_process_stdout(["validate", "--preset", PRESET]),
            "export-table1": in_process_stdout(["export-table1"])}
        self.scans = []
        for k in range(CLI_CSV_PAIRS):
            for n, thetas in ((3, THETAS3), (19, THETAS19)):
                path = os.path.join(ctx.tmp, f"scan{k}_{n}.csv")
                truth = write_scan_csv(path, thetas, ctx.rng(2, k, n))
                self.scans.append((n, path, truth))

    def solve_reference(self, d: float, v: float) -> OpticalResponse:
        scn = self.reduced
        fields = dict(scn.fields)
        fields["signal"] = replace(fields["signal"], detuning=d)
        return dense_cell(scn.scheme, scn.transitions, scn.network, fields,
                          scn.medium, scn.sweep.geometry, v, Tracer(False),
                          OracleStats())

    def round(self, r: int):
        """[(name, argv, check(stdout) -> error or None)], seeded order."""
        rng = self.ctx.rng(0, r)
        d = float(rng.uniform(*GATE8_WINDOW))
        v = float(rng.uniform(-400.0, 400.0))
        cases = [
            ("validate", ["validate", "--preset", PRESET],
             lambda out: None if out == self.expected["validate"]
             else "output differs from the in-process run"),
            ("solve", ["solve", "--preset", "fig7-reduced15",
                       "--signal-detuning", repr(d), "--velocity", repr(v)],
             lambda out: check_solve(out, self.solve_reference(d, v))),
            ("export_table1", ["export-table1"],
             lambda out: None if out == self.expected["export-table1"]
             else "output differs from the in-process run")]
        for n, path, (ad, pd, am, e0) in self.scans[
                2 * (r % CLI_CSV_PAIRS):2 * (r % CLI_CSV_PAIRS) + 2]:
            cases.append((f"invert{n}",
                          ["invert", "--scan", path, "--e0", repr(e0),
                           "--alpha-minus", repr(am)],
                          lambda out, ad=ad, pd=pd: check_invert(out, ad, pd)))
        return [cases[k] for k in rng.permutation(len(cases))]


def cli_cold_workload(ctx: Context):
    """Rounds of fresh CLI processes: validate, solve, two inverts, export.

    Only whole rounds run, so every command has the same share of the
    latency sample."""
    cases = CliCases(ctx)

    def op(i, loop):
        procs = cases.round(i)
        for k, (name, argv, check) in enumerate(procs):
            if k:
                loop.attempted += 1
            op_id = f"op{i}.{k}"
            seconds, proc = run_cli(argv, ctx.tracer, f"cli.{name}",
                                    f"cli-{i}.{k}")
            loop.record(seconds)
            if proc.returncode != 0:
                ctx.fail(op_id, f"{name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-200:]}")
                continue
            err = check(proc.stdout)
            ctx.check(op_id, err is None, f"{name}: {err}")
        loop.end_round(len(procs))

    return op, lambda: None


# --- scans checked by the polarimetry probes --------------------------------

def _model_intensities(k_scale: float, u: float, w: float, thetas):
    th = np.asarray(thetas)
    return k_scale * ((1.0 + u) + (1.0 - u) * np.sin(th) - 2.0 * w * np.cos(th))


def _unphysical(rng, k_scale: float, thetas):
    """Intensities of the detector model with exp(-2 alpha_d) < 0 or
    |cos phi_d| > 1: no cell produces them, so inversion must refuse."""
    while True:
        if rng.random() < 0.5:
            u, w = rng.uniform(-0.9, -0.1), rng.uniform(-0.1, 0.1)
        else:
            u = rng.uniform(0.05, 0.9)
            w = math.sqrt(u) * rng.uniform(1.05, 1.5) * rng.choice([-1, 1])
        ii = _model_intensities(k_scale, u, w, thetas)
        if np.all(ii >= 0):
            return tuple(float(x) for x in ii)


@dataclass(frozen=True)
class ScanItem:
    kind: str                    # closed, lsq, reject3, reject_lsq
    args: tuple
    alpha_d: float = 0.0
    phi_d: float = 0.0

    @property
    def call(self):
        return invert_scan if self.kind in ("closed", "reject3") \
            else invert_scan_lsq


def scan_items(rng, n: int) -> list[ScanItem]:
    """Per SCAN_ROUND scans: five 3-sample, four 19-sample and one that must
    be rejected (repeated retardance or unphysical intensities)."""
    items = []
    for _ in range(0, n, SCAN_ROUND):
        for kind in rng.permutation(["closed"] * 5 + ["lsq"] * 4 + ["reject"]):
            ad, pd = rng.uniform(0.0, 1.0), rng.uniform(0.05, math.pi - 0.05)
            am, e0 = rng.uniform(0.0, 0.5), rng.uniform(0.5, 2.0)
            resp = OpticalResponse(pd, 0.0, am + ad, am)
            if kind == "closed":
                s = synthesize_scan(resp, THETAS3, e0)
                items.append(ScanItem(kind, (s.thetas, s.intensities, e0, am),
                                      ad, pd))
            elif kind == "lsq":
                s = synthesize_scan(resp, THETAS19, e0)
                items.append(ScanItem(kind, (s, e0, am), ad, pd))
            else:
                sub = int(rng.integers(4))
                k_scale = e0 * math.exp(-2.0 * am) / 4.0
                if sub == 0:        # repeated retardance in a triple
                    t = float(rng.choice(THETAS3))
                    th = tuple(rng.permutation([t, t, THETAS3[1] + 0.4]))
                    s = synthesize_scan(resp, th, e0)
                    items.append(ScanItem("reject3", (s.thetas, s.intensities,
                                                      e0, am)))
                elif sub == 1:      # unphysical triple
                    items.append(ScanItem("reject3", (
                        THETAS3, _unphysical(rng, k_scale, THETAS3), e0, am)))
                elif sub == 2:      # one retardance repeated 19 times
                    th = (float(rng.uniform(0.0, math.pi)),) * 19
                    s = synthesize_scan(resp, th, e0)
                    items.append(ScanItem("reject_lsq", (s, e0, am)))
                else:               # unphysical 19-sample scan
                    ii = _unphysical(rng, k_scale, THETAS19)
                    items.append(ScanItem("reject_lsq", (
                        LcrScan(THETAS19, ii, e0), e0, am)))
    return items[:n]


def check_scan(item: ScanItem, outcome) -> str | None:
    if item.kind.startswith("reject"):
        return None if isinstance(outcome, InversionError) \
            else "accepted a scan that no cell can produce"
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    err = roundtrip_error(outcome, item.alpha_d, item.phi_d)
    return None if err <= TOL else f"round trip error {err:.3e}"


WORKLOADS = {
    "sweep": sweep_workload,
    "operating-point": operating_point_workload,
    "cli-cold": cli_cold_workload,
}
