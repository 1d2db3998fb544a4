"""Command-line interface.

Angles cross this boundary in degrees; everything internal is radians.
Exit codes: 0 success, 1 validation or physics error, 2 I/O error.

Each command imports the modules it runs, so a process loads only those:
`invert` needs neither numpy nor the model, and `export-table1` prints the
shipped branching table, checked, without numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .errors import ConfigError, VaporplateError
from .names import CO, COUNTER, MAX_POINTS, PRESETS


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _point_count(text: str) -> int:
    """A detuning or velocity point count, bounded as the scenario keys."""
    n = _positive_int(text)
    if n > MAX_POINTS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_POINTS}, got {n}")
    return n


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=PRESETS, help="bundled scenario")
    g.add_argument("--scenario", metavar="PATH", help="scenario YAML file")


def _get_scenario(args):
    from .scenario import load_preset, load_scenario
    if args.preset:
        return load_preset(args.preset)
    return load_scenario(args.scenario)


def _apply_field_overrides(scn, args) -> dict:
    fields = dict(scn.fields)
    for role in ("signal", "pump"):
        detuning = getattr(args, f"{role}_detuning", None)
        if detuning is not None:
            if role not in fields:
                raise ConfigError(f"scenario has no {role} field to detune")
            fields[role] = replace(fields[role], detuning=detuning)
    return fields


def cmd_solve(args) -> int:
    if not math.isfinite(args.velocity):
        raise ConfigError(f"--velocity must be finite, got {args.velocity!r}")
    from .doppler import doppler_shifts
    from .liouville import build_hamiltonian, steady_state, vectorize
    from .polarimetry import response_from_density
    scn = _get_scenario(args)
    fields = _apply_field_overrides(scn, args)
    geometry = args.geometry or \
        (scn.sweep.geometry if scn.sweep else COUNTER)
    shifts = (0.0, 0.0)
    if args.velocity:
        k_p, k_s = (fields[role].k if role in fields else 0.0
                    for role in ("pump", "signal"))
        shifts = doppler_shifts(args.velocity, geometry, k_p, k_s)
    h = build_hamiltonian(scn.scheme, scn.transitions, fields,
                          velocity_shifts=shifts)
    rho = steady_state(vectorize(h, scn.scheme, scn.network))

    print(f"scenario: {scn.name}")
    print("populations:")
    for k, lev in enumerate(scn.scheme.levels):
        print(f"  {str(lev):24s} {rho[k, k].real:.6e}")
    if scn.medium is not None and "signal" in fields:
        r = response_from_density(rho, scn.scheme, scn.transitions,
                                  fields["signal"], scn.medium)
        print("single-velocity response:")
        print(f"  phi_plus    = {r.phi_plus:.6e} rad")
        print(f"  phi_minus   = {r.phi_minus:.6e} rad")
        print(f"  alpha_plus  = {r.alpha_plus:.6e}")
        print(f"  alpha_minus = {r.alpha_minus:.6e}")
        print(f"  phi_d       = {math.degrees(r.phi_d):.4f} deg")
        print(f"  alpha_d     = {r.alpha_d:.6e}")
    return 0


def cmd_sweep(args) -> int:
    if args.workers > 1:
        # worker threads and OpenBLAS's own threads contend for the cores:
        # one BLAS thread per worker, set before numpy loads, unless the
        # user chose a count
        import os
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .doppler import sweep, write_sweep_csv
    scn = _get_scenario(args)
    spec = scn.sweep_spec(geometry=args.geometry,
                          detuning_points=args.points,
                          velocity_points=args.velocity_points)
    if args.pump_detuning is not None:
        spec = replace(spec, fields=_apply_field_overrides(scn, args))

    progress = None
    if args.progress:
        def progress(done, total):
            print(f"\r{done}/{total} detunings", end="", file=sys.stderr,
                  flush=True)
    responses = sweep(spec, workers=args.workers, progress=progress,
                      checkpoint=args.checkpoint)
    if args.progress:
        print(file=sys.stderr)
    write_sweep_csv(args.out, spec.detunings, responses)
    print(f"wrote {len(responses)} rows to {args.out}")
    return 0


def cmd_lcr(args) -> int:
    if args.e0 is not None and not 0 < args.e0 < math.inf:
        raise ConfigError(f"--e0 must be finite and > 0, got {args.e0!r}")
    for option, values in (("--thetas-deg", args.thetas_deg),
                           ("--voltages", args.voltages)):
        if values and not all(map(math.isfinite, values)):
            raise ConfigError(f"{option} values must be finite")
    import numpy as np
    from .doppler import sweep
    from .polarimetry import synthesize_scan
    scn = _get_scenario(args)
    if args.voltages:
        thetas = scn.analyzer.calibration.theta(args.voltages)
        labels = [f"{v:g} V" for v in args.voltages]
    else:
        degs = args.thetas_deg or list(np.linspace(0.0, 180.0, 19))
        thetas = [math.radians(t) for t in degs]
        labels = [f"{t:g} deg" for t in degs]
    spec = scn.sweep_spec(geometry=args.geometry)
    delta_s = args.signal_detuning if args.signal_detuning is not None else 0.0
    (r,) = sweep(replace(spec, detunings=np.array([delta_s])))
    e0 = args.e0 if args.e0 is not None else scn.analyzer.e0
    scan = synthesize_scan(r, thetas, e0)
    print(f"# delta_s = {delta_s:g}, phi_d = {math.degrees(r.phi_d):.4f} deg, "
          f"alpha_d = {r.alpha_d:.6e}")
    print("retardance,theta_deg,intensity")
    for label, theta, i in zip(labels, scan.thetas, scan.intensities):
        print(f"{label},{math.degrees(theta):.4f},{i:.8e}")
    return 0


def cmd_invert(args) -> int:
    from .analyzer import LcrScan, invert_scan_lsq
    with open(args.scan, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.scan}: not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    rows = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            theta_deg, intensity = (float(tok) for tok in line.split(","))
            finite = math.isfinite(theta_deg) and math.isfinite(intensity)
        except ValueError:
            if not rows and line[0].isalpha():
                continue                # a header before the first data row
            finite = False
        if not finite:
            raise ConfigError(f"{args.scan}, line {lineno}: expected "
                              f"finite theta_deg,intensity, got {line!r}")
        rows.append((math.radians(theta_deg), intensity))
    if len(rows) < 3:
        raise ConfigError(f"{args.scan}: need at least 3 scan points")
    thetas, intensities = zip(*rows)
    res = invert_scan_lsq(LcrScan(thetas, intensities, args.e0), args.e0,
                          args.alpha_minus)
    print(f"alpha_d  = {res.alpha_d:.6e}")
    print(f"phi_d    = {math.degrees(res.phi_d):.4f} deg "
          f"(branches: {', '.join(f'{math.degrees(b):.4f}' for b in res.phi_d_branches)})")
    print(f"residual = {res.residual:.3e}")
    return 0


def cmd_validate(args) -> int:
    from .liouville import build_hamiltonian, steady_state, vectorize
    scn = _get_scenario(args)
    h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields)
    liou = vectorize(h, scn.scheme, scn.network)
    steady_state(liou)
    n_chan = sum(len(t) for _, t in scn.network.channels)
    print(f"{scn.name}: OK")
    print(f"  levels: {scn.scheme.n_levels} "
          f"(vector dimension {len(liou.coords)})")
    print(f"  transitions: {len(scn.transitions.entries)} "
          f"({len(scn.transitions.for_field('pump'))} pump, "
          f"{len(scn.transitions.for_field('signal'))} signal)")
    print(f"  decay channels: {n_chan}")
    if scn.sweep is not None:
        nodes = scn.sweep.velocity_points
        print(f"  sweep: {scn.sweep.detuning_points} detunings x {nodes} "
              f"{'velocity' if nodes == 1 else 'velocities'} "
              f"({scn.sweep.geometry})")
    return 0


def cmd_export_table1(args) -> int:
    from .atomic import TABLE1, TABLE1_COLS, TABLE1_ROWS, check_branching
    check_branching(TABLE1, len(TABLE1_ROWS), len(TABLE1_COLS))
    def label(lev):
        # level labels contain commas; keep the CSV single-delimiter
        return str(lev).replace(",", " ")

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("ground," + ",".join(label(c) for c in TABLE1_COLS) + "\n")
        for row, values in zip(TABLE1_ROWS, TABLE1):
            out.write(label(row) + "," +
                      ",".join("%.12g" % v for v in values) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaporplate",
        description="Steady-state polarization response of a pumped vapor cell")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single steady-state solve")
    _add_scenario_args(p)
    p.add_argument("--signal-detuning", type=float, metavar="GAMMA_A")
    p.add_argument("--pump-detuning", type=float, metavar="GAMMA_A")
    p.add_argument("--velocity", type=float, default=0.0, metavar="M_PER_S")
    p.add_argument("--geometry", choices=(COUNTER, CO))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="Doppler-averaged detuning sweep to CSV")
    _add_scenario_args(p)
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker threads, at most one per usable CPU and per "
                        "detuning (per velocity node in a sweep of many "
                        "detunings); more than one sets OPENBLAS_NUM_THREADS "
                        "to 1 unless it is set (default 1)")
    p.add_argument("--points", type=_point_count,
                   help="override detuning count")
    p.add_argument("--velocity-points", type=_point_count)
    p.add_argument("--geometry", choices=(COUNTER, CO))
    p.add_argument("--pump-detuning", type=float, metavar="GAMMA_A")
    p.add_argument("--checkpoint", metavar="NPZ")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lcr", help="synthesized retarder scan at one detuning")
    _add_scenario_args(p)
    p.add_argument("--signal-detuning", type=float, metavar="GAMMA_A")
    p.add_argument("--geometry", choices=(COUNTER, CO))
    g = p.add_mutually_exclusive_group()
    g.add_argument("--thetas-deg", type=float, nargs="+")
    g.add_argument("--voltages", type=float, nargs="+")
    p.add_argument("--e0", type=float)
    p.set_defaults(func=cmd_lcr)

    p = sub.add_parser("invert",
                       help="recover alpha_d/phi_d from a retarder scan")
    p.add_argument("--scan", required=True,
                   metavar="CSV", help="columns: theta_deg,intensity")
    p.add_argument("--e0", type=float, required=True)
    p.add_argument("--alpha-minus", type=float, default=0.0)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("validate", help="check a scenario end to end")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-table1",
                       help="print the shipped effective branching table")
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=cmd_export_table1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VaporplateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
