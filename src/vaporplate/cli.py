"""Command-line interface.

Angles cross this boundary in degrees; everything internal is radians.
Exit codes: 0 success, 1 validation or physics error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .atomic import load_table1
from .doppler import CO, COUNTER, doppler_shifts, sweep, write_sweep_csv
from .errors import ConfigError, VaporplateError
from .liouville import build_hamiltonian, steady_state, vectorize
from .polarimetry import (LcrScan, detector_intensity, invert_scan_lsq,
                          response_from_density)
from .scenario import PRESETS, Scenario, load_preset, load_scenario


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=PRESETS, help="bundled scenario")
    g.add_argument("--scenario", metavar="PATH", help="scenario YAML file")


def _get_scenario(args) -> Scenario:
    if args.preset:
        return load_preset(args.preset)
    return load_scenario(args.scenario)


def _apply_field_overrides(scn: Scenario, args) -> dict:
    fields = dict(scn.fields)
    if getattr(args, "signal_detuning", None) is not None:
        if "signal" not in fields:
            raise ConfigError("scenario has no signal field to detune")
        fields["signal"] = replace(fields["signal"],
                                   detuning=args.signal_detuning)
    if getattr(args, "pump_detuning", None) is not None:
        fields["pump"] = replace(fields["pump"], detuning=args.pump_detuning)
    return fields


def cmd_solve(args) -> int:
    scn = _get_scenario(args)
    fields = _apply_field_overrides(scn, args)
    geometry = args.geometry or \
        (scn.sweep.geometry if scn.sweep else COUNTER)
    shifts = (0.0, 0.0)
    if args.velocity:
        k_p = fields["pump"].k
        k_s = fields["signal"].k if "signal" in fields else 0.0
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
    scn = _get_scenario(args)
    spec = scn.sweep_spec(geometry=args.geometry,
                          detuning_points=args.points,
                          velocity_points=args.velocity_points)
    if args.pump_detuning is not None:
        fields = _apply_field_overrides(scn, args)
        spec = replace(spec, fields=fields)

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
    scn = _get_scenario(args)
    spec = scn.sweep_spec(geometry=args.geometry)
    delta_s = args.signal_detuning if args.signal_detuning is not None else 0.0
    (r,) = sweep(replace(spec, detunings=np.array([delta_s])))

    if args.voltages:
        thetas = [scn.analyzer.calibration.theta(v) for v in args.voltages]
        labels = [f"{v:g} V" for v in args.voltages]
    else:
        degs = args.thetas_deg or list(np.linspace(0.0, 180.0, 19))
        thetas = [math.radians(t) for t in degs]
        labels = [f"{t:g} deg" for t in degs]
    e0 = args.e0 if args.e0 is not None else scn.analyzer.e0
    print(f"# delta_s = {delta_s:g}, phi_d = {math.degrees(r.phi_d):.4f} deg, "
          f"alpha_d = {r.alpha_d:.6e}")
    print("retardance,theta_deg,intensity")
    for label, theta in zip(labels, thetas):
        i = detector_intensity(e0, r.alpha_minus, r.alpha_d, r.phi_d, theta)
        print(f"{label},{math.degrees(theta):.4f},{i:.8e}")
    return 0


def cmd_invert(args) -> int:
    rows = []
    with open(args.scan) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                theta_deg, intensity = (float(tok) for tok in line.split(","))
                finite = math.isfinite(theta_deg) and math.isfinite(intensity)
            except ValueError:
                if not rows and line[0].isalpha():
                    continue            # a header before the first data row
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
        print(f"  sweep: {scn.sweep.detuning_points} detunings x "
              f"{scn.sweep.velocity_points} velocities ({scn.sweep.geometry})")
    return 0


def cmd_export_table1(args) -> int:
    table = load_table1()
    def label(lev):
        # level labels contain commas; keep the CSV single-delimiter
        return str(lev).replace(",", " ")

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("ground," + ",".join(label(c) for c in table.cols) + "\n")
        for r, row in enumerate(table.rows):
            out.write(label(row) + "," +
                      ",".join("%.6g" % v for v in table.fractions[r]) + "\n")
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
                   help="worker processes, at most one per detuning and per "
                        "usable CPU (default 1)")
    p.add_argument("--points", type=_positive_int,
                   help="override detuning count")
    p.add_argument("--velocity-points", type=_positive_int)
    p.add_argument("--geometry", choices=(COUNTER, CO))
    p.add_argument("--pump-detuning", type=float, metavar="GAMMA_A")
    p.add_argument("--checkpoint", metavar="NPZ")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lcr", help="synthesized retarder scan at one detuning")
    _add_scenario_args(p)
    p.add_argument("--signal-detuning", type=float, metavar="GAMMA_A")
    p.add_argument("--geometry", choices=(COUNTER, CO))
    p.add_argument("--thetas-deg", type=float, nargs="+")
    p.add_argument("--voltages", type=float, nargs="+")
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
