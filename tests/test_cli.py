"""Command-line entry points: exit codes, output formats, round trips."""

import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import vaporplate
from vaporplate import (OpticalResponse, load_preset, read_sweep_csv,
                        synthesize_scan)
from vaporplate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_preset(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "fig1-ideal")
    assert code == 0
    assert "OK" in out
    assert "levels: 4" in out


def test_solve_prints_populations_and_response(capsys):
    code, out, _ = run(capsys, "solve", "--preset", "fig1-ideal",
                       "--signal-detuning", "0")
    assert code == 0
    assert "populations:" in out
    assert "phi_d" in out
    lines = out.splitlines()
    start = lines.index("populations:") + 1
    stop = lines.index("single-velocity response:")
    pops = [float(line.split()[-1]) for line in lines[start:stop]]
    # printed with 7 significant digits, so the sum carries rounding noise
    assert sum(pops) == pytest.approx(1.0, abs=1e-5)


def test_sweep_writes_readable_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "sweep.csv")
    code, out, _ = run(capsys, "sweep", "--preset", "fig1-ideal",
                       "--out", out_csv, "--points", "5")
    assert code == 0
    assert "wrote 5 rows" in out
    det, responses = read_sweep_csv(out_csv)
    assert len(det) == 5 and len(responses) == 5
    with open(out_csv) as fh:
        assert fh.readline().startswith("# vaporplate sweep CSV")


def test_sweep_with_unreadable_checkpoint_exits_one(tmp_path, capsys):
    """A --checkpoint file that is not a numpy file ends in one error line
    naming it and exit 1, and is left as it was."""
    ck = tmp_path / "notes.txt"
    ck.write_text("not a checkpoint\n")
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--preset", "fig1-ideal",
                       "--out", str(out_csv), "--points", "5",
                       "--checkpoint", str(ck))
    assert code == 1
    assert err.startswith("error:") and str(ck) in err
    assert len(err.splitlines()) == 1
    assert ck.read_text() == "not a checkpoint\n"
    assert not out_csv.exists()


def test_import_loads_neither_multiprocessing_nor_yaml():
    """A fresh interpreter importing the package does not load the process
    pool's multiprocessing or the YAML parser: only a pooled sweep and
    scenario loading use them."""
    src = str(Path(vaporplate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys; before = set(sys.modules); import vaporplate; "
            "print(sorted({'multiprocessing', 'yaml'} & "
            "(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_lcr_scan_output(capsys):
    code, out, _ = run(capsys, "lcr", "--preset", "fig1-ideal",
                       "--signal-detuning", "-50",
                       "--thetas-deg", "0", "90", "180")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "retardance,theta_deg,intensity"
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[2]) >= 0.0


def test_invert_round_trip(tmp_path, capsys):
    response = OpticalResponse(phi_plus=0.35, phi_minus=0.05,
                               alpha_plus=0.22, alpha_minus=0.10)
    thetas = np.radians([30.0, 90.0, 150.0])
    scan = synthesize_scan(response, thetas, e0=2.0)
    path = tmp_path / "scan.csv"
    path.write_text("theta_deg,intensity\n" + "\n".join(
        f"{math.degrees(t):.10f},{i:.12e}"
        for t, i in zip(scan.thetas, scan.intensities)))
    code, out, _ = run(capsys, "invert", "--scan", str(path),
                       "--e0", "2.0", "--alpha-minus", "0.10")
    assert code == 0
    got = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        got[key.strip()] = value.split()[0]
    assert float(got["alpha_d"]) == pytest.approx(response.alpha_d, abs=1e-6)
    assert float(got["phi_d"]) == pytest.approx(
        math.degrees(response.phi_d), abs=1e-4)


def test_invert_least_squares_path(tmp_path, capsys):
    response = OpticalResponse(phi_plus=0.9, phi_minus=0.1,
                               alpha_plus=0.15, alpha_minus=0.05)
    thetas = np.radians(np.linspace(10.0, 170.0, 9))
    scan = synthesize_scan(response, thetas, e0=1.0)
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(
        f"{math.degrees(t):.10f},{i:.12e}"
        for t, i in zip(scan.thetas, scan.intensities)))
    code, out, _ = run(capsys, "invert", "--scan", str(path),
                       "--e0", "1.0", "--alpha-minus", "0.05")
    assert code == 0
    alpha_line = next(l for l in out.splitlines() if l.startswith("alpha_d"))
    assert float(alpha_line.split("=")[1]) == pytest.approx(
        response.alpha_d, abs=1e-6)


def test_export_branching_table(tmp_path, capsys):
    out_csv = str(tmp_path / "branching.csv")
    code, _, _ = run(capsys, "export-table1", "--out", out_csv)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert len(lines) == 9          # header + 8 ground rows
    first = lines[1].split(",")
    assert len(first) == 9          # label + 8 columns


def test_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: 99\nscheme: {}\ndecay: {}\nfields: {}\n")
    code, _, err = run(capsys, "validate", "--scenario", str(bad))
    assert code == 1
    assert "error:" in err


def test_sweep_point_counts_must_be_positive(tmp_path, capsys):
    for flag in ("--points", "--velocity-points", "--workers"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig1-ideal", "--out",
                  str(tmp_path / "x.csv"), flag, "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


def test_io_error_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--scenario", "/no/such/file.yaml")
    assert code == 2
    assert "error:" in err


def test_invert_requires_three_points(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("10.0,0.5\n20.0,0.6\n")
    code, _, err = run(capsys, "invert", "--scan", str(path), "--e0", "1.0")
    assert code == 1
    assert "3 scan points" in err


def test_invert_rejects_malformed_rows(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for row in ("30,x", "30,0.7,1", "x,0.7", "nan,0.7", "30,inf"):
        path.write_text(f"10,0.5\n20,0.6\n{row}\n")
        code, out, err = run(capsys, "invert", "--scan", str(path),
                             "--e0", "1.0")
        assert code == 1 and out == ""
        assert f"{path}, line 3" in err and "theta_deg,intensity" in err
    path.write_text("nan,0.2\n10,0.5\n20,0.6\n30,0.7\n")   # not a header
    code, _, err = run(capsys, "invert", "--scan", str(path), "--e0", "1.0")
    assert code == 1 and f"{path}, line 1" in err


def test_nan_input_exits_one(tmp_path, capsys):
    text = resources.files("vaporplate.data").joinpath("fig1-ideal.yaml") \
        .read_text()
    assert "rabi: 10.0" in text
    bad = tmp_path / "nan.yaml"
    bad.write_text(text.replace("rabi: 10.0", "rabi: .nan"))
    code, out, err = run(capsys, "solve", "--scenario", str(bad))
    assert code == 1 and "Rabi" in err and "nan" not in out
    code, _, err = run(capsys, "lcr", "--preset", "fig1-ideal",
                       "--signal-detuning", "nan")
    assert code == 1 and "not finite" in err


@pytest.mark.parametrize("argv", [
    ("--e0", "nan"), ("--e0", "-2"), ("--e0", "0"), ("--e0", "inf"),
    ("--thetas-deg", "nan", "90"), ("--voltages", "nan"),
    ("--voltages", "2", "inf")])
def test_lcr_rejects_bad_analyzer_inputs(capsys, argv):
    code, out, err = run(capsys, "lcr", "--preset", "fig1-ideal", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[0] in err


def test_invert_rejects_non_finite_scale_and_attenuation(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    path.write_text("30,0.5\n90,0.6\n150,0.2\n")
    for argv in (("--e0", "nan"), ("--e0", "-1"),
                 ("--e0", "1", "--alpha-minus", "nan")):
        code, out, err = run(capsys, "invert", "--scan", str(path), *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _reduced15_copy(tmp_path, edit):
    """fig7-reduced15 written to a scenario file after edit(cfg)."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig7-reduced15.yaml").read_text())
    edit(cfg)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(cfg):
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


def _resolved_f_values(cfg):
    del cfg["scheme"]["manifolds"][4]["f"]
    cfg["scheme"]["manifolds"][4]["f_values"] = [1, 2]


@pytest.mark.parametrize("edit", [
    _set("scheme", "manifolds", 2, "j", 0.7),
    _set("scheme", "manifolds", 2, "j", math.inf),
    _set("scheme", "nuclear_spin", 1.7),
    _set("scheme", "nuclear_spin", math.nan),
    _set("scheme", "manifolds", 0, "f", "x"),
    _set("scheme", "manifolds", 3, "f", -1),
    _resolved_f_values,
], ids=["j-0.7", "j-inf", "spin-1.7", "spin-nan", "f-x", "f-minus-1",
        "resolved-f-values"])
def test_bad_angular_momentum_exits_one(tmp_path, capsys, edit):
    path = _reduced15_copy(tmp_path, edit)
    code, out, err = run(capsys, "validate", "--scenario", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("edit, command, reason", [
    (_set("medium", "n_atom_cm3", math.nan), "sweep", "medium"),
    (_set("medium", "omega_min", math.nan), "sweep", "medium"),
    (_set("medium", "length_cm", math.inf), "sweep", "medium"),
    (_set("decay", "gamma_b", math.nan), "validate", "decay rates"),
    (_set("sweep", "velocity", "temperature_k", -1.0), "sweep",
     "temperature"),
    (_set("sweep", "velocity", "points", 0), "validate",
     "sweep.velocity.points"),
    (_set("sweep", "detuning_points", 0), "validate",
     "sweep.detuning_points"),
], ids=["n-atom-nan", "omega-min-nan", "length-inf", "gamma-b-nan",
        "temperature-minus-1", "velocity-points-0", "detuning-points-0"])
def test_bad_numbers_exit_one_without_csv(tmp_path, capsys, edit, command,
                                          reason):
    path = _reduced15_copy(tmp_path, edit)
    out_csv = tmp_path / "out.csv"
    argv = ["validate", "--scenario", path] if command == "validate" else \
        ["sweep", "--scenario", path, "--out", str(out_csv), "--points", "3",
         "--velocity-points", "4"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and reason in err
    assert not out_csv.exists()


def _delete(*keys):
    def edit(cfg):
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    return edit


@pytest.mark.parametrize("edit, path", [
    (_delete("medium", "omega_min"), "medium.omega_min"),
    (_delete("scheme", "manifolds", 2, "tier"), "scheme.manifolds[2].tier"),
    (_delete("scheme", "manifolds", 0, "label"),
     "scheme.manifolds[0].label"),
    (_delete("sweep", "detuning_start"), "sweep.detuning_start"),
], ids=["omega-min", "tier", "label", "detuning-start"])
def test_missing_required_key_exits_one(tmp_path, capsys, edit, path):
    code, out, err = run(capsys, "validate", "--scenario",
                         _reduced15_copy(tmp_path, edit))
    assert code == 1 and out == ""
    assert err == f"error: {path} is required\n"


@pytest.mark.parametrize("edit, key", [
    (_set("sweep", "velocity", "temperature_k", -1.0), "temperature_k"),
    (_set("sweep", "velocity", "mass_amu", 0.0), "mass_amu"),
    (_set("sweep", "velocity", "span", math.nan), "span"),
    (_set("sweep", "velocity", "kind", "trapezoid"), "kind"),
    (_set("sweep", "detuning_stop", math.inf), "detuning_stop"),
    (_set("sweep", "velocity", "points", 800), "points"),
], ids=["temperature-minus-1", "mass-0", "span-nan", "kind", "stop-inf",
        "gauss-hermite-800"])
def test_validate_rejects_bad_sweep_settings(tmp_path, capsys, edit, key):
    code, out, err = run(capsys, "validate", "--scenario",
                         _reduced15_copy(tmp_path, edit))
    assert code == 1 and out == ""
    assert err.startswith("error: sweep.") and key in err
    assert len(err.splitlines()) == 1


def test_validate_accepts_many_uniform_velocity_points(tmp_path, capsys):
    """The Gauss-Hermite node cap applies to that kind alone."""
    def edit(cfg):
        cfg["sweep"]["velocity"].update(kind="uniform", points=800)
    code, out, _ = run(capsys, "validate", "--scenario",
                       _reduced15_copy(tmp_path, edit))
    assert code == 0 and "x 800 velocities" in out


def test_scenario_without_velocity_points_sweeps(tmp_path, capsys):
    """The default velocity count is one the default grid can build."""
    path = _reduced15_copy(tmp_path, _delete("sweep", "velocity", "points"))
    code, out, _ = run(capsys, "validate", "--scenario", path)
    assert code == 0 and "x 200 velocities" in out
    out_csv = tmp_path / "out.csv"
    code, _, _ = run(capsys, "sweep", "--scenario", path, "--out",
                     str(out_csv), "--points", "2")
    detunings, responses = read_sweep_csv(str(out_csv))
    assert code == 0 and len(responses) == 2
    assert all(np.all(np.isfinite(r.as_tuple())) for r in responses)
