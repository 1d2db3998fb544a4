"""Command-line entry points: exit codes, output formats, round trips."""

import dataclasses
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
from vaporplate import (COUNTER, OpticalResponse, VelocityGrid,
                        build_hamiltonian, detector_intensity,
                        doppler_shifts, load_preset, load_table1,
                        read_sweep_csv,
                        response_from_density, scenario_from_config,
                        steady_state, sweep, synthesize_scan, vectorize)
from vaporplate.cli import build_parser, main
from vaporplate.names import MAX_POINTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_preset(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "fig1-ideal")
    assert code == 0
    assert "OK" in out
    assert "levels: 4" in out
    # the delta grid's one node, which is what the sweep solves
    assert "sweep: 241 detunings x 1 velocity (" in out


@pytest.mark.parametrize("preset", ["fig1-ideal", "fig8-qwp"])
def test_velocity_points_for_a_delta_grid_exit_one_without_csv(
        tmp_path, capsys, preset):
    """--velocity-points on a preset whose velocity grid is delta is
    refused in one error line, not ignored."""
    out_csv = tmp_path / "out.csv"
    code, out, err = run(capsys, "sweep", "--preset", preset, "--points",
                         "3", "--velocity-points", "50", "--out",
                         str(out_csv))
    assert code == 1 and out == ""
    assert err.startswith("error: 50 velocity points") and "delta" in err
    assert len(err.splitlines()) == 1
    assert not out_csv.exists()


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


def csv_rows(path):
    detunings, responses = read_sweep_csv(str(path))
    return detunings, np.array([r.as_tuple() for r in responses])


def library_rows(spec):
    return np.array([r.as_tuple() for r in sweep(spec)])


def test_sweep_pump_detuning_gives_that_specs_rows(tmp_path, capsys):
    """sweep --pump-detuning writes the rows of the preset's spec with the
    pump at that detuning, which differ from the preset's own."""
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--preset", "fig1-ideal", "--out",
                     str(out_csv), "--points", "5", "--pump-detuning", "-40")
    assert code == 0
    spec = load_preset("fig1-ideal").sweep_spec(detuning_points=5)
    fields = dict(spec.fields)
    fields["pump"] = dataclasses.replace(fields["pump"], detuning=-40.0)
    detunings, rows = csv_rows(out_csv)
    assert np.array_equal(detunings, spec.detunings)
    want = library_rows(dataclasses.replace(spec, fields=fields))
    assert np.allclose(rows, want, rtol=1e-11, atol=1e-15)
    assert not np.allclose(rows, library_rows(spec), rtol=1e-6)


def test_sweep_progress_counts_detunings(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--preset", "fig1-ideal", "--out",
                       str(tmp_path / "sweep.csv"), "--points", "3",
                       "--progress")
    assert code == 0
    assert err == "\r1/3 detunings\r2/3 detunings\r3/3 detunings\n"


def test_uniform_velocity_grid_sweeps_its_rows(tmp_path, capsys):
    """A scenario with a uniform velocity grid sweeps over
    VelocityGrid.uniform with the scenario's count, temperature, mass and
    span."""
    def edit(cfg):
        cfg["sweep"]["velocity"] = {"kind": "uniform", "points": 7,
                                    "temperature_k": 380.0, "span": 3.0}
    path = _preset_copy(tmp_path, "fig1-ideal", edit)
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--scenario", path, "--out",
                     str(out_csv), "--points", "4")
    assert code == 0
    spec = load_preset("fig1-ideal").sweep_spec(detuning_points=4)
    grid = VelocityGrid.uniform(7, 380.0, spec.grid.mass_amu, 3.0)
    _, rows = csv_rows(out_csv)
    want = library_rows(dataclasses.replace(spec, grid=grid))
    assert np.allclose(rows, want, rtol=1e-11, atol=1e-15)
    assert not np.allclose(rows, library_rows(spec), rtol=1e-6)


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


def python_process(*args, env=os.environ):
    """`python *args` run to a zero exit with this package on the path and
    the environment env."""
    src = str(Path(vaporplate.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def fresh_python(code, *args):
    """stdout of `python -c code *args` with this package on the path."""
    return python_process("-c", code, *args).stdout


def test_import_loads_neither_multiprocessing_nor_yaml():
    """A fresh interpreter importing the package loads none of its
    submodules, so neither numpy, multiprocessing, the thread pool's
    concurrent.futures, the YAML parser nor hashlib: the public names load
    their modules on first use, and only a pooled sweep, scenario loading
    and a checkpoint's fingerprint use the last three."""
    out = fresh_python(
        "import sys; before = set(sys.modules); import vaporplate; "
        "new = set(sys.modules) - before; "
        "print(sorted({'numpy', 'multiprocessing', 'concurrent', 'yaml',"
        " 'hashlib'} & new),"
        " sorted(m for m in new if m.startswith('vaporplate.')))")
    assert out.strip() == "[] []"


@pytest.mark.parametrize("workers, given, want", [
    ("2", None, "1"), ("1", None, None), ("2", "3", "3")])
def test_pooled_sweep_pins_blas_threads_unless_set(tmp_path, workers, given,
                                                   want):
    """`vaporplate sweep --workers N` with N > 1 sets OPENBLAS_NUM_THREADS
    to 1 before numpy loads; one worker leaves it unset, and a value the
    user set stays."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = python_process(
        "-c", "import os, sys\n"
        "from vaporplate.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))",
        "sweep", "--preset", "fig1-ideal", "--points", "3",
        "--out", str(tmp_path / "sweep.csv"), "--workers", workers,
        env=env).stdout
    assert out.splitlines()[-1] == f"0 {want}"


def test_invert_process_loads_no_numpy(tmp_path):
    """`vaporplate invert` run as a program fits the scan without loading
    numpy."""
    response = OpticalResponse(phi_plus=1.1, phi_minus=0.2,
                               alpha_plus=0.4, alpha_minus=0.15)
    scan = synthesize_scan(response, np.radians(np.linspace(0, 180, 19)),
                           e0=1.3)
    path = tmp_path / "scan.csv"
    path.write_text("theta_deg,intensity\n" + "".join(
        f"{math.degrees(t)!r},{i!r}\n"
        for t, i in zip(scan.thetas, scan.intensities)))
    out = fresh_python(
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('vaporplate.cli', run_name='__main__')\n"
        "finally:\n"
        "    print('numpy loaded:', 'numpy' in sys.modules)",
        "invert", "--scan", str(path), "--e0", "1.3",
        "--alpha-minus", "0.15")
    lines = out.splitlines()
    assert lines[-1] == "numpy loaded: False"
    assert lines[0].startswith("alpha_d")
    assert float(lines[0].split("=")[1]) == pytest.approx(response.alpha_d,
                                                          abs=1e-6)


def test_export_table1_process_loads_no_numpy():
    """`vaporplate export-table1` run as a program prints the shipped table
    without loading numpy."""
    out = fresh_python(
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('vaporplate.cli', run_name='__main__')\n"
        "finally:\n"
        "    print('numpy loaded:', 'numpy' in sys.modules)",
        "export-table1")
    lines = out.splitlines()
    assert lines[-1] == "numpy loaded: False"
    assert lines[0].startswith("ground,6S1/2(F=2 mF=-2)")
    assert len(lines) == 10


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of glibc's malloc")
def test_warm_one_detuning_requests_take_no_page_faults():
    """Warm one-detuning fig7-full sweeps touch no new memory pages, on the
    preset's 200-node Gauss-Hermite grid (74 nodes solved, so the velocity
    kernel's temporaries are at most 116 x 74 floats, 69 kB) and on a
    200-node uniform grid (all 200 solved, 116 x 200 floats, 186 kB): the
    temporaries are reused from the heap, not given back to the system and
    faulted in afresh on every request.  That holds only while glibc's
    dynamic malloc thresholds sit above them, which the free of
    vectorize's full-size generator (258 x 258 complex, 1 MB) brings
    about: it raises the mmap threshold to 1 MB and the trim threshold to
    2 MB.  With the thresholds fixed at their 128 kB defaults
    (MALLOC_MMAP_THRESHOLD_=131072, which also stops the trim threshold
    moving), warm requests took 169-187 faults each on the Gauss-Hermite
    grid and 648-705 on the uniform one, against at most 0.1 here."""
    out = fresh_python(
        "import dataclasses, resource\n"
        "import numpy as np\n"
        "from vaporplate import VelocityGrid, load_preset, sweep\n"
        "spec = load_preset('fig7-full').sweep_spec(velocity_points=200)\n"
        "for grid in (spec.grid, VelocityGrid.uniform(200)):\n"
        "    def request(d):\n"
        "        sweep(dataclasses.replace(spec, grid=grid,\n"
        "                                  detunings=np.array([d])))\n"
        "    request(245.0)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for d in np.linspace(230.0, 260.0, 50):\n"
        "        request(float(d))\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "          - before)")
    faults = [int(line) for line in out.split()]
    assert len(faults) == 2
    assert all(count <= 10 * 50 for count in faults), faults


def test_lcr_at_an_extreme_detuning_prints_no_warning():
    """A signal detuning so large that the velocity kernel overflows: the
    dense solve gives the scan, exit 0, and nothing is printed to stderr."""
    proc = python_process("-m", "vaporplate.cli", "lcr", "--preset",
                          "fig1-ideal", "--signal-detuning", "1e300")
    assert proc.stderr == ""
    assert proc.stdout


def test_atomic_import_loads_no_numpy():
    """numpy is imported by the code in `atomic` that builds arrays, not by
    the import."""
    out = fresh_python("import sys, vaporplate.atomic; "
                       "print('numpy' in sys.modules)")
    assert out.strip() == "False"


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


def test_lcr_voltages_output(capsys):
    """--voltages maps each voltage through the default calibration (2 V to
    pi, 8 V to 0.1 rad) and prints the detector intensity of the sweep's
    response at that retardance, to the digits printed."""
    code, out, _ = run(capsys, "lcr", "--preset", "fig1-ideal",
                       "--signal-detuning", "-50", "--voltages", "2", "8")
    assert code == 0
    scn = load_preset("fig1-ideal")
    spec = scn.sweep_spec()
    (r,) = sweep(dataclasses.replace(spec, detunings=np.array([-50.0])))
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["2 V", "180.0000"],
                                         ["8 V", "5.7296"]]
    for row, theta in zip(rows, (math.pi, 0.10)):
        want = detector_intensity(scn.analyzer.e0, r.alpha_minus, r.alpha_d,
                                  r.phi_d, theta)
        assert row[2] == f"{want:.8e}"


@pytest.mark.parametrize("voltages, named", [
    (["-3", "50"], "-3 V"), (["2", "50"], "50 V"), (["10.5"], "10.5 V")])
def test_lcr_voltage_outside_the_calibration_exits_one(capsys, voltages,
                                                       named):
    """A voltage outside the calibration's [0, 10] V is one error line
    naming it, not the retardance at the nearer end."""
    code, out, err = run(capsys, "lcr", "--preset", "fig1-ideal",
                         "--signal-detuning", "-50", "--voltages", *voltages)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_lcr_voltages_follow_the_scenario_calibration(tmp_path, capsys):
    """A scenario's analyzer.lcr_calibration and e0 map --voltages to
    retardances and intensities in place of the default calibration."""
    def edit(cfg):
        cfg["analyzer"] = {"e0": 2.0, "lcr_calibration": {
            "voltages": [0.0, 4.0], "thetas": [2.0, 0.0]}}
    path = _preset_copy(tmp_path, "fig1-ideal", edit)
    code, out, _ = run(capsys, "lcr", "--scenario", path,
                       "--signal-detuning", "-50", "--voltages", "1", "3")
    assert code == 0
    spec = load_preset("fig1-ideal").sweep_spec()
    (r,) = sweep(dataclasses.replace(spec, detunings=np.array([-50.0])))
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["1 V", "85.9437"],
                                         ["3 V", "28.6479"]]
    for row, theta in zip(rows, (1.5, 0.5)):
        want = detector_intensity(2.0, r.alpha_minus, r.alpha_d, r.phi_d,
                                  theta)
        assert row[2] == f"{want:.8e}"


def test_lcr_thetas_and_voltages_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lcr", "--preset", "fig1-ideal", "--voltages", "2",
              "--thetas-deg", "45", "90"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with" in out.err


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
    """The exported CSV reads back to the shipped fractions exactly, and
    --out writes the bytes the command prints."""
    out_csv = tmp_path / "branching.csv"
    code, _, _ = run(capsys, "export-table1", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    lines = text.splitlines()
    assert len(lines) == 9          # header + 8 ground rows
    values = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
    assert values == load_table1().fractions.tolist()
    code, stdout, _ = run(capsys, "export-table1")
    assert code == 0 and stdout == text


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


def test_sweep_point_counts_stop_at_the_scenario_bound(tmp_path, capsys):
    """--points and --velocity-points stop where the scenario keys do;
    checked by parsing alone, so nothing is allocated."""
    for flag in ("--points", "--velocity-points"):
        argv = ["sweep", "--preset", "fig7-full", "--out",
                str(tmp_path / "x.csv"), flag]
        args = build_parser().parse_args(argv + [str(MAX_POINTS)])
        assert MAX_POINTS in (args.points, args.velocity_points)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [str(MAX_POINTS + 1)])
        assert exc.value.code == 2
        assert f"must be <= {MAX_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("content, where", [
    (b"name: [unclosed\n", ", line 2"),
    (b"name: \xff\xfe\n", ": not UTF-8 text")])
def test_malformed_yaml_exits_one(tmp_path, capsys, content, where):
    """A scenario file that is not YAML text ends in one error line naming
    the file and where it breaks, not in a traceback."""
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(content)
    code, out, err = run(capsys, "validate", "--scenario", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{bad}{where}" in err


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


def test_invert_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    """A scan file that is not UTF-8 text ends in one error line naming
    the file, not in a UnicodeDecodeError traceback."""
    path = tmp_path / "scan.csv"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "invert", "--scan", str(path), "--e0", "1")
    assert code == 1 and out == ""
    assert err == f"error: {path}: not UTF-8 text: invalid start byte at " \
        "byte 0\n"


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


@pytest.mark.parametrize("velocity", ["inf", "nan"])
def test_solve_rejects_non_finite_velocity(capsys, velocity):
    """A non-finite --velocity ends in one error line naming it, before a
    Hamiltonian is built from its Doppler shifts."""
    code, out, err = run(capsys, "solve", "--preset", "fig1-ideal",
                         "--velocity", velocity)
    assert code == 1 and out == ""
    assert err == f"error: --velocity must be finite, got {velocity}\n"


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


def _preset_copy(tmp_path, preset, edit):
    """The preset written to a scenario file after edit(cfg)."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath(f"{preset}.yaml").read_text())
    edit(cfg)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _reduced15_copy(tmp_path, edit):
    return _preset_copy(tmp_path, "fig7-reduced15", edit)


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


def _no_f(cfg):
    del cfg["scheme"]["manifolds"][0]["f"]


@pytest.mark.parametrize("edit", [
    _set("scheme", "manifolds", 2, "j", 0.7),
    _set("scheme", "manifolds", 2, "j", math.inf),
    _set("scheme", "nuclear_spin", 1.7),
    _set("scheme", "nuclear_spin", math.nan),
    _set("scheme", "manifolds", 0, "f", "x"),
    _set("scheme", "manifolds", 3, "f", -1),
    _resolved_f_values,
    _set("scheme", "manifolds", 0, "f_values", [1, 2]),
    _no_f,
], ids=["j-0.7", "j-inf", "spin-1.7", "spin-nan", "f-x", "f-minus-1",
        "resolved-f-values", "f-and-f-values", "no-f"])
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


@pytest.mark.parametrize("preset, edit, message", [
    ("fig1-ideal", _set("decay", "explicit_channels", 0, "rate", math.inf),
     "decay.explicit_channels[0].rate must be finite and >= 0, got inf"),
    ("fig1-ideal", _set("decay", "explicit_channels", 0, "rate", math.nan),
     "decay.explicit_channels[0].rate must be finite and >= 0, got nan"),
    ("fig1-ideal", _set("decay", "explicit_channels", 0, "rate", -1.0),
     "decay.explicit_channels[0].rate must be finite and >= 0, got -1.0"),
    ("fig7-full", _set("decay", "gamma_r", math.nan),
     "decay.gamma_r must be finite and >= 0, got nan"),
], ids=["rate-inf", "rate-nan", "rate-minus-1", "gamma-r-nan"])
def test_bad_decay_rate_is_named(tmp_path, capsys, preset, edit, message):
    """A non-finite or negative decay rate ends in one error line naming
    its key, not in a trace-preservation error after numpy warnings."""
    code, out, err = run(capsys, "validate", "--scenario",
                         _preset_copy(tmp_path, preset, edit))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def _delete(*keys):
    def edit(cfg):
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    return edit


@pytest.mark.parametrize("edit, path", [
    (_delete("medium", "length_cm"), "medium.length_cm"),
    (_delete("scheme", "manifolds", 2, "tier"), "scheme.manifolds[2].tier"),
    (_delete("scheme", "manifolds", 0, "label"),
     "scheme.manifolds[0].label"),
    (_delete("sweep", "detuning_start"), "sweep.detuning_start"),
], ids=["length-cm", "tier", "label", "detuning-start"])
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
    (_set("sweep", "velocity", "kind", "delta"), "velocity.points"),
    (_set("sweep", "geometry", "sideways"), "geometry"),
], ids=["temperature-minus-1", "mass-0", "span-nan", "kind", "stop-inf",
        "gauss-hermite-800", "delta-points", "geometry"])
def test_validate_rejects_bad_sweep_settings(tmp_path, capsys, edit, key):
    code, out, err = run(capsys, "validate", "--scenario",
                         _reduced15_copy(tmp_path, edit))
    assert code == 1 and out == ""
    assert err.startswith("error: sweep.") and key in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("edit, named", [
    (_set("transitions", "mode", "bogus"), "transitions.mode"),
    (_set("decay", "six_s_decay_path", "bogus"), "decay.six_s_decay_path"),
    (_set("fields", [1, 2]), "fields: expected a mapping"),
    (_set("fields", "pump", "polarization", "plus", [1]),
     "fields.pump.polarization.plus"),
], ids=["transitions-mode", "six-s-decay-path", "fields-list",
        "polarization-list"])
def test_validate_rejects_bad_choices_and_shapes(tmp_path, capsys, edit,
                                                 named):
    """A choice outside its set, or a list where a mapping or a number
    belongs, ends in one error line naming the key."""
    code, out, err = run(capsys, "validate", "--scenario",
                         _reduced15_copy(tmp_path, edit))
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err
    assert len(err.splitlines()) == 1


def test_validate_accepts_many_uniform_velocity_points(tmp_path, capsys):
    """The Gauss-Hermite node cap applies to that kind alone."""
    def edit(cfg):
        cfg["sweep"]["velocity"].update(kind="uniform", points=800)
    code, out, _ = run(capsys, "validate", "--scenario",
                       _reduced15_copy(tmp_path, edit))
    assert code == 0 and "x 800 velocities" in out


def test_one_uniform_velocity_point_exits_one(tmp_path, capsys):
    """--velocity-points 1 on a uniform grid would sweep one atom at -span
    thermal velocities: exit 1 with one line, and no CSV."""
    def edit(cfg):
        cfg["sweep"]["velocity"] = {"kind": "uniform", "points": 7}
    path = _preset_copy(tmp_path, "fig1-ideal", edit)
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--scenario", path, "--out",
                         str(out_csv), "--points", "3",
                         "--velocity-points", "1")
    assert code == 1 and out == ""
    assert err == ("error: a uniform velocity grid needs at least 2 "
                   "velocity points, got 1\n")
    assert not out_csv.exists()


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


@pytest.mark.parametrize("command", ["validate", "solve", "sweep"])
@pytest.mark.parametrize("edit, names", [
    (_set("medium", "omega_min", 0.2), ("medium.omega_min",
                                        "fields.signal.rabi")),
    (_set("fields", "signal", "rabi", 0.0), ("signal Rabi frequency",)),
], ids=["omega-min-0.2", "signal-rabi-0"])
def test_signal_that_cannot_scale_the_medium_exits_one(tmp_path, capsys,
                                                       command, edit, names):
    """A medium.omega_min other than the signal's Rabi frequency, or a
    signal Rabi frequency of 0 with a medium, is one error line naming
    it, and no CSV."""
    out_csv = tmp_path / "out.csv"
    rest = ["--out", str(out_csv)] if command == "sweep" else []
    code, out, err = run(capsys, command, "--scenario",
                         _preset_copy(tmp_path, "fig1-ideal", edit), *rest)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names)
    assert not out_csv.exists()


@pytest.mark.parametrize("role, argv", [
    ("pump", ["solve", "--pump-detuning", "1"]),
    ("pump", ["sweep", "--points", "3"]),
    ("pump", ["sweep", "--points", "3", "--pump-detuning", "1"]),
    ("pump", ["lcr"]),
    ("signal", ["solve", "--signal-detuning", "1"]),
    ("signal", ["sweep", "--points", "3"]),
    ("signal", ["lcr", "--voltages", "2"]),
], ids=["pump-solve-detuning", "pump-sweep", "pump-sweep-detuning",
        "pump-lcr", "signal-solve-detuning", "signal-sweep", "signal-lcr"])
def test_missing_field_exits_one_without_csv(tmp_path, capsys, role, argv):
    """A scenario without a pump or signal field: a command that needs the
    field ends in one error line naming it and exit 1, not a traceback,
    and writes no CSV."""
    path = _preset_copy(tmp_path, "fig1-ideal", _delete("fields", role))
    out_csv = tmp_path / "out.csv"
    command, *rest = argv
    if command == "sweep":
        rest += ["--out", str(out_csv)]
    code, out, err = run(capsys, command, "--scenario", path, *rest)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert role in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["sweep", "--points", "4", "--velocity-points", "40"],
    ["lcr", "--signal-detuning", "245"],
], ids=["validate", "sweep", "lcr"])
def test_isolated_population_exits_one_without_csv(tmp_path, capsys, argv):
    """fig7-full with the 6S decay path sent to the ground reservoir G1
    leaves the reservoir R with no channel in or out and no coupling, so
    the steady state is not unique: each command ends in one error line
    saying so and exit 1, and writes no CSV, instead of parking all the
    population in R."""
    path = _preset_copy(tmp_path, "fig7-full",
                        _set("decay", "reservoir", "G1"))
    out_csv = tmp_path / "out.csv"
    command, *rest = argv
    if command == "sweep":
        rest += ["--out", str(out_csv)]
    code, _, err = run(capsys, command, "--scenario", path, *rest)
    assert code == 1
    assert err.startswith("error: non-unique steady state")
    assert len(err.splitlines()) == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("role", [None, "pump", "signal"])
def test_solve_velocity_prints_the_dense_solve_at_its_shifts(tmp_path,
                                                              capsys, role):
    """solve --velocity prints the dense solve with that velocity's
    Doppler shifts in the scenario's geometry, k = 0 for a missing field;
    with a pump, the shifts change what is printed.  A medium needs the
    signal's wavelength, so it goes with the signal."""
    def edit(cfg):
        if role is not None:
            del cfg["fields"][role]
        if role == "signal":
            del cfg["medium"]
    path = _preset_copy(tmp_path, "fig1-ideal", edit)
    code, out, _ = run(capsys, "solve", "--scenario", path, "--velocity",
                       "60")
    assert code == 0
    scn = scenario_from_config(yaml.safe_load(Path(path).read_text()))
    k_p, k_s = (scn.fields[r].k if r in scn.fields else 0.0
                for r in ("pump", "signal"))
    shifts = doppler_shifts(60.0, COUNTER, k_p, k_s)
    h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields,
                          velocity_shifts=shifts)
    rho = steady_state(vectorize(h, scn.scheme, scn.network))
    lines = out.splitlines()
    pops = [float(line.split()[-1]) for line in
            lines[lines.index("populations:") + 1:][:scn.scheme.n_levels]]
    assert pops == [float(f"{rho[k, k].real:.6e}")
                    for k in range(scn.scheme.n_levels)]
    if "signal" in scn.fields:
        r = response_from_density(rho, scn.scheme, scn.transitions,
                                  scn.fields["signal"], scn.medium)
        assert f"  phi_d       = {math.degrees(r.phi_d):.4f} deg" in lines
    if "pump" in scn.fields:
        code, at_rest, _ = run(capsys, "solve", "--scenario", path)
        assert code == 0 and at_rest != out
_LIST_KEYS = [
    ("fig7-reduced15", ("scheme", "manifolds", 0, "mf_values"),
     "scheme.manifolds[0].mf_values"),
    ("fig7-full", ("scheme", "manifolds", 5, "f_values"),
     "scheme.manifolds[5].f_values"),
    ("fig7-full", ("scheme", "manifolds", 2, "decays_to"),
     "scheme.manifolds[2].decays_to"),
    ("fig7-full", ("scheme", "manifolds"), "scheme.manifolds"),
    ("fig1-ideal", ("transitions", "entries"), "transitions.entries"),
    ("fig1-ideal", ("decay", "explicit_channels"), "decay.explicit_channels"),
    ("fig1-ideal", ("analyzer", "lcr_calibration", "voltages"),
     "analyzer.lcr_calibration.voltages"),
    ("fig1-ideal", ("analyzer", "lcr_calibration", "thetas"),
     "analyzer.lcr_calibration.thetas"),
]


@pytest.mark.parametrize("preset, keys, path", _LIST_KEYS,
                         ids=[path for *_, path in _LIST_KEYS])
@pytest.mark.parametrize("value", [3, "11", "0", None],
                         ids=["int", "string-11", "string-0", "null"])
def test_list_key_given_a_non_list_is_named(tmp_path, capsys, preset, keys,
                                            path, value):
    """A list-valued key holding a scalar, a string or null is one error
    line naming its path; a string is not read character by character.
    mf_values: null keeps its meaning, every mF of the manifold."""
    def edit(cfg):
        cfg["analyzer"] = {"lcr_calibration": {"voltages": [0.0, 4.0],
                                               "thetas": [2.0, 0.0]}}
        _set(*keys, value)(cfg)
    code, out, err = run(capsys, "validate", "--scenario",
                         _preset_copy(tmp_path, preset, edit))
    if value is None and keys[-1] == "mf_values":
        assert code == 0 and "levels: 17 " in out
        return
    assert code == 1 and out == ""
    assert err == f"error: {path}: expected a list, got {value!r}\n"
