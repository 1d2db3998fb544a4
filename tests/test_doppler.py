"""Velocity grids, Doppler shifts, the per-cell solve of a sweep, sweeps,
checkpointing, and the CSV interchange format."""

import dataclasses
import warnings

import numpy as np
import pytest

from vaporplate import (CO, COUNTER, ModelError,
                        VelocityGrid, build_hamiltonian, doppler_shifts,
                        load_preset, read_sweep_csv, response_from_density,
                        steady_state, sweep, thermal_rms_velocity, vectorize,
                        write_sweep_csv)
from vaporplate import liouville


@pytest.fixture(scope="module")
def fig7():
    return load_preset("fig7-full")


def small_spec(scn, detunings, grid=None, geometry=COUNTER):
    spec = scn.sweep_spec(geometry=geometry)
    return dataclasses.replace(
        spec, detunings=np.asarray(detunings, dtype=float),
        grid=grid or VelocityGrid.delta())


# ---------------------------------------------------------------------------
# Velocity grids and shifts
# ---------------------------------------------------------------------------

def test_thermal_rms_velocity_at_cell_temperature():
    assert thermal_rms_velocity(403.0, 86.909) == pytest.approx(196.4, abs=0.5)


def test_velocity_grids_are_normalized_and_unbiased():
    for grid in (VelocityGrid.gauss_hermite(64),
                 VelocityGrid.uniform(301),
                 VelocityGrid.delta()):
        w = np.asarray(grid.weights)
        v = np.asarray(grid.velocities)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.dot(w, v) == pytest.approx(0.0, abs=1e-9)


def test_gauss_hermite_second_moment_matches_thermal():
    grid = VelocityGrid.gauss_hermite(64)
    vr = thermal_rms_velocity(grid.temperature, grid.mass_amu)
    second = np.dot(grid.weights, np.square(grid.velocities))
    assert second == pytest.approx(vr ** 2, rel=1e-9)


def test_velocity_grid_validation():
    with pytest.raises(ModelError):
        VelocityGrid((0.0, 1.0), (0.5,), 403.0, 86.909, 1.0, "x")
    with pytest.raises(ModelError):
        VelocityGrid((0.0,), (0.5,), 403.0, 86.909, 1.0, "x")
    with pytest.raises(ModelError):
        VelocityGrid((float("nan"),), (1.0,), 403.0, 86.909, 1.0, "x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the overflow must not warn first
        with pytest.raises(ModelError, match="non-finite"):
            VelocityGrid.gauss_hermite(400)     # hermgauss weights overflow


def test_velocity_grid_rejects_bad_thermal_parameters():
    for n, temperature, mass in ((0, 403.0, 86.909), (10, -1.0, 86.909),
                                 (10, float("nan"), 86.909),
                                 (10, 403.0, 0.0)):
        for make in (VelocityGrid.gauss_hermite, VelocityGrid.uniform):
            with pytest.raises(ModelError):
                make(n, temperature, mass)


def test_doppler_shift_signs():
    kp, ks = 0.2, 0.1
    assert doppler_shifts(100.0, COUNTER, kp, ks) == (-20.0, 10.0)
    assert doppler_shifts(100.0, CO, kp, ks) == (-20.0, -10.0)
    with pytest.raises(ModelError):
        doppler_shifts(1.0, "sideways", kp, ks)


def test_sweep_spec_rejects_non_monotone_detunings(fig7):
    with pytest.raises(ModelError, match="monotone"):
        small_spec(fig7, [0.0, 2.0, 1.0])


def test_sweep_spec_needs_a_detuning(fig7):
    with pytest.raises(ModelError, match="at least one detuning"):
        small_spec(fig7, [])


def test_sweep_spec_rejects_non_finite_detunings(fig7):
    for bad in ([float("nan")], [0.0, float("inf")]):
        with pytest.raises(ModelError, match="finite"):
            small_spec(fig7, bad)


# ---------------------------------------------------------------------------
# Per-cell solve correctness
# ---------------------------------------------------------------------------

def full_rebuild_response(scn, delta_s, v, geometry=COUNTER):
    """Independent slow path: rebuild the Hamiltonian from scratch."""
    fields = dict(scn.fields)
    fields["signal"] = dataclasses.replace(fields["signal"], detuning=delta_s)
    shifts = doppler_shifts(v, geometry, fields["pump"].k, fields["signal"].k)
    h = build_hamiltonian(scn.scheme, scn.transitions, fields,
                          velocity_shifts=shifts)
    rho = steady_state(vectorize(h, scn.scheme, scn.network))
    return response_from_density(rho, scn.scheme, scn.transitions,
                                 fields["signal"], scn.medium)


def test_incremental_diagonal_update_matches_rebuild(fig7):
    """A sweep cell shifts the diagonal of the generator at rest; it must
    equal a full rebuild at the cell's detuning and velocity."""
    rng = np.random.default_rng(12)
    for _ in range(6):
        delta_s = rng.uniform(-300.0, 300.0)
        v = rng.uniform(-400.0, 400.0)
        grid = VelocityGrid((v,), (1.0,), 403.0, 86.909, 0.0, "single")
        (fast,) = sweep(small_spec(fig7, [delta_s], grid=grid))
        slow = full_rebuild_response(fig7, delta_s, v)
        assert np.allclose(fast.as_tuple(), slow.as_tuple(),
                           rtol=1e-9, atol=1e-12)


def no_dense_fallback(*args, **kwargs):
    raise AssertionError("the elimination fell back to the dense solve")


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", ["fig1-ideal", "fig8-qwp",
                                    "fig7-reduced15", "fig7-full"])
def test_sweep_rows_match_rebuild_on_random_cells(preset, geometry,
                                                  monkeypatch):
    """Each velocity node eliminates the fixed block once and then solves
    every detuning; every cell must equal a full rebuild, and none may
    need the dense fallback."""
    scn = load_preset(preset)
    rng = np.random.default_rng(13)
    for _ in range(2):
        v = rng.uniform(-400.0, 400.0)
        detunings = np.sort(rng.uniform(-600.0, 600.0, 3))
        grid = VelocityGrid((v,), (1.0,), 403.0, 86.909, 0.0, "single")
        with monkeypatch.context() as patch:
            patch.setattr(liouville, "steady_state", no_dense_fallback)
            rows = sweep(small_spec(scn, detunings, grid=grid,
                                    geometry=geometry))
        for d, fast in zip(detunings, rows):
            slow = full_rebuild_response(scn, d, v, geometry)
            assert np.allclose(fast.as_tuple(), slow.as_tuple(),
                               rtol=1e-9, atol=1e-12)


def test_degenerate_grid_sweep_equals_direct_solve(fig7):
    spec = small_spec(fig7, [-50.0, 0.0, 50.0])
    responses = sweep(spec)
    for d, r in zip(spec.detunings, responses):
        slow = full_rebuild_response(fig7, d, 0.0)
        assert np.allclose(r.as_tuple(), slow.as_tuple(),
                           rtol=1e-9, atol=1e-12)


def test_zero_pump_gives_zero_differential_phase(fig7):
    spec = small_spec(fig7, [0.0, 100.0],
                      grid=VelocityGrid.gauss_hermite(8))
    fields = dict(spec.fields)
    fields["pump"] = dataclasses.replace(fields["pump"], rabi=0.0)
    spec = dataclasses.replace(spec, fields=fields)
    for r in sweep(spec):
        assert abs(r.phi_d) < 1e-12
        assert abs(r.alpha_d) < 1e-12


def test_half_grid_linearity(fig7):
    """Averaging over the union of two half-grids equals the weighted
    combination of the two partial averages."""
    full = VelocityGrid.gauss_hermite(8)
    v = np.asarray(full.velocities)
    w = np.asarray(full.weights)
    lo, hi = v < 0, v >= 0
    parts = []
    for mask in (lo, hi):
        sub = VelocityGrid(tuple(v[mask]), tuple(w[mask] / w[mask].sum()),
                           full.temperature, full.mass_amu, full.span, "part")
        spec = small_spec(fig7, [25.0], grid=sub)
        parts.append(np.asarray(sweep(spec)[0].as_tuple()))
    combined = w[lo].sum() * parts[0] + w[hi].sum() * parts[1]
    spec = small_spec(fig7, [25.0], grid=full)
    whole = np.asarray(sweep(spec)[0].as_tuple())
    assert np.max(np.abs(whole - combined)) < 1e-12


# ---------------------------------------------------------------------------
# Parallelism, checkpointing, CSV
# ---------------------------------------------------------------------------

def test_sweep_worker_count_does_not_change_output(fig7):
    spec = small_spec(fig7, np.linspace(-40.0, 40.0, 6),
                      grid=VelocityGrid.gauss_hermite(4))
    serial = sweep(spec, workers=1)
    parallel = sweep(spec, workers=2)
    for a, b in zip(serial, parallel):
        assert a.as_tuple() == b.as_tuple()     # bit-identical


def test_sweep_progress_callback(fig7):
    spec = small_spec(fig7, [0.0, 10.0], grid=VelocityGrid.gauss_hermite(3))
    seen = []
    sweep(spec, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 3), (2, 3), (3, 3)]     # velocity nodes


class Interrupt(Exception):
    pass


def test_checkpoint_resume_matches_uninterrupted(tmp_path, fig7):
    spec = small_spec(fig7, np.linspace(0.0, 50.0, 6),
                      grid=VelocityGrid.uniform(40))
    ck = str(tmp_path / "sweep.ckpt.npz")
    reference = sweep(spec)

    def stop_after_20(done, total):
        if done == 20:
            raise Interrupt
    with pytest.raises(Interrupt):
        sweep(spec, progress=stop_after_20, checkpoint=ck)
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == list(range(17, 41))      # saved after node 16
    for a, b in zip(reference, resumed):
        assert a.as_tuple() == b.as_tuple()     # bit-identical


def test_checkpoint_in_per_detuning_format_is_recomputed(tmp_path, fig7):
    spec = small_spec(fig7, [0.0, 10.0], grid=VelocityGrid.gauss_hermite(4))
    ck = str(tmp_path / "sweep.ckpt.npz")
    sweep(spec, checkpoint=ck)
    with np.load(ck) as data:
        fingerprint = data["fingerprint"]
    np.savez(ck, fingerprint=fingerprint, responses=np.ones((2, 4)),
             done=np.ones(2, dtype=bool))
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == [1, 2, 3, 4]
    for a, b in zip(resumed, sweep(spec)):
        assert a.as_tuple() == b.as_tuple()


def test_checkpoint_ignored_for_different_detunings(tmp_path, fig7):
    ck = str(tmp_path / "sweep.ckpt.npz")
    sweep(small_spec(fig7, [0.0, 10.0]), checkpoint=ck)
    other = small_spec(fig7, [5.0, 15.0])
    responses = sweep(other, checkpoint=ck)
    slow = full_rebuild_response(fig7, 5.0, 0.0)
    assert np.allclose(responses[0].as_tuple(), slow.as_tuple(), rtol=1e-9)


def test_checkpoint_ignored_for_different_geometry(tmp_path, fig7):
    ck = str(tmp_path / "sweep.ckpt.npz")
    grid = VelocityGrid.gauss_hermite(4)
    sweep(small_spec(fig7, [0.0, 10.0], grid=grid), checkpoint=ck)
    co = small_spec(fig7, [0.0, 10.0], grid=grid, geometry=CO)
    resumed = sweep(co, checkpoint=ck)
    for a, b in zip(resumed, sweep(co)):
        assert a.as_tuple() == b.as_tuple()


def test_csv_round_trip(tmp_path, fig7):
    spec = small_spec(fig7, [0.0, 30.0, 60.0])
    responses = sweep(spec)
    path = str(tmp_path / "out.csv")
    write_sweep_csv(path, spec.detunings, responses)
    det, back = read_sweep_csv(path)
    assert np.allclose(det, spec.detunings, atol=1e-9)
    for a, b in zip(responses, back):
        assert np.allclose(a.as_tuple(), b.as_tuple(), rtol=1e-10)
    with open(path) as fh:
        header = fh.readline()
    assert header.startswith("# vaporplate sweep CSV")


def test_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("delta,phi\n0,1\n")
    with pytest.raises(ModelError):
        read_sweep_csv(str(path))


def test_csv_rejects_header_only_and_malformed_rows(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), np.array([]), [])
    with pytest.raises(ModelError, match="no data rows"):
        read_sweep_csv(str(path))
    header = path.read_text()
    for row in ("0,1,2\n", "0,1,2,3,4,5,x\n"):
        path.write_text(header + row)
        with pytest.raises(ModelError):
            read_sweep_csv(str(path))
