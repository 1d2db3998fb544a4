"""Velocity grids, Doppler shifts, the per-cell solve of a sweep, sweeps,
checkpointing, and the CSV interchange format."""

import copy
import dataclasses
import math
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
import yaml

from vaporplate import (CO, COUNTER, ConfigError, DecayNetwork, ModelError,
                        OpticalResponse, SolverError, VelocityGrid,
                        build_hamiltonian,
                        doppler_shifts, load_preset, read_sweep_csv,
                        response_from_density, scenario_from_config,
                        steady_state, sweep, thermal_rms_velocity, vectorize,
                        write_sweep_csv)
from vaporplate import doppler, liouville, steady_states
from vaporplate.doppler import MAX_GAUSS_HERMITE_NODES


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
    with pytest.raises(ModelError, match="negative weights"):
        VelocityGrid((0.0, 100.0), (-0.5, 1.5), 403.0, 86.909, 1.0, "custom")
    assert len(VelocityGrid.gauss_hermite(MAX_GAUSS_HERMITE_NODES)
               .velocities) == MAX_GAUSS_HERMITE_NODES
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # refused before hermgauss runs
        for n in (MAX_GAUSS_HERMITE_NODES + 1, 400):
            with pytest.raises(ModelError, match="at most 370"):
                VelocityGrid.gauss_hermite(n)


def test_velocity_grid_rejects_bad_thermal_parameters():
    for n, temperature, mass in ((0, 403.0, 86.909), (10, -1.0, 86.909),
                                 (10, float("nan"), 86.909),
                                 (10, 403.0, 0.0)):
        for make in (VelocityGrid.gauss_hermite, VelocityGrid.uniform):
            with pytest.raises(ModelError):
                make(n, temperature, mass)


def test_uniform_grid_needs_two_points():
    """One uniform node would sit at -span thermal velocities (-785 m/s at
    403 K) with weight 1."""
    for n in (1, 0, -2):
        with pytest.raises(ModelError, match="at least 2 velocity points"):
            VelocityGrid.uniform(n)
    assert VelocityGrid.uniform(2).velocities == pytest.approx(
        (-4.0 * 196.4, 4.0 * 196.4), rel=2e-3)


EPS = np.finfo(float).eps


def left_out(grid):
    """The weights of the nodes a sweep leaves out, and the kept mask."""
    v, w = np.asarray(grid.velocities), np.asarray(grid.weights)
    kept_v, kept_w = doppler._solved_nodes(grid)
    kept = np.isin(v, kept_v)
    assert np.array_equal(v[kept], kept_v)          # in grid order
    assert np.array_equal(w[kept], kept_w)          # not renormalized
    return w[~kept], kept


def test_left_out_nodes_weigh_at_most_half_an_epsilon():
    """On every Gauss-Hermite grid the nodes a sweep leaves out carry at
    most eps/2 of the weight, the lightest nodes kept would take them past
    that, and the kept nodes are symmetric in v."""
    for n in range(1, MAX_GAUSS_HERMITE_NODES + 1):
        grid = VelocityGrid.gauss_hermite(n)
        w = np.asarray(grid.weights)
        dropped, kept = left_out(grid)
        budget = 0.5 * EPS * math.fsum(w)
        assert math.fsum(dropped) <= budget, n
        lightest = w[kept].min()
        assert math.fsum(dropped) + math.fsum(w[w == lightest]) > budget, n
        v = np.asarray(grid.velocities)[kept]
        assert np.array_equal(np.sort(v), np.sort(-v)), n


def test_grids_that_lose_no_node():
    """Gauss-Hermite grids of up to 24 nodes, gate 9's uniform grid of 800
    and the delta grid are solved at every node; GH40, GH200 and GH370
    keep 32, 74 and 102."""
    grids = [VelocityGrid.gauss_hermite(n) for n in range(1, 25)]
    for grid in grids + [VelocityGrid.uniform(800), VelocityGrid.delta()]:
        assert left_out(grid)[0].size == 0
    for n, kept in ((25, 23), (40, 32), (200, 74), (370, 102)):
        assert left_out(VelocityGrid.gauss_hermite(n))[1].sum() == kept


def test_equal_weights_are_left_out_together():
    """Two nodes of 0.4 eps each weigh more than eps/2 together, so both
    are solved, where one of them alone is left out."""
    tiny = 0.4 * EPS
    pair = VelocityGrid((-900.0, 0.0, 900.0), (tiny, 1.0 - 2 * tiny, tiny),
                        403.0, 86.909, 1.0, "custom")
    assert left_out(pair)[0].size == 0
    single = VelocityGrid((0.0, 900.0), (1.0 - tiny, tiny), 403.0, 86.909,
                          1.0, "custom")
    assert np.array_equal(left_out(single)[0], [tiny])


def test_doppler_shift_signs():
    kp, ks = 0.2, 0.1
    assert doppler_shifts(100.0, COUNTER, kp, ks) == (-20.0, 10.0)
    assert doppler_shifts(100.0, CO, kp, ks) == (-20.0, -10.0)
    with pytest.raises(ModelError):
        doppler_shifts(1.0, "sideways", kp, ks)


def test_sweep_spec_rejects_non_monotone_detunings(fig7):
    with pytest.raises(ModelError, match="monotone"):
        small_spec(fig7, [0.0, 2.0, 1.0])


def test_sweep_spec_rejects_unknown_geometry(fig7):
    spec = small_spec(fig7, [0.0])
    with pytest.raises(ModelError, match="unknown geometry 'sideways'"):
        dataclasses.replace(spec, geometry="sideways")


def test_sweep_spec_needs_a_detuning(fig7):
    """At least one detuning, in a 1-D list: a column, a square and a
    scalar are refused before the sweep indexes them."""
    with pytest.raises(ModelError, match="at least one detuning"):
        small_spec(fig7, [])
    for bad in ([[1.0], [2.0]], [[1.0, 2.0], [3.0, 4.0]], 1.0):
        with pytest.raises(ModelError, match="1-D"):
            small_spec(fig7, bad)


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
    """The velocity kernel solves every cell, at one detuning as at three,
    equal to a full rebuild, and none may need the dense fallback."""
    scn = load_preset(preset)
    rng = np.random.default_rng(13)
    for count in (1, 3) * 4:        # four velocities at each count
        v = rng.uniform(-400.0, 400.0)
        detunings = np.sort(rng.uniform(-600.0, 600.0, count))
        grid = VelocityGrid((v,), (1.0,), 403.0, 86.909, 0.0, "single")
        with monkeypatch.context() as patch:
            patch.setattr(liouville, "steady_state", no_dense_fallback)
            rows = sweep(small_spec(scn, detunings, grid=grid,
                                    geometry=geometry))
        for d, fast in zip(detunings, rows):
            slow = full_rebuild_response(scn, d, v, geometry)
            assert np.allclose(fast.as_tuple(), slow.as_tuple(),
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("geometry", [COUNTER, CO])
def test_sweep_without_ground_relaxation_reports_nonunique_state(
        geometry, count):
    """Without ground cross-relaxation fig7-full has no unique steady state
    (population can be trapped in two ground states).  Eliminating the
    excited block hides the exact singularity from the remaining blocks,
    so the sweep must still report it rather than answer with one of the
    states."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig7-full.yaml").read_text())
    cfg["decay"]["gamma_g"] = 0.0
    scn = scenario_from_config(cfg)
    grid = VelocityGrid((-150.0, 20.0), (0.5, 0.5), 403.0, 86.909, 0.0,
                        "pair")
    spec = small_spec(scn, np.linspace(-30.0, 30.0, count), grid=grid,
                      geometry=geometry)
    for _ in range(2):      # the second reuses the kept generator
        with pytest.raises(SolverError, match="non-unique"):
            sweep(spec)


SWEEP_PRESETS = ["fig1-ideal", "fig8-qwp", "fig7-reduced15", "fig7-full"]


def bits(responses):
    return np.array([r.as_tuple() for r in responses]).view(np.uint64)


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_rows_do_not_depend_on_block_size(preset, geometry, monkeypatch):
    """A detuning's row is bit-identical whether it is swept alone or with
    other detunings (a pool's unit of work is one detuning), and no cell
    needs the dense fallback."""
    scn = load_preset(preset)
    grid = VelocityGrid.gauss_hermite(40)
    detunings = [-300.0, 10.0, 245.0]
    monkeypatch.setattr(liouville, "steady_state", no_dense_fallback)
    together = bits(sweep(small_spec(scn, detunings, grid=grid,
                                     geometry=geometry)))
    for j, d in enumerate(detunings):
        alone = bits(sweep(small_spec(scn, [d], grid=grid,
                                      geometry=geometry)))
        assert np.array_equal(alone[0], together[j])


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_refined_average_matches_dense_average(preset, geometry):
    """The kernel refines the velocity average, not each node: its rows
    match the weighted average of dense per-cell solves to 1e-12 of the
    largest row entry (without the refinement step they differ by about
    4e-12)."""
    scn = load_preset(preset)
    spec = small_spec(scn, [-300.0, 10.0, 245.0],
                      grid=VelocityGrid.gauss_hermite(40), geometry=geometry)
    rows = np.array([r.as_tuple() for r in sweep(spec)])
    _, liou, _ = doppler._generator(spec)
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    want = []
    for d in spec.detunings:
        rho = 0.0
        for v, w in zip(spec.grid.velocities, spec.grid.weights):
            shift_p, shift_s = doppler_shifts(v, geometry, pump.k, signal.k)
            rho = rho + w * steady_state(liou, shift_p,
                                         d - signal.detuning + shift_s)
        want.append(response_from_density(rho, spec.scheme, spec.transitions,
                                          signal, spec.medium).as_tuple())
    assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", ["fig7-full", "fig7-reduced15"])
def test_preset_grid_rows_match_the_dense_average_over_every_node(
        preset, geometry):
    """On the preset's GH200 grid, which a sweep solves at 74 of its 200
    nodes, the rows at both ends of the detuning range, where the far tail
    matters most, and in gate 8's window match the weighted average of
    dense per-cell solves over all 200 nodes to 1e-12 of the largest row
    entry."""
    scn = load_preset(preset)
    spec = dataclasses.replace(scn.sweep_spec(geometry=geometry),
                               detunings=np.array([-1200.0, 245.0, 1200.0]))
    assert spec.grid.kind == "gauss_hermite"
    assert len(spec.grid.velocities) == 200
    assert len(doppler._solved_nodes(spec.grid)[0]) == 74
    rows = np.array([r.as_tuple() for r in sweep(spec)])
    _, liou, _ = doppler._generator(spec)
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    want = []
    for d in spec.detunings:
        rho = 0.0
        for v, w in zip(spec.grid.velocities, spec.grid.weights):
            shift_p, shift_s = doppler_shifts(v, geometry, pump.k, signal.k)
            rho = rho + w * steady_state(liou, shift_p,
                                         d - signal.detuning + shift_s)
        want.append(response_from_density(rho, spec.scheme, spec.transitions,
                                          signal, spec.medium).as_tuple())
    assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_failing_node_alone_takes_the_dense_path(preset, geometry,
                                                 monkeypatch):
    """When one velocity node fails a check, that node alone is solved by
    steady_state, at each detuning where it fails, and the rows still
    match."""
    scn = load_preset(preset)
    grid = VelocityGrid.gauss_hermite(9)
    spec = small_spec(scn, [-20.0, 245.0], grid=grid, geometry=geometry)
    reference = np.array([r.as_tuple() for r in sweep(spec)])
    bad = 3
    expanded = liouville._expanded_states

    def fail_one_node(ex, shift, v, w):
        v = v.copy()
        v[bad] = np.nan         # a non-finite column fails every check
        return expanded(ex, shift, v, w)
    dense_cells = []
    dense = liouville.steady_state

    def record(liou, pump_shift=0.0, signal_shift=0.0):
        dense_cells.append((pump_shift, signal_shift))
        return dense(liou, pump_shift, signal_shift)
    monkeypatch.setattr(liouville, "_expanded_states", fail_one_node)
    monkeypatch.setattr(liouville, "steady_state", record)
    rows = np.array([r.as_tuple() for r in sweep(spec)])
    pump_k, signal_k = spec.fields["pump"].k, spec.fields["signal"].k
    shift_p, shift_s = doppler_shifts(grid.velocities[bad], geometry,
                                      pump_k, signal_k)
    want = [(shift_p, d - spec.fields["signal"].detuning + shift_s)
            for d in spec.detunings]
    assert dense_cells == want       # its two cells, nothing else
    assert np.allclose(rows, reference, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_resume_inside_a_block_matches_uninterrupted(preset, geometry,
                                                     tmp_path):
    """A sweep stopped after detuning 20 resumes from the checkpoint of
    detuning 16 and computes only the rest; its rows are bit-identical to
    an uninterrupted run."""
    scn = load_preset(preset)
    spec = small_spec(scn, np.linspace(-300.0, 300.0, 24),
                      grid=VelocityGrid.uniform(8), geometry=geometry)
    ck = str(tmp_path / "sweep.ckpt.npz")

    def stop_after_20(done, total):
        if done == 20:
            raise Interrupt
    with pytest.raises(Interrupt):
        sweep(spec, progress=stop_after_20, checkpoint=ck)
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == list(range(17, 25))
    assert np.array_equal(bits(resumed), bits(sweep(spec)))


def test_singular_block_solves_every_node_densely(monkeypatch):
    """A LinAlgError in a detuning's eigendecomposition sends every node
    of that detuning to steady_state."""
    scn = load_preset("fig7-reduced15")
    _, liou, _ = doppler._generator(small_spec(scn, [0.0]))
    nodes, weights = np.array([-3.0, 0.5, 8.0]), np.array([0.3, 0.3, 0.4])
    rates = (-0.7, 0.4)
    shifts = np.array([1.0, 2.0])
    want = [steady_states(liou, s, nodes, weights, rates) for s in shifts]
    calls = []
    dense = liouville.steady_state

    def record(liou, pump_shift=0.0, signal_shift=0.0):
        calls.append((pump_shift, signal_shift))
        return dense(liou, pump_shift, signal_shift)

    def singular(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(liouville, "_expanded_states", singular)
    monkeypatch.setattr(liouville, "steady_state", record)
    got = [steady_states(liou, s, nodes, weights, rates) for s in shifts]
    assert calls == [(rates[0] * v, s + rates[1] * v)
                     for s in shifts for v in nodes]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def averaged_rebuild(scn, spec):
    """The weighted average of full rebuilds over the spec's grid, one row
    per detuning; the response is linear in rho."""
    return np.array([sum(w * np.array(full_rebuild_response(
        scn, d, v, spec.geometry).as_tuple())
        for v, w in zip(spec.grid.velocities, spec.grid.weights))
        for d in spec.detunings])


def test_equal_wavevectors_solve_every_cell_densely(monkeypatch):
    """With k_pump == k_signal and counter-propagating beams no velocity
    moves the two-photon coherences, which the signal detuning does move;
    the kernel declines, every cell goes to steady_state and the rows
    match full rebuilds."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig1-ideal.yaml").read_text())
    cfg["fields"]["signal"]["wavelength_nm"] = \
        cfg["fields"]["pump"]["wavelength_nm"]
    scn = scenario_from_config(cfg)
    spec = small_spec(scn, [-20.0, 35.0],
                      grid=VelocityGrid.gauss_hermite(5))
    assert spec.fields["pump"].k == spec.fields["signal"].k
    assert_every_cell_dense(scn, spec, monkeypatch)


def test_declined_kernel_solves_only_the_kept_nodes_densely(monkeypatch):
    """When the kernel declines on a GH40 grid, steady_state solves the 32
    nodes a sweep keeps at each detuning, and the rows match the average
    of full rebuilds over all 40 nodes."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig1-ideal.yaml").read_text())
    cfg["fields"]["signal"]["wavelength_nm"] = \
        cfg["fields"]["pump"]["wavelength_nm"]
    scn = scenario_from_config(cfg)
    spec = small_spec(scn, [-20.0, 35.0],
                      grid=VelocityGrid.gauss_hermite(40))
    assert_every_cell_dense(scn, spec, monkeypatch, nodes=32)


def test_singular_f_block_solves_every_cell_densely(monkeypatch):
    """An upper level that does not decay leaves A_FF singular (its
    population column in F is the trace row's alone) although the driven
    block at rest is not; the kernel declines, every cell goes to
    steady_state and the rows match full rebuilds."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig1-ideal.yaml").read_text())
    cfg["decay"]["gamma_b"] = 0.0
    cfg["decay"]["explicit_channels"] = [
        c for c in cfg["decay"]["explicit_channels"] if c["from"] != "U:0"]
    scn = scenario_from_config(cfg)
    spec = small_spec(scn, [-20.0, 35.0],
                      grid=VelocityGrid.gauss_hermite(5))
    assert_every_cell_dense(scn, spec, monkeypatch)


def assert_every_cell_dense(scn, spec, monkeypatch, nodes=None):
    calls = []
    dense = liouville.steady_state

    def record(liou, pump_shift=0.0, signal_shift=0.0):
        calls.append((pump_shift, signal_shift))
        return dense(liou, pump_shift, signal_shift)

    def no_expansion(*args):
        raise AssertionError("the velocity kernel did not decline")
    monkeypatch.setattr(liouville, "_expanded_states", no_expansion)
    monkeypatch.setattr(liouville, "steady_state", record)
    rows = np.array([r.as_tuple() for r in sweep(spec)])
    nodes = nodes or len(spec.grid.velocities)
    assert len(calls) == len(spec.detunings) * nodes
    assert np.allclose(rows, averaged_rebuild(scn, spec), rtol=1e-9,
                       atol=1e-12)


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
# Node-major sweeps
# ---------------------------------------------------------------------------

def pole_sizes(spec):
    """The two pole-matrix sizes the order rule compares: S, and N, the
    coordinates of S the signal shift moves."""
    ex = doppler._generator(spec)[2]
    return len(ex.p0), np.count_nonzero(np.diagonal(ex.ratio))


def node_major(spec):
    return doppler._node_major(len(spec.detunings),
                               len(doppler._solved_nodes(spec.grid)[0]),
                               *pole_sizes(spec))


def dense_average_rows(spec):
    """The weighted average of dense per-cell solves over every node of the
    spec's grid, one row per detuning."""
    _, liou, _ = doppler._generator(spec)
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    want = []
    for d in spec.detunings:
        rho = 0.0
        for v, w in zip(spec.grid.velocities, spec.grid.weights):
            shift_p, shift_s = doppler_shifts(v, spec.geometry, pump.k,
                                              signal.k)
            rho = rho + w * steady_state(liou, shift_p,
                                         d - signal.detuning + shift_s)
        want.append(response_from_density(rho, spec.scheme, spec.transitions,
                                          signal, spec.medium).as_tuple())
    return np.array(want)


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_node_major_rows_match_dense_average(preset, geometry, monkeypatch):
    """On a shape the order rule sends node-major (16 detunings x GH12),
    the rows match the weighted average of dense per-cell solves to 1e-12
    of the largest row entry, and no cell needs the dense fallback."""
    spec = small_spec(load_preset(preset), np.linspace(-300.0, 300.0, 16),
                      grid=VelocityGrid.gauss_hermite(12), geometry=geometry)
    assert node_major(spec)
    want = dense_average_rows(spec)
    monkeypatch.setattr(liouville, "steady_state", no_dense_fallback)
    rows = np.array([r.as_tuple() for r in sweep(spec)])
    assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_node_major_rows_match_each_detuning_swept_alone(preset, geometry):
    """A detuning swept alone is detuning-major; inside a node-major sweep
    its row comes from other products and differs in the last bits, by at
    most 1e-12 of the largest row entry, on the delta grid as on GH40."""
    scn = load_preset(preset)
    for grid in (VelocityGrid.delta(), VelocityGrid.gauss_hermite(40)):
        spec = small_spec(scn, np.linspace(-600.0, 600.0, 48), grid=grid,
                          geometry=geometry)
        assert node_major(spec)
        rows = np.array([r.as_tuple() for r in sweep(spec)])
        alone = np.array([sweep(dataclasses.replace(
            spec, detunings=np.array([d])))[0].as_tuple()
            for d in spec.detunings])
        assert np.max(np.abs(rows - alone)) <= 1e-12 * np.max(np.abs(alone))


# the fig7-full counter-propagating shapes whose faster order was measured
# (OPENBLAS_NUM_THREADS=1, 2-core Xeon): node-major from 24 detunings on
# GH200, whose sweep solves 74 nodes (20 and 22 measured even)
ORDER_TABLE = [
    (1, 74, False), (8, 74, False), (16, 74, False), (24, 74, True),
    (32, 74, True), (48, 74, True), (128, 74, True), (512, 74, True),
    (8, 28, True),          # GH32
    (61, 800, False),       # gate 9's uniform(800)
    (241, 1, True),         # the delta grid
]


def test_order_rule_on_the_shape_table(fig7):
    """The rule picks the order measured faster on each shape of the table,
    from fig7-full's pole sizes, 68 for S and 36 for N; one detuning is
    always detuning-major."""
    sizes = pole_sizes(small_spec(fig7, [0.0]))
    assert sizes == (68, 36)
    for detunings, nodes, want in ORDER_TABLE:
        assert doppler._node_major(detunings, nodes, *sizes) == want, \
            (detunings, nodes)
    for nodes in (1, 2, 1000):
        assert not doppler._node_major(1, nodes, 68, 0)


def test_node_major_pool_is_bit_identical_to_serial(fig7, cold, monkeypatch):
    """A pooled node-major sweep maps over the nodes and sums them in node
    order: two workers give the serial rows bit for bit, cold or sharing a
    kept elimination."""
    spec = small_spec(fig7, np.linspace(-300.0, 300.0, 48),
                      grid=VelocityGrid.gauss_hermite(40))
    assert node_major(spec)
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    serial = bits(sweep(spec))
    assert np.array_equal(bits(sweep(spec, workers=2)), serial)
    cold()
    assert np.array_equal(bits(sweep(spec, workers=2)), serial)


@pytest.mark.parametrize("block, stop, seen", [
    (512, 20, range(17, 41)),   # resumed at 16, inside the only block
    (32, 20, range(17, 41)),    # resumed at 16, inside the first block
    (32, 36, range(33, 41)),    # resumed at 32, where a block starts
])
def test_node_major_resume_matches_uninterrupted(fig7, tmp_path, monkeypatch,
                                                 block, stop, seen):
    """A node-major sweep solves blocks of NODE_MAJOR_BLOCK detunings that
    start at multiples of it, so a resumed sweep solves the block holding
    its first unfinished row again: its rows are bit-identical to an
    uninterrupted run, and progress reports only the unfinished ones."""
    monkeypatch.setattr(doppler, "NODE_MAJOR_BLOCK", block)
    spec = small_spec(fig7, np.linspace(-300.0, 300.0, 40),
                      grid=VelocityGrid.gauss_hermite(16))
    assert node_major(spec)
    ck = str(tmp_path / "sweep.ckpt.npz")

    def interrupt(done, total):
        if done == stop:
            raise Interrupt
    with pytest.raises(Interrupt):
        sweep(spec, progress=interrupt, checkpoint=ck)
    reported = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: reported.append(done))
    assert reported == list(seen)
    assert np.array_equal(bits(resumed), bits(sweep(spec)))


def test_finished_node_major_checkpoint_solves_nothing(
        fig7, tmp_path, monkeypatch, recording_pool):
    """Resuming a finished node-major sweep solves no node and starts no
    pool: its rows come from the checkpoint."""
    spec = small_spec(fig7, np.linspace(-300.0, 300.0, 40),
                      grid=VelocityGrid.gauss_hermite(16))
    assert node_major(spec)
    ck = str(tmp_path / "sweep.ckpt.npz")
    reference = bits(sweep(spec, checkpoint=ck))

    def no_solve(*args):
        raise AssertionError("a finished sweep solved a node")
    monkeypatch.setattr(liouville, "_node_states", no_solve)
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    reported = []
    resumed = sweep(spec, workers=2, checkpoint=ck,
                    progress=lambda done, total: reported.append(done))
    assert reported == [] and recording_pool.sizes == []
    assert np.array_equal(bits(resumed), reference)


def node_major_dense_cells(spec, monkeypatch, inject):
    """The cells a node-major sweep of spec sends to steady_state while
    inject is in place, and its rows."""
    calls = []
    dense = liouville.steady_state

    def record(liou, pump_shift=0.0, signal_shift=0.0):
        calls.append((pump_shift, signal_shift))
        return dense(liou, pump_shift, signal_shift)
    with monkeypatch.context() as patch:
        inject(patch)
        patch.setattr(liouville, "steady_state", record)
        rows = np.array([r.as_tuple() for r in sweep(spec)])
    return calls, rows


def node_cells(spec, node):
    """The (pump, signal) shifts of one node's cells, in detuning order."""
    v = spec.grid.velocities[node]
    shift_p, shift_s = doppler_shifts(v, spec.geometry,
                                      spec.fields["pump"].k,
                                      spec.fields["signal"].k)
    return [(shift_p, d - spec.fields["signal"].detuning + shift_s)
            for d in spec.detunings]


@pytest.mark.parametrize("geometry", [COUNTER, CO])
def test_non_finite_node_alone_takes_the_dense_path(fig7, geometry,
                                                    monkeypatch):
    """A node whose solves see a non-finite velocity makes its block's
    eigendecomposition raise; the block is solved again one node at a
    time, and that node's cells, and no other, go to steady_state, and the
    rows match."""
    spec = small_spec(fig7, np.linspace(-300.0, 300.0, 16),
                      grid=VelocityGrid.gauss_hermite(9), geometry=geometry)
    assert node_major(spec)
    reference = np.array([r.as_tuple() for r in sweep(spec)])
    bad = 3
    node_states = liouville._node_states
    blocks = []

    def inject(patch):
        def non_finite(ex, shifts, v):
            blocks.append(len(v))
            return node_states(ex, shifts, np.where(
                v == spec.grid.velocities[bad], np.nan, v))
        patch.setattr(liouville, "_node_states", non_finite)
    calls, rows = node_major_dense_cells(spec, monkeypatch, inject)
    assert blocks == [9] + [1] * 9      # one block, then node by node
    assert calls == node_cells(spec, bad)
    assert np.allclose(rows, reference, rtol=1e-9, atol=1e-12)


def test_eigendecomposition_error_sends_one_node_to_the_dense_path(
        fig7, monkeypatch):
    """A LinAlgError in the eigendecomposition of one node's block solves
    the block again one node at a time, and the error there sends exactly
    that node's cells to steady_state."""
    spec = small_spec(fig7, np.linspace(-300.0, 300.0, 16),
                      grid=VelocityGrid.gauss_hermite(9))
    assert node_major(spec)
    reference = np.array([r.as_tuple() for r in sweep(spec)])
    bad = spec.grid.velocities[5]
    node_states, poles = liouville._node_states, liouville._poles
    blocks = []

    def inject(patch):
        def record(ex, shifts, v):      # serial: the block _poles serves
            blocks.append(v)
            return node_states(ex, shifts, v)

        def fails_at_bad(k, p):
            if bad in blocks[-1]:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return poles(k, p)
        patch.setattr(liouville, "_node_states", record)
        patch.setattr(liouville, "_poles", fails_at_bad)
    calls, rows = node_major_dense_cells(spec, monkeypatch, inject)
    assert [len(v) for v in blocks] == [9] + [1] * 9
    assert calls == node_cells(spec, 5)
    assert np.allclose(rows, reference, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# The closed-form ladder oracle for the Doppler average
# ---------------------------------------------------------------------------

# fig1-ideal's sweep has no thermal settings, so its grids take these
LADDER_TEMPERATURE, LADDER_MASS_AMU = 403.0, 86.909
LADDER_DETUNINGS = (-20.0, 0.0, 45.0)


def weak_signal_ladder(equal_k=False):
    """fig1-ideal with the signal's Rabi frequency at 1e-4, which keeps the
    terms of second order in the signal below the oracle's bound; with
    equal_k the signal has the pump's wavelength."""
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig1-ideal.yaml").read_text())
    cfg["fields"]["signal"]["rabi"] = 1e-4
    if equal_k:
        cfg["fields"]["signal"]["wavelength_nm"] = \
            cfg["fields"]["pump"]["wavelength_nm"]
    return scenario_from_config(cfg)


def ladder_coherence(delta_p, delta_s, rabi_p, b, gamma_e, gamma_u):
    """rho[E+, U] of the ladder G -> E+ -> U to first order in the signal
    coupling b = H[U, E+], in the package's rotating frame (H[E+, E+] =
    -delta_p, H[U, U] = -delta_p - delta_s, H[E+, G] = rabi_p / 2).

    First the two-level {G, E+} steady state under the pump, the
    saturated form; then the 2x2 linear solve of d/dt (rho_UE, rho_UG) = 0,
    whose dephasings are (gamma_e + gamma_u) / 2 and gamma_u / 2.  Works on
    floats and on mpmath numbers."""
    a = rabi_p / 2.0
    rho_ee = a * a / (delta_p * delta_p + gamma_e * gamma_e / 4 + 2 * a * a)
    rho_eg = 1j * a * (1 - 2 * rho_ee) / (1j * delta_p - gamma_e / 2)
    m11, m12 = 1j * delta_s - (gamma_e + gamma_u) / 2, 1j * a
    m21, m22 = 1j * a, 1j * (delta_p + delta_s) - gamma_u / 2
    r1, r2 = 1j * b * rho_ee, 1j * b * rho_eg
    rho_ue = (r1 * m22 - m12 * r2) / (m11 * m22 - m12 * m21)
    return rho_ue.conjugate()


def ladder_oracle(scn, delta_s, geometry, velocity=None):
    """phi_minus + i alpha_minus of the weak-signal ladder at one signal
    detuning: at one velocity, or averaged over the Maxwell distribution
    by mpmath.quad, with the resonant velocity classes (one-photon pump and
    signal, two-photon) as break points."""
    import mpmath      # comes with sympy, in the test extra
    pump, signal = scn.fields["pump"], scn.fields["signal"]
    b = 0.5 * signal.rabi * signal.component(-1)    # H[U, E+], strength 1

    def coherence(v):
        s_p, s_s = doppler_shifts(v, geometry, pump.k, signal.k)
        return ladder_coherence(pump.detuning + s_p, delta_s + s_s,
                                pump.rabi, b, 1.0, 0.6)

    if velocity is not None:
        rho = coherence(velocity)
    else:
        sigma = thermal_rms_velocity(LADDER_TEMPERATURE, LADDER_MASS_AMU)
        rate_p, rate_s = doppler_shifts(1.0, geometry, pump.k, signal.k)
        breaks = sorted(-detuning / rate for detuning, rate in (
            (pump.detuning, rate_p), (delta_s, rate_s),
            (pump.detuning + delta_s, rate_p + rate_s)) if rate)
        rho = complex(mpmath.quad(
            lambda v: mpmath.npdf(v, 0, sigma) * coherence(v),
            [-mpmath.inf, *breaks, mpmath.inf]))
    medium = scn.medium
    scale = medium.k_cm * medium.length * medium.beta(signal.rabi) / 2.0
    return scale * rho / np.conjugate(signal.component(-1))


def assert_matches_ladder_oracle(scn, spec, velocity=None):
    """Each row's sigma- response within 1e-7 of the oracle, relative; the
    sigma+ leg, whose lower level the pump leaves empty, within 1e-7 of
    it too."""
    for delta_s, r in zip(spec.detunings, sweep(spec)):
        want = ladder_oracle(scn, delta_s, spec.geometry, velocity)
        got = complex(r.phi_minus, r.alpha_minus)
        assert abs(got - want) <= 1e-7 * abs(want), (delta_s, got, want)
        assert abs(complex(r.phi_plus, r.alpha_plus)) <= 1e-7 * abs(want)


@pytest.mark.parametrize("geometry", [COUNTER, CO])
def test_weak_signal_ladder_at_rest_matches_the_oracle(geometry):
    scn = weak_signal_ladder()
    spec = small_spec(scn, LADDER_DETUNINGS, geometry=geometry)
    assert_matches_ladder_oracle(scn, spec, velocity=0.0)


@pytest.mark.parametrize("geometry, equal_k, nodes", [
    (COUNTER, False, 4000),
    (CO, False, 16000),
    (COUNTER, True, 4000),
], ids=["counter", "co", "counter-equal-k"])
def test_weak_signal_ladder_average_matches_the_oracle(geometry, equal_k,
                                                        nodes):
    """The grid path's Maxwell average of the weak-signal ladder matches
    the oracle's integral on a uniform grid over +-8 thermal RMS
    velocities; with equal wavevectors, counter-propagating, the kernel
    declines and every node is a dense solve.  Co-propagating, the
    two-photon coherence is Doppler-narrow (half-width gamma_u / 2 /
    (k_p + k_s), 0.86 m/s, about one node spacing of 4000 nodes), and
    4000 nodes are up to 4.6e-4 off; 16000 are within 3.5e-9."""
    scn = weak_signal_ladder(equal_k)
    grid = VelocityGrid.uniform(nodes, LADDER_TEMPERATURE, LADDER_MASS_AMU,
                                span=8.0)
    spec = small_spec(scn, LADDER_DETUNINGS, grid=grid, geometry=geometry)
    assert_matches_ladder_oracle(scn, spec)


# ---------------------------------------------------------------------------
# The generator kept across sweeps
# ---------------------------------------------------------------------------

@pytest.fixture
def cold(monkeypatch):
    """Drops the generator kept by earlier sweeps, now and at each call;
    the kept one is restored after the test."""
    def drop():
        monkeypatch.setattr(doppler, "_last_generator", None)
    drop()
    return drop


@pytest.fixture
def builds(monkeypatch):
    """Counts the generators and eliminations sweeps build."""
    count = {"vectorize": 0, "_build_expansion": 0}
    for name in count:
        def counted(*args, _build=getattr(doppler, name), _name=name):
            count[_name] += 1
            return _build(*args)
        monkeypatch.setattr(doppler, name, counted)
    return count


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_kept_generator_rows_match_a_fresh_build(preset, geometry, cold):
    """Sweeps that reuse the kept generator and its elimination give rows
    bit-identical to sweeps that build both."""
    scn = load_preset(preset)
    grid = VelocityGrid.gauss_hermite(40)
    specs = [small_spec(scn, [d], grid=grid, geometry=geometry)
             for d in (-300.0, 10.0, 245.0)]
    fresh = []
    for spec in specs:
        cold()
        fresh.append(bits(sweep(spec)))
    _, kept, _ = doppler._generator(specs[-1])
    warm = [bits(sweep(spec)) for spec in specs]
    assert doppler._generator(specs[0])[1] is kept
    assert np.array_equal(warm, fresh)


def with_field(spec, role, **changes):
    fields = dict(spec.fields)
    fields[role] = dataclasses.replace(fields[role], **changes)
    return dataclasses.replace(spec, fields=fields)


def with_first_rate_doubled(spec):
    (src, ((tgt, rate), *chans)), *rest = spec.network.channels
    channels = ((src, ((tgt, 2.0 * rate), *chans)), *rest)
    return dataclasses.replace(spec, network=DecayNetwork(
        channels, spec.network.n_levels))


def with_offset_edited_in_place(spec):
    upper = spec.scheme.tiers.index(2)
    spec.scheme.energy_offsets[upper] += 3.0
    return spec


GENERATOR_CHANGES = {
    "pump-rabi": lambda spec: with_field(spec, "pump", rabi=90.0),
    "pump-polarization": lambda spec: with_field(
        spec, "pump", polarization=(0.6 + 0j, 0.8 + 0j)),
    "signal-detuning": lambda spec: with_field(spec, "signal", detuning=5.0),
    "decay-rate": with_first_rate_doubled,
    "offset-in-place": with_offset_edited_in_place,
}


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("change", GENERATOR_CHANGES)
def test_changed_generator_input_rebuilds(change, geometry, fig7, cold,
                                          builds):
    """A sweep after one whose generator inputs differ builds its generator
    anew and gives a fresh build's rows, even when the scheme's energy
    offsets were edited in place."""
    spec = small_spec(fig7, [-20.0, 245.0],
                      grid=VelocityGrid.gauss_hermite(8), geometry=geometry)
    scheme = dataclasses.replace(
        spec.scheme, energy_offsets=spec.scheme.energy_offsets.copy())
    spec = dataclasses.replace(spec, scheme=scheme)
    sweep(spec)
    changed = GENERATOR_CHANGES[change](spec)
    rows = bits(sweep(changed))
    assert builds == {"vectorize": 2, "_build_expansion": 2}
    cold()
    assert np.array_equal(rows, bits(sweep(changed)))


def test_second_sweep_builds_neither_generator_nor_elimination(fig7, cold,
                                                               builds):
    """A one-detuning request after another on the same spec reuses the
    generator at rest and its F elimination."""
    spec = small_spec(fig7, [240.0], grid=VelocityGrid.gauss_hermite(40))
    sweep(spec)
    assert builds == {"vectorize": 1, "_build_expansion": 1}
    sweep(dataclasses.replace(spec, detunings=np.array([250.0])))
    assert builds == {"vectorize": 1, "_build_expansion": 1}


def test_kept_eliminations_stay_within_the_cap(fig7, cold, builds):
    """A scan over ten signal wavevectors keeps one generator and its
    elimination, those of the last Doppler rates (k is in the key): each
    new k builds both, a second sweep at the same k builds neither, and one
    that was dropped is built again with the same rows."""
    spec = small_spec(fig7, [245.0], grid=VelocityGrid.gauss_hermite(8))
    scan = [with_field(spec, "signal", k=k) for k in np.linspace(0.1, 0.2, 10)]
    rows = []
    for n, scanned in enumerate(scan, 1):
        rows.append(bits(sweep(scanned)))
        assert builds == {"vectorize": n, "_build_expansion": n}
        assert np.array_equal(bits(sweep(scanned)), rows[-1])
        assert builds == {"vectorize": n, "_build_expansion": n}
    assert np.array_equal(bits(sweep(scan[0])), rows[0])
    assert builds == {"vectorize": 11, "_build_expansion": 11}


def test_pool_after_a_warm_serial_sweep_is_bit_identical(fig7, cold,
                                                         builds, monkeypatch):
    """The worker threads share the sweep's generator and its elimination,
    which the sweep builds before any row runs: a cold two-worker sweep
    builds each once, one after a serial sweep builds neither, and the rows
    of both are bit-identical to the serial sweep's."""
    spec = small_spec(fig7, np.linspace(-40.0, 40.0, 6),
                      grid=VelocityGrid.gauss_hermite(4))
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    pooled_cold = bits(sweep(spec, workers=2))
    assert builds == {"vectorize": 1, "_build_expansion": 1}
    cold()
    serial = bits(sweep(spec))
    built = dict(builds)
    assert np.array_equal(bits(sweep(spec, workers=2)), serial)
    assert builds == built
    assert np.array_equal(pooled_cold, serial)


# ---------------------------------------------------------------------------
# Parallelism, checkpointing, CSV
# ---------------------------------------------------------------------------

def test_sweeps_leave_the_generator_unchanged(fig7, cold, monkeypatch):
    """A Liouvillian holds its init fields and nothing else, and no sweep,
    serial or pooled, and no steady_states call changes one of them: what
    sweeps reuse is kept by doppler alone."""
    declared = dataclasses.fields(liouville.Liouvillian)
    fields = {f.name for f in declared if f.init}
    assert fields == {f.name for f in declared}
    spec = small_spec(fig7, np.linspace(-40.0, 40.0, 6),
                      grid=VelocityGrid.gauss_hermite(16))
    _, liou, _ = doppler._generator(spec)
    before = copy.deepcopy(vars(liou))
    assert set(before) == fields
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    sweep(spec)
    sweep(spec, workers=2)
    steady_states(liou, 3.0, [-1.0, 2.0], [0.5, 0.5], (-0.1, 0.2))
    assert doppler._generator(spec)[1] is liou
    assert vars(liou).keys() == before.keys()
    for name, value in before.items():
        assert type(vars(liou)[name]) is type(value)
        assert np.array_equal(vars(liou)[name], value), name


@pytest.mark.parametrize("workers", [0, -3, 1.5, 2.5, True, "2", None])
def test_worker_count_must_be_a_positive_int(fig7, workers):
    spec = small_spec(fig7, [0.0])
    with pytest.raises(ModelError, match="workers must be an int >= 1"):
        sweep(spec, workers=workers)


def test_sweep_worker_count_does_not_change_output(fig7):
    spec = small_spec(fig7, np.linspace(-40.0, 40.0, 6),
                      grid=VelocityGrid.gauss_hermite(4))
    serial = sweep(spec, workers=1)
    parallel = sweep(spec, workers=2)
    for a, b in zip(serial, parallel):
        assert a.as_tuple() == b.as_tuple()     # bit-identical


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_worker_threads_match_serial_rows(preset, geometry, cold,
                                          monkeypatch):
    """Two worker threads give rows bit-identical to a serial sweep's on
    every sweep preset and both geometries, at rest and on a small grid,
    whether they share the elimination a serial sweep kept or one the
    pooled sweep built cold."""
    scn = load_preset(preset)
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    for grid in (VelocityGrid.delta(), VelocityGrid.gauss_hermite(16)):
        spec = small_spec(scn, np.linspace(-60.0, 250.0, 8), grid=grid,
                          geometry=geometry)
        serial = bits(sweep(spec))
        assert np.array_equal(bits(sweep(spec, workers=2)), serial)
        cold()
        assert np.array_equal(bits(sweep(spec, workers=2)), serial)


def test_more_threads_than_cores_build_at_most_one_elimination_each(
        fig7, cold, builds, monkeypatch):
    """Eight worker threads switching every microsecond, from a cold start:
    the generator and the elimination they share are built once, before
    any row runs, and the rows are the serial sweep's."""
    spec = small_spec(fig7, np.linspace(-60.0, 250.0, 32))
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = bits(sweep(spec, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert builds == {"vectorize": 1, "_build_expansion": 1}
    cold()
    assert np.array_equal(pooled, bits(sweep(spec)))


def test_pool_over_blocks_matches_serial(fig7, monkeypatch):
    """The pool maps over detunings; with two CPUs it gets two workers and
    its rows are bit-identical to the serial sweep's."""
    spec = small_spec(fig7, np.linspace(-40.0, 40.0, 6),
                      grid=VelocityGrid.gauss_hermite(4))
    serial = bits(sweep(spec))
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    assert np.array_equal(bits(sweep(spec, workers=2)), serial)


class RecordingPool:
    """Stands in for doppler._pool: records the worker count and maps in
    this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(doppler, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    return RecordingPool


def test_worker_count_is_capped(fig7, monkeypatch, recording_pool):
    """The pool never has more workers than detunings to solve or CPUs
    this process may run on, and is not started for one detuning."""
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 3)
    grid = VelocityGrid.gauss_hermite(8)
    many = small_spec(fig7, np.linspace(-40.0, 40.0, 20), grid=grid)
    two = small_spec(fig7, [-10.0, 10.0], grid=grid)
    one = small_spec(fig7, [0.0], grid=grid)
    reference = bits(sweep(many))
    assert np.array_equal(bits(sweep(many, workers=10 ** 6)), reference)
    sweep(two, workers=10 ** 6)      # two detunings: two workers
    sweep(many, workers=2)
    sweep(one, workers=64)           # a single detuning
    assert recording_pool.sizes == [3, 2, 2]


def test_gate_10_shape_runs_two_workers(fig7, monkeypatch, recording_pool):
    """The acceptance gate's worker-count sweep (6 detunings x 4 nodes at
    two workers) starts a pool of two on a machine with two CPUs."""
    monkeypatch.setattr(doppler, "_cpu_count", lambda: 2)
    spec = small_spec(fig7, np.linspace(-40.0, 40.0, 6),
                      grid=VelocityGrid.gauss_hermite(4))
    sweep(spec, workers=2)
    assert recording_pool.sizes == [2]


def test_sweep_progress_callback(fig7):
    spec = small_spec(fig7, [0.0, 10.0], grid=VelocityGrid.gauss_hermite(3))
    seen = []
    sweep(spec, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]     # detunings


class Interrupt(Exception):
    pass


def test_checkpoint_resume_matches_uninterrupted(tmp_path, fig7):
    spec = small_spec(fig7, np.linspace(0.0, 50.0, 24),
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
    assert seen == list(range(17, 25))      # saved after detuning 16
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
    assert seen == [1, 2]
    for a, b in zip(resumed, sweep(spec)):
        assert a.as_tuple() == b.as_tuple()


def test_checkpoint_of_format_v4_is_recomputed(tmp_path, fig7,
                                               monkeypatch):
    """A v4 checkpoint holds rows averaged over every node of the grid,
    which differ in the last bits from rows over the nodes a sweep keeps;
    it is recomputed in full, not resumed."""
    spec = small_spec(fig7, [0.0, 10.0, 20.0],
                      grid=VelocityGrid.gauss_hermite(40))
    ck = str(tmp_path / "sweep.ckpt.npz")
    with monkeypatch.context() as patch:
        patch.setattr(doppler, "CHECKPOINT_FORMAT",
                      "vaporplate sweep checkpoint v4: finished rows")
        sweep(spec, checkpoint=ck)
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == [1, 2, 3]
    assert np.array_equal(bits(resumed), bits(sweep(spec)))


def velocity_major_fingerprint(spec):
    """The fingerprint of the velocity-major checkpoint format, which held
    a partial weighted sum over nodes ("acc") and the node count."""
    import hashlib
    _, liou, _ = doppler._generator(spec)
    digest = hashlib.sha256(spec.detunings.tobytes())
    digest.update(repr((spec.geometry, spec.grid, sorted(spec.fields.items()),
                        spec.medium)).encode())
    digest.update(np.ascontiguousarray(liou.m))
    return digest.hexdigest()


def test_checkpoint_in_velocity_major_format_is_recomputed(tmp_path, fig7):
    """A checkpoint of partial sums over velocity nodes is not read as
    finished rows: the sweep is recomputed in full, bit for bit."""
    spec = small_spec(fig7, [0.0, 10.0, 20.0],
                      grid=VelocityGrid.gauss_hermite(4))
    ck = str(tmp_path / "sweep.ckpt.npz")
    np.savez(ck, fingerprint=velocity_major_fingerprint(spec),
             acc=np.ones((3, 4)), nodes=2)
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == [1, 2, 3]
    assert np.array_equal(bits(resumed), bits(sweep(spec)))


def checkpoint_without(key, spec, path):
    """A checkpoint of spec's finished sweep with one of its arrays left
    out."""
    sweep(spec, checkpoint=path)
    with np.load(path) as data:
        kept = {k: data[k] for k in data.files if k != key}
    np.savez(path, **kept)


@pytest.mark.parametrize("key", ["fingerprint", "done"])
def test_checkpoint_missing_an_array_is_recomputed(tmp_path, fig7, key):
    """An npz archive without the fingerprint, rows or done of this
    format is a checkpoint of another format: the sweep is recomputed."""
    spec = small_spec(fig7, [0.0, 10.0], grid=VelocityGrid.gauss_hermite(4))
    ck = str(tmp_path / "sweep.ckpt.npz")
    checkpoint_without(key, spec, ck)
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == [1, 2]
    assert np.array_equal(bits(resumed), bits(sweep(spec)))


def test_lone_array_checkpoint_is_recomputed(tmp_path, fig7):
    """A .npy array, which numpy reads but is no archive, is a checkpoint
    of another format."""
    spec = small_spec(fig7, [0.0, 10.0], grid=VelocityGrid.gauss_hermite(4))
    ck = str(tmp_path / "sweep.ckpt.npy")
    np.save(ck, np.ones((2, 4)))
    seen = []
    resumed = sweep(spec, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == [1, 2]
    assert np.array_equal(bits(resumed), bits(sweep(spec)))


@pytest.mark.parametrize("content", [b"", b"not a checkpoint\n",
                                     b"PK\x03\x04 a broken archive"])
def test_unreadable_checkpoint_raises_config_error(tmp_path, fig7, content):
    """A checkpoint path holding a file numpy cannot read (empty, text, a
    broken zip archive) stops the sweep with a ConfigError naming the
    path, and the file is left as it was."""
    spec = small_spec(fig7, [0.0, 10.0])
    ck = tmp_path / "sweep.ckpt.npz"
    ck.write_bytes(content)
    with pytest.raises(ConfigError, match="sweep.ckpt.npz"):
        sweep(spec, checkpoint=str(ck))
    assert ck.read_bytes() == content


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


@pytest.mark.parametrize("change", ["decay-rate", "offset-in-place"])
def test_checkpoint_ignored_for_different_generator(tmp_path, fig7, change):
    """A checkpoint is not resumed by a sweep whose generator at rest
    differs where the fields, grid and medium do not: in the decay network
    or in an energy offset edited in place."""
    ck = str(tmp_path / "sweep.ckpt.npz")
    spec = small_spec(fig7, [0.0, 10.0], grid=VelocityGrid.gauss_hermite(4))
    spec = dataclasses.replace(spec, scheme=dataclasses.replace(
        spec.scheme, energy_offsets=spec.scheme.energy_offsets.copy()))
    sweep(spec, checkpoint=ck)
    changed = GENERATOR_CHANGES[change](spec)
    seen = []
    resumed = sweep(changed, checkpoint=ck,
                    progress=lambda done, total: seen.append(done))
    assert seen == [1, 2]
    assert np.array_equal(bits(resumed), bits(sweep(changed)))


def test_checkpoint_follows_grid_nodes_and_weights(tmp_path, fig7):
    """A checkpoint is resumed by a sweep on an equal grid built again, and
    recomputed for a grid that differs in the last bit of one weight."""
    ck = str(tmp_path / "sweep.ckpt.npz")
    grid = VelocityGrid.gauss_hermite(4)
    weights = list(grid.weights)
    weights[1] = np.nextafter(weights[1], 1.0)
    nudged = dataclasses.replace(grid, weights=tuple(weights))

    def sweep_on(g, **kwargs):
        return bits(sweep(small_spec(fig7, [0.0, 10.0], grid=g), **kwargs))
    reference = sweep_on(grid, checkpoint=ck)
    seen = []
    resumed = sweep_on(VelocityGrid.gauss_hermite(4), checkpoint=ck,
                       progress=lambda done, total: seen.append(done))
    assert seen == [] and np.array_equal(resumed, reference)
    recomputed = sweep_on(nudged, checkpoint=ck,
                          progress=lambda done, total: seen.append(done))
    assert seen == [1, 2]
    assert np.array_equal(recomputed, sweep_on(nudged))


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


def test_csv_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ModelError, match="not UTF-8 text") as exc:
        read_sweep_csv(str(path))
    assert str(path) in str(exc.value)


def test_csv_rejects_unexpected_columns(tmp_path):
    """A sweep CSV whose column header is not this version's is refused."""
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), np.array([0.0]),
                    [OpticalResponse(0.1, 0.2, 0.3, 0.4)])
    magic, header, row = path.read_text().splitlines()
    header = header.replace("phi_plus", "phi_p")
    path.write_text(f"{magic}\n{header}\n{row}\n")
    with pytest.raises(ModelError, match="unexpected sweep CSV columns"):
        read_sweep_csv(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_fields(tmp_path, value):
    """A sweep CSV field that reads as nan or inf is refused, naming the
    file and the line, rather than read back as a response."""
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), np.array([0.0, 1.0]),
                    [OpticalResponse(0.1, 0.2, 0.3, 0.4)] * 2)
    magic, header, first, second = path.read_text().splitlines()
    fields = second.split(",")
    fields[1] = value
    path.write_text("\n".join([magic, header, first, ",".join(fields)]))
    with pytest.raises(ModelError, match="line 4: expected 7 finite") as exc:
        read_sweep_csv(str(path))
    assert str(path) in str(exc.value)


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
