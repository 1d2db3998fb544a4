"""Hamiltonian assembly, vectorization, steady states, and time evolution."""

import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
import yaml

from vaporplate import (CO, COUNTER, DecayNetwork, DecayParams, FieldSpec,
                        LevelScheme, Manifold, ModelError, SolverError,
                        SublevelId, TransitionEntry, TransitionTable,
                        build_hamiltonian, doppler_shifts, evolve,
                        load_preset, scenario_from_config, steady_state,
                        steady_states, suggest_dt, vectorize)
from vaporplate import liouville
from vaporplate.liouville import _driven


def two_level(rabi=1.0, detuning=0.0, gamma=1.0):
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(0,)),
        Manifold("E", tier=1, j=0.5, f_values=(1,), mf_values=(1,)),
    ]
    scheme = LevelScheme.build(manifolds, DecayParams(gamma_g=0.0))
    table = TransitionTable((TransitionEntry(
        SublevelId("E", f=1, mf=1), SublevelId("G", f=0, mf=0), 1, 1.0,
        "pump"),))
    fields = {"pump": FieldSpec("pump", rabi, detuning)}
    network = DecayNetwork.from_dict({1: [(0, gamma)]}, 2)
    return scheme, table, fields, network


def two_level_liouvillian(rabi=1.0, detuning=0.0, gamma=1.0):
    scheme, table, fields, network = two_level(rabi, detuning, gamma)
    h = build_hamiltonian(scheme, table, fields)
    return vectorize(h, scheme, network), scheme, fields


def analytic_excited_population(rabi, detuning, gamma):
    return (rabi ** 2 / 4.0) / (detuning ** 2 + gamma ** 2 / 4.0
                                + rabi ** 2 / 2.0)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_two_level_hamiltonian_matrix():
    scheme, table, fields, _ = two_level(rabi=2.0, detuning=0.7)
    h = build_hamiltonian(scheme, table, fields)
    expected = np.array([[0.0, 1.0], [1.0, -0.7]], dtype=complex)
    assert np.allclose(h, expected, atol=1e-14)


def test_hamiltonian_polarization_projection():
    scheme, table, fields, _ = two_level(rabi=2.0)
    fields = {"pump": FieldSpec("pump", 2.0, 0.0,
                                polarization=(0.0 + 0j, 1.0 + 0j))}
    h = build_hamiltonian(scheme, table, fields)
    # sigma- polarized field does not drive the sigma+ transition
    assert h[0, 1] == 0.0 and h[1, 0] == 0.0


def test_hamiltonian_velocity_shifts_add_to_detunings():
    scheme, table, fields, _ = two_level(detuning=1.0)
    h = build_hamiltonian(scheme, table, fields, velocity_shifts=(0.25, 0.0))
    assert h[1, 1] == pytest.approx(-1.25)


def test_hamiltonian_rejects_lumped_coupling():
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(0,)),
        Manifold("L", tier=1, j=0.5, f_values=(1,), lumped=True),
    ]
    scheme = LevelScheme.build(manifolds, DecayParams())
    entry = TransitionEntry(SublevelId("L", lumped=True),
                            SublevelId("G", f=0, mf=0), 1, 1.0, "pump")
    with pytest.raises(ModelError, match="lumped"):
        build_hamiltonian(scheme, TransitionTable((entry,)),
                          {"pump": FieldSpec("pump", 1.0, 0.0)})


def test_field_spec_validation():
    with pytest.raises(ModelError):
        FieldSpec("pump", 1.0, 0.0, polarization=(1.0 + 0j, 1.0 + 0j))
    with pytest.raises(ModelError):
        FieldSpec("pump", -1.0, 0.0)
    for bad in ({"rabi": float("nan")}, {"rabi": float("inf")},
                {"detuning": float("nan")}, {"k": float("nan")}):
        kw = {"rabi": 1.0, "detuning": 0.0, **bad}
        with pytest.raises(ModelError):
            FieldSpec("pump", **kw)
    with pytest.raises(ModelError):
        FieldSpec("pump", 1.0, 0.0, polarization=(float("nan"), 0.0))
    f = FieldSpec("pump", 1.0, 0.0, polarization=(0.6, 0.8j))
    assert f.component(1) == 0.6
    assert f.component(-1) == 0.8j
    assert f.component(0) == 0.0


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------

def test_two_level_bloch_matrix_by_hand():
    """The vectorized generator matches the optical Bloch equations written
    out by hand for coordinates (rho_gg, rho_ge, rho_eg, rho_ee)."""
    liou, _, _ = two_level_liouvillian(rabi=1.4, detuning=0.3, gamma=0.9)
    o, d, g = 1.4, 0.3, 0.9
    expected = np.array([
        [0, 0.5j * o, -0.5j * o, g],
        [0.5j * o, -1j * d - g / 2, 0, -0.5j * o],
        [-0.5j * o, 0, 1j * d - g / 2, 0.5j * o],
        [0, -0.5j * o, 0.5j * o, -g],
    ], dtype=complex)
    assert liou.coords == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert np.allclose(liou.m, expected, atol=1e-14)


def test_lumped_coherences_are_excluded():
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(0,)),
        Manifold("E", tier=1, j=0.5, f_values=(1,), mf_values=(1,)),
        Manifold("R", tier=1, j=1.5, f_values=(1, 2), lumped=True),
    ]
    scheme = LevelScheme.build(manifolds, DecayParams())
    table = TransitionTable((TransitionEntry(
        SublevelId("E", f=1, mf=1), SublevelId("G", f=0, mf=0), 1, 1.0,
        "pump"),))
    h = build_hamiltonian(scheme, table, {"pump": FieldSpec("pump", 1.0, 0.0)})
    network = DecayNetwork.from_dict({1: [(2, 1.0)], 2: [(0, 0.5)]}, 3)
    liou = vectorize(h, scheme, network)
    assert (2, 2) in liou.coords
    assert (0, 2) not in liou.coords and (2, 1) not in liou.coords
    rho = steady_state(liou)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


def lumped_scheme():
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(0,)),
        Manifold("E", tier=1, j=0.5, f_values=(1,), mf_values=(1,)),
        Manifold("R", tier=1, j=1.5, f_values=(1, 2), lumped=True),
    ]
    scheme = LevelScheme.build(manifolds, DecayParams())
    network = DecayNetwork.from_dict({1: [(2, 1.0)], 2: [(0, 0.5)]}, 3)
    return scheme, network


def test_lumped_coupling_in_hamiltonian_is_rejected():
    """A Hamiltonian that couples a lumped level feeds the excluded
    coherences into retained coordinates, which vectorize refuses."""
    scheme, network = lumped_scheme()
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = 0.3
    with pytest.raises(ModelError, match="lumped levels must stay"):
        vectorize(h, scheme, network)


def kron_generator(h, scheme, network):
    """The generator as the Kronecker-product formula builds it on all n**2
    coordinates, with the decay network, restricted to the retained
    coordinates."""
    n = scheme.n_levels
    eye = np.eye(n)
    m_full = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    loss = network.loss_rates()
    m_full[np.diag_indices(n * n)] -= \
        0.5 * (loss[:, None] + loss[None, :]).ravel()
    for src, chans in network.channels:
        for tgt, rate in chans:
            m_full[tgt * n + tgt, src * n + src] += rate
    lumped = np.array([lev.lumped for lev in scheme.levels])
    keep = np.eye(n, dtype=bool) | ~(lumped[:, None] | lumped[None, :])
    sel = np.flatnonzero(keep.ravel())
    return m_full[np.ix_(sel, sel)]


@pytest.mark.parametrize("preset", ["fig1-ideal", "fig8-qwp",
                                    "fig7-reduced15", "fig7-full"])
def test_vectorize_matches_kron_formula_bit_for_bit(preset):
    """vectorize builds -i[H, .] on the retained coordinates directly; every
    entry, signed zeros included, equals the Kronecker-product formula's."""
    scn = load_preset(preset)
    fields = scn.fields
    cases = [build_hamiltonian(scn.scheme, scn.transitions, fields),
             build_hamiltonian(scn.scheme, scn.transitions, fields,
                               velocity_shifts=(-37.5, 12.25))]
    for h in cases:
        liou = vectorize(h, scn.scheme, scn.network)
        want = kron_generator(h, scn.scheme, scn.network)
        assert liou.m.shape == want.shape
        assert np.array_equal(liou.m.view(np.uint64), want.view(np.uint64))
    scheme, network = lumped_scheme()
    h = np.array([[0.0, 0.4 - 0.1j, 0.0], [0.4 + 0.1j, -1.5, 0.0],
                  [0.0, 0.0, 2.0]])
    want = kron_generator(h, scheme, network)
    assert np.array_equal(vectorize(h, scheme, network).m.view(np.uint64),
                          want.view(np.uint64))


def test_orphaning_network_raises():
    scheme, table, fields, _ = two_level()
    h = build_hamiltonian(scheme, table, fields)
    leaky = DecayNetwork.from_dict({1: [(1, 0.0)]}, 2)
    # explicit loss without a matching repopulation channel
    liou_m = vectorize(h, scheme, DecayNetwork.from_dict({1: [(0, 1.0)]}, 2))
    assert liou_m is not None
    bad = DecayNetwork(((1, ((0, 0.5),)),), 2)
    # manually break conservation by editing rates after the fact is not
    # possible (frozen), so model the orphan as decay into a slot that also
    # leaks: a source with loss but no destination
    with pytest.raises(SolverError, match="orphan"):
        class Leaky(DecayNetwork):
            def loss_rates(self):
                g = super().loss_rates()
                g[1] += 0.5       # extra loss with no repopulation
                return g
        vectorize(h, scheme, Leaky(bad.channels, 2))


def test_vectorize_rejects_nan():
    scheme, table, fields, network = two_level()
    h = build_hamiltonian(scheme, table, fields)
    h[0, 1] = h[1, 0] = np.nan
    with pytest.raises(ModelError, match="Hermitian"):
        vectorize(h, scheme, network)
    nan_rate = DecayNetwork.from_dict({1: [(0, float("nan"))]}, 2)
    with pytest.raises(SolverError, match="orphan"):
        vectorize(build_hamiltonian(scheme, table, fields), scheme, nan_rate)


def test_network_validation():
    with pytest.raises(ModelError):
        DecayNetwork(((5, ((0, 1.0),)),), 2)
    with pytest.raises(ModelError):
        DecayNetwork(((1, ((0, -1.0),)),), 2)


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------

def test_two_level_analytic_population():
    rng = np.random.default_rng(11)
    for _ in range(50):
        o = rng.uniform(0.1, 8.0)
        d = rng.uniform(-10.0, 10.0)
        g = rng.uniform(0.3, 3.0)
        liou, _, _ = two_level_liouvillian(o, d, g)
        rho = steady_state(liou)
        assert rho[1, 1].real == pytest.approx(
            analytic_excited_population(o, d, g), abs=1e-9)


def test_detuning_shifts_match_rebuilt_generator():
    """steady_state's extra detuning moves the same diagonal entries as
    rebuilding the Hamiltonian at the shifted detuning."""
    liou, _, _ = two_level_liouvillian(1.7, -0.4, 0.8)
    shifted = steady_state(liou, pump_shift=0.9)
    rebuilt = steady_state(two_level_liouvillian(1.7, 0.5, 0.8)[0])
    assert np.allclose(shifted, rebuilt, atol=1e-12)
    assert shifted[1, 1].real == pytest.approx(
        analytic_excited_population(1.7, 0.5, 0.8), abs=1e-9)


def test_non_finite_steady_state_raises():
    liou, _, _ = two_level_liouvillian()
    with pytest.raises(SolverError, match="not finite"):
        steady_state(liou, pump_shift=float("nan"))
    # the velocity kernel fails its checks and reports the dense error
    with pytest.raises(SolverError, match="not finite"):
        steady_states(liou, [0.0, 1.0], [float("nan")], [1.0], (1.0, 0.0))


def test_steady_states_without_signal_coordinates():
    """A generator the signal detuning does not move: every shift gives the
    dense steady state, and no shift gives an empty stack."""
    liou, _, _ = two_level_liouvillian(1.7, -0.4, 0.8)
    stack = steady_states(liou, [-1.0, 2.0], [0.9], [1.0], (1.0, 0.0))
    for rho in stack:
        assert np.allclose(rho, steady_state(liou, pump_shift=0.9),
                           atol=1e-12)
    assert steady_states(liou, [], [0.9], [1.0], (1.0, 0.0)).shape == \
        (0, 2, 2)


def test_steady_states_across_detuning_chunks(monkeypatch):
    """Many signal shifts in one call, at one velocity node and averaged
    over a grid of nodes, match the dense solve cell by cell without
    falling back."""
    scn = load_preset("fig1-ideal")
    h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields)
    liou = vectorize(h, scn.scheme, scn.network)
    doppler = (-0.8, 0.45)
    assert liou._expansion(doppler).n_f < len(liou._expansion(doppler).a)
    shifts = np.linspace(-40.0, 40.0, 67)
    nodes, weights = np.array([-9.0, 0.4, 17.0]), np.array([0.2, 0.5, 0.3])
    dense = np.array([steady_state(liou, doppler[0] * nodes[1],
                                   s + doppler[1] * nodes[1])
                      for s in shifts])
    average = np.array([sum(w * steady_state(liou, doppler[0] * v,
                                             s + doppler[1] * v)
                            for v, w in zip(nodes, weights))
                        for s in shifts[:19]])

    def no_fallback(*args):
        raise AssertionError("dense fallback used")
    monkeypatch.setattr(liouville, "steady_state", no_fallback)
    stack = steady_states(liou, shifts, nodes[1:2], [1.0], doppler)
    assert stack.shape == dense.shape
    assert np.allclose(stack, dense, rtol=1e-9, atol=1e-12)
    block = steady_states(liou, shifts[:19], nodes, weights, doppler)
    assert block.shape == average.shape
    assert np.allclose(block, average, rtol=1e-9, atol=1e-12)


def test_real_eigenvalues_are_handled(monkeypatch):
    """np.linalg.eig returns real arrays when every eigenvalue is real.  A
    constructed two-level generator gives Delta^-1 S0 such a spectrum: no
    Rabi coupling, an undamped coherence fed from the ground population,
    and a pump Doppler shift.  The kernel still matches the dense solve
    without falling back, away from the real pole at v = detuning."""
    liou, _, _ = two_level_liouvillian(0.0, 3.0, 0.8)
    m = liou.m.copy()
    m[1, 1] = m[1, 1].imag * 1j      # coordinates (0,0), (0,1), (1,0), (1,1)
    m[2, 2] = m[2, 2].imag * 1j
    m[1, 0], m[2, 0] = 0.3 - 0.2j, 0.3 + 0.2j
    liou = dataclasses.replace(liou, m=m)
    doppler = (1.0, 0.0)
    lam, _ = np.linalg.eig(liou._expansion(doppler).p0)
    assert np.isrealobj(lam)
    nodes, weights = np.array([-2.0, 0.5, 7.0]), np.array([0.3, 0.3, 0.4])
    want = [sum(w * steady_state(liou, v, s) for v, w in zip(nodes, weights))
            for s in (0.0, 1.5)]

    def no_fallback(*args):
        raise AssertionError("dense fallback used")
    monkeypatch.setattr(liouville, "steady_state", no_fallback)
    got = steady_states(liou, [0.0, 1.5], nodes, weights, doppler)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    assert np.abs(got[0, 0, 1]) > 0.01


def fig1_with_undamped_coherence(feed=None):
    """fig1-ideal's generator with the coherence rho_01 (ground and an
    intermediate sublevel) made undamped and cut off from every other
    coordinate, and fed from the ground population if feed is given.
    Delta^-1 S0 then has a real eigenvalue, rho_01's frequency over its
    Doppler rate, beside the conjugate pairs of the damped coherences."""
    scn = load_preset("fig1-ideal")
    liou = vectorize(build_hamiltonian(scn.scheme, scn.transitions,
                                       scn.fields), scn.scheme, scn.network)
    i, j, g = (liou.coords.index(c) for c in ((0, 1), (1, 0), (0, 0)))
    m = liou.m.copy()
    m[[i, j], :] = 0.0
    m[:, [i, j]] = 0.0
    m[i, i], m[j, j] = 50j, -50j
    if feed is not None:
        m[i, g], m[j, g] = feed, np.conj(feed)
    return dataclasses.replace(liou, m=m)


def dense_average(liou, shifts, nodes, weights, doppler):
    return [sum(w * steady_state(liou, doppler[0] * v, s + doppler[1] * v)
                for v, w in zip(nodes, weights)) for s in shifts]


def test_mixed_real_and_complex_spectrum(monkeypatch):
    """A spectrum of Delta^-1 S0 with real eigenvalues and conjugate pairs
    together (eig's arrays are complex, the real eigenvalues' imaginary
    parts zero): the kernel matches the dense solve without falling
    back."""
    liou = fig1_with_undamped_coherence(feed=3.0 - 2.0j)
    doppler = (-0.8, 0.45)
    lam, _ = np.linalg.eig(liou._expansion(doppler).p0)
    assert np.any(lam.imag == 0) and np.any(lam.imag != 0)
    nodes, weights = np.array([-9.0, 0.4, 17.0]), np.array([0.2, 0.5, 0.3])
    shifts = [0.0, 1.5, -30.0]
    want = dense_average(liou, shifts, nodes, weights, doppler)

    def no_fallback(*args):
        raise AssertionError("dense fallback used")
    monkeypatch.setattr(liouville, "steady_state", no_fallback)
    got = steady_states(liou, shifts, nodes, weights, doppler)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    assert np.abs(got[:, 0, 1]).min() > 0.01      # the real mode is driven


def test_node_on_a_real_pole_alone_takes_the_dense_path(monkeypatch):
    """A velocity node exactly on a real pole of the expansion, that of an
    undamped coherence no other coordinate feeds, so the generator there
    is regular: the node's column is not finite, the node alone goes to
    steady_state at each shift, and the average, summed over the nodes
    that passed rather than with a zero weight on the failed one, is
    finite and matches the dense average."""
    liou = fig1_with_undamped_coherence()
    doppler = (-0.3, 0.45)
    lam, _ = np.linalg.eig(liou._expansion(doppler).p0)
    pole = -lam[lam.imag == 0].real[0]
    nodes, weights = np.array([-9.0, pole, 17.0]), np.array([0.2, 0.5, 0.3])
    shifts = [0.0, 1.5]
    want = dense_average(liou, shifts, nodes, weights, doppler)
    calls = []
    dense = liouville.steady_state

    def record(liou, pump_shift=0.0, signal_shift=0.0):
        calls.append((pump_shift, signal_shift))
        return dense(liou, pump_shift, signal_shift)
    monkeypatch.setattr(liouville, "steady_state", record)
    got = steady_states(liou, shifts, nodes, weights, doppler)
    assert calls == [(doppler[0] * pole, s + doppler[1] * pole)
                     for s in shifts]
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def fig7_full_liouvillian(**decay):
    cfg = yaml.safe_load(resources.files("vaporplate.data")
                         .joinpath("fig7-full.yaml").read_text())
    cfg["decay"].update(decay)
    scn = scenario_from_config(cfg)
    h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields)
    return vectorize(h, scn.scheme, scn.network), scn


def test_elimination_blocks_on_fig7_full():
    """fig7-full's driven coordinates, in real form, split into F, which no
    Doppler shift moves and which is eliminated once per generator and
    geometry, and S; the 142 coordinates left out are strictly damped
    coherences."""
    liou, scn = fig7_full_liouvillian()
    pump, signal = scn.fields["pump"], scn.fields["signal"]
    ex = liou._expansion(doppler_shifts(1.0, COUNTER, pump.k, signal.k))
    assert (ex.n_f, len(ex.a) - ex.n_f) == (48, 68)
    assert np.all(ex.populations < ex.n_f)
    assert len(ex.populations) == len(liou.populations)
    assert not np.any(ex.coef_v[:ex.n_f]) and not np.any(ex.coef_s[:ex.n_f])
    assert np.all(ex.coef_v[ex.n_f:])
    dropped = ~_driven(liou)
    assert np.count_nonzero(dropped) == 142
    assert not np.any(dropped[liou.populations])
    assert np.all(np.diagonal(liou.m).real[dropped] < 0)


def test_driven_set_keeps_every_coordinate_without_ground_relaxation():
    """With gamma_g = 0 some ground coherences outside the driven set are
    not damped, so the reduction is not exact and nothing is left out."""
    liou, _ = fig7_full_liouvillian(gamma_g=0.0)
    assert np.all(_driven(liou))


@pytest.mark.parametrize("geometry", [COUNTER, CO])
@pytest.mark.parametrize("preset", ["fig1-ideal", "fig8-qwp",
                                    "fig7-reduced15", "fig7-full"])
def test_dense_steady_state_vanishes_off_the_driven_set(preset, geometry):
    """The dense solve of the whole generator is exactly zero on every
    coordinate the elimination leaves out, at any velocity and detuning;
    the coordinates it keeps hold each one's transpose."""
    scn = load_preset(preset)
    h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields)
    liou = vectorize(h, scn.scheme, scn.network)
    dropped = ~_driven(liou)
    transposed = np.zeros((liou.n_levels, liou.n_levels), dtype=bool)
    transposed[liou.cols[~dropped], liou.rows[~dropped]] = True
    assert np.array_equal(transposed[liou.rows, liou.cols], ~dropped)
    pump, signal = scn.fields["pump"], scn.fields["signal"]
    rng = np.random.default_rng(14)
    for _ in range(4):
        v, delta_s = rng.uniform(-400.0, 400.0), rng.uniform(-600.0, 600.0)
        shift_p, shift_s = doppler_shifts(v, geometry, pump.k, signal.k)
        rho = steady_state(liou, shift_p,
                           delta_s - signal.detuning + shift_s)
        assert np.all(rho[liou.rows[dropped], liou.cols[dropped]] == 0.0)


def test_steady_state_scale_invariance():
    """Scaling every frequency by a common factor leaves the steady state
    unchanged (only the time axis rescales)."""
    a = steady_state(two_level_liouvillian(1.3, 0.9, 0.7)[0])
    b = steady_state(two_level_liouvillian(13.0, 9.0, 7.0)[0])
    assert np.allclose(a, b, atol=1e-10)


def test_nonunique_steady_state_raises():
    """Two disconnected ground slots with no coupling have a degenerate
    steady state and must be reported, not silently answered."""
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(1,), mf_values=(-1, 1)),
    ]
    scheme = LevelScheme.build(manifolds, DecayParams())
    h = np.zeros((2, 2), dtype=complex)
    network = DecayNetwork.from_dict({}, 2)
    liou = vectorize(h, scheme, network)
    with pytest.raises(SolverError, match="non-unique"):
        steady_state(liou)
    with pytest.raises(SolverError, match="non-unique"):
        steady_states(liou, [0.0, 1.0], [0.0], [1.0], (0.0, 0.0))


def test_density_validation_tolerances():
    liou, _, _ = two_level_liouvillian(2.0, 1.0, 1.0)
    rho = steady_state(liou)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert abs(np.trace(rho).real - 1.0) <= 1e-8
    assert np.min(np.diag(rho).real) >= -1e-8


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

def test_rabi_oscillation_without_decay():
    scheme, table, fields, _ = two_level(rabi=1.0)
    h = build_hamiltonian(scheme, table, fields)
    liou = vectorize(h, scheme, DecayNetwork.from_dict({}, 2))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = 2.0 * math.pi / 3.0      # quarter flop of a pi-pulse... Omega*t = 2pi/3
    rho = evolve(rho0, liou, t, dt=1e-3)
    assert rho[1, 1].real == pytest.approx(math.sin(t / 2.0) ** 2, abs=1e-8)


def test_evolve_reaches_steady_state():
    liou, _, fields = two_level_liouvillian(2.0, 0.5, 1.0)
    rho_ss = steady_state(liou)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho_t = evolve(rho0, liou, 50.0, dt=suggest_dt(liou, fields))
    assert np.max(np.abs(rho_t - rho_ss)) < 1e-6


def test_steady_state_is_fixed_point_of_evolution():
    liou, _, fields = two_level_liouvillian(1.1, -0.3, 0.6)
    rho_ss = steady_state(liou)
    rho_t = evolve(rho_ss, liou, 5.0, dt=suggest_dt(liou, fields))
    assert np.max(np.abs(rho_t - rho_ss)) < 1e-9


def test_evolve_rejects_bad_arguments():
    liou, _, _ = two_level_liouvillian()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SolverError):
        evolve(rho0, liou, 1.0, dt=0.0)


def test_evolve_detects_unstable_step():
    liou, _, _ = two_level_liouvillian(rabi=50.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SolverError, match="reduce dt"):
        evolve(rho0, liou, 10.0, dt=0.2)
