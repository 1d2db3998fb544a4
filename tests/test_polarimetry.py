"""Jones calculus, detector model, LCR scans, inversion, and the ideal
probe polarization state."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaporplate import (DEFAULT_LCR_CALIBRATION, InversionError,
                        LcrCalibration, LcrScan, MediumParams, ModelError,
                        OpticalResponse, detector_intensity, from_circular,
                        ideal_probe_state, invert_scan, invert_scan_lsq,
                        jones_chain_intensity, lcr_matrix, linear_polarizer,
                        overlap, propagate_cell, rotation, synthesize_scan,
                        to_circular)

X = np.array([1.0, 0.0], dtype=complex)
Y = np.array([0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------------------
# Basis and matrices
# ---------------------------------------------------------------------------

def test_circular_basis_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        ep, em = to_circular(e)
        assert np.max(np.abs(from_circular(ep, em) - e)) < 1e-14


def test_unitary_matrices_preserve_norm():
    rng = np.random.default_rng(4)
    for _ in range(100):
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        for mat in (rotation(rng.uniform(0, 2 * math.pi)),
                    lcr_matrix(rng.uniform(0, math.pi))):
            assert np.linalg.norm(mat @ e) == pytest.approx(
                np.linalg.norm(e), abs=1e-12)


def test_polarizer_is_projector():
    p = linear_polarizer(0.3)
    assert np.allclose(p @ p, p, atol=1e-14)
    assert np.allclose(p, p.conj().T, atol=1e-14)


# ---------------------------------------------------------------------------
# Cell propagation
# ---------------------------------------------------------------------------

def test_propagate_identity_medium():
    r = OpticalResponse(0.0, 0.0, 0.0, 0.0)
    e = np.array([0.3 + 0.1j, -0.7j])
    assert np.allclose(propagate_cell(e, r), e, atol=1e-14)


def test_propagate_half_wave_rotates_linear_by_90deg():
    r = OpticalResponse(phi_plus=0.0, phi_minus=math.pi,
                        alpha_plus=0.0, alpha_minus=0.0)
    out = propagate_cell(Y, r)
    assert overlap(out, X) == pytest.approx(1.0, abs=1e-12)


def test_propagate_componentwise_modulus():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = OpticalResponse(*rng.normal(scale=0.8, size=4))
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        ein_p, ein_m = to_circular(e)
        eout_p, eout_m = to_circular(propagate_cell(e, r))
        assert abs(eout_p) == pytest.approx(
            math.exp(-r.alpha_plus) * abs(ein_p), abs=1e-12)
        assert abs(eout_m) == pytest.approx(
            math.exp(-r.alpha_minus) * abs(ein_m), abs=1e-12)


def test_optical_response_differentials_derived():
    r = OpticalResponse(0.4, 0.1, 0.03, 0.01)
    assert r.phi_d == pytest.approx(0.3)
    assert r.alpha_d == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# Detector model
# ---------------------------------------------------------------------------

def test_closed_form_equals_jones_chain():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10_000):
        e0 = rng.uniform(0.1, 5.0)
        am = rng.uniform(0.0, 1.0)
        ad = rng.uniform(-1.0, 1.0)
        pd = rng.uniform(-math.pi, math.pi)
        th = rng.uniform(0.0, math.pi)
        a = detector_intensity(e0, am, ad, pd, th)
        b = jones_chain_intensity(e0, am, ad, pd, th)
        worst = max(worst, abs(a - b))
    assert worst < 1e-12


def test_flat_point_is_phase_independent():
    for pd in np.linspace(-math.pi, math.pi, 37):
        i = detector_intensity(2.0, 0.3, 0.0, pd, math.pi / 2.0)
        assert i == pytest.approx(2.0 * math.exp(-0.6) / 2.0, abs=1e-12)


def test_crossed_polarizer_dark_at_zero_retardance():
    assert detector_intensity(1.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(
        0.0, abs=1e-14)


def test_phase_inversion_sums_to_e0():
    """Traces at phi_d = 0 and phi_d = pi are mirror images that sum to the
    full (attenuated) intensity at every retardance."""
    e0, am = 1.7, 0.25
    for th in np.linspace(0.0, math.pi, 50):
        total = detector_intensity(e0, am, 0.0, 0.0, th) + \
            detector_intensity(e0, am, 0.0, math.pi, th)
        assert total == pytest.approx(e0 * math.exp(-2 * am), abs=1e-12)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def test_synthesize_constant_theta_gives_constant_intensity():
    r = OpticalResponse(0.5, 0.1, 0.02, 0.01)
    scan = synthesize_scan(r, [1.0] * 7, e0=2.0)
    assert len(set(scan.intensities)) == 1


def test_quarter_wave_response_gives_flat_trace():
    r = OpticalResponse(math.pi / 2.0, 0.0, 0.1, 0.1)   # phi_d=90, alpha_d=0
    scan = synthesize_scan(r, np.linspace(0, math.pi, 40))
    assert np.ptp(scan.intensities) < 1e-12


def test_scan_intensities_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = OpticalResponse(rng.uniform(-math.pi, math.pi), 0.0,
                            rng.uniform(0, 1), rng.uniform(0, 1))
        scan = synthesize_scan(r, np.linspace(0, math.pi, 11))
        assert min(scan.intensities) >= 0.0


def test_lcr_calibration_anchors_and_triangular_scan():
    cal = DEFAULT_LCR_CALIBRATION
    assert cal.theta(2.0) == pytest.approx(math.pi, abs=1e-9)
    assert cal.theta(8.0) == pytest.approx(0.1, abs=1e-9)
    volts = np.concatenate([np.linspace(10, 0, 50), np.linspace(0, 10, 50)])
    thetas = cal.theta(volts)
    # retardance rises to the saturated pi plateau around the turn-around
    assert thetas.max() == pytest.approx(math.pi, abs=1e-9)
    assert np.min(thetas[45:55]) == pytest.approx(math.pi, abs=1e-9)
    assert thetas[0] == pytest.approx(0.0, abs=1e-9)
    assert thetas[-1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("voltage", [-3.0, 10.000001, [2.0, 50.0],
                                     float("nan")])
def test_lcr_calibration_refuses_voltages_outside_it(voltage):
    """The calibration maps [0, 10] V, its ends included; a voltage
    outside it is a ModelError, not the retardance at the nearer end."""
    cal = DEFAULT_LCR_CALIBRATION
    assert cal.theta([0.0, 10.0]) == pytest.approx([math.pi, 0.0])
    with pytest.raises(ModelError, match="outside the calibration"):
        cal.theta(voltage)


def test_lcr_calibration_rejects_non_monotone():
    with pytest.raises(ModelError):
        LcrCalibration((0.0, 1.0, 2.0), (0.0, 1.0, 0.5))
    with pytest.raises(ModelError):
        LcrCalibration((0.0, 1.0, 0.5), (3.0, 2.0, 1.0))


@pytest.mark.parametrize("voltages, thetas, message", [
    ((0.0, 1.0, 2.0), (3.0, 2.0), "matching"),
    ((0.0,), (3.0,), "matching"),
    ((0.0, math.nan, 2.0), (3.0, 2.0, 1.0), "finite"),
    ((0.0, 1.0, 2.0), (3.0, 2.0, math.inf), "finite"),
])
def test_lcr_calibration_rejects_bad_arrays(voltages, thetas, message):
    with pytest.raises(ModelError, match=message):
        LcrCalibration(voltages, thetas)


def test_lcr_scan_validation():
    with pytest.raises(ModelError):
        LcrScan((0.0, 1.0), (1.0,))
    with pytest.raises(ModelError):
        LcrScan((0.0, 1.0), (1.0, -0.1))
    with pytest.raises(ModelError, match="NaN"):
        LcrScan((0.0, 1.0), (1.0, math.nan))
    for e0 in (math.nan, math.inf, 0.0, -2.0):
        with pytest.raises(ModelError, match="e0"):
            LcrScan((0.0, 1.0), (1.0, 0.5), e0)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

THETAS = (math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0)


def invert_synthesized(alpha_d, phi_d, e0=1.0, alpha_minus=0.2,
                       thetas=THETAS):
    r = OpticalResponse(phi_d, 0.0, alpha_minus + alpha_d, alpha_minus)
    scan = synthesize_scan(r, thetas, e0)
    return invert_scan(scan.thetas, scan.intensities, e0, alpha_minus)


def test_inversion_recovers_trivial_case():
    res = invert_synthesized(0.0, 0.0)
    assert res.alpha_d == pytest.approx(0.0, abs=1e-9)
    assert res.phi_d == pytest.approx(0.0, abs=1e-6)


def test_inversion_recovers_reference_case():
    res = invert_synthesized(0.3, 2.0)
    assert res.alpha_d == pytest.approx(0.3, abs=1e-6)
    assert res.phi_d == pytest.approx(2.0, abs=1e-6)
    assert res.residual < 1e-9


def test_inversion_round_trip_property():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        ad = rng.uniform(0.0, 1.0)
        pd = rng.uniform(0.05, math.pi - 0.05)
        res = invert_synthesized(ad, pd, e0=rng.uniform(0.5, 2.0))
        assert res.alpha_d == pytest.approx(ad, abs=1e-6)
        assert res.phi_d == pytest.approx(pd, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(ad=st.floats(0.0, 1.0), pd=st.floats(0.05, math.pi - 0.05),
       am=st.floats(0.0, 0.5))
def test_inversion_round_trip_hypothesis(ad, pd, am):
    res = invert_synthesized(ad, pd, alpha_minus=am)
    assert abs(res.alpha_d - ad) < 1e-6
    assert abs(res.phi_d - pd) < 1e-6


def test_inversion_reports_both_phase_branches():
    res = invert_synthesized(0.2, 1.0)
    assert res.phi_d_branches == (res.phi_d, -res.phi_d)
    # both branches reproduce the samples (cos is even)
    for branch in res.phi_d_branches:
        r = OpticalResponse(branch, 0.0, 0.2 + 0.2, 0.2)
        scan = synthesize_scan(r, THETAS, 1.0)
        ref = synthesize_scan(OpticalResponse(1.0, 0.0, 0.4, 0.2), THETAS, 1.0)
        assert np.allclose(scan.intensities, ref.intensities, atol=1e-6)


def test_inversion_rejects_degenerate_triple():
    with pytest.raises(InversionError, match="ill-conditioned"):
        invert_scan((0.5, 0.5, 1.0), (0.1, 0.1, 0.2), 1.0, 0.0)


def test_inversion_rejects_inconsistent_samples():
    with pytest.raises(InversionError, match="inconsistent"):
        invert_scan(THETAS, (0.02, 0.81, 0.91), 1.0, 0.0)


def test_inversion_rejects_non_finite_inputs():
    """A bad scale, attenuation or retardance is refused instead of
    answered with a NaN residual."""
    samples = (0.3, 0.6, 0.4)
    for e0 in (math.nan, math.inf, 0.0, -2.0):
        with pytest.raises(InversionError, match="e0"):
            invert_scan(THETAS, samples, e0, 0.0)
    for am in (math.nan, math.inf):
        with pytest.raises(InversionError, match="alpha_minus"):
            invert_scan(THETAS, samples, 1.0, am)
    with pytest.raises(InversionError, match="retardances"):
        invert_scan((0.5, math.nan, 2.0), samples, 1.0, 0.0)
    scan = LcrScan(THETAS, samples)
    with pytest.raises(InversionError, match="alpha_minus"):
        invert_scan_lsq(scan, 1.0, math.nan)


def test_inversion_needs_three_samples():
    with pytest.raises(InversionError):
        invert_scan((0.1, 0.2), (0.3, 0.4), 1.0, 0.0)


def test_lsq_inversion_needs_three_samples():
    scan = LcrScan(THETAS[:2], (0.3, 0.4))
    with pytest.raises(InversionError, match=">= 3 samples"):
        invert_scan_lsq(scan, 1.0, 0.0)


# The detector model at THETAS with scale K = 1, exp(-2 alpha_d) = 0.25 and
# exp(-alpha_d) cos(phi_d) = 0.9, so |cos(phi_d)| = 1.8; and samples whose
# fitted scale is zero (the one at 90 deg is 2 K).
COS_ABOVE_ONE = tuple(1.0 + math.sin(t) + 0.25 * (1.0 - math.sin(t))
                      - 1.8 * math.cos(t) for t in THETAS)


@pytest.mark.parametrize("samples, message", [
    ((0.3, 0.0, 0.3), r"fitted scale \S+ <= 0"),
    (COS_ABOVE_ONE, re.escape("|cos(phi_d)| = 1.800000 > 1")),
], ids=["scale", "cos"])
def test_inversion_names_the_inconsistent_parameter(samples, message):
    """Samples the model fits only with a scale <= 0, or with
    |cos(phi_d)| > 1, are refused and the message names which."""
    with pytest.raises(InversionError, match=message):
        invert_scan(THETAS, samples, 1.0, 0.0)
    with pytest.raises(InversionError, match=message):
        invert_scan_lsq(LcrScan(THETAS, samples), 1.0, 0.0)


def test_lsq_inversion_matches_three_point_on_dense_scan():
    ad, pd, e0, am = 0.35, 1.3, 1.4, 0.15
    r = OpticalResponse(pd, 0.0, am + ad, am)
    scan = synthesize_scan(r, np.linspace(0.1, math.pi - 0.1, 41), e0)
    res = invert_scan_lsq(scan, e0, am)
    assert res.alpha_d == pytest.approx(ad, abs=1e-9)
    assert res.phi_d == pytest.approx(pd, abs=1e-9)


def test_lsq_inversion_rejects_degenerate_schedule():
    scan = LcrScan((0.7,) * 5, (0.4,) * 5)
    with pytest.raises(InversionError, match="ill-conditioned"):
        invert_scan_lsq(scan, 1.0, 0.0)
    # the scale is fitted too, so two distinct retardances are not enough
    r = OpticalResponse(1.0, 0.0, 0.3, 0.1)
    scan = synthesize_scan(r, (0.3, 1.2) * 3, 1.0)
    with pytest.raises(InversionError, match="ill-conditioned"):
        invert_scan_lsq(scan, 1.0, 0.1)


def svd_design(thetas):
    th = np.asarray(thetas)
    return np.column_stack([1.0 + np.sin(th), 1.0 - np.sin(th),
                            -2.0 * np.cos(th)])


def svd_fit(thetas, intensities):
    """The oracle: numpy's SVD least squares of the detector model.
    Returns whether its singular values refuse the design (smallest below
    1e-9 of the largest, or rank < 3), alpha_d and phi_d."""
    (k, ku, kw), _, rank, sv = np.linalg.lstsq(
        svd_design(thetas), np.asarray(intensities), rcond=None)
    refused = bool(rank < 3 or sv[-1] < 1e-9 * sv[0])
    u = ku / k
    return (refused, -0.5 * math.log(u),
            math.acos(min(1.0, max(-1.0, kw / k / math.sqrt(u)))))


@pytest.mark.parametrize("n", [3, 19])
def test_fit_matches_svd_least_squares(n):
    """The QR fit gives numpy's SVD least-squares answer to 1e-12 on seeded
    scans with gate 6's parameter ranges: 3 samples at THETAS, 19 evenly
    spaced over [0, pi] or drawn at random."""
    rng = np.random.default_rng(20 + n)
    for i in range(300):
        ad, pd = rng.uniform(0.0, 1.0), rng.uniform(0.05, math.pi - 0.05)
        am, e0 = rng.uniform(0.0, 0.5), rng.uniform(0.5, 2.0)
        if n == 3:
            thetas = THETAS
        elif i % 2:
            thetas = np.sort(rng.uniform(0.0, math.pi, n))
        else:
            thetas = np.linspace(0.0, math.pi, n)
        scan = synthesize_scan(OpticalResponse(pd, 0.0, am + ad, am),
                               thetas, e0)
        res = invert_scan_lsq(scan, e0, am)
        _, alpha_d, phi_d = svd_fit(scan.thetas, scan.intensities)
        assert abs(res.alpha_d - alpha_d) <= 1e-12
        assert abs(res.phi_d - phi_d) <= 1e-12


@pytest.mark.parametrize("n", [3, 19])
@pytest.mark.parametrize("start", [0.3, 2.0])
def test_conditioning_threshold_matches_svd(n, start):
    """Evenly spaced retardances whose design has a condition number just
    above 1e9 are refused and just below are fitted, as the SVD decides."""
    def schedule(spacing):
        return start + spacing * np.arange(n)

    def cond(spacing):
        sv = np.linalg.svd(svd_design(schedule(spacing)), compute_uv=False)
        return sv[0] / sv[-1]

    lo, hi = 1e-7, 1e-2         # condition number falls as spacing grows
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if cond(mid) > 1e9 else (lo, mid)
    response = OpticalResponse(1.3, 0.0, 0.5, 0.15)
    for factor, side in ((0.999, 1), (0.9999, 1), (1.0001, -1),
                         (1.001, -1)):
        thetas = schedule(lo * factor)
        assert side * (cond(lo * factor) - 1e9) > 1e5     # 1e-4 from 1e9
        scan = synthesize_scan(response, thetas, 1.4)
        refused, _, _ = svd_fit(scan.thetas, scan.intensities)
        assert refused == (side == 1)
        if refused:
            with pytest.raises(InversionError, match="ill-conditioned"):
                invert_scan_lsq(scan, 1.4, 0.15)
        else:
            res = invert_scan_lsq(scan, 1.4, 0.15)
            assert res.alpha_d == pytest.approx(0.35, abs=1e-5)
            assert res.phi_d == pytest.approx(1.3, abs=1e-5)


# ---------------------------------------------------------------------------
# Ideal probe state
# ---------------------------------------------------------------------------

def test_rotated_basis_rejects_unnormalized():
    """The ideal probe state takes a normalized pump polarization only."""
    with pytest.raises(ModelError, match="not normalized"):
        ideal_probe_state(1.0, 1.0, 0.0)


def test_ideal_probe_state_no_phase_returns_y():
    out = ideal_probe_state(1.0, 0.0, 0.0)
    assert overlap(out, Y) == pytest.approx(1.0, abs=1e-12)


def test_ideal_probe_state_half_wave_returns_x():
    out = ideal_probe_state(1.0, 0.0, math.pi)
    assert overlap(out, X) == pytest.approx(1.0, abs=1e-12)


def test_ideal_probe_state_quarter_wave_gives_sigma_plus():
    alpha = 1j / (1j - 1.0)
    beta = 1.0 / (1j - 1.0)
    out = ideal_probe_state(alpha, beta, math.pi / 2.0)
    sigma_plus = from_circular(1.0, 0.0)
    assert overlap(out, sigma_plus) == pytest.approx(1.0, abs=1e-10)


def test_ideal_probe_state_circular_pump_rotates_by_half_phase():
    """A circular pump with leg phase phi rotates a linear probe by phi/2
    (the standard retarder result in the circular basis)."""
    for phi in np.linspace(0.0, math.pi, 9):
        out = ideal_probe_state(1.0, 0.0, phi)
        target = -math.sin(phi / 2.0) * X + math.cos(phi / 2.0) * Y
        assert overlap(out, target) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# MediumParams
# ---------------------------------------------------------------------------

def test_medium_params_reject_non_finite_values():
    """A non-finite parameter is refused when the medium is built; a
    wavelength whose cube overflows, when beta scales a response."""
    good = (1e12, 7.5, 1323.0, 1.0, 1.0 / 12.0)
    for k, bad in ((0, float("nan")), (1, float("inf")), (3, float("nan")),
                   (2, 1e300)):
        args = list(good)
        args[k] = bad
        with pytest.raises(ModelError, match="finite|overflow"):
            MediumParams(*args).beta(0.1)


def test_medium_params_validation_and_beta():
    """beta divides by the signal's Rabi frequency, which must be finite
    and > 0."""
    with pytest.raises(ModelError):
        MediumParams(0.0, 7.5, 1323.0, 1.0, 1.0 / 12.0)
    with pytest.raises(ModelError):
        MediumParams(1e12, 7.5, 1323.0, 1.0, 1.5)
    m = MediumParams(1e12, 7.5, 1323.0, 1.0, 1.0 / 12.0)
    lam = 1323.0e-7
    expected = (1.0 / 12.0) * 3.0 * 1e12 * 1.0 * lam ** 3 \
        / (4.0 * math.pi ** 2 * 0.1)
    assert m.beta(0.1) == pytest.approx(expected, rel=1e-12)
    assert m.beta(0.05) == pytest.approx(2.0 * expected, rel=1e-12)
    for rabi in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ModelError, match="signal Rabi frequency"):
            m.beta(rabi)
    assert m.k_cm == pytest.approx(2.0 * math.pi / lam, rel=1e-12)
