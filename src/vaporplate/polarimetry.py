"""Jones-calculus polarimetry: medium response from steady-state coherences,
the LCR + polarizer analyzer chain, scan synthesis, and scan inversion.

Circular basis convention (used everywhere in this package):
    sigma+ = -(x + iy)/sqrt(2),   sigma- = (x - iy)/sqrt(2)
so a y-polarized field has equal components i*E/sqrt(2) on both.
Polarization states are compared up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import LevelScheme, TransitionTable
from .errors import InversionError, ModelError
from .liouville import FieldSpec

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Jones vectors and matrices (x, y basis)
# ---------------------------------------------------------------------------

def to_circular(e_xy: np.ndarray) -> tuple[complex, complex]:
    """Decompose an (x, y) Jones vector onto (sigma+, sigma-)."""
    ex, ey = e_xy
    return ((-ex + 1j * ey) / _SQRT2, (ex + 1j * ey) / _SQRT2)


def from_circular(e_plus: complex, e_minus: complex) -> np.ndarray:
    """Recompose an (x, y) Jones vector from circular components."""
    ex = (-e_plus + e_minus) / _SQRT2
    ey = (-1j * e_plus - 1j * e_minus) / _SQRT2
    return np.array([ex, ey], dtype=complex)


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def lcr_matrix(theta: float) -> np.ndarray:
    """Retarder with phase theta between its fast and slow axes."""
    return np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])


def linear_polarizer(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| on unit-normalized states; 1 means equal up to global phase."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return abs(np.vdot(a, b)) / (na * nb)


# ---------------------------------------------------------------------------
# Medium response
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumParams:
    """Cell and scaling parameters for converting coherences to phase and
    attenuation.  Rates are in gamma_a units, lengths in cm."""

    n_atom: float               # atoms / cm^3
    length: float               # cm
    wavelength_nm: float        # signal wavelength
    gamma: float                # decay rate entering the beta prefactor
    omega_min: float            # Rabi frequency of the weakest signal transition
    b_min_sq: float             # decay fraction of the weakest channel

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (
                self.n_atom, self.length, self.wavelength_nm, self.gamma,
                self.omega_min)):
            raise ModelError("medium parameters must be finite and positive")
        if not 0 < self.b_min_sq <= 1:
            raise ModelError("b_min_sq must lie in (0, 1]")
        try:
            scale = self.k_cm * self.length * self.beta
        except OverflowError:       # the cube of the wavelength
            scale = math.inf
        if not scale < math.inf:
            raise ModelError("medium parameters overflow the response scale "
                             "k * length * beta")

    @property
    def wavelength_cm(self) -> float:
        return self.wavelength_nm * 1e-7

    @property
    def k_cm(self) -> float:
        return 2.0 * math.pi / self.wavelength_cm

    @property
    def beta(self) -> float:
        lam = self.wavelength_cm
        return self.b_min_sq * 3.0 * self.n_atom * self.gamma * lam ** 3 \
            / (4.0 * math.pi ** 2 * self.omega_min)


@dataclass(frozen=True)
class OpticalResponse:
    """Per-circular-component phase (rad) and field attenuation exponents.

    The differentials are always derived, never stored."""

    phi_plus: float
    phi_minus: float
    alpha_plus: float
    alpha_minus: float

    @property
    def phi_d(self) -> float:
        return self.phi_plus - self.phi_minus

    @property
    def alpha_d(self) -> float:
        return self.alpha_plus - self.alpha_minus

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi_plus, self.phi_minus, self.alpha_plus, self.alpha_minus)


def response_from_density(rho: np.ndarray, scheme: LevelScheme,
                          transitions: TransitionTable, signal: FieldSpec,
                          medium: MediumParams) -> OpticalResponse:
    """Phase and attenuation of the two circular signal components.

    Sums a_ij * rho[lower, upper] over the signal transitions of each
    polarization, referenced to the driving component's complex amplitude so
    the result is independent of the signal polarization phase.  With the
    rotating-frame convention used here, Im of the referenced sum is
    positive for an absorbing medium.  rho may be a stack of densities
    (rho[..., il, iu]); the fields of the result then hold arrays of shape
    rho.shape[:-2].
    """
    rho = np.asarray(rho)
    zero = np.zeros(rho.shape[:-2])
    sums = {1: zero + 0j, -1: zero + 0j}
    counts = {1: 0, -1: 0}
    for entry in transitions.for_field("signal"):
        if entry.q not in sums:
            continue
        iu = scheme.index[entry.upper]
        il = scheme.index[entry.lower]
        sums[entry.q] += entry.strength * rho[..., il, iu]
        counts[entry.q] += 1

    out = {}
    for q in (1, -1):
        eps = signal.component(q)
        if abs(eps) < 1e-15:
            out[q] = (zero, zero)   # component not driven: nothing to measure
            continue
        if counts[q] == 0:
            raise ModelError(
                f"signal drives sigma{'+' if q == 1 else '-'} but the scheme "
                "has no transition of that polarization")
        ref = sums[q] / np.conjugate(eps)
        kl = medium.k_cm * medium.length
        out[q] = (kl * medium.beta / 2.0 * ref.real,
                  kl * medium.beta * ref.imag / 2.0)
    (pp, ap), (pm, am) = out[1], out[-1]
    # [()] turns the 0-d arrays of a single density into scalars
    return OpticalResponse(pp[()], pm[()], ap[()], am[()])


def propagate_cell(e_in: np.ndarray, r: OpticalResponse) -> np.ndarray:
    """Apply the cell: each circular component gets exp(-alpha + i*phi)."""
    ep, em = to_circular(np.asarray(e_in, dtype=complex))
    ep *= np.exp(-r.alpha_plus + 1j * r.phi_plus)
    em *= np.exp(-r.alpha_minus + 1j * r.phi_minus)
    return from_circular(ep, em)


# ---------------------------------------------------------------------------
# Analyzer chain (cell -> LCR at 45 deg -> crossed polarizer -> detector)
# ---------------------------------------------------------------------------

def detector_intensity(e0: float, alpha_minus: float, alpha_d: float,
                       phi_d: float, theta: float) -> float:
    """Closed-form detector intensity for a y-polarized input of intensity
    scale e0, after the cell, an LCR at 45 degrees with retardance theta,
    and a crossed (x) polarizer."""
    return e0 / 4.0 * math.exp(-2.0 * alpha_minus) * (
        1.0 + math.exp(-2.0 * alpha_d)
        + (1.0 - math.exp(-2.0 * alpha_d)) * math.sin(theta)
        - 2.0 * math.exp(-alpha_d) * math.cos(phi_d) * math.cos(theta))


def jones_chain_intensity(e0: float, alpha_minus: float, alpha_d: float,
                          phi_d: float, theta: float) -> float:
    """Same quantity evaluated through the explicit Jones-matrix product;
    e0 is an intensity scale, so the input field amplitude is sqrt(e0)."""
    e_in = np.array([0.0, math.sqrt(e0)], dtype=complex)
    r = OpticalResponse(phi_plus=phi_d, phi_minus=0.0,
                        alpha_plus=alpha_minus + alpha_d,
                        alpha_minus=alpha_minus)
    e_cell = propagate_cell(e_in, r)
    rot = rotation(math.pi / 4.0)
    chain = linear_polarizer(0.0) @ np.linalg.inv(rot) @ lcr_matrix(theta) @ rot
    e_out = chain @ e_cell
    return float(np.sum(np.abs(e_out) ** 2))


# ---------------------------------------------------------------------------
# LCR scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LcrCalibration:
    """Monotone voltage -> retardance map, linearly interpolated."""

    voltages: tuple[float, ...]
    thetas: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.voltages)
        t = np.asarray(self.thetas)
        if v.size != t.size or v.size < 2:
            raise ModelError("calibration needs matching voltage/theta arrays")
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(t)):
            raise ModelError("calibration voltages and thetas must be finite")
        if np.any(np.diff(v) <= 0):
            raise ModelError("calibration voltages must be strictly increasing")
        dt = np.diff(t)
        if not (np.all(dt <= 0) or np.all(dt >= 0)):
            raise ModelError("calibration must be monotone in retardance")

    def theta(self, voltage) -> np.ndarray:
        return np.interp(np.asarray(voltage, dtype=float),
                         np.asarray(self.voltages), np.asarray(self.thetas))


# Manufacturer-style default: retardance saturates near pi at low voltage and
# approaches 0 near 10 V (anchors: 2 V ~ pi, 8 V ~ 0).
DEFAULT_LCR_CALIBRATION = LcrCalibration(
    voltages=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
    thetas=(math.pi, math.pi, math.pi, 2.6, 2.0, 1.45, 0.95, 0.55, 0.10,
            0.03, 0.0),
)


@dataclass(frozen=True)
class LcrScan:
    """Sequence of (retardance, detector intensity) samples."""

    thetas: tuple[float, ...]
    intensities: tuple[float, ...]
    e0: float = 1.0

    def __post_init__(self):
        if len(self.thetas) != len(self.intensities):
            raise ModelError("scan sample arrays differ in length")
        if not 0 < self.e0 < math.inf:
            raise ModelError(f"scan intensity scale e0 must be finite and "
                             f"> 0, got {self.e0!r}")
        if not all(i >= 0 for i in self.intensities):
            raise ModelError("scan intensities must be >= 0 and not NaN")


def synthesize_scan(response: OpticalResponse, thetas, e0: float = 1.0
                    ) -> LcrScan:
    """Forward-model a scan of the LCR retardance for a given cell response."""
    th = tuple(float(t) for t in np.atleast_1d(thetas))
    ii = tuple(detector_intensity(e0, response.alpha_minus, response.alpha_d,
                                  response.phi_d, t) for t in th)
    return LcrScan(th, ii, e0)


@dataclass(frozen=True)
class InversionResult:
    alpha_d: float
    phi_d: float                      # principal branch, in [0, pi]
    phi_d_branches: tuple[float, float]
    residual: float


def _fit_scan(thetas: np.ndarray, intensities: np.ndarray, e0: float,
              alpha_minus: float) -> InversionResult:
    """Least-squares fit of the detector model over any number of samples.

    With K = e0*exp(-2*alpha_minus)/4, u = exp(-2*alpha_d) and
    w = exp(-alpha_d)*cos(phi_d), detector_intensity reads
        I = K (1 + sin th) + K u (1 - sin th) - 2 K w cos th,
    which is linear in (K, K u, K w).  K is fitted, so e0 and alpha_minus
    enter only the residual; three distinct retardances determine the fit
    exactly.  cos(phi_d) is even, so both phase branches are reported.
    """
    if not 0 < e0 < math.inf:
        raise InversionError(f"e0 must be finite and > 0, got {e0!r}")
    if not math.isfinite(alpha_minus):
        raise InversionError(f"alpha_minus must be finite, got "
                             f"{alpha_minus!r}")
    if not np.all(np.isfinite(thetas)):
        raise InversionError("retardances must be finite")
    design = np.column_stack([1.0 + np.sin(thetas), 1.0 - np.sin(thetas),
                              -2.0 * np.cos(thetas)])
    (k, ku, kw), _, rank, sv = np.linalg.lstsq(design, intensities,
                                               rcond=None)
    if rank < 3 or sv[-1] < 1e-9 * sv[0]:
        raise InversionError("ill-conditioned inversion: the retardances do "
                             "not separate scale, attenuation and phase")
    if not k > 0:
        raise InversionError(f"inconsistent samples: fitted scale {k:.3e} "
                             "<= 0")
    u = ku / k
    if not u > 0:
        raise InversionError(f"inconsistent samples: exp(-2 alpha_d) = "
                             f"{u:.3e} <= 0")
    cos_pd = kw / k / math.sqrt(u)
    if abs(cos_pd) > 1.0 + 1e-9:
        raise InversionError(
            f"inconsistent samples: |cos(phi_d)| = {abs(cos_pd):.6f} > 1")
    alpha_d = -0.5 * math.log(u)
    phi_d = math.acos(min(1.0, max(-1.0, cos_pd)))
    resid = max(abs(detector_intensity(e0, alpha_minus, alpha_d, phi_d, t) - i)
                for t, i in zip(thetas, intensities))
    return InversionResult(alpha_d, phi_d, (phi_d, -phi_d), resid)


def invert_scan(thetas, intensities, e0: float, alpha_minus: float
                ) -> InversionResult:
    """Recover (alpha_d, phi_d) from three scan samples.

    Raises on degenerate retardance triples and on samples inconsistent
    with the forward model.
    """
    th = np.asarray(thetas, dtype=float)
    ii = np.asarray(intensities, dtype=float)
    if th.shape != (3,) or ii.shape != (3,):
        raise InversionError("invert_scan needs exactly 3 samples")
    return _fit_scan(th, ii, e0, alpha_minus)


def invert_scan_lsq(scan: LcrScan, e0: float, alpha_minus: float
                    ) -> InversionResult:
    """Least-squares inversion over a whole scan of at least 3 samples."""
    th = np.asarray(scan.thetas, dtype=float)
    if th.size < 3:
        raise InversionError("least-squares inversion needs >= 3 samples")
    return _fit_scan(th, np.asarray(scan.intensities, dtype=float), e0,
                     alpha_minus)


# ---------------------------------------------------------------------------
# Rotated pump basis and the ideal probe polarization state
# ---------------------------------------------------------------------------

def rotated_basis(alpha: complex, beta: complex
                  ) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Bright/dark intermediate superpositions for pump alpha*s+ + beta*s-.

    Returns coefficient pairs on (|2>, |3>): the pump couples the ground
    state only to plus = (conj(alpha), conj(beta)); minus = (-beta, alpha)
    stays dark."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ModelError(f"pump polarization not normalized: {norm!r}")
    plus = (np.conjugate(alpha), np.conjugate(beta))
    minus = (-beta, alpha)
    return plus, minus


def ideal_probe_state(alpha: complex, beta: complex, phi: float) -> np.ndarray:
    """Polarization of a y-polarized probe after a phase phi on the bright leg.

    Lossless four-level picture: the probe is resolved on the rotated
    intermediate basis set by the pump polarization (alpha, beta), the
    coupled leg acquires exp(i*phi), and the components are recombined.
    Returns a unit-norm (x, y) Jones vector."""
    rotated_basis(alpha, beta)   # validates normalization
    a, b = complex(alpha), complex(beta)
    ph = np.exp(1j * phi)
    c_minus = (abs(a) ** 2 + np.conjugate(b) * a) * ph \
        + (abs(b) ** 2 - np.conjugate(b) * a)
    c_plus = (abs(b) ** 2 + np.conjugate(a) * b) * ph \
        + (abs(a) ** 2 - np.conjugate(a) * b)
    return from_circular(1j * c_plus / _SQRT2, 1j * c_minus / _SQRT2)
