"""Jones-calculus polarimetry: medium response from steady-state coherences,
the LCR + polarizer analyzer chain as Jones matrices, the LCR calibration
and scan synthesis.  The closed-form detector model and the scan inversion
are in analyzer.

Circular basis convention (used everywhere in this package):
    sigma+ = -(x + iy)/sqrt(2),   sigma- = (x - iy)/sqrt(2)
so a y-polarized field has equal components i*E/sqrt(2) on both.
Polarization states are compared up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import LcrScan, detector_intensity
from .atomic import LevelScheme, TransitionTable
from .errors import ModelError
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
    attenuation.  Rates are in gamma_a units, lengths in cm.

    The rows are a susceptibility: response_from_density scales them by
    beta(rabi), with rabi the signal's own Rabi frequency on its weakest
    (a = 1) transition, so they do not fall with the signal.  The
    wavelength is the signal's, which scenario takes from
    fields.signal.wavelength_nm.

    beta = 3 n gamma b_min_sq lambda^3 / (4 pi^2 rabi) is the
    dipole-from-linewidth relation: gamma is a decay rate of the upper
    level and b_min_sq the fraction of it in the weakest signal channel,
    so gamma * b_min_sq is that transition's partial decay rate.  Both
    are inputs, not derived from the decay network: fig1-ideal's upper
    level decays through explicit channels only, which carry no branching
    fraction, and fig7-full sets gamma 1.0 while its upper level decays
    at decay.gamma_b = 0.6, so deriving gamma would change its rows."""

    n_atom: float               # atoms / cm^3
    length: float               # cm
    wavelength_nm: float        # signal wavelength
    gamma: float                # decay rate entering the beta prefactor
    b_min_sq: float             # decay fraction of the weakest channel

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (
                self.n_atom, self.length, self.wavelength_nm, self.gamma)):
            raise ModelError("medium parameters must be finite and positive")
        if not 0 < self.b_min_sq <= 1:
            raise ModelError("b_min_sq must lie in (0, 1]")

    @property
    def wavelength_cm(self) -> float:
        return self.wavelength_nm * 1e-7

    @property
    def k_cm(self) -> float:
        return 2.0 * math.pi / self.wavelength_cm

    def beta(self, rabi: float) -> float:
        """The response prefactor for a signal of Rabi frequency rabi; a
        rabi that is not finite and > 0, or a k * length * beta that is not
        finite, is a ModelError."""
        try:
            beta = self.b_min_sq * 3.0 * self.n_atom * self.gamma \
                * self.wavelength_cm ** 3 / (4.0 * math.pi ** 2 * rabi)
        except (OverflowError, ZeroDivisionError):  # lambda^3, or rabi 0
            beta = math.inf
        if not (0 < rabi < math.inf and
                self.k_cm * self.length * beta < math.inf):
            raise ModelError(
                "the signal Rabi frequency must be finite and > 0 and the "
                f"response scale k * length * beta finite, got rabi {rabi!r}")
        return beta


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
    positive for an absorbing medium.  The sums are scaled by
    k * length * medium.beta(signal.rabi) / 2: the coherences grow with
    the signal's Rabi frequency, and beta divides it out.
    """
    sums = {1: 0j, -1: 0j}
    counts = {1: 0, -1: 0}
    for entry in transitions.for_field("signal"):
        if entry.q not in sums:
            continue
        iu = scheme.index[entry.upper]
        il = scheme.index[entry.lower]
        sums[entry.q] += entry.strength * rho[il, iu]
        counts[entry.q] += 1

    scale = medium.k_cm * medium.length * medium.beta(signal.rabi) / 2.0
    out = {}
    for q in (1, -1):
        eps = signal.component(q)
        if abs(eps) < 1e-15:
            out[q] = (0.0, 0.0)     # component not driven: nothing to measure
            continue
        if counts[q] == 0:
            raise ModelError(
                f"signal drives sigma{'+' if q == 1 else '-'} but the scheme "
                "has no transition of that polarization")
        ref = sums[q] / np.conjugate(eps)
        out[q] = (scale * ref.real, scale * ref.imag)
    (pp, ap), (pm, am) = out[1], out[-1]
    return OpticalResponse(pp, pm, ap, am)


def propagate_cell(e_in: np.ndarray, r: OpticalResponse) -> np.ndarray:
    """Apply the cell: each circular component gets exp(-alpha + i*phi)."""
    ep, em = to_circular(np.asarray(e_in, dtype=complex))
    ep *= np.exp(-r.alpha_plus + 1j * r.phi_plus)
    em *= np.exp(-r.alpha_minus + 1j * r.phi_minus)
    return from_circular(ep, em)


# ---------------------------------------------------------------------------
# Analyzer chain (cell -> LCR at 45 deg -> crossed polarizer -> detector)
# ---------------------------------------------------------------------------

def jones_chain_intensity(e0: float, alpha_minus: float, alpha_d: float,
                          phi_d: float, theta: float) -> float:
    """detector_intensity evaluated through the explicit Jones-matrix
    product; e0 is an intensity scale, so the input field amplitude is
    sqrt(e0)."""
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
        """The retardance at each voltage; a voltage outside
        [voltages[0], voltages[-1]] is a ModelError naming it, not the
        retardance at the nearer end."""
        v = np.asarray(voltage, dtype=float)
        lo, hi = self.voltages[0], self.voltages[-1]
        outside = v[~((v >= lo) & (v <= hi))]
        if outside.size:
            raise ModelError(f"LCR voltage {outside.flat[0]:g} V lies outside "
                             f"the calibration's [{lo:g}, {hi:g}] V")
        return np.interp(v, np.asarray(self.voltages),
                         np.asarray(self.thetas))


# Manufacturer-style default: retardance saturates near pi at low voltage and
# approaches 0 near 10 V (anchors: 2 V ~ pi, 8 V ~ 0).
DEFAULT_LCR_CALIBRATION = LcrCalibration(
    voltages=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
    thetas=(math.pi, math.pi, math.pi, 2.6, 2.0, 1.45, 0.95, 0.55, 0.10,
            0.03, 0.0),
)


def synthesize_scan(response: OpticalResponse, thetas, e0: float = 1.0
                    ) -> LcrScan:
    """Forward-model a scan of the LCR retardance for a given cell response."""
    th = tuple(float(t) for t in np.atleast_1d(thetas))
    ii = tuple(detector_intensity(e0, response.alpha_minus, response.alpha_d,
                                  response.phi_d, t) for t in th)
    return LcrScan(th, ii, e0)


# ---------------------------------------------------------------------------
# The ideal probe polarization state
# ---------------------------------------------------------------------------

def ideal_probe_state(alpha: complex, beta: complex, phi: float) -> np.ndarray:
    """Polarization of a y-polarized probe after a phase phi on the bright leg.

    Lossless four-level picture: the probe is resolved on the rotated
    intermediate basis set by the pump polarization (alpha, beta), the
    bright leg (conj(alpha), conj(beta)) on (|2>, |3>), which the pump
    couples, acquires exp(i*phi), the dark leg (-beta, alpha) does not, and
    the components are recombined.  Returns a unit-norm (x, y) Jones
    vector."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ModelError(f"pump polarization not normalized: {norm!r}")
    a, b = complex(alpha), complex(beta)
    ph = np.exp(1j * phi)
    c_minus = (abs(a) ** 2 + np.conjugate(b) * a) * ph \
        + (abs(b) ** 2 - np.conjugate(b) * a)
    c_plus = (abs(b) ** 2 + np.conjugate(a) * b) * ph \
        + (abs(a) ** 2 - np.conjugate(a) * b)
    return from_circular(1j * c_plus / _SQRT2, 1j * c_minus / _SQRT2)
