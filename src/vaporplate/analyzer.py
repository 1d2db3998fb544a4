"""The analyzer chain's detector model and the scan inversion.

The chain is cell -> LCR at 45 deg -> crossed polarizer -> detector; a scan
steps the LCR retardance and records the detector intensity, and the
inversion recovers (alpha_d, phi_d) from it by a three-parameter linear
least-squares fit.  The module needs only the standard library, so
`vaporplate invert` starts without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import InversionError, ModelError


def detector_intensity(e0: float, alpha_minus: float, alpha_d: float,
                       phi_d: float, theta: float) -> float:
    """Closed-form detector intensity for a y-polarized input of intensity
    scale e0, after the cell, an LCR at 45 degrees with retardance theta,
    and a crossed (x) polarizer."""
    return e0 / 4.0 * math.exp(-2.0 * alpha_minus) * (
        1.0 + math.exp(-2.0 * alpha_d)
        + (1.0 - math.exp(-2.0 * alpha_d)) * math.sin(theta)
        - 2.0 * math.exp(-alpha_d) * math.cos(phi_d) * math.cos(theta))


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


@dataclass(frozen=True)
class InversionResult:
    alpha_d: float
    phi_d: float                      # principal branch, in [0, pi]
    phi_d_branches: tuple[float, float]
    residual: float


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _householder(columns: list[list[float]]) -> list[list[float]]:
    """Householder QR of the N x 3 matrix whose columns are columns[:3],
    applied alongside to the right-hand side columns[3].  Overwrites the
    columns with R (their first three rows) and Q^T b."""
    for k in range(3):
        v = columns[k][k:]
        norm = math.hypot(*v)
        if norm == 0.0:             # already zero on and below the diagonal
            continue
        alpha = -math.copysign(norm, v[0])
        v[0] -= alpha               # the reflector; |v|^2 = 2 norm |v[0]|
        scale = 1.0 / (norm * abs(v[0]))
        columns[k][k:] = [alpha] + [0.0] * (len(v) - 1)
        for col in columns[k + 1:]:
            f = scale * _dot(v, col[k:])
            col[k:] = [c - f * vi for c, vi in zip(col[k:], v)]
    return columns


def _singular_values(r: list[list[float]]) -> list[float]:
    """Singular values of a 3 x 3 matrix given by its columns, by one-sided
    (Hestenes) Jacobi: rotate column pairs until they are orthogonal to
    working precision; the column norms are then the singular values.  It
    keeps the small ones accurate relative to the largest, as the
    conditioning test needs."""
    a = [list(col) for col in r]
    for _ in range(30):             # converges in a few sweeps
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            x, y = a[i], a[j]
            alpha = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
            beta = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
            gamma = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
            if abs(gamma) <= 1e-15 * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0 / (abs(zeta) + math.hypot(1.0, zeta)), zeta)
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            a[i] = [c * xk - s * yk for xk, yk in zip(x, y)]
            a[j] = [s * xk + c * yk for xk, yk in zip(x, y)]
        if not rotated:
            break
    return [math.hypot(*col) for col in a]


def _fit_scan(thetas: tuple[float, ...], intensities: tuple[float, ...],
              e0: float, alpha_minus: float) -> InversionResult:
    """Least-squares fit of the detector model over any number of samples.

    With K = e0*exp(-2*alpha_minus)/4, u = exp(-2*alpha_d) and
    w = exp(-alpha_d)*cos(phi_d), detector_intensity reads
        I = K (1 + sin th) + K u (1 - sin th) - 2 K w cos th,
    which is linear in (K, K u, K w).  K is fitted, so e0 and alpha_minus
    enter only the residual; three distinct retardances determine the fit
    exactly.  cos(phi_d) is even, so both phase branches are reported.

    The fit is a Householder QR of the N x 3 design and back substitution.
    The design is refused when its smallest singular value is below 1e-9
    of its largest; they are taken from R, not from the Gram matrix, whose
    condition number is the square of the design's and cannot resolve
    that threshold.
    """
    if not 0 < e0 < math.inf:
        raise InversionError(f"e0 must be finite and > 0, got {e0!r}")
    if not math.isfinite(alpha_minus):
        raise InversionError(f"alpha_minus must be finite, got "
                             f"{alpha_minus!r}")
    if not all(map(math.isfinite, thetas)):
        raise InversionError("retardances must be finite")
    sin = [math.sin(t) for t in thetas]
    cols = _householder([[1.0 + s for s in sin], [1.0 - s for s in sin],
                         [-2.0 * math.cos(t) for t in thetas],
                         list(intensities)])
    r = [col[:3] for col in cols[:3]]
    # The design's rows have norm >= sqrt(2), so max(sv) > 0, and a
    # rank-deficient design fails this test too.
    sv = _singular_values(r)
    if min(sv) < 1e-9 * max(sv):
        raise InversionError("ill-conditioned inversion: the retardances do "
                             "not separate scale, attenuation and phase")
    qtb = cols[3]
    kw = qtb[2] / r[2][2]
    ku = (qtb[1] - r[2][1] * kw) / r[1][1]
    k = (qtb[0] - r[1][0] * ku - r[2][0] * kw) / r[0][0]
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
    try:
        th, ii = tuple(map(float, thetas)), tuple(map(float, intensities))
    except TypeError:               # a number, or a nested sequence
        th = ii = ()
    if len(th) != 3 or len(ii) != 3:
        raise InversionError("invert_scan needs exactly 3 samples")
    return _fit_scan(th, ii, e0, alpha_minus)


def invert_scan_lsq(scan: LcrScan, e0: float, alpha_minus: float
                    ) -> InversionResult:
    """Least-squares inversion over a whole scan of at least 3 samples."""
    th = tuple(map(float, scan.thetas))
    if len(th) < 3:
        raise InversionError("least-squares inversion needs >= 3 samples")
    return _fit_scan(th, tuple(map(float, scan.intensities)), e0,
                     alpha_minus)
