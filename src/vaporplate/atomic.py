"""Level schemes, relative transition strengths, and decay branching.

All rates are expressed in units of the intermediate-manifold linewidth
(gamma_a = 1).  Relative dipole amplitudes between hyperfine sublevels are
computed from standard angular-momentum coupling (6j recoupling times a
Clebsch-Gordan factor), both from Racah's closed-form sums evaluated in
exact rational arithmetic, so each amplitude is rounded once, at its final
square root.  Decay distributions follow from the squared amplitudes
normalized to the level's total decay rate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ModelError

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# Angular momentum
# ---------------------------------------------------------------------------

# Largest j, nuclear spin or F accepted anywhere: far above any atomic
# level, and it keeps the Racah sums and the number of sublevels small.
MAX_ANGULAR_MOMENTUM = 20


def _is_angular_momentum(x) -> bool:
    """True for a half-integer in [0, MAX_ANGULAR_MOMENTUM] (NaN is not)."""
    return 0 <= x <= MAX_ANGULAR_MOMENTUM and 2 * x == round(2 * x)


# Racah's closed forms (G. Racah, Phys. Rev. 62, 438 (1942)) in exact
# rationals.  Arguments are doubled angular momenta, so all of them are ints;
# each helper returns the signed square s of its coefficient, which stands
# for sign(s) * sqrt(|s|).  Signed squares multiply like the coefficients.

def _triangle(a: int, b: int, c: int) -> Fraction:
    """Racah's Delta(abc), or 0 unless (a, b, c) close a triangle."""
    if (a + b + c) % 2 or a > b + c or b > c + a or c > a + b:
        return Fraction(0)
    f = math.factorial
    return Fraction(f((a + b - c) // 2) * f((a - b + c) // 2)
                    * f((b + c - a) // 2), f((a + b + c) // 2 + 1))


def _cg_sq(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> Fraction:
    """Signed square of <j1 m1; j2 m2 | j m>, for m1 + m2 = m and every
    |m| <= j with j - m even (the caller checks)."""
    f = math.factorial
    a, b, c = (j1 + j2 - j) // 2, (j1 - m1) // 2, (j2 + m2) // 2
    d, e = (j - j2 + m1) // 2, (j - j1 - m2) // 2
    s = sum(Fraction((-1) ** k, f(k) * f(a - k) * f(b - k) * f(c - k)
                     * f(d + k) * f(e + k))
            for k in range(max(0, -d, -e), min(a, b, c) + 1))
    norm = math.prod(f((jj + mm) // 2) * f((jj - mm) // 2)
                     for jj, mm in ((j1, m1), (j2, m2), (j, m)))
    return (j + 1) * _triangle(j1, j2, j) * norm * s * abs(s)


def _sixj_sq(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int
             ) -> Fraction:
    """Signed square of the 6j symbol {j1 j2 j3; j4 j5 j6}."""
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    f = math.factorial
    lows = [sum(t) // 2 for t in triads]
    highs = [(j1 + j2 + j4 + j5) // 2, (j2 + j3 + j5 + j6) // 2,
             (j3 + j1 + j6 + j4) // 2]
    s = sum(Fraction((-1) ** t * f(t + 1), math.prod(f(t - x) for x in lows)
                     * math.prod(f(y - t) for y in highs))
            for t in range(max(lows), min(highs) + 1))
    return math.prod(_triangle(*t) for t in triads) * s * abs(s)


@functools.lru_cache(maxsize=None)
def _coupling_amplitude(f_upper, mf_upper, f_lower, mf_lower, q,
                        j_upper, j_lower, nuclear_spin) -> float:
    fu, mu, fl, ml, q, ju, jl, ii = (round(2 * x) for x in (
        f_upper, mf_upper, f_lower, mf_lower, q, j_upper, j_lower,
        nuclear_spin))
    sq = (fl + 1) * (jl + 1) * _sixj_sq(jl, ju, 2, fu, fl, ii) \
        * _cg_sq(fl, ml, 2, q, fu, mu)
    return math.copysign(math.sqrt(abs(sq)), sq)


def relative_strength(f_upper: int, mf_upper: int, f_lower: int, mf_lower: int,
                      q: int, *, j_upper: float = 0.5, j_lower: float = 0.5,
                      nuclear_spin: float = 1.5) -> float:
    """Signed relative dipole amplitude between two hyperfine sublevels.

    The amplitude is sqrt((2F_l+1)(2J_l+1)) * 6j{J_l J_u 1; F_u F_l I} * CG,
    which makes squared amplitudes, normalized per decaying level, equal to
    decay branching fractions.  Returns 0 when the selection rule
    q = mF_upper - mF_lower is violated or the angular momenta do not
    couple.
    """
    if abs(mf_upper) > f_upper or abs(mf_lower) > f_lower:
        raise ValueError(
            f"invalid quantum numbers: |mF| > F for ({f_upper},{mf_upper}) "
            f"or ({f_lower},{mf_lower})")
    if q not in (-1, 0, 1):
        raise ValueError(f"polarization index must be -1, 0 or +1, got {q}")
    for x in (f_upper, f_lower, j_upper, j_lower, nuclear_spin):
        if not _is_angular_momentum(x):
            raise ValueError(f"not a half-integer angular momentum in "
                             f"[0, {MAX_ANGULAR_MOMENTUM}]: {x}")
    if q != mf_upper - mf_lower:
        return 0.0
    return _coupling_amplitude(f_upper, mf_upper, f_lower, mf_lower, q,
                               j_upper, j_lower, nuclear_spin)


# ---------------------------------------------------------------------------
# Level schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SublevelId:
    """One slot of the state space: a resolved Zeeman sublevel or a lumped
    reservoir carrying population only."""

    manifold: str
    f: int | None = None
    mf: int | None = None
    lumped: bool = False

    def __post_init__(self):
        if self.lumped:
            if self.mf is not None:
                raise ModelError(f"lumped level {self.manifold} must not carry mF")
        else:
            if self.f is None or self.mf is None:
                raise ModelError(f"resolved level {self.manifold} needs F and mF")
            if abs(self.mf) > self.f:
                raise ModelError(
                    f"|mF| > F for {self.manifold}: F={self.f}, mF={self.mf}")

    def __str__(self):
        if self.lumped:
            return self.manifold
        return f"{self.manifold}(F={self.f},mF={self.mf:+d})"


@dataclass(frozen=True)
class Manifold:
    """A hyperfine manifold contributing slots to the scheme.

    tier is the excitation ladder rung: 0 for ground, 1 for the pump-coupled
    intermediate manifold, 2 for the signal-coupled upper manifold.  Lumped
    manifolds contribute a single population slot; f_values then lists every
    hyperfine F aggregated into it.
    """

    label: str
    tier: int
    j: float
    f_values: tuple[int, ...]
    offset: float = 0.0
    lumped: bool = False
    mf_values: tuple[int, ...] | None = None
    decays_to: tuple[str, ...] = ()

    def __post_init__(self):
        name = f"manifold {self.label}"
        if self.tier not in (0, 1, 2):
            raise ModelError(f"{name}: tier must be 0, 1 or 2, "
                             f"got {self.tier!r}")
        if not _is_angular_momentum(self.j):
            raise ModelError(f"{name}: j must be a half-integer in "
                             f"[0, {MAX_ANGULAR_MOMENTUM}], got {self.j!r}")
        if not self.f_values or not all(
                isinstance(f, int) and _is_angular_momentum(f)
                for f in self.f_values):
            raise ModelError(f"{name}: F values must be integers in "
                             f"[0, {MAX_ANGULAR_MOMENTUM}], "
                             f"got {self.f_values!r}")
        if not self.lumped and len(self.f_values) != 1:
            raise ModelError(f"{name}: a resolved manifold has exactly one "
                             f"F, got {self.f_values!r}")
        if not math.isfinite(self.offset):
            raise ModelError(f"{name}: offset must be finite, "
                             f"got {self.offset!r}")

    def sublevels(self) -> tuple[SublevelId, ...]:
        if self.lumped:
            return (SublevelId(self.label, lumped=True),)
        (f,) = self.f_values
        mfs = self.mf_values if self.mf_values is not None \
            else tuple(range(-f, f + 1))
        return tuple(SublevelId(self.label, f=f, mf=m) for m in mfs)


@dataclass(frozen=True)
class DecayParams:
    """Global decay rates in gamma_a units."""

    gamma_a: float = 1.0
    gamma_b: float = 0.6
    gamma_g: float = 0.0
    d1_d2_ratio: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 <= value < math.inf:
                raise ModelError("decay rates and branching ratios must be "
                                 f"finite and >= 0: {f.name} = {value}")
        if not (self.gamma_g < self.gamma_b < self.gamma_a or self.gamma_b == 0):
            warnings.warn(
                "decay rates outside the usual regime gamma_g << gamma_b < gamma_a",
                stacklevel=2)


@dataclass(frozen=True)
class LevelScheme:
    """Ordered state space with energy offsets and decay parameters.

    Level order is fixed by the manifold order given at construction
    (sublevels mF-ascending within a manifold); the index map records it.
    """

    manifolds: tuple[Manifold, ...]
    levels: tuple[SublevelId, ...]
    energy_offsets: np.ndarray      # per level, gamma_a units
    tiers: tuple[int, ...]          # per level
    decay: DecayParams
    nuclear_spin: float = 1.5

    def __post_init__(self):
        if not _is_angular_momentum(self.nuclear_spin):
            raise ModelError(f"nuclear spin must be a half-integer in "
                             f"[0, {MAX_ANGULAR_MOMENTUM}], "
                             f"got {self.nuclear_spin!r}")
        labels = {m.label for m in self.manifolds}
        for man in self.manifolds:
            unknown = sorted(set(man.decays_to) - labels)
            if unknown:
                raise ModelError(f"manifold {man.label} decays to unknown "
                                 f"manifolds {unknown}")

    @classmethod
    def build(cls, manifolds, decay: DecayParams,
              nuclear_spin: float = 1.5) -> "LevelScheme":
        import numpy as np
        levels: list[SublevelId] = []
        offsets: list[float] = []
        tiers: list[int] = []
        for man in manifolds:
            for lev in man.sublevels():
                if lev in levels:
                    raise ModelError(f"duplicate level {lev}")
                levels.append(lev)
                offsets.append(man.offset)
                tiers.append(man.tier)
        return cls(tuple(manifolds), tuple(levels),
                   np.asarray(offsets, dtype=float), tuple(tiers), decay,
                   nuclear_spin)

    @functools.cached_property
    def index(self) -> dict[SublevelId, int]:
        return {lev: k for k, lev in enumerate(self.levels)}

    @functools.cached_property
    def _manifold_map(self) -> dict[str, Manifold]:
        return {m.label: m for m in self.manifolds}

    def manifold(self, label: str) -> Manifold:
        return self._manifold_map[label]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def ground_slots(self) -> list[int]:
        return [k for k, t in enumerate(self.tiers) if t == 0]


@dataclass(frozen=True)
class TransitionEntry:
    upper: SublevelId
    lower: SublevelId
    q: int                      # -1 (sigma-), 0 (pi), +1 (sigma+)
    strength: float             # signed, multiples of the weakest transition
    field: str                  # "pump" or "signal"

    def __post_init__(self):
        if not math.isfinite(self.strength):
            raise ModelError(f"strength of {self.upper} <- {self.lower} "
                             f"must be finite, got {self.strength!r}")
        if not self.upper.lumped and not self.lower.lumped:
            if self.q != self.upper.mf - self.lower.mf:
                raise ModelError(
                    f"selection rule violated: q={self.q} but "
                    f"dmF={self.upper.mf - self.lower.mf} "
                    f"for {self.upper} <- {self.lower}")


@dataclass(frozen=True)
class TransitionTable:
    entries: tuple[TransitionEntry, ...]

    def __post_init__(self):
        for role in {e.field for e in self.entries}:
            mags = [abs(e.strength) for e in self.entries
                    if e.field == role and e.strength != 0]
            if mags and abs(min(mags) - 1.0) > 1e-9:
                raise ModelError(
                    f"{role} strengths must be normalized so the weakest "
                    f"nonzero transition is 1 (got min {min(mags)})")

    def for_field(self, role: str) -> tuple[TransitionEntry, ...]:
        return tuple(e for e in self.entries if e.field == role)


def derive_transitions(scheme: LevelScheme, lower_tier: int, upper_tier: int,
                       role: str) -> list[TransitionEntry]:
    """Enumerate sigma+/- couplings between two tiers with strengths from
    relative_strength, normalized per field to the weakest nonzero one."""
    raw: list[tuple[SublevelId, SublevelId, int, float]] = []
    for mu_man in scheme.manifolds:
        if mu_man.tier != upper_tier or mu_man.lumped:
            continue
        for ml_man in scheme.manifolds:
            if ml_man.tier != lower_tier or ml_man.lumped:
                continue
            for up in mu_man.sublevels():
                for lo in ml_man.sublevels():
                    q = up.mf - lo.mf
                    if q not in (-1, 1):   # transverse beams drive no pi
                        continue
                    a = relative_strength(
                        up.f, up.mf, lo.f, lo.mf, q,
                        j_upper=mu_man.j, j_lower=ml_man.j,
                        nuclear_spin=scheme.nuclear_spin)
                    if a != 0.0:
                        raw.append((up, lo, q, a))
    if not raw:
        raise ModelError(f"no {role} transitions between tiers "
                         f"{lower_tier} and {upper_tier}")
    scale = min(abs(a) for *_, a in raw)
    return [TransitionEntry(up, lo, q, a / scale, role)
            for up, lo, q, a in raw]


# ---------------------------------------------------------------------------
# Decay branching
# ---------------------------------------------------------------------------

def decay_distribution(level: SublevelId, scheme: LevelScheme,
                       total_rate: float) -> list[tuple[SublevelId, float]]:
    """Distribute a level's total decay over its dipole-allowed channels.

    Rates are proportional to squared relative amplitudes and normalized so
    they sum to total_rate.  Channels into a lumped manifold aggregate every
    sublevel of that manifold; channels to sublevels absent from a restricted
    scheme are dropped before normalization.
    """
    if level.lumped:
        raise ModelError(f"{level} is lumped; its branching is configured, "
                         "not derived")
    src_man = scheme.manifold(level.manifold)
    if not src_man.decays_to:
        raise ModelError(f"{level} has no configured decay targets")

    weights: dict[SublevelId, float] = {}
    for tgt_label in src_man.decays_to:
        tgt_man = scheme.manifold(tgt_label)
        present = set(tgt_man.sublevels())
        for f in tgt_man.f_values:
            for mf in range(-f, f + 1):
                q = level.mf - mf
                if q not in (-1, 0, 1):
                    continue
                a = relative_strength(level.f, level.mf, f, mf, q,
                                      j_upper=src_man.j, j_lower=tgt_man.j,
                                      nuclear_spin=scheme.nuclear_spin)
                if tgt_man.lumped:
                    slot = SublevelId(tgt_label, lumped=True)
                else:
                    slot = SublevelId(tgt_label, f=f, mf=mf)
                    if slot not in present:
                        continue
                weights[slot] = weights.get(slot, 0.0) + a * a

    total = sum(weights.values())
    if total <= 0.0:
        raise ModelError(f"{level} has no dipole-allowed decay channels; "
                         "population would be orphaned")
    return [(slot, w / total * total_rate) for slot, w in weights.items()]


def check_branching(fractions, n_rows: int, n_cols: int) -> None:
    """Raise ModelError unless fractions, n_rows rows of n_cols numbers as
    nested lists or tuples, is column-stochastic: each value in [0, 1] and
    each column summing to 1 within 2e-3.  Pure Python, so the shipped
    table is checked without numpy."""
    def has_length(x, n):
        return isinstance(x, (list, tuple)) and len(x) == n
    if not has_length(fractions, n_rows) or not all(
            has_length(row, n_cols)
            and all(isinstance(v, (int, float)) for v in row)
            for row in fractions):
        raise ModelError("branching table shape does not match labels")
    if not all(0.0 <= v <= 1.0 for row in fractions for v in row):
        raise ModelError("branching fractions must lie in [0, 1]")
    worst = max((abs(sum(col) - 1.0) for col in zip(*fractions)),
                default=0.0)
    if worst > 2e-3:
        raise ModelError(f"branching columns must sum to 1 "
                         f"(worst deviation {worst:.2e})")


@dataclass(frozen=True)
class BranchingTable:
    """Column-stochastic branching fractions: column = decaying upper level,
    row = destination ground level."""

    rows: tuple[SublevelId, ...]
    cols: tuple[SublevelId, ...]
    fractions: np.ndarray

    def __post_init__(self):
        import numpy as np
        fr = np.asarray(self.fractions, dtype=float)
        check_branching(fr.tolist(), len(self.rows), len(self.cols))
        object.__setattr__(self, "fractions", fr)

    def column(self, col: SublevelId) -> np.ndarray:
        return self.fractions[:, self.cols.index(col)]


# ---------------------------------------------------------------------------
# Shipped effective-branching data (6S -> 5S, via 5P3/2)
# ---------------------------------------------------------------------------

# Rows: 5S1/2 F=2 mF=-2..2, then F=1 mF=-1..1.
TABLE1_ROWS = tuple(SublevelId("5S1/2", f=2, mf=m) for m in range(-2, 3)) + \
    tuple(SublevelId("5S1/2", f=1, mf=m) for m in range(-1, 2))
# Columns: 6S1/2 F''=2 mF=-2..2, then F''=1 mF=-1..1.
TABLE1_COLS = tuple(SublevelId("6S1/2", f=2, mf=m) for m in range(-2, 3)) + \
    tuple(SublevelId("6S1/2", f=1, mf=m) for m in range(-1, 2))
TABLE1 = (
    (0.68852, 0.19426, 0.05055, 0.0, 0.0, 0.2361, 0.09722, 0.0),
    (0.19426, 0.47296, 0.190277, 0.07583, 0.0, 0.1667, 0.11805, 0.04861),
    (0.05055, 0.190277, 0.45166, 0.190277, 0.05055, 0.104167, 0.125, 0.104167),
    (0.0, 0.07583, 0.190277, 0.47296, 0.19426, 0.04861, 0.11805, 0.1667),
    (0.0, 0.0, 0.05055, 0.19426, 0.68852, 0.0, 0.09722, 0.2361),
    (0.04722, 0.03333, 0.02083, 0.009722, 0.0, 0.21296, 0.1226875, 0.1088),
    (0.01944, 0.023611, 0.025, 0.023611, 0.01944, 0.1226875, 0.199, 0.1226875),
    (0.0, 0.009722, 0.02083, 0.03333, 0.04722, 0.1088, 0.1226875, 0.21296),
)


def load_table1() -> BranchingTable:
    """Shipped effective 6S1/2 -> 5S1/2 branching fractions (via 5P3/2)."""
    return BranchingTable(TABLE1_ROWS, TABLE1_COLS, TABLE1)
