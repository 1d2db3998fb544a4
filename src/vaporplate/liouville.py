"""Rotating-frame Hamiltonian assembly, Liouville-equation vectorization,
and steady-state / time-domain solvers.

The density matrix is vectorized over an index set that keeps every
population slot but only coherences between non-lumped levels; coherences
involving lumped reservoirs are never driven and are excluded exactly.
The generator is homogeneous (d vec/dt = M vec, s = 0); the trace is
imposed at solve time.  This module is the only one that knows the
coordinate layout: `vectorize` records the index arrays and how each
diagonal entry of M moves with extra pump and signal detuning.
`steady_state` is the dense per-cell solve and the oracle;
`steady_states` solves many signal detunings at one pump shift by
eliminating, once, the coordinates that the signal detuning never moves
(a Schur complement), and falls back to `steady_state` for every cell when
any of its checks fails; a single detuning goes to `steady_state` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .atomic import LevelScheme, TransitionTable
from .errors import ModelError, SolverError


@dataclass(frozen=True)
class FieldSpec:
    """One driving beam in gamma_a units.

    polarization is the (sigma+, sigma-) amplitude pair; k converts a
    velocity in m/s to a Doppler shift in gamma_a.
    """

    role: str                      # "pump" or "signal"
    rabi: float                    # Rabi frequency of the weakest (a=1) transition
    detuning: float                # relative to the reference transition
    polarization: tuple[complex, complex] = (1.0 + 0j, 0.0 + 0j)
    k: float = 0.0

    def __post_init__(self):
        a, b = self.polarization
        norm = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ModelError(
                f"{self.role} polarization not normalized: |a|^2+|b|^2 = {norm!r}")
        if not 0 <= self.rabi < np.inf:
            raise ModelError(f"{self.role} Rabi frequency must be finite "
                             f"and >= 0, got {self.rabi!r}")
        if not np.isfinite(self.detuning) or not np.isfinite(self.k):
            raise ModelError(f"{self.role} detuning and k must be finite")

    def component(self, q: int) -> complex:
        """Field amplitude driving a transition of polarization q."""
        if q == 1:
            return complex(self.polarization[0])
        if q == -1:
            return complex(self.polarization[1])
        return 0.0 + 0j   # transverse beams carry no pi component


@dataclass(frozen=True)
class DecayNetwork:
    """Incoherent population channels: source slot -> ((target, rate), ...).

    A level's total loss rate is the sum of its channel rates, so population
    is conserved by construction; validation rejects unknown slots and
    negative rates.
    """

    channels: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]
    n_levels: int

    def __post_init__(self):
        for src, chans in self.channels:
            if not 0 <= src < self.n_levels:
                raise ModelError(f"decay source slot {src} out of range")
            for tgt, rate in chans:
                if not 0 <= tgt < self.n_levels:
                    raise ModelError(f"decay target slot {tgt} out of range")
                if rate < 0:
                    raise ModelError(f"negative decay rate {rate} from slot {src}")

    @classmethod
    def from_dict(cls, chans: dict[int, list[tuple[int, float]]],
                  n_levels: int) -> "DecayNetwork":
        return cls(tuple((src, tuple(lst)) for src, lst in sorted(chans.items())),
                   n_levels)

    def loss_rates(self) -> np.ndarray:
        g = np.zeros(self.n_levels)
        for src, chans in self.channels:
            g[src] = sum(rate for _, rate in chans)
        return g


def _detuned_levels(scheme: LevelScheme) -> tuple[np.ndarray, np.ndarray]:
    """Per level, 1.0 where the pump (resp. signal) detuning lowers the
    rotating-frame energy: resolved levels of tier >= 1 (resp. >= 2)."""
    tiers = np.asarray(scheme.tiers)
    resolved = ~np.array([lev.lumped for lev in scheme.levels])
    return ((tiers >= 1) & resolved).astype(float), \
        ((tiers >= 2) & resolved).astype(float)


def build_hamiltonian(scheme: LevelScheme, transitions: TransitionTable,
                      fields: dict[str, FieldSpec],
                      velocity_shifts: tuple[float, float] = (0.0, 0.0)
                      ) -> np.ndarray:
    """Rotating-frame Hamiltonian (gamma_a units).

    Diagonal: energy offset minus the accumulated laser detunings for the
    level's tier (pump shifts tiers >= 1, signal additionally shifts tier 2),
    each corrected by the per-beam Doppler shift.  Off-diagonal: half the
    transition Rabi frequency projected on the field polarization.  Lumped
    levels stay uncoupled.
    """
    dc = fields["pump"].detuning + velocity_shifts[0] if "pump" in fields else 0.0
    ds = fields["signal"].detuning + velocity_shifts[1] if "signal" in fields else 0.0

    pump_levels, signal_levels = _detuned_levels(scheme)
    h = np.diag(scheme.energy_offsets - dc * pump_levels
                - ds * signal_levels).astype(complex)

    for entry in transitions.entries:
        if entry.field not in fields:
            continue
        fld = fields[entry.field]
        try:
            iu = scheme.index[entry.upper]
            il = scheme.index[entry.lower]
        except KeyError as exc:
            raise ModelError(f"transition references unknown level {exc}") from exc
        if entry.upper.lumped or entry.lower.lumped:
            raise ModelError(f"transition couples a lumped level: "
                             f"{entry.upper} <- {entry.lower}")
        coupling = 0.5 * entry.strength * fld.rabi * fld.component(entry.q)
        h[iu, il] += coupling
        h[il, iu] += np.conjugate(coupling)
    return h


@dataclass(frozen=True)
class Liouvillian:
    """Linear generator d vec(rho)/dt = m @ vec(rho) + s over the retained
    coordinate set.

    s is zero: the trace is imposed when solving.  rows/cols index rho for
    each coordinate, populations lists the diagonal coordinates, and
    d_pump/d_signal are the derivatives of diag(m) with respect to extra pump
    and signal detuning."""

    m: np.ndarray
    s: np.ndarray
    coords: tuple[tuple[int, int], ...]
    n_levels: int
    rows: np.ndarray
    cols: np.ndarray
    populations: np.ndarray
    d_pump: np.ndarray
    d_signal: np.ndarray

    def to_vector(self, rho: np.ndarray) -> np.ndarray:
        return np.asarray(rho)[self.rows, self.cols].astype(complex)

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        rho = np.zeros((self.n_levels, self.n_levels), dtype=complex)
        rho[self.rows, self.cols] = x
        return rho

    @cached_property
    def _signal_split(self) -> "_SignalSplit":
        """The coordinate order of steady_states, worked out once per
        generator: the coordinates the signal detuning leaves fixed, then
        the ones it moves."""
        moving = self.d_signal != 0
        order = np.concatenate([np.flatnonzero(~moving),
                                np.flatnonzero(moving)])
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        return _SignalSplit(
            m=self.m[np.ix_(order, order)], n_fixed=int(np.sum(~moving)),
            d_pump=self.d_pump[order], d_moving=self.d_signal[moving],
            trace_row=int(position[self.populations[-1]]),
            populations=position[self.populations],
            rows=self.rows[order], cols=self.cols[order])


class _SignalSplit(NamedTuple):
    """A generator with its coordinates reordered so that the ones the
    signal detuning moves come last (see Liouvillian._signal_split)."""

    m: np.ndarray
    n_fixed: int
    d_pump: np.ndarray
    d_moving: np.ndarray
    trace_row: int
    populations: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def vectorize(h: np.ndarray, scheme: LevelScheme,
              network: DecayNetwork) -> Liouvillian:
    """Vectorize -i[H, rho] plus the decay network into a linear system.

    Keeps every population and the coherences between non-lumped levels,
    in row-major order; s = 0 and the trace is imposed when solving.
    """
    n = scheme.n_levels
    if h.shape != (n, n):
        raise ModelError("Hamiltonian size does not match the scheme")
    if not np.max(np.abs(h - h.conj().T)) <= \
            1e-12 * max(1.0, np.max(np.abs(h))):
        raise ModelError("Hamiltonian must be Hermitian")

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
    rows, cols = np.nonzero(keep)
    sel = rows * n + cols
    excl = np.flatnonzero(~keep.ravel())
    if excl.size and np.max(np.abs(m_full[np.ix_(sel, excl)])) > 0.0:
        raise ModelError("excluded lumped coherences feed retained "
                         "coordinates; lumped levels must stay uncoupled")

    pump_levels, signal_levels = _detuned_levels(scheme)
    liou = Liouvillian(
        m=m_full[np.ix_(sel, sel)], s=np.zeros(sel.size, dtype=complex),
        coords=tuple(zip(rows.tolist(), cols.tolist())), n_levels=n,
        rows=rows, cols=cols, populations=np.flatnonzero(rows == cols),
        d_pump=1j * (pump_levels[rows] - pump_levels[cols]),
        d_signal=1j * (signal_levels[rows] - signal_levels[cols]))
    _check_trace_preservation(liou)
    return liou


def _check_trace_preservation(liou: Liouvillian) -> None:
    pop = liou.populations
    col_sums = liou.m[pop, :].sum(axis=0)
    if not np.max(np.abs(col_sums[pop])) <= 1e-10:
        raise SolverError("decay network orphans population "
                          "(population column deficit)")


def steady_state(liou: Liouvillian, pump_shift: float = 0.0,
                 signal_shift: float = 0.0) -> np.ndarray:
    """Solve M vec(rho) = 0 with trace(rho) = 1.

    pump_shift and signal_shift are detunings added to those the generator
    was built with (a Doppler shift, or a sweep's signal detuning); they only
    move diagonal entries of M.  The redundant last population row is
    replaced by the trace constraint in one working copy.  The result is
    validated for residual, trace, Hermiticity, and positivity.
    """
    a = liou.m.copy()
    diag = np.arange(len(a))
    a[diag, diag] += liou.d_pump * pump_shift + liou.d_signal * signal_shift
    row = liou.populations[-1]
    saved_row = a[row].copy()
    a[row] = 0.0
    a[row, liou.populations] = 1.0
    b = np.zeros(len(a), dtype=complex)
    b[row] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        a[row] = saved_row
        _raise_nonunique(a)
    resid = a @ x - b
    resid[row] = saved_row @ x
    resid = np.max(np.abs(resid))
    # the bound is 1e-9 * max(1, max|a|); max|a| costs a pass over the
    # matrix, so it is taken only when the residual exceeds 1e-9
    if not (resid <= 1e-9 or resid <= 1e-9 * np.max(np.abs(a))):
        a[row] = saved_row
        _raise_nonunique(a, resid)
    rho = liou.to_matrix(x)
    _validate_density(rho)
    return rho


def steady_states(liou: Liouvillian, pump_shift: float,
                  signal_shifts) -> np.ndarray:
    """Steady states at one pump shift and each of signal_shifts, as a
    (k, n, n) stack; cell j equals steady_state(liou, pump_shift,
    signal_shifts[j]) to rounding.

    The signal detuning moves only the coordinates S with d_signal != 0,
    none of them a population, so the trace row stays among the fixed
    coordinates F.  One solve of the F block against [A_FS | b_F] gives
    Z = A_FF^-1 A_FS and y0 = A_FF^-1 b_F; each signal shift is then one
    solve of the Schur complement A_SS + shift*diag(d_signal[S]) - A_SF Z
    for x_S, and x_F = y0 - Z x_S.  Every cell is checked against
    steady_state's residual bound and the density bounds of
    _validate_density; if the elimination is singular or any cell fails a
    check, every cell is solved by steady_state instead, which raises
    SolverError where the generator has no valid steady state.  A single
    shift goes straight to steady_state: the elimination costs about one
    dense solve, so it pays from two shifts on.
    """
    shifts = np.asarray(signal_shifts, dtype=float)
    rho = None
    if len(shifts) > 1:
        try:
            rho = _eliminated_states(liou, pump_shift, shifts)
        except np.linalg.LinAlgError:
            pass
    if rho is None:
        rho = np.empty((len(shifts), liou.n_levels, liou.n_levels),
                       dtype=complex)
        for j, shift in enumerate(shifts):
            rho[j] = steady_state(liou, pump_shift, shift)
    return rho


def _eliminated_states(liou: Liouvillian, pump_shift: float,
                       shifts: np.ndarray) -> np.ndarray | None:
    """steady_states by elimination; None if any cell fails a check."""
    split = liou._signal_split
    nf, row = split.n_fixed, split.trace_row
    a = split.m.copy()
    diag = np.arange(len(a))
    a[diag, diag] += split.d_pump * pump_shift
    saved_row = a[row].copy()
    a[row] = 0.0
    a[row, split.populations] = 1.0

    # [Z | y0] = A_FF^-1 [A_FS | b_F];  [Sc | c] = [A_SS | 0] - A_SF [Z | y0]
    ns = len(a) - nf
    rhs = np.zeros((nf, ns + 1), dtype=complex)
    rhs[:, :ns] = a[:nf, nf:]
    rhs[row, ns] = 1.0
    zy = np.linalg.solve(a[:nf, :nf], rhs)
    sc = -(a[nf:, :nf] @ zy)
    sc[:, :ns] += a[nf:, nf:]
    c, sc = sc[:, ns].copy(), sc[:, :ns]

    moving = np.arange(ns)
    base = sc[moving, moving].copy()
    x = np.empty((len(a), len(shifts)), dtype=complex)
    for j, shift in enumerate(shifts):
        sc[moving, moving] = base + split.d_moving * shift
        x[nf:, j] = np.linalg.solve(sc, c)
    x[:nf] = zy[:, ns:] - zy[:, :ns] @ x[nf:]

    # residual against the true generator: the trace row is the saved one
    # and the signal shift adds d_signal * shift on the moving diagonal
    r = a @ x
    r[row] = saved_row @ x
    r[nf:] += split.d_moving[:, None] * shifts * x[nf:]
    resid = np.max(np.abs(r), axis=0)
    ok = resid <= 1e-9
    if not np.all(ok):
        # steady_state's bound 1e-9 * max|A| over each cell's own matrix,
        # which differs from `a` only on the moving diagonal
        mag = np.abs(a)
        mag[nf + moving, nf + moving] = 0.0
        cell_diag = a[nf + moving, nf + moving] + \
            np.multiply.outer(shifts, split.d_moving)
        cell_max = np.maximum(np.max(mag),
                              np.max(np.abs(cell_diag), axis=1, initial=0.0))
        ok |= resid <= 1e-9 * cell_max

    rho = np.zeros((len(shifts), liou.n_levels, liou.n_levels),
                   dtype=complex)
    rho[:, split.rows, split.cols] = x.T
    herm = np.max(np.abs(rho - rho.conj().transpose(0, 2, 1)), axis=(1, 2))
    pops = np.diagonal(rho, axis1=1, axis2=2).real
    ok &= herm <= 1e-10
    ok &= np.abs(np.sum(pops, axis=1) - 1.0) <= 1e-8
    ok &= np.min(pops, axis=1) >= -1e-8
    return rho if np.all(ok) else None


def _raise_nonunique(m: np.ndarray, resid: float | None = None):
    if not np.all(np.isfinite(m)):
        raise SolverError("steady-state generator is not finite")
    sv = np.linalg.svd(m, compute_uv=False)
    tol = max(m.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    null_dim = int(np.sum(sv < tol))
    detail = f", residual {resid:.2e}" if resid is not None else ""
    raise SolverError(
        f"non-unique steady state (null-space dimension {max(null_dim, 1)}"
        f"{detail})")


def _validate_density(rho: np.ndarray) -> None:
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-10:
        raise SolverError("steady state is not Hermitian within tolerance")
    if not abs(np.trace(rho).real - 1.0) <= 1e-8:
        raise SolverError("steady state trace deviates from 1")
    if not np.min(np.diag(rho).real) >= -1e-8:
        raise SolverError("steady state has negative population beyond tolerance")


def evolve(rho0: np.ndarray, liou: Liouvillian, t_final: float,
           dt: float) -> np.ndarray:
    """Integrate d vec(rho)/dt = M vec(rho) + s with fixed-step RK4.

    Serves as an independent oracle for steady_state.  Aborts if the trace
    drifts by more than 1e-3, which indicates an unstable step size.
    """
    if dt <= 0 or t_final < 0:
        raise SolverError("dt must be > 0 and t_final >= 0")

    m, s = liou.m, liou.s
    x = liou.to_vector(rho0)
    pop = liou.populations
    steps = int(np.ceil(t_final / dt))
    dt = t_final / steps if steps else dt

    for step in range(steps):
        k1 = m @ x + s
        k2 = m @ (x + 0.5 * dt * k1) + s
        k3 = m @ (x + 0.5 * dt * k2) + s
        k4 = m @ (x + dt * k3) + s
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % 50 == 0 or step == steps - 1:
            drift = abs(np.sum(x[pop]).real - 1.0)
            if drift > 1e-3:
                raise SolverError(
                    f"trace drifted by {drift:.2e} during evolution; "
                    f"reduce dt (currently {dt:.3g})")
    return liou.to_matrix(x)


def suggest_dt(liou: Liouvillian, fields: dict[str, FieldSpec] | None = None
               ) -> float:
    """Step size heuristic: resolve the fastest frequency in the generator."""
    scale = np.max(np.abs(liou.m))
    if fields:
        scale = max(scale, *(f.rabi for f in fields.values()),
                    *(abs(f.detuning) for f in fields.values()))
    return 0.05 / max(scale, 1e-12)
