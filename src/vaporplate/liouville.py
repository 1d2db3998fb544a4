"""Rotating-frame Hamiltonian assembly, Liouville-equation vectorization,
and steady-state / time-domain solvers.

The density matrix is vectorized over an index set that keeps every
population slot but only coherences between non-lumped levels; coherences
involving lumped reservoirs are never driven and are excluded exactly.
The generator is homogeneous (d vec/dt = M vec, s = 0); the trace is
imposed at solve time.  This module is the only one that knows the
coordinate layout: `vectorize` records the index arrays and how each
diagonal entry of M moves with extra pump and signal detuning.
`vectorize` builds -i[H, .] directly on the retained coordinates.
`steady_state` is the dense per-cell solve and the oracle;
`steady_states` averages steady states over a grid of velocity nodes at
any number of signal detunings.  It solves only the driven coordinates,
those a population reaches through the generator's couplings (the Zeeman
selection rules leave the rest in coherence-only blocks whose steady
state is exactly zero), in real form: populations and the real and
imaginary parts of each coherence, so its densities are Hermitian by
construction.  Velocity enters only as v * D_v: the coordinates D_v
leaves fixed (F) are eliminated once per generator and geometry, and the
rest (S) solve at every node from one eigendecomposition per signal
detuning.  Each node is solved and checked against steady_state's bounds
once, and one refinement step is applied to the weighted average of the
nodes that passed; a node that fails is solved by `steady_state` alone,
and every node is when the generator has no unique steady state at rest
or F cannot be eliminated.
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
    each coordinate, populations lists the diagonal coordinates,
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
    def _expansions(self) -> dict:
        """_expansion's cache, keyed by the Doppler rates."""
        return {}

    def _expansion(self, doppler) -> "_Expansion | None":
        """The part of steady_states shared by every signal shift and
        velocity, worked out once per generator and pair of Doppler rates
        (_build_expansion)."""
        key = (float(doppler[0]), float(doppler[1]))
        if key not in self._expansions:
            self._expansions[key] = _build_expansion(self, *key)
        return self._expansions[key]


def _driven(liou: Liouvillian) -> np.ndarray:
    """Mask of the coordinates a population reaches through nonzero entries
    of M, in either direction; every coordinate if one outside that set is
    not strictly damped.

    The other coordinates are coherences in blocks that no driven row or
    column touches.  On such a block M is the anti-Hermitian -i[H, .] part
    plus the real diagonal -(Gamma_i + Gamma_j)/2, and every shift adds an
    imaginary diagonal entry, so with that diagonal strictly negative the
    block is nonsingular at every cell.  Its right-hand side is zero (the
    trace row is a population's), and so is its part of the steady state.
    The set holds (j, i) with each (i, j): in either direction, -i[H, .]
    links (i, j) with (i', j) where h[i, i'] or h[i', i] is nonzero, and
    (j, i) with (j, i') under the same condition, and the decay network
    links populations only."""
    link = liou.m != 0
    link |= link.T
    driven = np.zeros(len(link), dtype=bool)
    driven[liou.populations] = True
    while True:
        grown = driven | np.any(link[:, driven], axis=1)
        if np.array_equal(grown, driven):
            break
        driven = grown
    damped = np.diagonal(liou.m).real < 0
    return driven if np.all(damped[~driven]) else np.ones_like(driven)


class _Expansion(NamedTuple):
    """A generator's driven coordinates in real form, F before S, with F
    eliminated (_build_expansion).  Real coordinate r is a population or
    the real or imaginary part of a coherence (i, j), i < j; partner[r] is
    the other part of that coherence (r itself for a population), and a
    shift moves coordinate r by coef[r] * shift * x[partner[r]]."""

    a: np.ndarray           # generator at rest, its own trace row
    trace_row: int          # where the trace is imposed, b = 1 there
    n_f: int
    w_ff: np.ndarray        # A_FF^-1
    z: np.ndarray           # A_FF^-1 A_FS
    y: np.ndarray           # A_FF^-1 b_F, a column
    y_sf: np.ndarray        # A_SF A_FF^-1
    p0: np.ndarray          # Delta^-1 S0
    ratio: np.ndarray       # Delta^-1 D_signal on S, a diagonal matrix
    # Delta^-1 r on S is r[swap] / delta: Delta pairs the two parts of a
    # coherence (swap, partner within S) and scales them (delta, a column)
    swap: np.ndarray
    delta: np.ndarray
    dc: np.ndarray          # Delta^-1 (b_S - A_SF y), a column
    partner: np.ndarray
    paired: np.ndarray      # column, 1.0 on coherence parts, 0.0 on pops
    coef_v: np.ndarray      # D_v, per unit velocity
    coef_s: np.ndarray      # D_signal
    populations: np.ndarray
    # for the residual bound: per real coordinate, the complex generator's
    # diagonal entry that a shift moves by i coef, and max|off-diagonal|
    diag: np.ndarray
    off_max: float
    t: np.ndarray           # real coordinates -> complex driven ones
    rows: np.ndarray        # where each complex driven coordinate sits in rho
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

    lumped = np.array([lev.lumped for lev in scheme.levels])
    keep = np.eye(n, dtype=bool) | ~(lumped[:, None] | lumped[None, :])
    rows, cols = np.nonzero(keep)
    excl_rows, excl_cols = np.nonzero(~keep)
    if excl_rows.size and np.max(np.abs(_commutator(
            h, rows, cols, excl_rows, excl_cols))) > 0.0:
        raise ModelError("excluded lumped coherences feed retained "
                         "coordinates; lumped levels must stay uncoupled")

    m = _commutator(h, rows, cols, rows, cols)
    loss = network.loss_rates()
    diag = np.arange(len(rows))
    m[diag, diag] -= 0.5 * (loss[rows] + loss[cols])
    slot = np.full((n, n), -1)
    slot[rows, cols] = diag
    for src, chans in network.channels:
        for tgt, rate in chans:
            m[slot[tgt, tgt], slot[src, src]] += rate

    pump_levels, signal_levels = _detuned_levels(scheme)
    liou = Liouvillian(
        m=m, s=np.zeros(len(rows), dtype=complex),
        coords=tuple(zip(rows.tolist(), cols.tolist())), n_levels=n,
        rows=rows, cols=cols, populations=np.flatnonzero(rows == cols),
        d_pump=1j * (pump_levels[rows] - pump_levels[cols]),
        d_signal=1j * (signal_levels[rows] - signal_levels[cols]))
    _check_trace_preservation(liou)
    return liou


def _commutator(h: np.ndarray, rows_a: np.ndarray, cols_a: np.ndarray,
                rows_b: np.ndarray, cols_b: np.ndarray) -> np.ndarray:
    """The block of -i[H, .] from coordinates (rows_b, cols_b) of rho to
    coordinates (rows_a, cols_a): entry [a, b] is
    -i (h[r_a, r_b] [c_a == c_b] - [r_a == r_b] h[c_b, c_a]), the same
    products, in the same order, as -i (H (x) 1 - 1 (x) H^T) in row-major
    vectorization."""
    ra, ca = rows_a[:, None], cols_a[:, None]
    return -1j * (h[ra, rows_b] * (ca == cols_b)
                  - (ra == rows_b) * h[cols_b, ca])


def _check_trace_preservation(liou: Liouvillian) -> None:
    pop = liou.populations
    col_sums = liou.m[pop, :].sum(axis=0)
    if not np.max(np.abs(col_sums[pop])) <= 1e-10:
        raise SolverError("decay network orphans population "
                          "(population column deficit)")


def _trace_imposed(liou: Liouvillian, pump_shift: float,
                   signal_shift: float):
    """The shifted generator with its last population row replaced by the
    trace constraint, that row as it was, and the right-hand side."""
    a = liou.m.copy()
    diag = np.arange(len(a))
    a[diag, diag] += liou.d_pump * pump_shift + liou.d_signal * signal_shift
    row = liou.populations[-1]
    saved_row = a[row].copy()
    a[row] = 0.0
    a[row, liou.populations] = 1.0
    b = np.zeros(len(a), dtype=complex)
    b[row] = 1.0
    return a, saved_row, b


def steady_state(liou: Liouvillian, pump_shift: float = 0.0,
                 signal_shift: float = 0.0) -> np.ndarray:
    """Solve M vec(rho) = 0 with trace(rho) = 1.

    pump_shift and signal_shift are detunings added to those the generator
    was built with (a Doppler shift, or a sweep's signal detuning); they only
    move diagonal entries of M.  The redundant last population row is
    replaced by the trace constraint in one working copy.  The result is
    validated for residual, trace, Hermiticity, and positivity.
    """
    a, saved_row, b = _trace_imposed(liou, pump_shift, signal_shift)
    row = liou.populations[-1]
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


def steady_states(liou: Liouvillian, signal_shifts, velocities, weights,
                  doppler) -> np.ndarray:
    """Velocity-averaged steady states: entry j of the (k, n, n) result is
    the sum over nodes b of weights[b] * steady_state(liou, doppler[0] *
    v_b, signal_shifts[j] + doppler[1] * v_b), v_b = velocities[b], to
    rounding; doppler is the (pump, signal) detuning shift per unit
    velocity.

    Only the driven coordinates are solved for (_driven): the others are
    damped coherences that no driven coordinate couples to, so their part
    of every cell is zero and is left zero.  On the driven coordinates the
    kernel works in real form (_build_expansion): populations and the real
    and imaginary parts of each coherence (i, j), i < j, so every density
    it returns is Hermitian by construction.  Velocity enters the
    generator only as v * D_v.  F, the coordinates D_v leaves fixed, is
    eliminated once per generator and Doppler rates with the trace row
    imposed, leaving (S0 + shift * D_signal + v * Delta) x_S = c on the
    others, S, where Delta is D_v on S and invertible.  Per signal shift,
    one eigendecomposition Delta^-1 (S0 + shift * D_signal) = W B W^-1, in
    LAPACK's real eigenvector columns W (B block diagonal), gives every
    node at once, x_S(v) = W (B + v)^-1 W^-1 Delta^-1 c, and x_F = y - Z
    x_S (_expanded_states).  On fig7-full (counter-propagating) F and S
    hold 48 and 68 of the 116 driven real coordinates.

    Each node is solved once, and its product A x, formed once, gives both
    its checks and the refinement's residual.  Every node is checked
    against steady_state's residual bound on the true generator and its
    trace and minimum-population bounds.  One refinement step through the
    same expansion is applied to the weighted sum over the nodes that
    passed (_refined_average): it is linear in the residual, so this
    equals refining every node and summing.  A node that fails a check is
    solved by steady_state alone, and so is every node of a shift whose
    eigendecomposition fails, and every node of every shift if the
    generator has no unique steady state at rest, A_FF is singular, or the
    signal shift moves a coordinate of F (a coherence no velocity moves,
    as the two-photon coherences are for counter-propagating beams with
    k_pump == k_signal); steady_state raises SolverError, naming the node,
    where the generator has no valid steady state.  The refined sum is
    mapped back to complex coordinates once per shift.
    """
    shifts = np.asarray(signal_shifts, dtype=float).reshape(-1)
    v = np.asarray(velocities, dtype=float)
    w = np.asarray(weights, dtype=float)
    ex = liou._expansion(doppler)
    out = np.zeros((len(shifts), liou.n_levels, liou.n_levels),
                   dtype=complex)
    for j, shift in enumerate(shifts):
        ok = np.zeros(len(v), dtype=bool)
        if ex is not None:
            try:
                nodes = _expanded_states(ex, shift, v)
            except np.linalg.LinAlgError:
                pass
            else:
                ok = nodes.ok
                out[j, ex.rows, ex.cols] = ex.t @ _refined_average(ex, nodes,
                                                                   w)
        for b in np.flatnonzero(~ok):
            try:
                rho = steady_state(liou, doppler[0] * v[b],
                                   shift + doppler[1] * v[b])
            except SolverError as exc:
                raise SolverError(f"{exc} at v={v[b]:g}") from exc
            out[j] += w[b] * rho
    return out


def _build_expansion(liou: Liouvillian, rate_p: float,
                     rate_s: float) -> _Expansion | None:
    """steady_states' work shared by every signal shift and velocity, for
    Doppler rates (rate_p, rate_s): D_v = rate_p * d_pump + rate_s *
    d_signal.

    The generator preserves Hermiticity, so on the real coordinates it is
    real, and a shift theta (an imaginary diagonal entry i theta on rho_ij)
    becomes the 2x2 block [[0, -theta], [theta, 0]] on (Re, Im) rho_ij.
    With the trace row imposed, A x = b is split into F, the coordinates
    with D_v = 0 (populations and the coherences no Doppler shift moves),
    and S: Z = A_FF^-1 A_FS, y = A_FF^-1 b_F, S0 = A_SS - A_SF Z and c =
    b_S - A_SF y.

    None, and every cell goes to steady_state, if the driven block at rest
    has no unique steady state (the dense LU finds the exact zero pivot of
    such a generator, which an elimination hides), if A_FF is singular, or
    if a coordinate of F has d_signal != 0."""
    driven = np.flatnonzero(_driven(liou))
    a, saved_row, b = _trace_imposed(liou, 0.0, 0.0)
    a, saved_row = a[np.ix_(driven, driven)], saved_row[driven]
    try:
        np.linalg.solve(a, b[driven])
    except np.linalg.LinAlgError:
        return None

    # one real coordinate per population and two per coherence (i, j),
    # i < j, at driven positions p (of (i, j)) and q (of (j, i)); the
    # driven set holds each coordinate's transpose (_driven)
    rows, cols = liou.rows[driven], liou.cols[driven]
    position = np.full((liou.n_levels, liou.n_levels), -1)
    position[rows, cols] = np.arange(len(driven))
    upper = np.flatnonzero(rows <= cols)
    count = np.where(rows[upper] == cols[upper], 1, 2)
    p = np.repeat(upper, count)
    q = np.repeat(position[cols[upper], rows[upper]], count)
    im = np.zeros(len(p), dtype=bool)
    im[np.cumsum(count)[count == 2] - 1] = True
    theta_v = (rate_p * liou.d_pump.imag
               + rate_s * liou.d_signal.imag)[driven][p]
    theta_s = liou.d_signal.imag[driven][p]
    # F before S; the two parts of a coherence stay adjacent
    order = np.argsort(theta_v != 0, kind="stable")
    p, q, im, theta_v, theta_s = (arr[order] for arr in
                                  (p, q, im, theta_v, theta_s))
    n_f = int(np.count_nonzero(theta_v == 0))
    if np.any(theta_s[:n_f]):
        return None
    pop = p == q

    def right(m):       # m T, T mapping real coordinates to complex ones
        mp, mq = m[..., p], m[..., q]
        return np.where(im, 1j * (mp - mq), np.where(pop, mp, mp + mq))
    at = right(a)
    ap, aq = at[p], at[q]       # T^-1 (m T)
    ar = np.where(im[:, None], -0.5j * (ap - aq),
                  np.where(pop[:, None], ap, 0.5 * (ap + aq))).real
    trace_row = int(np.flatnonzero(
        p == np.searchsorted(driven, liou.populations[-1]))[0])
    b_r = np.zeros(len(p))
    b_r[trace_row] = 1.0

    # [Z | y | W] = A_FF^-1 [A_FS | b_F | 1]
    n_s = len(p) - n_f
    try:
        sol = np.linalg.solve(ar[:n_f, :n_f], np.column_stack(
            [ar[:n_f, n_f:], b_r[:n_f], np.eye(n_f)]))
    except np.linalg.LinAlgError:
        return None
    z, y, w_ff = sol[:, :n_s], sol[:, n_s:n_s + 1], sol[:, n_s + 1:]
    a_sf = ar[n_f:, :n_f]

    index = np.arange(len(p))
    partner = index + np.where(im, -1, np.where(pop, 0, 1))
    sign = np.where(im, 1.0, -1.0)
    coef_v, coef_s = sign * theta_v, sign * theta_s
    # (Delta^-1 m)[s] = m[partner[s]] / coef_v[partner[s]] on S
    swap = partner[n_f:] - n_f
    delta = coef_v[n_f:][swap, None]
    p0 = (ar[n_f:, n_f:] - a_sf @ z)[swap] / delta
    t = np.zeros((len(driven), len(p)), dtype=complex)
    t[p, index] = np.where(im, 1j, 1.0)
    t[q, index] = np.where(im, -1j, 1.0)
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    ar[trace_row] = right(saved_row).real
    return _Expansion(
        a=ar, trace_row=trace_row, n_f=n_f, w_ff=w_ff, z=z, y=y,
        y_sf=a_sf @ w_ff, p0=p0, ratio=np.diag(theta_s[n_f:] / theta_v[n_f:]),
        swap=swap, delta=delta, dc=(b_r[n_f:, None] - a_sf @ y)[swap] / delta,
        partner=partner, paired=(~pop).astype(float)[:, None],
        coef_v=coef_v, coef_s=coef_s,
        populations=np.flatnonzero(pop),
        diag=np.diagonal(a)[np.where(im, p, q)], off_max=float(np.max(off)),
        t=t, rows=rows, cols=cols)


class _Nodes(NamedTuple):
    """_expanded_states' result for one signal shift, one column per
    velocity node: the real driven coordinates and whether they passed the
    checks, and what _refined_average needs to refine their weighted sum:
    the residual A x - b on F and, on S, the residual's image in the real
    eigenbasis W."""

    x: np.ndarray
    ok: np.ndarray
    e_f: np.ndarray
    u: np.ndarray           # (B + v)^-1 W^-1 Delta^-1 (e_S - Y_SF e_F)
    basis: np.ndarray       # W


def _expanded_states(ex: _Expansion, shift: float, v: np.ndarray) -> _Nodes:
    """Every velocity node for one signal shift, each solved and checked
    once, from one eigendecomposition K = Delta^-1 (S0 + shift D_signal).

    The basis is LAPACK's real eigenvector columns W: a conjugate pair of
    eigenvalues a +- ib, b > 0, gives the columns Re and Im of the first
    one's eigenvector, so K W = W B with B block diagonal, the 2x2 block
    [[a, b], [-b, a]] per pair and a per real eigenvalue.  Column i's
    partner column pair[i] (i itself for a real eigenvalue) and beta[i],
    the imaginary part of eigenvalue i, give B u = a u + beta u[pair], and
    (B + v)^-1 g = (alpha g - beta g[pair]) / (alpha^2 + beta^2), alpha =
    a + v: on a pair, g[j] + i g[j+1] over the pole conj(lambda_j) + v.
    Every array is real.  A node on a real pole, or a non-finite input,
    gives a non-finite column and fails the checks."""
    n_f = ex.n_f
    # real arrays when every eigenvalue is real, complex ones otherwise
    lam, vec = np.linalg.eig(ex.p0 + shift * ex.ratio)
    beta = lam.imag
    basis = np.where(beta < 0, -vec.imag, vec.real)
    basis_inv = np.linalg.inv(basis)
    pair = np.arange(len(lam)) + np.sign(beta).astype(int)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = lam.real[:, None] + v
        scale = 1.0 / (alpha * alpha + (beta * beta)[:, None])
        re, im = alpha * scale, beta[:, None] * scale

        def solve_b(g):     # (B + v)^-1 g per node
            return re * g - im * g[pair]

        x = np.empty((len(ex.a), len(v)))
        x[n_f:] = basis @ solve_b(basis_inv @ ex.dc)
        x[:n_f] = ex.y - ex.z @ x[n_f:]
        # A x once per node, on the true generator, is the check's
        # residual; with the trace row imposed, where A x - b is the trace's
        # error, it is e = A x - b, the refinement's
        ax = ex.a @ x
        ax[n_f:] += (shift * ex.coef_s[n_f:, None]
                     + np.multiply.outer(ex.coef_v[n_f:], v)) * \
            x[ex.partner[n_f:]]
        # |r_Re + i r_Im| is the complex residual of rho_ij
        sq = ax * ax
        resid_sq = np.max(sq + ex.paired * sq[ex.partner], axis=0)
        pops = x[ex.populations]
        trace = pops.sum(axis=0) - 1.0
        ax[ex.trace_row] = trace
        # the refinement's solve per node, short of W and the sum
        u = solve_b(basis_inv @ ((ax[n_f:] - ex.y_sf @ ax[:n_f])[ex.swap]
                                 / ex.delta))
    ok = resid_sq <= 1e-18
    if not ok.all():
        # steady_state's bound 1e-9 * max|A| over each node's own matrix,
        # which differs from the one at rest only on the diagonal
        cell = np.abs(ex.diag[:, None] + 1j * (shift * ex.coef_s[:, None]
                                               + np.multiply.outer(ex.coef_v,
                                                                   v)))
        ok |= resid_sq <= (1e-9 * np.maximum(ex.off_max,
                                             cell.max(axis=0))) ** 2
    ok &= np.abs(trace) <= 1e-8
    ok &= pops.min(axis=0) >= -1e-8
    return _Nodes(x, ok, ax[:n_f], u, basis)


def _refined_average(ex: _Expansion, nodes: _Nodes, w: np.ndarray
                     ) -> np.ndarray:
    """The weighted sum of the nodes that passed the checks, with one
    refinement step, A dx = b - A x through the elimination, applied to
    the sum: dx is linear in the residual, so refining the sum gives the
    sum of the refined nodes.  A failed node may hold inf or NaN, so the
    nodes that passed are selected rather than the others given weight 0."""
    x, ok, e_f, u, basis = nodes
    if not ok.all():        # selecting copies, so only when a node failed
        x, e_f, u, w = x[:, ok], e_f[:, ok], u[:, ok], w[ok]
    # with e = A x - b the step is x -= A^-1 e, on S W (u @ w)
    x = x @ w
    step_s = basis @ (u @ w)
    x[ex.n_f:] -= step_s
    x[:ex.n_f] -= ex.w_ff @ (e_f @ w) - ex.z @ step_s
    return x


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
