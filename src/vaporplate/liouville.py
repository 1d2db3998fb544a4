"""Rotating-frame Hamiltonian assembly, Liouville-equation vectorization,
and steady-state / time-domain solvers.

The density matrix is vectorized over an index set that keeps every
population slot and, of the coherences between non-lumped levels, those
a population reaches through the generator's couplings.  Both reductions
are exact: coherences involving lumped reservoirs are never driven, and
the Zeeman selection rules leave the other coherences left out in
strictly damped blocks whose steady state is zero (116 of fig7-full's 258
coordinates are kept).  The generator is homogeneous (d vec/dt = M vec,
s = 0); the trace is imposed at solve time.  This module is the only one
that knows the coordinate layout: `vectorize` records the index arrays
and how each diagonal entry of M moves with extra pump and signal
detuning.  `vectorize` builds -i[H, .] on the non-lumped coordinates
directly, then restricts it to those a population reaches.
`steady_state` is the dense per-cell solve and the oracle;
`steady_states` averages steady states over a grid of velocity nodes at
one signal detuning, in real form: populations and the real and
imaginary parts of each coherence, so its densities are Hermitian by
construction.  Velocity enters only as v * D_v: the coordinates D_v
leaves fixed (F) are eliminated once per generator and Doppler rates, and
the rest (S) solve as a system shifted in both the velocity and the
signal detuning.  One eigendecomposition serves every value of its pole
variable: every node at one detuning (`_velocity_average`,
detuning-major) or, with the coordinates of S no signal shift moves
eliminated at the node, every detuning at one node (`_node_average`,
node-major, which solves a block of nodes per stacked LAPACK call and
broadcast product, one node per matrix).  Both orders share the
real-basis pole algebra (`_poles`) and the per-cell checks and
refinement residual (`_checked`), which take a node's matrices alone or
stacked.  This module keeps nothing between calls, and a Liouvillian
does not change after `vectorize` returns it: `steady_states` builds its
elimination on every call, and doppler.sweep, which keeps a generator
and its elimination across sweeps, hands the elimination to either
order.  Each cell is solved and checked once and refined once: the F
part of the refinement step, which is linear, is applied to the weighted
sum of the nodes in both orders, and its S part to that sum
detuning-major and to each cell node-major.  A cell that fails is solved
by `steady_state` alone, and every cell is when the generator has no
unique steady state at rest or F cannot be eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    coordinate set (vectorize): every population and the coherences a
    population reaches; every other entry of rho is zero in every steady
    state.

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


class _Expansion(NamedTuple):
    """A generator's coordinates in real form, F before S, with F
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
    t: np.ndarray           # real coordinates -> the generator's complex ones
    # node-major (_node_states): S split into Z, where ratio is zero (the
    # coherences no signal shift moves), and N, the others, as indices into
    # S, with P = p0 in blocks
    fixed: np.ndarray       # Z
    moved: np.ndarray       # N
    p_zz: np.ndarray
    zn_rhs: np.ndarray      # [P_ZN | 1]
    p_nz: np.ndarray
    p_nn: np.ndarray
    r_inv: np.ndarray       # R_N^-1, a column


def vectorize(h: np.ndarray, scheme: LevelScheme,
              network: DecayNetwork) -> Liouvillian:
    """Vectorize -i[H, rho] plus the decay network into a linear system.

    Builds M on every population and the coherences between non-lumped
    levels, in row-major order, then keeps the coordinates a population
    reaches through nonzero entries of M, in either direction, or every
    one if one outside that set is not strictly damped.  The others are
    coherences in blocks that no kept row or column touches.  On such a
    block M is the anti-Hermitian -i[H, .] part plus the real diagonal
    -(Gamma_i + Gamma_j)/2, and every shift adds an imaginary diagonal
    entry, so with that diagonal strictly negative the block is
    nonsingular at every cell.  Its right-hand side is zero (the trace row
    is a population's), and so is its part of every steady state.  The
    kept set holds (j, i) with each (i, j): in either direction, -i[H, .]
    links (i, j) with (i', j) where h[i, i'] or h[i', i] is nonzero, and
    (j, i) with (j, i') under the same condition, and the decay network
    links populations only.  s = 0 and the trace is imposed when solving.
    """
    n = scheme.n_levels
    if h.shape != (n, n):
        raise ModelError("Hamiltonian size does not match the scheme")
    if not np.max(np.abs(h - h.conj().T)) <= \
            1e-12 * max(1.0, np.max(np.abs(h))):
        raise ModelError("Hamiltonian must be Hermitian")

    lumped = np.array([lev.lumped for lev in scheme.levels])
    keep = np.eye(n, dtype=bool) | ~(lumped[:, None] | lumped[None, :])
    # an off-diagonal entry of H in a lumped level's row or column links an
    # excluded coherence to a retained coordinate
    if np.any(h[~keep]):
        raise ModelError("excluded lumped coherences feed retained "
                         "coordinates; lumped levels must stay uncoupled")

    # -i[H, .]: entry [a, b] is -i (h[r_a, r_b] [c_a == c_b] - [r_a == r_b]
    # h[c_b, c_a]), the same products, in the same order, as
    # -i (H (x) 1 - 1 (x) H^T) in row-major vectorization
    rows, cols = np.nonzero(keep)
    r, c = rows[:, None], cols[:, None]
    m = -1j * (h[r, rows] * (c == cols) - (r == rows) * h[cols, c])
    loss = network.loss_rates()
    diag = np.arange(len(rows))
    m[diag, diag] -= 0.5 * (loss[rows] + loss[cols])
    slot = np.full((n, n), -1)
    slot[rows, cols] = diag
    for src, chans in network.channels:
        for tgt, rate in chans:
            m[slot[tgt, tgt], slot[src, src]] += rate
    # restricted here rather than built on the kept coordinates: freeing
    # the full-size M (1 MB on fig7-full) raises glibc's mmap and trim
    # thresholds to 1 and 2 MB, above the velocity kernel's temporaries
    # (at most 69 kB on GH200, 186 kB on a 200-node uniform grid), which
    # are then reused, not faulted in afresh on every call
    # (tests/test_cli.py counts the page faults)
    link = m != 0
    link |= link.T
    kept = rows == cols
    while True:
        grown = kept | np.any(link[:, kept], axis=1)
        if np.array_equal(grown, kept):
            break
        kept = grown
    if np.all(np.diagonal(m).real[~kept] < 0):
        m, rows, cols = m[np.ix_(kept, kept)], rows[kept], cols[kept]

    pump_levels, signal_levels = _detuned_levels(scheme)
    liou = Liouvillian(
        m=m, s=np.zeros(len(rows), dtype=complex),
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


def _trace_imposed(liou: Liouvillian, pump_shift: float,
                   signal_shift: float):
    """The shifted generator with its last population row replaced by the
    trace constraint, that row as it was, and the right-hand side.

    A population whose row and column of M are zero, beside another
    population, is a second null direction, which the trace row does not
    remove and an LU need not find: SolverError names its slot."""
    pop = liou.populations
    isolated = ~(np.any(liou.m[pop], axis=1) | np.any(liou.m[:, pop], axis=0))
    if len(pop) > 1 and np.any(isolated):
        raise SolverError(
            f"non-unique steady state: the population of slot "
            f"{liou.rows[pop[isolated][0]]} has no decay channel in or out "
            f"and no coupling")
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


def steady_states(liou: Liouvillian, signal_shift: float, velocities,
                  weights, doppler) -> np.ndarray:
    """The velocity-averaged steady state at one signal shift: the (n, n)
    sum over nodes b of weights[b] * steady_state(liou, doppler[0] * v_b,
    signal_shift + doppler[1] * v_b), v_b = velocities[b], to rounding;
    doppler is the (pump, signal) detuning shift per unit velocity.

    The kernel works in real form (_build_expansion): populations and the
    real and imaginary parts of each coherence (i, j), i < j, so every
    density it returns is Hermitian by construction; the entries of rho
    the generator leaves out (vectorize) are zero.  Velocity enters the
    generator only as v * D_v.  F, the coordinates D_v leaves fixed, is
    eliminated with the trace row imposed (_build_expansion: about 1.6 ms
    on fig7-full, which this call pays; a sweep builds it once for all its
    rows and _velocity_average takes it), leaving (S0 + shift *
    D_signal + v * Delta) x_S = c on the others, S, where Delta is D_v on
    S and invertible.  One eigendecomposition Delta^-1 (S0 + shift *
    D_signal) = W B W^-1, in LAPACK's real eigenvector columns W (B block
    diagonal), gives every node at once, x_S(v) = W (B + v)^-1 W^-1
    Delta^-1 c, and x_F = y - Z x_S (_expanded_states).  On fig7-full
    (counter-propagating) F and S hold 48 and 68 of the 116 real
    coordinates.  This is the detuning-major order; a sweep of many
    detunings may take the node-major one instead (_node_average), whose
    rows agree with these to rounding.

    Each node is solved once, and its product A x, formed once, gives both
    its checks and the refinement's residual.  A node passes if its
    residual on the true generator is at most 1e-9, which is never looser
    than steady_state's bound, and it meets steady_state's trace and
    minimum-population bounds.  One refinement step through the same
    expansion is applied to the weighted sum over the nodes that passed,
    which _expanded_states returns: the step is linear in the residual, so
    this equals refining every node and summing.  A node that fails a
    check is solved by steady_state alone, under its own bounds, and so is
    every node if the eigendecomposition fails, the generator has no
    unique steady state at rest, A_FF is singular, or the signal shift
    moves a coordinate of F (a coherence no velocity moves, as the
    two-photon coherences are for counter-propagating beams with k_pump ==
    k_signal); steady_state raises SolverError, naming the node, where the
    generator has no valid steady state.  The refined sum is mapped back
    to complex coordinates once.
    """
    return _velocity_average(liou, _build_expansion(liou, *doppler),
                             signal_shift, np.asarray(velocities, dtype=float),
                             np.asarray(weights, dtype=float), doppler)


def _velocity_average(liou, ex, signal_shift, v, w, doppler) -> np.ndarray:
    """steady_states over the float arrays v and w with its elimination
    given: ex is _build_expansion(liou, *doppler), which the caller builds
    once for every signal shift and set of nodes at these Doppler rates
    and which is only read here."""
    out = np.zeros((liou.n_levels, liou.n_levels), dtype=complex)
    ok = np.zeros(len(v), dtype=bool)
    if ex is not None:
        try:
            x, ok = _expanded_states(ex, signal_shift, v, w)
        except np.linalg.LinAlgError:
            pass
        else:
            out[liou.rows, liou.cols] = ex.t @ x
    for b in np.flatnonzero(~ok):
        out += w[b] * _dense_cell(liou, signal_shift, v[b], doppler)
    return out


def _dense_cell(liou, signal_shift, v, doppler) -> np.ndarray:
    """steady_state at one cell; its SolverError names the node."""
    try:
        return steady_state(liou, doppler[0] * v,
                            signal_shift + doppler[1] * v)
    except SolverError as exc:
        raise SolverError(f"{exc} at v={v:g}") from exc


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

    None, and every cell goes to steady_state, if the generator at rest
    has no unique steady state (the dense LU finds the exact zero pivot of
    such a generator, which an elimination hides), if A_FF is singular, or
    if a coordinate of F has d_signal != 0.  Floating-point errors are not
    reported: an overflowed elimination makes _expanded_states raise
    LinAlgError or fail its node checks, and the cells go to steady_state."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, saved_row, b = _trace_imposed(liou, 0.0, 0.0)
        try:
            np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return None

        # one real coordinate per population and two per coherence (i, j),
        # i < j, at positions p (of (i, j)) and q (of (j, i)); the generator
        # holds each coordinate's transpose (vectorize)
        rows, cols = liou.rows, liou.cols
        position = np.full((liou.n_levels, liou.n_levels), -1)
        position[rows, cols] = np.arange(len(rows))
        upper = np.flatnonzero(rows <= cols)
        count = np.where(rows[upper] == cols[upper], 1, 2)
        p = np.repeat(upper, count)
        q = np.repeat(position[cols[upper], rows[upper]], count)
        im = np.zeros(len(p), dtype=bool)
        im[np.cumsum(count)[count == 2] - 1] = True
        theta_v = (rate_p * liou.d_pump.imag + rate_s * liou.d_signal.imag)[p]
        theta_s = liou.d_signal.imag[p]
        # F before S; the two parts of a coherence stay adjacent
        order = np.argsort(theta_v != 0, kind="stable")
        p, q, im, theta_v, theta_s = (arr[order] for arr in
                                      (p, q, im, theta_v, theta_s))
        n_f = int(np.count_nonzero(theta_v == 0))
        if np.any(theta_s[:n_f]):
            return None
        pop = p == q
        # T maps real coordinates to complex ones: rho_ij = x_Re + i x_Im and
        # rho_ji = x_Re - i x_Im; T^H T is diagonal, 1 on a population and 2
        # on each part of a coherence, so T^-1 = diag(T^H T)^-1 T^H.  ar is a
        # real view of a complex array: a contiguous copy takes other BLAS
        # paths and moves rows in the last bits
        index = np.arange(len(p))
        t = np.zeros((len(rows), len(p)), dtype=complex)
        t[p, index] = np.where(im, 1j, 1.0)
        t[q, index] = np.where(im, -1j, 1.0)
        ar = (t.conj().T @ a @ t / np.where(pop, 1.0, 2.0)[:, None]).real
        trace_row = int(np.flatnonzero(p == liou.populations[-1])[0])
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

        partner = index + np.where(im, -1, np.where(pop, 0, 1))
        sign = np.where(im, 1.0, -1.0)
        coef_v, coef_s = sign * theta_v, sign * theta_s
        # (Delta^-1 m)[s] = m[partner[s]] / coef_v[partner[s]] on S
        swap = partner[n_f:] - n_f
        delta = coef_v[n_f:][swap, None]
        p0 = (ar[n_f:, n_f:] - a_sf @ z)[swap] / delta
        ar[trace_row] = (saved_row @ t).real
        ratio = theta_s[n_f:] / theta_v[n_f:]
        fixed, moved = np.flatnonzero(ratio == 0), np.flatnonzero(ratio)
        return _Expansion(
            a=ar, trace_row=trace_row, n_f=n_f, w_ff=w_ff, z=z, y=y,
            y_sf=a_sf @ w_ff, p0=p0, ratio=np.diag(ratio), swap=swap,
            delta=delta, dc=(b_r[n_f:, None] - a_sf @ y)[swap] / delta,
            partner=partner, paired=(~pop).astype(float)[:, None],
            coef_v=coef_v, coef_s=coef_s,
            populations=np.flatnonzero(pop), t=t, fixed=fixed, moved=moved,
            p_zz=p0[np.ix_(fixed, fixed)],
            zn_rhs=np.column_stack([p0[np.ix_(fixed, moved)],
                                    np.eye(len(fixed))]),
            p_nz=p0[np.ix_(moved, fixed)], p_nn=p0[np.ix_(moved, moved)],
            r_inv=1.0 / ratio[moved, None])


def _poles(k: np.ndarray, p):
    """(W, W^-1, solve_b) for the pole variable p, a row of values: K = W
    B W^-1, and solve_b(g) = (B + p)^-1 g, one column per value of p.  K
    may carry leading stack axes, one matrix per node; W, W^-1 and solve_b
    then carry them too, and each matrix is decomposed on its own.

    W is LAPACK's real eigenvector columns: a conjugate pair of eigenvalues
    a +- ib, b > 0, gives the columns Re and Im of the first one's
    eigenvector, so K W = W B with B block diagonal, the 2x2 block [[a, b],
    [-b, a]] per pair and a per real eigenvalue.  Column i's partner column
    pair[i] (i itself for a real eigenvalue) and beta[i], the imaginary
    part of eigenvalue i, give B u = a u + beta u[pair], and (B + p)^-1 g =
    (alpha g - beta g[pair]) / (alpha^2 + beta^2), alpha = a + p: on a
    pair, g[j] + i g[j+1] over the pole conj(lambda_j) + p.  Every array
    is real.  A value of p on a real pole, or a non-finite one, gives a
    non-finite column; a non-finite K raises LinAlgError."""
    # real arrays when every eigenvalue is real, complex ones otherwise
    lam, vec = np.linalg.eig(k)
    beta = lam.imag
    basis = np.where(beta[..., None, :] < 0, -vec.imag, vec.real)
    pair = np.arange(lam.shape[-1]) + np.sign(beta).astype(int)
    # g[pair] within each matrix of the stack
    pair = (*np.indices(pair.shape, sparse=True)[:-1], pair)
    alpha = lam.real[..., None] + p
    scale = 1.0 / (alpha * alpha + (beta * beta)[..., None])
    re, im = alpha * scale, beta[..., None] * scale

    def solve_b(g):
        return re * g - im * g[pair]
    return basis, np.linalg.inv(basis), solve_b


def _checked(ex: _Expansion, x: np.ndarray, shift, v):
    """(ok, e_F, r_S) for the cells x, one per column, at signal shift
    `shift` and velocity `v`, each a number or an array that broadcasts
    against the columns; x may carry leading stack axes (one node each),
    and so do the results.

    A x on the true generator, formed once per cell, gives both the checks
    and the refinement's residual: with the trace row imposed, where A x -
    b is the trace's error, it is e = A x - b.  ok says which cells passed:
    a residual at most 1e-9, never looser than steady_state's bound, and
    steady_state's trace and minimum-population bounds.  e_F is e on F,
    and r_S = Delta^-1 (e_S - A_SF A_FF^-1 e_F) the right-hand side of the
    refinement's S system, whose solution dx_S gives dx_F = A_FF^-1 e_F -
    Z dx_S."""
    n_f = ex.n_f
    ax = ex.a @ x
    ax[..., n_f:, :] += (ex.coef_s[n_f:, None] * shift
                         + ex.coef_v[n_f:, None] * v) \
        * x[..., ex.partner[n_f:], :]
    # |r_Re + i r_Im| is the complex residual of rho_ij
    sq = ax * ax
    resid_sq = np.max(sq + ex.paired * sq[..., ex.partner, :], axis=-2)
    pops = x[..., ex.populations, :]
    trace = pops.sum(axis=-2) - 1.0
    ax[..., ex.trace_row, :] = trace
    ok = (resid_sq <= 1e-18) & (np.abs(trace) <= 1e-8) & \
        (pops.min(axis=-2) >= -1e-8)
    e_f = ax[..., :n_f, :]
    return ok, e_f, \
        (ax[..., n_f:, :] - ex.y_sf @ e_f)[..., ex.swap, :] / ex.delta


def _expanded_states(ex: _Expansion, shift: float, v: np.ndarray,
                     w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, ok) for one signal shift: ok says which velocity nodes v passed
    the checks, and x is the weighted sum (weights w) of those that did, in
    real coordinates, with one refinement step.  Each node is solved
    and checked once (_checked), from one eigendecomposition K = Delta^-1
    (S0 + shift D_signal) with the velocity as the pole variable (_poles).
    A node on a real pole, or a non-finite input, gives a non-finite
    column and fails the checks, and so does a node whose shift or
    velocity overflows; a shift that makes K non-finite raises
    LinAlgError, and steady_states solves every node densely.  So
    floating-point errors are not reported here.

    The refinement step, A dx = b - A x through the elimination, is
    applied to the sum: dx is linear in the residual, so refining the sum
    gives the sum of the refined nodes.  A failed node may hold inf or NaN,
    so the nodes that passed are selected rather than the others given
    weight 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n_f = ex.n_f
        basis, basis_inv, solve_b = _poles(ex.p0 + shift * ex.ratio, v)
        x = np.empty((len(ex.a), len(v)))
        x[n_f:] = basis @ solve_b(basis_inv @ ex.dc)
        x[:n_f] = ex.y - ex.z @ x[n_f:]
        ok, e_f, r_s = _checked(ex, x, shift, v)
        # the refinement's solve per node, short of W and the sum
        u = solve_b(basis_inv @ r_s)
        if not ok.all():        # selecting copies, so only when a node failed
            x, e_f, u, w = x[:, ok], e_f[:, ok], u[:, ok], w[ok]
        # with e = A x - b the step is x -= A^-1 e, on S W (u @ w)
        x = x @ w
        step_s = basis @ (u @ w)
        x[n_f:] -= step_s
        x[:n_f] -= ex.w_ff @ (e_f @ w) - ex.z @ step_s
        return x, ok


def _node_states(ex: _Expansion, shifts: np.ndarray, v: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(u, ok) at a block of velocity nodes v, one matrix per node and one
    column per signal shift.  u holds each cell's solution on S after one
    refinement step and, on F, e_F, the F part of the cell's residual
    (_checked); ok says which cells passed the checks.  x_F after the step
    is y - Z x_S - A_FF^-1 e_F, linear in both, so _node_average forms it
    once on the weighted sum.

    The signal shift enters S only through R, which is zero on Z, so with
    Z eliminated at each node, G(v) = R_N^-1 (P_NN + v - P_NZ (P_ZZ +
    v)^-1 P_ZN), x_N = (G + s)^-1 R_N^-1 (c_N - P_NZ (P_ZZ + v)^-1 c_Z) for
    every shift s from one eigendecomposition of G, with the shift as the
    pole variable (_poles), and x_Z = (P_ZZ + v)^-1 (c_Z - P_ZN x_N).  The
    refinement step solves each cell's residual through the same
    decomposition.  The Z elimination, the eigendecompositions and the
    basis inverses each run as one stacked LAPACK call per block, and each
    product as one broadcast matmul; every product holds one node per
    matrix, so a node's numbers do not depend on its block.  A singular
    P_ZZ + v or a non-finite G at any node of the block raises
    LinAlgError; a cell on a real pole, or one whose shift overflows,
    gives a non-finite column and fails the checks."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n_f, fixed, moved = ex.n_f, ex.fixed, ex.moved
        v = v[:, None, None]
        # a 3-D right-hand side is a stack of matrices under numpy 1.x too
        sol = np.linalg.solve(ex.p_zz + v * np.eye(len(fixed)),
                              ex.zn_rhs[None])
        zn, zz_inv = sol[..., :len(moved)], sol[..., len(moved):]
        basis, basis_inv, solve_b = _poles(
            (ex.p_nn + v * np.eye(len(moved)) - ex.p_nz @ zn) * ex.r_inv,
            shifts)

        def solve_s(rhs):       # (P + s R + v)^-1 rhs per node and shift s
            z0 = zz_inv @ rhs[..., fixed, :]
            out = np.empty((len(v), len(ex.p0), len(shifts)))
            out[:, moved] = basis @ solve_b(basis_inv @ (
                (rhs[..., moved, :] - ex.p_nz @ z0) * ex.r_inv))
            out[:, fixed] = z0 - zn @ out[:, moved]
            return out

        u = np.empty((len(v), len(ex.a), len(shifts)))
        u[:, n_f:] = solve_s(ex.dc)
        u[:, :n_f] = ex.y - ex.z @ u[:, n_f:]
        ok, e_f, r_s = _checked(ex, u, shifts, v)
        u[:, n_f:] -= solve_s(r_s)
        u[:, :n_f] = e_f
        return u, ok


# Cells (nodes x signal shifts) _node_average solves per block of nodes,
# at least one node.  On fig7-full's 48 x GH200 sweep (74 nodes, one BLAS
# thread) blocks of 4 nodes took 24% less CPU time than blocks of one node
# and raised the peak RSS of a 60-sweep loop by 0.9 MB; blocks of 16 nodes
# saved 4% more and raised it by 5.4 MB.
NODE_BLOCK_CELLS = 200


def _node_average(liou: Liouvillian, ex: _Expansion, shifts: np.ndarray,
                  v: np.ndarray, w: np.ndarray, doppler, mapper=map,
                  min_blocks: int = 1) -> np.ndarray:
    """The velocity averages at the signal shifts, node-major: (len(shifts),
    n, n), row j what _velocity_average(liou, ex, shifts[j], v, w,
    doppler) gives to rounding.

    The nodes are split into consecutive blocks of about
    NODE_BLOCK_CELLS cells, and into at least min_blocks blocks (the
    pool's worker count) while there are nodes enough; each block's cells
    are solved from one eigendecomposition per node (_node_states), and
    mapper maps over the blocks (map, or a pool's).  A LinAlgError in a
    block's stacked calls solves that block again one node at a time, so
    only a failing node's cells are lost.  The weighted cells that passed
    are summed in node order, one node at a time, so the sum does not
    depend on the mapper or the block size; the F part of the refinement
    is applied to that sum, which is linear in the cells.  A cell that
    fails, and every cell of a node whose own elimination or
    eigendecomposition raises LinAlgError, is solved by steady_state
    alone."""
    n, k = len(ex.a), len(shifts)

    def solve(vb):
        try:
            return _node_states(ex, shifts, vb)
        except np.linalg.LinAlgError:
            if len(vb) > 1:     # node by node, so only a failing node is lost
                u, ok = zip(*(solve(vb[b:b + 1]) for b in range(len(vb))))
                return np.concatenate(u), np.concatenate(ok)
            return np.zeros((1, n, k)), np.zeros((1, k), dtype=bool)

    def weighted(block):
        u, ok = solve(v[block])
        # each cell that passed, weighted, and below it that weight
        u = np.concatenate([u, np.ones((len(block), 1, k))], axis=1)
        return w[block, None, None] * np.where(ok[:, None], u, 0.0), ok

    count = max(min_blocks, -(-len(v) // max(1, NODE_BLOCK_CELLS // k)))
    total = np.zeros((n + 1, k))
    failed = []
    for cells, ok in mapper(weighted, np.array_split(
            np.arange(len(v)), min(count, len(v)))):
        for node in cells:
            total += node
        failed.extend(~ok)
    # the F rows of the sum hold the weighted e_F and its last row the
    # weight of the cells that passed
    x = total[:n]
    x[:ex.n_f] = ex.y * total[n] - ex.z @ x[ex.n_f:] - ex.w_ff @ x[:ex.n_f]
    out = np.zeros((k, liou.n_levels, liou.n_levels), dtype=complex)
    out[:, liou.rows, liou.cols] = (ex.t @ x).T
    for j, b in zip(*np.nonzero(np.transpose(failed))):
        out[j] += w[b] * _dense_cell(liou, shifts[j], v[b], doppler)
    return out


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
