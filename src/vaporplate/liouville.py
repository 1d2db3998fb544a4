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
`steady_states` solves a block of velocity nodes, each with its pump shift
and any number of signal detunings, by block elimination (Schur
complements) on the driven coordinates only, those a population reaches
through the generator's couplings; the Zeeman selection rules leave the
rest in coherence-only blocks whose steady state is exactly zero.  It
eliminates the excited block, which no shift moves, once per generator;
the ground block and pump coherences of every node in one stacked solve
per call; then one small system per (node, detuning) cell, in stacks of
CELLS cells.  A node with a cell that fails any of its checks is solved
by `steady_state` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .atomic import LevelScheme, TransitionTable
from .errors import ModelError, SolverError

# Cells (velocity node x signal detuning) per stacked Q solve in
# steady_states, and the cells a sweep's block of velocity nodes holds
# unless one node has more (doppler): bounds the working stacks to about
# CELLS * n_r**2 complex entries (0.9 MB on fig7-full) whatever the
# detuning count.  On fig7-full at one detuning 16 to 32 nodes a block
# were fastest; 64 was 10% slower and had a larger peak memory.
CELLS = 32


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
    and signal detuning, and excited marks the coordinates whose two levels
    share a tier >= 1."""

    m: np.ndarray
    s: np.ndarray
    coords: tuple[tuple[int, int], ...]
    n_levels: int
    rows: np.ndarray
    cols: np.ndarray
    populations: np.ndarray
    d_pump: np.ndarray
    d_signal: np.ndarray
    excited: np.ndarray

    def to_vector(self, rho: np.ndarray) -> np.ndarray:
        return np.asarray(rho)[self.rows, self.cols].astype(complex)

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        rho = np.zeros((self.n_levels, self.n_levels), dtype=complex)
        rho[self.rows, self.cols] = x
        return rho

    @cached_property
    def _elimination(self) -> "_Elimination | None":
        """The part of steady_states shared by every pump and signal shift,
        worked out once per generator: the driven coordinates (_driven)
        ordered E, R, Q (see steady_states), the trace row imposed, and E
        eliminated.  On fig7-full E, R and Q hold 38, 42 and 36 of the 116
        driven coordinates; the other 142 of the 258 are left out.

        None, and every cell goes to steady_state, if A_EE is singular (an
        excited tier that does not decay) or if the driven block at rest
        has no unique steady state: the dense LU finds the exact zero pivot
        of such a generator, but after E is eliminated rounding hides it
        and the blocks solve to one of the many steady states."""
        driven = _driven(self)
        a, saved_row, b = _trace_imposed(self, 0.0, 0.0)
        try:
            np.linalg.solve(a[np.ix_(driven, driven)], b[driven])
        except np.linalg.LinAlgError:
            return None

        moving, excited = self.d_signal != 0, self.excited
        e, r, q = (np.flatnonzero(driven & part) for part in
                   (excited, ~excited & ~moving, moving))
        order = np.concatenate([e, r, q])
        a, b, saved_row = a[np.ix_(order, order)], b[order], saved_row[order]
        n_e, n_r = len(e), len(r)
        # [Z | y0] = A_EE^-1 [A_E,rest | b_E]
        try:
            zy = np.linalg.solve(a[:n_e, :n_e],
                                 np.column_stack([a[:n_e, n_e:], b[:n_e]]))
        except np.linalg.LinAlgError:
            return None
        # [S0 | c] = [A_rest,rest | b_rest] - A_rest,E [Z | y0]
        sc = np.column_stack([a[n_e:, n_e:], b[n_e:]]) - a[n_e:, :n_e] @ zy
        # where each coordinate of rho sits in E, R, Q order; the driven
        # set holds each coordinate's transpose (_driven)
        position = np.full((self.n_levels, self.n_levels), -1)
        position[self.rows[order], self.cols[order]] = np.arange(len(order))
        return _Elimination(
            a=a, saved_row=saved_row,
            trace_row=int(np.flatnonzero(order == self.populations[-1])[0]),
            z=zy[:, :-1], y0=zy[:, -1:],
            s_rr=sc[:n_r, :n_r].copy(), rq_c=sc[:n_r, n_r:].copy(),
            s_qr=sc[n_r:, :n_r].copy(), qq_c=sc[n_r:, n_r:].copy(),
            d_pump=self.d_pump[order], d_moving=self.d_signal[q],
            rows=self.rows[order], cols=self.cols[order],
            partner=position[self.cols[order], self.rows[order]])


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


class _Elimination(NamedTuple):
    """A generator in E, R, Q order with E eliminated (see
    Liouvillian._elimination); every block is independent of the shifts
    except for their diagonals."""

    a: np.ndarray           # generator, trace row imposed
    saved_row: np.ndarray   # the generator's own trace row
    trace_row: int
    z: np.ndarray           # A_EE^-1 A_E,rest
    y0: np.ndarray          # A_EE^-1 b_E, a column
    s_rr: np.ndarray        # the complement S0 in blocks; rq_c is
    rq_c: np.ndarray        # [S0_RQ | c_R] and qq_c is [S0_QQ | c_Q]
    s_qr: np.ndarray
    qq_c: np.ndarray
    d_pump: np.ndarray
    d_moving: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    partner: np.ndarray     # position of each coordinate's transpose


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
    tiers = np.asarray(scheme.tiers)
    liou = Liouvillian(
        m=m, s=np.zeros(len(rows), dtype=complex),
        coords=tuple(zip(rows.tolist(), cols.tolist())), n_levels=n,
        rows=rows, cols=cols, populations=np.flatnonzero(rows == cols),
        d_pump=1j * (pump_levels[rows] - pump_levels[cols]),
        d_signal=1j * (signal_levels[rows] - signal_levels[cols]),
        excited=(tiers[rows] == tiers[cols]) & (tiers[rows] >= 1))
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


def steady_states(liou: Liouvillian, pump_shifts,
                  signal_shifts) -> np.ndarray:
    """Steady states over a block of velocity nodes: node b has pump shift
    pump_shifts[b] and signal shifts signal_shifts[b], and the result is a
    (nodes, k, n, n) stack whose cell [b, j] equals steady_state(liou,
    pump_shifts[b], signal_shifts[b, j]) to rounding.  A scalar pump shift
    with a (k,) list of signal shifts is the one-node block, returned as a
    (k, n, n) stack.

    Only the driven coordinates are solved for (_driven): the others are
    damped coherences that no driven coordinate couples to, so their part
    of every cell is zero and is left zero in the stack.  The driven
    coordinates fall in three classes.  E holds the populations and
    same-tier coherences of levels of tier >= 1: they decay at the excited
    rates and no shift moves them.  R holds the other coordinates the
    signal detuning leaves fixed (the ground tier and the pump
    coherences); the pump shift moves some of them.  Q holds those with
    d_signal != 0.  On fig7-full E, R and Q hold 38, 42 and 36 of the 258
    coordinates.  With the trace row imposed, E is eliminated once per
    generator (Liouvillian._elimination): [Z | y0] = A_EE^-1 [A_E,rest |
    b_E] and the complement [S0 | c] = [A_rest,rest | b_rest] - A_rest,E
    [Z | y0].  Per call, each node's pump shift is added to the diagonal of
    S0 and R is eliminated against [S_RQ | c_R] in one stacked solve over
    the nodes; the Q complement is solved at every (node, signal shift)
    cell in stacked solves of up to CELLS cells; R and then E follow by
    back-substitution.  Every product keeps one node per matrix, so a
    node's cells do not depend on the block around it.  The ground tier is
    not eliminated once with E, although no shift moves it either: it
    relaxes only at gamma_g, so its block is nearly singular, and
    eliminating it first put fig7-full rows up to 20 times outside a 1e-9
    relative agreement with the dense solve (E alone: within 0.3).

    Every cell is checked against steady_state's residual bound and the
    density bounds of _validate_density.  A node with a cell that fails a
    check has all its cells solved by steady_state instead, and so has
    every node if an elimination is singular; steady_state raises
    SolverError where the generator has no valid steady state.
    """
    pump = np.atleast_1d(np.asarray(pump_shifts, dtype=float))
    shifts = np.asarray(signal_shifts, dtype=float)
    shifts = shifts.reshape(len(pump), shifts.shape[-1])
    rho, ok = None, np.zeros(shifts.shape, dtype=bool)
    if liou._elimination is not None:
        try:
            rho, ok = _eliminated_states(liou, pump, shifts)
        except np.linalg.LinAlgError:
            pass
    if rho is None:
        rho = np.empty((*shifts.shape, liou.n_levels, liou.n_levels),
                       dtype=complex)
    for b in np.flatnonzero(~ok.all(axis=1)):
        for j, shift in enumerate(shifts[b]):
            rho[b, j] = steady_state(liou, pump[b], shift)
    return rho if np.ndim(pump_shifts) else rho[0]


def _eliminated_states(liou: Liouvillian, pump_shifts: np.ndarray,
                       shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """steady_states by elimination, and per cell whether it passed the
    checks."""
    el = liou._elimination
    n = len(el.a)
    n_e, n_r, n_q = len(el.z), len(el.s_rr), len(el.d_moving)
    n_f = n_e + n_r          # Q starts here
    nodes, k = shifts.shape
    pump = el.d_pump * pump_shifts[:, None]
    r_diag = np.arange(n_r)
    q_diag = np.arange(n_q)

    # per node: [Z2 | y2] = S_RR^-1 [S_RQ | c_R]
    #           [Sq | cq] = [S_QQ | c_Q] - S_QR [Z2 | y2]
    # Every right-hand side is 3-D, a stack of matrices under both numpy
    # 1.x and 2.x broadcasting rules.
    s_rr = np.repeat(el.s_rr[None], nodes, axis=0)
    s_rr[:, r_diag, r_diag] += pump[:, n_e:n_f]
    zy = np.linalg.solve(s_rr, np.broadcast_to(el.rq_c, (nodes,
                                                         *el.rq_c.shape)))
    del s_rr
    sc = el.s_qr @ zy
    np.subtract(el.qq_c, sc, out=sc)
    sc[:, q_diag, q_diag] += pump[:, n_f:]
    c, sc = sc[:, :, n_q], sc[:, :, :n_q]

    # stacked solves over the cells, CELLS at a time: each node's Sq with
    # the cell's signal shift on its diagonal
    node = np.repeat(np.arange(nodes), k)
    flat = shifts.ravel()
    xq = np.empty((nodes * k, n_q), dtype=complex)
    for lo in range(0, len(flat), CELLS):
        part = slice(lo, lo + CELLS)
        stack = sc[node[part]]
        stack[:, q_diag, q_diag] += np.multiply.outer(flat[part], el.d_moving)
        xq[part] = np.linalg.solve(stack, c[node[part], :, None])[..., 0]
    x = np.empty((nodes, n, k), dtype=complex)
    x[:, n_f:] = xq.reshape(nodes, k, n_q).transpose(0, 2, 1)
    x[:, n_e:n_f] = zy[:, :, n_q:] - zy[:, :, :n_q] @ x[:, n_f:]
    x[:, :n_e] = el.y0 - el.z @ x[:, n_e:]

    # residual against the true generator: the trace row is the saved one,
    # the pump shift moves the diagonal and the signal shift that of Q
    r = el.a @ x
    r += pump[:, :, None] * x
    r[:, n_f:] += el.d_moving[:, None] * shifts[:, None, :] * x[:, n_f:]
    r[:, el.trace_row] = el.saved_row @ x
    resid = np.abs(r).max(axis=1)
    ok = resid <= 1e-9
    if not ok.all():
        # steady_state's bound 1e-9 * max|A| over each cell's own matrix,
        # which differs from el.a only on the diagonal
        a_diag = np.diagonal(el.a)
        off = np.abs(el.a)
        off[np.arange(n), np.arange(n)] = 0.0
        node_max = np.maximum(np.max(off), np.max(np.abs(a_diag[:n_f] +
                                                         pump[:, :n_f]),
                                                  axis=1))
        cell_diag = a_diag[n_f:] + pump[:, None, n_f:] + \
            np.multiply.outer(shifts, el.d_moving)
        cell_max = np.maximum(node_max[:, None],
                              np.max(np.abs(cell_diag), axis=2, initial=0.0))
        ok |= resid <= 1e-9 * cell_max

    # rho - rho^H vanishes off the driven coordinates
    herm = np.abs(x - x[:, el.partner].conj()).max(axis=1)
    rho = np.zeros((nodes, k, liou.n_levels, liou.n_levels), dtype=complex)
    rho[:, :, el.rows, el.cols] = x.transpose(0, 2, 1)
    pops = np.diagonal(rho, axis1=-2, axis2=-1).real
    ok &= herm <= 1e-10
    ok &= np.abs(pops.sum(axis=-1) - 1.0) <= 1e-8
    ok &= pops.min(axis=-1) >= -1e-8
    return rho, ok


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
