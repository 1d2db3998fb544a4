"""Thermal velocity averaging and the (detuning x velocity) sweep.

Each row is one velocity average of the steady state at one signal
detuning over the velocity nodes the sweep solves.  Those nodes are
picked once per sweep (_solved_nodes): the lightest nodes, as long as
together they weigh at most eps/2 of the grid (eps the float64 machine
epsilon), are left out, and nodes of equal weight are left out together
or not at all, so a symmetric grid stays symmetric.  Every steady state
has unit trace, so |rho_ij| <= 1 and leaving them out moves each entry of
the averaged rho by at most eps/2, the rounding of one O(1) addition; the
rows are linear in that average.  A left-out node is neither solved nor
checked, so it cannot raise SolverError.  GH200 solves 74 of its 200
nodes, GH40 32 and GH370 102; Gauss-Hermite grids of at most 24 nodes,
uniform grids and the delta grid lose none.

A sweep picks its order once, from its whole spec (_node_major), so a
resumed sweep takes the order of its uninterrupted run.  Detuning-major,
the velocity is the pole variable: one eigendecomposition per detuning
serves all its nodes (liouville._velocity_average).  Node-major, the
detuning is: one eigendecomposition per node serves a block of
NODE_MAJOR_BLOCK detunings, and the nodes are solved a block of nodes
per stacked call (liouville._node_average).  One detuning is
always detuning-major, so one-detuning requests keep their rows bit for
bit.  A row inside a node-major sweep comes from other products than the
same detuning swept alone and differs from it in the last bits: by at
most 1.5e-13 of the largest row entry on the four sweep presets' own
grids in both geometries (fig7-reduced15 co-propagating) and 2e-14 on
their delta grids.

This module owns what sweeps reuse: _generator builds the generator at
rest and its elimination together, before any row runs, and keeps the
last pair, so a sweep whose generator inputs and Doppler rates equal the
last sweep's builds neither again and a stream of one-detuning requests
at one operating point pays for one eigendecomposition each.  Work runs
in this thread or on a pool of threads, which only read that pair: over
detunings detuning-major and over blocks of nodes node-major, whose
weighted cells are summed in node order, so a row does not depend on the
worker count, the node blocks or on whether the pair was kept.  Within
an order a row does not depend
on the detunings beside it: a detuning-major row is solved alone, and
node-major blocks start at multiples of NODE_MAJOR_BLOCK.  A checkpoint
holds the finished rows, so a resumed sweep computes only the others; a
node-major one solves the block holding its first unfinished row again.
"""

from __future__ import annotations

import math
import os
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .atomic import LevelScheme, TransitionTable
from .errors import ConfigError, ModelError, SolverError
from .liouville import (DecayNetwork, FieldSpec, _build_expansion,
                        _node_average, _velocity_average, build_hamiltonian,
                        vectorize)
from .names import CO, COUNTER
from .polarimetry import MediumParams, OpticalResponse, response_from_density

KB = 1.380649e-23          # J/K
AMU = 1.66053906660e-27    # kg

# Most nodes numpy's hermgauss builds with finite weights; from 371 nodes its
# weights overflow.
MAX_GAUSS_HERMITE_NODES = 370

CSV_HEADER = "delta_s,phi_plus,phi_minus,alpha_plus,alpha_minus,phi_d_deg,alpha_d"
CSV_MAGIC = "# vaporplate sweep CSV v1"
# in the fingerprint, so a checkpoint of another format is never resumed;
# v6 rows may come from node-major solves
CHECKPOINT_FORMAT = "vaporplate sweep checkpoint v6: finished rows"

# Detunings a node-major sweep solves per eigendecomposition of each node:
# fig7-full's own count, whose products stay below 0.5 MB a block.
NODE_MAJOR_BLOCK = 512
# The work around one eigendecomposition of size n, which costs n^3, in
# the same units (_node_major): fitted, with one BLAS thread, to where
# node-major became the faster order on fig7-full (pole sizes 68 and 36):
# between 20 and 22 detunings on GH200 (74 solved nodes) and at 8 on GH32
# (28 nodes), once node-major solved its nodes in blocks.
POLE_OVERHEAD = 60_000


def thermal_rms_velocity(temperature: float, mass_amu: float) -> float:
    """1-D RMS velocity (m/s) of the Maxwell distribution."""
    if not (0 < temperature < math.inf and 0 < mass_amu < math.inf):
        raise ModelError(f"temperature ({temperature!r} K) and mass "
                         f"({mass_amu!r} amu) must be finite and positive")
    return math.sqrt(KB * temperature / (mass_amu * AMU))


@dataclass(frozen=True)
class VelocityGrid:
    """Quadrature points and weights over the 1-D thermal distribution."""

    velocities: tuple[float, ...]
    weights: tuple[float, ...]
    temperature: float
    mass_amu: float
    span: float
    kind: str

    def __post_init__(self):
        if len(self.velocities) != len(self.weights):
            raise ModelError("velocity grid arrays differ in length")
        if not np.all(np.isfinite(self.velocities + self.weights)):
            raise ModelError(f"{self.kind} velocity grid has non-finite "
                             "nodes or weights")
        if any(w < 0 for w in self.weights):
            raise ModelError(f"{self.kind} velocity grid has negative weights")
        if not abs(sum(self.weights) - 1.0) <= 1e-6:
            raise ModelError("velocity weights must sum to 1")

    @classmethod
    def gauss_hermite(cls, n: int, temperature: float = 403.0,
                      mass_amu: float = 86.909) -> "VelocityGrid":
        _check_nodes(n)
        if n > MAX_GAUSS_HERMITE_NODES:
            raise ModelError(
                f"a gauss_hermite velocity grid has at most "
                f"{MAX_GAUSS_HERMITE_NODES} nodes (numpy's weights overflow "
                f"above that), got {n}")
        x, w = np.polynomial.hermite.hermgauss(n)
        w = w / math.sqrt(math.pi)
        w = w / w.sum()
        vr = thermal_rms_velocity(temperature, mass_amu)
        v = x * math.sqrt(2.0) * vr
        return cls(tuple(v), tuple(w), temperature, mass_amu,
                   span=float(abs(x).max() * math.sqrt(2.0)),
                   kind="gauss_hermite")

    @classmethod
    def uniform(cls, n: int, temperature: float = 403.0,
                mass_amu: float = 86.909, span: float = 4.0) -> "VelocityGrid":
        """n nodes from -span to +span thermal RMS velocities, n >= 2: one
        node would sit at -span alone."""
        if n < 2:
            raise ModelError(f"a uniform velocity grid needs at least 2 "
                             f"velocity points, got {n}")
        vr = thermal_rms_velocity(temperature, mass_amu)
        v = np.linspace(-span * vr, span * vr, n)
        w = np.exp(-0.5 * (v / vr) ** 2)
        return cls(tuple(v), tuple(w / w.sum()), temperature, mass_amu,
                   span=span, kind="uniform")

    @classmethod
    def delta(cls, temperature: float = 403.0, mass_amu: float = 86.909
              ) -> "VelocityGrid":
        """Single stationary atom: no Doppler average.  The fig1-ideal and
        fig8-qwp presets sweep on it."""
        return cls((0.0,), (1.0,), temperature, mass_amu, span=0.0,
                   kind="delta")


def _check_nodes(n: int) -> None:
    if n < 1:
        raise ModelError(f"a velocity grid needs at least one node, got {n}")


def doppler_shifts(v, geometry: str, k_pump: float, k_signal: float):
    """Detuning shifts (pump, signal) for an atom at velocity v, a float or
    an array of velocities.

    Counter-propagating beams shift with opposite signs, co-propagating with
    the same sign; the overall sign convention is fixed here."""
    if geometry == COUNTER:
        return (-k_pump * v, +k_signal * v)
    if geometry == CO:
        return (-k_pump * v, -k_signal * v)
    raise ModelError(f"unknown geometry {geometry!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Everything one Doppler-averaged sweep needs."""

    detunings: np.ndarray
    geometry: str
    grid: VelocityGrid
    scheme: LevelScheme
    transitions: TransitionTable
    network: DecayNetwork
    fields: dict[str, FieldSpec]
    medium: MediumParams

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        if d.ndim != 1:
            raise ModelError(f"detunings must be 1-D, not of shape {d.shape}")
        if d.size == 0:
            raise ModelError("a sweep needs at least one detuning")
        if not np.all(np.isfinite(d)):
            raise ModelError("detunings are not finite")
        # comparing neighbours, not their differences, which overflow
        if not (np.all(d[1:] > d[:-1]) or np.all(d[1:] < d[:-1])):
            raise ModelError("detuning list must be strictly monotone")
        object.__setattr__(self, "detunings", d)
        if self.geometry not in (COUNTER, CO):
            raise ModelError(f"unknown geometry {self.geometry!r}")
        for role in ("pump", "signal"):
            if role not in self.fields:
                raise ModelError(f"a sweep needs a {role} field")


# The last (key, generator, elimination) _generator built.
_last_generator: tuple | None = None


def _generator(spec: SweepSpec) -> tuple:
    """(key, generator, elimination): the spec's Liouvillian for an atom at
    rest, of which every cell of the sweep is a shift of the detunings, its
    F elimination at the spec's Doppler rates (liouville._build_expansion,
    None where the kernel declines), and the key both are kept under.

    The last entry built is kept, so a sweep whose key equals the previous
    sweep's builds neither again.  The key is everything the two read, by
    content: the Hamiltonian at rest byte for byte (which covers the
    fields, the transitions and an in-place edit of the energy offsets),
    the levels and tiers, the decay network and the Doppler rates.  Only
    one entry is kept, so memory stays bounded; a change of signal k or of
    geometry builds the generator again with its elimination."""
    global _last_generator
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    rates = doppler_shifts(1.0, spec.geometry, pump.k, signal.k)
    h = build_hamiltonian(spec.scheme, spec.transitions, spec.fields)
    key = (h.tobytes(), spec.scheme.levels, spec.scheme.tiers, spec.network,
           rates)
    if _last_generator is None or _last_generator[0] != key:
        liou = vectorize(h, spec.scheme, spec.network)
        _last_generator = key, liou, _build_expansion(liou, *rates)
    return _last_generator


def _node_major(detunings: int, nodes: int, s_size: int, n_size: int
                ) -> bool:
    """Whether a sweep of this many detunings and solved nodes takes the
    detuning as its pole variable (node-major: one eigendecomposition of
    the n_size pole matrix per node and block of NODE_MAJOR_BLOCK
    detunings) rather than the velocity (detuning-major: one of the s_size
    pole matrix per detuning), whichever costs less, counting
    POLE_OVERHEAD + size^3 per eigendecomposition.  One detuning is always
    detuning-major."""
    blocks = -(-detunings // NODE_MAJOR_BLOCK)
    return detunings > 1 and blocks * nodes * (POLE_OVERHEAD + n_size ** 3) \
        < detunings * (POLE_OVERHEAD + s_size ** 3)


def _solved_nodes(grid: VelocityGrid) -> tuple[np.ndarray, np.ndarray]:
    """The velocities and weights of the nodes a sweep solves, as float
    arrays: every node heavier than t, the largest weight such that the
    nodes weighing at most t carry at most eps/2 of the grid's total
    weight together.  Equal weights fall on the same side of t.  The
    weights of the others are left as they are, not renormalized."""
    w = np.asarray(grid.weights, dtype=float)
    ascending = np.sort(w)
    # the weight of the nodes at most as heavy as each node, ties included
    at_most = np.cumsum(ascending)[
        np.searchsorted(ascending, ascending, side="right") - 1]
    light = ascending[at_most <= 0.5 * np.finfo(float).eps * w.sum()]
    keep = w > (light[-1] if light.size else -math.inf)
    return np.asarray(grid.velocities, dtype=float)[keep], w[keep]


def _detuning_row(spec: SweepSpec, generator: tuple,
                  nodes: tuple[np.ndarray, np.ndarray], detuning: float
                  ) -> np.ndarray:
    """The Doppler-averaged (phi_plus, phi_minus, alpha_plus, alpha_minus)
    row at one signal detuning, over the (velocities, weights) nodes, from
    the _generator entry, which it only reads."""
    (*_, rates), liou, ex = generator
    return _row(spec, _velocity_average(
        liou, ex, detuning - spec.fields["signal"].detuning, *nodes, rates))


def _node_rows(spec: SweepSpec, generator: tuple,
               nodes: tuple[np.ndarray, np.ndarray], detunings: np.ndarray,
               mapper, workers: int) -> list[np.ndarray]:
    """_detuning_row at each detuning, node-major: one eigendecomposition
    per node serves every detuning, and mapper maps over blocks of nodes,
    at least one block per worker."""
    (*_, rates), liou, ex = generator
    rhos = _node_average(liou, ex, detunings - spec.fields["signal"].detuning,
                         *nodes, rates, mapper, workers)
    return [_row(spec, rho) for rho in rhos]


def _row(spec: SweepSpec, rho: np.ndarray) -> np.ndarray:
    """The response is linear in rho, so the velocity average of rho is
    mapped once."""
    r = response_from_density(rho, spec.scheme, spec.transitions,
                              spec.fields["signal"], spec.medium)
    return np.array(r.as_tuple())


def _fingerprint(spec: SweepSpec, generator_key: tuple) -> str:
    """Digest of everything a sweep's rows depend on: detunings, geometry,
    velocity nodes and weights, fields, medium and the generator at rest,
    and of the checkpoint format.  The nodes and weights enter by their
    bytes, not by the grid's repr, which costs about 1 ms on 200 numpy
    floats.  The generator enters by its _generator key (the Hamiltonian
    at rest, the levels, the tiers and the decay network), which it is
    built from and which is a few kB, not the generator itself (215 kB
    for fig7-full); the key's Doppler rates follow from the geometry and
    the fields, so they are left out.  The medium enters by its repr, so
    its fields are part of the digest: when MediumParams lost omega_min
    (the signal's Rabi frequency, which the fields already hold) every
    digest changed once, and a checkpoint written before is recomputed,
    not resumed."""
    import hashlib      # here, not at the top: it slows CLI start-up
    h_bytes, *structure, _ = generator_key
    grid = spec.grid
    digest = hashlib.sha256(CHECKPOINT_FORMAT.encode())
    digest.update(spec.detunings.tobytes())
    digest.update(np.array([grid.velocities, grid.weights]).tobytes())
    digest.update(repr((spec.geometry, sorted(spec.fields.items()),
                        spec.medium)).encode())
    digest.update(h_bytes)
    digest.update(repr(structure).encode())
    return digest.hexdigest()


def sweep(spec: SweepSpec, workers: int = 1, progress=None,
          checkpoint: str | None = None) -> list[OpticalResponse]:
    """Doppler-averaged responses, one per signal detuning, each averaged
    over the velocity nodes _solved_nodes picks once for the sweep.

    progress(done, total) counts detunings, each reported once its row
    exists: one by one detuning-major, a block at a time node-major.
    workers is an int >= 1 (not a bool), else ModelError.  The pool has at
    most as many worker threads as there are detunings to solve
    (detuning-major) or solved nodes (node-major, which splits the nodes
    into at least one block per worker) and CPUs this process may run on;
    with one, the sweep runs in the calling thread.  Each row is
    computed the same way whatever the worker count, so rows are
    bit-identical across worker counts.  With a checkpoint path the
    finished rows are saved every 16 detunings and at the end, and a
    resumed sweep computes only the others (node-major, the block holding
    the first of them); a checkpoint written for a different spec, or in
    another format, is ignored and the sweep is recomputed.  A checkpoint
    path holding a file numpy cannot read raises ConfigError, and the file
    is left as it is."""
    if isinstance(workers, bool) or not isinstance(workers, int) or \
            workers < 1:
        raise ModelError(f"workers must be an int >= 1, got {workers!r}")
    total = len(spec.detunings)
    generator = _generator(spec)
    fingerprint = _fingerprint(spec, generator[0]) if checkpoint else ""
    rows = np.zeros((total, 4))
    done = 0

    if checkpoint and os.path.exists(checkpoint):
        saved = _load_checkpoint(checkpoint, fingerprint)
        if saved is not None:
            rows, done = saved

    def collect(new_rows):
        nonlocal done
        for row in new_rows:
            rows[done] = row
            done += 1
            if checkpoint and (done % 16 == 0 or done == total):
                _save_checkpoint(checkpoint, fingerprint, rows, done)
            if progress:
                progress(done, total)

    nodes = _solved_nodes(spec.grid)
    ex = generator[2]
    node_major = ex is not None and _node_major(
        total, len(nodes[0]), len(ex.p0), len(ex.moved))
    todo = spec.detunings[done:].tolist()
    workers = min(workers, len(nodes[0]) if node_major and todo
                  else len(todo), _cpu_count())
    with _pool(workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        if not node_major:
            collect(mapper(partial(_detuning_row, spec, generator, nodes),
                           todo))
        elif todo:
            # blocks start at multiples of NODE_MAJOR_BLOCK, so a resumed
            # sweep solves the same blocks as an uninterrupted one
            for lo in range(done - done % NODE_MAJOR_BLOCK, total,
                            NODE_MAJOR_BLOCK):
                block = _node_rows(spec, generator, nodes,
                                   spec.detunings[lo:lo + NODE_MAJOR_BLOCK],
                                   mapper, workers)
                collect(block[done - lo:])

    if not np.all(np.isfinite(rows)):
        raise SolverError("the Doppler-averaged response is not finite")
    return [OpticalResponse(*row) for row in rows.tolist()]


def _pool(workers: int):
    """A pool of `workers` threads of this process.  They share the sweep's
    generator and its elimination, and numpy releases the GIL in the
    LAPACK and BLAS calls and the large array operations a row is made of.
    Imported here, not at the top: only a pooled sweep uses it, and it
    slows CLI start-up."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=workers)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_checkpoint(path: str, fingerprint: str
                     ) -> tuple[np.ndarray, int] | None:
    """The finished rows and their count saved at path for the sweep with
    this fingerprint; None for a checkpoint of another sweep or format: an
    npz archive without a matching fingerprint, rows and done, or a lone
    numpy array."""
    try:
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile) or not \
                    {"fingerprint", "rows", "done"} <= set(data.files) or \
                    str(data["fingerprint"]) != fingerprint:
                return None
            return data["rows"], int(data["done"])
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read sweep checkpoint {path}: {exc}") \
            from exc


def _save_checkpoint(path: str, fingerprint: str, rows: np.ndarray,
                     done: int) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, fingerprint=fingerprint, rows=rows, done=done)
    os.replace(tmp, path)


def write_sweep_csv(path: str, detunings: np.ndarray,
                    responses: list[OpticalResponse]) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_MAGIC + "\n")
        fh.write(CSV_HEADER + "\n")
        for d, r in zip(detunings, responses):
            fh.write("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" % (
                d, r.phi_plus, r.phi_minus, r.alpha_plus, r.alpha_minus,
                math.degrees(r.phi_d), r.alpha_d))


def read_sweep_csv(path: str) -> tuple[np.ndarray, list[OpticalResponse]]:
    """The detunings and responses of a sweep CSV.  A row that is not
    CSV_HEADER's width of finite numbers (nan and inf included) is a
    ModelError naming the file and line, and so are a file without rows
    and one that is not UTF-8 text."""
    width = len(CSV_HEADER.split(","))
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            magic = fh.readline().strip()
            if magic != CSV_MAGIC:
                raise ModelError(f"not a vaporplate sweep CSV: {path}")
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ModelError(f"unexpected sweep CSV columns in {path}")
            for number, line in enumerate(fh, 3):
                if not line.strip():
                    continue
                try:
                    row = [float(tok) for tok in line.split(",")]
                except ValueError as exc:
                    raise ModelError(f"malformed sweep CSV row in {path} "
                                     f"line {number}: {exc}") from exc
                if len(row) != width or not all(map(math.isfinite, row)):
                    raise ModelError(f"sweep CSV {path} line {number}: "
                                     f"expected {width} finite numbers, got "
                                     f"{line.strip()!r}")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    if not rows:
        raise ModelError(f"sweep CSV {path} has no data rows of {width} "
                         "columns")
    rows = np.array(rows)
    detunings = rows[:, 0]
    responses = [OpticalResponse(*row[1:5]) for row in rows]
    return detunings, responses
