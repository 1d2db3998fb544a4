"""Thermal velocity averaging and the (detuning x velocity) sweep.

The sweep is detuning-major: each row is one call of
liouville.steady_states at one signal detuning over the velocity nodes the
sweep solves, which eliminates the coordinates no Doppler shift moves once
per generator and geometry and then solves every node from one
eigendecomposition.  Those nodes are picked once per sweep (_solved_nodes):
the lightest nodes, as long as together they weigh at most eps/2 of the
grid (eps the float64 machine epsilon), are left out, and nodes of equal
weight are left out together or not at all, so a symmetric grid stays
symmetric.  Every steady state has unit trace, so |rho_ij| <= 1 and
leaving them out moves each entry of the averaged rho by at most eps/2,
the rounding of one O(1) addition; the rows are linear in that average.  A
left-out node is neither solved nor checked, so it cannot raise
SolverError.  GH200 solves 74 of its 200 nodes, GH40 32 and GH370 102;
Gauss-Hermite grids of at most 24 nodes, uniform grids and the delta grid
lose none.  The generator at rest and those eliminations are kept across
sweeps (_generator): a sweep whose generator inputs equal the last
sweep's builds neither again, so a stream of one-detuning requests at one
operating point pays for one eigendecomposition each.  Rows are
independent, so they are computed in this thread or on a pool of threads
over detunings, which share the generator and its elimination, and a row
does not depend on the worker count, on the detunings beside it or on
whether the generator was kept.  A checkpoint holds the finished rows, so
a resumed sweep computes only the others.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass
from functools import partial

import numpy as np

from .atomic import LevelScheme, TransitionTable
from .errors import ConfigError, ModelError, SolverError
from .liouville import (DecayNetwork, FieldSpec, Liouvillian,
                        build_hamiltonian, steady_states, vectorize)
from .names import CO, COUNTER
from .polarimetry import MediumParams, OpticalResponse, response_from_density

KB = 1.380649e-23          # J/K
AMU = 1.66053906660e-27    # kg

# Most nodes numpy's hermgauss builds with finite weights; from 371 nodes its
# weights overflow.
MAX_GAUSS_HERMITE_NODES = 370

CSV_HEADER = "delta_s,phi_plus,phi_minus,alpha_plus,alpha_minus,phi_d_deg,alpha_d"
CSV_MAGIC = "# vaporplate sweep CSV v1"
# in the fingerprint, so a checkpoint of another format is never resumed
CHECKPOINT_FORMAT = "vaporplate sweep checkpoint v5: finished rows"


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
        _check_nodes(n)
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


# The last generator _generator built and the key it was built for.
_last_generator: tuple[tuple, Liouvillian] | None = None


def _generator(spec: SweepSpec) -> tuple[tuple, Liouvillian]:
    """The spec's Liouvillian for an atom at rest, and the key it is kept
    under; every cell of the sweep is this generator with its detunings
    shifted.

    The last generator built is kept, and with it the F elimination kept
    on it (Liouvillian._expansion), so a sweep whose generator inputs equal
    the previous sweep's reuses the generator, and its elimination too at
    the same Doppler rates.  The key is everything vectorize reads, by
    content: the Hamiltonian at rest byte for byte (which covers the
    fields, the transitions and an in-place edit of the energy offsets),
    the levels and tiers, and the decay network.  Only the last generator
    is kept, and it keeps one elimination, so memory stays bounded."""
    global _last_generator
    h = build_hamiltonian(spec.scheme, spec.transitions, spec.fields)
    key = (h.tobytes(), spec.scheme.levels, spec.scheme.tiers, spec.network)
    if _last_generator is None or _last_generator[0] != key:
        _last_generator = key, vectorize(h, spec.scheme, spec.network)
    return _last_generator


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


def _detuning_row(spec: SweepSpec, liou: Liouvillian,
                  nodes: tuple[np.ndarray, np.ndarray], detuning: float
                  ) -> np.ndarray:
    """The Doppler-averaged (phi_plus, phi_minus, alpha_plus, alpha_minus)
    row at one signal detuning, over the (velocities, weights) nodes.  The
    response is linear in rho, so the velocity average of rho is mapped
    once."""
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    rho = steady_states(liou, detuning - signal.detuning, *nodes,
                        doppler_shifts(1.0, spec.geometry, pump.k, signal.k))
    r = response_from_density(rho, spec.scheme, spec.transitions, signal,
                              spec.medium)
    return np.array(r.as_tuple())


def _fingerprint(spec: SweepSpec, generator_key: tuple) -> str:
    """Digest of everything a sweep's rows depend on: detunings, geometry,
    velocity nodes and weights, fields, medium and the generator at rest,
    and of the checkpoint format.  The nodes and weights enter by their
    bytes, not by the grid's repr, which costs about 1 ms on 200 numpy
    floats.  The generator enters by its _generator key (the Hamiltonian
    at rest, the levels, the tiers and the decay network), which it is
    built from and which is a few kB, not the generator itself (215 kB
    for fig7-full)."""
    import hashlib      # here, not at the top: it slows CLI start-up
    h_bytes, *structure = generator_key
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

    progress(done, total) counts detunings.  The pool has at most as many
    worker threads as there are detunings to solve and CPUs this process
    may run on; with one, the sweep runs in the calling thread.  Each row
    is computed the same way whatever the worker count, so rows are
    bit-identical across worker counts.  With a checkpoint path the
    finished rows are saved every 16 detunings and at the end, and a
    resumed sweep computes only the others; a checkpoint written for a
    different spec, or in another format, is ignored and the sweep is
    recomputed.  A checkpoint path holding a file numpy cannot read raises
    ConfigError, and the file is left as it is."""
    total = len(spec.detunings)
    key, liou = _generator(spec)
    fingerprint = _fingerprint(spec, key) if checkpoint else ""
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

    row_at = partial(_detuning_row, spec, liou, _solved_nodes(spec.grid))
    todo = spec.detunings[done:].tolist()
    workers = min(workers, len(todo), _cpu_count())
    if workers <= 1:
        collect(map(row_at, todo))
    else:
        with _pool(workers) as pool:
            collect(pool.map(row_at, todo))

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
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != CSV_MAGIC:
            raise ModelError(f"not a vaporplate sweep CSV: {path}")
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ModelError(f"unexpected sweep CSV columns in {path}")
        try:
            rows = np.array([[float(tok) for tok in line.split(",")]
                             for line in fh if line.strip()])
        except ValueError as exc:
            raise ModelError(f"malformed sweep CSV row in {path}: {exc}") \
                from exc
    width = len(CSV_HEADER.split(","))
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ModelError(f"sweep CSV {path} has no data rows of {width} "
                         "columns")
    detunings = rows[:, 0]
    responses = [OpticalResponse(*row[1:5]) for row in rows]
    return detunings, responses
