"""Thermal velocity averaging and the (detuning x velocity) sweep.

The sweep is detuning-major: each row is one call of
liouville.steady_states at one signal detuning over the whole velocity
grid, which eliminates the coordinates no Doppler shift moves once per
generator and geometry and then solves every velocity node from one
eigendecomposition.  Rows are independent, so they are computed on one
worker or on a process pool over detunings, and a row does not depend on
the worker count or on the detunings beside it.  A checkpoint holds the
finished rows, so a resumed sweep computes only the others.
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
from .polarimetry import MediumParams, OpticalResponse, response_from_density

KB = 1.380649e-23          # J/K
AMU = 1.66053906660e-27    # kg

COUNTER = "counter_propagating"
CO = "co_propagating"

# Most nodes numpy's hermgauss builds with finite weights; from 371 nodes its
# weights overflow.
MAX_GAUSS_HERMITE_NODES = 370

CSV_HEADER = "delta_s,phi_plus,phi_minus,alpha_plus,alpha_minus,phi_d_deg,alpha_d"
CSV_MAGIC = "# vaporplate sweep CSV v1"
# in the fingerprint, so a checkpoint of another format is never resumed
CHECKPOINT_FORMAT = "vaporplate sweep checkpoint v3: finished rows"


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
        """Single stationary atom; degenerate grid for tests and quick looks."""
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
        if d.size == 0:
            raise ModelError("a sweep needs at least one detuning")
        if not np.all(np.isfinite(d)):
            raise ModelError("detunings are not finite")
        if d.size > 1 and not (np.all(np.diff(d) > 0) or np.all(np.diff(d) < 0)):
            raise ModelError("detuning list must be strictly monotone")
        object.__setattr__(self, "detunings", d)
        if self.geometry not in (COUNTER, CO):
            raise ModelError(f"unknown geometry {self.geometry!r}")


def _generator(spec: SweepSpec) -> Liouvillian:
    """The spec's Liouvillian for an atom at rest; every cell of the sweep
    is this generator with its detunings shifted."""
    h = build_hamiltonian(spec.scheme, spec.transitions, spec.fields)
    return vectorize(h, spec.scheme, spec.network)


def _detuning_row(spec: SweepSpec, liou: Liouvillian, detuning: float
                  ) -> np.ndarray:
    """The Doppler-averaged (phi_plus, phi_minus, alpha_plus, alpha_minus)
    row at one signal detuning.  The response is linear in rho, so the
    velocity average of rho is mapped once."""
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    (rho,) = steady_states(liou, detuning - signal.detuning,
                           spec.grid.velocities, spec.grid.weights,
                           doppler_shifts(1.0, spec.geometry, pump.k,
                                          signal.k))
    r = response_from_density(rho, spec.scheme, spec.transitions, signal,
                              spec.medium)
    return np.array(r.as_tuple())


def _fingerprint(spec: SweepSpec, liou: Liouvillian) -> str:
    """Digest of everything a sweep's rows depend on: detunings, geometry,
    grid, fields, medium and the generator at rest (scheme, transitions and
    decay network), and of the checkpoint format."""
    import hashlib      # here, not at the top: it slows CLI start-up
    digest = hashlib.sha256(CHECKPOINT_FORMAT.encode())
    digest.update(spec.detunings.tobytes())
    digest.update(repr((spec.geometry, spec.grid, sorted(spec.fields.items()),
                        spec.medium)).encode())
    digest.update(np.ascontiguousarray(liou.m))
    return digest.hexdigest()


def sweep(spec: SweepSpec, workers: int = 1, progress=None,
          checkpoint: str | None = None) -> list[OpticalResponse]:
    """Doppler-averaged responses, one per signal detuning.

    progress(done, total) counts detunings.  The pool has at most as many
    workers as there are detunings to solve and CPUs this process may run
    on; with one, the sweep runs in this process.  Each row is computed
    the same way whatever the worker count, so rows are bit-identical
    across worker counts.  With a checkpoint path the finished rows are
    saved every 16 detunings and at the end, and a resumed sweep computes
    only the others; a checkpoint written for a different spec, or in
    another format, is ignored and the sweep is recomputed.  A checkpoint
    path holding a file numpy cannot read raises ConfigError, and the file
    is left as it is."""
    total = len(spec.detunings)
    liou = _generator(spec)
    fingerprint = _fingerprint(spec, liou) if checkpoint else ""
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

    row_at = partial(_detuning_row, spec, liou)
    todo = spec.detunings[done:].tolist()
    workers = min(workers, len(todo), _cpu_count())
    if workers <= 1:
        collect(map(row_at, todo))
    else:
        chunk = max(1, len(todo) // (workers * 4))
        with _pool(workers) as pool:
            collect(pool.map(row_at, todo, chunksize=chunk))

    if not np.all(np.isfinite(rows)):
        raise SolverError("the Doppler-averaged response is not finite")
    return [OpticalResponse(*row) for row in rows.tolist()]


def _pool(workers: int):
    """A process pool of `workers` workers.  Imported here, not at the top:
    it loads multiprocessing, which only a pooled sweep uses and which
    slows CLI start-up."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


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
