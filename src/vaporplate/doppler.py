"""Thermal velocity averaging and the (detuning x velocity) sweep.

The sweep is velocity-major: each velocity node is one call of
liouville.steady_states, which eliminates the coordinates the signal
detuning never moves once and then solves one small system per detuning.
The node's rows are weight-summed into the average in grid order, on one
worker or on a process pool over velocity nodes, so results do not depend
on the worker count.  A checkpoint holds that partial sum and the number of
nodes in it, so a resumed sweep continues the same sum.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .atomic import LevelScheme, TransitionTable
from .errors import ModelError, SolverError
from .liouville import (DecayNetwork, FieldSpec, Liouvillian,
                        build_hamiltonian, steady_states, vectorize)
from .polarimetry import MediumParams, OpticalResponse, response_from_density

KB = 1.380649e-23          # J/K
AMU = 1.66053906660e-27    # kg

COUNTER = "counter_propagating"
CO = "co_propagating"

CSV_HEADER = "delta_s,phi_plus,phi_minus,alpha_plus,alpha_minus,phi_d_deg,alpha_d"
CSV_MAGIC = "# vaporplate sweep CSV v1"


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
        # large n overflows inside hermgauss; the non-finite weights are
        # then rejected by __post_init__ rather than warned about
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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


def doppler_shifts(v: float, geometry: str, k_pump: float, k_signal: float
                   ) -> tuple[float, float]:
    """Detuning shifts (pump, signal) for an atom at velocity v.

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


def _velocity_rows(spec: SweepSpec, liou: Liouvillian, v: float
                   ) -> np.ndarray:
    """The response at every detuning for atoms at velocity v, one
    (phi_plus, phi_minus, alpha_plus, alpha_minus) row per detuning."""
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    shift_p, shift_s = doppler_shifts(v, spec.geometry, pump.k, signal.k)
    try:
        rho = steady_states(liou, shift_p,
                            (spec.detunings - signal.detuning) + shift_s)
    except SolverError as exc:
        raise SolverError(f"{exc} at v={v:g}") from exc
    r = response_from_density(rho, spec.scheme, spec.transitions, signal,
                              spec.medium)
    return np.column_stack(r.as_tuple())


def _fingerprint(spec: SweepSpec, liou: Liouvillian) -> str:
    """Digest of everything a sweep's rows depend on: detunings, geometry,
    grid, fields, medium and the generator at rest (scheme, transitions and
    decay network)."""
    import hashlib      # here, not at the top: it slows CLI start-up
    digest = hashlib.sha256(spec.detunings.tobytes())
    digest.update(repr((spec.geometry, spec.grid, sorted(spec.fields.items()),
                        spec.medium)).encode())
    digest.update(np.ascontiguousarray(liou.m))
    return digest.hexdigest()


def sweep(spec: SweepSpec, workers: int = 1, progress=None,
          checkpoint: str | None = None) -> list[OpticalResponse]:
    """Doppler-averaged responses, one per signal detuning.

    The average is summed over velocity nodes in grid order whatever the
    worker count; progress(done, total) counts velocity nodes.  With a
    checkpoint path the partial sum is saved every 16 nodes and at the end,
    and a resumed sweep continues it, so its rows are bit-identical to an
    uninterrupted run; a checkpoint written for a different spec, or in an
    older format, is ignored and the sweep is recomputed."""
    velocities, weights = spec.grid.velocities, spec.grid.weights
    total = len(velocities)
    liou = _generator(spec)
    fingerprint = _fingerprint(spec, liou) if checkpoint else ""
    acc = np.zeros((len(spec.detunings), 4))
    done = 0

    if checkpoint and os.path.exists(checkpoint):
        with np.load(checkpoint) as data:
            if "nodes" in data.files and \
                    str(data["fingerprint"]) == fingerprint:
                acc, done = data["acc"], int(data["nodes"])

    def reduce(rows_per_node):
        nonlocal acc, done
        for w, rows in zip(weights[done:], rows_per_node):
            acc += w * rows
            done += 1
            if checkpoint and (done % 16 == 0 or done == total):
                _save_checkpoint(checkpoint, fingerprint, acc, done)
            if progress:
                progress(done, total)

    rows_at = partial(_velocity_rows, spec, liou)
    todo = velocities[done:]
    if workers <= 1 or len(todo) <= 1:
        reduce(map(rows_at, todo))
    else:
        chunk = max(1, len(todo) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reduce(pool.map(rows_at, todo, chunksize=chunk))

    if not np.all(np.isfinite(acc)):
        raise SolverError("the Doppler-averaged response is not finite")
    return [OpticalResponse(*row) for row in acc.tolist()]


def _save_checkpoint(path: str, fingerprint: str, acc: np.ndarray,
                     nodes: int) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, fingerprint=fingerprint, acc=acc, nodes=nodes)
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
