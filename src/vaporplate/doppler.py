"""Thermal velocity averaging and the (detuning x velocity) sweep.

Each grid cell is one steady-state solve of the spec's generator with its
detunings shifted (liouville.steady_state); parallelism is a plain
process pool over detunings with a fixed, velocity-ordered reduction per
detuning, so results do not depend on the worker count.
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
                        build_hamiltonian, steady_state, vectorize)
from .polarimetry import MediumParams, OpticalResponse, response_from_density

KB = 1.380649e-23          # J/K
AMU = 1.66053906660e-27    # kg

COUNTER = "counter_propagating"
CO = "co_propagating"

CSV_HEADER = "delta_s,phi_plus,phi_minus,alpha_plus,alpha_minus,phi_d_deg,alpha_d"
CSV_MAGIC = "# vaporplate sweep CSV v1"


def thermal_rms_velocity(temperature: float, mass_amu: float) -> float:
    """1-D RMS velocity (m/s) of the Maxwell distribution."""
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
        x, w = np.polynomial.hermite.hermgauss(n)
        vr = thermal_rms_velocity(temperature, mass_amu)
        v = x * math.sqrt(2.0) * vr
        w = w / math.sqrt(math.pi)
        return cls(tuple(v), tuple(w / w.sum()), temperature, mass_amu,
                   span=float(abs(x).max() * math.sqrt(2.0)),
                   kind="gauss_hermite")

    @classmethod
    def uniform(cls, n: int, temperature: float = 403.0,
                mass_amu: float = 86.909, span: float = 4.0) -> "VelocityGrid":
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


def _averaged_response(spec: SweepSpec, liou: Liouvillian,
                       delta_s: float) -> OpticalResponse:
    """Weight-average over the velocity grid, in fixed grid order."""
    pump, signal = spec.fields["pump"], spec.fields["signal"]
    acc = np.zeros(4)
    for v, w in zip(spec.grid.velocities, spec.grid.weights):
        shift_p, shift_s = doppler_shifts(v, spec.geometry, pump.k, signal.k)
        try:
            rho = steady_state(liou, shift_p,
                               (delta_s - signal.detuning) + shift_s)
        except SolverError as exc:
            raise SolverError(f"{exc} at delta_s={delta_s:g}, v={v:g}") \
                from exc
        r = response_from_density(rho, spec.scheme, spec.transitions, signal,
                                  spec.medium)
        acc += w * np.asarray(r.as_tuple())
    return OpticalResponse(*acc)


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

    Output order follows the detuning list and is independent of the worker
    count.  With a checkpoint path, completed detunings are saved every 16
    results and skipped on resume; a checkpoint written for a different
    spec is ignored and its detunings are recomputed."""
    n = len(spec.detunings)
    results: dict[int, tuple[float, ...]] = {}
    liou = _generator(spec)
    fingerprint = _fingerprint(spec, liou) if checkpoint else ""

    if checkpoint and os.path.exists(checkpoint):
        with np.load(checkpoint) as data:
            if "fingerprint" in data.files and \
                    str(data["fingerprint"]) == fingerprint:
                for idx in np.flatnonzero(data["done"]):
                    results[int(idx)] = tuple(data["responses"][idx])

    todo = [i for i in range(n) if i not in results]
    since_save = 0

    def handle(idx, resp):
        nonlocal since_save
        results[idx] = resp.as_tuple()
        since_save += 1
        if progress:
            progress(len(results), n)
        if checkpoint and (since_save >= 16 or len(results) == n):
            _save_checkpoint(checkpoint, fingerprint, n, results)
            since_save = 0

    average = partial(_averaged_response, spec, liou)
    detunings = spec.detunings[todo].tolist()
    if workers <= 1 or len(todo) <= 1:
        for idx, resp in zip(todo, map(average, detunings)):
            handle(idx, resp)
    else:
        chunk = max(1, len(todo) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, resp in zip(todo, pool.map(average, detunings,
                                                chunksize=chunk)):
                handle(idx, resp)

    return [OpticalResponse(*results[i]) for i in range(n)]


def _save_checkpoint(path: str, fingerprint: str, n: int,
                     results: dict[int, tuple[float, ...]]) -> None:
    responses = np.zeros((n, 4))
    done = np.zeros(n, dtype=bool)
    for idx, resp in results.items():
        responses[idx] = resp
        done[idx] = True
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, fingerprint=fingerprint, responses=responses, done=done)
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
