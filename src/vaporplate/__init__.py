"""Steady-state polarization response of a pumped atomic vapor cell.

The package models a two-color ladder scheme (strong pump, weak signal) over
Zeeman sublevels, Doppler-averages the signal-field response across a thermal
velocity distribution, and turns the resulting circular birefringence and
dichroism into detector signals and back.
"""

from .atomic import (BranchingTable, DecayParams, LevelScheme, Manifold,
                     SublevelId, TransitionEntry, TransitionTable,
                     decay_distribution, derive_transitions,
                     effective_branching, load_table1, relative_strength)
from .doppler import (CO, COUNTER, SweepSpec, VelocityGrid, doppler_shifts,
                      read_sweep_csv, sweep, thermal_rms_velocity,
                      write_sweep_csv)
from .errors import (ConfigError, InversionError, ModelError, SolverError,
                     VaporplateError)
from .liouville import (DecayNetwork, FieldSpec, Liouvillian,
                        build_hamiltonian, evolve, steady_state,
                        steady_states, suggest_dt, vectorize)
from .polarimetry import (DEFAULT_LCR_CALIBRATION, InversionResult,
                          LcrCalibration, LcrScan, MediumParams,
                          OpticalResponse, detector_intensity, from_circular,
                          ideal_probe_state, invert_scan, invert_scan_lsq,
                          jones_chain_intensity, lcr_matrix, linear_polarizer,
                          overlap, propagate_cell, response_from_density,
                          rotated_basis, rotation, synthesize_scan,
                          to_circular)
from .scenario import (PRESETS, Scenario, load_preset, load_scenario,
                       scenario_from_config)

__version__ = "1.0.0"

__all__ = [
    "BranchingTable", "DecayParams", "LevelScheme", "Manifold", "SublevelId",
    "TransitionEntry", "TransitionTable", "decay_distribution",
    "derive_transitions", "effective_branching", "load_table1",
    "relative_strength",
    "CO", "COUNTER", "SweepSpec", "VelocityGrid", "doppler_shifts",
    "read_sweep_csv", "sweep", "thermal_rms_velocity", "write_sweep_csv",
    "ConfigError", "InversionError", "ModelError", "SolverError",
    "VaporplateError",
    "DecayNetwork", "FieldSpec", "Liouvillian", "build_hamiltonian", "evolve",
    "steady_state", "steady_states", "suggest_dt", "vectorize",
    "DEFAULT_LCR_CALIBRATION", "InversionResult", "LcrCalibration", "LcrScan",
    "MediumParams", "OpticalResponse", "detector_intensity", "from_circular",
    "ideal_probe_state", "invert_scan", "invert_scan_lsq",
    "jones_chain_intensity", "lcr_matrix", "linear_polarizer", "overlap",
    "propagate_cell", "response_from_density", "rotated_basis", "rotation",
    "synthesize_scan", "to_circular",
    "PRESETS", "Scenario", "load_preset", "load_scenario",
    "scenario_from_config",
    "__version__",
]
