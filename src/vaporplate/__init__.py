"""Steady-state polarization response of a pumped atomic vapor cell.

The package models a two-color ladder scheme (strong pump, weak signal) over
Zeeman sublevels, Doppler-averages the signal-field response across a thermal
velocity distribution, and turns the resulting circular birefringence and
dichroism into detector signals and back.

The public names are loaded on first use (PEP 562), so `import vaporplate`
loads no submodule and a caller pays only for the modules it uses: the scan
inversion, for one, needs no numpy.
"""

from importlib import import_module

__version__ = "1.0.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("BranchingTable", "DecayParams", "LevelScheme", "Manifold",
         "SublevelId", "TransitionEntry", "TransitionTable",
         "decay_distribution", "derive_transitions", "load_table1",
         "relative_strength"), "atomic"),
    **dict.fromkeys(
        ("InversionResult", "LcrScan", "detector_intensity", "invert_scan",
         "invert_scan_lsq"), "analyzer"),
    **dict.fromkeys(
        ("SweepSpec", "VelocityGrid", "doppler_shifts", "read_sweep_csv",
         "sweep", "thermal_rms_velocity", "write_sweep_csv"), "doppler"),
    **dict.fromkeys(
        ("ConfigError", "InversionError", "ModelError", "SolverError",
         "VaporplateError"), "errors"),
    **dict.fromkeys(
        ("DecayNetwork", "FieldSpec", "Liouvillian", "build_hamiltonian",
         "evolve", "steady_state", "steady_states", "suggest_dt",
         "vectorize"), "liouville"),
    **dict.fromkeys(("CO", "COUNTER", "PRESETS"), "names"),
    **dict.fromkeys(
        ("DEFAULT_LCR_CALIBRATION", "LcrCalibration", "MediumParams",
         "OpticalResponse", "from_circular", "ideal_probe_state",
         "jones_chain_intensity", "lcr_matrix", "linear_polarizer",
         "overlap", "propagate_cell", "response_from_density",
         "rotation", "synthesize_scan", "to_circular"),
        "polarimetry"),
    **dict.fromkeys(
        ("Scenario", "load_preset", "load_scenario", "scenario_from_config"),
        "scenario"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value         # later lookups skip this function
    return value
