"""Scenario files: a versioned YAML schema describing the level scheme,
fields, decay network, medium, sweep, and analyzer settings.

Unknown keys are rejected everywhere so typos cannot silently change a
simulation.  Frequencies may be given as bare numbers (gamma_a units) or as
{value, unit} mappings with unit MHz, GHz, or gamma_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .atomic import (DecayParams, LevelScheme, Manifold, SublevelId,
                     TransitionEntry, TransitionTable, decay_distribution,
                     derive_transitions, load_table1)
from .doppler import (CO, COUNTER, MAX_GAUSS_HERMITE_NODES, SweepSpec,
                      VelocityGrid)
from .errors import ConfigError
from .liouville import DecayNetwork, FieldSpec
from .polarimetry import DEFAULT_LCR_CALIBRATION, LcrCalibration, MediumParams

SCHEMA_VERSION = 1

PRESETS = ("fig1-ideal", "fig7-full", "fig7-reduced15", "fig8-qwp",
           "two-level-oracle")

# Most detunings or velocity nodes a scenario may ask for; a larger count is
# a typo (1e5 x 1e5 cells would take weeks), not a sweep.
MAX_POINTS = 100_000

VELOCITY_KINDS = ("gauss_hermite", "uniform", "delta")

# Velocity nodes when a scenario gives none: the presets' count, which the
# default kind can build (at most MAX_GAUSS_HERMITE_NODES).
DEFAULT_VELOCITY_POINTS = 200


def _check_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _required(mapping, key, context):
    """mapping[key], or a ConfigError naming the missing key's path."""
    if key not in mapping:
        raise ConfigError(f"{context}.{key} is required")
    return mapping[key]


def _number(value, context) -> float:
    """A number (or numeric string) as a float.  NaN and inf pass: the
    model objects reject them with the range they expect."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}: expected a number, got {value!r}") \
            from None


def _integer(value, context) -> int:
    number = _number(value, context)
    if not number.is_integer():
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return int(number)


def _count(value, context) -> int:
    n = _integer(value, context)
    if not 1 <= n <= MAX_POINTS:
        raise ConfigError(f"{context} must lie in [1, {MAX_POINTS}], "
                          f"got {n}")
    return n


def _freq(value, gamma_a_mhz, context) -> float:
    """Frequency-like value in gamma_a units."""
    if isinstance(value, (int, float)):
        return float(value)
    _check_keys(value, {"value", "unit"}, context)
    v = _number(value.get("value"), f"{context}.value")
    unit = value.get("unit", "gamma_a")
    if unit == "gamma_a":
        return v
    if unit == "MHz":
        return v / gamma_a_mhz
    if unit == "GHz":
        return v * 1e3 / gamma_a_mhz
    raise ConfigError(f"{context}: unknown unit {unit!r}")


def _complexish(value, context) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"{context}: bad complex literal {value!r}") \
                from exc
    raise ConfigError(f"{context}: expected a number or complex string")


@dataclass(frozen=True)
class AnalyzerSettings:
    e0: float
    calibration: LcrCalibration


@dataclass(frozen=True)
class SweepSettings:
    detuning_start: float
    detuning_stop: float
    detuning_points: int
    geometry: str
    velocity_kind: str
    velocity_points: int
    temperature: float
    mass_amu: float
    span: float

    def detunings(self, points: int | None = None) -> np.ndarray:
        return np.linspace(self.detuning_start, self.detuning_stop,
                           self.detuning_points if points is None else points)

    def grid(self, points: int | None = None) -> VelocityGrid:
        n = self.velocity_points if points is None else points
        if self.velocity_kind == "gauss_hermite":
            return VelocityGrid.gauss_hermite(n, self.temperature,
                                              self.mass_amu)
        if self.velocity_kind == "uniform":
            return VelocityGrid.uniform(n, self.temperature, self.mass_amu,
                                        self.span)
        if self.velocity_kind == "delta":
            return VelocityGrid.delta(self.temperature, self.mass_amu)
        raise ConfigError(f"unknown velocity grid kind {self.velocity_kind!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    gamma_a_mhz: float
    scheme: LevelScheme
    transitions: TransitionTable
    network: DecayNetwork
    fields: dict[str, FieldSpec]
    medium: MediumParams | None
    sweep: SweepSettings | None
    analyzer: AnalyzerSettings

    def sweep_spec(self, geometry: str | None = None,
                   detuning_points: int | None = None,
                   velocity_points: int | None = None) -> SweepSpec:
        if self.sweep is None:
            raise ConfigError(f"scenario {self.name!r} defines no sweep")
        if self.medium is None:
            raise ConfigError(f"scenario {self.name!r} defines no medium")
        return SweepSpec(
            detunings=self.sweep.detunings(detuning_points),
            geometry=geometry or self.sweep.geometry,
            grid=self.sweep.grid(velocity_points),
            scheme=self.scheme, transitions=self.transitions,
            network=self.network, fields=self.fields, medium=self.medium)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_scenario(path: str) -> Scenario:
    import yaml         # here and in load_preset: it slows CLI start-up
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    return scenario_from_config(cfg, name=path)


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESETS}")
    import yaml
    text = resources.files("vaporplate.data").joinpath(f"{name}.yaml") \
        .read_text()
    return scenario_from_config(yaml.safe_load(text), name=name)


def scenario_from_config(cfg: dict, name: str = "<config>") -> Scenario:
    _check_keys(cfg, {"schema", "name", "description", "gamma_a_mhz",
                      "scheme", "decay", "transitions", "fields", "medium",
                      "sweep", "analyzer"}, name)
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"{name}: schema version must be {SCHEMA_VERSION}")
    for key in ("scheme", "decay", "fields"):
        if key not in cfg:
            raise ConfigError(f"{name}: missing section {key!r}")
    gamma_a_mhz = _number(cfg.get("gamma_a_mhz", 5.75), "gamma_a_mhz")
    if not 0 < gamma_a_mhz < math.inf:
        raise ConfigError(f"gamma_a_mhz must be finite and positive, "
                          f"got {gamma_a_mhz!r}")
    label = cfg.get("name", name)

    scheme = _build_scheme(cfg["scheme"], cfg["decay"], gamma_a_mhz)
    transitions = _build_transitions(cfg.get("transitions", {"mode": "derived"}),
                                     scheme)
    network = _build_network(cfg["decay"], scheme, gamma_a_mhz)
    fields = _build_fields(cfg["fields"], gamma_a_mhz)
    medium = _build_medium(cfg.get("medium"), scheme.decay)
    sweep_settings = _build_sweep(cfg.get("sweep"))
    analyzer = _build_analyzer(cfg.get("analyzer"))
    return Scenario(label, gamma_a_mhz, scheme, transitions, network, fields,
                    medium, sweep_settings, analyzer)


def _build_scheme(node, decay_node, gamma_a_mhz) -> LevelScheme:
    _check_keys(node, {"nuclear_spin", "manifolds"}, "scheme")
    manifolds = []
    for k, m in enumerate(node.get("manifolds", [])):
        ctx = f"scheme.manifolds[{k}]"
        _check_keys(m, {"label", "tier", "j", "f", "f_values", "offset",
                        "lumped", "mf_values", "decays_to"}, ctx)
        lumped = bool(m.get("lumped", False))
        if "f" in m and "f_values" in m:
            raise ConfigError(f"{ctx}: give either f or f_values")
        if "f" in m:
            f_values = (_integer(m["f"], f"{ctx}.f"),)
        elif "f_values" in m:
            f_values = tuple(_integer(f, f"{ctx}.f_values")
                             for f in m["f_values"])
        else:
            raise ConfigError(f"{ctx}: f (or f_values) is required")
        manifolds.append(Manifold(
            label=str(_required(m, "label", ctx)),
            tier=_integer(_required(m, "tier", ctx), f"{ctx}.tier"),
            j=_number(m.get("j", 0.5), f"{ctx}.j"),
            f_values=f_values,
            offset=_freq(m.get("offset", 0.0), gamma_a_mhz, f"{ctx}.offset"),
            lumped=lumped,
            mf_values=tuple(_integer(x, f"{ctx}.mf_values")
                            for x in m["mf_values"])
            if m.get("mf_values") is not None else None,
            decays_to=tuple(m.get("decays_to", ())),
        ))
    _check_keys(decay_node, _DECAY_KEYS, "decay")
    params = DecayParams(
        gamma_a=_freq(decay_node.get("gamma_a", 1.0), gamma_a_mhz,
                      "decay.gamma_a"),
        gamma_b=_freq(decay_node.get("gamma_b", 0.6), gamma_a_mhz,
                      "decay.gamma_b"),
        gamma_g=_freq(decay_node.get("gamma_g", 0.0), gamma_a_mhz,
                      "decay.gamma_g"),
        d1_d2_ratio=_number(decay_node.get("d1_d2_ratio", 0.5),
                            "decay.d1_d2_ratio"),
    )
    return LevelScheme.build(
        manifolds, params,
        nuclear_spin=_number(node.get("nuclear_spin", 1.5),
                             "scheme.nuclear_spin"))


_DECAY_KEYS = {"gamma_a", "gamma_b", "gamma_g", "d1_d2_ratio",
               "six_s_decay_path", "reservoir", "gamma_r",
               "explicit_channels"}


def _parse_level(scheme: LevelScheme, text: str, context: str) -> SublevelId:
    text = str(text)
    if ":" in text:
        man_label, mf_text = text.split(":", 1)
        try:
            man = scheme.manifold(man_label)
        except KeyError:
            raise ConfigError(f"{context}: unknown manifold {man_label!r}")
        if man.lumped:
            raise ConfigError(f"{context}: {man_label} is lumped, drop the mF")
        (f,) = man.f_values
        level = SublevelId(man_label, f=f, mf=_integer(mf_text, context))
        if level not in scheme.index:
            raise ConfigError(f"{context}: the scheme has no level {level}")
        return level
    try:
        man = scheme.manifold(text)
    except KeyError:
        raise ConfigError(f"{context}: unknown manifold {text!r}")
    if not man.lumped:
        raise ConfigError(f"{context}: {text} is resolved, use LABEL:mF")
    return SublevelId(text, lumped=True)


def _build_transitions(node, scheme: LevelScheme) -> TransitionTable:
    _check_keys(node, {"mode", "entries"}, "transitions")
    mode = node.get("mode", "derived")
    if mode == "derived":
        entries = derive_transitions(scheme, 0, 1, "pump") + \
            derive_transitions(scheme, 1, 2, "signal")
        return TransitionTable(tuple(entries))
    if mode != "explicit":
        raise ConfigError(f"transitions.mode must be derived or explicit")
    entries = []
    for k, e in enumerate(node.get("entries", [])):
        ctx = f"transitions.entries[{k}]"
        _check_keys(e, {"field", "upper", "lower", "q", "strength"}, ctx)
        entries.append(TransitionEntry(
            upper=_parse_level(scheme, _required(e, "upper", ctx), ctx),
            lower=_parse_level(scheme, _required(e, "lower", ctx), ctx),
            q=_integer(_required(e, "q", ctx), f"{ctx}.q"),
            strength=_number(e.get("strength", 1.0), f"{ctx}.strength"),
            field=str(_required(e, "field", ctx))))
    return TransitionTable(tuple(entries))


def _build_network(node, scheme: LevelScheme, gamma_a_mhz) -> DecayNetwork:
    params = scheme.decay
    chans: dict[int, list[tuple[int, float]]] = {}

    def add(src: int, tgt: int, rate: float):
        if rate != 0:       # negative and NaN rates go on to be rejected
            chans.setdefault(src, []).append((tgt, rate))

    if "explicit_channels" in node:
        for k, c in enumerate(node["explicit_channels"]):
            ctx = f"decay.explicit_channels[{k}]"
            _check_keys(c, {"from", "to", "rate"}, ctx)
            src = scheme.index[_parse_level(scheme, _required(c, "from", ctx),
                                            ctx)]
            tgt = scheme.index[_parse_level(scheme, _required(c, "to", ctx),
                                            ctx)]
            add(src, tgt, _freq(_required(c, "rate", ctx), gamma_a_mhz,
                                f"{ctx}.rate"))
    else:
        f_d1 = params.d1_d2_ratio / (1.0 + params.d1_d2_ratio)
        path = node.get("six_s_decay_path", "reservoir")
        if path not in ("reservoir", "effective"):
            raise ConfigError("decay.six_s_decay_path must be "
                              "reservoir or effective")
        for k, lev in enumerate(scheme.levels):
            if lev.lumped or scheme.tiers[k] == 0:
                continue
            if scheme.tiers[k] == 1:
                for slot, rate in decay_distribution(lev, scheme,
                                                     params.gamma_a):
                    add(k, scheme.index[slot], rate)
            elif scheme.tiers[k] == 2:
                for slot, rate in decay_distribution(
                        lev, scheme, params.gamma_b * f_d1):
                    add(k, scheme.index[slot], rate)
                d2_rate = params.gamma_b * (1.0 - f_d1)
                if path == "effective":
                    for tgt, frac in _table1_distribution(scheme, [lev]):
                        add(k, tgt, d2_rate * frac)
                else:
                    res_label = node.get("reservoir", "R")
                    res = SublevelId(res_label, lumped=True)
                    if res not in scheme.index:
                        raise ConfigError(
                            f"decay: reservoir manifold {res_label!r} missing "
                            "from the scheme (or use six_s_decay_path: "
                            "effective)")
                    add(k, scheme.index[res], d2_rate)

        res_label = node.get("reservoir", "R")
        res = SublevelId(res_label, lumped=True)
        if res in scheme.index and node.get("six_s_decay_path",
                                            "reservoir") == "reservoir":
            gamma_r = _freq(node.get("gamma_r", 1.0551), gamma_a_mhz,
                            "decay.gamma_r")
            uppers = [lev for k, lev in enumerate(scheme.levels)
                      if scheme.tiers[k] == 2 and not lev.lumped]
            for tgt, frac in _table1_distribution(scheme, uppers):
                add(scheme.index[res], tgt, gamma_r * frac)

    # ground-state cross relaxation toward equidistribution
    grounds = scheme.ground_slots()
    if params.gamma_g > 0 and len(grounds) > 1:
        per = params.gamma_g / (len(grounds) - 1)
        for g in grounds:
            for g2 in grounds:
                if g2 != g:
                    add(g, g2, per)

    return DecayNetwork.from_dict(chans, scheme.n_levels)


def _ground_targets(scheme: LevelScheme):
    """Map the shipped effective-branching rows onto scheme slots.

    F=2 rows go to the matching resolved ground sublevels (dropped rows are
    renormalized away), F=1 rows aggregate into the lumped ground reservoir."""
    table = load_table1()
    targets = []
    for r, row in enumerate(table.rows):
        slot = None
        for k, lev in enumerate(scheme.levels):
            if scheme.tiers[k] != 0:
                continue
            if lev.lumped and row.f == 1:
                slot = k
            elif not lev.lumped and lev.f == row.f and lev.mf == row.mf:
                slot = k
                break
        targets.append(slot)
    return table, targets


def _table1_distribution(scheme: LevelScheme, uppers):
    """Ground-slot fractions for indirect decay out of the upper levels
    `uppers`: the mean of their effective-branching columns (a lumped
    reservoir forgets which sublevel fed it), accumulated onto the scheme's
    ground slots and renormalized over the slots the scheme keeps."""
    table, targets = _ground_targets(scheme)
    cols = [SublevelId("6S1/2", f=lev.f, mf=lev.mf) for lev in uppers]
    cols = [c for c in cols if c in table.cols]
    if not cols:
        raise ConfigError("no effective-branching column for upper levels "
                          f"{[str(lev) for lev in uppers]}")
    fracs = np.mean([table.column(c) for c in cols], axis=0)
    acc: dict[int, float] = {}
    for frac, slot in zip(fracs, targets):
        if slot is not None:
            acc[slot] = acc.get(slot, 0.0) + frac
    total = sum(acc.values())
    return [(slot, f / total) for slot, f in acc.items()]


def _build_fields(node, gamma_a_mhz) -> dict[str, FieldSpec]:
    _check_keys(node, {"pump", "signal"}, "fields")
    fields = {}
    for role, f in node.items():
        ctx = f"fields.{role}"
        _check_keys(f, {"rabi", "detuning", "polarization", "wavelength_nm"},
                    ctx)
        pol = f.get("polarization", {"plus": 1.0, "minus": 0.0})
        _check_keys(pol, {"plus", "minus"}, f"{ctx}.polarization")
        a = _complexish(pol.get("plus", 0.0), f"{ctx}.polarization.plus")
        b = _complexish(pol.get("minus", 0.0), f"{ctx}.polarization.minus")
        norm = math.hypot(abs(a), abs(b))
        if norm == 0:
            raise ConfigError(f"{ctx}: polarization must be nonzero")
        wavelength_nm = _number(f.get("wavelength_nm", 0.0),
                                f"{ctx}.wavelength_nm")
        if not 0 <= wavelength_nm < math.inf:
            raise ConfigError(f"{ctx}.wavelength_nm must be finite and "
                              f">= 0 (0: no Doppler shift), "
                              f"got {wavelength_nm!r}")
        k = 1.0 / (wavelength_nm * 1e-9 * gamma_a_mhz * 1e6) \
            if wavelength_nm else 0.0
        fields[role] = FieldSpec(
            role=role,
            rabi=_freq(f.get("rabi", 0.0), gamma_a_mhz, f"{ctx}.rabi"),
            detuning=_freq(f.get("detuning", 0.0), gamma_a_mhz,
                           f"{ctx}.detuning"),
            polarization=(a / norm, b / norm),
            k=k)
    return fields


def _build_medium(node, decay: DecayParams) -> MediumParams | None:
    if node is None:
        return None
    _check_keys(node, {"n_atom_cm3", "length_cm", "wavelength_nm", "gamma",
                       "omega_min", "b_min_sq"}, "medium")
    return MediumParams(
        n_atom=_number(_required(node, "n_atom_cm3", "medium"),
                       "medium.n_atom_cm3"),
        length=_number(_required(node, "length_cm", "medium"),
                       "medium.length_cm"),
        wavelength_nm=_number(node.get("wavelength_nm", 1323.0),
                              "medium.wavelength_nm"),
        gamma=_number(node.get("gamma", decay.gamma_b), "medium.gamma"),
        omega_min=_number(_required(node, "omega_min", "medium"),
                          "medium.omega_min"),
        b_min_sq=_number(node.get("b_min_sq", 1.0 / 12.0),
                         "medium.b_min_sq"))


def _build_sweep(node) -> SweepSettings | None:
    if node is None:
        return None
    _check_keys(node, {"detuning_start", "detuning_stop", "detuning_points",
                       "geometry", "velocity"}, "sweep")
    vel = node.get("velocity", {})
    _check_keys(vel, {"kind", "points", "temperature_k", "mass_amu", "span"},
                "sweep.velocity")
    geometry = node.get("geometry", COUNTER)
    if geometry not in (COUNTER, CO):
        raise ConfigError(f"sweep.geometry must be {COUNTER} or {CO}")
    start, stop = (_number(_required(node, key, "sweep"), f"sweep.{key}")
                   for key in ("detuning_start", "detuning_stop"))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("sweep.detuning_start and sweep.detuning_stop "
                          "must be finite")
    kind = str(vel.get("kind", "gauss_hermite"))
    if kind not in VELOCITY_KINDS:
        raise ConfigError(f"sweep.velocity.kind must be one of "
                          f"{VELOCITY_KINDS}, got {kind!r}")
    # checked here, where validate sees them, rather than when the grid is
    # built; building a Gauss-Hermite grid costs milliseconds
    thermal = {}
    for key, default in (("temperature_k", 403.0), ("mass_amu", 86.909),
                         ("span", 4.0)):
        value = _number(vel.get(key, default), f"sweep.velocity.{key}")
        if not 0 < value < math.inf:
            raise ConfigError(f"sweep.velocity.{key} must be finite and "
                              f"positive, got {value!r}")
        thermal[key] = value
    points = _count(vel.get("points", DEFAULT_VELOCITY_POINTS),
                    "sweep.velocity.points")
    if kind == "gauss_hermite" and points > MAX_GAUSS_HERMITE_NODES:
        raise ConfigError(f"sweep.velocity.points must be at most "
                          f"{MAX_GAUSS_HERMITE_NODES} for a gauss_hermite "
                          f"grid, got {points}")
    return SweepSettings(
        detuning_start=start, detuning_stop=stop,
        detuning_points=_count(node.get("detuning_points", 512),
                               "sweep.detuning_points"),
        geometry=geometry,
        velocity_kind=kind,
        velocity_points=points,
        temperature=thermal["temperature_k"], mass_amu=thermal["mass_amu"],
        span=thermal["span"])


def _build_analyzer(node) -> AnalyzerSettings:
    if node is None:
        return AnalyzerSettings(1.0, DEFAULT_LCR_CALIBRATION)
    _check_keys(node, {"e0", "lcr_calibration"}, "analyzer")
    cal = DEFAULT_LCR_CALIBRATION
    if "lcr_calibration" in node:
        c = node["lcr_calibration"]
        _check_keys(c, {"voltages", "thetas"}, "analyzer.lcr_calibration")
        ctx = "analyzer.lcr_calibration"
        cal = LcrCalibration(
            tuple(_number(v, f"{ctx}.voltages")
                  for v in _required(c, "voltages", ctx)),
            tuple(_number(t, f"{ctx}.thetas")
                  for t in _required(c, "thetas", ctx)))
    e0 = _number(node.get("e0", 1.0), "analyzer.e0")
    if not 0 < e0 < math.inf:
        raise ConfigError(f"analyzer.e0 must be finite and positive, "
                          f"got {e0!r}")
    return AnalyzerSettings(e0, cal)
