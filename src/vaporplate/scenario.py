"""Scenario files: a versioned YAML schema describing the level scheme,
fields, decay network, medium, sweep, and analyzer settings.

Unknown keys are rejected everywhere so typos cannot silently change a
simulation.  Frequencies may be given as bare numbers (gamma_a units) or as
{value, unit} mappings with unit MHz, GHz, or gamma_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .atomic import (DecayParams, LevelScheme, Manifold, SublevelId,
                     TransitionEntry, TransitionTable, decay_distribution,
                     derive_transitions, load_table1)
from .doppler import MAX_GAUSS_HERMITE_NODES, SweepSpec, VelocityGrid
from .errors import ConfigError
from .liouville import DecayNetwork, FieldSpec
from .names import CO, COUNTER, MAX_POINTS, PRESETS
from .polarimetry import DEFAULT_LCR_CALIBRATION, LcrCalibration, MediumParams

SCHEMA_VERSION = 1

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


_REQUIRED = object()


def _get(node, key, context, parse=None, default=_REQUIRED):
    """node[key], else default, passed through parse(value, context=path)
    when parse is given; path, "context.key", names the key in its errors,
    and a missing key without a default is a ConfigError naming it."""
    path = f"{context}.{key}"
    if key in node:
        value = node[key]
    elif default is _REQUIRED:
        raise ConfigError(f"{path} is required")
    else:
        value = default
    return value if parse is None else parse(value, context=path)


def _list(values, context) -> tuple:
    """A YAML list as a tuple.  Any other value (a string, a number, null)
    is a ConfigError naming context, not something to iterate."""
    if not isinstance(values, list):
        raise ConfigError(f"{context}: expected a list, got {values!r}")
    return tuple(values)


def _each(parse):
    """A parse for a list: parse applied to each item, as a tuple."""
    return lambda values, context: tuple(parse(x, context)
                                         for x in _list(values, context))


def _number(value, context) -> float:
    """A number (or numeric string) as a float.  NaN and inf pass: the
    model objects reject them with the range they expect."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}: expected a number, got {value!r}") \
            from None


def _label(value, context) -> str:
    """A manifold label as text; one that names no manifold is refused
    where it is looked up."""
    return str(value)


def _positive(value, context) -> float:
    number = _number(value, context)
    if not 0 < number < math.inf:
        raise ConfigError(f"{context} must be finite and positive, "
                          f"got {number!r}")
    return number


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


def _rate(value, gamma_a_mhz, context) -> float:
    """A decay rate in gamma_a units: finite and >= 0."""
    rate = _freq(value, gamma_a_mhz, context)
    if not 0 <= rate < math.inf:
        raise ConfigError(f"{context} must be finite and >= 0, got {rate!r}")
    return rate


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
    velocity_points: int           # the grid's nodes: 1 for a delta grid
    temperature: float
    mass_amu: float
    span: float

    def detunings(self, points: int | None = None) -> np.ndarray:
        return np.linspace(self.detuning_start, self.detuning_stop,
                           self.detuning_points if points is None else points)

    def grid(self, points: int | None = None) -> VelocityGrid:
        if self.velocity_kind == "delta":
            if points is not None:
                raise ConfigError(f"{points} velocity points given for a "
                                  "delta velocity grid, which has one node")
            return VelocityGrid.delta(self.temperature, self.mass_amu)
        n = self.velocity_points if points is None else points
        if self.velocity_kind == "gauss_hermite":
            return VelocityGrid.gauss_hermite(n, self.temperature,
                                              self.mass_amu)
        if self.velocity_kind == "uniform":
            return VelocityGrid.uniform(n, self.temperature, self.mass_amu,
                                        self.span)
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

def _parse_yaml(text: str, source: str):
    """The YAML document in text, read from source; malformed YAML raises
    a one-line ConfigError naming source.  Uses PyYAML's C parser when
    PyYAML was built with libyaml: the two give equal documents, and the
    C one parses a preset about eight times faster."""
    import yaml         # here, not at the top: it slows CLI start-up
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" \
            if mark else ""
        problem = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"{source}{where}: malformed YAML: "
                          f"{' '.join(problem.split())}") from None


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at "
                              f"byte {exc.start}") from None
    return scenario_from_config(_parse_yaml(text, path), name=path)


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESETS}")
    text = resources.files("vaporplate.data").joinpath(f"{name}.yaml") \
        .read_text()
    return scenario_from_config(_parse_yaml(text, f"preset {name}"),
                                name=name)


def scenario_from_config(cfg: dict, name: str = "<config>") -> Scenario:
    _check_keys(cfg, {"schema", "name", "description", "gamma_a_mhz",
                      "scheme", "decay", "transitions", "fields", "medium",
                      "sweep", "analyzer"}, name)
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"{name}: schema version must be {SCHEMA_VERSION}")
    for key in ("scheme", "decay", "fields"):
        if key not in cfg:
            raise ConfigError(f"{name}: missing section {key!r}")
    gamma_a_mhz = _positive(cfg.get("gamma_a_mhz", 5.75), "gamma_a_mhz")
    label = cfg.get("name", name)

    scheme = _build_scheme(cfg["scheme"], cfg["decay"], gamma_a_mhz)
    transitions = _build_transitions(cfg.get("transitions", {"mode": "derived"}),
                                     scheme)
    network = _build_network(cfg["decay"], scheme, gamma_a_mhz)
    fields = _build_fields(cfg["fields"], gamma_a_mhz)
    medium = _build_medium(cfg.get("medium"), scheme, cfg["fields"], fields)
    sweep_settings = _build_sweep(cfg.get("sweep"))
    analyzer = _build_analyzer(cfg.get("analyzer"))
    return Scenario(label, gamma_a_mhz, scheme, transitions, network, fields,
                    medium, sweep_settings, analyzer)


def _build_scheme(node, decay_node, gamma_a_mhz) -> LevelScheme:
    _check_keys(node, {"nuclear_spin", "manifolds"}, "scheme")
    freq = partial(_freq, gamma_a_mhz=gamma_a_mhz)
    manifolds = []
    for k, m in enumerate(_get(node, "manifolds", "scheme", _list, [])):
        ctx = f"scheme.manifolds[{k}]"
        _check_keys(m, {"label", "tier", "j", "f", "f_values", "offset",
                        "lumped", "mf_values", "decays_to"}, ctx)
        lumped = bool(m.get("lumped", False))
        if "f" in m and "f_values" in m:
            raise ConfigError(f"{ctx}: give either f or f_values")
        if "f" in m:
            f_values = (_get(m, "f", ctx, _integer),)
        elif "f_values" in m:
            f_values = _get(m, "f_values", ctx, _each(_integer))
        else:
            raise ConfigError(f"{ctx}: f (or f_values) is required")
        manifolds.append(Manifold(
            label=_get(m, "label", ctx, _label),
            tier=_get(m, "tier", ctx, _integer),
            j=_get(m, "j", ctx, _number, 0.5),
            f_values=f_values,
            offset=_get(m, "offset", ctx, freq, 0.0),
            lumped=lumped,
            mf_values=None if m.get("mf_values") is None
            else _get(m, "mf_values", ctx, _each(_integer)),
            decays_to=_get(m, "decays_to", ctx, _each(_label), []),
        ))
    _check_keys(decay_node, _DECAY_KEYS, "decay")
    params = DecayParams(
        gamma_a=_get(decay_node, "gamma_a", "decay", freq, 1.0),
        gamma_b=_get(decay_node, "gamma_b", "decay", freq, 0.6),
        gamma_g=_get(decay_node, "gamma_g", "decay", freq, 0.0),
        d1_d2_ratio=_get(decay_node, "d1_d2_ratio", "decay", _number, 0.5))
    return LevelScheme.build(
        manifolds, params,
        nuclear_spin=_get(node, "nuclear_spin", "scheme", _number, 1.5))


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
    for k, e in enumerate(_get(node, "entries", "transitions", _list, [])):
        ctx = f"transitions.entries[{k}]"
        _check_keys(e, {"field", "upper", "lower", "q", "strength"}, ctx)
        entries.append(TransitionEntry(
            upper=_parse_level(scheme, _get(e, "upper", ctx), ctx),
            lower=_parse_level(scheme, _get(e, "lower", ctx), ctx),
            q=_get(e, "q", ctx, _integer),
            strength=_get(e, "strength", ctx, _number, 1.0),
            field=str(_get(e, "field", ctx))))
    return TransitionTable(tuple(entries))


def _build_network(node, scheme: LevelScheme, gamma_a_mhz) -> DecayNetwork:
    params = scheme.decay
    decay_rate = partial(_rate, gamma_a_mhz=gamma_a_mhz)
    chans: dict[int, list[tuple[int, float]]] = {}

    def add(src: int, tgt: int, rate: float):
        if rate != 0:
            chans.setdefault(src, []).append((tgt, rate))

    if "explicit_channels" in node:
        for k, c in enumerate(_get(node, "explicit_channels", "decay",
                                   _list)):
            ctx = f"decay.explicit_channels[{k}]"
            _check_keys(c, {"from", "to", "rate"}, ctx)
            src = scheme.index[_parse_level(scheme, _get(c, "from", ctx), ctx)]
            tgt = scheme.index[_parse_level(scheme, _get(c, "to", ctx), ctx)]
            add(src, tgt, _get(c, "rate", ctx, decay_rate))
    else:
        f_d1 = params.d1_d2_ratio / (1.0 + params.d1_d2_ratio)
        path = node.get("six_s_decay_path", "reservoir")
        if path not in ("reservoir", "effective"):
            raise ConfigError("decay.six_s_decay_path must be "
                              "reservoir or effective")
        res_label = _get(node, "reservoir", "decay", _label, "R")
        res = SublevelId(res_label, lumped=True)
        uppers = []         # the tier-2 levels, whose D2 decay feeds res
        for k, lev in enumerate(scheme.levels):
            if lev.lumped or scheme.tiers[k] == 0:
                continue
            if scheme.tiers[k] == 1:
                for slot, rate in decay_distribution(lev, scheme,
                                                     params.gamma_a):
                    add(k, scheme.index[slot], rate)
            elif scheme.tiers[k] == 2:
                uppers.append(lev)
                for slot, rate in decay_distribution(
                        lev, scheme, params.gamma_b * f_d1):
                    add(k, scheme.index[slot], rate)
                d2_rate = params.gamma_b * (1.0 - f_d1)
                if path == "effective":
                    for tgt, frac in _table1_distribution(scheme, [lev]):
                        add(k, tgt, d2_rate * frac)
                elif res not in scheme.index:
                    raise ConfigError(
                        f"decay: reservoir manifold {res_label!r} missing "
                        "from the scheme (or use six_s_decay_path: "
                        "effective)")
                else:
                    add(k, scheme.index[res], d2_rate)

        if res in scheme.index and path == "reservoir":
            gamma_r = _get(node, "gamma_r", "decay", decay_rate, 1.0551)
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

    A row goes to the resolved ground sublevel with its F and mF, the
    first one if two manifolds have it; an F=1 row without one aggregates
    into the last lumped ground reservoir, and any other row is dropped
    (None; dropped rows are renormalized away)."""
    table = load_table1()
    grounds = [(k, scheme.levels[k]) for k in scheme.ground_slots()]
    lumped = [k for k, lev in grounds if lev.lumped]
    resolved = {(lev.f, lev.mf): k for k, lev in reversed(grounds)
                if not lev.lumped}
    targets = [resolved.get((row.f, row.mf),
                            lumped[-1] if lumped and row.f == 1 else None)
               for row in table.rows]
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
    freq = partial(_freq, gamma_a_mhz=gamma_a_mhz)
    fields = {}
    for role, f in node.items():
        ctx = f"fields.{role}"
        _check_keys(f, {"rabi", "detuning", "polarization", "wavelength_nm"},
                    ctx)
        pol = f.get("polarization", {"plus": 1.0, "minus": 0.0})
        _check_keys(pol, {"plus", "minus"}, f"{ctx}.polarization")
        a = _get(pol, "plus", f"{ctx}.polarization", _complexish, 0.0)
        b = _get(pol, "minus", f"{ctx}.polarization", _complexish, 0.0)
        norm = math.hypot(abs(a), abs(b))
        if norm == 0:
            raise ConfigError(f"{ctx}: polarization must be nonzero")
        wavelength_nm = _get(f, "wavelength_nm", ctx, _number, 0.0)
        if not 0 <= wavelength_nm < math.inf:
            raise ConfigError(f"{ctx}.wavelength_nm must be finite and "
                              f">= 0 (0: no Doppler shift), "
                              f"got {wavelength_nm!r}")
        k = 1.0 / (wavelength_nm * 1e-9 * gamma_a_mhz * 1e6) \
            if wavelength_nm else 0.0
        fields[role] = FieldSpec(
            role=role,
            rabi=_get(f, "rabi", ctx, freq, 0.0),
            detuning=_get(f, "detuning", ctx, freq, 0.0),
            polarization=(a / norm, b / norm),
            k=k)
    return fields


def _build_medium(node, scheme, fields_node, fields) -> MediumParams | None:
    """The medium at the signal's wavelength, its response scale checked
    at the signal's Rabi frequency (MediumParams.beta).  medium.omega_min
    and medium.wavelength_nm, which restated the two, may still be given
    with the signal's values."""
    if node is None:
        return None
    _check_keys(node, {"n_atom_cm3", "length_cm", "gamma", "b_min_sq",
                       "omega_min", "wavelength_nm"}, "medium")
    lam = _get(fields_node.get("signal", {}), "wavelength_nm",
               "fields.signal", _positive, 0.0)
    for key, value, source in (("omega_min", fields["signal"].rabi, "rabi"),
                               ("wavelength_nm", lam, "wavelength_nm")):
        if (given := _get(node, key, "medium", _number, value)) != value:
            raise ConfigError(f"medium.{key} {given!r} differs from fields."
                              f"signal.{source} {value!r}: drop medium.{key}")
    medium = MediumParams(
        n_atom=_get(node, "n_atom_cm3", "medium", _number),
        length=_get(node, "length_cm", "medium", _number),
        wavelength_nm=lam,
        gamma=_get(node, "gamma", "medium", _number, scheme.decay.gamma_b),
        b_min_sq=_get(node, "b_min_sq", "medium", _number, 1.0 / 12.0))
    medium.beta(fields["signal"].rabi)
    return medium


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
    start, stop = (_get(node, key, "sweep", _number)
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
    thermal = {key: _get(vel, key, "sweep.velocity", _positive, default)
               for key, default in (("temperature_k", 403.0),
                                    ("mass_amu", 86.909), ("span", 4.0))}
    if kind == "delta" and "points" in vel:
        raise ConfigError("sweep.velocity.points cannot be set for a delta "
                          "grid, which has one node")
    points = 1 if kind == "delta" else _get(
        vel, "points", "sweep.velocity", _count, DEFAULT_VELOCITY_POINTS)
    if kind == "uniform" and points < 2:
        raise ConfigError(f"sweep.velocity.points must be at least 2 for a "
                          f"uniform grid, got {points}")
    if kind == "gauss_hermite" and points > MAX_GAUSS_HERMITE_NODES:
        raise ConfigError(f"sweep.velocity.points must be at most "
                          f"{MAX_GAUSS_HERMITE_NODES} for a gauss_hermite "
                          f"grid, got {points}")
    return SweepSettings(
        detuning_start=start, detuning_stop=stop,
        detuning_points=_get(node, "detuning_points", "sweep", _count, 512),
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
        ctx = "analyzer.lcr_calibration"
        _check_keys(c, {"voltages", "thetas"}, ctx)
        cal = LcrCalibration(_get(c, "voltages", ctx, _each(_number)),
                             _get(c, "thetas", ctx, _each(_number)))
    return AnalyzerSettings(_get(node, "e0", "analyzer", _positive, 1.0), cal)
