"""Scenario schema: presets, strict key checking, unit handling, and the
mapping from configuration to model objects."""

import copy
import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from vaporplate import (PRESETS, ConfigError, SublevelId, VaporplateError,
                        VelocityGrid, build_hamiltonian, load_preset,
                        load_scenario, scenario_from_config, steady_state,
                        sweep, vectorize)
from vaporplate.scenario import _freq


@pytest.fixture(scope="module")
def base_cfg():
    """A small valid config used as the mutation target."""
    return {
        "schema": 1,
        "name": "tiny",
        "gamma_a_mhz": 5.75,
        "scheme": {
            "nuclear_spin": 1.5,
            "manifolds": [
                {"label": "G", "tier": 0, "f": 2, "mf_values": [0]},
                {"label": "E", "tier": 1, "f": 1, "mf_values": [-1, 1]},
            ],
        },
        "decay": {
            "gamma_a": 1.0,
            "explicit_channels": [
                {"from": "E:1", "to": "G:0", "rate": 1.0},
                {"from": "E:-1", "to": "G:0", "rate": 1.0},
            ],
        },
        "transitions": {
            "mode": "explicit",
            "entries": [
                {"field": "pump", "upper": "E:1", "lower": "G:0", "q": 1,
                 "strength": 1.0},
                {"field": "pump", "upper": "E:-1", "lower": "G:0", "q": -1,
                 "strength": 1.0},
            ],
        },
        "fields": {
            "pump": {"rabi": 2.0, "detuning": 0.0,
                     "polarization": {"plus": 1.0, "minus": 0.0},
                     "wavelength_nm": 795.0},
            "signal": {"rabi": 0.1, "wavelength_nm": 1323.0},
        },
    }


def mutated(cfg, path, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def test_all_presets_load():
    for name in PRESETS:
        scn = load_preset(name)
        assert scn.scheme.n_levels >= 2
        assert "pump" in scn.fields


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("fig99")


def test_full_preset_dimensions():
    scn = load_preset("fig7-full")
    assert scn.scheme.n_levels == 18
    assert len(scn.transitions.entries) == 24
    assert scn.medium is not None and scn.sweep is not None


def test_reduced_preset_dimensions():
    scn = load_preset("fig7-reduced15")
    assert scn.scheme.n_levels == 15
    assert SublevelId("R", lumped=True) not in scn.scheme.index


def test_wavevector_ratio():
    scn = load_preset("fig7-full")
    ratio = scn.fields["pump"].k / scn.fields["signal"].k
    assert ratio == pytest.approx(1323.0 / 795.0, rel=1e-12)


def test_sweep_spec_overrides():
    scn = load_preset("fig7-full")
    spec = scn.sweep_spec(geometry="co_propagating", detuning_points=16,
                          velocity_points=4)
    assert spec.geometry == "co_propagating"
    assert len(spec.detunings) == 16
    assert len(spec.grid.velocities) == 4


def test_scenario_without_sweep_cannot_build_spec(base_cfg):
    scn = scenario_from_config(copy.deepcopy(base_cfg))
    with pytest.raises(ConfigError, match="no sweep"):
        scn.sweep_spec()


def test_load_scenario_from_file(tmp_path, base_cfg):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(base_cfg))
    scn = load_scenario(str(path))
    assert scn.name == "tiny"
    assert scn.scheme.n_levels == 3


# ---------------------------------------------------------------------------
# Strict schema
# ---------------------------------------------------------------------------

def test_unknown_top_level_key_rejected(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    cfg["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        scenario_from_config(cfg)


def test_unknown_nested_keys_rejected(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    cfg["scheme"]["manifolds"][0]["typo"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        scenario_from_config(cfg)
    cfg = copy.deepcopy(base_cfg)
    cfg["fields"]["pump"]["polarization"]["sigma"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        scenario_from_config(cfg)


def test_schema_version_enforced(base_cfg):
    with pytest.raises(ConfigError, match="schema version"):
        scenario_from_config(mutated(base_cfg, ["schema"], 2))


def test_missing_required_section(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    del cfg["fields"]
    with pytest.raises(ConfigError, match="missing section"):
        scenario_from_config(cfg)


@pytest.mark.parametrize("path", [
    ["transitions", "entries", 0, "q"],
    ["transitions", "entries", 1, "field"],
    ["decay", "explicit_channels", 0, "rate"],
    ["decay", "explicit_channels", 1, "from"],
])
def test_missing_required_key_is_named(base_cfg, path):
    cfg = copy.deepcopy(base_cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    where = "{}.{}[{}].{}".format(*path)
    with pytest.raises(ConfigError, match=re.escape(f"{where} is required")):
        scenario_from_config(cfg)


# ---------------------------------------------------------------------------
# Units and values
# ---------------------------------------------------------------------------

def test_frequency_units():
    assert _freq(3.0, 5.75, "x") == 3.0
    assert _freq({"value": 5.75, "unit": "MHz"}, 5.75, "x") == \
        pytest.approx(1.0)
    assert _freq({"value": 1.2, "unit": "GHz"}, 5.75, "x") == \
        pytest.approx(1200.0 / 5.75)
    assert _freq({"value": 7.0, "unit": "gamma_a"}, 5.75, "x") == 7.0
    with pytest.raises(ConfigError, match="unknown unit"):
        _freq({"value": 1.0, "unit": "Hz"}, 5.75, "x")


def test_polarization_is_normalized(base_cfg):
    cfg = mutated(base_cfg, ["fields", "pump", "polarization"],
                  {"plus": "3+4j", "minus": 0.0})
    scn = scenario_from_config(cfg)
    a, b = scn.fields["pump"].polarization
    assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-14)
    assert a == pytest.approx(0.6 + 0.8j)


def test_zero_polarization_rejected(base_cfg):
    cfg = mutated(base_cfg, ["fields", "pump", "polarization"],
                  {"plus": 0.0, "minus": 0.0})
    with pytest.raises(ConfigError, match="nonzero"):
        scenario_from_config(cfg)


def test_bad_complex_literal_rejected(base_cfg):
    cfg = mutated(base_cfg, ["fields", "pump", "polarization"],
                  {"plus": "one", "minus": 0.0})
    with pytest.raises(ConfigError, match="complex"):
        scenario_from_config(cfg)


# ---------------------------------------------------------------------------
# Level addresses
# ---------------------------------------------------------------------------

def test_lumped_level_address_must_not_carry_mf(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    cfg["scheme"]["manifolds"].append(
        {"label": "L", "tier": 1, "f_values": [1], "lumped": True})
    cfg["decay"]["explicit_channels"].append(
        {"from": "L:0", "to": "G:0", "rate": 0.1})
    with pytest.raises(ConfigError, match="lumped"):
        scenario_from_config(cfg)


def test_resolved_level_address_needs_mf(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    cfg["decay"]["explicit_channels"][0]["from"] = "E"
    with pytest.raises(ConfigError, match="resolved"):
        scenario_from_config(cfg)


def test_unknown_manifold_in_address(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    cfg["decay"]["explicit_channels"][0]["from"] = "Q:1"
    with pytest.raises(ConfigError, match="unknown manifold"):
        scenario_from_config(cfg)


# ---------------------------------------------------------------------------
# Derived decay network
# ---------------------------------------------------------------------------

def test_reservoir_required_when_configured():
    scn = load_preset("fig7-full")
    import yaml as _yaml
    from importlib import resources
    text = resources.files("vaporplate.data").joinpath("fig7-full.yaml") \
        .read_text()
    cfg = _yaml.safe_load(text)
    cfg["scheme"]["manifolds"] = [
        m for m in cfg["scheme"]["manifolds"] if m["label"] != "R"]
    with pytest.raises(ConfigError, match="reservoir"):
        scenario_from_config(cfg)
    assert scn.scheme.n_levels == 18


def test_upper_level_total_rate_conserved():
    """Every excited slot loses exactly its configured total rate."""
    for name in ("fig7-full", "fig7-reduced15"):
        scn = load_preset(name)
        chans = dict(scn.network.channels)
        dec = scn.scheme.decay
        f_d1 = dec.d1_d2_ratio / (1.0 + dec.d1_d2_ratio)
        for k, lev in enumerate(scn.scheme.levels):
            tier = scn.scheme.tiers[k]
            if lev.lumped or tier != 2:
                continue
            total = sum(rate for _, rate in chans[k])
            assert total == pytest.approx(dec.gamma_b, rel=1e-12), name
            d1 = sum(rate for tgt, rate in chans[k]
                     if scn.scheme.tiers[tgt] == 1
                     and not scn.scheme.levels[tgt].lumped)
            assert d1 == pytest.approx(dec.gamma_b * f_d1, rel=1e-12), name


def test_ground_exchange_channel_count():
    scn = load_preset("fig7-reduced15")
    grounds = scn.scheme.ground_slots()
    chans = dict(scn.network.channels)
    n = len(grounds)
    per = scn.scheme.decay.gamma_g / (n - 1)
    for g in grounds:
        ex = [(tgt, r) for tgt, r in chans.get(g, ()) if tgt in grounds]
        assert len(ex) == n - 1
        assert all(r == pytest.approx(per) for _, r in ex)


def test_medium_gamma_defaults_to_gamma_b(base_cfg):
    cfg = copy.deepcopy(base_cfg)
    cfg["decay"] = {"gamma_a": 1.0, "gamma_b": 0.6,
                    "explicit_channels": cfg["decay"]["explicit_channels"]}
    cfg["medium"] = {"n_atom_cm3": 1e10, "length_cm": 7.5, "omega_min": 0.1}
    scn = scenario_from_config(cfg)
    assert scn.medium.gamma == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Mutated presets: every bad number ends in a VaporplateError
# ---------------------------------------------------------------------------

def _preset_config(name):
    return yaml.safe_load(resources.files("vaporplate.data")
                          .joinpath(f"{name}.yaml").read_text())


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _numeric_leaves(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _numeric_leaves(child, path + (k,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


_PROPERTY_PRESETS = {name: _preset_config(name)
                     for name in ("fig7-reduced15", "fig1-ideal")}
_MUTATIONS = [(name, path, value)
              for name, cfg in _PROPERTY_PRESETS.items()
              for path in _numeric_leaves(cfg)
              for value in (math.nan, math.inf, -math.inf, -1, 0, 1e300, 1.7)]


# numpy warns on overflow along the way (a Rabi frequency of 1e300, say)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mutation=st.sampled_from(_MUTATIONS))
def test_mutated_preset_solves_to_finite_rows_or_raises(mutation):
    """One numeric leaf of a preset set to a bad value: the scenario loads,
    solves and sweeps (2 detunings, one velocity) to finite numbers, or a
    VaporplateError says why not.  The 651 mutations are few enough that
    the search exhausts them."""
    name, path, value = mutation
    cfg = mutated(_PROPERTY_PRESETS[name], path, value)
    try:
        scn = scenario_from_config(cfg, name=name)
        h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields)
        rho = steady_state(vectorize(h, scn.scheme, scn.network))
        spec = replace(scn.sweep_spec(detuning_points=2),
                       grid=VelocityGrid.delta())
        rows = [r.as_tuple() for r in sweep(spec)]
    except VaporplateError:
        return
    assert np.all(np.isfinite(rho))
    assert np.all(np.isfinite(rows))
