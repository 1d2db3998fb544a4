"""Angular-momentum amplitudes, level schemes, and branching tables."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import vaporplate
from vaporplate import (BranchingTable, DecayParams, LevelScheme, Manifold,
                        ModelError, SublevelId, TransitionEntry,
                        TransitionTable, decay_distribution,
                        derive_transitions, load_table1, relative_strength)

SQRT6 = math.sqrt(6.0)


def ladder_scheme(g2_mfs=None, gamma_g=0.0):
    """G2(F=2) + lumped G1 + E1(F'=1) + E2(F'=2) + U1(F''=1)."""
    manifolds = [
        Manifold("G2", tier=0, j=0.5, f_values=(2,), mf_values=g2_mfs),
        Manifold("G1", tier=0, j=0.5, f_values=(1,), lumped=True),
        Manifold("E1", tier=1, j=0.5, f_values=(1,), decays_to=("G2", "G1")),
        Manifold("E2", tier=1, j=0.5, f_values=(2,), offset=141.4,
                 decays_to=("G2", "G1")),
        Manifold("U1", tier=2, j=0.5, f_values=(1,), decays_to=("E1", "E2")),
    ]
    return LevelScheme.build(manifolds, DecayParams(gamma_g=gamma_g))


# ---------------------------------------------------------------------------
# relative_strength
# ---------------------------------------------------------------------------

def test_selection_rule_gives_zero():
    assert relative_strength(2, 1, 2, 1, 1) == 0.0
    assert relative_strength(1, 0, 2, 2, -1) == 0.0


def test_invalid_quantum_numbers_rejected():
    with pytest.raises(ValueError):
        relative_strength(1, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        relative_strength(2, 0, 1, -2, 1)
    with pytest.raises(ValueError):
        relative_strength(2, 0, 2, -2, 2)


def test_relative_strength_matches_sympy():
    """The Racah sums against sympy's Wigner symbols, the test-only oracle,
    over I <= 7/2, J in {1/2, 3/2}, F <= 5 and every mF and q.  Where sympy
    refuses the couplings (a triad with a half-integer sum) the amplitude
    is 0."""
    from sympy import Rational, sqrt
    from sympy.physics.wigner import clebsch_gordan, wigner_6j

    worst, compared = 0.0, 0
    for i2 in range(8):
        spin = Rational(i2, 2)
        for ju in (Rational(1, 2), Rational(3, 2)):
            for jl in (Rational(1, 2), Rational(3, 2)):
                for fu in range(6):
                    for fl in range(6):
                        for mu in range(-fu, fu + 1):
                            for q in (-1, 0, 1):
                                ml = mu - q
                                if abs(ml) > fl:
                                    continue
                                a = relative_strength(
                                    fu, mu, fl, ml, q, j_upper=float(ju),
                                    j_lower=float(jl),
                                    nuclear_spin=float(spin))
                                try:
                                    six = wigner_6j(jl, ju, 1, fu, fl, spin)
                                except ValueError:
                                    assert a == 0.0
                                    continue
                                ref = float(sqrt((2 * fl + 1) * (2 * jl + 1))
                                            * six * clebsch_gordan(
                                                fl, 1, fu, ml, q, mu))
                                worst = max(worst, abs(a - ref))
                                compared += 1
    assert compared == 6816
    assert worst <= 2.3e-16


def test_presets_load_and_solve_without_sympy():
    """sympy is a test dependency only: with it blocked, every preset loads
    and solves, `vaporplate validate` succeeds, and no sympy module is
    imported."""
    script = textwrap.dedent("""
        import sys
        sys.modules["sympy"] = None         # any import of sympy now fails
        from vaporplate import (PRESETS, build_hamiltonian, load_preset,
                                steady_state, vectorize)
        from vaporplate.cli import main
        for name in PRESETS:
            scn = load_preset(name)
            h = build_hamiltonian(scn.scheme, scn.transitions, scn.fields)
            steady_state(vectorize(h, scn.scheme, scn.network))
        assert main(["validate", "--preset", "fig7-full"]) == 0
        print(sorted(m for m, mod in sys.modules.items()
                     if m.split(".")[0] == "sympy" and mod is not None))
    """)
    src = os.path.dirname(os.path.dirname(vaporplate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_relative_strength_rejects_bad_angular_momenta():
    for bad in (0.7, -0.5, float("nan"), float("inf"), 1e300):
        with pytest.raises(ValueError, match="half-integer"):
            relative_strength(1, 0, 2, -1, 1, j_upper=bad)
        with pytest.raises(ValueError, match="half-integer"):
            relative_strength(1, 0, 2, -1, 1, nuclear_spin=bad)


def test_intermediate_f2_m0_circular_amplitudes_to_f2():
    """sigma+/sigma-/pi amplitudes from F'=2, mF=0 down to F=2 go as
    sqrt(3):sqrt(3):0."""
    ap = relative_strength(2, 0, 2, -1, 1)
    am = relative_strength(2, 0, 2, 1, -1)
    api = relative_strength(2, 0, 2, 0, 0)
    assert abs(ap) == pytest.approx(abs(am), abs=1e-12)
    assert api == pytest.approx(0.0, abs=1e-12)
    assert ap != 0.0


def test_intermediate_f2_m0_amplitudes_to_f1_are_1_1_2():
    ap = relative_strength(2, 0, 1, -1, 1)
    am = relative_strength(2, 0, 1, 1, -1)
    api = relative_strength(2, 0, 1, 0, 0)
    assert abs(ap) == pytest.approx(abs(am), abs=1e-12)
    assert abs(api) == pytest.approx(2.0 * abs(ap), abs=1e-12)


def test_total_decay_weight_is_isotropic():
    """Summed squared amplitudes out of an upper sublevel do not depend on
    its mF (spherical symmetry of spontaneous emission)."""
    for f_up in (1, 2):
        totals = []
        for m_up in range(-f_up, f_up + 1):
            t = 0.0
            for f_lo in (1, 2):
                for q in (-1, 0, 1):
                    m_lo = m_up - q
                    if abs(m_lo) <= f_lo:
                        t += relative_strength(f_up, m_up, f_lo, m_lo, q) ** 2
            totals.append(t)
        assert np.allclose(totals, totals[0], atol=1e-12)


# ---------------------------------------------------------------------------
# decay_distribution
# ---------------------------------------------------------------------------

def test_decay_example_intermediate_f2_m0():
    """F'=2, mF=0 decays as gamma_a/4, gamma_a/4, 0 to F=2 (mF=-1,+1,0) and
    gamma_a/2 into the lumped F=1 reservoir."""
    scheme = ladder_scheme()
    dist = dict(decay_distribution(SublevelId("E2", f=2, mf=0), scheme, 1.0))
    assert dist[SublevelId("G2", f=2, mf=-1)] == pytest.approx(0.25, abs=1e-12)
    assert dist[SublevelId("G2", f=2, mf=1)] == pytest.approx(0.25, abs=1e-12)
    assert SublevelId("G2", f=2, mf=0) not in dist \
        or dist[SublevelId("G2", f=2, mf=0)] == pytest.approx(0.0, abs=1e-12)
    assert dist[SublevelId("G1", lumped=True)] == pytest.approx(0.5, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_decay_distribution_normalizes_to_total_rate():
    scheme = ladder_scheme()
    for lev in scheme.levels:
        if lev.manifold in ("E1", "E2", "U1"):
            dist = decay_distribution(lev, scheme, 0.6)
            assert sum(r for _, r in dist) == pytest.approx(0.6, abs=1e-12)


def test_decay_distribution_drops_missing_sublevels_and_renormalizes():
    full = ladder_scheme()
    restricted = ladder_scheme(g2_mfs=(-1, 0, 1))
    lev = SublevelId("E2", f=2, mf=2)
    d_full = dict(decay_distribution(lev, full, 1.0))
    d_res = dict(decay_distribution(lev, restricted, 1.0))
    # mF=+2 target exists only in the full scheme
    assert SublevelId("G2", f=2, mf=2) in d_full
    assert SublevelId("G2", f=2, mf=2) not in d_res
    assert sum(d_res.values()) == pytest.approx(1.0, abs=1e-12)
    # surviving channels keep their relative proportions
    a = d_full[SublevelId("G2", f=2, mf=1)] / d_full[SublevelId("G1", lumped=True)]
    b = d_res[SublevelId("G2", f=2, mf=1)] / d_res[SublevelId("G1", lumped=True)]
    assert a == pytest.approx(b, rel=1e-12)


def test_decay_distribution_orphan_raises():
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(2,), mf_values=(2,)),
        Manifold("E", tier=1, j=0.5, f_values=(1,), mf_values=(-1,),
                 decays_to=("G",)),
    ]
    scheme = LevelScheme.build(manifolds, DecayParams())
    with pytest.raises(ModelError, match="orphan"):
        decay_distribution(SublevelId("E", f=1, mf=-1), scheme, 1.0)


def test_decay_distribution_rejects_lumped_source():
    scheme = ladder_scheme()
    with pytest.raises(ModelError):
        decay_distribution(SublevelId("G1", lumped=True), scheme, 1.0)


# ---------------------------------------------------------------------------
# derive_transitions
# ---------------------------------------------------------------------------

def test_signal_strength_ratio_sqrt6():
    """Strongest-to-weakest signal transition strength is sqrt(6)."""
    scheme = ladder_scheme()
    entries = derive_transitions(scheme, 1, 2, "signal")
    mags = sorted(abs(e.strength) for e in entries)
    assert mags[0] == pytest.approx(1.0, abs=1e-12)
    assert mags[-1] == pytest.approx(SQRT6, abs=1e-10)
    # the sqrt(6) entry is the stretched F'=2, mF=-2 -> F''=1, mF=-1 line
    strongest = max(entries, key=lambda e: abs(e.strength))
    assert {strongest.lower.mf, strongest.upper.mf} in ({-2, -1}, {2, 1})


def test_upper_f1_m1_decay_amplitude_pattern():
    """Dipole amplitudes out of F''=1, mF=+1 toward the intermediate
    manifolds come in the ratio 1:1:1:sqrt(3):sqrt(6)."""
    amps = []
    for f_lo in (1, 2):
        for q in (-1, 0, 1):
            m_lo = 1 - q
            if abs(m_lo) <= f_lo:
                a = relative_strength(1, 1, f_lo, m_lo, q)
                if a != 0.0:
                    amps.append(abs(a))
    ratios = sorted(a / min(amps) for a in amps)
    assert np.allclose(ratios, [1.0, 1.0, 1.0, math.sqrt(3.0), SQRT6],
                       atol=1e-10)
    # squared and normalized, the weakest channel carries 1/12 of the decay
    squares = [r * r for r in ratios]
    assert 1.0 / sum(squares) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_weakest_pump_transition_is_f2_m0_to_f1():
    scheme = ladder_scheme()
    entries = derive_transitions(scheme, 0, 1, "pump")
    weakest = [e for e in entries if abs(abs(e.strength) - 1.0) < 1e-9]
    assert any(e.lower.mf == 0 and e.upper.manifold == "E1"
               and abs(e.upper.mf) == 1 for e in weakest)


def test_derive_transitions_no_coupling_raises():
    scheme = ladder_scheme()
    with pytest.raises(ModelError):
        derive_transitions(scheme, 0, 3, "nothing")  # no tier-3 manifold


# ---------------------------------------------------------------------------
# TransitionTable / TransitionEntry
# ---------------------------------------------------------------------------

def test_transition_entry_selection_rule_enforced():
    with pytest.raises(ModelError):
        TransitionEntry(upper=SublevelId("E", f=1, mf=1),
                        lower=SublevelId("G", f=2, mf=1), q=1,
                        strength=1.0, field="pump")


def test_transition_table_requires_unit_weakest_strength():
    good = TransitionEntry(SublevelId("E", f=1, mf=1),
                           SublevelId("G", f=2, mf=0), 1, 1.0, "pump")
    bad = TransitionEntry(SublevelId("E", f=1, mf=-1),
                          SublevelId("G", f=2, mf=0), -1, 0.5, "pump")
    with pytest.raises(ModelError, match="normalized"):
        TransitionTable((good, bad))
    TransitionTable((good,))   # weakest is exactly 1: fine


# ---------------------------------------------------------------------------
# Shipped effective branching table
# ---------------------------------------------------------------------------

def test_table1_exact_anchor_values():
    t = load_table1()
    f = t.fractions
    assert f[0, 0] == 0.68852
    assert f[1, 2] == 0.190277
    assert f[2, 2] == 0.45166
    assert f[5, 5] == 0.21296
    assert f[5, 6] == 0.1226875
    assert f[6, 6] == 0.199
    assert f[0, 3] == 0.0 and f[0, 4] == 0.0


def test_table1_columns_sum_to_one():
    t = load_table1()
    assert np.max(np.abs(t.fractions.sum(axis=0) - 1.0)) <= 2e-3


def test_table1_mf_reflection_symmetry():
    t = load_table1()
    mirror = [4, 3, 2, 1, 0, 7, 6, 5]   # mF -> -mF within each F block
    f = t.fractions
    for i in range(8):
        for j in range(8):
            assert f[i, j] == f[mirror[i], mirror[j]]


def test_branching_table_validation():
    rows = (SublevelId("A", f=1, mf=0),)
    cols = (SublevelId("B", f=1, mf=0),)
    with pytest.raises(ModelError, match=r"must sum to 1 \(worst deviation "
                                         r"5\.00e-01\)"):
        BranchingTable(rows, cols, np.array([[0.5]]))
    for bad in (1.5, -0.5, np.nan):
        with pytest.raises(ModelError, match=r"must lie in \[0, 1\]"):
            BranchingTable(rows, cols, np.array([[bad]]))
    for shape in ((1, 2), (2, 1), (1,), (), (1, 1, 1)):
        with pytest.raises(ModelError, match="shape does not match labels"):
            BranchingTable(rows, cols, np.ones(shape))


# ---------------------------------------------------------------------------
# Scheme bookkeeping
# ---------------------------------------------------------------------------

def test_scheme_slot_count_and_order():
    scheme = ladder_scheme()
    assert scheme.n_levels == 5 + 1 + 3 + 5 + 3
    assert scheme.levels[0] == SublevelId("G2", f=2, mf=-2)
    assert scheme.index[SublevelId("G1", lumped=True)] == 5
    assert scheme.ground_slots() == [0, 1, 2, 3, 4, 5]


def test_scheme_duplicate_level_rejected():
    manifolds = [
        Manifold("G", tier=0, j=0.5, f_values=(1,)),
        Manifold("G", tier=0, j=0.5, f_values=(1,)),
    ]
    with pytest.raises(ModelError, match="duplicate"):
        LevelScheme.build(manifolds, DecayParams())


def test_sublevel_id_validation():
    with pytest.raises(ModelError):
        SublevelId("X", f=1, mf=2)
    with pytest.raises(ModelError):
        SublevelId("X", lumped=True, mf=0)
    with pytest.raises(ModelError):
        SublevelId("X")          # resolved level without F, mF


def test_manifold_validation():
    ok = dict(label="M", tier=1, j=0.5, f_values=(1,))
    for bad in (dict(j=0.7), dict(j=float("inf")), dict(j=float("nan")),
                dict(j=-0.5), dict(f_values=(-1,)), dict(f_values=(1.5,)),
                dict(f_values=(10 ** 300,)), dict(f_values=()),
                dict(f_values=(1, 2)), dict(tier=3),
                dict(offset=float("nan"))):
        with pytest.raises(ModelError, match="manifold M"):
            Manifold(**{**ok, **bad})
    Manifold(**{**ok, "f_values": (1, 2), "lumped": True})


def test_scheme_rejects_bad_nuclear_spin_and_decay_targets():
    manifolds = [Manifold("G", tier=0, j=0.5, f_values=(1,))]
    for bad in (1.7, float("nan"), -1.0, float("inf")):
        with pytest.raises(ModelError, match="nuclear spin"):
            LevelScheme.build(manifolds, DecayParams(), nuclear_spin=bad)
    manifolds.append(Manifold("E", tier=1, j=0.5, f_values=(1,),
                              decays_to=("G", "X")))
    with pytest.raises(ModelError, match=r"E decays to unknown .*'X'"):
        LevelScheme.build(manifolds, DecayParams())


def test_decay_params_reject_non_finite_rates():
    """A non-finite or negative rate or ratio is refused by name."""
    for name in ("gamma_a", "gamma_b", "gamma_g", "d1_d2_ratio"):
        for bad, shown in ((float("nan"), "nan"), (float("inf"), "inf"),
                           (-1.0, "-1.0")):
            with pytest.raises(ModelError) as exc:
                DecayParams(**{name: bad})
            assert str(exc.value) == (
                "decay rates and branching ratios must be finite and >= 0: "
                f"{name} = {shown}")


def test_decay_params_warns_outside_usual_regime():
    with pytest.warns(UserWarning):
        DecayParams(gamma_a=1.0, gamma_b=2.0, gamma_g=0.0)
