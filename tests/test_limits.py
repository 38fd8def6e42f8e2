import cmath
import dataclasses
import math

import numpy as np
import pytest

from loopcool import get_preset
from loopcool.errors import DomainError
from loopcool.limits import (APPROX, cooling_limit_full, cooling_limit_simplified,
                             effective_model, require_approx, validity_notes)
from loopcool.model import FULL, RWA, CouplingApprox, Linearized, SystemSpec, build_drift
from loopcool.presets import PRESETS
from loopcool.steadystate import cool, cool_or_flag

REGIME = "outside the validity regime omega >> kappa >> G >> gamma"
RESONANT = ("exact optical decays differ from the resonant g^2/kappa by more than 20%; "
            "the simplified formula is unreliable")
MISMATCH = ("effective decays Gamma_1, Gamma_2 differ by more than 20%; "
            "the reduced formula is unreliable")


def notes_of(eff, spec, full=True):
    """validity_notes on the limits that report finds from eff: simplified and, if full, full."""
    found = {"simplified": cooling_limit_simplified(eff, spec)}
    if full:
        found["full"] = cooling_limit_full(eff, spec)
    return validity_notes(eff, spec, found)


def fig2_at(delta):
    spec = get_preset("fig2")
    return spec.with_(drive=Linearized(delta=delta, g_lin=spec.drive.g_lin))


def test_needs_two_modes():
    with pytest.raises(DomainError):
        effective_model(get_preset("figS10"))


def test_opposite_detuning_is_domain_error():
    # n_opt = 4 kappa^2 / (omega_1 + omega_2 + 2 delta)^2 has no value here
    spec = get_preset("fig2")
    spec = spec.with_(drive=Linearized(delta=-1.0, g_lin=spec.drive.g_lin))
    with pytest.raises(DomainError, match="n_opt undefined"):
        effective_model(spec)


def test_resonant_rates():
    spec = get_preset("fig4")  # G = 0.05, kappa = 0.2, Delta = omega = 1
    eff = effective_model(spec)
    assert eff.gamma_opt_res[0] == pytest.approx(0.05 ** 2 / 0.2)
    # exact Lorentzian rates approach the resonant ones for kappa << omega
    assert eff.gamma_opt[0] == pytest.approx(eff.gamma_opt_res[0], rel=0.05)
    assert eff.n_opt == pytest.approx(4 * 0.2 ** 2 / 16.0)


def test_exact_optical_decay_formula():
    spec = get_preset("fig4").with_(kappa=0.6,
                                    drive=Linearized(delta=0.9, g_lin=(0.05, 0.05)))
    eff = effective_model(spec)
    g, k, d, w = 0.05, 0.6, 0.9, 1.0
    expect = g * g * k / (k * k + (d - w) ** 2) - g * g * k / (k * k + (d + w) ** 2)
    assert eff.gamma_opt[0] == pytest.approx(expect)
    expect_w = (g * g * (d + w) / (k * k + (d + w) ** 2)
                + g * g * (d - w) / (k * k + (d - w) ** 2))
    assert eff.omega_opt[0] == pytest.approx(expect_w)


def test_lorentzians_at_the_ends_of_the_float_range():
    # kappa^2 + (delta - omega)^2 = 1e-400 and g^2 kappa = 1e-400 underflow to 0, but
    # the Lorentzian g^2 kappa / kappa^2 = 1 does not
    eff = effective_model(get_preset("fig2").with_(
        kappa=1e-200, drive=Linearized(delta=1.0, g_lin=(1e-100, 1e-100))))
    assert eff.gamma_opt[0] == pytest.approx(1.0, rel=1e-15)
    # at kappa = 5e-324 it is 2e321: too large for a float, so inf (no OverflowError and
    # no RuntimeWarning), and not a division by zero
    eff = effective_model(get_preset("fig2").with_(kappa=5e-324))
    assert eff.gamma_opt == (math.inf, math.inf)


def test_xi_without_exchange_symmetric():
    spec = get_preset("fig4").with_(eta=(0.0,), theta=(0.0,))
    eff = effective_model(spec)
    assert eff.xi1 == pytest.approx(eff.xi2)
    assert eff.chi1 == pytest.approx(eff.chi2)


def test_xi_exchange_term():
    # the exchange contributes exactly -i eta e^{+-i theta}
    base = effective_model(get_preset("fig4").with_(eta=(0.0,), theta=(0.0,)))
    spec = get_preset("fig4").with_(theta=(0.3,))
    eff = effective_model(spec)
    assert eff.xi1 == pytest.approx(base.xi1 - 1j * 0.05 * cmath.exp(0.3j))
    assert eff.xi2 == pytest.approx(base.xi2 - 1j * 0.05 * cmath.exp(-0.3j))


def test_eigenvalue_trace_product():
    eff = effective_model(get_preset("fig4"))
    g1, g2 = eff.gamma_eff
    w1, w2 = eff.omega_eff
    assert eff.lambda1 + eff.lambda2 == pytest.approx(g1 + g2 + 1j * (w1 + w2))
    prod = (g1 + 1j * w1) * (g2 + 1j * w2) - eff.xi1 * eff.xi2
    assert eff.lambda1 * eff.lambda2 == pytest.approx(prod)


def test_destructive_interference_at_quarter_phase():
    # fig2 sits at eta = G^2/kappa, so at theta = pi/2 the two transfer
    # pathways into resonator 1 nearly cancel: |xi1| << |xi2|
    eff = effective_model(get_preset("fig2"))
    assert abs(eff.xi1_res) < 0.2 * abs(eff.xi2_res)
    assert abs(eff.xi1) < 0.2 * abs(eff.xi2)


def test_simplified_thermalizes_without_drive():
    spec = get_preset("fig4").with_(nbar=(40.0, 40.0),
                                    drive=Linearized(delta=1.0, g_lin=(0.0, 0.0)))
    eff = effective_model(spec)
    n1, n2 = cooling_limit_simplified(eff, spec)
    assert n1 == pytest.approx(40.0, rel=1e-6)
    assert n2 == pytest.approx(40.0, rel=1e-6)


def test_simplified_phase_reversal_swaps_modes():
    spec = get_preset("fig4")
    n1, n2 = cooling_limit_simplified(effective_model(spec), spec)
    rev = spec.with_(theta=(3 * math.pi / 2,))
    m1, m2 = cooling_limit_simplified(effective_model(rev), rev)
    assert n1 == pytest.approx(m2, rel=1e-9)
    assert n2 == pytest.approx(m1, rel=1e-9)
    assert n1 < n2  # at theta = pi/2 mode 1 is the better-cooled one


def test_simplified_matches_exact_covariance():
    spec = get_preset("fig4")
    exact = cool(build_drift(spec, APPROX)).n_f
    n1, n2 = cooling_limit_simplified(effective_model(spec), spec)
    assert abs(n1 - exact[0]) / exact[0] <= 0.10
    assert abs(n2 - exact[1]) / exact[1] <= 0.10


def test_full_matches_simplified():
    spec = get_preset("fig4")
    eff = effective_model(spec)
    s1, s2 = cooling_limit_simplified(eff, spec)
    f1, f2 = cooling_limit_full(eff, spec)
    assert abs(f1 - s1) / s1 <= 0.05
    assert abs(f2 - s2) / s2 <= 0.05


def test_full_matches_the_steady_state_of_the_cooled_mode():
    # G << kappa and equal G (Gamma_1 ~ Gamma_2), with unequal baths, at n ~ 0.1, where
    # the cavity's own noise (the g^2/4 drive term) is 9% of the occupation: mode 1 is
    # 0.57% from the steady state (mode 2, near the backaction limit, 7%)
    spec = get_preset("fig2").with_(nbar=(20.0, 5.0), gamma=(1e-5, 3e-5), eta=(0.002,),
                                    drive=Linearized(delta=1.0, g_lin=(0.02, 0.02)))
    eff = effective_model(spec)
    assert notes_of(eff, spec) == []
    exact = cool(build_drift(spec, APPROX)).n_f
    assert cooling_limit_full(eff, spec)[0] == pytest.approx(exact[0], rel=0.01)


def test_both_limits_agree_on_unequal_baths():
    # the two formulas are written apart, and each mode's reads the other mode's bath:
    # with n̄ = (100, 10) they agree to 1.4e-4, and a mode that read its own bath
    # instead would put mode 2 near 0.13 (the steady state reads 1.05)
    spec = get_preset("fig2").with_(nbar=(100.0, 10.0), eta=(0.002,),
                                    drive=Linearized(delta=1.0, g_lin=(0.02, 0.02)))
    eff = effective_model(spec)
    assert notes_of(eff, spec) == []
    assert cooling_limit_simplified(eff, spec) == pytest.approx(
        cooling_limit_full(eff, spec), rel=1e-3)


def test_limit_plateau_without_exchange():
    # eta = 0: the dark mode pins both formulas near nbar/2 despite the drive
    spec = get_preset("fig4").with_(eta=(0.0,), theta=(0.0,))
    eff = effective_model(spec)
    n1, n2 = cooling_limit_simplified(eff, spec)
    assert n1 + n2 > 0.9 * spec.nbar[0]


def test_gamma_mismatch_warning():
    spec = get_preset("fig4").with_(drive=Linearized(delta=1.0, g_lin=(0.05, 0.01)))
    eff = effective_model(spec)
    assert MISMATCH in notes_of(eff, spec)
    assert MISMATCH not in notes_of(eff, spec, full=False)  # a note of the full formula


def test_regime_warning():
    spec = get_preset("fig4").with_(kappa=2.0)
    eff = effective_model(spec)
    for full in (False, True):
        assert REGIME in notes_of(eff, spec, full)


def test_presets_carry_no_note():
    for spec in map(get_preset, PRESETS):
        if spec.n_mech == 2:
            assert notes_of(effective_model(spec), spec) == []


@pytest.mark.parametrize("decays, noted", [
    ((-0.00601, -0.00601), False),  # equal and negative: fig2 at delta = -0.5
    ((0.01, 0.01), False),
    ((0.01, 0.0081), False),  # 19% apart
    ((0.01, 0.007), True),  # 30% apart
    ((-0.01, -0.007), True),
])
def test_mismatch_note_compares_magnitudes(decays, noted):
    spec = get_preset("fig2")
    eff = dataclasses.replace(effective_model(spec), gamma_eff=decays)
    notes = notes_of(eff, spec)
    assert (MISMATCH in notes) == noted
    assert not any("%%" in note for note in notes)


@pytest.mark.parametrize("delta, noted", [(1.0, False), (1.2, True), (2.0, True), (5.0, True)])
def test_resonant_note_off_resonance(delta, noted):
    # the simplified formula takes Gamma_opt = g^2/kappa: on fig2 it gives n_1 = 0.206 at
    # delta = 2, where the steady state is 6.06
    spec = fig2_at(delta)
    eff = effective_model(spec)
    assert notes_of(eff, spec, full=False) == ([RESONANT] if noted else [])
    exact = cool(build_drift(spec, APPROX)).n_f
    simplified = cooling_limit_simplified(eff, spec)
    assert (abs(simplified[0] - exact[0]) > 0.2 * exact[0]) == noted


@pytest.mark.parametrize("found, below", [
    ({"simplified": (0.1, 0.2), "full": (0.1, 0.2)}, []),
    ({"simplified": (-0.399, 0.0466), "full": (0.0895, 0.0858)}, ["simplified"]),
    ({"simplified": (0.1, -0.0)}, []),  # a negative zero is no occupation below zero
    ({"simplified": (0.1, -1e-300), "full": (-2.0, 0.1)}, ["full", "simplified"]),
])
def test_a_negative_limit_is_noted_once_per_formula(found, below):
    spec = get_preset("fig2")
    notes = validity_notes(effective_model(spec), spec, found)
    assert notes == ["the %s formula gives an occupation below zero; it is unreliable" % name
                     for name in below]


def test_notes_are_sorted():
    spec = get_preset("fig2").with_(kappa=2.0, drive=Linearized(delta=2.0, g_lin=(0.1, 0.02)))
    notes = notes_of(effective_model(spec), spec)
    assert notes == [MISMATCH, RESONANT, REGIME] == sorted(notes)


#: fig2 at eta = 0 at three points that cool_or_flag calls unstable, by its margin
#: alone at the first, whose effective model has min Re lambda = 1e-11 > 0
NO_EXCHANGE = get_preset("fig2").with_(eta=(0.0,), theta=(0.0,))
AT_THE_MARGIN = {
    # min Re lambda = 1e-11, inside the margin: the limits would read 2.5e7 phonons
    "gamma1e-11": NO_EXCHANGE.with_(gamma=(1e-11, 1e-11)),
    # the dark mode's decay cancels to min Re lambda = 0: a transfer-rate pole
    "gamma1e-300": NO_EXCHANGE.with_(gamma=(1e-300, 5e-324)),
    # Gamma_1 + Gamma_2 = 0 exactly: the transfer rates divide by it
    "decays-cancel": NO_EXCHANGE.with_(gamma=(3e-3, 3e-3), drive=Linearized(
        delta=-0.33115287381420005, g_lin=NO_EXCHANGE.drive.g_lin)),
}
DELTAS = [1.0, 0.3, 0.0, -0.2, -0.5, -2.0]


@pytest.mark.parametrize("spec", [*map(fig2_at, DELTAS), *AT_THE_MARGIN.values()],
                         ids=[*map(str, DELTAS), *AT_THE_MARGIN])
def test_effective_stability_matches_the_full_verdict(spec):
    # both formulas refuse exactly the points that the engine calls unstable: the
    # limits of an unstable model would be negative occupations
    stable = cool_or_flag(build_drift(spec, APPROX)).stable
    eff = effective_model(spec)
    for formula in (cooling_limit_simplified, cooling_limit_full):
        if stable:
            assert min(formula(eff, spec)) > 0
        else:
            with pytest.raises(DomainError, match="unstable effective model"):
                formula(eff, spec)


def relabelled(spec):
    """spec with its two resonators' labels swapped: omega, gamma, nbar and G trade
    places, and the hop from 2 to 1 is the old one's conjugate, so theta -> -theta."""
    return spec.with_(omega_m=spec.omega_m[::-1], gamma=spec.gamma[::-1], nbar=spec.nbar[::-1],
                      theta=(-spec.theta[0],), drive=Linearized(
                          delta=spec.drive.delta, g_lin=spec.drive.g_lin[::-1]))


def _random_pair(rng):
    """A linearized two-mode spec with unequal frequencies, baths and couplings."""
    return SystemSpec(
        n_mech=2, omega_m=tuple(rng.uniform(0.8, 1.2, 2)), kappa=float(rng.uniform(0.05, 0.5)),
        gamma=tuple(rng.uniform(1e-6, 1e-4, 2)), nbar=tuple(rng.uniform(10.0, 1e3, 2)),
        eta=(float(rng.uniform(0.0, 0.2)),), theta=(float(rng.uniform(0.0, 2 * math.pi)),),
        drive=Linearized(delta=float(rng.uniform(0.5, 1.5)),
                         g_lin=tuple(rng.uniform(0.01, 0.2, 2))))


def _limits(spec):
    """(simplified, full) limits of spec, or None where its effective model is unstable."""
    eff = effective_model(spec)
    try:
        return cooling_limit_simplified(eff, spec), cooling_limit_full(eff, spec)
    except DomainError:
        return None


def test_relabelling_the_resonators_swaps_both_limits():
    # each formula's two modes are one expression read with its labels swapped
    rng = np.random.default_rng(32)
    for _ in range(100):
        spec = _random_pair(rng)
        ref, got = _limits(spec), _limits(relabelled(spec))
        assert (got is None) == (ref is None), spec
        for want, have in zip(ref or (), got or ()):
            assert have == pytest.approx(want[::-1], rel=1e-9), spec


def test_full_limit_refuses_one_zero_xi():
    spec = get_preset("fig4")
    eff = effective_model(spec)
    for zeroed in (dict(xi1=0j), dict(xi2=0j)):
        with pytest.raises(DomainError, match="xi1 or xi2 = 0"):
            cooling_limit_full(dataclasses.replace(eff, **zeroed), spec)


def test_the_limits_assume_one_approximation():
    # the adiabatically eliminated model keeps the cavity's counter-rotating terms (its
    # Lorentzians at delta + omega) and drops the phonon exchange's
    assert APPROX == CouplingApprox(optomechanical=FULL, mechanical=RWA)
    for approx in (CouplingApprox(om, mech) for om in (FULL, RWA) for mech in (FULL, RWA)):
        if approx == APPROX:
            assert require_approx(approx) is None
        else:
            with pytest.raises(DomainError) as err:
                require_approx(approx)
            assert str(err.value) == ("the cooling limits assume optomechanical full and "
                                      "mechanical rwa")
