import dataclasses
import math

import numpy as np
import pytest

from loopcool import get_preset
from loopcool.errors import DomainError, ShapeMismatch, SingularMatrix
from loopcool.model import CouplingApprox, DriftModel, Linearized, Physical, build_drift
from loopcool.presets import PRESETS
from loopcool.spectra import (Cooperativities, lambda_analytic, lambda_numeric,
                              scan_point, scattering_matrix, t_max,
                              transmittances)


def fig3_spec(theta=math.pi / 2):
    return get_preset("fig3").with_(theta=(theta,))


def test_cooperativities_from_spec():
    coop = Cooperativities.from_spec(get_preset("fig3"))
    assert coop.c1 == pytest.approx(0.1 ** 2 / (1e-5 * 0.2))
    assert coop.c3 == pytest.approx(0.05 ** 2 / 1e-10)
    assert coop.pi_ratio == pytest.approx(1.0)


def test_pi_ratio_domain_error():
    with pytest.raises(DomainError):
        Cooperativities(0.0, 1.0, 1.0).pi_ratio
    with pytest.raises(DomainError):  # an exact zero, not C1*C2 underflowing (a numerical failure)
        Cooperativities(5e-315, 0.0, 1.0).pi_ratio


def test_from_spec_needs_two_modes():
    with pytest.raises(DomainError):
        Cooperativities.from_spec(get_preset("figS10"))


def test_scattering_decoupled_reflection():
    # no couplings: each channel reflects off its own mode,
    # |U_bb(w)| = |(gamma - i(w - w_m))/(gamma + i(w - w_m))| = 1
    spec = fig3_spec().with_(eta=(0.0,), theta=(0.0,),
                             drive=Linearized(delta=1.0, g_lin=(0.0, 0.0)))
    d = build_drift(spec)
    for w in (0.9, 1.0, 1.3):
        u = scattering_matrix(d, w)
        assert abs(abs(u[1, 1]) - 1.0) < 1e-9
        assert abs(u[1, 2]) < 1e-12 and abs(u[2, 1]) < 1e-12
        t = transmittances(u, 2)
        assert np.allclose(t - np.diag(np.diag(t)), 0, atol=1e-20)


def test_scattering_far_detuned():
    # far off every resonance U -> -I
    d = build_drift(fig3_spec())
    u = scattering_matrix(d, 1e3)
    assert np.abs(u + np.eye(6)).max() < 1e-2


def test_transmittances_shape_check():
    with pytest.raises(ShapeMismatch):
        transmittances(np.eye(4, dtype=complex), 2)
    with pytest.raises(ShapeMismatch):
        transmittances(np.zeros((5, 4, 4), complex), 2)
    with pytest.raises(ShapeMismatch):
        transmittances(np.zeros((5, 4, 6), complex), 2)


def test_t_max_value():
    coop = Cooperativities(5000.0, 5000.0, 25_000_000.0)
    expect = 4 * (math.sqrt(2.5e7) + math.sqrt(2.5e7)) ** 2 / (2.5e7 + 10001) ** 2
    assert t_max(coop) == pytest.approx(expect)


def test_lambda_analytic_extremes():
    coop = Cooperativities(5000.0, 5000.0, 25_000_000.0)  # Pi exactly 1
    assert lambda_analytic(coop, math.pi / 2) == 1.0
    assert lambda_analytic(coop, 3 * math.pi / 2) == -1.0
    for th in (0.0, math.pi, 2 * math.pi):
        assert abs(lambda_analytic(coop, th)) <= 1e-12


def test_closed_forms_at_the_ends_of_the_float_range():
    # gamma_1 gamma_2 = 1e-340 underflows to 0, but (eta/gamma_1)(eta/gamma_2) = 1 does not
    tiny = get_preset("fig3").with_(eta=(1e-170,), gamma=(1e-170, 1e-170))
    assert Cooperativities.from_spec(tiny).c3 == 1.0
    # C3 = 2.5e597 truly overflows: a failure that names it
    with pytest.raises(FloatingPointError, match="^cooperativities not finite: C3$"):
        Cooperativities.from_spec(get_preset("fig3").with_(gamma=(1e-300, 1e-300)))
    # ((C1 + C2 + 1)/(C1 C2) + Pi)^2 overflows a float **, but the correction it divides is ~0
    coop = Cooperativities.from_spec(get_preset("fig3").with_(gamma=(1e300, 1.57), eta=(1000.0,)))
    root = math.sqrt(coop.pi_ratio)
    assert lambda_analytic(coop, 0.3) == pytest.approx(
        4.0 * root * math.sin(0.3) / (1.0 + root) ** 2, rel=1e-15)
    # gamma_2 kappa = 1e-324 underflows to 0; C2 = (G_2/gamma_2)(G_2/kappa) truly overflows
    with pytest.raises(FloatingPointError, match="^cooperativities not finite: C2, C3$"):
        Cooperativities.from_spec(get_preset("fig3").with_(gamma=(1e-5, 5e-324)))
    # C1 C2 = 1e606 overflows: Pi = 2.5e-599 and the (C1 + C2 + 1)/(C1 C2) it divides by
    # are 0 as floats, and so is Lambda (~6e-300), with no 0/0
    coop = Cooperativities.from_spec(get_preset("fig3").with_(kappa=1e-300))
    assert lambda_analytic(coop, 0.3) == 0.0
    # C1 C2 = 2.5e317 overflows, but T_max = 4 (sqrt(C1 C2) + 1)^2 / (C1 + C2 + 2)^2 = 1
    assert t_max(Cooperativities(5e158, 5e158, 1.0)) == 1.0


def test_scan_point_names_what_is_not_finite():
    # T_max underflows to 0 with no coupling at all: Lambda = (T_vw - T_wv)/T_max is NaN
    spec = fig3_spec().with_(eta=(0.0,), drive=Linearized(delta=1.0, g_lin=(0.0, 0.0)))
    with pytest.raises(FloatingPointError, match="^scattering quantities not finite: Lambda$"):
        scan_point(build_drift(spec), np.array([0.9, 1.1]))


def test_lambda_analytic_odd_in_theta():
    coop = Cooperativities(2000.0, 3000.0, 1e7)
    for th in np.linspace(0.1, 3.0, 7):
        assert lambda_analytic(coop, -th) == pytest.approx(-lambda_analytic(coop, th))
        # and symmetric under C1 <-> C2
        assert lambda_analytic(Cooperativities(3000.0, 2000.0, 1e7), th) == pytest.approx(
            lambda_analytic(coop, th), rel=1e-12)


def test_lambda_numeric_antisymmetric():
    d = build_drift(fig3_spec(0.7))
    lam = lambda_numeric(d, 1.0, Cooperativities.from_spec(d.spec))
    assert np.allclose(lam + lam.T, 0, atol=1e-18)


def test_lambda_numeric_matches_analytic_on_resonance():
    coop = Cooperativities(5000.0, 5000.0, 25_000_000.0)
    worst = 0.0
    for th in np.linspace(0.0, 2 * math.pi, 16):
        d = build_drift(fig3_spec(th))
        lam = lambda_numeric(d, 1.0, coop)
        worst = max(worst, abs(lam[2, 1] - lambda_analytic(coop, th)))
    assert worst < 0.05


def test_lambda_numeric_reciprocal_at_zero_phase():
    d = build_drift(fig3_spec(0.0))
    u = scattering_matrix(d, 1.0)
    t = transmittances(u, 2)
    # the mechanical transfer is reciprocal at zero loop phase
    assert abs(t[1, 2] - t[2, 1]) <= 1e-10 * t.max()


def test_unidirectional_at_quarter_phase():
    # Pi = 1, theta = pi/2: transfer b_2 -> b_1 is blocked on resonance
    d = build_drift(fig3_spec())
    t = transmittances(scattering_matrix(d, 1.0), 2)
    assert t[1, 2] < 0.05 * t[2, 1]


def test_lambda_bounded_on_resonance():
    # at the resonant probe the mechanical-pair rate is bounded by its
    # analytic maximum (off resonance the resonant normalizer does not
    # apply, and slight excess is documented behavior)
    for th in np.linspace(0.0, 2 * math.pi, 13):
        d = build_drift(fig3_spec(th))
        lam = lambda_numeric(d, 1.0, Cooperativities.from_spec(d.spec))
        assert abs(lam[2, 1]) <= 1.05


def test_scan_point_consistency():
    d = build_drift(fig3_spec())
    pt = scan_point(d, 1.0)
    assert pt.omega == 1.0
    assert np.allclose(pt.t, transmittances(pt.u, 2))


# --- the batched path -----------------------------------------------------

APPROXES = [CouplingApprox(optomechanical=om, mechanical=mech)
            for om in ("full", "rwa") for mech in ("rwa", "full")]
OMEGAS = np.linspace(0.5, 1.5, 801)


def reference_scan(drift, omegas, coop):
    """U, T and Lambda one frequency at a time, each by its own np.linalg.solve."""
    spec = drift.spec
    n2 = drift.a.shape[0]
    dim = n2 // 2
    g = np.sqrt(2.0 * np.array([spec.kappa, *spec.gamma]))
    gam = np.diag(np.concatenate([g, g]))
    us, ts, lams = [], [], []
    for w in omegas:
        u = gam @ np.linalg.solve(-1j * w * np.eye(n2) - drift.a, gam) - np.eye(n2)
        t = np.abs(u[:dim, :dim]) ** 2 + np.abs(u[:dim, dim:]) ** 2
        us.append(u)
        ts.append(t)
        lams.append((t - t.T) / t_max(coop))
    return np.array(us), np.array(ts), np.array(lams)


@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: a.optomechanical + "-" + a.mechanical)
def test_scan_array_is_the_stack_of_scalar_scans(approx):
    d = build_drift(get_preset("fig3"), approx)
    pt = scan_point(d, OMEGAS)
    singles = [scan_point(d, float(w)) for w in OMEGAS]
    assert pt.u.shape == (len(OMEGAS), 6, 6)
    assert np.array_equal(pt.u, np.stack([s.u for s in singles]))
    assert np.array_equal(pt.t, np.stack([s.t for s in singles]))
    assert np.array_equal(pt.lambda_rel, np.stack([s.lambda_rel for s in singles]))


@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: a.optomechanical + "-" + a.mechanical)
def test_scan_array_matches_per_frequency_reference(approx):
    d = build_drift(get_preset("fig3"), approx)
    pt = scan_point(d, OMEGAS)
    for got, ref in zip((pt.u, pt.t, pt.lambda_rel),
                        reference_scan(d, OMEGAS, Cooperativities.from_spec(d.spec))):
        err = np.abs(got - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: a.optomechanical + "-" + a.mechanical)
def test_row_scaling_gives_the_bits_of_the_gamma_product(approx):
    # U = Gamma @ core - I, with the diagonal Gamma as a matrix product, is the
    # reference; the row scaling may move only the signs of exact zeros in U
    for name in sorted(PRESETS):
        d = build_drift(get_preset(name), approx)
        n2, n = d.a.shape[0], d.spec.n_mech
        g = np.sqrt(2.0 * np.array([d.spec.kappa, *d.spec.gamma]))
        gam = np.diag(np.concatenate([g, g]))
        for omegas in (OMEGAS, np.linspace(0.9, 1.1, 801)):
            lhs = -1j * np.multiply.outer(omegas, np.eye(n2)) - d.a
            core = np.linalg.solve(lhs, np.broadcast_to(gam, lhs.shape))
            u_ref = gam @ core - np.eye(n2)
            u = scattering_matrix(d, omegas)
            assert np.array_equal(u, u_ref), name
            t_ref = transmittances(u_ref, n)
            assert np.array_equal(transmittances(u, n), t_ref), name
            if n == 2:
                coop = Cooperativities.from_spec(d.spec)
                lam_ref = (t_ref - np.swapaxes(t_ref, 1, 2)) / t_max(coop)
                assert np.array_equal(scan_point(d, omegas).lambda_rel, lam_ref), name


@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: a.optomechanical + "-" + a.mechanical)
def test_resolvent_reads_the_drift_alone(approx):
    # Gamma comes from Re diag A, exactly -kappa and -gamma_j; a physical drive's too
    physical = Physical(delta_c=1.0, omega_amp=50.0, g_single=(1e-3, 1e-3))
    specs = [get_preset(name) for name in sorted(PRESETS)]
    for spec in specs + [specs[0].with_(drive=physical)]:
        d = build_drift(spec, approx)
        rates = np.array([d.spec.kappa, *d.spec.gamma])
        assert np.array_equal(-d.a.diagonal().real, np.concatenate([rates, rates]))
        alone = DriftModel(a=d.a, q=d.q)
        for omegas in (1.0, OMEGAS):
            assert scattering_matrix(alone, omegas).tobytes() == \
                scattering_matrix(d, omegas).tobytes()


@pytest.mark.parametrize("omega", [math.nan, math.inf, np.array([1.0, -math.inf])])
def test_non_finite_probe_frequency_is_domain_error(omega):
    with pytest.raises(DomainError, match="must be finite"):
        scan_point(build_drift(fig3_spec()), omega)


def test_singular_resolvent_raises():
    # an undamped, uncoupled mode at the probe frequency: -i w I - A has a zero pivot
    spec = fig3_spec().with_(eta=(0.0,), theta=(0.0,),
                             drive=Linearized(delta=1.0, g_lin=(0.0, 0.0)))
    d = build_drift(spec)
    a = d.a.copy()
    a[1, 1] = -1j
    d = dataclasses.replace(d, a=a)
    with pytest.raises(SingularMatrix):
        scattering_matrix(d, 1.0)
    with pytest.raises(SingularMatrix):
        scan_point(d, np.array([0.9, 1.0, 1.1]))
    assert np.isfinite(scattering_matrix(d, 1.1)).all()
