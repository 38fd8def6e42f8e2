import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from loopcool import build_drift, cool, get_preset
from loopcool.errors import DomainError
from loopcool.model import Linearized, SystemSpec, mechanical_matrix
from loopcool.modes import (LambdaSystem, _cardano_roots, _lambda_matrix,
                            bright_dark, hybrid_transform, lambda_eigensystem,
                            normal_modes)
from loopcool.presets import PRESETS


def chain(n, g=0.1, eta=0.1, theta1=math.pi / 2, omega=None, gs=None):
    omega = omega or (1.0,) * n
    gs = gs or (g,) * n
    return SystemSpec(n_mech=n, omega_m=omega, kappa=0.2, gamma=(1e-5,) * n,
                      nbar=(1e3,) * n, eta=(eta,) * (n - 1),
                      theta=(theta1,) + (0.0,) * (n - 2),
                      drive=Linearized(delta=1.0, g_lin=gs))


# --- bright/dark --------------------------------------------------------

def test_bright_dark_degenerate():
    spec = get_preset("fig2_eta0")
    bd = bright_dark(spec)
    assert bd.omega_plus == bd.omega_minus == 1.0
    assert bd.zeta == 0.0
    assert bd.g_plus == pytest.approx(0.1 * math.sqrt(2))
    assert bd.dark_mode_exists


def test_bright_dark_detuned():
    spec = get_preset("fig2_eta0").with_(omega_m=(1.0, 1.2))
    bd = bright_dark(spec)
    assert bd.omega_plus == pytest.approx(1.1)
    assert bd.omega_minus == pytest.approx(1.1)
    assert bd.zeta == pytest.approx(0.1 * 0.1 * (1.0 - 1.2) / 0.02)
    assert not bd.dark_mode_exists


def test_bright_dark_weighted():
    spec = get_preset("fig2_eta0").with_(
        omega_m=(1.0, 1.2), drive=Linearized(delta=1.0, g_lin=(0.1, 0.05)))
    bd = bright_dark(spec)
    gsq = 0.01 + 0.0025
    assert bd.omega_plus == pytest.approx((0.01 * 1.0 + 0.0025 * 1.2) / gsq)
    assert bd.weights[0] == pytest.approx(0.1 / math.sqrt(gsq))


def test_bright_dark_rejects_exchange():
    with pytest.raises(DomainError):
        bright_dark(get_preset("fig2"))
    with pytest.raises(DomainError):
        bright_dark(get_preset("figS10"))
    # a chain without exchange is refused for its length, not by unpacking its couplings
    with pytest.raises(DomainError, match="^bright/dark decomposition needs n_mech = 2$"):
        bright_dark(chain(3, eta=0.0))


# --- hybrid modes -------------------------------------------------------

def test_hybrid_degenerate_weights():
    hm = hybrid_transform(get_preset("fig2"))
    assert hm.f == pytest.approx(1 / math.sqrt(2))
    assert hm.h == pytest.approx(-1 / math.sqrt(2))
    assert hm.omega_tilde_plus == pytest.approx(1.05)
    assert hm.omega_tilde_minus == pytest.approx(0.95)
    # any exchange mixes degenerate modes equally, however weak
    for eta in (1e-16, 1e-20, 1e-200):
        hm = hybrid_transform(get_preset("fig2").with_(eta=(eta,)))
        assert abs(hm.f - 1 / math.sqrt(2)) <= 1e-15 and hm.h == -hm.f


def test_hybrid_dark_at_zero_phase():
    spec = get_preset("fig2").with_(theta=(0.0,))
    hm = hybrid_transform(spec)
    # G~- = (G2 - G1)/sqrt(2) = 0: one hybrid mode decouples
    assert hm.darkness <= 1e-10
    assert abs(hm.g_tilde_plus) == pytest.approx(0.1 * math.sqrt(2))


def test_hybrid_dark_at_pi_phase():
    spec = get_preset("fig2").with_(theta=(math.pi,))
    hm = hybrid_transform(spec)
    assert hm.darkness <= 1e-10


def test_hybrid_both_bright_at_quarter_phase():
    hm = hybrid_transform(get_preset("fig2"))
    # degenerate case, theta = pi/2: |G~+| = |G~-| = G
    assert abs(hm.g_tilde_plus) == pytest.approx(0.1)
    assert abs(hm.g_tilde_minus) == pytest.approx(0.1)
    assert hm.darkness == pytest.approx(1 / math.sqrt(2))


def test_hybrid_power_conservation():
    for th in np.linspace(0.0, 2 * math.pi, 9):
        spec = get_preset("fig2").with_(theta=(th,))
        hm = hybrid_transform(spec)
        total = abs(hm.g_tilde_plus) ** 2 + abs(hm.g_tilde_minus) ** 2
        assert abs(total - 2 * 0.1 ** 2) <= 1e-12


def test_hybrid_frequency_sum_and_split():
    spec = get_preset("fig2").with_(omega_m=(1.0, 1.1))
    hm = hybrid_transform(spec)
    assert hm.omega_tilde_plus + hm.omega_tilde_minus == pytest.approx(2.1)
    split = math.sqrt(0.1 ** 2 + 4 * 0.05 ** 2)
    assert hm.omega_tilde_plus - hm.omega_tilde_minus == pytest.approx(split)
    # an exchange far below the split mixes in the other mode by eta / (w2 - w1)
    hm = hybrid_transform(spec.with_(eta=(1e-9,)))
    assert hm.f == pytest.approx(1e-9 / (1.1 - 1.0), rel=1e-12)
    assert abs(hm.f ** 2 + hm.h ** 2 - 1) <= 1e-15
    # swapping the frequencies (the w2 < w1 branch) maps (f, h) to (-h, -f), bit for bit
    for (w1, w2), eta in itertools.product(
            [(1.0, 1.1), (1.0, 1.0 + 1e-9), (0.9, 1.3), (1.0, 2.0)],
            [1e-200, 1e-20, 1e-8, 0.05, 1.0, 1e3]):
        up = hybrid_transform(spec.with_(omega_m=(w1, w2), eta=(eta,)))
        down = hybrid_transform(spec.with_(omega_m=(w2, w1), eta=(eta,)))
        assert (down.f, down.h) == (-up.h, -up.f)
        assert (down.omega_tilde_plus, down.omega_tilde_minus) == (
            up.omega_tilde_plus, up.omega_tilde_minus)


@pytest.mark.parametrize("eta", [5e-324, 1e307, 1e308, 1.7e308])
def test_hybrid_and_normal_modes_at_the_ends_of_the_float_range(eta):
    # 2 eta overflows above eta ~ 9e307, and the direction's components underflow at a
    # subnormal eta: the halved split and the power-of-two scaled direction do neither
    spec = get_preset("fig2").with_(eta=(eta,))
    hm = hybrid_transform(spec)
    assert (hm.omega_tilde_plus, hm.omega_tilde_minus) == (1.0 + eta, 1.0 - eta)
    assert abs(hm.f - 1 / math.sqrt(2)) <= 1e-15 and hm.h == -hm.f
    assert np.allclose(normal_modes(spec).omega_k, [1.0 + eta, 1.0 - eta], rtol=1e-15, atol=0.0)


def test_hybrid_names_what_is_not_finite():
    spec = get_preset("fig2").with_(omega_m=(1.7e308, 1.7e308), eta=(1.7e308,))
    with pytest.raises(FloatingPointError,
                       match="^hybrid-mode quantities not finite: omega_tilde_plus$"):
        hybrid_transform(spec)
    # a chain's frequencies 1 +- sqrt(2) eta truly overflow
    with pytest.raises(FloatingPointError, match="^eigensystem not finite: eigenvalues$"):
        normal_modes(get_preset("figS10").with_(eta=(1.7e308, 1.7e308)))


@pytest.mark.parametrize("g", [1e155, 1e200, 1e308])
def test_closed_forms_scale_their_couplings(g):
    # G^2 overflows above G ~ 1.3e154, but no closed-form quantity does: each is
    # computed from couplings scaled by a power of two, and scaled back
    ref, big = (bright_dark(get_preset("fig2_eta0").with_(drive=Linearized(1.0, (x, x))))
                for x in (0.1, g))
    assert (big.omega_plus, big.omega_minus, big.zeta) == (1.0, 1.0, 0.0)
    assert big.weights == pytest.approx(ref.weights, rel=1e-15)
    assert big.g_plus == pytest.approx(ref.g_plus / 0.1 * g, rel=1e-15)
    ref, big = (hybrid_transform(get_preset("fig2").with_(drive=Linearized(1.0, (x, x))))
                for x in (0.1, g))
    assert big.darkness == pytest.approx(ref.darkness, rel=1e-15)
    assert big.g_tilde_plus == pytest.approx(ref.g_tilde_plus / 0.1 * g, rel=1e-15)


def test_closed_forms_keep_the_bits_of_the_plain_formulas():
    rng = np.random.default_rng(35)
    for g1, g2, w1, w2 in 10.0 ** rng.uniform(-50, 50, (200, 4)) * [1, 1, 1e-47, 1e-47]:
        bd = bright_dark(get_preset("fig2_eta0").with_(omega_m=(w1, w2),
                                                       drive=Linearized(1.0, (g1, g2))))
        gsq = g1 * g1 + g2 * g2
        assert (bd.omega_plus, bd.omega_minus, bd.zeta, bd.g_plus) == (
            (g1 * g1 * w1 + g2 * g2 * w2) / gsq, (g2 * g2 * w1 + g1 * g1 * w2) / gsq,
            g1 * g2 * (w1 - w2) / gsq, math.sqrt(gsq))
        hm = hybrid_transform(get_preset("fig2").with_(drive=Linearized(1.0, (g1, g2))))
        assert hm.darkness == min(map(abs, (hm.g_tilde_plus, hm.g_tilde_minus))) / math.sqrt(gsq)


def test_normal_modes_name_a_coupling_beyond_the_float_range():
    # the bright coupling of G = (0.1, 1.7e308, 1.7e308), about 2.05e308, overflows
    spec = get_preset("figS10").with_(drive=Linearized(1.0, (0.1, 1.7e308, 1.7e308)))
    with pytest.raises(FloatingPointError, match="^normal-mode couplings not finite: coupling_k$"):
        normal_modes(spec)


def test_hybrid_rejects_eta_zero():
    with pytest.raises(DomainError):
        hybrid_transform(get_preset("fig2_eta0"))


def test_hybrid_rejects_a_chain():
    with pytest.raises(DomainError, match="^hybrid transform needs n_mech = 2$"):
        hybrid_transform(get_preset("figS10"))


# --- N-mode normal modes ------------------------------------------------

def test_normal_modes_match_block_eigenvalues():
    for n, th in [(2, 0.0), (3, math.pi / 2), (4, 0.0), (4, math.pi / 2), (5, 1.0)]:
        spec = chain(n, theta1=th)
        nm = normal_modes(spec)
        vals = np.linalg.eigvalsh(mechanical_matrix(spec))
        assert np.allclose(np.sort(nm.omega_k), np.sort(vals), atol=1e-10)


def test_normal_modes_frequencies_closed_form():
    # the sine basis's Omega_k = w_m + 2 eta cos(k pi/(N+1)), in its k = 1..N order
    nm = normal_modes(chain(3))
    ks = np.arange(1, 4)
    assert np.allclose(nm.omega_k, 1.0 + 0.2 * np.cos(ks * math.pi / 4))


def test_normal_modes_power_conservation():
    for n in (2, 3, 4):
        for th in (0.0, math.pi / 2, 1.3):
            nm = normal_modes(chain(n, theta1=th))
            assert abs(np.sum(np.abs(nm.coupling_k) ** 2) - n * 0.1 ** 2) <= 1e-12


def test_four_chain_dark_count():
    # theta_1 = 0: the even-index collective modes decouple (two dark modes)
    nm = normal_modes(chain(4, theta1=0.0))
    assert int(nm.dark_flags.sum()) == 2
    assert np.abs(nm.coupling_k[nm.dark_flags]).max() <= 1e-10 * 0.1
    # theta_1 = pi/2 breaks the interference: every mode couples
    nm = normal_modes(chain(4, theta1=math.pi / 2))
    assert int(nm.dark_flags.sum()) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("eta, theta1", [(0.0, 0.0), (0.0, math.pi / 2), (0.0, 1.3),
                                         (0.1, 0.0), (0.1, math.pi / 2)])
def test_dark_modes_agree_with_the_steady_state(n, eta, theta1):
    # each of the d dark modes keeps its bath's nbar and the bright ones cool,
    # so the mean occupation is nbar d/N; at eta = 0 the loop phase has no
    # effect and N - 1 modes are dark
    spec = chain(n, eta=eta, theta1=theta1)
    nm = normal_modes(spec)
    d = int(nm.dark_flags.sum())
    if eta == 0.0:
        assert d == n - 1
    assert nm.dark_ceiling == 1e3 * d / n
    if d > 0:
        mean = float(np.mean(cool(build_drift(spec)).n_f))
        assert abs(mean - nm.dark_ceiling) <= 0.01 * nm.dark_ceiling
    assert abs(np.sum(np.abs(nm.coupling_k) ** 2) - n * 0.1 ** 2) <= 1e-12


def test_three_chain_predicted_ceiling():
    nm = normal_modes(chain(3))
    assert nm.predicted_uncooled == pytest.approx(1e3 * 2 / 3)
    assert nm.dark_ceiling == 0.0  # theta_1 = pi/2: no dark mode
    assert not {"closed_form", "norm_a"} & {f.name for f in dataclasses.fields(nm)}


@pytest.mark.parametrize("baths", [dict(nbar=(1e3, 0.0)), dict(gamma=(1e-5, 2e-5))],
                         ids=["nbar", "gamma"])
def test_predicted_ceiling_needs_equal_baths(baths):
    # with nbar = 1e3, 0 the steady state holds about 250 phonons in each mode,
    # not the 500 of nbar (N-1)/N; the modes themselves do not change
    base = get_preset("fig2_eta0")
    nm, ref = normal_modes(base.with_(**baths)), normal_modes(base)
    assert math.isnan(nm.predicted_uncooled) and math.isnan(nm.dark_ceiling)
    assert np.array_equal(nm.omega_k, ref.omega_k)
    assert np.array_equal(nm.coupling_k, ref.coupling_k)
    assert ref.predicted_uncooled == ref.dark_ceiling == 500.0


def test_normal_modes_nonuniform_fallback():
    spec = chain(3, omega=(1.0, 1.05, 0.95))
    nm = normal_modes(spec)
    assert math.isnan(nm.predicted_uncooled)
    vals = np.linalg.eigvalsh(mechanical_matrix(spec))
    assert np.allclose(nm.omega_k, vals[::-1], atol=1e-10)  # descending
    # unitary transform preserves total coupling power
    assert np.sum(np.abs(nm.coupling_k) ** 2) == pytest.approx(3 * 0.1 ** 2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("theta", [0.4, 2.5])
def test_normal_modes_fallback_couplings_from_mechanical_matrix(n, theta):
    # a nondegenerate chain's mode couplings are eigh(H) eigenvectors^dagger . g,
    # listed by descending frequency
    spec = chain(n, theta1=theta, omega=(1.0, 1.05, 0.95)[:n], gs=(0.1, 0.08, 0.12)[:n])
    nm = normal_modes(spec)
    vals, vecs = np.linalg.eigh(mechanical_matrix(spec))
    assert np.allclose(nm.omega_k, vals[::-1], rtol=0.0, atol=1e-14)
    assert np.allclose(nm.coupling_k, (vecs.conj().T @ np.array(spec.drive.g_lin))[::-1],
                       rtol=0.0, atol=1e-14)


def test_single_mode_trivial():
    spec = SystemSpec(n_mech=1, omega_m=(1.0,), kappa=0.2, gamma=(1e-5,),
                      nbar=(1e3,), eta=(), theta=(),
                      drive=Linearized(delta=1.0, g_lin=(0.1,)))
    nm = normal_modes(spec)
    assert nm.omega_k[0] == pytest.approx(1.0)
    assert abs(nm.coupling_k[0]) == pytest.approx(0.1)
    assert not nm.dark_flags[0]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dark_count_is_scale_free(name):
    # rates are in units of omega_1 only by convention: every rate times s
    # (omega_m, kappa, gamma, eta, Delta, G) is the same physics, so the
    # degeneracy tolerance must scale with the phonon matrix
    spec = get_preset(name)
    want = int(normal_modes(spec).dark_flags.sum())
    for s in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
        scaled = spec.with_(
            omega_m=tuple(w * s for w in spec.omega_m), kappa=spec.kappa * s,
            gamma=tuple(g * s for g in spec.gamma), eta=tuple(e * s for e in spec.eta),
            drive=Linearized(delta=spec.drive.delta * s,
                             g_lin=tuple(g * s for g in spec.drive.g_lin)))
        assert int(normal_modes(scaled).dark_flags.sum()) == want, s


# --- three-level Lambda configuration -----------------------------------

def lam_sys(eta, theta):
    return LambdaSystem(omega1=1.0, omega2=1.0, omega_b=eta, theta=theta)


def test_cardano_residual_grid():
    for eta in np.geomspace(0.01, 2.0, 12):
        for th in np.linspace(0.0, 2 * math.pi, 16):
            roots, card = _cardano_roots(eta, th)
            assert card["imag_residue"] <= 1e-10
            for lam in roots:
                resid = lam ** 3 - (2 + eta * eta) * lam - 2 * eta * math.cos(th)
                assert abs(resid) <= 1e-10


@pytest.mark.parametrize("eta", [1e-6, 1e-2, 1.0, 1e2, 1e6, 1e10, 1e20, 1e40])
def test_cardano_roots_and_vectors_at_extreme_exchange(eta):
    # at eta >> 1 the smallest root is ~ -2 cos(theta)/eta, far below the
    # rounding of the two roots near +-eta that the closed form subtracts
    for th in np.linspace(0.0, 2 * math.pi, 13):
        roots, _ = _cardano_roots(eta, th)
        p, c = 2.0 + eta * eta, 2.0 * eta * math.cos(th)
        for lam in roots:
            scale = abs(lam) ** 3 + p * abs(lam) + abs(c)
            assert abs(lam ** 3 - p * lam - c) <= 1e-14 * scale
        sys = lam_sys(eta, th)
        res = lambda_eigensystem(sys)
        m = _lambda_matrix(sys)
        for lam, v in zip(res.lambdas, res.vectors):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-12 * np.linalg.norm(m, 2)
        assert abs(res.p_e.sum() - 1.0) <= 1e-12


def test_lambda_dark_iff_phase_multiple_of_pi():
    # next to eta = 1, theta = 0 two of the three roots nearly coincide
    for eta in (0.1, 0.5, 1.0, 2.0, 1 + 1e-6, 1 - 1e-6, 1 + 1e-7, 1 - 1e-7, 1 - 1e-8):
        for th, dark in [(0.0, True), (math.pi, True),
                         (math.pi / 4, False), (math.pi / 2, False),
                         (3 * math.pi / 4, False)]:
            res = lambda_eigensystem(lam_sys(eta, th))
            assert abs(res.p_e.sum() - 1.0) <= 1e-12
            if dark:
                assert res.dark_index is not None
                assert res.p_e[res.dark_index] <= 1e-10
            else:
                assert res.dark_index is None
                assert res.p_e.min() >= 1e-4


def test_lambda_closed_form_zero_phase():
    eta = 0.3
    res = lambda_eigensystem(lam_sys(eta, 0.0))
    expect = {-eta, 0.5 * (eta - math.sqrt(8 + eta * eta)),
              0.5 * (eta + math.sqrt(8 + eta * eta))}
    for lam in res.lambdas:
        assert min(abs(lam - e) for e in expect) <= 1e-10
    # the dark state is the antisymmetric ground-level combination
    dark_vec = res.vectors[res.dark_index]
    target = np.array([0.0, -1.0, 1.0]) / math.sqrt(2)
    phase = dark_vec[2] / target[2]
    assert np.allclose(dark_vec, phase * target, atol=1e-8)
    assert abs(res.lambdas[res.dark_index] - (-eta)) <= 1e-10


def test_lambda_pi_phase_dark_eigenvalue():
    eta = 0.7
    res = lambda_eigensystem(lam_sys(eta, math.pi))
    assert abs(res.lambdas[res.dark_index] - eta) <= 1e-10


def test_lambda_quarter_phase_roots():
    eta = 0.8
    res = lambda_eigensystem(lam_sys(eta, math.pi / 2))
    expect = {0.0, math.sqrt(2 + eta * eta), -math.sqrt(2 + eta * eta)}
    for lam in res.lambdas:
        assert min(abs(lam - e) for e in expect) <= 1e-10
    izero = int(np.argmin(np.abs(res.lambdas)))
    assert res.p_e[izero] == pytest.approx(eta * eta / (2 + eta * eta))


#: eta -> the least root of M at theta = pi/2 as a float, from a 60-digit eigensolve
#: (mpmath, dps = 60) rounded to a float
LEAST_ROOT_QUARTER_PHASE = {0.05: -3.0577947544253512e-18, 1.0: -4.082155997157844e-17,
                            3.0: -3.339945815856418e-17}


@pytest.mark.parametrize("eta", sorted(LEAST_ROOT_QUARTER_PHASE))
def test_lambda_least_root_at_float_quarter_phase(eta):
    # at theta = pi/2 as a float, cos(theta) = 6.1e-17 leaves a root of ~ 1e-17, below
    # eigh's eps ||M||: eigh alone misses it by 112-369%, Vieta's det M over the other two
    # roots keeps it to full precision
    res = lambda_eigensystem(lam_sys(eta, math.pi / 2))
    assert min(res.lambdas, key=abs) == pytest.approx(LEAST_ROOT_QUARTER_PHASE[eta],
                                                      rel=1e-14, abs=0.0)


def test_lambda_degenerate_subspace_dark_found():
    # eta = 1, theta = 0: eigenvalue -1 is twofold degenerate, and the dark
    # state must be exposed from its eigenspace
    res = lambda_eigensystem(lam_sys(1.0, 0.0))
    assert res.dark_index is not None
    assert res.p_e[res.dark_index] <= 1e-12
    assert sorted(round(x, 6) for x in res.lambdas) == [-1.0, -1.0, 2.0]
    bright = [s for s in range(3) if s != res.dark_index]
    assert sum(res.p_e[bright]) == pytest.approx(1.0)


@pytest.mark.parametrize("eta, theta, dark", [
    (1e10, 0.3, [0, 1]),  # p_e = 2.0e-20, 4.5e-22, 1.0: the darkest is not the only dark state
    (1.0, 0.0, [1]),      # the degenerate lambda = -1 eigenspace holds one dark state
    (0.5, 0.3, []),
    (1.0, math.pi, [0]),  # lambda = 1 twice, at indices 0 and 2: the lower index is the dark one
])
def test_lambda_dark_indices_lists_every_dark_state(eta, theta, dark):
    res = lambda_eigensystem(lam_sys(eta, theta))
    assert res.dark_indices == dark
    assert res.dark_indices == [s for s in range(3) if res.p_e[s] <= 1e-10]
    assert res.dark_index == (int(np.argmin(res.p_e)) if dark else None)


@pytest.mark.parametrize("eta", [0.3, 0.5])
def test_lambda_detuned_degenerate_subspace_dark_found(eta):
    # theta = 0, Delta = (1 - eta^2)/eta: the e-bright pair also has eigenvalue
    # -eta, so -eta is twofold degenerate and the dark state (0, 1, -1)/sqrt(2)
    # must be exposed from its eigenspace
    res = lambda_eigensystem(LambdaSystem(omega1=1.0, omega2=1.0, omega_b=eta, theta=0.0,
                                          delta=(1.0 - eta * eta) / eta))
    assert res.dark_index is not None
    assert res.p_e[res.dark_index] <= 1e-10
    assert abs(res.lambdas[res.dark_index] + eta) <= 1e-12


def test_lambda_eigenvectors_satisfy_matrix():
    from loopcool.modes import _lambda_matrix
    for eta, th in [(0.3, 0.0), (0.8, math.pi / 2), (1.0, 0.0), (1.5, 2.0)]:
        sys = lam_sys(eta, th)
        res = lambda_eigensystem(sys)
        m = _lambda_matrix(sys)
        for lam, vec in zip(res.lambdas, res.vectors):
            assert np.linalg.norm(m @ vec - lam * vec) <= 1e-8
            assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_lambda_unequal_drives_couple_e_to_g_by_their_ratio():
    # Omega_2 = 2 Omega_1: the e-g entry is Omega_2/Omega_1, and without
    # Omega_1 = Omega_2 no state has a zero excited amplitude
    res = lambda_eigensystem(LambdaSystem(omega1=1.0, omega2=2.0, omega_b=0.5, theta=0.0))
    hand = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]])
    assert np.allclose(res.lambdas, np.linalg.eigvalsh(hand)[[2, 0, 1]], rtol=0.0, atol=1e-12)
    assert res.dark_index is None
    assert res.p_e.min() == pytest.approx(0.020, abs=1e-3)


def test_lambda_detuned_numeric_path():
    res = lambda_eigensystem(LambdaSystem(omega1=1.0, omega2=1.0,
                                          omega_b=0.5, theta=0.0, delta=0.3))
    assert res.dark_index is not None  # theta = 0 dark state survives detuning
