"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints "ACCEPTANCE <n> (<what>): PASS/FAIL" and then asserts, so a
plain pytest run shows the scoreboard (output capture is disabled via -s in
the project pytest options).
"""

import math
import warnings

import numpy as np
from click.testing import CliRunner

from loopcool import get_preset, kernels
from loopcool.cli import main as cli_main
from loopcool.limits import cooling_limit_simplified, effective_model
from loopcool.model import (FULL, RWA, CouplingApprox, Linearized, SystemSpec,
                            build_drift, mechanical_matrix)
from loopcool.modes import (_cardano_roots, hybrid_transform, lambda_eigensystem,
                            LambdaSystem, normal_modes)
from loopcool.spectra import (Cooperativities, lambda_analytic, lambda_numeric)
from loopcool.steadystate import (cool, lyapunov_solve, phonon_numbers,
                                  stability_check)


def verdict(num, what, ok):
    print("ACCEPTANCE %d (%s): %s" % (num, what, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed" % num


def chain_spec(n, eta, theta1, g=0.1):
    return SystemSpec(n_mech=n, omega_m=(1.0,) * n, kappa=0.2,
                      gamma=(1e-5,) * n, nbar=(1e3,) * n,
                      eta=(eta,) * (n - 1), theta=(theta1,) + (0.0,) * (n - 2),
                      drive=Linearized(delta=1.0, g_lin=(g,) * n))


def test_acceptance_1_dark_mode_plateau():
    # two identical resonators, no phonon exchange: the dark mode pins each
    # occupation at nbar/2 = 500 (within 5%) despite the strong drive
    rep = cool(build_drift(get_preset("fig2_eta0")))
    ok = bool(np.all(np.abs(rep.n_f - 500.0) <= 0.05 * 500.0))
    verdict(1, "dark-mode plateau n_f ~ nbar/2 without exchange", ok)


def test_acceptance_2_phase_controlled_cooling():
    # theta = pi/2: both modes in the ground-state regime with n_1 < n_2;
    # theta = 3pi/2 reverses the asymmetry
    spec = get_preset("fig2")
    fwd = cool(build_drift(spec)).n_f
    rev = cool(build_drift(spec.with_(theta=(3 * math.pi / 2,)))).n_f
    ok = (fwd[0] < fwd[1] < 1.0) and (rev[1] < rev[0] < 1.0)
    ok = ok and np.allclose(sorted(fwd), sorted(rev), rtol=1e-6)
    verdict(2, "ground-state cooling with phase-reversible asymmetry", ok)


def test_acceptance_3_chain_ceiling_and_recovery():
    # N = 3, 4: without exchange every resonator saturates at
    # nbar (N-1)/N (within 5%); eta = 0.1 with theta_1 = pi/2 restores
    # cooling below one phonon for all of them
    ok = True
    for n in (3, 4):
        plateau = cool(build_drift(chain_spec(n, 0.0, 0.0))).n_f
        target = 1e3 * (n - 1) / n
        ok = ok and bool(np.all(np.abs(plateau - target) <= 0.05 * target))
        cooled = cool(build_drift(chain_spec(n, 0.1, math.pi / 2))).n_f
        ok = ok and bool(np.all(cooled < 1.0))
    verdict(3, "N-chain plateau nbar(N-1)/N and phase-restored cooling", ok)


def test_acceptance_4_nonreciprocity():
    # relative scattering rate: exactly 1 at Pi = 1, theta = pi/2 (analytic),
    # numeric within 0.05 of analytic over a 16-point theta grid, exact
    # antisymmetry, and reciprocity at theta in {0, pi, 2pi}
    coop = Cooperativities(5000.0, 5000.0, 25_000_000.0)  # Pi exactly 1
    ok = coop.pi_ratio == 1.0
    ok = ok and lambda_analytic(coop, math.pi / 2) == 1.0
    spec = get_preset("fig3")
    for th in np.linspace(0.0, 2 * math.pi, 16):
        d = build_drift(spec.with_(theta=(float(th),)))
        lam = lambda_numeric(d, 1.0, coop)
        ok = ok and abs(lam[2, 1] - lambda_analytic(coop, float(th))) < 0.05
        ok = ok and bool(np.abs(lam + lam.T).max() == 0.0)
    for th in (0.0, math.pi, 2 * math.pi):
        ok = ok and abs(lambda_analytic(coop, th)) <= 1e-10
        d = build_drift(spec.with_(theta=(th,)))
        ok = ok and abs(lambda_numeric(d, 1.0, coop)[2, 1]) <= 1e-10
    verdict(4, "nonreciprocal scattering rate vs closed form", ok)


def test_acceptance_5_simplified_limit_accuracy():
    # the transfer-rate limit formula tracks the exact covariance to 10%
    # in the resolved-sideband point kappa = 0.2, and its error grows
    # monotonically as kappa leaves that regime
    spec0 = get_preset("fig4")
    errs = []
    for kappa in (0.2, 0.6, 1.0):
        spec = spec0.with_(kappa=kappa)
        exact = cool(build_drift(spec)).n_f
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            approx = cooling_limit_simplified(effective_model(spec), spec)
        errs.append(max(abs(approx[l] - exact[l]) / exact[l] for l in (0, 1)))
    ok = errs[0] <= 0.10 and errs[0] < errs[1] < errs[2]
    verdict(5, "adiabatic limit formula within 10% at kappa = 0.2", ok)


def test_acceptance_6_rwa_validity():
    # dropping the counter-rotating phonon-exchange terms is harmless for
    # eta <= 0.1 (relative gap <= 10%) and fails badly at eta = 0.5
    spec0 = get_preset("figS13")
    gaps = {}
    for eta in (0.05, 0.1, 0.5):
        spec = spec0.with_(eta=(eta,))
        out = {}
        for mech in (RWA, FULL):
            d = build_drift(spec, CouplingApprox(FULL, mech))
            # eta = 0.5 with the counter-rotating terms is dynamically
            # unstable; solve the linear system anyway as a diagnostic
            v = lyapunov_solve(d, require_stable=False)
            out[mech] = phonon_numbers(v, 2).n_f
        gaps[eta] = float(np.max(np.abs(out[RWA] - out[FULL]) / np.abs(out[FULL])))
    stable_at_half, _ = stability_check(
        build_drift(spec0.with_(eta=(0.5,)), CouplingApprox(FULL, FULL)))
    ok = gaps[0.05] <= 0.10 and gaps[0.1] <= 0.10
    ok = ok and gaps[0.5] > gaps[0.05] and not stable_at_half
    verdict(6, "phonon-exchange RWA valid for eta <= 0.1, broken at 0.5", ok)


def test_acceptance_7_lyapunov_vs_time_domain():
    # dual-route check: the algebraic steady state agrees with long-time
    # RK4 integration of the covariance flow to 1e-6 in every diagonal,
    # over 20 random stable specs
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    while checked < 20:
        gamma = tuple(rng.uniform(0.01, 0.05, 2))
        spec = SystemSpec(
            n_mech=2, omega_m=tuple(rng.uniform(0.95, 1.05, 2)),
            kappa=float(rng.uniform(0.1, 0.3)), gamma=gamma,
            nbar=tuple(rng.uniform(1.0, 50.0, 2)),
            eta=(float(rng.uniform(0.0, 0.04)),),
            theta=(float(rng.uniform(0.0, 2 * math.pi)),),
            drive=Linearized(delta=float(rng.uniform(0.9, 1.1)),
                             g_lin=tuple(rng.uniform(0.02, 0.08, 2))))
        d = build_drift(spec)
        stable, _ = stability_check(d)
        if not stable:
            continue
        checked += 1
        v = lyapunov_solve(d)
        t_end = 50.0 / min(gamma)
        x = kernels.rk4_lyapunov_flow(d.a, d.q.astype(complex),
                                      np.zeros_like(d.a), t_end, 0.02)
        dv, dx = np.diag(v), np.diag(x)
        ok = ok and bool(np.all(np.abs(dx - dv) <= 1e-6 * np.abs(dv)))
    verdict(7, "steady-state solver vs RK4 time-domain oracle (20 specs)", ok)


def test_acceptance_8_collective_mode_structure():
    # closed-form chain frequencies match the coupling-block eigenvalues to
    # 1e-10; the N = 4, theta_1 = 0 chain has exactly two dark modes; the
    # two-mode hybrid transform is dark at theta in {0, pi} and conserves
    # total coupling power to 1e-12
    ok = True
    for n in (2, 3, 4, 5):
        for th in (0.0, math.pi / 2):
            spec = chain_spec(n, 0.1, th)
            nm = normal_modes(spec)
            vals = np.linalg.eigvalsh(mechanical_matrix(spec))
            ok = ok and bool(np.allclose(np.sort(nm.omega_k), np.sort(vals),
                                         atol=1e-10, rtol=0.0))
            power = float(np.sum(np.abs(nm.coupling_k) ** 2))
            ok = ok and abs(power - n * 0.1 ** 2) <= 1e-12
    ok = ok and int(normal_modes(chain_spec(4, 0.1, 0.0)).dark_flags.sum()) == 2
    spec2 = get_preset("fig2")
    for th in (0.0, math.pi):
        ok = ok and hybrid_transform(spec2.with_(theta=(th,))).darkness <= 1e-10
    verdict(8, "collective/hybrid mode structure and dark-mode count", ok)


def test_acceptance_9_lambda_three_level():
    # Cardano solution of the three-level loop: residual <= 1e-10 across the
    # (eta, theta) grid, a dark state exactly when theta = 0 mod pi, and the
    # closed-form eigenvalue sets at theta = 0, pi
    ok = True
    for eta in np.geomspace(0.05, 2.0, 10):
        for th in np.linspace(0.0, 2 * math.pi, 17):
            roots, card = _cardano_roots(float(eta), float(th))
            ok = ok and card["imag_residue"] <= 1e-10
            for lam in roots:
                ok = ok and abs(lam ** 3 - (2 + eta * eta) * lam
                                - 2 * eta * math.cos(th)) <= 1e-10
    for eta in (0.1, 0.7, 1.5):
        for n, th in ((0, 0.0), (1, math.pi)):
            res = lambda_eigensystem(LambdaSystem(1.0, 1.0, eta, th))
            ok = ok and res.dark_index is not None
            ok = ok and res.p_e[res.dark_index] <= 1e-10
            sgn = (-1.0) ** (n + 1)
            expect = {sgn * eta, 0.5 * (-sgn * eta - math.sqrt(8 + eta * eta)),
                      0.5 * (-sgn * eta + math.sqrt(8 + eta * eta))}
            for lam in res.lambdas:  # labeling-free set comparison
                ok = ok and min(abs(lam - e) for e in expect) <= 1e-10
            ok = ok and abs(res.lambdas[res.dark_index] - sgn * eta) <= 1e-10
        for th in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            res = lambda_eigensystem(LambdaSystem(1.0, 1.0, eta, th))
            ok = ok and res.dark_index is None and res.p_e.min() >= 1e-4
    verdict(9, "three-level loop eigensystem and dark-state condition", ok)


def test_acceptance_10_cli_parallel_determinism(tmp_path):
    # a parallel sweep must produce byte-identical CSV output to the serial
    # one (modulo the timestamped metadata comment block)
    runner = CliRunner()
    axis = "theta[0]=0:6.283185307179586:12"
    bodies = []
    for workers in ("1", "4"):
        out = tmp_path / ("w%s.csv" % workers)
        res = runner.invoke(cli_main, ["sweep", "--preset", "fig2",
                                       "--axis", axis, "--workers", workers,
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        bodies.append([ln for ln in out.read_text().splitlines()
                       if not ln.startswith("#")])
    ok = bodies[0] == bodies[1] and len(bodies[0]) == 13
    verdict(10, "serial and parallel sweeps byte-identical", ok)
