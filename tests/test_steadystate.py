import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from loopcool import get_preset, kernels, numkit, steadystate
from loopcool.errors import ShapeMismatch, Unstable
from loopcool.model import FULL, RWA, CouplingApprox, DriftModel, Linearized, build_drift
from loopcool.presets import PRESETS, _chain
from loopcool.steadystate import (cool, cool_many, cool_or_flag, lyapunov_residual,
                                  lyapunov_solve, phonon_numbers,
                                  stability_check)


def manual_drift(a, q):
    return DriftModel(a=np.asarray(a, complex), q=np.asarray(q, complex),
                      c=np.asarray(q, complex), ordering="manual",
                      approx=CouplingApprox())


def test_lyapunov_scalar():
    # a v + v a = -q with a = -1, q = 2  ->  v = 1
    d = manual_drift([[-1.0]], [[2.0]])
    v = lyapunov_solve(d)
    assert v[0, 0] == pytest.approx(1.0)
    assert lyapunov_residual(d, v) < 1e-14


def test_lyapunov_diagonal():
    d = manual_drift(np.diag([-1.0, -2.0]), np.diag([2.0, 8.0]))
    v = lyapunov_solve(d)
    assert np.allclose(v, np.diag([1.0, 2.0]))


def test_stability_verdicts():
    stable, absc = stability_check(manual_drift(np.diag([-1.0, -3.0]), np.eye(2)))
    assert stable and absc == pytest.approx(-1.0)
    stable, absc = stability_check(manual_drift(np.diag([-1.0, 0.0]), np.eye(2)))
    assert not stable and abs(absc) < 1e-12
    stable, absc = stability_check(manual_drift(np.diag([-1.0, 0.5]), np.eye(2)))
    assert not stable and absc == pytest.approx(0.5)


def test_lyapunov_rejects_near_singular():
    with pytest.raises(Unstable):
        lyapunov_solve(manual_drift(np.diag([-1.0, -1e-14]), np.eye(2)))


def test_lyapunov_require_stable_false():
    d = manual_drift(np.diag([1.0]), np.diag([2.0]))
    v = lyapunov_solve(d, require_stable=False)
    assert v[0, 0] == pytest.approx(-1.0)


def test_thermalization_without_drive():
    # G = 0: each resonator just thermalizes to its own bath
    spec = get_preset("fig2").with_(drive=get_preset("fig2").drive.__class__(
        delta=1.0, g_lin=(0.0, 0.0)), eta=(0.0,), theta=(0.0,), nbar=(7.0, 3.0))
    rep = cool(build_drift(spec))
    assert rep.n_f[0] == pytest.approx(7.0, rel=1e-9)
    assert rep.n_f[1] == pytest.approx(3.0, rel=1e-9)
    assert rep.n_cav == pytest.approx(0.0, abs=1e-9)


def test_fig2_cooling_report():
    rep = cool(build_drift(get_preset("fig2")))
    assert rep.stable
    assert rep.residual < 1e-10
    assert 0 < rep.n_f[0] < 1 and 0 < rep.n_f[1] < 1
    assert rep.n_f[0] < rep.n_f[1]


def test_covariance_symmetric():
    v = lyapunov_solve(build_drift(get_preset("fig2")))
    assert np.allclose(v, v.T, atol=1e-10)


def test_dark_mode_ceiling_without_exchange():
    # eta = 0 with identical resonators: the dark mode keeps roughly half
    # the thermal occupation no matter the drive
    spec = get_preset("fig2_eta0")
    floor = 0.5 * spec.nbar[0]
    for delta, kappa in [(1.0, 0.2), (1.0, 0.5), (0.8, 0.3)]:
        rep = cool(build_drift(spec.with_(kappa=kappa, drive=spec.drive.__class__(
            delta=delta, g_lin=spec.drive.g_lin))))
        assert rep.n_f.sum() >= 0.95 * floor


def test_rk4_matches_lyapunov():
    spec = get_preset("fig2").with_(gamma=(0.02, 0.02), nbar=(20.0, 20.0))
    d = build_drift(spec)
    v = lyapunov_solve(d)
    t_end = 50.0 / min(spec.gamma)
    x = kernels.rk4_lyapunov_flow(d.a, d.q.astype(complex),
                                  np.zeros_like(d.a), t_end, 0.02)
    diag = np.abs(np.diag(v))
    err = np.abs(np.diag(x) - np.diag(v)) / np.maximum(diag, 1e-300)
    assert err.max() < 1e-6


def test_unstable_mech_full_strong_exchange():
    spec = get_preset("figS13").with_(eta=(0.5,))
    d = build_drift(spec, CouplingApprox(FULL, FULL))
    with pytest.raises(Unstable):
        cool(d)


def test_cool_or_flag_nan_record():
    spec = get_preset("figS13").with_(eta=(0.5,))
    rep = cool_or_flag(build_drift(spec, CouplingApprox(FULL, FULL)))
    assert not rep.stable
    assert np.all(np.isnan(rep.n_f)) and math.isnan(rep.n_cav)
    assert rep.spectral_abscissa > 0


def test_phonon_numbers_shape_check():
    with pytest.raises(ShapeMismatch):
        phonon_numbers(np.eye(4), 2)


def _kron_lu_lyapunov(drift):
    """Reference: (I x A + A x I) vec V = -vec Q by a dense LU of the n^2 lift."""
    a = drift.a
    eye = np.eye(a.shape[0])
    op = numkit.kron(eye, a) + numkit.kron(a, eye)
    return numkit.solve_linear(op, -drift.q.reshape(-1)).reshape(a.shape)


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("om", [RWA, FULL])
@pytest.mark.parametrize("mech", [RWA, FULL])
def test_lyapunov_matches_kronecker_reference(name, om, mech):
    d = build_drift(get_preset(name), CouplingApprox(om, mech))
    _, abscissa = stability_check(d)
    ref = _kron_lu_lyapunov(d)
    rel = np.abs(lyapunov_solve(d) - ref).max() / np.abs(ref).max()
    if name == "fig2_eta0":
        # the dark mode decays only at gamma: an ill-conditioned system
        assert rel <= 1e-10
    else:
        assert abscissa < -1e-3
        assert rel <= 1e-12


def test_one_margin_for_every_verdict():
    d = build_drift(get_preset("fig2"))
    _, abscissa = stability_check(d)
    shifted = dataclasses.replace(d, a=d.a - (abscissa + 1e-11) * np.eye(d.a.shape[0]))
    stable, abscissa = stability_check(shifted)
    assert abscissa == pytest.approx(-1e-11, abs=1e-14)
    assert not stable
    rep = cool_or_flag(shifted)
    assert not rep.stable and rep.spectral_abscissa == abscissa
    with pytest.raises(Unstable):
        lyapunov_solve(shifted)


def test_cool_runs_one_eigensolve(monkeypatch):
    calls = []
    eig = steadystate._eig

    def counted(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(steadystate, "_eig", counted)
    rep = cool(build_drift(get_preset("fig2")))
    assert rep.stable and len(calls) == 1


def test_lyapunov_chain_beyond_kron_cap():
    d = build_drift(_chain(32, 0.05, 0.05, math.pi / 2))
    assert d.a.shape[0] ** 2 > numkit.KRON_CAP
    v = lyapunov_solve(d)
    assert lyapunov_residual(d, v) <= 1e-10 * numkit.norm_inf(d.q)


# --- the batched engine: eig route, backward-error test, Schur fallback ----

def _schur(drift):
    """The Schur-based Bartels-Stewart solve the eig route must reproduce."""
    return scipy.linalg.solve_sylvester(drift.a, drift.a.T, -drift.q)


def _rel(v, ref):
    return np.abs(v - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("om", [RWA, FULL])
@pytest.mark.parametrize("mech", [RWA, FULL])
def test_engine_matches_schur_solve(name, om, mech):
    d = build_drift(get_preset(name), CouplingApprox(om, mech))
    ref = _schur(d)
    assert _rel(lyapunov_solve(d), ref) <= 1e-12
    rep = cool(d)
    want = phonon_numbers(ref, d.spec.n_mech)
    # occupations relative to their covariance entries n + 1/2
    assert np.all(np.abs(rep.n_f - want.n_f) <= 1e-12 * (np.abs(want.n_f) + 0.5))
    assert abs(rep.n_cav - want.n_cav) <= 1e-12 * (abs(want.n_cav) + 0.5)
    assert rep.solver in ("eig", "schur")


def test_well_conditioned_point_takes_eig_route():
    rep = cool(build_drift(get_preset("fig2")))
    assert rep.solver == "eig"
    assert cool_or_flag(build_drift(get_preset("figS13").with_(eta=(0.5,)),
                                    CouplingApprox(FULL, FULL))).solver is None


def _near_defective(split):
    """4x4 drift with a Jordan-like block whose eigenvalues differ by `split`."""
    a = np.diag([-1.0, -1.0 - split, -2.0, -3.0]).astype(complex)
    a[0, 1] = 1.0
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return manual_drift(u @ a @ u.conj().T, np.eye(4))


def test_near_defective_drift_falls_back_to_schur():
    d = _near_defective(1e-9)
    _, w = np.linalg.eig(d.a)
    assert np.linalg.cond(w) > 1e7  # the eig route is off by percents here
    rep = cool_or_flag(d)
    assert rep.stable and rep.solver == "schur"
    ref = _schur(d)
    assert _rel(lyapunov_solve(d), ref) <= 1e-12
    assert rep.n_cav == phonon_numbers(ref, 1).n_cav


def test_singular_eigenvector_stack_falls_back_to_schur(monkeypatch):
    # an exactly singular W anywhere in a chunk sends the whole chunk to Schur
    def singular(w):
        raise np.linalg.LinAlgError("Singular matrix")

    drifts = [build_drift(get_preset(name)) for name in ("fig2", "fig3")]
    monkeypatch.setattr(np.linalg, "inv", singular)
    reports = cool_many(drifts)
    assert [r.solver for r in reports] == ["schur", "schur"]
    for d, rep in zip(drifts, reports):
        assert np.array_equal(rep.n_f, phonon_numbers(_schur(d), 2).n_f)


def test_fig2_zero_detuning_column_matches_schur():
    # cond(W) ~ 1e8 along delta = 0: the backward-error test must send these to Schur
    base = get_preset("fig2")
    drifts = [build_drift(base.with_(theta=(th,), drive=Linearized(delta=0.0,
                                                                   g_lin=base.drive.g_lin)))
              for th in np.linspace(0.0, 2.0 * math.pi, 33)]
    reports = cool_many(drifts)
    assert all(r.stable for r in reports)
    assert any(r.solver == "schur" for r in reports)
    for d, rep in zip(drifts, reports):
        want = phonon_numbers(_schur(d), 2)
        assert np.all(np.abs(rep.n_f - want.n_f) <= 1e-12 * (np.abs(want.n_f) + 0.5))
        assert abs(rep.n_cav - want.n_cav) <= 1e-12 * (abs(want.n_cav) + 0.5)


def test_batch_equals_batches_of_one():
    # a chunk's reports do not depend on the rest of the chunk (sweep CSVs rely on it)
    base = get_preset("fig2")
    drifts = [build_drift(base.with_(theta=(th,), drive=Linearized(delta=dl,
                                                                   g_lin=base.drive.g_lin)))
              for dl in (-1.0, 0.0, 0.7, 1.0) for th in np.linspace(0.0, 6.0, 5)]
    batch = cool_many(drifts)
    assert {r.stable for r in batch} == {True, False}
    for d, rep in zip(drifts, batch):
        one = cool_or_flag(d)
        assert one.stable == rep.stable and one.solver == rep.solver
        assert one.spectral_abscissa == rep.spectral_abscissa
        assert np.array_equal(one.n_f, rep.n_f, equal_nan=True)
        assert one.n_cav == rep.n_cav or (math.isnan(one.n_cav) and math.isnan(rep.n_cav))
