import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from loopcool import get_preset, kernels, steadystate
from loopcool.errors import ShapeMismatch, Unstable
from loopcool.model import (FULL, RWA, CouplingApprox, DriftModel, Linearized, SystemSpec,
                            build_drift)
from loopcool.presets import PRESETS, _chain
from loopcool.steadystate import (cool, cool_many, cool_or_flag, lyapunov_residual,
                                  lyapunov_solve, phonon_numbers,
                                  stability_check)


def stacked(drifts):
    """The (a, q) stacks that cool_many takes."""
    return np.stack([d.a for d in drifts]), np.stack([d.q for d in drifts])


def manual_drift(a, q):
    return DriftModel(a=np.asarray(a, complex), q=np.asarray(q, complex))


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
    d = manual_drift(np.diag([-1.0, -1e-14]), np.eye(2))
    with pytest.raises(Unstable) as err:
        lyapunov_solve(d)
    assert err.value.abscissa == stability_check(d)[1] == -1e-14  # the benchmark's tracer reads it


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


@pytest.mark.parametrize("eta, stable", [(0.05, True), (0.5, False)])
def test_cool_or_flag_is_row_0_of_cool_many(eta, stable):
    d = build_drift(get_preset("figS13").with_(eta=(eta,)), CouplingApprox(FULL, FULL))
    one, batch = cool_or_flag(d), cool_many(d.a[None], d.q[None])
    assert one.stable is stable and vars(one).keys() == vars(batch).keys()
    kinds = {"n_f": np.ndarray, "stable": bool, "solver": str if stable else type(None)}
    for name, value in vars(one).items():
        row = getattr(batch, name)[0]
        assert type(value) is kinds.get(name, float), name
        assert value == row if name == "solver" else \
            np.asarray(value).tobytes() == np.asarray(row).tobytes(), name


def test_phonon_numbers_shape_check():
    with pytest.raises(ShapeMismatch):
        phonon_numbers(np.eye(4), 2)


def _kron_lu_lyapunov(drift):
    """Reference: (I x A + A x I) vec V = -vec Q by a dense LU of the n^2 lift."""
    a = drift.a
    eye = np.eye(a.shape[0])
    op = np.kron(eye, a) + np.kron(a, eye)
    return np.linalg.solve(op, -drift.q.reshape(-1)).reshape(a.shape)


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
    assert d.a.shape[0] ** 2 > kernels.KRON_CAP
    v = lyapunov_solve(d)
    assert lyapunov_residual(d, v) <= 1e-10 * np.abs(d.q).max()


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
    assert want.stable is None  # V alone gives no verdict
    # occupations relative to their covariance entries n + 1/2
    assert np.all(np.abs(rep.n_f - want.n_f) <= 1e-12 * (np.abs(want.n_f) + 0.5))
    assert abs(rep.n_cav - want.n_cav) <= 1e-12 * (abs(want.n_cav) + 0.5)
    assert rep.solver in ("eig", "schur")


def test_well_conditioned_point_takes_eig_route():
    rep = cool(build_drift(get_preset("fig2")))
    assert rep.solver == "eig"
    assert cool_or_flag(build_drift(get_preset("figS13").with_(eta=(0.5,)),
                                    CouplingApprox(FULL, FULL))).solver is None


def _fresh_python(code):
    """stdout of code run by a new interpreter on this source tree.  The tests
    import scipy and concurrent.futures into this process, so only a new one
    shows what loopcool itself imports."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True).stdout


def test_cool_on_the_eig_route_never_imports_scipy():
    out = _fresh_python(
        "import sys\n"
        "from loopcool.cli import main\n"
        "main.main(args=['cool', '--preset', 'fig2'], standalone_mode=False)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.splitlines()[-1] == "[]"


def test_rk4_oracle_import_leaves_scipy_linalg_out():
    # the oracle does no linear solve, so it stays independent of the solver
    out = _fresh_python("import sys, loopcool.kernels\n"
                        "print('scipy.linalg' in sys.modules)\n")
    assert out.splitlines() == ["False"]


def test_numkit_is_numpys_own_functions():
    # the benchmark's tracer wraps these three names; no library module calls them
    from loopcool import numkit
    assert (numkit.solve_linear, numkit.eigenvalues, numkit.kron) == (
        np.linalg.solve, np.linalg.eigvals, np.kron)


def test_serial_cli_never_imports_concurrent_futures():
    # only sweep --workers > 1 starts worker threads
    out = _fresh_python(
        "import sys\n"
        "from loopcool.cli import main\n"
        "main.main(args=['cool', '--preset', 'fig2'], standalone_mode=False)\n"
        "print('concurrent.futures' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_schur_route_imports_scipy_when_needed():
    # every point of fig2's Delta = 0 column takes the Schur route
    out = _fresh_python(
        "import dataclasses\n"
        "from loopcool import build_drift, cool_or_flag, get_preset\n"
        "spec = get_preset('fig2')\n"
        "spec = spec.with_(drive=dataclasses.replace(spec.drive, delta=0.0))\n"
        "print(cool_or_flag(build_drift(spec)).solver)\n")
    assert out.splitlines() == ["schur"]


def test_two_sweep_threads_import_the_schur_fallback_together(tmp_path):
    # 128 points in two chunks, every one on the Schur route: both threads
    # reach the first `import scipy.linalg` at once; no process is started
    out = _fresh_python(
        "import sys\n"
        "from loopcool.cli import main\n"
        "def body(workers):\n"
        "    out = %r + '/w' + workers + '.csv'\n"
        "    main.main(args=['sweep', '--preset', 'fig2', '--axis', 'drive.delta=0:0:2',\n"
        "                    '--axis', 'theta[0]=0:6.283185307179586:64', '--out', out,\n"
        "                    '--workers', workers], standalone_mode=False)\n"
        "    with open(out) as fh:\n"
        "        return [ln for ln in fh if not ln.startswith('#')]\n"
        "parallel = body('2')\n"
        "loaded = 'scipy.linalg' in sys.modules, 'multiprocessing' in sys.modules\n"
        "serial = body('1')\n"
        "print(*loaded, len(parallel), parallel == serial)\n" % str(tmp_path))
    assert out.splitlines()[-1] == "True False 129 True"


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
    # the reported residual is that of the Schur solution, not of the rejected eig one
    assert rep.residual == lyapunov_residual(d, lyapunov_solve(d)) <= 1e-12
    assert rep.n_cav == phonon_numbers(ref, 1).n_cav


def test_singular_eigenvector_stack_falls_back_to_schur(monkeypatch):
    # an exactly singular W anywhere in a chunk sends the whole chunk to Schur
    def singular(w):
        raise np.linalg.LinAlgError("Singular matrix")

    drifts = [build_drift(get_preset(name)) for name in ("fig2", "fig3")]
    monkeypatch.setattr(np.linalg, "inv", singular)
    batch = cool_many(*stacked(drifts))
    assert batch.solver.tolist() == ["schur", "schur"]
    for d, n_f in zip(drifts, batch.n_f):
        assert np.array_equal(n_f, phonon_numbers(_schur(d), 2).n_f)


def test_fig2_zero_detuning_column_matches_schur():
    # cond(W) ~ 1e8 along delta = 0: the backward-error test must send these to Schur
    base = get_preset("fig2")
    drifts = [build_drift(base.with_(theta=(th,), drive=Linearized(delta=0.0,
                                                                   g_lin=base.drive.g_lin)))
              for th in np.linspace(0.0, 2.0 * math.pi, 33)]
    batch = cool_many(*stacked(drifts))
    assert batch.stable.all()
    assert "schur" in batch.solver.tolist()
    for d, n_f, n_cav, residual in zip(drifts, batch.n_f, batch.n_cav, batch.residual):
        assert residual == lyapunov_residual(d, lyapunov_solve(d))
        want = phonon_numbers(_schur(d), 2)
        assert np.all(np.abs(n_f - want.n_f) <= 1e-12 * (np.abs(want.n_f) + 0.5))
        assert abs(n_cav - want.n_cav) <= 1e-12 * (abs(want.n_cav) + 0.5)


def test_batch_equals_batches_of_one():
    # a chunk's reports do not depend on the rest of the chunk (sweep CSVs rely on it)
    base = get_preset("fig2")
    drifts = [build_drift(base.with_(theta=(th,), drive=Linearized(delta=dl,
                                                                   g_lin=base.drive.g_lin)))
              for dl in (-1.0, 0.0, 0.7, 1.0) for th in np.linspace(0.0, 6.0, 5)]
    batch = cool_many(*stacked(drifts))
    assert set(batch.stable.tolist()) == {True, False}
    for i, d in enumerate(drifts):
        one = cool_or_flag(d)
        assert one.stable == batch.stable[i] and one.solver == batch.solver[i]
        assert one.spectral_abscissa == batch.spectral_abscissa[i]
        assert np.array_equal(one.n_f, batch.n_f[i], equal_nan=True)
        assert one.n_cav == batch.n_cav[i] or (math.isnan(one.n_cav)
                                               and math.isnan(batch.n_cav[i]))


def test_real_stacks_give_the_bits_of_their_complex_copies():
    # two real stable drifts (n_mech = 1), one with real and one with complex eigenvalues
    a = np.stack([-np.eye(4) + 0.3 * np.tri(4, k=-1), -0.5 * np.eye(4) + np.diag([1.0, 0, 1.0], 1)
                  - np.diag([1.0, 0, 1.0], -1)])
    q = np.stack([np.eye(4)[::-1]] * 2)
    real, ref = cool_many(a, q), cool_many(a.astype(complex), q)
    assert real.stable.all()
    for name, value in vars(ref).items():
        assert np.array_equal(getattr(real, name), value), name


def _random_chain(rng):
    """A linearized chain of 2 to 5 resonators; with the optomechanical
    counter-rotating terms kept, about a third are unstable."""
    n = int(rng.integers(2, 6))
    return SystemSpec(
        n_mech=n, omega_m=tuple(rng.uniform(0.8, 1.2, n)), kappa=float(rng.uniform(0.05, 0.5)),
        gamma=tuple(rng.uniform(1e-6, 1e-4, n)), nbar=tuple(rng.uniform(10.0, 1e3, n)),
        eta=tuple(rng.uniform(0.0, 0.2, n - 1)), theta=tuple(rng.uniform(0.0, 2 * math.pi, n - 1)),
        drive=Linearized(delta=float(rng.uniform(-1.5, 1.5)), g_lin=tuple(rng.uniform(0.01, 0.2, n))))


@pytest.mark.parametrize("om", [RWA, FULL])
@pytest.mark.parametrize("mech", [RWA, FULL])
def test_flipping_one_resonator_sign_is_a_gauge(om, mech):
    # b_j -> -b_j negates g_j and adds pi to the phases of the hops at j: the
    # same physics, so the same verdict and occupations
    approx = CouplingApprox(om, mech)
    rng = np.random.default_rng(25)
    for _ in range(60):
        spec = _random_chain(rng)
        j = int(rng.integers(spec.n_mech))
        g_lin = tuple(-g if k == j else g for k, g in enumerate(spec.drive.g_lin))
        theta = tuple(t + math.pi if k in (j - 1, j) else t for k, t in enumerate(spec.theta))
        flipped = spec.with_(theta=theta, drive=Linearized(delta=spec.drive.delta, g_lin=g_lin))
        ref, got = (cool_or_flag(build_drift(s, approx)) for s in (spec, flipped))
        assert got.stable == ref.stable
        if ref.stable:
            assert np.all(np.abs(got.n_f - ref.n_f) <= 1e-10 * (np.abs(ref.n_f) + 0.5))
            assert abs(got.n_cav - ref.n_cav) <= 1e-10 * (abs(ref.n_cav) + 0.5)
