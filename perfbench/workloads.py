"""The benchmark's four workloads: seeded inputs, timed units, reference checks.

A workload is built from a seed and a working directory.  Building it is the
set-up the benchmark times: it writes the generated config files and loads
every spec the program will read.  A pass is a list of units (one CLI
invocation, or one oracle spec); each unit is timed on its own and checked
against an independent reference right after it ran, outside the timed region.

Why these four (each stresses a different layer):

* landscape - fig2 sweep over detuning x loop phase; half the grid is
  blue-detuned and unstable, so per-point CLI overhead, `build_drift`, the
  eigensolves and the flagged-unstable path dominate.
* chain     - uniform chains at N = 4, 8, 16 swept over the first loop
  phase; the Kronecker-lifted Lyapunov solve (n^6) dominates.
* spectrum  - fig3-like two-mode configs on a 16-point loop-phase grid,
  801 probe frequencies each; one small LU per frequency, no Lyapunov solve.
* oracle    - random stable N = 2 specs drawn as in acceptance check 7,
  integrated with the RK4 covariance flow and compared with the steady state.
"""

import contextlib
import functools
import io
import math
import os
import time
import traceback

import numpy as np
import scipy.linalg

from loopcool import cli, config, kernels, model, presets, steadystate
from loopcool.model import Linearized, SystemSpec

TWO_PI = 2.0 * math.pi

#: spectral abscissas at or above this are promised to be flagged unstable
UNSTABLE_AT = -1e-10
#: stability_check's own margin; abscissas in [UNSTABLE_AT, this) get
#: conflicting verdicts from `loopcool stability` and `loopcool cool`
CHECK_MARGIN = -1e-12

#: abscissa agreement with np.linalg.eigvals (the same LAPACK routine)
ABSCISSA_ATOL = 1e-10
#: covariance agreement with scipy's Bartels-Stewart solve (max-norm, relative)
COV_RTOL = 1e-9
#: occupation agreement, relative to the covariance entry n + 1/2
OCC_RTOL = 1e-9
#: transmittance / scattering-rate agreement with the np.linalg.solve route
SCAT_RTOL = 1e-9
#: acceptance check 7: RK4 diagonal against the Lyapunov diagonal
ORACLE_RTOL = 1e-6


@functools.cache
def _calibration_inputs():
    rng = np.random.default_rng(0)
    small = [(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / 6
             for _ in range(8)]
    big = rng.standard_normal((700, 700)) + 1j * rng.standard_normal((700, 700))
    return small, big


def calibrate_small():
    """Seconds for interpreter-bound work on 6x6 matrices, as in a grid point."""
    small, _ = _calibration_inputs()
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(25):
        for a in small:
            x = a @ a + a
            acc += float(np.abs(np.linalg.eigvals(x)).max())
        for i in range(400):
            acc += i * 0.5
    return time.perf_counter() - t0


def calibrate_lu():
    """Seconds for one LU of a dense 700x700 complex matrix, as in a chain solve."""
    _, big = _calibration_inputs()
    t0 = time.perf_counter()
    scipy.linalg.lu_factor(big, check_finite=False)
    return time.perf_counter() - t0


def invoke(argv):
    """Run `loopcool <argv>` in-process; return (exit code, captured output)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            cli.main.main(args=argv, prog_name="loopcool", standalone_mode=False)
        return 0, buf.getvalue()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return code, buf.getvalue()
    except Exception:  # a crash is counted as failed items, never aborts the run
        return 1, buf.getvalue() + traceback.format_exc()


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _ini(params):
    """INI text for a linearized-drive spec given as a parameter dict."""
    def j(xs):
        return ", ".join(repr(float(x)) for x in xs)
    lines = ["[system]",
             "n_mech = %d" % params["n_mech"],
             "omega_m = " + j(params["omega_m"]),
             "kappa = %r" % float(params["kappa"]),
             "gamma = " + j(params["gamma"]),
             "nbar = " + j(params["nbar"]),
             "eta = " + j(params["eta"]),
             "theta = " + j(params["theta"]),
             "", "[drive]", "type = linearized",
             "delta = %r" % float(params["delta"]),
             "g_lin = " + j(params["g_lin"]), ""]
    return "\n".join(lines)


def _steady_reference(spec):
    """(abscissa, n_f, n_cav) from numpy eigvals and scipy's Sylvester solver."""
    d = model.build_drift(spec)
    abscissa = float(np.max(np.linalg.eigvals(d.a).real))
    if abscissa >= UNSTABLE_AT:
        return abscissa, None, None
    v = scipy.linalg.solve_sylvester(d.a, d.a.T, -d.q)
    dim = spec.n_mech + 1
    n_f = np.array([v[dim + 1 + j, 1 + j].real - 0.5 for j in range(spec.n_mech)])
    return abscissa, n_f, float(v[dim, 0].real - 0.5)


class Workload:
    """Units (CLI invocations unless overridden), items per unit, failure bookkeeping.

    The host's speed drifts by up to a third between runs (its cores are
    shared), so every timed unit is preceded by a calibration: fixed work,
    independent of loopcool, that resembles the workload's hot loop.  The
    benchmark scales throughput by the calibration's mean time over
    CAL_REF_S, its typical time on the host the benchmark was defined on
    (2-core x86_64, OpenBLAS 0.3.31 on one thread).
    """

    name = ""
    calibrate = staticmethod(calibrate_small)
    CAL_REF_S = 0.0095

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.units = []          # filled by subclasses
        self.unit_items = []     # items per unit
        self.stats = {"verdict_mismatch": 0, "unstable": 0, "points": 0,
                      "max_rel_dev": 0.0}
        self.errors = []         # first few failure messages

    @property
    def items(self):
        return sum(self.unit_items)

    def prepare(self):
        """Work the benchmark does for itself after set-up, before the first pass."""

    def run_unit(self, i):
        return invoke(self.units[i]["argv"])

    def _fail(self, msg):
        if len(self.errors) < 5:
            self.errors.append("%s: %s" % (self.name, msg))


class _Sweep(Workload):
    """A workload made of `loopcool sweep` invocations."""

    def _add_sweep(self, source, axes, base_spec):
        out = os.path.join(self.workdir, "%s-%d.csv" % (self.name, len(self.units)))
        argv = ["sweep"] + source
        for path, lo, hi, points in axes:
            argv += ["--axis", "%s=%r:%r:%d" % (path, lo, hi, points)]
        argv += ["--out", out, "--workers", "1"]
        points = 1
        for axis in axes:
            points *= axis[3]
        self.units.append({"argv": argv, "out": out, "spec": base_spec, "ref": {}})
        self.unit_items.append(points)

    def point_spec(self, base, values):
        raise NotImplementedError

    def check(self, i, output):
        """Failed items of unit i: every grid point against the reference."""
        unit = self.units[i]
        code, text = output
        if code != 0:
            self._fail("exit %d: %s" % (code, text.strip()[-300:]))
            return self.unit_items[i]
        header, rows = _csv_rows(unit["out"])
        n = unit["spec"].n_mech
        n_axes = len(header) - n - 3
        failed = 0
        if len(rows) != self.unit_items[i]:
            self._fail("%d rows for %d points" % (len(rows), self.unit_items[i]))
            return self.unit_items[i]
        for row in rows:
            key = tuple(row[:n_axes])
            ref = unit["ref"].get(key)
            if ref is None:
                spec = self.point_spec(unit["spec"], [float(x) for x in key])
                ref = unit["ref"][key] = _steady_reference(spec)
            if not self._row_ok(row, n_axes, n, ref):
                failed += 1
        return failed

    def _row_ok(self, row, n_axes, n, ref):
        abscissa, n_f, n_cav = ref
        stable = row[-2] == "true"
        self.stats["points"] += 1
        if not abs(float(row[-1]) - abscissa) <= ABSCISSA_ATOL:
            self._fail("abscissa %s vs reference %r" % (row[-1], abscissa))
            return False
        if n_f is None:
            self.stats["unstable"] += 1
            if abscissa < CHECK_MARGIN:
                self.stats["verdict_mismatch"] += 1
            if stable:
                self._fail("stable verdict at abscissa %r" % abscissa)
            return not stable
        if not stable:
            self._fail("unstable verdict at abscissa %r" % abscissa)
            return False
        got = np.array([float(x) for x in row[n_axes:n_axes + n + 1]])
        want = np.append(n_f, n_cav)
        dev = float(np.max(np.abs(got - want) / (np.abs(want) + 0.5)))
        self.stats["max_rel_dev"] = max(self.stats["max_rel_dev"], dev)
        if not dev <= OCC_RTOL:
            self._fail("occupations %s vs reference %s" % (got, want))
            return False
        return True


class Landscape(_Sweep):
    """fig2 landscape: drive.delta x theta[0], 33 x 33 (5 x 5 when smoke)."""

    name = "landscape"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        points = 5 if smoke else 33
        # sub-grid shifts: each seed samples other points of the same landscape
        d_lo, d_hi = -1.5 + self.rng.uniform(-0.02, 0.02), 1.5 + self.rng.uniform(-0.02, 0.02)
        phi = self.rng.uniform(0.0, TWO_PI / (points - 1))
        base = model.to_linearized(presets.get_preset("fig2"))
        self._add_sweep(["--preset", "fig2"],
                        [("drive.delta", d_lo, d_hi, points),
                         ("theta[0]", phi, phi + TWO_PI, points)], base)

    def point_spec(self, base, values):
        delta, theta = values
        return base.with_(theta=(theta,),
                          drive=Linearized(delta=delta, g_lin=base.drive.g_lin))


class Chain(_Sweep):
    """Uniform chains swept over theta[0]: N = 4, 8, 16 at 17, 9, 3 points (smoke: N = 4, 3)."""

    name = "chain"
    calibrate = staticmethod(calibrate_lu)
    CAL_REF_S = 0.028

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        sizes = ((4, 3),) if smoke else ((4, 17), (8, 9), (16, 3))
        g = self.rng.uniform(0.09, 0.11)
        eta = self.rng.uniform(0.09, 0.11)
        kappa = self.rng.uniform(0.18, 0.22)
        phi = self.rng.uniform(0.0, TWO_PI)
        for n, points in sizes:
            params = {"n_mech": n, "omega_m": (1.0,) * n, "kappa": kappa,
                      "gamma": (1e-5,) * n, "nbar": (1e3,) * n,
                      "eta": (eta,) * (n - 1), "theta": (phi,) + (0.0,) * (n - 2),
                      "delta": 1.0, "g_lin": (g,) * n}
            path = os.path.join(workdir, "chain-N%d.ini" % n)
            with open(path, "w") as fh:
                fh.write(_ini(params))
            base = model.to_linearized(config.parse_spec(path))
            self._add_sweep(["--config", path], [("theta[0]", phi, phi + TWO_PI, points)], base)

    def point_spec(self, base, values):
        return base.with_(theta=(values[0],) + base.theta[1:])


class Spectrum(Workload):
    """fig3-like spectra: 16 loop phases x 801 probe frequencies (2 x 51 when smoke)."""

    name = "spectrum"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        n_theta, points = (2, 51) if smoke else (16, 801)
        g = self.rng.uniform(0.095, 0.105, 2)
        eta = self.rng.uniform(0.045, 0.055)
        kappa = self.rng.uniform(0.19, 0.21)
        for k, theta in enumerate(np.linspace(0.0, TWO_PI, n_theta)):
            params = {"n_mech": 2, "omega_m": (1.0, 1.0), "kappa": kappa,
                      "gamma": (1e-5, 1e-5), "nbar": (1e3, 1e3), "eta": (eta,),
                      "theta": (theta,), "delta": 1.0, "g_lin": tuple(g)}
            path = os.path.join(workdir, "spectrum-%02d.ini" % k)
            with open(path, "w") as fh:
                fh.write(_ini(params))
            spec = model.to_linearized(config.parse_spec(path))
            out = os.path.join(workdir, "spectrum-%02d.csv" % k)
            argv = ["spectrum", "--config", path, "--points", str(points), "--out", out]
            self.units.append({"argv": argv, "out": out, "spec": spec, "ref": None})
            self.unit_items.append(points)

    def _reference(self, spec, omega):
        """T, Lambda and the resonant closed form via np.linalg.solve."""
        a = model.build_drift(spec).a
        n2 = a.shape[0]
        dim = n2 // 2
        g = np.sqrt(2.0 * np.array([spec.kappa, *spec.gamma]))
        gam = np.diag(np.concatenate([g, g]))
        lhs = -1j * omega[:, None, None] * np.eye(n2) - a
        core = np.linalg.solve(lhs, np.broadcast_to(gam, lhs.shape))
        u = gam @ core - np.eye(n2)
        t = np.abs(u[:, :dim, :dim]) ** 2 + np.abs(u[:, :dim, dim:]) ** 2
        g1, g2 = spec.drive.g_lin
        c1 = g1 ** 2 / (spec.gamma[0] * spec.kappa)
        c2 = g2 ** 2 / (spec.gamma[1] * spec.kappa)
        c3 = spec.eta[0] ** 2 / (spec.gamma[0] * spec.gamma[1])
        t_max = 4.0 * (math.sqrt(c1 * c2) + math.sqrt(c3)) ** 2 / (c1 + c2 + c3 + 1.0) ** 2
        lam = (t - np.transpose(t, (0, 2, 1))) / t_max
        pi = c3 / (c1 * c2)
        th = spec.theta[0]
        lam_res = (4.0 * math.sqrt(pi) * math.sin(th) / (1.0 + math.sqrt(pi)) ** 2
                   / (1.0 + 4.0 * pi * math.cos(th) ** 2
                      / ((c1 + c2 + 1.0) / (c1 * c2) + pi) ** 2))
        return t, lam, lam_res

    def check(self, i, output):
        unit = self.units[i]
        code, text = output
        if code != 0:
            self._fail("exit %d: %s" % (code, text.strip()[-300:]))
            return self.unit_items[i]
        _, rows = _csv_rows(unit["out"])
        if len(rows) != self.unit_items[i]:
            self._fail("%d rows for %d frequencies" % (len(rows), self.unit_items[i]))
            return self.unit_items[i]
        data = np.array(rows, dtype=float)
        if unit["ref"] is None:
            unit["ref"] = self._reference(unit["spec"], data[:, 0])
        t, lam, lam_res = unit["ref"]
        got_t = data[:, 1:10].reshape(-1, 3, 3)
        t_dev = np.max(np.abs(got_t - t), axis=(1, 2)) / np.max(np.abs(t), axis=(1, 2))
        lam_dev = np.maximum(np.abs(data[:, 10] - lam[:, 2, 1]),
                             np.abs(data[:, 11] - lam[:, 1, 2]))
        res_dev = np.abs(data[:, 12] - lam_res)
        dev = np.maximum(t_dev, np.maximum(lam_dev, res_dev))
        self.stats["max_rel_dev"] = max(self.stats["max_rel_dev"], float(dev.max()))
        bad = ~(dev <= SCAT_RTOL)
        if bad.any():
            self._fail("scattering deviation %.3e" % float(dev.max()))
        return int(bad.sum())


class Oracle(Workload):
    """RK4 covariance flow vs the Lyapunov steady state, 4 specs a pass (1 when smoke).

    Specs are drawn exactly as in acceptance check 7.  The flow stops once it
    has converged, so a spec's run time is its number of RK4 steps, which
    varies fourfold between draws; a pass of a few plain draws would cost a
    different amount for every seed.  So each pass takes, from a pool of 64
    draws, the draws whose predicted step counts lie nearest to fixed targets:
    the 1/8, 3/8, 5/8 and 7/8 quantiles of the step count over acceptance-7
    draws (measured on 512 draws).  Every seed gives other specs at the same
    cost.  Drawing the pool is set-up; costing it and picking the draws is
    the benchmark's own work, done by `prepare` outside the timed set-up.
    """

    name = "oracle"

    TARGET_STEPS = (14400, 18100, 22600, 31300)
    POOL = 64
    DT = 0.02
    #: acceptance 7 integrates to t_end = T_END_OVER_GAMMA / min(gamma)
    T_END_OVER_GAMMA = 50.0
    #: the kernel tests for convergence every CHECK_EVERY steps, at this tolerance
    CHECK_EVERY = 64
    STEADY_RTOL = 1e-13

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.targets = self.TARGET_STEPS[:1] if smoke else self.TARGET_STEPS
        self.pool = [self._draw() for _ in range(self.POOL)]

    def prepare(self):
        pool = []
        for spec in self.pool:
            steps = self.predicted_steps(spec)
            if steps is not None:  # acceptance 7 keeps stable draws only
                pool.append((steps, spec))
        for target in self.targets:
            k = min(range(len(pool)), key=lambda i: abs(pool[i][0] - target))
            steps, spec = pool.pop(k)
            self.units.append({"spec": spec, "steps": steps, "ref": None})
            self.unit_items.append(1)

    @classmethod
    def predicted_steps(cls, spec):
        """RK4 steps the flow runs before it stops as converged; None if unstable.

        From X(0) = 0 the flow is X(t) = V - E(t) with E = exp(At) V exp(A^T t),
        so its derivative is -(A E + E A^T), a sum of exponentials in the
        eigenbasis of A.  It is evaluated at the steps where the kernel tests it.
        """
        d = model.build_drift(spec)
        lam, s = np.linalg.eig(d.a)
        if lam.real.max() >= CHECK_MARGIN:
            return None
        v = scipy.linalg.solve_sylvester(d.a, d.a.T, -d.q)
        s_inv = np.linalg.inv(s)
        rates = lam[:, None] + lam[None, :]
        coef = -rates * (s_inv @ v @ s_inv.T)
        limit = cls.STEADY_RTOL * (1.0 + np.abs(v).max())
        n_steps = int(round(cls.T_END_OVER_GAMMA / min(spec.gamma) / cls.DT))
        checks = np.arange(0, n_steps, cls.CHECK_EVERY)
        for lo in range(0, len(checks), 512):
            t = checks[lo:lo + 512] * cls.DT
            deriv = s @ (coef * np.exp(rates * t[:, None, None])) @ s.T
            below = np.flatnonzero(np.abs(deriv).max(axis=(1, 2)) < limit)
            if below.size:
                return int(checks[lo + below[0]]) + 1
        return n_steps

    def _draw(self):
        rng = self.rng
        gamma = tuple(rng.uniform(0.01, 0.05, 2))
        return SystemSpec(
            n_mech=2, omega_m=tuple(rng.uniform(0.95, 1.05, 2)),
            kappa=float(rng.uniform(0.1, 0.3)), gamma=gamma,
            nbar=tuple(rng.uniform(1.0, 50.0, 2)),
            eta=(float(rng.uniform(0.0, 0.04)),),
            theta=(float(rng.uniform(0.0, TWO_PI)),),
            drive=Linearized(delta=float(rng.uniform(0.9, 1.1)),
                             g_lin=tuple(rng.uniform(0.02, 0.08, 2))))

    def run_unit(self, i):
        spec = self.units[i]["spec"]
        try:
            d = model.build_drift(spec)
            v = steadystate.lyapunov_solve(d)
            t_end = self.T_END_OVER_GAMMA / min(spec.gamma)
            x = kernels.rk4_lyapunov_flow(d.a, d.q.astype(complex),
                                          np.zeros_like(d.a), t_end, self.DT)
            return v, x
        except Exception:  # counted as a failed item
            return None, traceback.format_exc()

    def check(self, i, output):
        unit = self.units[i]
        v, x = output
        if v is None:
            self._fail(x.strip()[-300:])
            return 1
        if unit["ref"] is None:
            d = model.build_drift(unit["spec"])
            unit["ref"] = scipy.linalg.solve_sylvester(d.a, d.a.T, -d.q)
        ref = unit["ref"]
        cov_dev = float(np.abs(v - ref).max() / np.abs(ref).max())
        dv, dx = np.diag(v), np.diag(x)
        rk4_dev = float(np.max(np.abs(dx - dv) / np.abs(dv)))
        self.stats["max_rel_dev"] = max(self.stats["max_rel_dev"], rk4_dev)
        self.stats["points"] += 1
        if not (cov_dev <= COV_RTOL and rk4_dev <= ORACLE_RTOL):
            self._fail("covariance deviation %.3e, RK4 deviation %.3e" % (cov_dev, rk4_dev))
            return 1
        return 0


WORKLOADS = {w.name: w for w in (Landscape, Chain, Spectrum, Oracle)}
