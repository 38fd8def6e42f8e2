"""Command-line interface: single-point reports, sweeps, and spectrum scans."""

import concurrent.futures
import dataclasses
import datetime
import functools
import itertools
import json
import math
import re
import sys
import warnings

import click
import numpy as np

from . import __version__, limits, modes, spectra, steadystate
from .config import parse_spec, spec_to_dict
from .errors import ConfigError, DomainError, InvalidSpec, LoopcoolError
from .model import CouplingApprox, build_drift, to_linearized
from .presets import get_preset

EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


def _fmt(x):
    """Shortest round-trip float formatting; NaN spelled 'nan'."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def _provenance(approx):
    return {
        "tool_version": __version__,
        "optomechanical": approx.optomechanical,
        "mechanical": approx.mechanical,
        "lambda_normalizer": "resonant analytic maximum (reused at all probe frequencies)",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit_json(payload):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _load_spec(config, preset):
    if (config is None) == (preset is None):
        raise ConfigError("provide exactly one of --config or --preset")
    return to_linearized(parse_spec(config) if config is not None else get_preset(preset))


def _approx(om_rwa, mech_full):
    return CouplingApprox(optomechanical="rwa" if om_rwa else "full",
                          mechanical="full" if mech_full else "rwa")


def _reports_errors(fn):
    """Report a LoopcoolError from a command as one line on stderr and an exit code.

    Config, spec and domain errors exit EXIT_CONFIG; any other package error is
    a numerical failure and exits EXIT_ERROR.  No other code turns one into output.
    """
    @functools.wraps(fn)
    def command(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, InvalidSpec, DomainError) as exc:
            click.echo("config error: %s" % exc, err=True)
            sys.exit(EXIT_CONFIG)
        except LoopcoolError as exc:
            click.echo("error: %s: %s" % (type(exc).__name__, exc), err=True)
            sys.exit(EXIT_ERROR)
    return command


def _spec_options(fn):
    """Add spec and approximation options; run fn(spec, approx, **rest) under _reports_errors."""
    @_reports_errors
    @functools.wraps(fn)
    def command(config, preset, om_rwa, mech_rwa, **kwargs):
        return fn(_load_spec(config, preset), _approx(om_rwa, not mech_rwa), **kwargs)

    command = click.option("--config", type=click.Path(), default=None,
                           help="INI config file (see README for the grammar).")(command)
    command = click.option("--preset", default=None,
                           help="Named parameter preset (fig2, fig3, fig4, ...).")(command)
    command = click.option("--om-rwa/--om-full", "om_rwa", default=False,
                           help="Drop/keep cavity-mechanics counter-rotating terms.")(command)
    command = click.option("--mech-rwa/--mech-full", "mech_rwa", default=True,
                           help="Drop/keep phonon-exchange counter-rotating terms.")(command)
    return command


@click.group()
@click.version_option(__version__)
def main():
    """Steady-state cooling and nonreciprocal phonon transport calculations."""


@main.command()
@_spec_options
def cool(spec, approx):
    """Steady-state phonon occupations for a single parameter point."""
    drift = build_drift(spec, approx)
    report = steadystate.cool_or_flag(drift)
    payload = {
        "spec": spec_to_dict(spec),
        "n_f": [None if math.isnan(x) else x for x in report.n_f],
        "n_cav": None if math.isnan(report.n_cav) else report.n_cav,
        "stable": report.stable,
        "spectral_abscissa": report.spectral_abscissa,
        "residual": None if math.isnan(report.residual) else report.residual,
        "provenance": _provenance(approx),
    }
    if spec.n_mech == 2 and report.stable:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eff = limits.effective_model(spec)
            n1s, n2s = limits.cooling_limit_simplified(eff, spec)
        payload["limits"] = {"simplified": [n1s, n2s],
                             "warnings": [str(w.message) for w in caught]}
    _emit_json(payload)
    if not report.stable:
        sys.exit(EXIT_UNSTABLE)


@main.command()
@_spec_options
def stability(spec, approx):
    """Stability verdict (spectral abscissa of the drift matrix)."""
    drift = build_drift(spec, approx)
    stable, abscissa = steadystate.stability_check(drift)
    _emit_json({"stable": stable, "spectral_abscissa": abscissa,
                "provenance": _provenance(approx)})


# ---------------------------------------------------------------------------
# sweeps

_PATH_RE = re.compile(r"^(drive\.)?([a-z_]+)(?:\[(\d+)\])?$")


def set_param(spec, path, value):
    """Return a copy of spec with the parameter at `path` replaced.

    Paths: kappa, eta[0], theta[0], omega_m[1], gamma[0], nbar[0],
    drive.delta, drive.g_lin[0].
    """
    m = _PATH_RE.match(path)
    if not m:
        raise ConfigError("bad parameter path %r" % path)
    on_drive, name, idx = m.group(1), m.group(2), m.group(3)
    target = spec.drive if on_drive else spec
    if not hasattr(target, name):
        raise ConfigError("unknown parameter %r" % path)
    cur = getattr(target, name)
    if isinstance(cur, tuple):
        if idx is None:
            raise ConfigError("%s is a list; use %s[i]" % (path, path))
        i = int(idx)
        if not 0 <= i < len(cur):
            raise ConfigError("index out of range in %r" % path)
        new = cur[:i] + (value,) + cur[i + 1:]
    else:
        if idx is not None:
            raise ConfigError("%s is scalar; drop the index" % path)
        new = value
    try:
        if on_drive:
            return spec.with_(drive=type(spec.drive)(**{**spec.drive.__dict__, name: new}))
        return spec.with_(**{name: new})
    except InvalidSpec as exc:
        raise ConfigError(str(exc)) from None


def parse_axis(raw):
    """Parse 'path=start:stop:points' into (path, grid array)."""
    m = re.match(r"^([^=]+)=([^:]+):([^:]+):(\d+)$", raw)
    if not m:
        raise ConfigError("bad axis %r (want path=start:stop:points)" % raw)
    path = m.group(1).strip()
    try:
        start, stop = float(m.group(2)), float(m.group(3))
        points = int(m.group(4))
    except ValueError:
        raise ConfigError("bad axis numbers in %r" % raw)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("axis bounds must be finite in %r" % raw)
    if points < 2:
        raise ConfigError("axis needs at least 2 points")
    return path, np.linspace(start, stop, points)


def _sweep_eval(task):
    """One grid point; module-level so process pools can pickle it."""
    spec, approx, paths, values = task
    for path, value in zip(paths, values):
        spec = set_param(spec, path, float(value))
    return steadystate.cool_or_flag(build_drift(spec, approx))


def _write_csv(out, spec, approx, header, rows):
    """Write header and rows (lists of cells) under '# '-commented JSON metadata."""
    meta = {"spec": spec_to_dict(spec), "provenance": _provenance(approx)}
    with open(out, "w") as fh:
        for line in json.dumps(meta, indent=2, sort_keys=True).splitlines():
            fh.write("# %s\n" % line)
        for row in [header] + rows:
            fh.write(",".join(row) + "\n")
    click.echo("wrote %d rows to %s" % (len(rows), out))


@main.command()
@_spec_options
@click.option("--axis", "axes", multiple=True, required=True,
              help="Sweep axis as path=start:stop:points (repeat for a 2-D grid).")
@click.option("--out", type=click.Path(), required=True, help="Output CSV path.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Parallel worker processes.")
def sweep(spec, approx, axes, out, workers):
    """1-D or 2-D parameter sweep of the steady-state occupations (CSV)."""
    if len(axes) > 2:
        raise ConfigError("at most two --axis options")
    parsed = [parse_axis(a) for a in axes]
    for path, grid in parsed:  # spec rules are per field: no grid point can fail them later
        for v in grid:
            set_param(spec, path, float(v))
    paths = [p for p, _ in parsed]
    points = list(itertools.product(*(grid for _, grid in parsed)))
    tasks = [(spec, approx, paths, vals) for vals in points]

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_sweep_eval, tasks, chunksize=8))
    else:
        reports = [_sweep_eval(t) for t in tasks]

    n = spec.n_mech
    rows = []
    for vals, rep in zip(points, reports):
        row = [_fmt(v) for v in vals]
        if rep.stable:
            row += [_fmt(x) for x in rep.n_f] + [_fmt(rep.n_cav)]
        else:
            row += [""] * (n + 1)  # unstable: empty observable cells
        rows.append(row + ["true" if rep.stable else "false", _fmt(rep.spectral_abscissa)])
    header = paths + ["n_f_%d" % (j + 1) for j in range(n)] + \
        ["n_cav", "stable", "spectral_abscissa"]
    _write_csv(out, spec, approx, header, rows)


@main.command()
@_spec_options
@click.option("--omega-min", type=float, default=0.9, show_default=True)
@click.option("--omega-max", type=float, default=1.1, show_default=True)
@click.option("--points", type=int, default=801, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output CSV path.")
def spectrum(spec, approx, omega_min, omega_max, points, out):
    """Probe-frequency scan of transmittances and relative scattering rates."""
    if points < 2:
        raise ConfigError("need at least 2 frequency points")
    if not (math.isfinite(omega_min) and math.isfinite(omega_max)):
        raise ConfigError("frequency bounds must be finite")
    if spec.n_mech != 2:
        raise ConfigError("spectrum scan is defined for n_mech = 2")
    drift = build_drift(spec, approx)
    coop = spectra.Cooperativities.from_spec(spec)
    lam_res = spectra.lambda_analytic(coop, spec.theta[0])
    tcols = ["T_%s%s" % vw for vw in itertools.product(["a", "b1", "b2"], repeat=2)]
    rows = []
    for w in np.linspace(omega_min, omega_max, points):
        pt = spectra.scan_point(drift, float(w), coop)
        cells = [w, *pt.t.reshape(-1), pt.lambda_rel[2, 1], pt.lambda_rel[1, 2], lam_res]
        rows.append([_fmt(x) for x in cells])
    header = ["omega"] + tcols + ["Lambda_b2b1", "Lambda_b1b2", "Lambda_analytic_resonant"]
    _write_csv(out, spec, approx, header, rows)


@main.command("modes")
@_spec_options
def modes_cmd(spec, approx):
    """Mode-structure report: bright/dark, hybrid transform, normal modes."""
    payload = {"spec": spec_to_dict(spec), "provenance": _provenance(approx)}
    if spec.n_mech == 2:
        if spec.eta[0] == 0.0:
            payload["bright_dark"] = dataclasses.asdict(modes.bright_dark(spec))
        else:
            hy = modes.hybrid_transform(spec)
            payload["hybrid"] = {**dataclasses.asdict(hy),  # complex couplings as [re, im]
                                 "g_tilde_plus": [hy.g_tilde_plus.real, hy.g_tilde_plus.imag],
                                 "g_tilde_minus": [hy.g_tilde_minus.real, hy.g_tilde_minus.imag]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nm = modes.normal_modes(spec)
    payload["normal_modes"] = {
        "omega_k": [float(x) for x in nm.omega_k],
        "coupling_abs": [abs(c) for c in nm.coupling_k],
        "dark_count": int(nm.dark_flags.sum()),
        "predicted_uncooled": nm.predicted_uncooled,
        "closed_form": nm.closed_form,
    }
    _emit_json(payload)


@main.command("lambda")
@click.option("--eta", type=float, required=True,
              help="Ratio of the lower-level coupling to the transition amplitude.")
@click.option("--theta", type=float, required=True, help="Loop phase (radians).")
@_reports_errors
def lambda_cmd(eta, theta):
    """Eigensystem of the loop-coupled Lambda three-level configuration."""
    if not (math.isfinite(eta) and math.isfinite(theta)):
        raise ConfigError("--eta and --theta must be finite")
    sys_ = modes.LambdaSystem(omega1=1.0, omega2=1.0, omega_b=eta, theta=theta)
    eig = modes.lambda_eigensystem(sys_)
    _emit_json({
        "eta": eta, "theta": theta,
        "lambdas": [float(x) for x in eig.lambdas],
        "p_e": [float(x) for x in eig.p_e],
        "dark_index": eig.dark_index,
        "analytic": eig.analytic,
    })


@main.command("limits")
@_spec_options
def limits_cmd(spec, approx):
    """Adiabatic-elimination effective model and analytic cooling limits."""
    if spec.n_mech != 2:
        raise ConfigError("cooling limits are defined for n_mech = 2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eff = limits.effective_model(spec)
        simple = limits.cooling_limit_simplified(eff, spec)
        full = limits.cooling_limit_full(eff, spec)
    _emit_json({
        "spec": spec_to_dict(spec),
        "effective": {
            "xi1": [eff.xi1.real, eff.xi1.imag],
            "xi2": [eff.xi2.real, eff.xi2.imag],
            "gamma_eff": list(eff.gamma_eff),
            "omega_eff": list(eff.omega_eff),
            "chi1": eff.chi1, "chi2": eff.chi2,
            "chi_plus": eff.chi_plus, "chi_minus": eff.chi_minus,
            "n_opt": eff.n_opt,
        },
        "simplified": list(simple),
        "full": list(full),
        "warnings": sorted({str(w.message) for w in caught}),
        "provenance": _provenance(approx),
    })


if __name__ == "__main__":
    main()
