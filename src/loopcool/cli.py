"""Command-line interface: single-point reports, sweeps, and spectrum scans."""

import dataclasses
import datetime
import functools
import itertools
import json
import math
import os
import re
import sys

import click
import numpy as np

from . import __version__, limits, modes, spectra, steadystate
from .config import parse_spec, spec_to_dict
from .errors import ConfigError, DomainError, InvalidSpec, LoopcoolError, Unstable
from .model import (SPEC_FIELDS, CouplingApprox, Linearized, Physical, build_drift, drift_stack,
                    linearize, param_table, set_param)
from .presets import get_preset

EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


def _provenance(approx=None):
    """Tool version and timestamp, and the approximation of a drift that was built."""
    found = {"tool_version": __version__,
             "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    if approx is not None:
        found.update(optomechanical=approx.optomechanical, mechanical=approx.mechanical)
    return found


def _plain(x):
    """x in JSON's terms: containers and arrays element by element, a complex
    number as [re, im], NaN and +-inf as None, numpy scalars as Python ones."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, complex):
        return [_plain(x.real), _plain(x.imag)]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _json(payload):
    """The one JSON encoder of the CLI's output; strict JSON, with no NaN or Infinity."""
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False)


def _given_and_linearized(spec):
    """(report, spec to compute with), by at most one linearize call: spec_to_dict's
    report plus a Physical drive's `linearized_drive`, and the Linearized spec."""
    report = spec_to_dict(spec)
    if isinstance(spec.drive, Physical):
        st = linearize(spec)
        report["linearized_drive"] = {"delta": st.delta_eff, "g_lin": st.g_lin,
                                      "fixed_points": st.fixed_points}
        spec = spec.with_(drive=Linearized(delta=st.delta_eff, g_lin=st.g_lin))
    return report, spec


def _reports_errors(fn):
    """Report a LoopcoolError from a command as one line on stderr and an exit code.

    Config, spec and domain errors exit EXIT_CONFIG; an unstable point exits
    EXIT_UNSTABLE; any other package error is a numerical failure and, like a
    float overflow (ArithmeticError) or an OSError from writing the output,
    exits EXIT_ERROR.  No other code turns one into output.
    """
    @functools.wraps(fn)
    def command(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, InvalidSpec, DomainError) as exc:
            click.echo("config error: %s" % exc, err=True)
            sys.exit(EXIT_CONFIG)
        except Unstable as exc:
            click.echo("unstable: %s" % exc, err=True)
            sys.exit(EXIT_UNSTABLE)
        except (LoopcoolError, ArithmeticError, OSError) as exc:  # OSError: an unwritable output
            click.echo("error: %s: %s" % (type(exc).__name__, exc), err=True)
            sys.exit(EXIT_ERROR)
    return command


def _spec_options(fn):
    """Add the spec options; run fn(spec, **rest) under _reports_errors."""
    @_reports_errors
    @functools.wraps(fn)
    def command(config, preset, **kwargs):
        if (config is None) == (preset is None):
            raise ConfigError("provide exactly one of --config or --preset")
        return fn(parse_spec(config) if config is not None else get_preset(preset), **kwargs)

    command = click.option("--config", type=click.Path(), default=None,
                           help="INI config file (see README for the grammar).")(command)
    return click.option("--preset", default=None,
                        help="Named parameter preset (fig2, fig3, fig4, ...).")(command)


def _approx_options(fn):
    """Add the approximation options of a command that builds a drift; run
    fn(spec, approx, **rest).  Apply it below _spec_options."""
    @functools.wraps(fn)
    def command(spec, om_rwa, mech_rwa, **kwargs):
        return fn(spec, CouplingApprox(optomechanical="rwa" if om_rwa else "full",
                                       mechanical="rwa" if mech_rwa else "full"), **kwargs)

    command = click.option("--om-rwa/--om-full", "om_rwa", default=False,
                           help="Drop/keep cavity-mechanics counter-rotating terms.")(command)
    return click.option("--mech-rwa/--mech-full", "mech_rwa", default=True,
                        help="Drop/keep phonon-exchange counter-rotating terms.")(command)


@click.group()
@click.version_option(__version__)
def main():
    """Steady-state cooling and nonreciprocal phonon transport calculations."""


@main.command()
@_spec_options
@_approx_options
def cool(spec, approx):
    """Steady-state phonon occupations for a single parameter point."""
    given, spec = _given_and_linearized(spec)
    drift = build_drift(spec, approx)
    report = steadystate.cool_or_flag(drift)
    payload = {"spec": given, **vars(report), "provenance": _provenance(approx)}
    if report.stable:
        try:
            limits.require_approx(approx)  # another approximation's drift has no limits
            _, found, notes = limits.report(spec, full=False)
        except (DomainError, ArithmeticError) as exc:  # the steady state stands without its limit
            payload["limits"] = {"unavailable": str(exc)}
        else:
            payload["limits"] = {**found, "warnings": notes}
    click.echo(_json(payload))
    if not report.stable:
        sys.exit(EXIT_UNSTABLE)


@main.command()
@_spec_options
@_approx_options
def stability(spec, approx):
    """Stability verdict (spectral abscissa of the drift matrix)."""
    drift = build_drift(spec, approx)
    stable, abscissa = steadystate.stability_check(drift)
    click.echo(_json({"stable": stable, "spectral_abscissa": abscissa,
                      "provenance": _provenance(approx)}))


# ---------------------------------------------------------------------------
# sweeps

_PATH_RE = re.compile(r"^(drive\.)?([a-z_]+)(?:\[(\d+)\])?$")


def _resolve(spec, path):
    """(name, index or None) of the parameter-table entry that a path of spec
    names: a number that SPEC_FIELDS or the drive's FIELDS declares, shaped by
    that declaration alone (kappa, theta[0], drive.g_single[1]).  Else a ConfigError."""
    m = _PATH_RE.match(path)
    if not m:
        raise ConfigError("bad parameter path %r" % path)
    on_drive, name, idx = bool(m.group(1)), m.group(2), m.group(3)
    owner = spec.drive if on_drive else spec
    fields = owner.FIELDS if on_drive else SPEC_FIELDS
    if name not in fields:
        if hasattr(owner, name):  # e.g. n_mech: the table's shape
            raise ConfigError("%s cannot be swept" % path)
        raise ConfigError("unknown parameter %r" % path)
    k = fields[name]  # None for a scalar, else a list of N - k entries
    if k is None:
        if idx is not None:
            raise ConfigError("%s is scalar; drop the index" % path)
    elif idx is None:
        raise ConfigError("%s is a list; use %s[i]" % (path, path))
    elif int(idx) >= spec.n_mech - k:
        raise ConfigError("index out of range in %r" % path)
    return name, None if idx is None else int(idx)


def _grid(start, stop, points, what, where=""):
    """The one scan grid, np.linspace(start, stop, points).  A non-finite bound,
    fewer than 2 points or a float overflow in stop - start (Python arithmetic:
    numpy never warns) is a ConfigError about the `what` grid from `where`."""
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("%s bounds must be finite%s" % (what, where))
    if points < 2:
        raise ConfigError("need at least 2 %s points%s" % (what, where))
    if not math.isfinite(stop - start):
        raise ConfigError("%s span is wider than the float range%s" % (what, where))
    return np.linspace(start, stop, points)


def parse_axis(raw):
    """Parse 'path=start:stop:points' into (path, grid array)."""
    m = re.match(r"^([^=]+)=([^:]+):([^:]+):(\d+)$", raw)
    if not m:
        raise ConfigError("bad axis %r (want path=start:stop:points)" % raw)
    try:
        start, stop = float(m.group(2)), float(m.group(3))
        points = int(m.group(4))
    except ValueError:
        raise ConfigError("bad axis numbers in %r" % raw)
    return m.group(1).strip(), _grid(start, stop, points, "axis", " in %r" % raw)


#: bytes of a chunk's complex (rows, 2N+2, 2N+2) stack: a sweep's memory per thread
CHUNK_BYTES = 1 << 17


def _sweep_grid(grids):
    """(columns, prefixes) of the grid spanned by the axes' value arrays, in
    itertools.product's row order (the last axis varies fastest).

    columns holds one value array per axis, from np.meshgrid; prefixes holds
    each point's axis values as CSV text, with every axis value formatted by
    repr once, however many rows repeat it.
    """
    columns = [column.ravel() for column in np.meshgrid(*grids, indexing="ij")]
    texts = [[repr(v) for v in grid.tolist()] for grid in grids]
    return columns, [",".join(cells) for cells in itertools.product(*texts)]


def _sweep_lines(prefixes, batch):
    """CSV lines of one chunk, from each point's axis prefix (see _sweep_grid):
    the prefix, n_f_j and n_cav (empty if unstable), stable, abscissa.  Only
    n_f_j, n_cav and the abscissa are formatted here, point by point."""
    unstable = "," * (batch.n_f.shape[1] + 1) + ",false,"
    cells = np.column_stack([batch.n_f, batch.n_cav]).tolist()
    return [prefix + "," + ",".join(map(repr, row)) + ",true," + repr(x) if ok
            else prefix + unstable + repr(x)
            for prefix, row, ok, x in zip(prefixes, cells, batch.stable.tolist(),
                                          batch.spectral_abscissa.tolist())]


def _check_out(out):
    """Refuse, before any work, an output path that is a directory, whose
    directory is missing or not writable, or that names no file."""
    if os.path.isdir(out):
        raise ConfigError("output path %r is a directory" % out)
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise ConfigError("output directory %r does not exist" % directory)
    if not os.access(directory, os.W_OK):
        raise ConfigError("output directory %r is not writable" % directory)
    if not os.path.basename(out):
        raise ConfigError("output path %r names no file" % out)


def _write_csv(out, spec, provenance, header, lines):
    """Write the header and the CSV lines under '# '-commented JSON metadata."""
    meta = {"spec": spec_to_dict(spec), "provenance": provenance}
    with open(out, "w") as fh:
        for line in _json(meta).splitlines():
            fh.write("# %s\n" % line)
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)
    click.echo("wrote %d rows to %s" % (len(lines), out))


@main.command()
@_spec_options
@_approx_options
@click.option("--axis", "axes", multiple=True, required=True,
              help="Sweep axis as path=start:stop:points (repeat for a 2-D grid).")
@click.option("--out", type=click.Path(), required=True, help="Output CSV path.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel worker threads.")
def sweep(spec, approx, axes, out, workers):
    """1-D or 2-D parameter sweep of the steady-state occupations (CSV).
    \f
    The grid's table (param_table, then set_param per axis) and every row's
    axis text (_sweep_grid) are built once, before any point runs; chunks of as
    many rows as one CHUNK_BYTES stack holds (at least one, at most an even
    share per worker) then go through the engine and _sweep_lines.
    """
    _check_out(out)
    if len(axes) > 2:
        raise ConfigError("at most two --axis options")
    paths, grids = zip(*map(parse_axis, axes))
    entries = [_resolve(spec, p) for p in paths]
    if len(set(entries)) < len(entries):  # two axes at most (above)
        raise ConfigError("axes %r and %r sweep the same parameter" % axes)
    columns, prefixes = _sweep_grid(grids)
    table = param_table(spec, len(prefixes))
    for (name, i), values in zip(entries, columns):  # checks every value before any point runs
        set_param(table, name, i, values)
    size = max(1, min(CHUNK_BYTES // (16 * (2 * spec.n_mech + 2) ** 2),  # rows per chunk
                      math.ceil(len(prefixes) / workers)))

    def chunk(s):
        """CSV lines of the table's rows s:s + size."""
        rows = slice(s, s + size)
        batch = steadystate.cool_many(*drift_stack({n: c[rows] for n, c in table.items()}, approx))
        return _sweep_lines(prefixes[rows], batch)

    starts = range(0, len(prefixes), size)
    if workers > 1:  # threads overlap: the engine's LAPACK calls release the GIL
        import concurrent.futures  # only threads need it; every other run skips its import cost

        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk, starts))
    else:
        chunks = map(chunk, starts)  # lazy: one chunk's stacks alive at a time
    lines = [line for part in chunks for line in part]
    header = list(paths) + ["n_f_%d" % (j + 1) for j in range(spec.n_mech)] + \
        ["n_cav", "stable", "spectral_abscissa"]
    _write_csv(out, spec, _provenance(approx), header, lines)


@main.command()
@_spec_options
@_approx_options
@click.option("--omega-min", type=float, default=0.9, show_default=True)
@click.option("--omega-max", type=float, default=1.1, show_default=True)
@click.option("--points", type=int, default=801, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output CSV path.")
def spectrum(spec, approx, omega_min, omega_max, points, out):
    """Probe-frequency scan of transmittances and relative scattering rates."""
    _check_out(out)
    omega = _grid(omega_min, omega_max, points, "frequency")
    drift = build_drift(spec, approx)
    coop = spectra.Cooperativities.from_spec(drift.spec)  # refuses a chain before any eigensolve
    steadystate.require_stable(drift)
    lam_res = spectra.lambda_analytic(coop, spec.theta[0])
    tcols = ["T_%s%s" % vw for vw in itertools.product(["a", "b1", "b2"], repeat=2)]
    pt = spectra.scan_point(drift, omega, coop)
    cells = np.column_stack([pt.omega, pt.t.reshape(points, -1), pt.lambda_rel[:, 2, 1],
                             pt.lambda_rel[:, 1, 2]])
    last = "," + repr(lam_res)  # the one value of the constant last column, formatted once
    header = ["omega"] + tcols + ["Lambda_b2b1", "Lambda_b1b2", "Lambda_analytic_resonant"]
    provenance = {**_provenance(approx), "lambda_normalizer":
                  "resonant analytic maximum (reused at all probe frequencies)"}
    _write_csv(out, spec, provenance, header,
               [",".join(map(repr, row)) + last for row in cells.tolist()])


@main.command("modes")
@_spec_options
def modes_cmd(spec):
    """Mode-structure report: bright/dark, hybrid transform, normal modes."""
    given, spec = _given_and_linearized(spec)
    payload = {"spec": given, "provenance": _provenance()}
    if spec.n_mech == 2:
        if spec.eta[0] == 0.0:
            payload["bright_dark"] = dataclasses.asdict(modes.bright_dark(spec))
        else:
            payload["hybrid"] = dataclasses.asdict(modes.hybrid_transform(spec))
    nm = modes.normal_modes(spec)
    payload["normal_modes"] = {
        "omega_k": nm.omega_k,
        "coupling_abs": [abs(c) for c in nm.coupling_k],  # not np.abs: it differs in the last bit
        "dark_count": nm.dark_flags.sum(),
        "predicted_uncooled": nm.predicted_uncooled,
        "dark_ceiling": nm.dark_ceiling,
    }
    click.echo(_json(payload))


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
    click.echo(_json({"eta": eta, "theta": theta, "lambdas": eig.lambdas, "p_e": eig.p_e,
                      "dark_index": eig.dark_index, "dark_indices": eig.dark_indices,
                      "provenance": _provenance()}))


@main.command("limits")
@_spec_options
def limits_cmd(spec):
    """Adiabatic-elimination effective model and analytic cooling limits.
    \f
    After report's own refusals, a point that the engine calls unstable exits
    EXIT_UNSTABLE, as in cool and spectrum.  Its drift takes limits.APPROX, the one
    approximation the effective model assumes, so limits takes no approximation flag.
    """
    given, spec = _given_and_linearized(spec)
    effective, found, notes = limits.report(spec, full=True)
    steadystate.require_stable(build_drift(spec, limits.APPROX))
    click.echo(_json({
        "spec": given,
        "effective": effective,
        **found,
        "warnings": notes,
        "provenance": _provenance(),
    }))


if __name__ == "__main__":
    main()
