"""Flat key=value configuration files with [section] grouping.

Grammar (see README): a [system] section with the mechanical/cavity
parameters and a [drive] section that is either linearized (delta, g_lin) or
physical (delta_c, omega_amp, g_single).  Lists are comma-separated.
"""

import configparser

from .errors import ConfigError, InvalidSpec
from .model import SPEC_FIELDS, Linearized, Physical, SystemSpec


def _floats(raw, where):
    try:
        return tuple(float(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError("%s: expected comma-separated numbers, got %r" % (where, raw))


def _float(raw, where):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError("%s: expected a number, got %r" % (where, raw))


def _get(section, key, where):
    if key not in section:
        raise ConfigError("%s: missing required key %r" % (where, key))
    return section[key]


def parse_spec(path):
    """Read a SystemSpec from an INI-style config file."""
    # no interpolation: the grammar has none, so a '%' in a value is read as is
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc))
    if not read:
        raise ConfigError("cannot read config file %s" % path)
    if "system" not in cp:
        raise ConfigError("%s: missing [system] section" % path)
    sy = cp["system"]
    where = "%s [system]" % path
    try:
        n_mech = int(_get(sy, "n_mech", where))
    except ValueError:
        raise ConfigError("%s: n_mech must be an integer" % where)
    kwargs = dict(
        n_mech=n_mech,
        omega_m=_floats(_get(sy, "omega_m", where), where + " omega_m"),
        kappa=_float(_get(sy, "kappa", where), where + " kappa"),
        gamma=_floats(_get(sy, "gamma", where), where + " gamma"),
        nbar=_floats(_get(sy, "nbar", where), where + " nbar"),
        eta=_floats(sy.get("eta", ""), where + " eta"),
        theta=_floats(sy.get("theta", ""), where + " theta"),
    )
    if "drive" not in cp:
        raise ConfigError("%s: missing [drive] section" % path)
    dr = cp["drive"]
    where = "%s [drive]" % path
    kind = dr.get("type", "linearized").strip().lower()
    if kind == "linearized":
        drive_type, drive_kw = Linearized, dict(
            delta=_float(_get(dr, "delta", where), where + " delta"),
            g_lin=_floats(_get(dr, "g_lin", where), where + " g_lin"))
    elif kind == "physical":
        raw = _get(dr, "omega_amp", where)
        try:
            amp = complex(raw.replace(" ", ""))
        except ValueError:
            raise ConfigError("%s: omega_amp must be a (complex) number, got %r"
                              % (where, raw))
        drive_type, drive_kw = Physical, dict(
            delta_c=_float(_get(dr, "delta_c", where), where + " delta_c"),
            omega_drive_amp=amp,
            g_single=_floats(_get(dr, "g_single", where), where + " g_single"))
    else:
        raise ConfigError("%s: type must be 'linearized' or 'physical', got %r"
                          % (where, kind))
    try:
        return SystemSpec(drive=drive_type(**drive_kw), **kwargs)
    except InvalidSpec as exc:
        raise ConfigError("%s: %s" % (path, exc))


def spec_to_dict(spec):
    """Flat snapshot of a resolved spec: its own values (tuples, a complex drive
    amplitude), for the CLI's JSON encoder."""
    out = {name: getattr(spec, name) for name in ("n_mech",) + SPEC_FIELDS}
    if isinstance(spec.drive, Linearized):
        out["drive"] = {"type": "linearized", "delta": spec.drive.delta, "g_lin": spec.drive.g_lin}
    else:
        out["drive"] = {"type": "physical", "delta_c": spec.drive.delta_c,
                        "omega_amp": complex(spec.drive.omega_drive_amp),
                        "g_single": spec.drive.g_single}
    return out
