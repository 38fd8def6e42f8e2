"""Flat key=value configuration files with [section] grouping.

Grammar (see README): a [system] section with the mechanical/cavity
parameters and a [drive] section that is either linearized (delta, g_lin) or
physical (delta_c, omega_amp, g_single).  Lists are comma-separated.
"""

import configparser

from .errors import ConfigError, InvalidSpec
from .model import DRIVE_FIELDS, SPEC_FIELDS, Linearized, Physical, SystemSpec


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


def _numbers(section, fields, where):
    """The numbers that a declaration (SPEC_FIELDS, DRIVE_FIELDS) names, read from
    a config section: a scalar by _float, a list by _floats.  A list that
    n_mech = 1 leaves empty (N - 1 entries) may be omitted."""
    return {name: (_float if k is None else _floats)(
                section.get(name, "") if k == 1 else _get(section, name, where),
                "%s %s" % (where, name))
            for name, k in fields.items()}


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
    numbers = _numbers(sy, SPEC_FIELDS, where)
    if "drive" not in cp:
        raise ConfigError("%s: missing [drive] section" % path)
    dr = cp["drive"]
    where = "%s [drive]" % path
    kind = dr.get("type", "linearized").strip().lower()
    if kind == "linearized":
        drive_type, drive_kw = Linearized, _numbers(dr, DRIVE_FIELDS, where)
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
        return SystemSpec(n_mech=n_mech, drive=drive_type(**drive_kw), **numbers)
    except InvalidSpec as exc:
        raise ConfigError("%s: %s" % (path, exc))


def spec_to_dict(spec):
    """Flat snapshot of a resolved spec: its own values (tuples, a complex drive
    amplitude), for the CLI's JSON encoder."""
    out = {name: getattr(spec, name) for name in ("n_mech", *SPEC_FIELDS)}
    if isinstance(spec.drive, Linearized):
        out["drive"] = {"type": "linearized",
                        **{name: getattr(spec.drive, name) for name in DRIVE_FIELDS}}
    else:
        out["drive"] = {"type": "physical", "delta_c": spec.drive.delta_c,
                        "omega_amp": complex(spec.drive.omega_drive_amp),
                        "g_single": spec.drive.g_single}
    return out
