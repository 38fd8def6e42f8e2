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


def _complex(raw, where):
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError("%s: expected a (complex) number, got %r" % (where, raw))


def _get(section, key, where):
    if key not in section:
        raise ConfigError("%s: missing required key %r" % (where, key))
    return section[key]


def _numbers(section, fields, where):
    """The numbers that a declaration (SPEC_FIELDS, a drive's FIELDS) names, read
    from a config section: a list by _floats, a drive amplitude by _complex, any
    other scalar by _float.  A list that n_mech = 1 leaves empty (N - 1 entries)
    may be omitted."""
    return {name: (_floats if k is not None else _complex if name == "omega_amp" else _float)(
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
    drive = {cls.KIND: cls for cls in (Linearized, Physical)}.get(kind)
    if drive is None:
        raise ConfigError("%s: type must be 'linearized' or 'physical', got %r"
                          % (where, kind))
    try:
        return SystemSpec(n_mech=n_mech, drive=drive(**_numbers(dr, drive.FIELDS, where)),
                          **numbers)
    except InvalidSpec as exc:
        raise ConfigError("%s: %s" % (path, exc))


def spec_to_dict(spec):
    """Flat snapshot of a spec as given: its own values and its drive's, by their
    declarations (tuples, a complex drive amplitude), for the CLI's JSON encoder."""
    drive = spec.drive
    return {**{name: getattr(spec, name) for name in ("n_mech", *SPEC_FIELDS)},
            "drive": {"type": drive.KIND, **{name: getattr(drive, name) for name in drive.FIELDS}}}
