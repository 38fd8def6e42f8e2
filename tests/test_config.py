"""The config reader and SystemSpec follow the one declaration of a spec's numbers.

Every test is parametrized over model.SPEC_FIELDS and the drives' declarations,
model.DRIVE_FIELDS and model.PHYSICAL_FIELDS, so a field added there is covered
here without an edit.
"""

import numpy as np
import pytest

from loopcool.config import parse_spec, spec_to_dict
from loopcool.errors import ConfigError
from loopcool.model import (DRIVE_FIELDS, PHYSICAL_FIELDS, SPEC_FIELDS, Linearized, Physical,
                            SystemSpec)

DRIVES = {"linearized": DRIVE_FIELDS, "physical": PHYSICAL_FIELDS}
#: (section, name, k) of every declared number; a list has N - k entries
FIELDS = ([("system", name, k) for name, k in SPEC_FIELDS.items()]
          + [("drive", name, k) for fields in DRIVES.values() for name, k in fields.items()])
LINKS = [field for field in FIELDS if field[2] == 1]  # the lists that N = 1 leaves empty


def _ids(fields):
    return ["%s-%s" % (section, name) for section, name, _ in fields]


def kind_of(name):
    """The drive type that declares a number (linearized for a [system] one)."""
    return "physical" if name in PHYSICAL_FIELDS else "linearized"


def write(tmp_path, n, field=None, value=None, kind=None):
    """A valid config at n_mech = n with a drive of `kind` (by default the one that
    declares `field`), every number 0.3; the (section, name) `field` is left out if
    value is None, else written as value."""
    kind = kind or kind_of(field[1] if field else "")
    sections = {"system": {"n_mech": str(n)}, "drive": {"type": kind}}
    for section, name, k in FIELDS:
        if section == "system" or name in DRIVES[kind]:
            sections[section][name] = "0.3" if k is None else ", ".join(["0.3"] * (n - k))
    if field is not None:
        section, name = field
        if value is None:
            del sections[section][name]
        else:
            sections[section][name] = value
    path = tmp_path / "spec.ini"
    path.write_text("".join("[%s]\n" % section + "".join("%s = %s\n" % kv for kv in keys.items())
                            for section, keys in sections.items()))
    return str(path)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_list_has_its_declared_count(tmp_path, n):
    for kind in DRIVES:
        spec = parse_spec(write(tmp_path, n, kind=kind))
        snapshot = spec_to_dict(spec)
        assert snapshot["drive"]["type"] == kind
        for section, name, k in FIELDS:
            if section == "drive" and name not in DRIVES[kind]:
                continue
            owner = spec if section == "system" else spec.drive
            value = getattr(owner, name)
            assert value == (0.3 if k is None else (0.3,) * (n - k)), name
            assert (snapshot if section == "system" else snapshot["drive"])[name] == value


@pytest.mark.parametrize("section, name, k", FIELDS, ids=_ids(FIELDS))
def test_missing_field(tmp_path, section, name, k):
    path = write(tmp_path, 2, (section, name))
    if k == 1:  # read as empty: at N = 2 the count check refuses it
        message = "%s: %s must have 1 entries for n_mech=2" % (path, name)
    else:
        message = "%s [%s]: missing required key '%s'" % (path, section, name)
    with pytest.raises(ConfigError) as caught:
        parse_spec(path)
    assert str(caught.value) == message


@pytest.mark.parametrize("section, name, k", FIELDS, ids=_ids(FIELDS))
def test_malformed_field_names_its_key(tmp_path, section, name, k):
    path = write(tmp_path, 2, (section, name), "0.3, x" if k is not None else "x")
    with pytest.raises(ConfigError) as caught:
        parse_spec(path)
    assert str(caught.value).startswith("%s [%s] %s: expected" % (path, section, name))


@pytest.mark.parametrize("value", [None, ""], ids=["omitted", "empty"])
@pytest.mark.parametrize("section, name, k", LINKS, ids=_ids(LINKS))
def test_one_mode_link_list_may_be_omitted_or_empty(tmp_path, section, name, k, value):
    spec = parse_spec(write(tmp_path, 1, (section, name), value))
    assert getattr(spec if section == "system" else spec.drive, name) == ()


@pytest.mark.parametrize("make", [tuple, list, np.array, lambda v: tuple(int(x) for x in v)],
                         ids=["tuple", "list", "array", "ints"])
def test_spec_stores_lists_as_tuples_of_floats(make):
    # and a drive its lists as tuples of floats, and a physical drive's amplitude as complex
    n = 3
    lists = {name: make([1 + j for j in range(n - k)])
             for name, k in SPEC_FIELDS.items() if k is not None}
    for drive in (Linearized(delta=1.0, g_lin=make([1, 2, 3])),
                  Physical(delta_c=1.0, omega_amp=make([2])[0], g_single=make([1, 2, 3]))):
        spec = SystemSpec(n_mech=n, kappa=1, drive=drive, **lists)
        assert spec.kappa == 1 and type(spec.kappa) is int
        for owner, fields in ((spec, SPEC_FIELDS), (drive, drive.FIELDS)):
            for name, k in fields.items():
                if k is not None:
                    value = getattr(owner, name)
                    assert type(value) is tuple and all(type(x) is float for x in value), name
                    assert value == tuple(float(1 + j) for j in range(n - k)), name
    assert type(drive.omega_amp) is complex and drive.omega_amp == 2
