import ast
import dataclasses
import itertools
import json
import math
import os
import pathlib
import random
import re
import shlex
import types
import typing

import numpy as np
import pytest
from click.testing import CliRunner

from loopcool import cli, limits, model, spectra, steadystate
from loopcool.cli import main, parse_axis
from loopcool.config import parse_spec, spec_to_dict
from loopcool.errors import ConfigError, InvalidSpec, NoConvergence
from loopcool.presets import _chain, get_preset

DATA = pathlib.Path(__file__).parent / "data"
TWO_PI = 2.0 * math.pi
APPROXES = [model.CouplingApprox(om, mech) for om in ("full", "rwa") for mech in ("full", "rwa")]
N1_CONFIG = dict(n_mech=1, eta="", theta="", drive_lines=(
    "type = linearized", "delta = 1.0", "g_lin = 0.1"))


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, n_mech=2, eta="0.05", theta="1.5707963267948966",
                 drive_lines=("type = linearized", "delta = 1.0", "g_lin = 0.1, 0.1"),
                 omega="1.0", kappa="0.2", gamma="1e-5", edits=(), encoding="utf-8"):
    """A config file with nbar = 1e3; omega and gamma give every mode's value,
    or each mode's if comma-separated.  Each (old, new) of edits then replaces
    text, and the file is written in the given encoding."""
    def per_mode(value):
        return value if "," in value else ", ".join([value] * n_mech)

    lines = ["[system]",
             "n_mech = %d" % n_mech,
             "omega_m = " + per_mode(omega),
             "kappa = " + kappa,
             "gamma = " + per_mode(gamma),
             "nbar = " + ", ".join(["1e3"] * n_mech),
             "eta = " + eta,
             "theta = " + theta,
             "", "[drive]"] + list(drive_lines)
    text = "\n".join(lines) + "\n"
    for edit in edits:
        text = text.replace(*edit)
    path.write_text(text, encoding=encoding)
    return str(path)


def body_lines(path):
    """CSV rows without the commented metadata header (which has a timestamp)."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def strict_json(text):
    """json.loads that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError("non-finite JSON constant %s" % name)
    return json.loads(text, parse_constant=refuse)


def test_cool_preset(runner):
    res = runner.invoke(main, ["cool", "--preset", "fig2"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["stable"]
    n1, n2 = payload["n_f"]
    assert 0 < n1 < 1 and 0 < n2 < 1 and n1 < n2
    assert "simplified" in payload["limits"]
    assert payload["provenance"]["optomechanical"] == "full"
    assert payload["solver"] == "eig"


def test_cool_dark_mode_plateau(runner):
    res = runner.invoke(main, ["cool", "--preset", "fig2_eta0"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert sum(payload["n_f"]) > 950.0


def test_cool_from_config_file(runner, tmp_path):
    cfg = write_config(tmp_path / "sys.ini")
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    ref = runner.invoke(main, ["cool", "--preset", "fig2"])
    assert payload["n_f"] == json.loads(ref.output)["n_f"]


def test_cool_physical_drive_config(runner, tmp_path):
    cfg = write_config(tmp_path / "phys.ini", drive_lines=(
        "type = physical", "delta_c = 1.0", "omega_amp = 1000.0",
        "g_single = 1e-4, 1e-4"))
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["spec"]["drive"] == {"type": "physical", "delta_c": 1.0,
                                        "omega_amp": [1000.0, 0.0], "g_single": [1e-4, 1e-4]}
    lin = payload["spec"]["linearized_drive"]
    assert lin["fixed_points"] == 3
    # the couplings reported are the ones inside the drift that was solved, bit for bit
    drift = model.build_drift(parse_spec(cfg))
    assert [-g for g in drift.a[0, 1:3].imag.tolist()] == lin["g_lin"]
    assert drift.a[0, 0].imag == -lin["delta"]
    assert payload["stable"]


@pytest.mark.parametrize("command", ["cool", "modes", "limits"])
def test_reports_show_the_given_drive_and_its_bistability(runner, tmp_path, command):
    # omega_amp = 200 has three classical fixed points (test_model checks the branch taken)
    cfg = physical_config(tmp_path / "p200.ini", "200.0")
    res = runner.invoke(main, [command, "--config", cfg])
    assert res.exit_code == 0, res.output
    spec = strict_json(res.stdout)["spec"]
    assert spec["drive"] == {"type": "physical", "delta_c": 1.0, "omega_amp": [200.0, 0.0],
                             "g_single": [0.001, 0.001]}
    drive = model.to_linearized(parse_spec(cfg)).drive
    assert spec["linearized_drive"] == {"delta": drive.delta, "g_lin": list(drive.g_lin),
                                        "fixed_points": 3}
    res = runner.invoke(main, [command, "--preset", "fig2"])
    assert "linearized_drive" not in strict_json(res.stdout)["spec"]


def test_spec_to_dict_linearized_and_physical():
    spec = get_preset("fig2")
    base = {"n_mech": 2, "omega_m": (1.0, 1.0), "kappa": 0.2, "gamma": (1e-5, 1e-5),
            "nbar": (1e3, 1e3), "eta": (0.05,), "theta": (math.pi / 2,)}
    assert spec_to_dict(spec) == {**base, "drive": {
        "type": "linearized", "delta": 1.0, "g_lin": (0.1, 0.1)}}
    phys = spec.with_(drive=model.Physical(delta_c=1.5, omega_amp=3 - 4j,
                                           g_single=(1e-4, 2e-4)))
    snapshot = spec_to_dict(phys)
    assert snapshot == {**base, "drive": {
        "type": "physical", "delta_c": 1.5, "omega_amp": 3 - 4j, "g_single": (1e-4, 2e-4)}}
    assert type(snapshot["drive"]["omega_amp"]) is complex
    assert strict_json(cli._json(snapshot))["drive"]["omega_amp"] == [3.0, -4.0]


UNSTABLE = dict(theta="1.5708", drive_lines=(
    "type = linearized", "delta = -1.0", "g_lin = 0.1, 0.1"))


def test_cool_unstable_exit(runner, tmp_path):
    # a strong exchange with its counter-rotating terms, and the config spectrum refuses
    for config, extra in [(dict(eta="0.5"), ["--mech-full"]), (UNSTABLE, [])]:
        cfg = write_config(tmp_path / "hot.ini", **config)
        res = runner.invoke(main, ["cool", "--config", cfg, *extra])
        assert res.exit_code == 3
        payload = strict_json(res.output)
        assert not payload["stable"]
        assert payload["n_f"] == [None, None]
        assert payload["n_cav"] is None and payload["residual"] is None
        assert payload["solver"] is None


def test_stability_command(runner):
    res = runner.invoke(main, ["stability", "--preset", "fig2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["stable"] and payload["spectral_abscissa"] < 0


# --- sweeps -------------------------------------------------------------

def test_set_param_paths():
    spec = get_preset("fig2")
    table = model.param_table(spec, 2)
    for path, values in (("kappa", [0.5, 0.6]), ("theta[0]", [0.25, TWO_PI + 0.5]),
                         ("drive.delta", [0.9, -0.9]), ("drive.g_lin[1]", [0.2, 0.0])):
        model.set_param(table, *cli._resolve(spec, path), values)
    assert table["kappa"].tolist() == [0.5, 0.6]
    assert table["theta"].tolist() == [[0.25], [(TWO_PI + 0.5) % TWO_PI]]
    assert table["delta"].tolist() == [0.9, -0.9]
    assert table["g_lin"].tolist() == [[0.1, 0.2], [0.1, 0.0]]
    assert model.param_table(spec)["kappa"].tolist() == [spec.kappa]  # spec untouched
    for bad in ("nope", "theta", "kappa[0]", "eta[5]", "drive.delta[0]", "drive.kappa"):
        with pytest.raises(ConfigError):
            cli._resolve(spec, bad)
    for bad in ("n_mech", "drive"):  # the path itself, not a rule that one of its values breaks
        with pytest.raises(ConfigError, match="^%s cannot be swept$" % bad):
            cli._resolve(spec, bad)


#: (drive class, path prefix, name, k) of every declared number of a spec with each drive
DECLARED = [(kind, prefix, name, k) for kind in (model.Linearized, model.Physical)
            for prefix, fields in (("", model.SPEC_FIELDS), ("drive.", kind.FIELDS))
            for name, k in fields.items()]


def declared_spec(n, kind):
    """A spec at n_mech = n with a drive of class `kind`, every number 0.3, each list
    of the N - k entries its declaration gives."""
    def value(k):
        return 0.3 if k is None else (0.3,) * (n - k)
    return model.SystemSpec(n_mech=n, drive=kind(**{name: value(k) for name, k in
                                                    kind.FIELDS.items()}),
                            **{name: value(k) for name, k in model.SPEC_FIELDS.items()})


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("kind, prefix, name, k", DECLARED,
                         ids=["%s-%s%s" % (kind.KIND, prefix, name) for kind, prefix, name, _
                              in DECLARED])
def test_resolve_takes_a_paths_shape_from_its_declaration(kind, prefix, name, k, n):
    spec, path = declared_spec(n, kind), prefix + name
    if k is None:
        assert cli._resolve(spec, path) == (name, None)
        with pytest.raises(ConfigError, match="^%s is scalar; drop the index$"
                           % re.escape(path + "[0]")):
            cli._resolve(spec, path + "[0]")
        return
    for i in range(n - k):
        assert cli._resolve(spec, "%s[%d]" % (path, i)) == (name, i)
    with pytest.raises(ConfigError, match="^index out of range in %s$"
                       % re.escape(repr("%s[%d]" % (path, n - k)))):
        cli._resolve(spec, "%s[%d]" % (path, n - k))
    with pytest.raises(ConfigError, match="^%s is a list; use %s\\[i\\]$"
                       % (re.escape(path), re.escape(path))):
        cli._resolve(spec, path)


@pytest.mark.parametrize("kind", [model.Linearized, model.Physical], ids=lambda kind: kind.KIND)
@pytest.mark.parametrize("path", ["n_mech", "drive", "n_mech[0]", "drive[0]"])
def test_resolve_refuses_a_path_that_names_no_number(kind, path):
    # with or without an index: no declaration names it, so it has no shape to check
    with pytest.raises(ConfigError, match="^%s cannot be swept$" % re.escape(path)):
        cli._resolve(declared_spec(2, kind), path)


def test_parse_axis():
    path, grid = parse_axis("theta[0]=0:6.28:5")
    assert path == "theta[0]" and len(grid) == 5 and grid[0] == 0.0
    for bad in ("theta[0]=0:6.28", "x=0:1:1", "x=a:b:4"):
        with pytest.raises(ConfigError):
            parse_axis(bad)
    for bad in ("kappa=0.1:inf:3", "kappa=nan:0.3:3", "drive.delta=-inf:1:3"):
        with pytest.raises(ConfigError, match=re.escape("axis bounds must be finite in %r" % bad)):
            parse_axis(bad)


def test_sweep_theta_minimum(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2",
                               "--axis", "theta[0]=0:6.283185307179586:9",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = body_lines(out)
    header = rows[0].split(",")
    assert header[:2] == ["theta[0]", "n_f_1"]
    data = [r.split(",") for r in rows[1:]]
    assert len(data) == 9
    n1 = [float(r[1]) for r in data]
    # resonator 1 cools best near theta = pi/2 (grid index 2)
    assert int(np.argmin(n1)) == 2


def test_sweep_two_axes(runner, tmp_path):
    out = tmp_path / "grid.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2",
                               "--axis", "drive.delta=0.9:1.1:3",
                               "--axis", "kappa=0.15:0.25:3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = body_lines(out)
    assert rows[0].split(",")[:2] == ["drive.delta", "kappa"]
    assert len(rows) == 1 + 9
    assert res.stdout == "wrote 9 rows to %s\n" % out


def test_sweep_unstable_rows_empty(runner, tmp_path):
    cfg = write_config(tmp_path / "hot.ini", eta="0.5")
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", "--config", cfg, "--mech-full",
                               "--axis", "drive.delta=0.9:1.1:3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    for row in body_lines(out)[1:]:
        cells = row.split(",")
        assert cells[1] == "" and cells[-2] == "false"


def test_set_param_invalid_value_is_config_error():
    # the CLI reports InvalidSpec as a config error (test_refused_command_is_one_line)
    table = model.param_table(get_preset("fig2"), 3)
    with pytest.raises(InvalidSpec, match="kappa must be > 0"):
        model.set_param(table, "kappa", None, [0.1, -1.0, 0.3])


def replaced(spec, name, i, value):
    """spec with entry i (None for a scalar) of field name set to value, by dataclasses.replace."""
    owner = spec.drive if name in spec.drive.FIELDS else spec
    if i is not None:
        cur = getattr(owner, name)
        value = cur[:i] + (value,) + cur[i + 1:]
    new = dataclasses.replace(owner, **{name: value})
    return new if owner is spec else dataclasses.replace(spec, drive=new)


#: a value that breaks each sign rule of a spec, with the rule's message
SIGN_RULES = [("kappa", 0.0, "kappa must be > 0"),
              ("omega_m[0]", 0.0, "frequencies and decay rates must be > 0"),
              ("gamma[1]", -1e-5, "frequencies and decay rates must be > 0"),
              ("nbar[0]", -1.0, "thermal occupations must be >= 0"),
              ("eta[0]", -0.1, "phonon-exchange strengths must be >= 0")]
SIGNED = {path: message for path, _, message in SIGN_RULES}
FIELDS = {"omega_m[0]": "omega_m", "kappa": "kappa", "gamma[1]": "gamma", "nbar[0]": "nbar",
          "eta[0]": "eta", "theta[0]": "theta", "drive.delta": "delta", "drive.g_lin[1]": "g_lin"}
#: and each field NaN, +inf and -inf; a sign rule comes before the finite rule
RULE_BREAKERS = SIGN_RULES + [
    (path, bad, SIGNED[path] if bad < 0 and path in SIGNED else "%s must be finite" % field)
    for path, field in FIELDS.items() for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("path, value, message", RULE_BREAKERS,
                         ids=["%s=%r" % (p, v) for p, v, _ in RULE_BREAKERS])
def test_set_param_and_spec_raise_the_same_message(path, value, message):
    # one statement of the value rules: a spec and a table row refuse a value alike
    spec = get_preset("fig2")
    name, i = cli._resolve(spec, path)
    with pytest.raises(InvalidSpec) as from_spec:
        replaced(spec, name, i, value)
    table = model.param_table(spec, 2)
    with pytest.raises(InvalidSpec) as from_table:
        model.set_param(table, name, i, [1.0 if name != "theta" else 0.5, value])
    assert str(from_table.value) == str(from_spec.value) == message


@pytest.fixture
def stacks(monkeypatch):
    """The shape of each drift stack that steadystate.cool_many gets, in call order."""
    shapes = []
    engine = steadystate.cool_many

    def recorded(a, q):
        shapes.append(a.shape)
        return engine(a, q)

    monkeypatch.setattr(steadystate, "cool_many", recorded)
    return shapes


#: a budget of 64 rows at N = 2, 36 at N = 3 and 23 at N = 4
SMALL_BUDGET = 64 * 16 * 6 ** 2


@pytest.mark.parametrize("source, axes, verdicts", [
    # 81 points; the delta = 0 row sends points to Schur
    (["--preset", "fig2"], ["drive.delta=-1:1:9", "theta[0]=0:6.2832:9"], {"true", "false"}),
    # a uniform N = 4 chain: 65 points, two full chunks of SMALL_BUDGET and 19 rows
    (["--preset", "figS11"], ["theta[0]=0:6.283185307179586:65"], {"true"}),
    # a nonuniform N = 3 chain, 81 points
    ("NONUNIFORM_N3", ["drive.delta=-1:1:9", "theta[1]=-7:7:9"], {"true", "false"}),
    # a physical drive, linearized per row: 81 points
    ("PHYSICAL", ["kappa=0.1:0.5:9", "drive.omega_amp=20:620:9"], {"true", "false"}),
    # the nonuniform N = 3 chain with unequal frequencies too, 81 points
    ("UNEQUAL_N3", ["drive.delta=-1:1:9", "theta[1]=-7:7:9"], {"true", "false"}),
], ids=["fig2", "chain4", "n3", "physical", "n3-unequal-omega"])
def test_sweep_chunks_and_workers_do_not_change_the_csv(runner, tmp_path, monkeypatch, stacks,
                                                        source, axes, verdicts):
    if source == "PHYSICAL":
        source = ["--config", physical_config(tmp_path / "p.ini", "20.0")]
    elif isinstance(source, str):
        source = ["--config", write_config(tmp_path / "n3.ini", **CONFIGS[source])]

    def run(name, *extra):
        out = tmp_path / name
        res = runner.invoke(main, ["sweep", *source, *(a for x in axes for a in ("--axis", x)),
                                   "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        return body_lines(out)

    whole = run("whole.csv")  # the default budget: the grid is one chunk
    assert len(stacks) == 1
    monkeypatch.setattr(cli, "CHUNK_BYTES", SMALL_BUDGET)
    del stacks[:]
    serial = run("serial.csv")
    assert len(stacks) >= 2 and serial == whole
    assert {row.split(",")[-2] for row in serial[1:]} == verdicts
    for workers in ("2", "3"):
        assert run("w%s.csv" % workers, "--workers", workers) == serial
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    del stacks[:]
    assert run("single.csv") == serial
    assert len(stacks) == len(serial) - 1  # a chunk of one row per point


@pytest.mark.parametrize("n_mech, axes, workers, rows", [
    # fig2's 1,089-point landscape: 131072 // (16 * 6^2) = 227 rows, in 5 engine calls
    (2, ["drive.delta=-1.5:1.5:33", "theta[0]=0:6.283185307179586:33"], 1, [227] * 4 + [181]),
    # 131072 // (16 * 34^2) = 7 rows
    (16, ["theta[0]=0:6.283185307179586:17"], 1, [7, 7, 3]),
    # one 92 x 92 complex matrix is 135,424 bytes: one row per call
    (45, ["theta[0]=0:6.283185307179586:3"], 1, [1, 1, 1]),
    # no fewer chunks than threads: 100 points on 2 workers are 2 chunks of 50
    (2, ["drive.delta=-1.5:1.5:10", "theta[0]=0:6.283185307179586:10"], 2, [50, 50]),
], ids=["fig2-33x33", "chain16", "chain45", "fig2-100-workers2"])
def test_no_engine_call_exceeds_the_budget(runner, tmp_path, stacks, n_mech, axes, workers, rows):
    source = ["--preset", "fig2"] if n_mech == 2 else ["--config", write_config(  # a uniform chain
        tmp_path / "c.ini", n_mech=n_mech, eta=", ".join(["0.05"] * (n_mech - 1)),
        theta=", ".join(["1.5"] * (n_mech - 1)),
        drive_lines=("type = linearized", "delta = 1.0", "g_lin = " + ", ".join(["0.1"] * n_mech)))]
    res = runner.invoke(main, ["sweep", *source, *(a for x in axes for a in ("--axis", x)),
                               "--out", str(tmp_path / "s.csv"), "--workers", str(workers)])
    assert res.exit_code == 0, res.output
    dim = 2 * n_mech + 2
    assert sorted(stacks, reverse=True) == [(r, dim, dim) for r in rows]
    assert all(r == 1 or 16 * r * dim * dim <= cli.CHUNK_BYTES for r in rows)


SPECS = {
    "n1": lambda: get_preset("fig2").with_(n_mech=1, omega_m=(1.0,), gamma=(1e-5,),
                                           nbar=(1e3,), eta=(), theta=(),
                                           drive=model.Linearized(delta=1.0, g_lin=(0.1,))),
    "chain16": lambda: _chain(16, 0.1, 0.1, math.pi / 2),
    "physical": lambda: get_preset("fig2").with_(drive=model.Physical(
        delta_c=1.0, omega_amp=200.0 * np.exp(0.3j), g_single=(1e-3, 1e-3))),
}


#: (spec, axis paths, rows of axis values): every kind of path, N = 4, 1 and 16, and a
#: physical drive, whose rows are linearized each at its own fixed point
CHUNKS = [
    ("figS11", ["kappa"], [[0.05], [0.3], [1.0]]),
    ("figS11", ["eta[1]"], [[0.0], [0.02], [0.3]]),
    ("figS11", ["theta[2]"], [[t] for t in [-7.0, -0.0, -1e-300, 0.5, TWO_PI, 13.0,
                                            *np.linspace(-20.0, 20.0, 41)]]),
    ("figS11", ["omega_m[3]"], [[0.5], [1.0], [2.0]]),
    ("figS11", ["gamma[0]"], [[1e-6], [1e-3]]),
    ("figS11", ["nbar[2]"], [[0.0], [10.0], [1e4]]),
    ("figS11", ["drive.delta"], [[-1.0], [0.0], [2.0]]),
    ("figS11", ["drive.g_lin[1]"], [[0.0], [0.05], [0.2]]),
    ("figS11", ["theta[0]", "theta[2]"], [[0.25, -3.0], [9.0, 0.5]]),
    ("figS11", ["kappa", "kappa"], [[0.1, 0.2], [0.3, 0.4]]),
    ("figS11", ["drive.delta", "drive.g_lin[0]"], [[0.9, 0.2], [-0.5, 0.0]]),
    ("n1", ["drive.g_lin[0]", "kappa"], [[0.0, 0.1], [0.3, 0.5], [0.1, 2.0]]),
    ("chain16", ["theta[14]", "eta[3]"], [[-1.0, 0.0], [7.0, 0.3]]),
    ("physical", ["drive.omega_amp"], [[0.0], [20.0], [200.0], [600.0]]),
    ("physical", ["drive.delta_c", "drive.g_single[1]"], [[-1.0, 0.0], [0.5, 2e-3], [1.0, 1e-3]]),
    ("physical", ["kappa", "theta[0]"], [[0.05, 0.0], [0.2, 2.0], [1.0, 4.0]]),
]


@pytest.mark.parametrize("spec, paths, rows", CHUNKS,
                         ids=["%s-%s" % (spec, "+".join(paths)) for spec, paths, _ in CHUNKS])
def test_chunk_table_builds_the_drifts_of_set_param(spec, paths, rows):
    # the stacked drifts of a table that set_param wrote equal, bit for bit, the
    # drifts of the specs that dataclasses.replace makes point by point
    spec = SPECS[spec]() if spec in SPECS else get_preset(spec)
    entries = [cli._resolve(spec, p) for p in paths]
    table = model.param_table(spec, len(rows))
    for (name, i), values in zip(entries, np.array(rows).T):
        model.set_param(table, name, i, values)
    specs = []
    for row in rows:
        point = spec
        for (name, i), value in zip(entries, row):
            point = replaced(point, name, i, value)
        specs.append(point)
    for approx in APPROXES:
        a, q = model.drift_stack(table, approx)
        for k, point in enumerate(specs):
            d = model.build_drift(point, approx)
            assert a[k].tobytes() == d.a.tobytes() and q[k].tobytes() == d.q.tobytes()


@pytest.mark.parametrize("name, source, args", [
    ("sweep_n1", "n1", ["--axis", "drive.delta=-1.5:1.5:13",
                        "--axis", "drive.g_lin[0]=0.02:0.3:5"]),
    ("sweep_mech_full", "fig2", ["--mech-full", "--axis", "drive.delta=-1.2:1.2:9",
                                 "--axis", "theta[0]=-3:9:9"]),
    ("sweep_mech_full", "fig2", ["--mech-full", "--axis", "drive.delta=-1.2:1.2:9",
                                 "--axis", "theta[0]=-3:9:9", "--workers", "2"]),
], ids=["n1", "mech_full", "mech_full-workers2"])
def test_sweep_matches_reference_csv(runner, tmp_path, name, source, args):
    # the reference CSVs come from the per-point implementation of sweep
    src = (["--config", write_config(tmp_path / "n1.ini", **N1_CONFIG)] if source == "n1"
           else ["--preset", source])
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", *src, *args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert body_lines(out) == (DATA / (name + ".csv")).read_text().splitlines()


def _sweep_lines_per_row(chunk, batch):
    """A sweep chunk's CSV lines as first written: each row of grid values and
    occupations formatted and joined whole, one repr per cell."""
    n_axes = chunk.shape[1]
    unstable = "," * (batch.n_f.shape[1] + 1) + ",false,"
    cells = np.column_stack([chunk, batch.n_f, batch.n_cav]).tolist()
    return [",".join(map(repr, row)) + ",true," + repr(x) if ok
            else ",".join(map(repr, row[:n_axes])) + unstable + repr(x)
            for row, ok, x in zip(cells, batch.stable.tolist(),
                                  batch.spectral_abscissa.tolist())]


EDGE_AXIS = np.array([-0.0, 5e-324, 1e300, -2.5, -1e-300, 0.1 + 0.2, 0.0, -1e300, 7.0])
THETA_AXIS = np.linspace(-7.0, 7.0, 13)


@pytest.mark.parametrize("grids", [
    [THETA_AXIS],
    [np.linspace(-7.0, 7.0, 131)],
    [EDGE_AXIS, THETA_AXIS],
    [THETA_AXIS, EDGE_AXIS],
    [np.linspace(-1.5, 1.5, 33), EDGE_AXIS],
], ids=["theta_13", "theta_131", "edge_x_theta", "theta_x_edge", "delta_33_x_edge"])
def test_sweep_lines_match_the_per_row_formatting(grids):
    points = np.array(list(itertools.product(*(grid.tolist() for grid in grids))))
    chunk = 64  # _sweep_lines takes any chunk; 64 rows leave a short last chunk on every grid
    assert len(points) % chunk != 0
    columns, prefixes = cli._sweep_grid(grids)
    assert np.column_stack(columns).tobytes() == points.tobytes()  # -0.0 kept, product order
    rng = np.random.default_rng(len(points))
    size, n_mech = len(points), 3
    stable = rng.random(size) < 0.6
    n_f = rng.lognormal(0.0, 8.0, (size, n_mech))
    n_cav = rng.lognormal(-20.0, 8.0, size)
    n_f[~stable], n_cav[~stable] = math.nan, math.nan  # as the engine leaves them
    n_f[0, 0], n_cav[-1] = 5e-324, 1e300
    abscissa = np.where(stable, -rng.lognormal(-5.0, 4.0, size), rng.lognormal(-5.0, 4.0, size))
    for s in range(0, size, chunk):
        rows = slice(s, s + chunk)
        batch = types.SimpleNamespace(n_f=n_f[rows], n_cav=n_cav[rows], stable=stable[rows],
                                      spectral_abscissa=abscissa[rows])
        assert cli._sweep_lines(prefixes[rows], batch) == _sweep_lines_per_row(points[rows], batch)


@pytest.mark.parametrize("preset", ["fig3", "fig4", "figS8"])
def test_spectrum_body_matches_the_per_row_formatting(runner, tmp_path, preset):
    out = tmp_path / "spectrum.csv"
    res = runner.invoke(main, ["spectrum", "--preset", preset, "--out", str(out)])
    assert res.exit_code == 0, res.output
    # the body as first written: every column, the constant last one too, by one repr per cell
    spec = model.to_linearized(get_preset(preset))
    coop = spectra.Cooperativities.from_spec(spec)
    pt = spectra.scan_point(model.build_drift(spec), np.linspace(0.9, 1.1, 801), coop)
    cells = np.column_stack([pt.omega, pt.t.reshape(801, -1), pt.lambda_rel[:, 2, 1],
                             pt.lambda_rel[:, 1, 2],
                             np.full(801, spectra.lambda_analytic(coop, spec.theta[0]))])
    body = body_lines(out)
    assert body[0].endswith(",Lambda_b2b1,Lambda_b1b2,Lambda_analytic_resonant")
    assert body[1:] == [",".join(map(repr, row)) for row in cells.tolist()]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_workers_below_one(runner, tmp_path, workers):
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3",
                               "--out", str(out), "--workers", workers])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--workers'" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--om-rwa", "--om-full", "--mech-rwa", "--mech-full"])
@pytest.mark.parametrize("command", ["modes", "limits"])
def test_commands_that_build_no_drift_take_no_approximation_flag(runner, command, flag):
    # the flags pick the drift's counter-rotating terms: modes builds no drift, and limits
    # builds only the one its effective model assumes (optomechanical FULL, mechanical RWA)
    res = runner.invoke(main, [command, "--preset", "fig2", flag])
    assert res.exit_code == 2
    assert "No such option '%s'" % flag in res.stderr
    assert res.stdout == ""


# --- spectrum -----------------------------------------------------------

def test_every_command_flags_the_shifted_point(runner, tmp_path, monkeypatch):
    # abscissa -1e-11: inside the margin, so every command must call it unstable
    def shifted(spec, approx=model.CouplingApprox()):
        d = model.build_drift(spec, approx)
        _, abscissa = steadystate.stability_check(d)
        return dataclasses.replace(d, a=d.a - (abscissa + 1e-11) * np.eye(d.a.shape[0]))

    def shifted_stack(table, approx=model.CouplingApprox()):  # what sweep builds
        a, q = model.drift_stack(table, approx)
        abscissa = np.linalg.eig(a)[0].real.max(axis=-1)
        return a - (abscissa + 1e-11)[:, None, None] * np.eye(a.shape[-1]), q

    monkeypatch.setattr(cli, "build_drift", shifted)
    monkeypatch.setattr(cli, "drift_stack", shifted_stack)
    res = runner.invoke(main, ["cool", "--preset", "fig2"])
    assert res.exit_code == 3 and not json.loads(res.stdout)["stable"]
    res = runner.invoke(main, ["stability", "--preset", "fig2"])
    payload = json.loads(res.stdout)
    assert not payload["stable"]
    assert payload["spectral_abscissa"] == pytest.approx(-1e-11, abs=1e-14)
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.15:0.25:3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert [row.split(",")[-2] for row in body_lines(out)[1:]] == ["false"] * 3
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--preset", "fig3", "--points", "5",
                               "--out", str(out)])
    assert_one_line(res, 3, "unstable: spectral abscissa")
    assert not out.exists()


def test_spectrum_reciprocal_at_zero_phase(runner, tmp_path):
    cfg = write_config(tmp_path / "sym.ini", theta="0.0")
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--config", cfg, "--points", "21",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = body_lines(out)
    header = rows[0].split(",")
    i21 = header.index("Lambda_b2b1")
    for row in rows[1:]:
        assert abs(float(row.split(",")[i21])) <= 1e-8


def test_spectrum_nonreciprocal_peak(runner, tmp_path):
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--preset", "fig3",
                               "--omega-min", "0.95", "--omega-max", "1.05",
                               "--points", "51", "--out", str(out)])
    assert res.exit_code == 0
    rows = body_lines(out)
    header = rows[0].split(",")
    i21 = header.index("Lambda_b2b1")
    ires = header.index("Lambda_analytic_resonant")
    mid = rows[1 + 25].split(",")  # omega = 1 row
    assert float(mid[ires]) == pytest.approx(1.0, abs=1e-9)
    assert float(mid[i21]) == pytest.approx(1.0, abs=0.05)


# --- modes / lambda / limits --------------------------------------------

def test_modes_hybrid_output(runner):
    res = runner.invoke(main, ["modes", "--preset", "fig2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert "hybrid" in payload and "bright_dark" not in payload
    assert payload["normal_modes"]["dark_count"] == 0


def test_modes_bright_dark_output(runner):
    res = runner.invoke(main, ["modes", "--preset", "fig2_eta0"])
    payload = json.loads(res.output)
    assert payload["bright_dark"]["dark_mode_exists"] is True


def test_modes_chain_dark_count(runner, tmp_path):
    cfg = write_config(tmp_path / "chain.ini", n_mech=4,
                       eta="0.1, 0.1, 0.1", theta="0, 0, 0",
                       drive_lines=("type = linearized", "delta = 1.0",
                                    "g_lin = 0.1, 0.1, 0.1, 0.1"))
    res = runner.invoke(main, ["modes", "--config", cfg])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["normal_modes"]["dark_count"] == 2


@pytest.mark.parametrize("source, dark, ceiling", [
    (["--preset", "fig2"], 0, 0.0), (["--preset", "fig2_eta0"], 1, 500.0),
    (dict(n_mech=4, eta="0, 0, 0", theta="1.5707963267948966, 0, 0",
          drive_lines=("type = linearized", "delta = 1.0", "g_lin = 0.1, 0.1, 0.1, 0.1")),
     3, 750.0),
    # fig2 with every rate times 1e-9: the degeneracy tolerance scales with the phonon matrix
    (dict(omega="1e-9", kappa="2e-10", gamma="1e-14", eta="5e-11", drive_lines=(
        "type = linearized", "delta = 1e-9", "g_lin = 1e-10, 1e-10")), 0, 0.0),
], ids=["fig2", "fig2_eta0", "eta0-chain4", "fig2-rates-x1e-9"])
def test_modes_reports_dark_ceiling(runner, tmp_path, source, dark, ceiling):
    # nbar d/N: the d dark modes of N keep their bath's nbar = 1e3; at eta = 0
    # a chain of four has three, whatever its loop phase
    if isinstance(source, dict):
        source = ["--config", write_config(tmp_path / "chain.ini", **source)]
    res = runner.invoke(main, ["modes", *source])
    assert res.exit_code == 0, res.output
    nm = strict_json(res.stdout)["normal_modes"]
    assert (nm["dark_count"], nm["dark_ceiling"]) == (dark, ceiling)


@pytest.mark.parametrize("split", [1e-11, 3e-10, 1e-9, 5e-9, 2e-8])
def test_modes_bright_dark_agrees_with_the_dark_count(runner, tmp_path, split):
    # fig2_eta0 with omega_2 = 1 + split: the pair is one degenerate eigenspace, with a
    # dark mode, while split < 1e-8 (_aligned_eigh's tolerance); one report, one answer
    cfg = write_config(tmp_path / "c.ini", omega="1.0, %r" % (1.0 + split), eta="0.0",
                       theta="0.0")
    res = runner.invoke(main, ["modes", "--config", cfg])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    assert payload["bright_dark"]["dark_mode_exists"] == (payload["normal_modes"]["dark_count"] > 0)
    assert payload["bright_dark"]["dark_mode_exists"] == (split < 1e-8)


def test_lambda_command(runner):
    res = runner.invoke(main, ["lambda", "--eta", "1.0", "--theta", "0.0"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["dark_index"] is not None
    assert payload["p_e"][payload["dark_index"]] <= 1e-10
    assert sorted(round(x, 6) for x in payload["lambdas"]) == [-1.0, -1.0, 2.0]


@pytest.mark.parametrize("eta, theta, dark", [
    ("1e10", "0.3", [0, 1]), ("1.0", "0", [1]), ("0.5", "0.3", []),
    # next to the degenerate eta = 1, and where the closed form's smallest root cancels
    ("1.000001", "0", [1]), ("1e20", "0.3", [0, 1]),
    ("1e100", "0", [0, 1]),
])
def test_lambda_reports_every_dark_state(runner, eta, theta, dark):
    res = runner.invoke(main, ["lambda", "--eta", eta, "--theta", theta])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.output)
    assert payload["dark_indices"] == dark
    assert abs(sum(payload["p_e"]) - 1) <= 1e-12  # the weights of an orthonormal eigenbasis
    assert payload["dark_index"] == (min(dark, key=payload["p_e"].__getitem__) if dark else None)


def test_limits_command(runner):
    res = runner.invoke(main, ["limits", "--preset", "fig4"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    s1, s2 = payload["simplified"]
    f1, f2 = payload["full"]
    assert abs(f1 - s1) / s1 < 0.05 and abs(f2 - s2) / s2 < 0.05


def fig2_variant(rng):
    """write_config arguments of a random fig2 variant: kappa log-uniform in [0.01, 1],
    G_j/kappa in [0.01, 2], eta in [1e-3, 1], theta in [0, 2 pi), Delta in [0.5, 1.5]."""
    kappa = 10.0 ** rng.uniform(-2.0, 0.0)
    g = [kappa * rng.uniform(0.01, 2.0) for _ in range(2)]
    return dict(kappa=repr(kappa), eta=repr(rng.uniform(1e-3, 1.0)),
                theta=repr(rng.uniform(0.0, TWO_PI)), drive_lines=(
                    "type = linearized", "delta = %r" % rng.uniform(0.5, 1.5),
                    "g_lin = %r, %r" % tuple(g)))


def test_limits_answers_only_where_the_engine_is_stable(runner, tmp_path):
    # limits refuses what its effective model cannot describe, and then a point that
    # stability calls unstable: it answers no point that the engine calls unstable
    rng, codes = random.Random("loopcool-limits-verdict"), []
    for _ in range(200):
        cfg = write_config(tmp_path / "v.ini", **fig2_variant(rng))
        stable = strict_json(runner.invoke(main, ["stability", "--config", cfg]).stdout)["stable"]
        res = runner.invoke(main, ["limits", "--config", cfg])
        if res.exit_code == cli.EXIT_UNSTABLE:
            assert not stable
            assert_one_line(res, cli.EXIT_UNSTABLE, "unstable: spectral abscissa")
        else:
            assert res.exit_code in (0, cli.EXIT_CONFIG), res.output
            assert stable or res.exit_code == cli.EXIT_CONFIG  # report's own refusal comes first
        codes.append(res.exit_code)
    assert 0 in codes and cli.EXIT_UNSTABLE in codes


def test_limits_builds_its_drift_under_limits_approx(runner, monkeypatch):
    # limits.APPROX owns the approximation of the drift whose verdict limits takes
    built, owner = [], model.CouplingApprox(model.RWA, model.FULL)

    def build_drift(spec, *approx):
        built.append(approx)
        return model.build_drift(spec, *approx)

    monkeypatch.setattr(limits, "APPROX", owner)
    monkeypatch.setattr(cli, "build_drift", build_drift)
    res = runner.invoke(main, ["limits", "--preset", "fig2"])
    assert res.exit_code == 0, res.output
    assert len(built) == 1 and len(built[0]) == 1 and built[0][0] is owner


#: fig2 variant whose analytic limits read n_1 = -0.399 (simplified): below the vacuum's 0
NEGATIVE_LIMIT = dict(
    kappa="0.16336885491652756", gamma="2.230533139213749e-06, 1.5594079981877995e-06",
    eta="0.01813642801067556", theta="0",
    edits=[("nbar = 1e3, 1e3", "nbar = 197.81827508762862, 107.49323767266435")],
    drive_lines=("type = linearized", "delta = 0.9980497853198873",
                 "g_lin = 0.01598907795593951, 0.044803163633385386"))
BELOW_ZERO = "the simplified formula gives an occupation below zero; it is unreliable"


@pytest.mark.parametrize("command", ["cool", "limits"])
def test_a_negative_limit_carries_its_note(runner, tmp_path, command):
    res = runner.invoke(main, [command, "--config", write_config(tmp_path / "neg.ini",
                                                                 **NEGATIVE_LIMIT)])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    found = payload.get("limits", payload)
    assert found["simplified"][0] == pytest.approx(-0.399, abs=1e-3)
    # the full formula, where limits runs it, stays above zero and carries no such note
    assert [note for note in found["warnings"] if "below zero" in note] == [BELOW_ZERO]


# --- JSON: one strict encoder ---------------------------------------------

NONUNIFORM_N3 = dict(n_mech=3, eta="0.05, 0.08", theta="1.0, 2.0", drive_lines=(
    "type = linearized", "delta = 1.0", "g_lin = 0.1, 0.12, 0.09"))
#: write_config arguments by name
CONFIGS = {
    "NONUNIFORM_N3": NONUNIFORM_N3,
    "UNEQUAL_N3": dict(NONUNIFORM_N3, omega="1.0, 1.1, 0.95"),
    # fig2 with an exchange below the rounding of its frequencies
    "ETA_1e-20": dict(eta="1e-20"),
    # a physical drive with one classical fixed point (test_cool_strong_physical_drive)
    "P600": dict(drive_lines=("type = physical", "delta_c = 1.0", "omega_amp = 600",
                              "g_single = 0.001, 0.001")),
    # a physical drive whose effective two-mode model is stable, with no validity note
    "P50": dict(drive_lines=("type = physical", "delta_c = 1.0", "omega_amp = 50",
                             "g_single = 0.001, 0.001")),
    # no exchange and one coupling zero: cool is stable, limits and spectrum refuse it
    "ZERO_COUPLING": dict(eta="0.0", theta="0.0", drive_lines=(
        "type = linearized", "delta = 1.0", "g_lin = 0.1, 0.0")),
}


@pytest.mark.parametrize("args", [
    ["cool", "--preset", "fig2"], ["cool", "--preset", "figS10", "--mech-full"],
    ["cool", "NONUNIFORM_N3"], ["stability", "--preset", "fig4"], ["stability", "NONUNIFORM_N3"],
    ["modes", "--preset", "fig2"], ["modes", "--preset", "fig2_eta0"], ["modes", "NONUNIFORM_N3"],
    ["limits", "--preset", "fig4"], ["lambda", "--eta", "1.0", "--theta", "0.0"],
    ["lambda", "--eta", "0.5", "--theta", "1.0"],
    ["cool", "UNEQUAL_N3"], ["stability", "UNEQUAL_N3"], ["modes", "UNEQUAL_N3"],
    ["limits", "--preset", "fig2"], ["modes", "ETA_1e-20"],
    ["stability", "P600", "--om-rwa"], ["modes", "P600"], ["limits", "P50"],
    ["cool", "ZERO_COUPLING"],
], ids=lambda args: "-".join(args).replace("--", ""))
def test_every_json_output_is_strict(runner, tmp_path, args):
    name = args[1]
    if name in CONFIGS:
        args = [args[0], "--config", write_config(tmp_path / "c.ini", **CONFIGS[name])] + args[2:]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    # only a command that builds a drift names the approximation it was built under
    built = {"optomechanical", "mechanical"} if args[0] in ("cool", "stability") else set()
    assert set(payload["provenance"]) == {"tool_version", "timestamp"} | built
    if args[0] == "modes":
        assert "closed_form" not in payload["normal_modes"]
    if args[0] == "modes" and name.endswith("_N3"):
        assert payload["normal_modes"]["predicted_uncooled"] is None


@pytest.mark.parametrize("command", [
    ["sweep", "--axis", "kappa=0.1:0.3:3"], ["spectrum", "--points", "5"],
], ids=["sweep", "spectrum"])
def test_csv_metadata_is_strict_json(runner, tmp_path, command):
    out = tmp_path / "x.csv"

    def meta(*source):
        res = runner.invoke(main, [command[0], *source, *command[1:], "--out", str(out)])
        assert res.exit_code == 0, res.output
        return strict_json("\n".join(ln[2:] for ln in out.read_text().splitlines()
                                     if ln.startswith("# ")))

    fig2 = meta("--preset", "fig2")
    assert fig2["spec"]["drive"] == {"type": "linearized", "delta": 1.0, "g_lin": [0.1, 0.1]}
    notes = {"lambda_normalizer"} if command[0] == "spectrum" else set()
    assert set(fig2["provenance"]) == {"tool_version", "timestamp", "optomechanical",
                                       "mechanical"} | notes
    # a physical drive is shown as given
    spec = meta("--config", physical_config(tmp_path / "p20.ini", "20.0"))["spec"]
    assert spec["drive"] == {"type": "physical", "delta_c": 1.0, "omega_amp": [20.0, 0.0],
                             "g_single": [0.001, 0.001]}


def test_json_encoder_cases():
    payload = {
        "complex": 1.5 - 2j, "complex128": np.complex128(0.25j),
        "nan": math.nan, "inf": [math.inf, -math.inf], "np_nan": np.float64("nan"),
        "int64": np.int64(7), "bool_": np.bool_(True), "bool": False, "float64": np.float64(0.1),
        "tuple": (1.0, (2, "x")), "nested": np.array([[1.5, np.nan], [np.inf, -0.0]]),
        "complex_array": np.array([1 + 1j, np.nan + 0j]), "none": None,
    }
    text = cli._json(payload)
    assert strict_json(text) == {
        "complex": [1.5, -2.0], "complex128": [0.0, 0.25],
        "nan": None, "inf": [None, None], "np_nan": None,
        "int64": 7, "bool_": True, "bool": False, "float64": 0.1,
        "tuple": [1.0, [2, "x"]], "nested": [[1.5, None], [None, -0.0]],
        "complex_array": [[1.0, 1.0], [None, 0.0]], "none": None,
    }
    assert '"int64": 7,' in text and '"bool_": true,' in text and '"float64": 0.1,' in text


def physical_config(path, omega_amp, g_single="0.001, 0.001"):
    """A fig2-like two-mode config with a physical drive at delta_c = 1."""
    return write_config(path, drive_lines=(
        "type = physical", "delta_c = 1.0", "omega_amp = " + omega_amp,
        "g_single = " + g_single))


@pytest.mark.parametrize("axis, n_f_1", [
    # the base point's fixed point on every row read 3.059, 5.355, 7.940, 10.685
    ("kappa=0.1:0.4:4", [2.966, 5.355, 8.328, 11.927]),
    ("drive.omega_amp=20:620:4", None),
    ("drive.delta_c=-1:1.5:6", None),
    ("drive.g_single[1]=0:0.002:5", None),
], ids=["kappa", "omega_amp", "delta_c", "g_single"])
def test_physical_sweep_rows_equal_cool_on_their_own_config(runner, tmp_path, axis, n_f_1):
    # every row is linearized at its own classical fixed point, as cool linearizes its point
    base = physical_config(tmp_path / "p20.ini", "20.0")
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--config", base, "--axis", axis, "--out", str(out)])
    assert res.exit_code == 0, res.output
    key = axis.split("=")[0].split("[")[0].replace("drive.", "")
    rows = [line.split(",") for line in body_lines(out)[1:]]
    for row in rows:
        line = "g_single = 0.001, " + row[0] if key == "g_single" else "%s = %s" % (key, row[0])
        cfg = tmp_path / "row.ini"
        cfg.write_text(re.sub(r"(?m)^%s = .*$" % key, line, pathlib.Path(base).read_text()))
        res = runner.invoke(main, ["cool", "--config", str(cfg)])
        payload = strict_json(res.stdout)
        assert res.exit_code == (0 if payload["stable"] else 3)
        assert row[4] == json.dumps(payload["stable"])
        assert float(row[5]) == pytest.approx(payload["spectral_abscissa"], rel=1e-12)
        if payload["stable"]:
            assert [float(x) for x in row[1:4]] == pytest.approx(
                payload["n_f"] + [payload["n_cav"]], rel=1e-12)
    if n_f_1 is not None:
        assert [float(row[1]) for row in rows] == pytest.approx(n_f_1, abs=5e-4)


def test_cool_strong_physical_drive(runner, tmp_path):
    # omega_amp = 600 has one classical fixed point, Delta_eff = -0.858, where a
    # damped fixed-point iteration does not settle: unstable with the
    # counter-rotating terms, cooled under --om-rwa
    cfg = physical_config(tmp_path / "p600.ini", "600.0")
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert res.exit_code == 3, res.output
    payload = strict_json(res.stdout)
    assert not payload["stable"] and payload["spectral_abscissa"] > 0.6
    res = runner.invoke(main, ["cool", "--om-rwa", "--config", cfg])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    assert payload["stable"]
    assert payload["n_f"] == pytest.approx([9.2711, 9.6637], rel=1e-4)


@pytest.fixture
def solves(monkeypatch):
    """The parameter table of each model.fixed_point_stack call, in call order."""
    tables = []
    solve = model.fixed_point_stack

    def counted(table):
        tables.append(table)
        return solve(table)

    monkeypatch.setattr(model, "fixed_point_stack", counted)
    return tables


@pytest.mark.parametrize("command, omega_amp", [
    ("cool", "20.0"), ("stability", "20.0"), ("spectrum", "20.0"), ("modes", "20.0"),
    ("limits", "20.0"),
    # one classical fixed point, cooled only under --om-rwa (test_cool_strong_physical_drive)
    ("spectrum --om-rwa", "600.0"),
], ids=["cool", "stability", "spectrum", "modes", "limits", "spectrum-om-rwa-600"])
def test_each_command_solves_a_fixed_point_once(runner, tmp_path, solves, command, omega_amp):
    # the report and the computation share one linearization; a linearized spec needs none
    command = command.split()
    csv = tmp_path / "s.csv"
    out = ["--out", str(csv)] if command[0] == "spectrum" else []
    res = runner.invoke(main, command + ["--config", physical_config(tmp_path / "p.ini", omega_amp)]
                        + out)
    assert res.exit_code == 0, res.output
    assert len(solves) == 1
    if out:
        assert len(body_lines(csv)) > 1
    res = runner.invoke(main, command + ["--preset", "fig2"] + out)
    assert res.exit_code == 0, res.output
    assert len(solves) == 1


def test_physical_sweep_solves_once_per_chunk(runner, tmp_path, monkeypatch, solves):
    # 81 rows at N = 2: one solve for each chunk, on that chunk's rows; the default
    # budget makes the grid one chunk, SMALL_BUDGET two
    kappa, amp = (c.ravel() for c in np.meshgrid(np.linspace(0.1, 0.5, 9),
                                                 np.linspace(20.0, 620.0, 9), indexing="ij"))
    for budget, rows, chunks in ((cli.CHUNK_BYTES, 81, 1), (SMALL_BUDGET, 64, 2)):
        monkeypatch.setattr(cli, "CHUNK_BYTES", budget)
        del solves[:]
        res = runner.invoke(main, ["sweep", "--config", physical_config(tmp_path / "p.ini", "20.0"),
                                   "--axis", "kappa=0.1:0.5:9", "--axis", "drive.omega_amp=20:620:9",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 0, res.output
        starts = range(0, kappa.size, rows)
        assert len(solves) == len(starts) == chunks
        for table, s in zip(solves, starts):
            assert table["kappa"].tolist() == kappa[s:s + rows].tolist()
            assert table["omega_amp"].tolist() == amp[s:s + rows].tolist()


def test_cool_embeds_the_limits_report(runner, tmp_path):
    # kappa = 0.05 < G = 0.1 is outside omega >> kappa >> G >> gamma: both commands note it
    cfg = write_config(tmp_path / "narrow.ini", kappa="0.05")
    cooled = json.loads(runner.invoke(main, ["cool", "--config", cfg]).output)
    limited = json.loads(runner.invoke(main, ["limits", "--config", cfg]).output)
    assert cooled["stable"]
    regime = "outside the validity regime omega >> kappa >> G >> gamma"
    assert cooled["limits"] == {"simplified": limited["simplified"], "warnings": [regime]}
    assert regime in limited["warnings"]


@pytest.mark.parametrize("source", ["figS10", "figS11", "n1"])
def test_cool_says_why_a_chain_has_no_limits(runner, tmp_path, source):
    # limits.effective_model alone decides which n_mech it takes; cool passes its text on
    args = (["--config", write_config(tmp_path / "n1.ini", **N1_CONFIG)] if source == "n1"
            else ["--preset", source])
    res = runner.invoke(main, ["cool", *args])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    assert payload["stable"]
    assert payload["limits"] == {
        "unavailable": "adiabatic elimination is defined for n_mech = 2"}


@pytest.mark.parametrize("flags, limited", [(["--om-full", "--mech-rwa"], True),
                                             (["--om-rwa"], False), (["--mech-full"], False)])
def test_cool_prints_the_limits_of_its_own_approximation_only(runner, flags, limited):
    # the limits describe the drift under limits.APPROX (optomechanical FULL, mechanical
    # RWA): under another approximation cool's steady state stands without them
    res = runner.invoke(main, ["cool", "--preset", "fig2", *flags])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    assert payload["stable"]
    if limited:
        assert payload["limits"]["simplified"] == pytest.approx([0.21206, 0.63180], rel=1e-4)
    else:
        assert payload["limits"] == {
            "unavailable": "the cooling limits assume optomechanical full and mechanical rwa"}


# at delta = -(omega_1 + omega_2)/2 the adiabatic n_opt divides by zero
OPPOSITE_DETUNING = dict(drive_lines=(
    "type = linearized", "delta = -1.0", "g_lin = 0.01, 0.01"))


def test_cool_at_opposite_detuning_reports_limit_unavailable(runner, tmp_path):
    cfg = write_config(tmp_path / "opp.ini", gamma="0.01", **OPPOSITE_DETUNING)
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["stable"]
    assert payload["limits"] == {
        "unavailable": "n_opt undefined when omega_1 + omega_2 + 2 delta = 0"}


#: configs whose cooling limits overflow, with the message that limits refuses them with
LIMITS_OVERFLOW = [
    # 4 kappa^2 overflows for kappa above about 7e153: n_opt and the simplified limits are inf
    (("kappa = 0.2", "kappa = 1e300"), "cooling-limit quantities not finite: n_opt, simplified"),
    # kappa^2 + (delta - omega_2)^2 = kappa^2 underflows to 0, but the Lorentzian is scaled, so
    # what overflows is its value g^2/kappa ~ 2e321, not a division by zero: an inf, named
    (("kappa = 0.2", "kappa = 5e-324"), "cooling-limit quantities not finite: xi1, xi2, "
     "gamma_eff, chi1, chi2, chi_plus, chi_minus, simplified, full, lambda"),
]


#: the message that refuses the limits of fig2 at delta = -0.5, whose effective model is unstable
UNSTABLE_LIMITS = "cooling limits undefined for an unstable effective model: min Re lambda = -0.00728"


def test_cool_reports_overflowing_limits_unavailable(runner, tmp_path, monkeypatch):
    # the eig verdict at kappa = 1e300 is rounding noise that depends on the LAPACK
    # build, and at delta = -0.5 it is unstable: patch in a stable report
    report = steadystate.CoolingReport(n_f=np.array([1.0, 2.0]), n_cav=0.0, stable=True,
                                       spectral_abscissa=-1e-5, residual=0.0, solver="eig")
    monkeypatch.setattr(steadystate, "cool_or_flag", lambda drift: report)
    for edit, message in [*LIMITS_OVERFLOW, (("delta = 1.0", "delta = -0.5"), UNSTABLE_LIMITS)]:
        res = runner.invoke(main, ["cool", "--config",
                                   write_config(tmp_path / "far.ini", edits=[edit])])
        assert res.exit_code == 0, res.output
        payload = strict_json(res.stdout)
        assert payload["n_f"] == [1.0, 2.0] and payload["stable"]
        # cool computes the simplified limit alone, so it names no full one
        assert payload["limits"] == {"unavailable": message.replace(", full", "")}


def test_limits_far_detuned(runner, tmp_path):
    # at delta = 1e200 the square of omega_1 + omega_2 + 2 delta overflows to inf, so
    # n_opt = 4 kappa^2 / inf = 0: the full limit is the thermal nbar, and the simplified
    # one, built on the resonant g^2/kappa, carries its note.  On a drift of norm 1e200
    # the engine's verdict is eig's rounding noise (ROADMAP item 4), and the command
    # gives that verdict, whichever it is, as stability does
    cfg = write_config(tmp_path / "far.ini", edits=[("delta = 1.0", "delta = 1e200")])
    effective, found, notes = limits.report(parse_spec(cfg), full=True)
    assert effective["n_opt"] == 0.0
    assert found["full"] == pytest.approx((1e3, 1e3), rel=1e-12)
    assert notes == ["exact optical decays differ from the resonant g^2/kappa by "
                     "more than 20%; the simplified formula is unreliable"]
    res = runner.invoke(main, ["limits", "--config", cfg])
    if strict_json(runner.invoke(main, ["stability", "--config", cfg]).stdout)["stable"]:
        assert res.exit_code == 0, res.output
        payload = strict_json(res.stdout)
        assert payload["full"] == list(found["full"]) and payload["warnings"] == notes
    else:
        assert_one_line(res, cli.EXIT_UNSTABLE, "unstable: spectral abscissa")
        assert res.stdout == ""


# --- refusals: one line on stderr and one exit code per package error ------

def assert_one_line(res, code, prefix):
    assert res.exit_code == code, (res.output, res.exception)
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr
    assert "Traceback" not in res.output


def raising(exc):
    """A stand-in that raises exc whatever it is called with."""
    def stand_in(*args, **kwargs):
        raise exc
    return stand_in


def refuse_open(path, mode="r"):
    raise PermissionError(13, "Permission denied", path)


#: what a refusal row may patch: (owner, attribute, stand-in)
PATCHES = {
    # root ignores permission bits, so a directory's refusal is simulated
    "no-write-access": (os, "access", lambda path, mode: mode != os.W_OK),
    "open-refused": (cli, "open", refuse_open),
    "eig-fails": (np.linalg, "eig", raising(np.linalg.LinAlgError("no convergence"))),
    "cool_many-fails": (steadystate, "cool_many",
                        raising(NoConvergence("eigenvalue iteration failed"))),
    "no-set_param": (cli, "set_param", raising(AssertionError(
        "a value was checked before every path was resolved"))),
    "no-drift_stack": (cli, "drift_stack", raising(AssertionError("a grid point ran"))),
    # a stable point whose covariance overflowed (fig2 at kappa = 1e300 under --mech-full,
    # a verdict that is rounding noise and depends on the LAPACK build)
    "nan-occupations": (steadystate, "_occupations", lambda v, n_mech: (
        np.full(v.shape[:-2] + (n_mech,), math.nan), np.full(v.shape[:-2], math.nan))),
}


class Refusal(typing.NamedTuple):
    """A command line that the CLI refuses, and the one line it refuses it with.

    argv and message have {cfg} (the config file) and {out} filled in; message
    also {dir}, the directory of {out}.  config is a config file's text, the
    write_config arguments of one, or None for no file.  out is what {out}
    names before the run: a path that does not exist (None), an existing
    "file", a path in a missing directory ("nodir") or an empty directory
    ("dir").  patches name PATCHES entries.
    """
    id: str
    argv: str
    code: int
    message: str
    config: str | dict | None = None
    out: str | None = None
    patches: tuple = ()


SWEEP = "sweep --preset fig2 --axis kappa=0.1:0.3:3 --out {out}"
SPECTRUM = "spectrum --preset fig3 --points 5 --out {out}"
#: what each command takes after --config {cfg}
ON_CONFIG = {"spectrum": " --out {out}", "sweep": " --axis drive.delta=0.9:1.1:3 --out {out}"}
HUGE_KAPPA = dict(kappa="1e308")  # 2 kappa overflows
NOISE_OVERFLOW = "error: FloatingPointError: noise matrix not finite: Q"

#: three families of refusals keep the test names they had before the table;
#: the same body checks them
NON_FINITE_KAPPA = [
    Refusal("%s-%s" % (value, command), command + " --config {cfg}" + ON_CONFIG.get(command, ""),
            2, "config error: {cfg}: kappa must be finite", dict(kappa=value))
    for command in ("cool", "stability", "spectrum", "sweep", "modes", "limits")
    for value in ("nan", "inf")]
# kappa = 1e308 passes every spec rule, but 2 kappa overflows in the noise matrix:
# one error line and no report, not an unstable point, for a point and a sweep alike
NOISE_OVERFLOWS = [
    *[Refusal(command, command + " --config {cfg}" + ON_CONFIG.get(command, ""), 1,
              NOISE_OVERFLOW, HUGE_KAPPA) for command in ("cool", "stability", "spectrum", "sweep")],
    Refusal("sweep-workers2", "sweep --config {cfg} --workers 2" + ON_CONFIG["sweep"], 1,
            NOISE_OVERFLOW, HUGE_KAPPA)]
NON_FINITE_AXES = [
    Refusal(axis, "sweep --preset fig2 --axis %s --out {out}" % axis, 2,
            "config error: axis bounds must be finite in '%s'" % axis)
    for axis in ("kappa=0.1:inf:3", "kappa=nan:0.3:3", "drive.delta=-inf:1:3")]

REFUSALS = [
    # the config file and the spec source
    Refusal("config-n_mech-not-integer", "cool --config {cfg}", 2,
            "config error: {cfg} [system]: n_mech must be an integer", "[system]\nn_mech = two\n"),
    Refusal("config-no-drive-section", "cool --config {cfg}", 2,
            "config error: {cfg}: missing [drive] section",
            "[system]\nn_mech = 2\nomega_m = 1,1\nkappa = 0.2\ngamma = 1e-5,1e-5\n"
            "nbar = 1e3,1e3\neta = 0.05\ntheta = 0\n"),
    Refusal("config-missing-file", "cool --config {cfg}", 2,
            "config error: cannot read config file {cfg}"),
    Refusal("config-no-system-section", "cool --config {cfg}", 2,
            "config error: {cfg}: missing [system] section",
            dict(edits=[("[system]", "[sys]")])),
    Refusal("config-drive-type", "cool --config {cfg}", 2,
            "config error: {cfg} [drive]: type must be 'linearized' or 'physical', got 'foo'",
            dict(edits=[("type = linearized", "type = foo")])),
    Refusal("config-n_mech-0", "cool --config {cfg}", 2,
            "config error: {cfg}: n_mech must be >= 1",
            dict(edits=[("n_mech = 2", "n_mech = 0")])),
    # the grammar has no interpolation, so a '%' is part of the value it is in
    Refusal("config-percent", "cool --config {cfg}", 2,
            "config error: {cfg} [system] kappa: expected a number, got '20%'", dict(kappa="20%")),
    Refusal("config-not-utf8", "cool --config {cfg}", 2,
            "config error: cannot parse {cfg}: 'utf-8' codec can't decode byte 0xe9 in "
            "position 183: invalid continuation byte",
            dict(edits=[("g_lin = 0.1, 0.1\n", "g_lin = 0.1, 0.1\n# résumé\n")],
                 encoding="latin-1")),
    Refusal("config-delta-nan", "cool --config {cfg}", 2,
            "config error: {cfg}: delta must be finite",
            dict(edits=[("delta = 1.0", "delta = nan")])),
    Refusal("config-g_lin-inf", "cool --config {cfg}", 2,
            "config error: {cfg}: g_lin must be finite",
            dict(edits=[("g_lin = 0.1, 0.1", "g_lin = 0.1, inf")])),
    Refusal("no-source", "cool", 2, "config error: provide exactly one of --config or --preset"),
    Refusal("two-sources", "cool --config {cfg} --preset fig2", 2,
            "config error: provide exactly one of --config or --preset", {}),
    Refusal("unknown-preset", "cool --preset nope", 2,
            "config error: unknown preset 'nope' (have: fig2, fig2_eta0, fig3, fig4, figS10, "
            "figS11, figS13, figS8)"),
    # |Omega|^2 = 1e400, then s = 2 g.Re(c) ~ 1e400: real inputs, no patched model
    Refusal("cool-fixed-point-overflow-omega_amp", "cool --config {cfg}", 1,
            "error: FloatingPointError: classical fixed point not finite: cubic",
            dict(CONFIGS["P600"], edits=[("omega_amp = 600", "omega_amp = 1e200")])),
    Refusal("cool-fixed-point-overflow-g_single", "cool --config {cfg}", 1,
            "error: FloatingPointError: classical fixed point not finite: cubic",
            dict(CONFIGS["P600"], edits=[("omega_amp = 600", "omega_amp = 1000.0"),
                                         ("g_single = 0.001, 0.001", "g_single = 1e200, 1e200")])),
    Refusal("stability-eig-fails", "stability --preset fig2", 1,
            "error: NoConvergence: eigenvalue iteration failed: no convergence",
            patches=("eig-fails",)),
    # sweep: axes and their values, all checked before any point runs
    Refusal("sweep-unknown-parameter", "sweep --preset fig2 --axis bogus_param=0:1:4 --out {out}",
            2, "config error: unknown parameter 'bogus_param'"),
    Refusal("sweep-bad-path", "sweep --preset fig2 --axis Kappa=0.1:0.2:2 --out {out}", 2,
            "config error: bad parameter path 'Kappa'"),
    Refusal("sweep-three-axes", SWEEP + " --axis eta[0]=0:0.1:2 --axis theta[0]=0:1:2", 2,
            "config error: at most two --axis options"),
    Refusal("sweep-kappa-invalid-first", "sweep --preset fig2 --axis kappa=-1:1:5 --out {out}", 2,
            "config error: kappa must be > 0"),
    Refusal("sweep-kappa-invalid-later", "sweep --preset fig2 --axis kappa=1:-1:5 --out {out}", 2,
            "config error: kappa must be > 0"),
    Refusal("sweep-kappa-invalid-keeps-file",
            "sweep --preset fig2 --axis kappa=1:-1:5 --out {out}", 2,
            "config error: kappa must be > 0", out="file"),
    Refusal("sweep-eta-invalid-first", "sweep --preset fig2 --axis eta[0]=-0.1:0.1:3 --out {out}",
            2, "config error: phonon-exchange strengths must be >= 0"),
    Refusal("sweep-invalid-second-axis", "sweep --preset fig2 --axis drive.delta=0.9:1.1:3 "
            "--axis kappa=1:-1:5 --out {out}", 2, "config error: kappa must be > 0"),
    # the second axis would overwrite the first one's column: every row mislabelled
    Refusal("sweep-repeated-axis-kappa", "sweep --preset fig2 --axis kappa=0.1:0.2:2 "
            "--axis kappa=0.3:0.4:2 --out {out}", 2,
            "config error: axes 'kappa=0.1:0.2:2' and 'kappa=0.3:0.4:2' sweep the same parameter",
            patches=("no-drift_stack",)),
    Refusal("sweep-repeated-axis-theta-index-spelling", "sweep --preset fig2 "
            "--axis theta[0]=0:1:2 --axis theta[00]=0:1:3 --out {out}", 2,
            "config error: axes 'theta[0]=0:1:2' and 'theta[00]=0:1:3' sweep the same parameter",
            patches=("no-drift_stack",)),
    Refusal("sweep-n_mech-axis", "sweep --preset fig2 --axis n_mech=2:2:2 --out {out}", 2,
            "config error: n_mech cannot be swept"),
    # the path itself is refused, not a spec rule that one of its values breaks
    Refusal("sweep-n_mech-second-axis", SWEEP + " --axis n_mech=3:4:2", 2,
            "config error: n_mech cannot be swept", patches=("no-set_param",)),
    Refusal("sweep-drive-second-axis", SWEEP + " --axis drive=0:1:2", 2,
            "config error: drive cannot be swept", patches=("no-set_param",)),
    # finite bounds whose stop - start overflows: refused before numpy sees them
    Refusal("sweep-span-overflow", "sweep --preset fig3 --out {out} "
            "--axis eta[0]=1.7e308:-1.7e308:4", 2,
            "config error: axis span is wider than the float range in "
            "'eta[0]=1.7e308:-1.7e308:4'"),
    Refusal("sweep-occupations-not-finite", SWEEP, 1,
            "error: FloatingPointError: steady-state occupations not finite: n_f, n_cav",
            patches=("nan-occupations",)),
    Refusal("cool-occupations-not-finite", "cool --preset fig2", 1,
            "error: FloatingPointError: steady-state occupations not finite: n_f, n_cav",
            patches=("nan-occupations",)),
    # the Schur fallback's V is finite, but A V overflows: a stable point's residual
    Refusal("cool-residual-not-finite", "cool --config {cfg}", 1,
            "error: FloatingPointError: steady-state residual not finite: residual",
            dict(gamma="1e300, 1e-300", omega="1.7e308, 1.0")),
    Refusal("sweep-numerical-failure", "sweep --preset fig2 --axis kappa=0.1:0.3:4 --out {out}", 1,
            "error: NoConvergence: eigenvalue iteration failed", out="file",
            patches=("cool_many-fails",)),
    # spectrum
    Refusal("spectrum-unstable-keeps-file", "spectrum --config {cfg} --points 5 --out {out}", 3,
            "unstable: spectral abscissa 4.164e-02 >= -1e-10", UNSTABLE, out="file"),
    # refused by the cooperativities, before any eigensolve
    Refusal("spectrum-chain", "spectrum --preset figS10 --out {out}", 2,
            "config error: cooperativities are defined for two mechanical modes",
            patches=("eig-fails",)),
    Refusal("spectrum-zero-coupling", "spectrum --config {cfg} --points 5 --out {out}", 2,
            "config error: pi_ratio undefined when C1*C2 = 0", CONFIGS["ZERO_COUPLING"]),
    # C1 C2 = 2.5e-309 is subnormal, so Pi = C3/(C1 C2) overflows
    Refusal("spectrum-pi-ratio-overflow", "spectrum --config {cfg} --points 5 --out {out}", 1,
            "error: FloatingPointError: cooperativities not finite: pi_ratio", dict(drive_lines=(
                "type = linearized", "delta = 1.0", "g_lin = 1e-80, 1e-80"))),
    # C1 = C2 = 5e-315: no coupling is zero, but C1 C2 underflows to 0
    Refusal("spectrum-pi-ratio-underflow", "spectrum --config {cfg} --points 5 --out {out}", 1,
            "error: FloatingPointError: pi_ratio = C3/(C1*C2): C1*C2 underflows to 0",
            dict(drive_lines=("type = linearized", "delta = 1.0", "g_lin = 1e-160, 1e-160"))),
    # C3 = (eta/gamma_1)(eta/gamma_2) = 2.5e597 overflows; the drift itself is stable
    Refusal("spectrum-cooperativity-overflow", "spectrum --config {cfg} --points 5 --out {out}", 1,
            "error: FloatingPointError: cooperativities not finite: C3", dict(gamma="1e-300")),
    # the cooperativities come before the verdict: C3 overflows at an unstable point too
    Refusal("spectrum-unstable-cooperativity-overflow",
            "spectrum --config {cfg} --points 5 --out {out}", 1,
            "error: FloatingPointError: cooperativities not finite: C3",
            dict(UNSTABLE, gamma="1e-300")),
    Refusal("spectrum-span-overflow", "spectrum --preset fig3 --out {out} "
            "--omega-min -1.7e308 --omega-max 1.7e308", 2,
            "config error: frequency span is wider than the float range"),
    Refusal("spectrum-omega-min-nan", SPECTRUM + " --omega-min nan", 2,
            "config error: frequency bounds must be finite"),
    Refusal("spectrum-omega-max-inf", SPECTRUM + " --omega-max inf", 2,
            "config error: frequency bounds must be finite"),
    # --out, checked before any point runs
    *[row for command, argv in (("sweep", SWEEP), ("spectrum", SPECTRUM)) for row in [
        Refusal(command + "-out-missing-directory", argv, 2,
                "config error: output directory '{dir}' does not exist", out="nodir"),
        Refusal(command + "-out-directory", argv, 2,
                "config error: output path '{out}' is a directory", out="dir"),
        Refusal(command + "-out-not-writable", argv, 2,
                "config error: output directory '{dir}' is not writable",
                patches=("no-write-access",)),
        Refusal(command + "-out-empty", argv.replace("{out}", '""'), 2,
                "config error: output path '' names no file"),
        Refusal(command + "-out-open-refused", argv, 1,
                "error: PermissionError: [Errno 13] Permission denied: '{out}'",
                patches=("open-refused",)),
    ]],
    # modes, limits and lambda
    Refusal("modes-no-coupling", "modes --config {cfg}", 2,
            "config error: needs at least one nonzero optomechanical coupling",
            dict(eta="0.0", theta="0.0", drive_lines=(
                "type = linearized", "delta = 1.0", "g_lin = 0.0, 0.0"))),
    Refusal("limits-chain", "limits --preset figS10", 2,
            "config error: adiabatic elimination is defined for n_mech = 2"),
    Refusal("limits-zero-xi", "limits --config {cfg}", 2,
            "config error: full cooling limit undefined when xi1 or xi2 = 0",
            CONFIGS["ZERO_COUPLING"]),
    Refusal("limits-opposite-detuning", "limits --config {cfg}", 2,
            "config error: n_opt undefined when omega_1 + omega_2 + 2 delta = 0",
            OPPOSITE_DETUNING),
    # omega_1 + omega_2 + 2 delta = -1e-200 is not 0, but its square underflows: n_opt is inf
    Refusal("limits-n-opt-underflow", "limits --config {cfg}", 1,
            "error: FloatingPointError: cooling-limit quantities not finite: n_opt, simplified",
            dict(omega="1e-200", drive_lines=(
                "type = linearized", "delta = -1.5e-200", "g_lin = 0.1, 0.1"))),
    # no exchange and gamma ~ 1e-300: the dark mode's decay cancels to 0, a transfer-rate pole
    # of the simplified form, and the margin refuses it first
    Refusal("limits-transfer-rate-pole", "limits --config {cfg}", 2,
            "config error: cooling limits undefined for an unstable effective model: "
            "min Re lambda = 0", dict(eta="0.0", theta="0.0", gamma="1e-300, 5e-324")),
    # |xi|^2 ~ (g^2/kappa)^2 overflows: chi is inf, and so is Re lambda
    Refusal("limits-transfer-rate-overflow", "limits --config {cfg}", 1,
            "error: FloatingPointError: cooling-limit quantities not finite: "
            "chi1, chi2, chi_plus, chi_minus, simplified, full, lambda",
            dict(kappa="1e-200")),
    # both limit formulas would report negative occupations
    Refusal("limits-unstable-effective-model", "limits --config {cfg}", 2,
            "config error: " + UNSTABLE_LIMITS, dict(edits=[("delta = 1.0", "delta = -0.5")])),
    # the effective model is stable, but the engine calls the drift unstable, as cool does
    Refusal("limits-engine-unstable", "limits --config {cfg}", 3,
            "unstable: spectral abscissa 4.460e-01 >= -1e-10", dict(
                kappa="0.95", eta="0.65", theta="2.7", drive_lines=(
                    "type = linearized", "delta = 1.04", "g_lin = 0.57, 0.6"))),
    Refusal("limits-unstable-physical", "limits --config {cfg}", 2,
            "config error: cooling limits undefined for an unstable effective model: "
            "min Re lambda = -3.03", CONFIGS["P600"]),
    *[Refusal("limits-overflow-" + edit[1].replace(" ", ""), "limits --config {cfg}", 1,
              "error: FloatingPointError: " + message, dict(edits=[edit]))
      for edit, message in LIMITS_OVERFLOW],
    *[Refusal("lambda-%s-%s" % (eta, theta), "lambda --eta %s --theta %s" % (eta, theta), 2,
              "config error: --eta and --theta must be finite")
      for eta, theta in (("nan", "0"), ("1.0", "inf"), ("-inf", "0"))],
]


def snapshot(root):
    """Every path under root, with a file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def check_refusal(runner, tmp_path, monkeypatch, row):
    """One line, no traceback, no stdout, --out as it was, and no point run for a config error."""
    cfg = tmp_path / "c.ini"
    if isinstance(row.config, str):
        cfg.write_text(row.config)
    elif row.config is not None:
        write_config(cfg, **row.config)
    out = tmp_path / {None: "out.csv", "file": "out.csv", "nodir": "nodir/out.csv",
                      "dir": "adir"}[row.out]
    if row.out == "file":
        out.write_text("precious\n")
    elif row.out == "dir":
        out.mkdir()
    before = snapshot(tmp_path)
    if row.code == cli.EXIT_CONFIG:
        for owner, name in ((steadystate, "cool_many"), (spectra, "scan_point")):
            monkeypatch.setattr(owner, name, raising(AssertionError(name + " ran")))
    for patch in row.patches:
        monkeypatch.setattr(*PATCHES[patch], raising=False)
    monkeypatch.chdir(tmp_path)  # where --out "" would write
    res = runner.invoke(main, [arg.format(cfg=cfg, out=out) for arg in shlex.split(row.argv)])
    assert_one_line(res, row.code, row.message.format(cfg=cfg, out=out, dir=out.parent))
    assert res.stdout == ""
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_refused_command_is_one_line(runner, tmp_path, monkeypatch, row):
    check_refusal(runner, tmp_path, monkeypatch, row)


@pytest.mark.parametrize("row", NON_FINITE_KAPPA, ids=lambda row: row.id)
def test_non_finite_config_is_config_error(runner, tmp_path, monkeypatch, row):
    check_refusal(runner, tmp_path, monkeypatch, row)


@pytest.mark.parametrize("row", NOISE_OVERFLOWS, ids=lambda row: row.id)
def test_overflowing_noise_matrix_is_numerical_error(runner, tmp_path, monkeypatch, row):
    check_refusal(runner, tmp_path, monkeypatch, row)


@pytest.mark.parametrize("row", NON_FINITE_AXES, ids=lambda row: row.id)
def test_sweep_non_finite_axis_is_config_error(runner, tmp_path, monkeypatch, row):
    check_refusal(runner, tmp_path, monkeypatch, row)


# --- a seeded contract fuzz: every command on range ends and bad values -----

#: the fuzz's values: the float range's ends, a signed zero, non-finite values, no number
FUZZ_POOL = ("0", "-0.0", "5e-324", "1e-300", "1e300", "1.7e308", "nan", "inf", "-inf", "two")
#: the [system] fields of a config file, in file order
SYSTEM_FIELDS = ("omega_m", "kappa", "gamma", "nbar", "eta", "theta")


def fuzz_fields(n_mech=2, physical=False):
    """fig2's config fields as text, in file order, for a uniform chain of n_mech
    resonators whose first hop carries fig2's phase, with fig2's linearized drive
    or a physical one (three classical fixed points at N = 2); a fuzz config edits
    one or two of them."""
    def each(value, k=0):
        return ", ".join([value] * (n_mech - k))

    drive = (dict(delta_c="1.0", omega_amp="200.0", g_single=each("1e-3")) if physical
             else dict(delta="1.0", g_lin=each("0.1")))
    return dict(omega_m=each("1.0"), kappa="0.2", gamma=each("1e-5"), nbar=each("1e3"),
                eta=each("0.05", 1),
                theta=", ".join((["1.5707963267948966"] + ["0"] * n_mech)[:n_mech - 1]), **drive)


FUZZ_FIELDS = fuzz_fields()
#: the spec shapes that fig2's fuzz does not reach: one resonator, a chain, physical drives
FUZZ_SHAPES = {"n1": fuzz_fields(1), "n3": fuzz_fields(3), "physical": fuzz_fields(2, True),
               "n3-physical": fuzz_fields(3, True)}
FUZZ_COMMANDS = ("cool", "stability", "modes", "limits", "spectrum", "sweep", "lambda")
FUZZ_RUNS = 40  # per command
FUZZ_SHAPE_RUNS = 5  # per command and shape of FUZZ_SHAPES
#: each command's arguments after its spec source
FUZZ_TAIL = {"spectrum": " --points 5 --out {out}", "sweep": " --axis {axis} --out {out}"}
FUZZ_APPROX = ("", " --om-rwa", " --mech-full")
FUZZ_SPECTRUM = "spectrum --config {cfg} --points 5 --out {out}"
#: the inputs the fuzz was built to reach, then what it found: (argv, config edits),
#: and the fuzz_fields that the edits apply to where they are not fig2's
FUZZ_FIXED = [
    ("modes --config {cfg}", dict(eta="1e308")),  # 2 eta overflowed in the hybrid transform
    (FUZZ_SPECTRUM, dict(gamma="1e-300, 1e-300")),  # gamma_1 gamma_2 underflowed in C3
    (FUZZ_SPECTRUM + " --om-rwa", dict(gamma="1e300, 1.57", eta="1000")),  # a ** in Lambda
    ("limits --config {cfg}", dict(kappa="5e-324")),  # kappa^2 underflowed in a Lorentzian
    ("cool --config {cfg}", dict(kappa="5e-324")),
    ("lambda --eta 1e100 --theta 0", None),  # (2 + eta^2)^3 overflowed in Cardano's roots
    ("modes --config {cfg}", dict(eta="5e-324")),  # eta/2 underflowed in the hybrid direction
    (FUZZ_SPECTRUM, dict(kappa="1e-300")),  # (C1 + C2 + 1)/(C1 C2) was 0 in Lambda
    (FUZZ_SPECTRUM + " --om-rwa", dict(gamma="1e-5, 5e-324")),  # gamma_2 kappa underflowed
    (FUZZ_SPECTRUM + " --om-rwa", dict(gamma="1e-300, 1e-5")),  # a ** in T_max
    (FUZZ_SPECTRUM + " --om-rwa", dict(gamma="1e-300, 1e300")),  # T_max underflowed to 0
    (FUZZ_SPECTRUM + " --om-rwa", dict(gamma="1e-5, 1e300")),  # Lambda overflowed
    ("cool --config {cfg}", dict(gamma="1e300, 1e-300", omega_m="1.7e308, 1.0")),  # AV overflowed
    ("sweep --config {cfg} --mech-full --axis 'drive.delta=0.9:1.7e308:3' --out {out}",
     dict(kappa="1e300", g_lin="1e300, 5e-324")),  # NaN occupations at a stable point
    ("limits --config {cfg}", dict(eta="0", gamma="3e-3, 3e-3",
                                   delta="-0.33115287381420005")),  # Gamma_1 + Gamma_2 = 0
    # 2 gamma nbar = inf * 0 = NaN in the noise matrix: one line, with no RuntimeWarning
    ("cool --config {cfg}", dict(gamma="1e308, 1e-5", nbar="0, 1e3")),
    ("sweep --config {cfg} --workers 2 --axis kappa=0.1:0.3:3 --out {out}",
     dict(gamma="1e308, 1e-5", nbar="0, 1e3")),
    ("modes --config {cfg}", dict(eta="0", g_lin="1e200, 1e200")),  # g^2 overflowed: null g_plus
    ("modes --config {cfg}", dict(g_lin="1e155, 1e155")),  # g^2 overflowed: darkness read 0
    ("modes --config {cfg}", dict(g_lin="0.1, 1.7e308, 1.7e308", eta="0.1, 0.1"),
     FUZZ_SHAPES["n3"]),  # a normal-mode coupling overflowed in a matmul
]


def fuzz_value(rng, nominal):
    return rng.choice(FUZZ_POOL) if rng.random() < 0.7 else nominal


def fuzz_config_text(edits, base=FUZZ_FIELDS):
    """The config text of base, fuzz_fields' fields, with the given entries replaced."""
    fields = {**base, **edits}
    return ("[system]\nn_mech = %d\n" % len(base["omega_m"].split(", "))
            + "".join("%s = %s\n" % (name, fields[name]) for name in SYSTEM_FIELDS)
            + "\n[drive]\ntype = %s\n" % ("physical" if "delta_c" in base else "linearized")
            + "".join("%s = %s\n" % (name, fields[name]) for name in base
                      if name not in SYSTEM_FIELDS))


def fuzz_case(rng, command, base=FUZZ_FIELDS):
    """(argv, config edits or None) of one fuzz run: for a spec command, one or two
    of base's fields drawn entry by entry from FUZZ_POOL, one time in five at a
    wrong list length; for lambda, --eta and --theta from the pool."""
    if command == "lambda":
        return "lambda --eta %s --theta %s" % (fuzz_value(rng, "0.5"), fuzz_value(rng, "0.3")), None
    edits = {}
    for name in rng.sample(sorted(base), rng.randint(1, 2)):
        entries = base[name].split(", ")
        length = len(entries) + rng.choice((0, 0, 0, 0, 1, -1))
        edits[name] = ", ".join(fuzz_value(rng, entries[0]) for _ in range(length))
    detuning = "delta_c" if "delta_c" in base else "delta"
    axis = rng.choice(("kappa=%s:0.3:3", "drive.%s=0.9:%%s:3" % detuning, "eta[0]=%s:0.1:3",
                       "theta[0]=0:%s:3")) % fuzz_value(rng, "0.2")
    approx = rng.choice(FUZZ_APPROX) if command in ("cool", "stability", "spectrum", "sweep") else ""
    return (command + " --config {cfg}" + approx + FUZZ_TAIL.get(command, "")).replace(
        "{axis}", shlex.quote(axis)), edits


def check_contract(runner, tmp_path, argv, edits, base=FUZZ_FIELDS):
    """The CLI contract, whatever the input: a known exit code and no escaped exception;
    a refusal is one stderr line (or click's usage error) and no stdout, and no
    numerical failure is a bare ZeroDivisionError or OverflowError; a report is
    strict JSON, and a CSV holds no NaN or inf."""
    cfg, out = tmp_path / "c.ini", tmp_path / "out.csv"
    if edits is not None:
        cfg.write_text(fuzz_config_text(edits, base))
    if out.exists():
        out.unlink()
    res = runner.invoke(main, [a.format(cfg=cfg, out=out) for a in shlex.split(argv)])
    case = (argv, edits, res.stdout, res.stderr, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), case
    assert res.exit_code in (0, cli.EXIT_ERROR, cli.EXIT_CONFIG, cli.EXIT_UNSTABLE), case
    if res.exit_code == 0 and argv.split()[0] in ("spectrum", "sweep"):
        text = out.read_text().splitlines()
        strict_json("\n".join(ln[2:] for ln in text if ln.startswith("# ")))
        rows = [ln for ln in text if not ln.startswith("#")][1:]  # below the header
        for cell in ",".join(rows).split(","):
            assert cell in ("", "true", "false") or math.isfinite(float(cell)), case
    elif res.exit_code == 0 or res.stdout:  # cool reports an unstable point and exits 3
        strict_json(res.stdout)
    else:
        assert res.stdout == "", case
        lines = res.stderr.splitlines()
        if lines[0].startswith("Usage:"):  # click refused an option value: text that is no number
            assert res.exit_code == cli.EXIT_CONFIG and lines[-1].startswith("Error: "), case
        else:
            assert len(lines) == 1, case
            assert lines[0].startswith(("config error: ", "error: ", "unstable: ")), case
        assert not lines[0].startswith(("error: ZeroDivisionError", "error: OverflowError")), case


def fuzz_runs(runner, tmp_path, command, seed, runs, base=FUZZ_FIELDS):
    rng = random.Random(seed)
    for run in range(runs):
        argv, edits = fuzz_case(rng, command, base)
        if command == "sweep" and run % 2:  # 3-point axes in chunks of 2 and 1 on two threads
            argv += " --workers 2"
        check_contract(runner, tmp_path, argv, edits, base)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_contract_fuzz(runner, tmp_path, command):
    fuzz_runs(runner, tmp_path, command, "loopcool-fuzz-" + command, FUZZ_RUNS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", sorted(FUZZ_SHAPES))
@pytest.mark.parametrize("command", [c for c in FUZZ_COMMANDS if c != "lambda"])
def test_contract_fuzz_beyond_fig2(runner, tmp_path, command, shape):
    fuzz_runs(runner, tmp_path, command, "loopcool-fuzz-%s-%s" % (shape, command),
              FUZZ_SHAPE_RUNS, FUZZ_SHAPES[shape])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", FUZZ_FIXED, ids=[
    row[0].split()[0] + ("-workers2" if "--workers 2" in row[0] else "") for row in FUZZ_FIXED])
def test_contract_fixed_rows(runner, tmp_path, row):
    check_contract(runner, tmp_path, *row)


def test_no_module_renames_a_python_float_error():
    # _reports_errors is the one place where an exception becomes a message: a float
    # quotient that may meet 0 divides as numpy's, and an overflow is named by its value
    caught = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught += ["%s:%d %s" % (path.name, node.lineno, name) for name in
                           sorted(names & {"ZeroDivisionError", "OverflowError"})]
    assert caught == []


def test_every_float_mode_is_all_ignore():
    # one floating-point mode: every np.errstate under src silences all four classes,
    # and require_finite (or a spec rule) names what comes out; no code sets a global mode
    modes = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and re.search(r"(^|\.)(errstate|seterr)$",
                                                         ast.unparse(node.func)):
                modes.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
    assert modes
    assert [m for m in modes if not m.endswith(" np.errstate(all='ignore')")] == []


def test_only_steadystate_refuses_an_unstable_drift():
    # steadystate turns a verdict into an Unstable refusal (require_stable, or a solve
    # that needs a steady state): no other module calls unstable(...) or Unstable(...)
    calls = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and re.search(r"(^|\.)(unstable|Unstable)$",
                                                         ast.unparse(node.func)):
                calls.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node.func)))
    assert calls and all(call.startswith("steadystate.py:") for call in calls), calls


def test_only_model_names_the_complex_field():
    # model.COMPLEX_FIELD declares the one complex drive number: no other module
    # compares a name with "omega_amp" to pick a number's type
    compares = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if path.name != "model.py" and isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant) and side.value == "omega_amp"
                    for side in (node.left, *node.comparators)):
                compares.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
    assert compares == []


def test_only_errors_scales_by_a_power_of_two():
    # errors.scaled and errors.unscaled own the closed forms' exact power-of-two
    # scaling: no other module calls frexp or ldexp, math's or numpy's
    calls = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and re.search(r"(^|\.)(frexp|ldexp)$",
                                                         ast.unparse(node.func)):
                calls.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node.func)))
    assert calls and all(call.startswith("errors.py:") for call in calls), calls


def _is_to_linearized(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "to_linearized")


def test_only_model_reads_a_drives_delta_or_couplings():
    # model.to_linearized is the one owner of (delta, G_j): every other module reads a
    # drive's delta or g_lin off to_linearized(...), or off a name that the enclosing
    # function bound to it on an earlier line, so each analysis takes a Physical drive too
    unowned = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in ("delta", "g_lin")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "drive"):
                continue
            base = node.value.value
            bound = {target.id for f in functions if f.lineno <= node.lineno <= f.end_lineno
                     for assign in ast.walk(f) if isinstance(assign, ast.Assign)
                     and _is_to_linearized(assign.value) and assign.lineno < node.lineno
                     for target in assign.targets if isinstance(target, ast.Name)}
            if not (_is_to_linearized(base) or isinstance(base, ast.Name) and base.id in bound):
                unowned.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
    assert unowned == []
