import dataclasses
import itertools
import json
import math
import os
import pathlib
import re
import types

import numpy as np
import pytest
from click.testing import CliRunner

from loopcool import cli, model, spectra, steadystate
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
                 drive_lines=("type = linearized", "delta = 1.0", "g_lin = 0.1, 0.1")):
    lines = ["[system]",
             "n_mech = %d" % n_mech,
             "omega_m = " + ", ".join(["1.0"] * n_mech),
             "kappa = 0.2",
             "gamma = " + ", ".join(["1e-5"] * n_mech),
             "nbar = " + ", ".join(["1e3"] * n_mech),
             "eta = " + eta,
             "theta = " + theta,
             "", "[drive]"] + list(drive_lines)
    path.write_text("\n".join(lines) + "\n")
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


def test_cool_malformed_config(runner, tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[system]\nn_mech = two\n")
    res = runner.invoke(main, ["cool", "--config", str(p)])
    assert res.exit_code == 2


def test_percent_in_config_value_is_config_error(runner, tmp_path):
    # the grammar has no interpolation, so a '%' is part of the value it is in
    cfg = tmp_path / "pct.ini"
    write_config(cfg)
    cfg.write_text(cfg.read_text().replace("kappa = 0.2", "kappa = 20%"))
    res = runner.invoke(main, ["cool", "--config", str(cfg)])
    assert_one_line(res, 2, "config error: %s [system] kappa: expected a number, got '20%%'"
                    % cfg)


def test_config_that_is_not_utf8_is_config_error(runner, tmp_path):
    cfg = tmp_path / "latin1.ini"
    write_config(cfg)
    cfg.write_bytes(cfg.read_bytes() + "# r\u00e9sum\u00e9\n".encode("latin-1"))
    res = runner.invoke(main, ["cool", "--config", str(cfg)])
    assert_one_line(res, 2, "config error: cannot parse %s: 'utf-8' codec can't decode" % cfg)


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


def test_cool_missing_section(runner, tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[system]\nn_mech = 2\nomega_m = 1,1\nkappa = 0.2\n"
                 "gamma = 1e-5,1e-5\nnbar = 1e3,1e3\neta = 0.05\ntheta = 0\n")
    res = runner.invoke(main, ["cool", "--config", str(p)])
    assert res.exit_code == 2


def test_cool_needs_exactly_one_source(runner, tmp_path):
    assert runner.invoke(main, ["cool"]).exit_code == 2
    cfg = write_config(tmp_path / "sys.ini")
    res = runner.invoke(main, ["cool", "--config", cfg, "--preset", "fig2"])
    assert res.exit_code == 2


def test_cool_unknown_preset(runner):
    res = runner.invoke(main, ["cool", "--preset", "nope"])
    assert res.exit_code == 2


def test_cool_unstable_exit(runner, tmp_path):
    cfg = write_config(tmp_path / "hot.ini", eta="0.5")
    res = runner.invoke(main, ["cool", "--config", cfg, "--mech-full"])
    assert res.exit_code == 3
    payload = strict_json(res.output)
    assert not payload["stable"]
    assert payload["n_f"] == [None, None]
    assert payload["n_cav"] is None and payload["residual"] is None


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


def test_parse_axis():
    path, grid = parse_axis("theta[0]=0:6.28:5")
    assert path == "theta[0]" and len(grid) == 5 and grid[0] == 0.0
    for bad in ("theta[0]=0:6.28", "x=0:1:1", "x=a:b:4"):
        with pytest.raises(ConfigError):
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


def test_sweep_parallel_matches_serial(runner, tmp_path):
    out_s, out_p = tmp_path / "s.csv", tmp_path / "p.csv"
    axis = "drive.delta=0.8:1.2:6"
    r1 = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", axis,
                              "--out", str(out_s)])
    r2 = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", axis,
                              "--out", str(out_p), "--workers", "3"])
    assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
    assert body_lines(out_s) == body_lines(out_p)


def test_sweep_deterministic(runner, tmp_path):
    axis = "kappa=0.1:0.3:4"
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = runner.invoke(main, ["sweep", "--preset", "fig2",
                                   "--axis", axis, "--out", str(out)])
        assert res.exit_code == 0
        outs.append(body_lines(out))
    assert outs[0] == outs[1]


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


def test_sweep_bad_axis_no_partial_file(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2",
                               "--axis", "bogus_param=0:1:4", "--out", str(out)])
    assert res.exit_code == 2
    assert not out.exists()


def test_set_param_invalid_value_is_config_error():
    # the CLI reports InvalidSpec as a config error (test_sweep_invalid_value_is_config_error)
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


@pytest.mark.parametrize("axis, message", [
    ("kappa=-1:1:5", "kappa must be > 0"),
    ("kappa=1:-1:5", "kappa must be > 0"),
    ("eta[0]=-0.1:0.1:3", "phonon-exchange strengths must be >= 0"),
], ids=["kappa-invalid-first", "kappa-invalid-later", "eta-invalid-first"])
def test_sweep_invalid_value_is_config_error(runner, tmp_path, axis, message):
    # an invalid value at the first grid point or further in: same exit
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", axis,
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "config error: %s" % message in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("source, axes, verdicts", [
    # 81 points: more than one BATCH; the delta = 0 row sends points to Schur
    (["--preset", "fig2"], ["drive.delta=-1:1:9", "theta[0]=0:6.2832:9"], {"true", "false"}),
    # a uniform N = 4 chain: 65 points, one full BATCH and one row
    (["--preset", "figS11"], ["theta[0]=0:6.283185307179586:65"], {"true"}),
    # a nonuniform N = 3 chain, 81 points
    ("NONUNIFORM_N3", ["drive.delta=-1:1:9", "theta[1]=-7:7:9"], {"true", "false"}),
    # a physical drive, linearized per row: 81 points
    ("PHYSICAL", ["kappa=0.1:0.5:9", "drive.omega_amp=20:620:9"], {"true", "false"}),
], ids=["fig2", "chain4", "n3", "physical"])
def test_sweep_chunks_and_workers_do_not_change_the_csv(runner, tmp_path, monkeypatch,
                                                        source, axes, verdicts):
    if source == "NONUNIFORM_N3":
        source = ["--config", write_config(tmp_path / "n3.ini", **NONUNIFORM_N3)]
    elif source == "PHYSICAL":
        source = ["--config", physical_config(tmp_path / "p.ini", "20.0")]

    def run(name, *extra):
        out = tmp_path / name
        res = runner.invoke(main, ["sweep", *source, *(a for x in axes for a in ("--axis", x)),
                                   "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        return body_lines(out)

    serial = run("serial.csv")
    assert len(serial) > 1 + cli.BATCH
    assert {row.split(",")[-2] for row in serial[1:]} == verdicts
    for workers in ("2", "3"):
        assert run("w%s.csv" % workers, "--workers", workers) == serial
    monkeypatch.setattr(cli, "BATCH", 1)
    assert run("single.csv") == serial


@pytest.mark.parametrize("axes", [["kappa=0.1:0.2:2", "kappa=0.3:0.4:2"],
                                  ["theta[0]=0:1:2", "theta[00]=0:1:3"]],
                         ids=["kappa", "theta-index-spelling"])
def test_sweep_refuses_a_repeated_axis(runner, tmp_path, monkeypatch, axes):
    # the second axis would overwrite the first one's column: every row mislabelled
    def no_point(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "drift_stack", no_point)
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", axes[0],
                               "--axis", axes[1], "--out", str(out)])
    assert_one_line(res, 2, "config error: axes %r and %r sweep the same parameter" % tuple(axes))
    assert not res.stdout and not out.exists()


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
], ids=["n1", "mech_full"])
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
    [np.linspace(-7.0, 7.0, 2 * cli.BATCH + 3)],
    [EDGE_AXIS, THETA_AXIS],
    [THETA_AXIS, EDGE_AXIS],
    [np.linspace(-1.5, 1.5, 33), EDGE_AXIS],
], ids=["theta_13", "theta_131", "edge_x_theta", "theta_x_edge", "delta_33_x_edge"])
def test_sweep_lines_match_the_per_row_formatting(grids):
    points = np.array(list(itertools.product(*(grid.tolist() for grid in grids))))
    assert len(points) % cli.BATCH != 0
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
    for s in range(0, size, cli.BATCH):
        rows = slice(s, s + cli.BATCH)
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


def test_sweep_rejects_n_mech_axis(runner, tmp_path):
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "n_mech=2:2:2",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: n_mech cannot be swept")
    assert not out.exists()


@pytest.mark.parametrize("axis", ["n_mech=3:4:2", "drive=0:1:2"])
def test_sweep_rejects_a_non_table_path_before_any_value(runner, tmp_path, monkeypatch, axis):
    # the path itself is refused, not a spec rule that one of its values breaks
    path = axis.split("=")[0]
    with pytest.raises(ConfigError, match="%s cannot be swept" % path):
        cli._resolve(get_preset("fig2"), path)

    def fail(table, name, index, values):
        raise AssertionError("a value was checked before every path was resolved")

    monkeypatch.setattr(cli, "set_param", fail)
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3",
                               "--axis", axis, "--out", str(out)])
    assert_one_line(res, 2, "config error: %s cannot be swept" % path)
    assert not out.exists()


def test_sweep_missing_out_directory_is_config_error(runner, tmp_path, monkeypatch):
    def fail(a, q):
        raise AssertionError("a grid point ran before the --out check")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    out = tmp_path / "nodir" / "x.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: output directory %r does not exist" % str(out.parent))
    assert not out.parent.exists()


def test_sweep_out_is_a_directory_is_config_error(runner, tmp_path, monkeypatch):
    def fail(a, q):
        raise AssertionError("a grid point ran before the --out check")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    out = tmp_path / "adir"
    out.mkdir()
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: output path %r is a directory" % str(out))
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_workers_below_one(runner, tmp_path, workers):
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3",
                               "--out", str(out), "--workers", workers])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--workers'" in res.stderr
    assert not out.exists()


FIG3_SPECTRUM = ["spectrum", "--preset", "fig3", "--points", "5"]
FIG2_SWEEP = ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3"]


@pytest.mark.parametrize("command", [FIG2_SWEEP, FIG3_SPECTRUM], ids=["sweep", "spectrum"])
def test_unwritable_out_directory_is_config_error(runner, tmp_path, monkeypatch, command):
    # root ignores permission bits, so the directory's refusal is simulated
    def fail(*args):
        raise AssertionError("a point ran before the --out check")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    monkeypatch.setattr("loopcool.spectra.scan_point", fail)
    monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK)
    out = tmp_path / "s.csv"
    res = runner.invoke(main, command + ["--out", str(out)])
    assert_one_line(res, 2, "config error: output directory %r is not writable" % str(tmp_path))
    assert not out.exists()


@pytest.mark.parametrize("command", [FIG2_SWEEP, FIG3_SPECTRUM], ids=["sweep", "spectrum"])
def test_csv_write_failure_is_one_error_line(runner, tmp_path, monkeypatch, command):
    def refuse(path, mode="r"):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    out = tmp_path / "s.csv"
    res = runner.invoke(main, command + ["--out", str(out)])
    assert_one_line(res, 1, "error: PermissionError: [Errno 13] Permission denied: %r" % str(out))
    assert res.stdout == ""


# --- spectrum -----------------------------------------------------------

UNSTABLE = dict(theta="1.5708", drive_lines=(
    "type = linearized", "delta = -1.0", "g_lin = 0.1, 0.1"))


def test_spectrum_unstable_exits_3_and_keeps_out(runner, tmp_path):
    cfg = write_config(tmp_path / "unstable.ini", **UNSTABLE)
    out = tmp_path / "spec.csv"
    out.write_text("precious\n")
    res = runner.invoke(main, ["spectrum", "--config", cfg, "--points", "5",
                               "--out", str(out)])
    assert_one_line(res, 3, "unstable: spectral abscissa 4.16")
    assert out.read_text() == "precious\n"
    assert runner.invoke(main, ["cool", "--config", cfg]).exit_code == 3


def test_spectrum_missing_out_directory_is_config_error(runner, tmp_path):
    out = tmp_path / "nodir" / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--preset", "fig3", "--points", "5",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: output directory")
    assert not out.parent.exists()


def test_spectrum_out_is_a_directory_is_config_error(runner, tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("the scan ran before the --out check")

    monkeypatch.setattr("loopcool.spectra.scan_point", fail)
    out = tmp_path / "adir"
    out.mkdir()
    res = runner.invoke(main, ["spectrum", "--preset", "fig3", "--points", "5",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: output path %r is a directory" % str(out))
    assert list(out.iterdir()) == []


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


def test_spectrum_rejects_chain(runner, tmp_path):
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--preset", "figS10", "--out", str(out)])
    assert res.exit_code == 2


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


def test_lambda_command(runner):
    res = runner.invoke(main, ["lambda", "--eta", "1.0", "--theta", "0.0"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["dark_index"] is not None
    assert payload["p_e"][payload["dark_index"]] <= 1e-10
    assert sorted(round(x, 6) for x in payload["lambdas"]) == [-1.0, -1.0, 2.0]


@pytest.mark.parametrize("eta, theta, dark", [
    ("1e10", "0.3", [0, 1]), ("1.0", "0", [1]), ("0.5", "0.3", []),
])
def test_lambda_reports_every_dark_state(runner, eta, theta, dark):
    res = runner.invoke(main, ["lambda", "--eta", eta, "--theta", theta])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.output)
    assert payload["dark_indices"] == dark
    assert payload["dark_index"] == (min(dark, key=payload["p_e"].__getitem__) if dark else None)


def test_limits_command(runner):
    res = runner.invoke(main, ["limits", "--preset", "fig4"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    s1, s2 = payload["simplified"]
    f1, f2 = payload["full"]
    assert abs(f1 - s1) / s1 < 0.05 and abs(f2 - s2) / s2 < 0.05


# --- JSON: one strict encoder ---------------------------------------------

NONUNIFORM_N3 = dict(n_mech=3, eta="0.05, 0.08", theta="1.0, 2.0", drive_lines=(
    "type = linearized", "delta = 1.0", "g_lin = 0.1, 0.12, 0.09"))


@pytest.mark.parametrize("args", [
    ["cool", "--preset", "fig2"], ["cool", "--preset", "figS10", "--mech-full"],
    ["cool", "NONUNIFORM_N3"], ["stability", "--preset", "fig4"], ["stability", "NONUNIFORM_N3"],
    ["modes", "--preset", "fig2"], ["modes", "--preset", "fig2_eta0"], ["modes", "NONUNIFORM_N3"],
    ["limits", "--preset", "fig4", "--om-rwa"], ["lambda", "--eta", "1.0", "--theta", "0.0"],
    ["lambda", "--eta", "0.5", "--theta", "1.0"],
], ids=lambda args: "-".join(args).replace("--", ""))
def test_every_json_output_is_strict(runner, tmp_path, args):
    if "NONUNIFORM_N3" in args:
        args = [args[0], "--config", write_config(tmp_path / "n3.ini", **NONUNIFORM_N3)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    if args[0] == "modes" and args[1] == "--config":
        assert payload["normal_modes"]["predicted_uncooled"] is None
        assert payload["normal_modes"]["closed_form"] is False


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

    assert meta("--preset", "fig2")["spec"]["drive"] == {
        "type": "linearized", "delta": 1.0, "g_lin": [0.1, 0.1]}
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


# --- error boundary: one line and one exit code per package error ---------

ZERO_COUPLING = dict(eta="0.0", theta="0.0", drive_lines=(
    "type = linearized", "delta = 1.0", "g_lin = 0.1, 0.0"))


def assert_one_line(res, code, prefix):
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr
    assert "Traceback" not in res.output


def test_sweep_invalid_value_keeps_existing_file(runner, tmp_path):
    out = tmp_path / "keep.csv"
    out.write_text("precious\n")
    res = runner.invoke(main, ["sweep", "--preset", "fig2",
                               "--axis", "kappa=1:-1:5", "--out", str(out)])
    assert_one_line(res, 2, "config error: kappa must be > 0")
    assert out.read_text() == "precious\n"


def test_sweep_validates_every_axis_value_before_running(runner, tmp_path, monkeypatch):
    def fail(a, q):
        raise AssertionError("a grid point ran before the axis check")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "drive.delta=0.9:1.1:3",
                               "--axis", "kappa=1:-1:5", "--out", str(tmp_path / "s.csv")])
    assert_one_line(res, 2, "config error: kappa must be > 0")


def test_sweep_numerical_failure_is_not_config_error(runner, tmp_path, monkeypatch):
    def fail(a, q):
        raise NoConvergence("eigenvalue iteration failed")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    out = tmp_path / "keep.csv"
    out.write_text("precious\n")
    res = runner.invoke(main, ["sweep", "--preset", "fig2",
                               "--axis", "kappa=0.1:0.3:4", "--out", str(out)])
    assert_one_line(res, 1, "error: NoConvergence: eigenvalue iteration failed")
    assert "config error" not in res.output
    assert out.read_text() == "precious\n"


def physical_config(path, omega_amp, g_single="0.001, 0.001"):
    """A fig2-like two-mode config with a physical drive at delta_c = 1."""
    return write_config(path, drive_lines=(
        "type = physical", "delta_c = 1.0", "omega_amp = " + omega_amp,
        "g_single = " + g_single))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cool_overflowing_fixed_point_is_one_line(runner, tmp_path):
    # |Omega|^2 = 1e400, then s = 2 g.Re(c) ~ 1e400: real inputs, no patched model
    for omega_amp, g_single in [("1e200", "0.001, 0.001"), ("1000.0", "1e200, 1e200")]:
        res = runner.invoke(main, ["cool", "--config",
                                   physical_config(tmp_path / "big.ini", omega_amp, g_single)])
        assert_one_line(res, 1, "error: FloatingPointError: classical fixed point not finite")
        assert res.stdout == ""


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


def test_spectrum_zero_coupling_is_domain_error(runner, tmp_path):
    cfg = write_config(tmp_path / "zero.ini", **ZERO_COUPLING)
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--config", cfg, "--points", "5",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: pi_ratio undefined when C1*C2 = 0")
    assert not out.exists()


def test_modes_without_any_coupling_is_domain_error(runner, tmp_path):
    cfg = write_config(tmp_path / "dark.ini", eta="0.0", theta="0.0", drive_lines=(
        "type = linearized", "delta = 1.0", "g_lin = 0.0, 0.0"))
    res = runner.invoke(main, ["modes", "--config", cfg])
    assert_one_line(res, 2, "config error: needs at least one nonzero optomechanical coupling")


def test_limits_zero_xi_is_domain_error(runner, tmp_path):
    cfg = write_config(tmp_path / "zero.ini", **ZERO_COUPLING)
    res = runner.invoke(main, ["limits", "--config", cfg])
    assert_one_line(res, 2, "config error: full cooling limit undefined when xi1 or xi2 = 0")
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["stable"]


def test_cool_embeds_the_limits_report(runner, tmp_path):
    # kappa = 0.05 < G = 0.1 is outside omega >> kappa >> G >> gamma: both commands warn
    cfg = tmp_path / "narrow.ini"
    write_config(cfg)
    cfg.write_text(cfg.read_text().replace("kappa = 0.2", "kappa = 0.05"))
    cooled = json.loads(runner.invoke(main, ["cool", "--config", str(cfg)]).output)
    limited = json.loads(runner.invoke(main, ["limits", "--config", str(cfg)]).output)
    assert cooled["stable"]
    regime = "outside the validity regime omega >> kappa >> G >> gamma"
    assert cooled["limits"] == {"simplified": limited["simplified"], "warnings": [regime]}
    assert regime in limited["warnings"]


# at delta = -(omega_1 + omega_2)/2 the adiabatic n_opt divides by zero
OPPOSITE_DETUNING = dict(drive_lines=(
    "type = linearized", "delta = -1.0", "g_lin = 0.01, 0.01"))


def test_limits_at_opposite_detuning_is_domain_error(runner, tmp_path):
    cfg = write_config(tmp_path / "opp.ini", **OPPOSITE_DETUNING)
    res = runner.invoke(main, ["limits", "--config", cfg])
    assert_one_line(res, 2, "config error: n_opt undefined when omega_1 + omega_2 + 2 delta = 0")


def test_cool_at_opposite_detuning_reports_limit_unavailable(runner, tmp_path):
    cfg = tmp_path / "opp.ini"
    write_config(cfg, **OPPOSITE_DETUNING)
    cfg.write_text(cfg.read_text().replace("gamma = 1e-5, 1e-5", "gamma = 0.01, 0.01"))
    res = runner.invoke(main, ["cool", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["stable"]
    assert payload["limits"] == {
        "unavailable": "n_opt undefined when omega_1 + omega_2 + 2 delta = 0"}


# 4 kappa^2 overflows for kappa above about 7e153: n_opt and the simplified limits are inf
OVERFLOW = "cooling-limit quantities not finite: n_opt, simplified"


def huge_kappa_config(tmp_path):
    cfg = tmp_path / "huge.ini"
    write_config(cfg)
    cfg.write_text(cfg.read_text().replace("kappa = 0.2", "kappa = 1e300"))
    return str(cfg)


def test_limits_overflow_is_a_numerical_failure(runner, tmp_path):
    res = runner.invoke(main, ["limits", "--config", huge_kappa_config(tmp_path)])
    assert_one_line(res, 1, "error: FloatingPointError: " + OVERFLOW)
    assert res.stdout == ""


def patch_in_a_stable_report(monkeypatch):
    report = steadystate.CoolingReport(n_f=np.array([1.0, 2.0]), n_cav=0.0, stable=True,
                                       spectral_abscissa=-1e-5, residual=0.0, solver="eig")
    monkeypatch.setattr(steadystate, "cool_or_flag", lambda drift: report)


def test_cool_reports_overflowing_limits_unavailable(runner, tmp_path, monkeypatch):
    # the eig verdict at kappa = 1e300 depends on the LAPACK build: patch in a stable report
    patch_in_a_stable_report(monkeypatch)
    res = runner.invoke(main, ["cool", "--config", huge_kappa_config(tmp_path)])
    assert res.exit_code == 0, res.output
    payload = strict_json(res.stdout)
    assert payload["n_f"] == [1.0, 2.0] and payload["stable"]
    assert payload["limits"] == {"unavailable": OVERFLOW}


def test_limits_float_power_overflow_names_the_limits(runner, tmp_path, monkeypatch):
    # (delta - omega)^2 raises OverflowError at delta = 1e200 (a Python float **)
    cfg = write_config(tmp_path / "far.ini", drive_lines=(
        "type = linearized", "delta = 1e200", "g_lin = 0.1, 0.1"))
    message = "cooling-limit quantities not finite: a float overflows"
    res = runner.invoke(main, ["limits", "--config", cfg])
    assert_one_line(res, 1, "error: FloatingPointError: " + message)
    assert res.stdout == ""
    # the verdict at |delta| = 1e200 is rounding noise: patch in a stable report
    patch_in_a_stable_report(monkeypatch)
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert res.exit_code == 0, res.output
    assert strict_json(res.stdout)["limits"] == {"unavailable": message}


# --- non-finite input is rejected at the edge ------------------------------

@pytest.mark.parametrize("command", ["cool", "stability", "spectrum", "sweep", "modes",
                                     "limits"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_is_config_error(runner, tmp_path, command, value):
    cfg = tmp_path / "bad.ini"
    write_config(cfg)
    cfg.write_text(cfg.read_text().replace("kappa = 0.2", "kappa = " + value))
    out = tmp_path / "out.csv"
    args = {"spectrum": ["--out", str(out)],
            "sweep": ["--axis", "drive.delta=0.9:1.1:3", "--out", str(out)]}
    res = runner.invoke(main, [command, "--config", str(cfg)] + args.get(command, []))
    assert_one_line(res, 2, "config error: %s: kappa must be finite" % cfg)
    assert not out.exists()


@pytest.mark.parametrize("line", ["delta = nan", "g_lin = 0.1, inf"])
def test_non_finite_drive_is_config_error(runner, tmp_path, line):
    key = line.split(" =")[0]
    drive = [line if d.startswith(key + " =") else d
             for d in ("type = linearized", "delta = 1.0", "g_lin = 0.1, 0.1")]
    cfg = write_config(tmp_path / "bad.ini", drive_lines=drive)
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert_one_line(res, 2, "config error: %s: %s must be finite" % (cfg, key))


@pytest.mark.parametrize("axis", ["kappa=0.1:inf:3", "kappa=nan:0.3:3",
                                  "drive.delta=-inf:1:3"])
def test_sweep_non_finite_axis_is_config_error(runner, tmp_path, axis):
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", axis,
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: axis bounds must be finite")
    assert not out.exists()
    with pytest.raises(ConfigError, match="must be finite"):
        parse_axis(axis)


@pytest.mark.parametrize("command, args, message", [
    ("sweep", ["--axis", "eta[0]=1.7e308:-1.7e308:4"], "axis span is wider than the float range"),
    ("spectrum", ["--omega-min", "-1.7e308", "--omega-max", "1.7e308"],
     "frequency span is wider than the float range")])
def test_span_beyond_float_range_is_config_error(runner, tmp_path, command, args, message):
    # finite bounds whose stop - start overflows: refused before numpy sees them,
    # so no RuntimeWarning (an error under the test settings) is raised
    out = tmp_path / "o.csv"
    res = runner.invoke(main, [command, "--preset", "fig3", "--out", str(out)] + args)
    assert_one_line(res, 2, "config error: " + message)
    assert not out.exists()


@pytest.mark.parametrize("bound", [["--omega-min", "nan"], ["--omega-max", "inf"]])
def test_spectrum_non_finite_bounds_are_config_error(runner, tmp_path, bound):
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["spectrum", "--preset", "fig3", "--points", "5",
                               "--out", str(out)] + bound)
    assert_one_line(res, 2, "config error: frequency bounds must be finite")
    assert not out.exists()


@pytest.mark.parametrize("args", [["--eta", "nan", "--theta", "0"],
                                  ["--eta", "1.0", "--theta", "inf"],
                                  ["--eta", "-inf", "--theta", "0"]])
def test_lambda_non_finite_is_config_error(runner, args):
    res = runner.invoke(main, ["lambda"] + args)
    assert_one_line(res, 2, "config error: --eta and --theta must be finite")
    assert res.stdout == ""


def test_lambda_float_overflow_is_one_error_line(runner):
    # (2 + eta^2)^3 overflows a float in the Cardano roots
    res = runner.invoke(main, ["lambda", "--eta", "1e100", "--theta", "0"])
    assert_one_line(res, 1, "error: OverflowError:")
    assert res.stdout == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, extra", [
    ("cool", []), ("stability", []), ("spectrum", []),
    ("sweep", ["--axis", "drive.delta=0.9:1.1:3"]),
    ("sweep", ["--axis", "drive.delta=0.9:1.1:3", "--workers", "2"]),
], ids=["cool", "stability", "spectrum", "sweep", "sweep-workers2"])
def test_overflowing_noise_matrix_is_numerical_error(runner, tmp_path, command, extra):
    # kappa = 1e308 passes every spec rule, but 2 kappa overflows in the noise
    # matrix: one error line and no report, not an unstable point, for a single
    # point and a sweep alike
    cfg = tmp_path / "huge.ini"
    write_config(cfg)
    cfg.write_text(cfg.read_text().replace("kappa = 0.2", "kappa = 1e308"))
    out = tmp_path / "out.csv"
    extra = extra + (["--out", str(out)] if command in ("spectrum", "sweep") else [])
    res = runner.invoke(main, [command, "--config", str(cfg)] + extra)
    assert_one_line(res, 1, "error: FloatingPointError: overflow")
    assert res.stdout == ""
    assert not out.exists()
