import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from loopcool import cli, model, steadystate
from loopcool.cli import main, parse_axis, set_param
from loopcool.errors import ConfigError, NoConvergence, NoFixedPoint
from loopcool.presets import get_preset


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
    assert payload["spec"]["drive"]["type"] == "linearized"
    assert payload["stable"]


def test_cool_malformed_config(runner, tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[system]\nn_mech = two\n")
    res = runner.invoke(main, ["cool", "--config", str(p)])
    assert res.exit_code == 2


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
    payload = json.loads(res.output)
    assert not payload["stable"]
    assert payload["n_f"] == [None, None]


def test_stability_command(runner):
    res = runner.invoke(main, ["stability", "--preset", "fig2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["stable"] and payload["spectral_abscissa"] < 0


# --- sweeps -------------------------------------------------------------

def test_set_param_paths():
    spec = get_preset("fig2")
    assert set_param(spec, "kappa", 0.5).kappa == 0.5
    assert set_param(spec, "theta[0]", 0.25).theta == (0.25,)
    assert set_param(spec, "drive.delta", 0.9).drive.delta == 0.9
    assert set_param(spec, "drive.g_lin[1]", 0.2).drive.g_lin == (0.1, 0.2)
    for bad in ("nope", "theta", "kappa[0]", "eta[5]", "drive.delta[0]"):
        with pytest.raises(ConfigError):
            set_param(spec, bad, 1.0)


def test_point_values_apply_in_one_copy():
    # several axes on one spec or drive field compose as successive set_param calls
    spec = get_preset("figS11")
    for paths, values in ((["theta[0]", "theta[1]"], [0.25, 0.5]),
                          (["drive.delta", "drive.g_lin[1]"], [0.9, 0.2]),
                          (["kappa", "eta[1]"], [0.3, 0.02])):
        want = spec
        for path, value in zip(paths, values):
            want = set_param(want, path, value)
        params = [cli._resolve(spec, p) for p in paths]
        assert cli._with_values(spec, params, values) == want


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
    with pytest.raises(ConfigError, match="kappa must be > 0"):
        set_param(get_preset("fig2"), "kappa", -1.0)


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


def test_sweep_chunks_and_workers_do_not_change_the_csv(runner, tmp_path, monkeypatch):
    # 81 points: more than one BATCH; the delta = 0 row sends points to Schur
    axes = ["--axis", "drive.delta=-1:1:9", "--axis", "theta[0]=0:6.2832:9"]

    def run(name, *extra):
        out = tmp_path / name
        res = runner.invoke(main, ["sweep", "--preset", "fig2", *axes,
                                   "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        return body_lines(out)

    serial = run("serial.csv")
    assert len(serial) == 1 + 81 > 1 + cli.BATCH
    assert {row.split(",")[-2] for row in serial[1:]} == {"true", "false"}
    assert run("parallel.csv", "--workers", "2") == serial
    monkeypatch.setattr(cli, "BATCH", 1)
    assert run("single.csv") == serial


def test_sweep_missing_out_directory_is_config_error(runner, tmp_path, monkeypatch):
    def fail(drifts):
        raise AssertionError("a grid point ran before the --out check")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    out = tmp_path / "nodir" / "x.csv"
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "kappa=0.1:0.3:3",
                               "--out", str(out)])
    assert_one_line(res, 2, "config error: output directory %r does not exist" % str(out.parent))
    assert not out.parent.exists()


def test_sweep_out_is_a_directory_is_config_error(runner, tmp_path, monkeypatch):
    def fail(drifts):
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

    monkeypatch.setattr(cli, "build_drift", shifted)
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


def test_limits_command(runner):
    res = runner.invoke(main, ["limits", "--preset", "fig4"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    s1, s2 = payload["simplified"]
    f1, f2 = payload["full"]
    assert abs(f1 - s1) / s1 < 0.05 and abs(f2 - s2) / s2 < 0.05


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
    def fail(drifts):
        raise AssertionError("a grid point ran before the axis check")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    res = runner.invoke(main, ["sweep", "--preset", "fig2", "--axis", "drive.delta=0.9:1.1:3",
                               "--axis", "kappa=1:-1:5", "--out", str(tmp_path / "s.csv")])
    assert_one_line(res, 2, "config error: kappa must be > 0")


def test_sweep_numerical_failure_is_not_config_error(runner, tmp_path, monkeypatch):
    def fail(drifts):
        raise NoConvergence("eigenvalue iteration failed")

    monkeypatch.setattr("loopcool.steadystate.cool_many", fail)
    out = tmp_path / "keep.csv"
    out.write_text("precious\n")
    res = runner.invoke(main, ["sweep", "--preset", "fig2",
                               "--axis", "kappa=0.1:0.3:4", "--out", str(out)])
    assert_one_line(res, 1, "error: NoConvergence: eigenvalue iteration failed")
    assert "config error" not in res.output
    assert out.read_text() == "precious\n"


def test_cool_no_fixed_point_is_one_line(runner, tmp_path, monkeypatch):
    def fail(spec):
        raise NoFixedPoint("classical amplitudes diverged")

    monkeypatch.setattr("loopcool.model.linearize", fail)
    cfg = write_config(tmp_path / "phys.ini", drive_lines=(
        "type = physical", "delta_c = 1.0", "omega_amp = 1000.0",
        "g_single = 1e-4, 1e-4"))
    res = runner.invoke(main, ["cool", "--config", cfg])
    assert_one_line(res, 1, "error: NoFixedPoint: classical amplitudes diverged")
    assert res.stdout == ""


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
