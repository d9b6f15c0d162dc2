import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kramerslab
from kramerslab import cli
from kramerslab.cli import (Config, ConfigError, config_from_dict, main,
                            parse_config)
from kramerslab.evolve_kramers import SolverError
from kramerslab.transition import limit_rate

MINI = {
    "ladder": [0.2, 0.1],
    "nx": 17,
    "nxi": 21,
    "dt": 0.01,
    "t_final": 0.1,
    "times": [0.1],
}


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.profile is None
    assert cfg.ladder == (0.2, 0.1, 0.05)
    assert cfg.nx == 129 and cfg.nxi == 161
    assert cfg.scheme == "CN_rannacher"


def test_eps_floor_rejected():
    with pytest.raises(ConfigError, match="floor"):
        config_from_dict({"ladder": [0.2, 0.001]})


@pytest.mark.parametrize("eps, bound", [
    (0.001, "below the floor 0.02"), (2.0, "above the ceiling 1.0")],
    ids=["floor", "ceiling"])
def test_eps_range_names_the_bound_crossed(eps, bound):
    with pytest.raises(ConfigError, match=f"^eps: eps = {eps} {bound}"):
        Config(eps=eps)


def test_config_owns_the_default_sample_times():
    # those of (0.1, 0.5, 1.0) on a step within the horizon, or else the
    # horizon alone, for the library and the front end alike
    assert Config(t_final=0.1) == config_from_dict({"t_final": 0.1})
    assert Config(t_final=0.1).times == (0.1,)
    assert Config(t_final=0.05).times == (0.05,)
    assert Config().times == (0.1, 0.5, 1.0)
    # only an omitted list takes the default
    with pytest.raises(ConfigError, match="^times: 0.5 is not"):
        Config(t_final=0.1, times=(0.1, 0.5, 1.0))
    with pytest.raises(ConfigError, match="^times: expected a list"):
        config_from_dict({"times": None})


def test_unknown_keys_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"laddder": [0.2]})
    with pytest.raises(ConfigError, match="u0.minus"):
        config_from_dict({"u0": {"minus": {"kind": "constant", "vaIue": 1},
                                 "plus": {"kind": "constant", "value": 1}}})
    # the xi grading and the panel order are constants, not inputs
    path = tmp_path / "cfg.json"
    for key, value in (("quad_order", 4), ("grading", "three_zone")):
        path.write_text(json.dumps({key: value}))
        assert main(["rates", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err \
            == f"config error: unknown config keys: ['{key}']\n"


def test_validation_messages_carry_field_paths():
    for data, path in [({"nxi": 20}, "nxi"),
                       ({"scheme": "RK4"}, "scheme"),
                       ({"regime": "other"}, "regime"),
                       ({"ladder": [0.05, 0.1]}, "ladder"),
                       ({"times": [0.3], "dt": 0.2}, "times")]:
        with pytest.raises(ConfigError, match=path):
            config_from_dict(data)


def test_malformed_file_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ladder": [0.2,\n 0.1,]}')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(bad))


def test_config_file_not_utf8_is_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00{}")
    out = tmp_path / "out"
    assert main(["rates", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config {bad}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, study", [
    (["rates", "--ladder", "0.2"], {"ladder": [0.2], "dt": 0.003}),
    (["limit", "--nx", "9", "--dt", "0.01", "--T", "0.1"],
     {"nx": 9, "nxi": 9, "dt": 0.01, "t_final": 0.1}),
], ids=["rates-dt", "limit-nxi"])
def test_a_command_ignores_the_fields_it_does_not_read(argv, study, tmp_path):
    # a shared study file may hold fields that the command never reads
    # (rates: dt off the horizon; limit: too few xi nodes); their defaults
    # stand in, and the run writes what the same run from flags writes
    path = tmp_path / "study.json"
    path.write_text(json.dumps(study))
    assert main([argv[0], "--config", str(path),
                 "--out", str(tmp_path / "file")]) == 0
    assert main([*argv, "--out", str(tmp_path / "flags")]) == 0
    name = f"{argv[0]}.csv"
    assert (tmp_path / "file" / name).read_bytes() \
        == (tmp_path / "flags" / name).read_bytes()
    # without a command every field is checked
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_round_trip_normalization(tmp_path):
    partial = {"ladder": [0.2, 0.1], "nx": 33}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(partial))
    cfg = parse_config(str(path))
    assert cfg == config_from_dict(partial)
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg


@given(st.lists(st.sampled_from([0.3, 0.2, 0.15, 0.1, 0.05]),
                min_size=1, max_size=4, unique=True))
@settings(max_examples=25, deadline=None)
def test_any_decreasing_ladder_accepted(ladder):
    ladder = sorted(ladder, reverse=True)
    cfg = config_from_dict({"ladder": ladder})
    assert cfg.ladder == tuple(ladder)


def test_rates_deterministic(tmp_path):
    out = tmp_path / "rates_run"
    args = ["rates", "--ladder", "0.2,0.1", "--out", str(out)]
    assert main(args) == 0
    first = (out / "rates.csv").read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0].split(",")[:3] == ["eps", "Z_eps", "laplace_Z"]
    assert len(lines) == 4  # header + 2 ladder rows + limit row
    assert lines[-1].startswith("limit")
    assert main(args) == 0
    assert (out / "rates.csv").read_bytes() == first
    payload = json.loads((out / "rates.json").read_text())
    assert payload["half_limit_rate"] == pytest.approx(
        payload["limit_rate"] / 2.0)


def test_simulate_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MINI, "out": str(tmp_path / "sim")}))
    code = main(["simulate", "--config", str(cfg_path), "--eps", "0.1",
                 "--snapshots", "0.1"])
    assert code == 0
    lines = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mass,b_eps,a1_eps,a2_eps"
    assert len(lines) == 12  # header + 11 recorded times
    snap = (tmp_path / "sim" / "field_t0.1.csv").read_text().splitlines()
    assert snap[0] == "x,xi,u"
    assert len(snap) == 1 + 17 * 21


@pytest.mark.parametrize("snapshots", ["-0", "0,-0"])
def test_simulate_minus_zero_snapshot_is_the_initial_state(snapshots,
                                                           tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--eps", "0.1", "--nx", "17", "--nxi", "21",
                 "--dt", "0.01", "--T", "0.02", f"--snapshots={snapshots}",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("field_t*.csv")) \
        == ["field_t0.csv"]


def test_limit_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MINI, "out": str(tmp_path / "lim")}))
    code = main(["limit", "--config", str(cfg_path), "--u0", "0,1",
                 "--dt", "0.001"])
    assert code == 0
    lines = (tmp_path / "lim" / "limit.csv").read_text().splitlines()
    assert lines[0] == "t,x,u_minus,u_plus"
    assert len(lines) == 1 + 2 * 17  # t = 0 and t = 0.1 blocks


def test_converge_mini(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {**MINI, "nx": 33, "nxi": 41, "dt": 0.005, "t_final": 0.5,
         "times": [0.1, 0.5], "out": str(tmp_path / "conv")}))
    code = main(["converge", "--config", str(cfg_path)])
    report = json.loads((tmp_path / "conv" / "report.json").read_text())
    assert set(report) >= {"regime", "ladder", "rows", "checks", "all_ok"}
    assert (code == 0) == report["all_ok"]
    assert (tmp_path / "conv" / "pairings.csv").exists()
    assert (tmp_path / "conv" / "forms.csv").exists()
    # fine-grained certificates present for both theorem families
    assert any(k.startswith("pairing_monotone") for k in report["checks"])
    assert any(k.startswith("b_monotone") for k in report["checks"])


def test_converge_be_certifies_the_energy_identity(tmp_path):
    # every backward-Euler step is damped, with a nonpositive energy
    # residual that the report bounds from above only, as the step guard
    # does; the first-order scheme may still fail a ladder check
    main(["converge", "--scheme", "BE", "--ladder", "0.2,0.1", "--nx", "17",
          "--nxi", "21", "--dt", "0.01", "--T", "0.02", "--times",
          "0.01,0.02", "--out", str(tmp_path / "be")])
    report = json.loads((tmp_path / "be" / "report.json").read_text())
    assert report["checks"]["energy_identity"] is True


def test_report_json_lists_times_by_value(tmp_path):
    # "1e-05" sorts after "0.001" as a string: every time-keyed table of
    # the report must still list its times in ascending order
    out = tmp_path / "conv"
    code = main(["converge", "--ladder", "0.2,0.1", "--nx", "5", "--nxi",
                 "11", "--dt", "0.00001", "--T", "0.001", "--times",
                 "0.00001,0.001", "--out", str(out)])
    assert code in (0, 1)
    report = json.loads((out / "report.json").read_text())
    limit = report["limit_values"]
    tables = [limit["b"], limit["a"], limit["gap"],
              *limit["pairing"].values(), *limit["observables"].values()]
    for row in report["rows"]:
        tables += [row[k] for k in ("trace_err", "b", "a", "a_split",
                                    "gap_norm", "fiber_margin",
                                    "jensen_margin", "flatness")]
        tables += [*row["pairing"].values(), *row["observables"].values()]
    assert len(report["rows"]) == 2
    for table in tables:
        times = [float(t) for t in table]
        assert len(times) >= 2 and times == sorted(times), list(table)


def _old_writer_bytes(path):
    """The bytes the row-by-row writer (csv.writer, every number formatted
    with f"{float(x):.17g}") gives for the rows of the CSV at ``path``;
    %.17g round-trips every double, so the parsed rows are the written
    ones."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else f"{float(c):.17g}"
                         for c in map(cell, row)])
    return buf.getvalue().encode()


def test_csv_artifacts_match_the_row_writer(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {**MINI, "nx": 33, "nxi": 41, "dt": 0.005, "t_final": 0.1,
         "times": [0.05, 0.1]}))
    assert main(["simulate", "--config", str(cfg_path), "--eps", "0.1",
                 "--snapshots", "0.05", "--out", str(tmp_path / "sim")]) == 0
    assert main(["limit", "--config", str(cfg_path), "--skew-gap", "0.5",
                 "--out", str(tmp_path / "lim")]) == 0
    assert main(["converge", "--config", str(cfg_path),
                 "--out", str(tmp_path / "conv")]) == 0
    # five snapshots of 2049 nodes: the table spans three writer chunks
    assert main(["limit", "--config", str(cfg_path), "--nx", "2049",
                 "--times", "0.025,0.05,0.075,0.1",
                 "--out", str(tmp_path / "long")]) == 0
    paths = [tmp_path / "sim" / "trajectory.csv",
             tmp_path / "sim" / "field_t0.05.csv",
             tmp_path / "lim" / "limit.csv",
             tmp_path / "conv" / "pairings.csv",
             tmp_path / "long" / "limit.csv"]
    for path in paths:
        data = path.read_bytes()
        assert data.count(b"\r\n") > 2
        assert data == _old_writer_bytes(path), path.name
    # every row once and in order across the chunk boundaries
    with open(paths[-1], newline="") as fh:
        _, *rows = csv.reader(fh)
    assert len(rows) > 2 * cli._TABLE_CHUNK
    assert [float(r[1]) for r in rows] == list(np.tile(np.linspace(0.0, 1.0,
                                                                   2049), 5))


def test_table_writer_matches_the_row_writer(tmp_path):
    # rows across two chunk ends: a repeated column holding both zeros, a
    # repeated grid column and a column without repeats
    n = 2 * cli._TABLE_CHUNK + 7
    signed = np.tile([0.0, -0.0, 0.1, 1.0 / 3.0, -2.5e-300], n // 5 + 1)[:n]
    grid = np.repeat(np.linspace(0.0, 1.0, 9), n // 9 + 1)[:n]
    noise = np.random.default_rng(5).normal(size=n)
    header = ["signed", "grid", "noise"]
    table = cli._write_table(tmp_path / "table.csv", header,
                             (signed, grid, noise))
    rows = cli._write_csv(tmp_path / "rows.csv", header,
                          zip(signed, grid, noise))
    data = table.read_bytes()
    assert data == rows.read_bytes()
    assert data.count(b"\r\n-0,") == data.count(b"\r\n0,") > 0


def test_config_error_exit_code(tmp_path, capsys):
    code = main(["rates", "--ladder", "0.001"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_certificate_failure_exit_code(tmp_path, capsys,
                                               leaky_eps_forms):
    # forms that leak mass break the mass certificate at the first step
    code = main(["simulate", "--eps", "0.02", "--nx", "33", "--nxi", "257",
                 "--dt", "0.001", "--T", "0.04", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver error: eps = 0.02, step ")
    assert "mass drift" in err and "Traceback" not in err


def test_limit_certificate_failure_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SolverError("limit system, step 3 (t = 0.03): mass drift "
                          "2.000e-10 exceeds 1e-10")
    monkeypatch.setattr(cli, "solve_limit", broken)
    code = main(["limit", "--u0", "0,1", "--nx", "9", "--dt", "0.01",
                 "--T", "0.1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("solver error: limit system, step 3 (t = 0.03): mass "
                   "drift 2.000e-10 exceeds 1e-10\n")


def test_profile_coeffs_roundtrip():
    cfg = config_from_dict({"profile": {"coeffs": [1.0, 0.0, -2.0, 0.0, 1.0]}})
    assert cfg.profile["coeffs"] == [1.0, 0.0, -2.0, 0.0, 1.0]
    # the quartic is the default, null, and has no name to give
    for profile in ({"name": "sextic"}, {"name": "quartic"}, "quartic", {}):
        with pytest.raises(ConfigError, match="^profile: "):
            config_from_dict({"profile": profile})
    with pytest.raises(SystemExit):
        main(["rates", "--profile", "quartic"])
    with pytest.raises(ConfigError, match="double-well"):
        from kramerslab.cli import profile_from_config
        profile_from_config(config_from_dict(
            {"profile": {"coeffs": [1.0, 0.0, -1.0]}}))


def test_short_horizon_adjusts_default_times():
    cfg = config_from_dict({"t_final": 0.2, "dt": 0.01})
    assert cfg.times == (0.1,)
    cfg2 = config_from_dict({"t_final": 0.05, "dt": 0.01})
    assert cfg2.times == (0.05,)
    explicit = config_from_dict({"t_final": 0.2, "dt": 0.01, "times": [0.2]})
    assert explicit.times == (0.2,)


def test_default_times_follow_the_step(tmp_path):
    # a step that none of the default times fall on keeps only the horizon;
    # simulate never reads the times, so such a run must not be refused
    assert config_from_dict({}).times == (0.1, 0.5, 1.0)
    assert config_from_dict({"dt": 0.003, "t_final": 0.9}).times == (0.9,)
    assert config_from_dict({"dt": 0.25}).times == (0.5, 1.0)
    with pytest.raises(ConfigError, match="times"):
        config_from_dict({"dt": 0.003, "t_final": 0.9, "times": [0.1]})
    with pytest.raises(ConfigError, match="dt"):
        config_from_dict({"dt": 0.0})
    assert main(["simulate", "--eps", "0.1", "--nx", "17", "--nxi", "21",
                 "--dt", "0.003", "--T", "0.9", "--out", str(tmp_path)]) == 0


_LIMIT_SMALL = ["--nx", "65", "--dt", "0.001", "--T", "0.02"]


def test_limit_manual_rate_equal_to_the_derived_one(tmp_path, quartic):
    derived, manual = tmp_path / "derived", tmp_path / "manual"
    assert main(["limit", *_LIMIT_SMALL, "--out", str(derived)]) == 0
    assert main(["limit", *_LIMIT_SMALL, "--k", repr(limit_rate(quartic)),
                 "--out", str(manual)]) == 0
    assert (manual / "limit.csv").read_bytes() \
        == (derived / "limit.csv").read_bytes()


def test_limit_tabulated_density_equal_to_its_constant(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"u0": {
        "minus": {"kind": "tabulated", "x": [0, 1], "values": [0.25, 0.25]},
        "plus": {"kind": "constant", "value": 1.5}}}))
    table, pair = tmp_path / "table", tmp_path / "pair"
    assert main(["limit", *_LIMIT_SMALL, "--config", str(path),
                 "--out", str(table)]) == 0
    assert main(["limit", *_LIMIT_SMALL, "--u0", "0.25,1.5",
                 "--out", str(pair)]) == 0
    assert (table / "limit.csv").read_bytes() \
        == (pair / "limit.csv").read_bytes()


def test_skew_gap_limit_run(tmp_path):
    out = tmp_path / "skew"
    code = main(["limit", "--u0", "0,1", "--nx", "9", "--dt", "0.01",
                 "--T", "2.0", "--times", "2.0",
                 "--skew-gap", "0.6931471805599453", "--out", str(out)])
    assert code == 0
    lines = (out / "limit.csv").read_text().splitlines()[1:]
    final = [l.split(",") for l in lines if l.startswith("2")]
    um, up = float(final[0][2]), float(final[0][3])
    # relaxed close to the detailed-balance split u_minus/u_plus = exp(-gap)
    assert um < up
    assert abs((um / up) / 0.5 - 1.0) < 0.05


def test_converge_rejects_single_rung_ladder(tmp_path, capsys):
    # one rung is a valid `rates` ladder but not a convergence study
    code = main(["converge", "--ladder", "0.1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ladder: ")
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()
    assert main(["rates", "--ladder", "0.1", "--out", str(tmp_path)]) == 0


# malformed or out-of-range input: rejected before any work, with exit 2
_TAB = {"kind": "tabulated", "x": [1.0, 0.0], "values": [0.0, 1.0]}
_COS = {"kind": "cosine", "offset": 0.0, "amplitude": 1.0, "mode": "a"}
_CONST = {"kind": "constant", "value": 1.0}
_SMALL = ["--nx", "9", "--dt", "0.01", "--T", "0.1"]


@pytest.mark.parametrize("argv, config", [
    (["limit", "--k", "inf", *_SMALL], None),
    (["limit", "--skew-gap", "nan", *_SMALL], None),
    (["limit", "--skew-gap", "2000", *_SMALL], None),
    (["simulate", "--T", "inf", "--nx", "9", "--nxi", "11"], None),
    (["converge"], {"ladder": 0.2}),
    (["converge"], {"dt": "abc"}),
    (["limit", *_SMALL], {"u0": {"minus": _COS, "plus": _CONST}}),
    (["limit", "--u0", "1", *_SMALL], None),
    (["limit", *_SMALL], {"u0": {"minus": _CONST, "plus": _TAB}}),
    (["simulate", "--snapshots", "0.005", "--nxi", "11", *_SMALL], None),
    (["converge", "--T", "0.0105", "--times", "0.01"], None),
    (["converge", "--ladder", "0.2,abc"], None),
    (["converge", "--times", "0.1,0.1"], None),
    (["limit", *_SMALL], {"u0": {"minus": {"kind": ["x"]}, "plus": _CONST}}),
    (["rates"], {"profile": {"coeffs": [1.0, "a"]}}),
    (["rates"], {"profile": {"name": "quartic"}}),
    (["rates", "--ladder", "0.2"], [1]),
    (["simulate", *_SMALL], {"quad_order": True}),
    (["rates"], {"ladder": [True, 0.5]}),
    (["simulate", "--nxi", "9", *_SMALL], None),
    (["converge", "--times", ","], None),
    (["converge"], {"times": []}),
    (["simulate", "--eps", "0.5", "--nx", "5", "--nxi", "11", "--dt", "0.5",
      "--T", "100000.5", "--snapshots", "100000,100000.5"], None),
    (["converge", "--T", "1", "--dt", "1e-300", "--times", "1", "--nx", "5",
      "--nxi", "11"], None),
], ids=["k-inf", "skew-nan", "skew-overflow", "T-inf", "ladder-scalar",
        "dt-string", "cosine-mode", "u0-one-value", "tabulated-x-decreasing",
        "snapshot-off-step", "T-off-step", "ladder-text", "times-repeated",
        "u0-kind-list", "profile-coeffs", "profile-name", "config-root-list",
        "quad-order-bool", "ladder-bool",
        "nxi-three-zone-too-few", "times-empty", "times-empty-config",
        "snapshot-label-repeated", "steps-beyond-cap"])
def test_malformed_input_is_a_config_error(argv, config, tmp_path, capsys):
    out = tmp_path / "out"
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rates", "--nx", "65", "--ladder", "0.2"],
    ["limit", "--nxi", "9", *_SMALL],
    ["simulate", "--quad-order", "4", *_SMALL],
], ids=["rates-nx", "limit-nxi", "quad-order"])
def test_a_flag_the_command_does_not_read_is_unknown(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["converge", "--ladder", ""], "ladder: must be nonempty"),
    (["limit", "--u0", "", *_SMALL], "u0: expected 'c_minus,c_plus', got ''"),
], ids=["ladder", "u0"])
def test_an_empty_flag_value_meets_its_rule(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_limit_empty_times_keep_the_initial_snapshot(tmp_path):
    for name, times in (("empty", ""), ("comma", ",")):
        assert main(["limit", *_SMALL, "--times", times,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "empty" / "limit.csv").read_bytes() \
        == (tmp_path / "comma" / "limit.csv").read_bytes()


@pytest.mark.parametrize("bad", [
    {"times": (0.015,), "dt": 0.01},
    {"scheme": "RK4"},
    {"dt": -0.01},
    {"t_final": float("inf")},
    {"t_final": 0.105},
    {"ladder": (0.1, 0.2)},
    {"ladder": (0.2, 0.001)},
    {"times": (0.05, 0.1, 0.05)},
], ids=["time-off-step", "scheme", "dt-negative", "t_final-inf",
        "t_final-off-step", "ladder-increasing", "eps-below-floor",
        "times-repeated"])
def test_study_and_cli_configs_reject_the_same_studies(bad):
    study = {**MINI, "ladder": (0.2, 0.1), "times": (0.1,), **bad}
    with pytest.raises(ConfigError):
        Config(**study)
    with pytest.raises(ConfigError):
        config_from_dict(study)


def test_times_sharing_a_label_are_rejected(tmp_path):
    # two times on different steps that print as one %g label would share a
    # check key of the report, and a later passing check would hide an
    # earlier failing one
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dt": 0.5, "t_final": 100000.5,
                                "times": [100000, 100000.5]}))
    with pytest.raises(ConfigError, match="^times: 100000.5 repeats the "
                                          "step or the label 100000 of an "
                                          "earlier time$"):
        parse_config(str(path), command="converge")


# each command on a small config, then the 2-D sparse forms and the SuperLU
# solve, in a fresh interpreter (the tests load scipy into this one); no
# command may load any scipy module, scipy.sparse included
_SPARSE_FREE_RUN = """
import sys
import numpy as np
from kramerslab import assemble, build_grid, cli, quartic_default
from kramerslab.evolve_kramers import LinearSolver

out = sys.argv[1]
steps = ["--dt", "0.01", "--T", "0.02"]
grid = ["--nx", "9", "--nxi", "21"]
for name, argv in (
        ("rates", ["rates", "--ladder", "0.2,0.1"]),
        ("simulate", ["simulate", "--eps", "0.2", *grid, *steps,
                      "--snapshots", "0.01,0.02"]),
        ("limit", ["limit", "--nx", "17", *steps, "--times", "0.01,0.02"]),
        ("converge", ["converge", "--ladder", "0.2,0.1", *grid, *steps,
                      "--times", "0.01,0.02"])):
    code = cli.main([*argv, "--out", f"{out}/{name}"])
    assert code in ((0, 1) if name == "converge" else (0,)), (name, code)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

forms = assemble(build_grid(9, 21), quartic_default(), 0.2)
u = np.random.default_rng(0).normal(size=forms.n)
bound = 1e-15 * (abs(forms.M) @ np.abs(u)).max()
assert np.abs(forms.M @ u - forms.apply_m(u)).max() <= bound
S = (forms.M + 1e-3 * forms.A).tocsr()
x = LinearSolver(S).solve(S @ u)
assert np.abs(x - u).max() <= 1e-12 * np.abs(u).max()
print("sparse references ok")
"""


def test_no_command_loads_scipy_sparse(tmp_path):
    src = str(Path(kramerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _SPARSE_FREE_RUN,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # the commands print the artifacts they wrote before these two lines
    assert out.stdout.splitlines()[-2:] == ["[]", "sparse references ok"]
    for name in ("rates", "simulate", "limit", "converge"):
        assert any((tmp_path / name).iterdir()), name
