"""End-to-end command workflows: files in, files out, exit codes."""

import configparser
import dataclasses
import math
import os
import re
import resource
import subprocess
import sys

import pytest
from unittest import mock

from conftest import CURVE_DIR, built_setup

from v2xsim import cli, config as cfgmod
from v2xsim.cli import (load_curve_csv, load_model_file, main,
                        parse_curve_filename, read_ipg_csv, read_mae_csv,
                        read_prr_csv)
from v2xsim.config import DEFAULT_CONFIG, load_config
from v2xsim.errors import ConfigError, DataError
from v2xsim.metrics import IpgStore, MetricStore, PrrSeries
from v2xsim.settings import resolve_nprb


def run_cli(*argv):
    return main(list(argv))


def small_sim_args(tmp_path, out, *extra):
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    return [
        "simulate", "--out", str(out),
        "--set", f"reception.curve_file={curve}",
        "--set", "run.sim_duration_s=3.0",
        "--set", "run.warmup_s=0.5",
        "--set", "road.density_vpk=20.0",
        "--set", "road.road_length_m=1000.0",
        *extra,
    ]


# --- config machinery -----------------------------------------------------------

def test_print_config_is_parseable(capsys):
    assert run_cli("print-config") == 0
    text = capsys.readouterr().out
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(text)
    assert cp.get("ieee80211p", "t_aifs_us") == "110.0"
    assert "BASELINE" in DEFAULT_CONFIG


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError):
        load_config(None, ["run.not_a_key=1"])
    with pytest.raises(ConfigError):
        load_config(None, ["nonsense"])


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.ini")


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "typo.ini"
    config.write_text("[run]\nsed = 7\n")
    assert run_cli(*small_sim_args(tmp_path, tmp_path / "x", "--config", str(config))) == 2
    assert "run.sed" in capsys.readouterr().err
    config.write_text("[runs]\nseed = 7\n")
    with pytest.raises(ConfigError, match="runs"):
        load_config(str(config))
    config.write_text("seed = 7\n")  # no section header
    with pytest.raises(ConfigError, match="typo.ini"):
        load_config(str(config))


def test_config_file_takes_prb_table_rows(tmp_path):
    config = tmp_path / "prb.ini"
    config.write_text("[prb_table]\n7 = 100\n")
    from_file = load_config(str(config))
    assert from_file["prb_table"]["7"] == "100"
    # an override sets the same row
    from_override = load_config(None, ["prb_table.7=100"])
    assert cfgmod.build_setup(from_override) == cfgmod.build_setup(from_file)


@pytest.mark.parametrize("row", ["abc = 5", "7 = x", "7 = 0", "7 = -40"])
def test_simulate_bad_prb_table_row_exits_2(tmp_path, capsys, row):
    config = tmp_path / "prb.ini"
    config.write_text(f"[prb_table]\n{row}\n")
    assert run_cli(*small_sim_args(tmp_path, tmp_path / "x", "--config", str(config))) == 2
    assert "[prb_table]" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["abc=5", "7=x", "7=0", "7=-40"])
def test_override_bad_prb_table_row_exits_2(tmp_path, capsys, row):
    assert run_cli(*small_sim_args(tmp_path, tmp_path / "x", "--set", f"prb_table.{row}")) == 2
    assert "[prb_table]" in capsys.readouterr().err


# --- curve files ------------------------------------------------------------------

def test_parse_curve_filename_round_trip():
    got = parse_curve_filename("highway_los_cv2x_mcs7_350B.csv")
    assert got == ("highway_los", "cv2x", 7, 350)
    with pytest.raises(DataError):
        parse_curve_filename("nounderscores.csv")


def test_load_curve_csv_normalizes(tmp_path):
    path = tmp_path / "x_11p_mcs2_350B.csv"
    path.write_text("sinr_db,per\n0.0,0.5\n5.0,0.6\n10.0,0.1\n")
    curve = load_curve_csv(str(path))
    assert curve.per[0] == pytest.approx(0.55)
    assert curve.meta.technology == "11p"


def test_load_curve_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "x_11p_mcs2_350B.csv"
    path.write_text("sinr_db,per\n0.0,abc\n")
    with pytest.raises(DataError, match=":2"):
        load_curve_csv(str(path))
    path.write_text("wrong,header\n0.0,0.5\n")
    with pytest.raises(DataError):
        load_curve_csv(str(path))
    path.write_text("sinr_db,per\n0.0,0.5,0.1\n")
    with pytest.raises(DataError, match=":2"):
        load_curve_csv(str(path))


def test_result_csvs_share_the_curve_row_and_header_rules(tmp_path):
    path = tmp_path / "prr.csv"
    path.write_text("Bin_Center_m, PRR, Opportunities\n12.5,0.9,10\n")
    assert read_prr_csv(str(path)) == [(12.5, 0.9, 10.0)]
    path.write_text("bin_center_m,prr,opportunities\n12.5,0.9,10\n37.5,abc,10\n")
    with pytest.raises(DataError, match=r"prr\.csv:3"):
        read_prr_csv(str(path))
    with pytest.raises(DataError, match="not found"):
        read_ipg_csv(str(tmp_path / "missing.csv"))


# --- fit-alpha -----------------------------------------------------------------------

def test_fit_alpha_recovers_bundle_loss(tmp_path, capsys):
    out = tmp_path / "highway_los.model.ini"
    code = run_cli("fit-alpha", "--curves", CURVE_DIR, "--scenario", "highway_los",
                   "--beta", "0.5", "--out", str(out))
    assert code == 0
    model = load_model_file(str(out))
    assert model.alpha_hat == pytest.approx(0.37, rel=1e-6)
    assert model.n_points == 13
    assert model.rmse < 1.0  # bit/s; the bundle is exact by construction
    cp = configparser.ConfigParser()
    cp.read(str(out))
    fit_sections = [s for s in cp.sections() if s.startswith("fit.")]
    assert len(fit_sections) == 13


def test_fit_alpha_crossing_bundle(tmp_path):
    out = tmp_path / "crossing.model.ini"
    assert run_cli("fit-alpha", "--curves", CURVE_DIR, "--scenario",
                   "crossing_nlos", "--out", str(out)) == 0
    model = load_model_file(str(out))
    assert model.alpha_hat == pytest.approx(0.25, rel=1e-6)
    assert model.n_points == 7


@pytest.mark.parametrize("value", ["abc", "0"])
def test_fit_alpha_bad_bandwidth_exits_2(tmp_path, capsys, value):
    assert run_cli("fit-alpha", "--curves", CURVE_DIR, "--scenario", "highway_los",
                   "--out", str(tmp_path / "m.ini"),
                   "--set", f"propagation.bandwidth_hz={value}") == 2
    assert "bandwidth_hz" in capsys.readouterr().err


def test_fit_alpha_empty_dir_exits_3(tmp_path, capsys):
    assert run_cli("fit-alpha", "--curves", str(tmp_path), "--scenario", "x",
                   "--out", str(tmp_path / "m.ini")) == 3
    assert str(tmp_path) in capsys.readouterr().err


# --- derive-threshold -------------------------------------------------------------------

def write_model(path, alpha=0.37, bandwidth=10e6, beta=0.5):
    cp = configparser.ConfigParser()
    cp["model"] = {"scenario_id": "hw", "alpha_hat": str(alpha), "beta": str(beta),
                   "bandwidth_hz": str(bandwidth), "rmse_bps": "0", "n_points": "1"}
    with open(path, "w") as fh:
        cp.write(fh)


def test_derive_threshold_11p_table1_analogue(tmp_path, capsys):
    model = tmp_path / "m.ini"
    write_model(str(model))
    assert run_cli("derive-threshold", "--model", str(model), "--tech", "11p",
                   "--mcs", "2", "--payload", "350") == 0
    out = capsys.readouterr().out
    # psi_e = 4.5016 Mb/s -> gamma = 2^(psi_e/3.7e6) - 1 = 1.3244 -> 1.22 dB
    psi_e = 2800 / 622e-6
    gamma = 2 ** (psi_e / 3.7e6) - 1
    assert f"{10 * math.log10(gamma):.2f} dB" in out
    assert f"linear {gamma:.4f}" in out
    assert "1.22 dB" in out


def test_derive_threshold_malformed_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nalpha_hat = not_a_number\n")
    assert run_cli("derive-threshold", "--model", str(bad), "--tech", "11p") == 3


def test_derive_threshold_nan_model_exits_2(tmp_path, capsys):
    model = tmp_path / "m.ini"
    write_model(str(model), alpha=float("nan"))
    assert run_cli("derive-threshold", "--model", str(model), "--tech", "11p") == 2
    captured = capsys.readouterr()
    assert "alpha_hat must be > 0" in captured.err
    assert "threshold" not in captured.out


def test_derive_threshold_payload_resizes_prbs(tmp_path, capsys):
    model = tmp_path / "m.ini"
    write_model(str(model))
    args = ("derive-threshold", "--model", str(model), "--tech", "cv2x", "--payload", "550")
    assert run_cli(*args) == 0
    resolved = capsys.readouterr().out
    # a configured PRB count was sized for the configured packet, not for 550 B
    assert run_cli(*args, "--set", "cv2x.n_prb_pkt=37") == 0
    assert capsys.readouterr().out == resolved


def test_derive_threshold_vanishing_exponent(tmp_path, capsys):
    # alpha*B so large that the exponent underflows: gamma collapses to zero
    model = tmp_path / "m.ini"
    write_model(str(model), alpha=1e30)
    assert run_cli("derive-threshold", "--model", str(model), "--tech", "11p") == 0
    assert "below any threshold" in capsys.readouterr().out


@pytest.mark.parametrize("command, setting", [
    ("fit-alpha", "run.seed=abc"),
    ("derive-threshold", "road.density_vpk=abc"),
    ("derive-threshold", "cv2x.n_subch=abc"),
])
def test_fit_alpha_and_derive_threshold_check_every_setup_key(tmp_path, capsys, command,
                                                              setting):
    """Both commands build the whole setup, so a key they do not read fails as in simulate."""
    if command == "fit-alpha":
        args = ("--curves", CURVE_DIR, "--scenario", "highway_los",
                "--out", str(tmp_path / "m.ini"))
    else:
        write_model(str(tmp_path / "m.ini"))
        args = ("--model", str(tmp_path / "m.ini"), "--tech", "11p")
    assert run_cli(command, *args, "--set", setting) == 2
    captured = capsys.readouterr()
    assert setting.split("=")[0] in captured.err
    assert captured.out == ""


# bad values that every command rejects, whether or not it reads the key
BAD_VALUES = [("reception.beta", "abc"), ("reception.beta", "0"), ("reception.beta", "5"),
              ("reception.mode", "bogus"),
              ("reception.threshold_source", "bogus"), ("reception.threshold_db", "abc"),
              ("metrics.ipg_grid_step_s", "abc"), ("metrics.ipg_grid_max_s", "-1")]


@pytest.mark.parametrize("command", ["simulate", "select-beta", "validate", "fit-alpha",
                                     "derive-threshold"])
@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_bad_value_exits_2_under_every_command(tmp_path, capsys, command, key, value):
    """Every command loads its config through one entry that checks every key."""
    inputs = []
    if command == "fit-alpha":
        args = ("--curves", CURVE_DIR, "--scenario", "highway_los",
                "--out", str(tmp_path / "fit.model.ini"))
    elif command == "derive-threshold":
        write_model(str(tmp_path / "input.model.ini"))
        inputs = ["input.model.ini"]
        args = ("--model", str(tmp_path / "input.model.ini"), "--tech", "11p")
    else:
        # a short horizon keeps the runs fast where a bad value went unchecked
        curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
        args = ("--out", str(tmp_path / "out"), "--set", f"reception.curve_file={curve}",
                "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1")
    assert run_cli(command, *args, "--set", f"{key}={value}") == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == inputs


# --- simulate ---------------------------------------------------------------------------

def test_simulate_writes_outputs_and_manifest(tmp_path):
    out = tmp_path / "run1"
    assert run_cli(*small_sim_args(tmp_path, out)) == 0
    prr = read_prr_csv(str(out / "prr.csv"))
    assert prr and all(0.0 <= r[1] <= 1.0 for r in prr)
    ipg = read_ipg_csv(str(out / "ipg_ccdf.csv"))
    assert ipg
    cp = configparser.ConfigParser()
    cp.read(str(out / "manifest.ini"))
    assert cp["meta"]["command"] == "simulate"
    assert cp["run"]["sim_duration_s"] == "3.0"


def test_simulate_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*small_sim_args(tmp_path, out1)) == 0
    assert run_cli(*small_sim_args(tmp_path, out2)) == 0
    for name in ("prr.csv", "ipg_ccdf.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_reproduces_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*small_sim_args(tmp_path, out1)) == 0
    assert run_cli("simulate", "--config", str(out1 / "manifest.ini"),
                   "--out", str(out2)) == 0
    assert (out1 / "prr.csv").read_bytes() == (out2 / "prr.csv").read_bytes()
    assert (out1 / "ipg_ccdf.csv").read_bytes() == (out2 / "ipg_ccdf.csv").read_bytes()


def test_propagation_model_moves_highway_prr(tmp_path):
    # every highway link is LOS, so only the NLOS model moves it to the NLOS branch
    outputs = {}
    for model in ("winner_b1_los", "winner_b1_nlos"):
        out = tmp_path / model
        assert run_cli(*small_sim_args(tmp_path, out,
                                       "--set", f"propagation.model={model}")) == 0
        outputs[model] = (out / "prr.csv").read_bytes()
    assert outputs["winner_b1_los"] != outputs["winner_b1_nlos"]


def test_simulate_curve_mode_missing_file_exits_2(tmp_path, capsys):
    assert run_cli("simulate", "--out", str(tmp_path / "x"),
                   "--set", "reception.mode=curve") == 2


def test_simulate_nonexistent_curve_exits_3(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path / "x"),
                   "--set", "reception.mode=curve",
                   "--set", "reception.curve_file=/missing_11p_mcs2_350B.csv") == 3


# the keys besides its own that the message of a bad value must name
MESSAGE_NAMES = {
    # a bin wider than the PRR range leaves no whole bin under it
    ("metrics.prr_bin_width_m", "2000"): ("prr_max_distance_m",),
    ("cv2x.t1_ms", "150"): ("t2_ms",),
    ("cv2x.sensing_window_ms", "50"): ("traffic.generation_period_ms",),
    # 37 PRBs do not fit in one TTI of 1 x 10 PRBs
    ("cv2x.n_subch", "1"): ("cv2x.n_prb_subch", "cv2x.n_prb_pkt"),
    # 49 PRBs fit in one TTI of 5 x 10 PRBs, but not with 2 control PRBs
    ("cv2x.n_prb_pkt", "49"): ("cv2x.control_overhead_prbs", "cv2x.n_subch",
                               "cv2x.n_prb_subch"),
    ("traffic.generation_period_ms", "7.5"): ("cv2x.t_tti_ms",),
    # one mobility step would move a vehicle half the road or more
    ("road.mean_speed_kmh", "1e12"): ("run.mobility_step_ms", "road.road_length_m"),
    ("road.speed_std_kmh", "1e12"): ("road.mean_speed_kmh", "run.mobility_step_ms"),
}
# the bad values that only the C-V2X engine rejects
CV2X_ONLY = {("cv2x.n_subch", "1"), ("cv2x.n_prb_pkt", "49"),
             ("traffic.generation_period_ms", "7.5"), ("cv2x.counter_min", "0"),
             ("run.mobility_step_ms", "0.9")}


@pytest.mark.parametrize("key, value", [("run.max_range_m", "0"),
                                        ("run.max_range_m", "-100"),
                                        ("run.warmup_s", "-0.5"),
                                        ("cv2x.counter_min", "16"),
                                        ("cv2x.counter_min", "0"),
                                        ("propagation.antenna_height_m", "0"),
                                        ("cv2x.t1_ms", "150"),
                                        ("cv2x.sensing_window_ms", "50"),
                                        ("road.lanes_per_direction", "0"),
                                        ("road.placement", "grid"),
                                        ("road.mean_speed_kmh", "-50"),
                                        ("road.mean_speed_kmh", "1e12"),
                                        ("road.speed_std_kmh", "1e12"),
                                        ("metrics.ipg_range_m", "0"),
                                        ("metrics.ipg_range_m", "-150"),
                                        ("ieee80211p.cw_max", "-1"),
                                        ("ieee80211p.slot_time_us", "nan"),
                                        ("ieee80211p.slot_time_us", "0"),
                                        ("ieee80211p.sense_energy_dbm", "4000"),
                                        ("metrics.prr_bin_width_m", "2000"),
                                        ("cv2x.t_tti_ms", "0.7"),
                                        ("ieee80211p.t_aifs_us", "0"),
                                        ("run.mobility_step_ms", "0"),
                                        # shorter than a frame's airtime (0.622 ms, 1 ms)
                                        ("run.mobility_step_ms", "0.5"),
                                        ("run.mobility_step_ms", "0.9"),
                                        ("road.lane_width_m", "-4"),
                                        ("road.corner_los_m", "-1"),
                                        ("cv2x.n_subch", "1"),
                                        ("cv2x.n_prb_pkt", "49"),
                                        ("traffic.generation_period_ms", "7.5")])
def test_simulate_bad_value_exits_2(tmp_path, capsys, key, value):
    technology = "cv2x" if (key, value) in CV2X_ONLY else "11p"
    args = small_sim_args(tmp_path, tmp_path / "x", "--set", f"run.technology={technology}",
                          "--set", f"{key}={value}")
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    option = key.split(".")[1]
    for name in (option, *MESSAGE_NAMES.get((key, value), ())):
        assert name in err, (name, err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["simulate", "select-beta", "validate"])
def test_road_with_no_vehicle_exits_2(tmp_path, capsys, command):
    """0.1 veh/km over 2 km spawns no vehicle at seed 1: the run has no link to report."""
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    assert run_cli(command, "--out", str(tmp_path / "out"),
                   "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1",
                   "--set", "road.density_vpk=0.1") == 2
    captured = capsys.readouterr()
    assert "road.density_vpk" in captured.err and "road.road_length_m" in captured.err
    assert captured.out == ""
    assert not any(p.is_file() for p in tmp_path.rglob("*"))
    assert not (tmp_path / "out").exists()


def test_a_sensing_ring_too_big_to_allocate_exits_2(tmp_path, capsys):
    """A 1e18 ms sensing window is a ring of 1e18 TTIs, more than numpy can
    address on any host: the allocation fails at once, whatever the host's
    memory overcommit."""
    curve = os.path.join(CURVE_DIR, "highway_los_cv2x_mcs7_350B.csv")
    assert run_cli("simulate", "--out", str(tmp_path / "out"),
                   "--set", "run.technology=cv2x", "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1",
                   "--set", "road.density_vpk=5",
                   "--set", "cv2x.sensing_window_ms=1e18") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for key in ("cv2x.sensing_window_ms", "road.density_vpk", "cv2x.n_subch"):
        assert key in err, (key, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t2_ms", ["1e12", "1e308"])
def test_a_selection_window_too_big_to_allocate_exits_2(tmp_path, capsys, t2_ms):
    """A 1e12 ms window is 1e12 candidate TTIs, a 7.28 TiB grid of TTI numbers
    alone, and 1e308 ms more than numpy can address: both allocations fail at
    once, whatever the host's memory overcommit."""
    curve = os.path.join(CURVE_DIR, "highway_los_cv2x_mcs7_350B.csv")
    assert run_cli("simulate", "--out", str(tmp_path / "out"),
                   "--set", "run.technology=cv2x", "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1",
                   "--set", "road.density_vpk=5", "--set", f"cv2x.t2_ms={t2_ms}") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "does not fit in memory" in err
    for key in ("cv2x.t1_ms", "cv2x.t2_ms"):
        assert key in err, (key, err)
    assert not (tmp_path / "out").exists()


def test_a_selection_window_too_big_for_the_address_space_exits_2(tmp_path):
    """Under a 1.5 GB address-space limit, a 1e7 ms window's (candidate TTI,
    subchannel) grid fits, but a selection's projection gathers ten sensed
    periods of it per vehicle (an int64 (10, 1e7) index array alone is 763
    MiB): the set-up probe sized like that projection refuses it before the
    run, in a child process that carries the limit."""
    limit = 1_500_000 * 1024

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    curve = os.path.join(CURVE_DIR, "highway_los_cv2x_mcs7_350B.csv")
    proc = run_cli_child("simulate", "--out", str(tmp_path / "out"),
                         "--set", "run.technology=cv2x", "--set", f"reception.curve_file={curve}",
                         "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1",
                         "--set", "road.density_vpk=5", "--set", "cv2x.t2_ms=1e7",
                         preexec_fn=limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "does not fit in memory" in proc.stderr
    assert "cv2x.t2_ms" in proc.stderr
    assert not (tmp_path / "out").exists()


# 1e-18 asks for more elements than numpy can address (PRR: 6e20 bins) or an
# array larger than any address space (IPG: 2 EiB), and 5e-324 for an infinite
# count, so every allocation is refused at once, whatever the host's memory
# overcommit
@pytest.mark.parametrize("command", ["simulate", "select-beta", "validate"])
@pytest.mark.parametrize("setting, keys", [
    ("metrics.prr_bin_width_m=1e-18", ("metrics.prr_bin_width_m", "metrics.prr_max_distance_m")),
    ("metrics.prr_bin_width_m=5e-324", ("metrics.prr_bin_width_m", "metrics.prr_max_distance_m")),
    ("metrics.ipg_grid_step_s=1e-18", ("metrics.ipg_grid_step_s", "metrics.ipg_grid_max_s")),
    ("metrics.ipg_grid_step_s=5e-324", ("metrics.ipg_grid_step_s", "metrics.ipg_grid_max_s")),
])
def test_a_metric_grid_too_fine_to_allocate_exits_2(tmp_path, capsys, command, setting, keys):
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    assert run_cli(command, "--out", str(tmp_path / "out"),
                   "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1",
                   "--set", "road.density_vpk=5", "--set", setting) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "does not fit in memory" in err
    for key in keys:
        assert key in err, (key, err)
    assert not (tmp_path / "out").exists()


# a run that would write a bare-header prr.csv or ipg_ccdf.csv, and the keys its
# message names: no link in range, and no pair that receives twice after warmup
NOTHING_TO_REPORT = {
    "no-opportunity": (("run.max_range_m=1e-9",), ("run.max_range_m", "run.warmup_s")),
    "no-gap": (("traffic.generation_period_ms=1e9", "cv2x.sensing_window_ms=2e9"),
               ("traffic.generation_period_ms", "metrics.ipg_range_m")),
}


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("case", sorted(NOTHING_TO_REPORT))
def test_a_run_with_nothing_to_report_exits_3(tmp_path, capsys, command, case):
    sets, names = NOTHING_TO_REPORT[case]
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    args = [command, "--out", str(tmp_path / "out"), "--set", f"reception.curve_file={curve}",
            "--set", "run.sim_duration_s=0.5", "--set", "run.warmup_s=0.1",
            "--set", "road.density_vpk=30"]
    for value in sets:
        args += ["--set", value]
    assert run_cli(*args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    for name in names:
        assert name in err, (name, err)
    assert not (tmp_path / "out").exists()


def test_select_beta_with_no_opportunity_exits_3_naming_the_keys(tmp_path, capsys):
    """No link in range after warmup: no PRR bin to compare the step runs on."""
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    assert run_cli("select-beta", "--out", str(tmp_path / "out"),
                   "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=0.5", "--set", "run.warmup_s=0.1",
                   "--set", "road.density_vpk=30", "--set", "run.max_range_m=1e-9") == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    for name in ("run.max_range_m", "road.density_vpk", "run.sim_duration_s", "run.warmup_s"):
        assert name in err, (name, err)
    assert not (tmp_path / "out").exists()


def test_validate_writes_nothing_when_only_the_step_model_has_no_gap(tmp_path, capsys):
    # the curve run receives, a step threshold of 200 dB receives nothing
    out = tmp_path / "v"
    assert run_cli(*validate_args(out, "explicit", "--set", "reception.threshold_db=200")) == 3
    assert "ipg_ccdf.csv" in capsys.readouterr().err
    assert not out.exists()


# --- one home per config key ---------------------------------------------------------

# a valid change of every key that `build_setup` reads; the reception keys and
# the IPG grid are read by `read_reception` and `ipg_grid`, which every command
# calls through `cli.load`, and the technology picks the settings vector's type
VALID_CHANGES = {
    "run.seed": "2", "run.sim_duration_s": "12.0", "run.warmup_s": "2.0",
    "run.max_range_m": "800.0", "run.mobility_step_ms": "50.0",
    "road.layout": "urban_grid", "road.lanes_per_direction": "2",
    "road.lane_width_m": "3.5", "road.road_length_m": "1500.0",
    "road.density_vpk": "400.0", "road.mean_speed_kmh": "56.0",
    "road.speed_std_kmh": "2.0", "road.wrap_around": "false",
    "road.placement": "fixed_count", "road.corner_los_m": "10.0",
    "traffic.payload_bytes": "550", "traffic.generation_period_ms": "50.0",
    "propagation.carrier_hz": "5.8e9", "propagation.model": "winner_b1_nlos",
    "propagation.shadowing_std_db": "4.0", "propagation.shadowing_is_variance": "true",
    "propagation.decorrelation_m": "20.0", "propagation.antenna_gain_dbi": "0.0",
    "propagation.noise_figure_db": "9.0", "propagation.tx_power_density_dbm_mhz": "10.0",
    "propagation.bandwidth_hz": "20e6", "propagation.antenna_height_m": "2.0",
    "propagation.los_a": "22.0", "propagation.los_b": "40.0", "propagation.los_c": "21.0",
    "propagation.nlos_a": "36.0", "propagation.nlos_b": "47.0", "propagation.nlos_c": "27.0",
    "ieee80211p.mcs_index": "4", "ieee80211p.t_aifs_us": "58.0",
    "ieee80211p.t_preamble_us": "32.0", "ieee80211p.t_symbol_us": "4.0",
    "ieee80211p.cw_max": "7", "ieee80211p.slot_time_us": "9.0",
    "ieee80211p.sense_decodable_dbm": "-82.0", "ieee80211p.sense_energy_dbm": "-62.0",
    "cv2x.mcs_index": "8", "cv2x.n_subch": "10", "cv2x.n_prb_subch": "12",
    "cv2x.t_tti_ms": "0.5", "cv2x.n_prb_pkt": "40", "cv2x.control_overhead_prbs": "3",
    "cv2x.keep_probability": "0.8", "cv2x.t1_ms": "2.0", "cv2x.t2_ms": "50.0",
    "cv2x.sensing_window_ms": "500.0", "cv2x.rsrp_exclude_dbm": "-100.0",
    "cv2x.rsrp_relax_step_db": "1.0", "cv2x.best_fraction": "0.3",
    "cv2x.counter_min": "6", "cv2x.counter_max": "14",
    "metrics.prr_bin_width_m": "50.0", "metrics.prr_max_distance_m": "500.0",
    "metrics.ipg_range_m": "100.0",
}
# the technology whose settings vector reads a section; the others serve both
SECTION_TECHNOLOGY = {"ieee80211p": "11p", "cv2x": "cv2x"}
# with cv2x.n_prb_pkt blank, the PRB count is resolved from these
RESOLVES_N_PRB = ("cv2x.mcs_index", "traffic.payload_bytes", "prb_table.7")


def config_defaults():
    cp = load_config()
    return {f"{section}.{key}": value for section in cp.sections()
            for key, value in cp[section].items()}


def setup_leaves(obj, path=""):
    """Every field of a built setup by dotted path, nested dataclasses and dicts flattened."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        items = [(str(k), v) for k, v in obj.items()]
    else:
        return {path: obj}
    leaves = {}
    for name, value in items:
        leaves.update(setup_leaves(value, f"{path}.{name}" if path else name))
    return leaves


def as_written(text, like):
    """A config value read as the type of `like`, in its key's unit."""
    return text == "true" if isinstance(like, bool) else type(like)(text)


def setup_with_change(tech, change=None):
    overrides = [f"run.technology={tech}"]
    if change is not None:
        overrides.append("=".join(change))
    return cfgmod.build_setup(load_config(None, overrides))


def test_every_config_key_has_a_valid_change():
    keys = {k for k in config_defaults() if not k.startswith(("reception.", "metrics.ipg_grid_"))}
    assert set(VALID_CHANGES) == keys - {"run.technology"}


@pytest.mark.parametrize("key", [*VALID_CHANGES, "prb_table.7"])
def test_each_config_key_sets_one_setup_field(key):
    """A key moves one leaf of the setup under a technology that reads it, and
    at most one under the other: no value has a second home. The leaf is
    named after the key's option (`ieee80211p.slot_time_us` moves
    `csma.slot_time_us`, a `prb_table.<mcs>` row `prb_table.bits_per_prb.<mcs>`),
    and holds its value in the key's unit."""
    change = (key, VALID_CHANGES.get(key, "80"))
    for tech in ("11p", "cv2x"):
        setup = setup_with_change(tech, change)
        base, changed = setup_leaves(setup_with_change(tech)), setup_leaves(setup)
        moved = {path for path in base if base[path] != changed[path]}
        if tech == "cv2x" and key in RESOLVES_N_PRB:
            theta = setup.run.theta
            assert "run.theta.n_prb_pkt" in moved
            assert theta.n_prb_pkt == resolve_nprb(theta.mcs_index, theta.payload_bytes,
                                                   setup.prb_table)
            moved.discard("run.theta.n_prb_pkt")
        uses = SECTION_TECHNOLOGY.get(key.split(".")[0], tech) == tech
        assert len(moved) in ((1,) if uses else (0, 1)), (tech, sorted(moved))
        option = key.split(".")[1]
        for path in moved:
            assert path.endswith(f".{option}"), (tech, path)
            assert changed[path] == as_written(change[1], base[path]), (tech, path)


# the fields that keep a default: the placement seam tests use, and the
# tallies a store starts from
KEEP_DEFAULTS = {"SimulationSetup.vehicles", "PrrSeries.received", "PrrSeries.opportunities",
                 *(f"MetricStore.{name}" for name in ("generated", "transmitted",
                                                      "opportunities", "lost_half_duplex",
                                                      "lost_sinr", "received_total"))}


def test_setup_dataclasses_hold_no_defaults():
    """Every parameter has its one default in DEFAULT_CONFIG, none in a dataclass."""
    classes = {PrrSeries, IpgStore, MetricStore}

    def walk(obj):
        if dataclasses.is_dataclass(obj):
            classes.add(type(obj))
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))

    for tech in ("11p", "cv2x"):
        walk(built_setup(f"run.technology={tech}"))
    assert len(classes) == 13  # the setup's 10 dataclasses and the three stores
    with_default = {f"{cls.__name__}.{f.name}" for cls in classes
                    for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING}
    assert with_default <= KEEP_DEFAULTS, sorted(with_default - KEEP_DEFAULTS)


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# every key outside [reception] whose default is a number, and the blank PRB
# count; reception.beta and reception.threshold_db fail in
# test_simulate_config_that_hung_or_crashed_exits_2
NUMERIC_KEYS = [key for key, default in config_defaults().items()
                if not key.startswith("reception.")
                and (is_number(default) or key == "cv2x.n_prb_pkt")]


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_non_number_for_every_numeric_key_exits_2(key, tech):
    """Whichever technology runs: the other's section is checked too."""
    cp = load_config(None, [f"run.technology={tech}", f"{key}=abc"])
    with pytest.raises(ConfigError, match=re.escape(key)):
        cfgmod.build_setup(cp)
        cli.ipg_grid(cp)


@pytest.mark.parametrize("tech, setting", [
    ("cv2x", "ieee80211p.t_aifs_us=0"),
    ("cv2x", "ieee80211p.mcs_index=8"),
    ("cv2x", "ieee80211p.t_preamble_us=abc"),
    ("11p", "cv2x.n_subch=abc"),
    ("11p", "cv2x.t_tti_ms=2"),
    ("11p", "cv2x.mcs_index=99"),
])
def test_bad_value_of_the_other_technology_exits_2(tmp_path, capsys, tech, setting):
    args = small_sim_args(tmp_path, tmp_path / "x", "--set", f"run.technology={tech}",
                          "--set", setting)
    assert run_cli(*args) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x" / "prr.csv").exists()


def run_cli_child(*argv, preexec_fn=None):
    """The CLI in a child process, so that a hang fails the test instead of
    stalling the suite; `preexec_fn` runs in the child before the CLI starts."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "v2xsim.cli", *argv],
                          capture_output=True, text=True, timeout=20, env=env,
                          preexec_fn=preexec_fn)


def test_simulate_zero_mobility_step_exits_2(tmp_path):
    proc = run_cli_child(*small_sim_args(tmp_path, tmp_path / "x",
                                         "--set", "run.mobility_step_ms=0",
                                         "--set", "run.sim_duration_s=1.0"))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


# a crowded C-V2X channel where no candidate passes the first RSRP threshold,
# so that the first selection has to relax it
CROWDED_CV2X = ("run.technology=cv2x", "road.density_vpk=400",
                "reception.curve_file=" + os.path.join(CURVE_DIR, "highway_los_cv2x_mcs7_350B.csv"))
# the settings under which a bad value of these keys did harm
BAD_VALUE_CONTEXT = {
    "cv2x.rsrp_relax_step_db": (*CROWDED_CV2X, "cv2x.rsrp_exclude_dbm=-200"),
    "cv2x.rsrp_exclude_dbm": CROWDED_CV2X,
    "propagation.shadowing_std_db": ("propagation.shadowing_is_variance=true",),
    "reception.threshold_db": ("reception.threshold_source=explicit",),
    # a curve-mode run does not use the source, but still checks it
    "reception.threshold_source": ("reception.mode=curve",),
}


@pytest.mark.parametrize("setting", [
    "cv2x.rsrp_relax_step_db=0",  # relaxation loop never ends
    "cv2x.rsrp_relax_step_db=-3",
    "cv2x.rsrp_relax_step_db=1e-20",  # absorbed by the threshold: -200 + 1e-20 == -200
    "cv2x.rsrp_exclude_dbm=-1e308",  # absorbs the step: -1e308 + 3 == -1e308
    "run.sim_duration_s=inf",  # never ends
    "road.road_length_m=inf",
    "road.density_vpk=inf",
    "metrics.prr_bin_width_m=0",
    "metrics.prr_bin_width_m=-5",
    "metrics.prr_max_distance_m=-600",
    "road.speed_std_kmh=-1",
    "propagation.carrier_hz=0",
    "propagation.carrier_hz=-5.9e9",
    "propagation.shadowing_std_db=-3",  # read as a variance
    "metrics.ipg_grid_step_s=0",
    "metrics.ipg_grid_step_s=-0.01",  # ran to a header-only ipg_ccdf.csv
    "metrics.ipg_grid_max_s=0",
    "reception.beta=abc",
    "reception.threshold_db=x",
    "reception.threshold_source=bogus",
])
def test_simulate_config_that_hung_or_crashed_exits_2(tmp_path, setting):
    key = setting.split("=")[0]
    overrides = [arg for item in (*BAD_VALUE_CONTEXT.get(key, ()), setting)
                 for arg in ("--set", item)]
    proc = run_cli_child(*small_sim_args(tmp_path, tmp_path / "x", *overrides))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert key.split(".")[1] in proc.stderr, proc.stderr


# --- select-beta and validate ----------------------------------------------------------

def test_select_beta_single_candidate(tmp_path):
    out = tmp_path / "sb"
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    code = run_cli("select-beta", "--out", str(out), "--betas", "0.5",
                   "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=3.0",
                   "--set", "run.warmup_s=0.5",
                   "--set", "road.density_vpk=20.0",
                   "--set", "road.road_length_m=1000.0")
    assert code == 0
    rows = read_mae_csv(str(out / "mae.csv"))
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(0.5)
    assert rows[0][2] == 1.0


@pytest.mark.parametrize("betas", ["abc", "0.5,", "0.5,,0.9"])
def test_select_beta_malformed_beta_list_exits_2(betas, tmp_path, capsys):
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    code = run_cli("select-beta", "--out", str(tmp_path / "sb"), "--betas", betas,
                   "--set", f"reception.curve_file={curve}")
    assert code == 2
    assert "--betas" in capsys.readouterr().err


@pytest.mark.parametrize("betas", ["0.5,0.5", "0.5,0.5,0.3", "0.3,0.5,0.50"])
def test_select_beta_repeated_beta_exits_2_before_simulating(betas, tmp_path, capsys):
    """A repeated beta would give mae.csv two rows, both best."""
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    with mock.patch.object(cli, "run") as simulate:
        code = run_cli("select-beta", "--out", str(tmp_path / "sb"), "--betas", betas,
                       "--set", f"reception.curve_file={curve}")
    assert code == 2
    assert "--betas" in capsys.readouterr().err
    simulate.assert_not_called()
    assert not (tmp_path / "sb").exists()


def test_select_beta_beta_outside_the_curve_exits_3_before_simulating(tmp_path, capsys):
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    with mock.patch.object(cli, "run") as simulate:
        code = run_cli("select-beta", "--out", str(tmp_path / "sb"), "--betas", "0.5,0",
                       "--set", f"reception.curve_file={curve}")
    assert code == 3
    assert "beta=0" in capsys.readouterr().err
    simulate.assert_not_called()
    assert not (tmp_path / "sb").exists()


def test_validate_compares_modes(tmp_path, capsys):
    out = tmp_path / "val"
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    code = run_cli("validate", "--out", str(out),
                   "--set", f"reception.curve_file={curve}",
                   "--set", "run.sim_duration_s=3.0",
                   "--set", "run.warmup_s=0.5",
                   "--set", "road.density_vpk=20.0",
                   "--set", "road.road_length_m=1000.0")
    assert code == 0
    assert (out / "curve" / "prr.csv").exists()
    assert (out / "step" / "prr.csv").exists()
    rows = read_mae_csv(str(out / "mae.csv"))
    assert rows[0][1] < 0.2
    assert "MAE" in capsys.readouterr().out


def validate_args(out, source, *extra):
    """A short validate run whose step threshold comes from `source`."""
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    return ("validate", "--out", str(out), "--set", f"reception.curve_file={curve}",
            "--set", f"reception.threshold_source={source}",
            "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1", *extra)


@pytest.mark.parametrize("beta", ["0", "1", "5"])
@pytest.mark.parametrize("source", ["curve", "model", "explicit"])
def test_validate_beta_outside_unit_interval_exits_2_under_every_source(
        tmp_path, capsys, source, beta):
    """A target PER outside (0, 1) is refused before any run, whatever the source."""
    write_model(str(tmp_path / "m.model.ini"))
    out = tmp_path / "v"
    assert run_cli(*validate_args(out, source, "--set", f"reception.beta={beta}",
                                  "--set", f"reception.model_file={tmp_path / 'm.model.ini'}",
                                  "--set", "reception.threshold_db=2")) == 2
    assert "reception.beta" in capsys.readouterr().err
    assert not out.exists()


def test_validate_labels_mae_with_the_model_files_beta(tmp_path, capsys):
    """Under threshold_source=model the step is cut at the model's beta, not reception.beta."""
    write_model(str(tmp_path / "m.model.ini"))  # fitted at beta 0.5
    out = tmp_path / "v"
    assert run_cli(*validate_args(out, "model", "--set", "reception.beta=0.9",
                                  "--set", f"reception.model_file={tmp_path / 'm.model.ini'}")) == 0
    ((beta, _, best),) = read_mae_csv(str(out / "mae.csv"))
    assert (beta, best) == (0.5, 1)
    assert "step beta=0.5 vs curve" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "derive-threshold"])
def test_model_file_beta_outside_unit_interval_exits_2(tmp_path, capsys, command):
    model = str(tmp_path / "m.model.ini")
    write_model(model, beta=5.0)
    if command == "validate":
        args = validate_args(tmp_path / "v", "model", "--set", f"reception.model_file={model}")
    else:
        args = ("derive-threshold", "--model", model, "--tech", "11p")
    assert run_cli(*args) == 2
    assert "beta must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_validate_without_curve_exits_2(tmp_path):
    assert run_cli("validate", "--out", str(tmp_path / "v")) == 2


def test_validate_bad_step_model_writes_nothing(tmp_path):
    out = tmp_path / "v"
    curve = os.path.join(CURVE_DIR, "highway_los_11p_mcs2_350B.csv")
    assert run_cli("validate", "--out", str(out),
                   "--set", f"reception.curve_file={curve}",
                   "--set", "reception.threshold_source=model",
                   "--set", "run.sim_duration_s=0.3", "--set", "run.warmup_s=0.1") == 2
    assert not list(out.rglob("*.csv"))
