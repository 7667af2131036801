"""End-to-end command workflows: files in, files out, exit codes."""

import configparser
import dataclasses
import math
import os
import re
import subprocess
import sys

import pytest
from unittest import mock

from conftest import CURVE_DIR

from v2xsim import cli, config as cfgmod
from v2xsim.cli import (load_curve_csv, load_model_file, main,
                        parse_curve_filename, read_ipg_csv, read_mae_csv,
                        read_prr_csv)
from v2xsim.config import DEFAULT_CONFIG, load_config
from v2xsim.errors import ConfigError, DataError
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
    assert load_config(str(config))["prb_table"]["7"] == "100"


@pytest.mark.parametrize("row", ["abc = 5", "7 = x", "7 = 0", "7 = -40"])
def test_simulate_bad_prb_table_row_exits_2(tmp_path, capsys, row):
    config = tmp_path / "prb.ini"
    config.write_text(f"[prb_table]\n{row}\n")
    assert run_cli(*small_sim_args(tmp_path, tmp_path / "x", "--config", str(config))) == 2
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

def write_model(path, alpha=0.37, bandwidth=10e6):
    cp = configparser.ConfigParser()
    cp["model"] = {"scenario_id": "hw", "alpha_hat": str(alpha), "beta": "0.5",
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


@pytest.mark.parametrize("key, value", [("run.max_range_m", "0"),
                                        ("run.max_range_m", "-100"),
                                        ("run.warmup_s", "-0.5"),
                                        ("cv2x.counter_min", "16"),
                                        ("cv2x.t1_ms", "150"),
                                        ("cv2x.sensing_window_ms", "50"),
                                        ("road.lanes_per_direction", "0"),
                                        ("road.placement", "grid"),
                                        ("road.mean_speed_kmh", "-50"),
                                        ("metrics.ipg_range_m", "0"),
                                        ("metrics.ipg_range_m", "-150"),
                                        ("ieee80211p.cw_max", "-1"),
                                        ("ieee80211p.slot_time_us", "nan"),
                                        ("ieee80211p.slot_time_us", "0")])
def test_simulate_bad_value_exits_2(tmp_path, capsys, key, value):
    args = small_sim_args(tmp_path, tmp_path / "x", "--set", f"{key}={value}")
    assert run_cli(*args) == 2
    assert "config error:" in capsys.readouterr().err


# --- one home per config key ---------------------------------------------------------

# a valid change of every key that `build_setup` reads; the reception keys and
# the IPG grid are read by `build_reception` and `ipg_grid`, and the
# technology picks the settings vector's type
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


def built_setup(tech, change=None):
    cp = load_config(None, [f"run.technology={tech}"])
    if change is not None:
        section, key = change[0].split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = change[1]
    return cfgmod.build_setup(cp)


def test_every_config_key_has_a_valid_change():
    keys = {k for k in config_defaults() if not k.startswith(("reception.", "metrics.ipg_grid_"))}
    assert set(VALID_CHANGES) == keys - {"run.technology"}


@pytest.mark.parametrize("key", [*VALID_CHANGES, "prb_table.7"])
def test_each_config_key_sets_one_setup_field(key):
    """A key moves one leaf of the setup under a technology that reads it, and
    at most one under the other: no value has a second home."""
    change = (key, VALID_CHANGES.get(key, "80"))
    for tech in ("11p", "cv2x"):
        setup = built_setup(tech, change)
        base, changed = setup_leaves(built_setup(tech)), setup_leaves(setup)
        moved = {path for path in base if base[path] != changed[path]}
        if tech == "cv2x" and key in RESOLVES_N_PRB:
            theta = setup.run.theta
            assert "run.theta.n_prb_pkt" in moved
            assert theta.n_prb_pkt == resolve_nprb(theta.mcs_index, theta.payload_bytes,
                                                   setup.prb_table)
            moved.discard("run.theta.n_prb_pkt")
        uses = SECTION_TECHNOLOGY.get(key.split(".")[0], tech) == tech
        assert len(moved) in ((1,) if uses else (0, 1)), (tech, sorted(moved))


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


def run_cli_child(*argv):
    """The CLI in a child process, so that a hang fails the test instead of stalling the suite."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "v2xsim.cli", *argv],
                          capture_output=True, text=True, timeout=20, env=env)


def test_simulate_zero_mobility_step_exits_2(tmp_path):
    proc = run_cli_child(*small_sim_args(tmp_path, tmp_path / "x",
                                         "--set", "run.mobility_step_ms=0",
                                         "--set", "run.sim_duration_s=1.0"))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


# the settings under which a bad value of these keys did harm
BAD_VALUE_CONTEXT = {
    # a crowded C-V2X channel where no candidate passes the first RSRP
    # threshold, so that the first selection has to relax it
    "cv2x.rsrp_relax_step_db": ("run.technology=cv2x", "road.density_vpk=400",
                                "cv2x.rsrp_exclude_dbm=-200",
                                "reception.curve_file="
                                + os.path.join(CURVE_DIR, "highway_los_cv2x_mcs7_350B.csv")),
    "propagation.shadowing_std_db": ("propagation.shadowing_is_variance=true",),
    "reception.threshold_db": ("reception.threshold_source=explicit",),
}


@pytest.mark.parametrize("setting", [
    "cv2x.rsrp_relax_step_db=0",  # relaxation loop never ends
    "cv2x.rsrp_relax_step_db=-3",
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
