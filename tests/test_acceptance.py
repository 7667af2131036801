"""Acceptance gate.

Each test is one numbered criterion and prints one PASS line when its
assertions hold (run with `pytest tests/test_acceptance.py -v -s`). The
simulation-backed criteria run at desk scale: multi-seed, short horizons,
wrap-around strips, with tolerances sized for that scale.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (built_setup, curve_path, default_theta, make_setup, merge,
                      step_model, vehicle_pair)

from v2xsim.abstraction import (AbstractionModel, FitPoint, fit_alpha,
                                threshold_for_settings)
from v2xsim.access import SpsState, sps_after_transmission
from v2xsim.channel import noise_power_dbm
from v2xsim.cli import load_curve_csv, main as cli_main
from v2xsim.engine import SharedRun, TraceLog, run
from v2xsim.metrics import PrrSeries, ipg_ccdf, mae, uniform_bin_edges
from v2xsim.scenario import VehicleState
from v2xsim.settings import (NBPS_TABLE, effective_throughput, tx_time, tx_time_11p,
                             tx_time_cv2x)
from v2xsim.util import stream

SEEDS = (1, 2, 3, 4, 5)
TECHS = ("11p", "cv2x")

CURVES = {
    "11p": "highway_los_11p_mcs2_350B.csv",
    "cv2x": "highway_los_cv2x_mcs7_350B.csv",
}


def bundled_curve(tech):
    return load_curve_csv(curve_path(CURVES[tech]))


def reception_for(tech, mode, beta=0.5):
    curve = bundled_curve(tech)
    if mode == "curve":
        return curve
    return step_model(curve, beta)


def highway_prr(bank, tech, mode, beta, seed, density=100.0, speed=96.0,
                road_length=2000.0, duration=20.0, max_prr=600.0, betas=(0.1, 0.5, 0.9)):
    """PRR series of one highway run under the curve model or the step model at `beta`.

    The channel of a (technology, seed, density, road, horizon) is simulated
    once, in one pass that tallies the curve model and each step model of
    `betas`. The shared-pass property test shows that each model's store is
    that of a live run under it alone.
    """
    key = ("hwy", tech, seed, density, road_length, duration)

    def factory():
        setup = make_setup(tech, seed=seed, duration=duration, warmup=2.0,
                           density=density, speed=speed, road_length=road_length,
                           max_prr_distance=max_prr)
        models = {"curve": reception_for(tech, "curve")}
        models.update((b, step_model(models["curve"], b)) for b in betas)
        shared = SharedRun(models.values(), ipg=False)
        return {name: run(setup, model, shared=shared).prr for name, model in models.items()}
    return bank.get(key, factory)["curve" if mode == "curve" else beta]


def merge_series(series):
    out = series[0]
    for s in series[1:]:
        out = merge(out, s)
    return out


DEFAULT_THETA = {tech: default_theta(tech) for tech in TECHS}


def random_theta(rng, tech):
    if tech == "11p":
        return replace(DEFAULT_THETA["11p"], payload_bytes=int(rng.integers(1, 3000)),
                       mcs_index=int(rng.integers(0, 8)))
    return replace(DEFAULT_THETA["cv2x"], payload_bytes=int(rng.integers(1, 3000)),
                   n_subch=int(rng.integers(1, 11)),
                   n_prb_subch=int(rng.integers(1, 21)),
                   t_tti_ms=float(rng.choice([0.25, 0.5, 1.0])),
                   n_prb_pkt=int(rng.integers(1, 400)))


# ---------------------------------------------------------------------------


def test_criterion_01_round_trip_identity():
    """Threshold synthesis inverts the loss-scaled Shannon map exactly."""
    rng = np.random.default_rng(101)
    for i in range(200):
        tech = TECHS[i % 2]
        theta = random_theta(rng, tech)
        alpha = float(rng.uniform(1e-3, 1.0))
        bandwidth = float(rng.uniform(1e6, 4e7))
        model = AbstractionModel(alpha_hat=alpha, bandwidth_hz=bandwidth, beta=0.5)
        step = threshold_for_settings(theta, model)
        back = alpha * bandwidth * math.log2(1.0 + step.gamma_th)
        psi = effective_throughput(theta)
        assert abs(back - psi) <= 1e-9 * psi
    print("\n[acceptance] criterion 1 PASS - round trip exact to 1e-9 on 200 thetas")


def test_criterion_02_closed_form_matches_golden_section():
    inv_phi = (math.sqrt(5) - 1) / 2

    def golden(psi_e, psi_s):
        def f(a):
            return float(np.sum((psi_e - a * psi_s) ** 2))
        a, b = 1e-9, 10.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        while abs(b - a) > 1e-11:
            if f(c) < f(d):
                b = d
            else:
                a = c
            c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        return 0.5 * (a + b)

    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        psi_s = rng.uniform(5e5, 5e7, size=n)
        psi_e = psi_s * rng.uniform(0.05, 0.95) * rng.uniform(0.7, 1.3, size=n)
        model = fit_alpha([FitPoint(e, s) for e, s in zip(psi_e, psi_s)], 1e7, 0.5)
        assert model.alpha_hat == pytest.approx(golden(psi_e, psi_s), rel=1e-6)
    print("[acceptance] criterion 2 PASS - closed form = golden section on 100 sets")


def test_criterion_03_timing_and_throughput_oracle():
    a = replace(DEFAULT_THETA["11p"], payload_bytes=350, mcs_index=2)
    assert tx_time_11p(a) == pytest.approx(622e-6, rel=1e-12)
    assert effective_throughput(a) == pytest.approx(2800 / 622e-6, rel=1e-12)
    assert round(effective_throughput(a) / 1e6, 4) == 4.5016
    b = replace(DEFAULT_THETA["11p"], payload_bytes=550, mcs_index=4)
    assert tx_time_11p(b) == pytest.approx(518e-6, rel=1e-12)
    assert effective_throughput(b) == pytest.approx(4400 / 518e-6, rel=1e-12)
    assert round(effective_throughput(b) / 1e6, 3) == 8.494

    rng = np.random.default_rng(103)
    for _ in range(1000):
        if rng.random() < 0.5:
            s = random_theta(rng, "11p")
            n_sym = math.ceil(8 * s.payload_bytes / NBPS_TABLE[s.mcs_index])
            t_ref = s.t_aifs_s + s.t_preamble_s + s.t_symbol_s * n_sym
            psi_ref = 8 * s.payload_bytes / t_ref
            assert tx_time_11p(s) == pytest.approx(t_ref, rel=1e-12)
        else:
            s = random_theta(rng, "cv2x")
            n_prb_tti = s.n_subch * s.n_prb_subch
            n_tti = math.ceil(s.n_prb_pkt / n_prb_tti)
            t_ref = s.t_tti_s * n_tti
            psi_ref = (8 * s.payload_bytes / t_ref) * (n_prb_tti * n_tti / s.n_prb_pkt)
            assert tx_time_cv2x(s) == pytest.approx(t_ref, rel=1e-12)
        assert effective_throughput(s) == pytest.approx(psi_ref, rel=1e-12)
    print("[acceptance] criterion 3 PASS - oracle values and 1000 random settings")


def sweep_series(tech, seeds):
    """Two-vehicle sweep across the reception transition zone: (curve, step) PRR.

    Each channel is simulated once, in one pass that tallies both models.
    """
    out = {mode: PrrSeries(uniform_bin_edges(1600.0, 100.0)) for mode in ("curve", "step")}
    distances = (250.0, 650.0, 950.0, 1050.0, 1150.0, 1250.0, 1350.0)
    for d in distances:
        for seed in seeds:
            setup = make_setup(tech, seed=seed, duration=10.0, warmup=0.5,
                               road_length=4000.0, max_range_m=2500.0,
                               max_prr_distance=1600.0, prr_bin_width_m=100.0,
                               vehicles=vehicle_pair(d, speed_ms=26.67))
            models = {mode: reception_for(tech, mode) for mode in ("curve", "step")}
            shared = SharedRun(models.values(), ipg=False)
            for mode, model in models.items():
                out[mode] = merge(out[mode], run(setup, model, shared=shared).prr)
    return out["curve"], out["step"]


@pytest.mark.parametrize("tech", TECHS)
def test_criterion_04_step_vs_curve_fidelity(tech, run_bank):
    sweep_curve, sweep_step = sweep_series(tech, SEEDS)
    sweep_mae = mae(sweep_curve, sweep_step)
    assert sweep_mae <= 0.03

    cur = merge_series([highway_prr(run_bank, tech, "curve", 0.5, s) for s in SEEDS])
    stp = merge_series([highway_prr(run_bank, tech, "step", 0.5, s) for s in SEEDS])
    highway_mae = mae(cur, stp)
    assert highway_mae <= 0.03
    print(f"[acceptance] criterion 4 PASS ({tech}) - sweep MAE {sweep_mae:.4f}, "
          f"highway MAE {highway_mae:.4f} (gate 0.03)")


@pytest.mark.parametrize("tech", TECHS)
def test_criterion_05_beta_ordering(tech, run_bank):
    wins = 0
    per_seed = []
    for seed in SEEDS:
        bench = highway_prr(run_bank, tech, "curve", 0.5, seed)
        maes = {beta: mae(bench, highway_prr(run_bank, tech, "step", beta, seed))
                for beta in (0.1, 0.5, 0.9)}
        per_seed.append(maes)
        if maes[0.5] < maes[0.1] and maes[0.5] < maes[0.9]:
            wins += 1
    assert wins >= 4, f"beta=0.5 won only {wins}/5 seeds: {per_seed}"
    mean = {b: np.mean([m[b] for m in per_seed]) for b in (0.1, 0.5, 0.9)}
    print(f"[acceptance] criterion 5 PASS ({tech}) - beta 0.5 best in {wins}/5 seeds "
          f"(mean MAE 0.1:{mean[0.1]:.4f} 0.5:{mean[0.5]:.4f} 0.9:{mean[0.9]:.4f})")


@pytest.mark.parametrize("tech", TECHS)
@pytest.mark.parametrize("mode", ("curve", "step"))
def test_criterion_06_density_ordering(tech, mode, run_bank):
    def pooled(density, speed):
        return merge_series([highway_prr(run_bank, tech, mode, 0.5, seed, density=density,
                                         speed=speed, road_length=1000.0, duration=10.0,
                                         max_prr=500.0, betas=(0.5,))
                             for seed in (1, 2, 3)])

    low = pooled(100.0, 96.0)
    high = pooled(400.0, 56.0)
    centers = 0.5 * (low.bin_edges[:-1] + low.bin_edges[1:])
    checked = 0
    for i, c in enumerate(centers):
        if c <= 100.0 or low.opportunities[i] == 0 or high.opportunities[i] == 0:
            continue
        prr_low = low.received[i] / low.opportunities[i]
        prr_high = high.received[i] / high.opportunities[i]
        assert prr_high <= prr_low, (
            f"bin {c} m: PRR(400)={prr_high:.4f} > PRR(100)={prr_low:.4f}")
        checked += 1
    assert checked >= 10
    print(f"[acceptance] criterion 6 PASS ({tech}/{mode}) - ordering holds in "
          f"{checked} bins beyond 100 m")


def ccdf_checks(store, airtime_s, label):
    gaps = np.asarray(store.ipg.gaps)
    assert gaps.size > 50, f"{label}: too few gaps recorded"
    floor = 0.1 - airtime_s
    assert gaps.min() >= floor - 1e-9, (
        f"{label}: gap {gaps.min():.6f} below floor {floor:.6f}")
    grid = np.arange(0.01, 1.0, 0.01)
    values = [c for _, c in ipg_ccdf(gaps, grid)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    just_after = dict(ipg_ccdf(gaps, [0.05, 0.101]))
    assert just_after[0.05] == 1.0
    assert just_after[0.101] < 1.0
    return gaps


def test_criterion_07_ipg_floor():
    # 11p: an isolated pair; phases from the seed stay far enough apart that
    # access delay is the bare AIFS every period, so gaps sit at the period
    setup = make_setup("11p", seed=2, duration=20.0, warmup=0.5, road_length=4000.0,
                       vehicles=vehicle_pair(100.0, speed_ms=26.67))
    store = run(setup, reception_for("11p", "curve"))
    gaps_11p = ccdf_checks(store, tx_time(setup.run.theta), "11p")

    # C-V2X: keep probability 1 pins each reservation, isolating the periodic
    # floor from reselection (a reselection may legally move the slot earlier)
    vehicles = [VehicleState(i, 0, 300.0 + 80.0 * i, 26.67, +1) for i in range(4)]
    setup = make_setup("cv2x", seed=1, duration=20.0, warmup=0.5, road_length=4000.0,
                       vehicles=vehicles)
    setup = replace(setup, sps=replace(setup.sps, keep_probability=1.0))
    store_cv = run(setup, reception_for("cv2x", "curve"))
    gaps_cv = ccdf_checks(store_cv, tx_time(setup.run.theta), "cv2x")
    print(f"[acceptance] criterion 7 PASS - 11p min gap {gaps_11p.min()*1e3:.2f} ms "
          f"({gaps_11p.size} gaps), cv2x min gap {gaps_cv.min()*1e3:.2f} ms "
          f"({gaps_cv.size} gaps)")


def test_criterion_08_link_budget_constants():
    cfg = built_setup().propagation
    assert noise_power_dbm(cfg) == -174.0 + 10.0 * math.log10(10e6) + 6.0
    assert noise_power_dbm(cfg) == pytest.approx(-98.0, abs=1e-12)
    assert cfg.tx_power_dbm == pytest.approx(23.0, abs=1e-12)
    print("[acceptance] criterion 8 PASS - noise -98 dBm, tx power 23 dBm")


def test_criterion_09_determinism_byte_identical(tmp_path):
    curve = curve_path(CURVES["11p"])
    args = ["simulate", "--set", f"reception.curve_file={curve}",
            "--set", "run.sim_duration_s=4.0", "--set", "run.warmup_s=0.5",
            "--set", "road.density_vpk=30.0", "--set", "road.road_length_m=1000.0"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("prr.csv", "ipg_ccdf.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print("[acceptance] criterion 9 PASS - prr.csv and ipg_ccdf.csv byte-identical")


def test_criterion_10_mac_invariant_sweeps():
    # 802.11p: no node may start transmitting while it senses the medium busy
    trace = TraceLog()
    run(make_setup("11p", seed=4, duration=10.0, warmup=0.5, density=50.0,
                   road_length=1000.0), reception_for("11p", "curve"), trace=trace)
    assert len(trace.tx_starts) > 2000
    busy_starts = [t for t in trace.tx_starts if t[2]]
    assert not busy_starts, f"{len(busy_starts)} transmissions started while busy"

    # sidelink: selection window bounds, candidate share, counter stepping
    trace_cv = TraceLog()
    run(make_setup("cv2x", seed=4, duration=10.0, warmup=0.5, density=50.0,
                   road_length=1000.0), reception_for("cv2x", "curve"), trace=trace_cv)
    assert trace_cv.sps_selections
    for trigger, sel in trace_cv.sps_selections:
        assert trigger + 1 <= sel.tti <= trigger + 100
        assert sel.candidates_kept >= math.ceil(0.2 * sel.candidates_total)
        assert 5 <= sel.reselection_counter <= 15
    for vid, before, after in trace_cv.sps_counters:
        if before > 1:
            assert after == before - 1
        else:
            assert after == 0 or 5 <= after <= 15

    # keep decisions stay near one half over ten thousand seeded draws
    params = built_setup().sps
    state = SpsState()
    rng = stream(77, "keep-sweep")
    keeps = []
    for _ in range(10_000):
        state.reselection_counter = 1
        state.needs_reselection = False
        keeps.append(sps_after_transmission(state, params, rng))
    frac = float(np.mean(keeps))
    assert 0.48 <= frac <= 0.52
    print(f"[acceptance] criterion 10 PASS - {len(trace.tx_starts)} clean tx starts, "
          f"{len(trace_cv.sps_selections)} in-window selections, "
          f"keep fraction {frac:.4f}")
