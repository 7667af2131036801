"""Command-line frontend.

Commands: fit-alpha, derive-threshold, select-beta, simulate, validate,
print-config. Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import __version__, config as cfgmod
from .abstraction import (AbstractionModel, FitPoint, fit_alpha, normalize_curve,
                          select_beta, shannon_throughput, threshold_for_settings,
                          threshold_from_curve, CurveMeta, PerCurve, StepFunction)
from .engine import SharedRun, run
from .errors import ConfigError, DataError
from .metrics import MetricStore, ipg_ccdf, mae
from .settings import effective_throughput, tx_time
from .util import linear_to_db

DEFAULT_BETAS = (0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)


# ---------------------------------------------------------------------------
# curve and model files


def parse_curve_filename(name: str):
    stem = os.path.basename(name)
    if stem.endswith(".csv"):
        stem = stem[:-4]
    parts = stem.split("_")
    if len(parts) < 4 or not parts[-1].endswith("B") or not parts[-2].startswith("mcs"):
        raise DataError(
            f"curve filename {name!r} does not match <scenario>_<tech>_mcs<k>_<bytes>B.csv"
        )
    try:
        payload = int(parts[-1][:-1])
        mcs = int(parts[-2][3:])
    except ValueError as exc:
        raise DataError(f"curve filename {name!r} has malformed mcs/payload") from exc
    tech = parts[-3]
    if tech not in ("11p", "cv2x"):
        raise DataError(f"curve filename {name!r} has unknown technology {tech!r}")
    scenario = "_".join(parts[:-3])
    return scenario, tech, mcs, payload


def load_curve_csv(path: str) -> PerCurve:
    scenario, tech, mcs, payload = parse_curve_filename(path)
    meta = CurveMeta(scenario_id=scenario, technology=tech, mcs_index=mcs,
                     payload_bytes=payload)
    return normalize_curve(_read_csv(path, "sinr_db,per"), meta)


def write_model_file(path: str, model: AbstractionModel, fit_rows):
    cp = configparser.ConfigParser(interpolation=None)
    cp["model"] = {
        "scenario_id": model.scenario_id,
        "alpha_hat": f"{model.alpha_hat:.10g}",
        "beta": f"{model.beta:.10g}",
        "bandwidth_hz": f"{model.bandwidth_hz:.10g}",
        "rmse_bps": f"{model.rmse:.10g}",
        "n_points": str(model.n_points),
    }
    for i, row in enumerate(fit_rows, start=1):
        cp[f"fit.{i}"] = {
            "settings_tag": row["settings_tag"],
            "psi_e_bps": f"{row['psi_e']:.10g}",
            "psi_s_bps": f"{row['psi_s']:.10g}",
            "gamma_th_db": f"{row['gamma_th_db']:.10g}",
        }
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def load_model_file(path: str) -> AbstractionModel:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise DataError(f"model file {path}: {exc}") from exc
    if not read:
        raise DataError(f"model file not found: {path}")
    if not cp.has_section("model"):
        raise DataError(f"model file {path}: missing [model] section")
    try:
        sec = cp["model"]
        return AbstractionModel(
            alpha_hat=float(sec["alpha_hat"]),
            bandwidth_hz=float(sec["bandwidth_hz"]),
            beta=float(sec["beta"]),
            scenario_id=sec.get("scenario_id", ""),
            rmse=float(sec.get("rmse_bps", "0")),
            n_points=int(sec.get("n_points", "0")),
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"model file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# metric emission


def write_prr_csv(path: str, store: MetricStore):
    prr = store.prr
    centers = 0.5 * (prr.bin_edges[:-1] + prr.bin_edges[1:])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_center_m,prr,opportunities\n")
        for c, r, n in zip(centers, prr.received, prr.opportunities):
            if n > 0:
                fh.write(f"{c:.1f},{r / n:.8f},{int(n)}\n")


def write_ipg_csv(path: str, store: MetricStore, grid):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_s,ccdf\n")
        for t, c in ipg_ccdf(store.ipg.gaps, grid):
            fh.write(f"{t:.3f},{c:.8f}\n")


def write_mae_csv(path: str, rows, best: float):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("beta,mae,best\n")
        for beta, value in rows:
            fh.write(f"{beta:.3f},{value:.8f},{int(beta == best)}\n")


def _read_csv(path: str, header: str):
    """The rows of a CSV file as tuples of numbers.

    The header must read `header` up to case and spaces; a row of another
    length or with a cell that is not a number is an error naming its line.
    """
    if not os.path.isfile(path):
        raise DataError(f"file not found: {path}")
    rows, width = [], header.count(",") + 1
    with open(path, "r", encoding="utf-8") as fh:
        got = fh.readline().strip()
        if got.lower().replace(" ", "") != header:
            raise DataError(f"{path}: expected header {header!r}, got {got!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                row = tuple(map(float, line.split(",")))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: not a number in {line!r}") from exc
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: wrong column count in {line!r}")
            rows.append(row)
    return rows


def read_prr_csv(path: str):
    return _read_csv(path, "bin_center_m,prr,opportunities")


def read_ipg_csv(path: str):
    return _read_csv(path, "t_s,ccdf")


def read_mae_csv(path: str):
    return _read_csv(path, "beta,mae,best")


def write_manifest(path: str, cp, command: str):
    out = cfgmod.new_parser()
    out.read_dict({s: dict(cp[s]) for s in cp.sections()})
    out["meta"] = {"command": command, "version": __version__}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        out.write(fh)


# ---------------------------------------------------------------------------
# reception model assembly


def read_reception(cp) -> dict:
    """The one reader of [reception]: every key is checked, whichever command runs."""
    rx = {key: cfgmod._get(cp, "reception", key, conv, allow_blank=blank)
          for key, conv, blank in (("mode", str, False), ("threshold_source", str, False),
                                   ("beta", float, False), ("threshold_db", float, True),
                                   ("curve_file", str, True), ("model_file", str, True))}
    if rx["mode"] not in ("step", "curve"):
        raise ConfigError(f"reception.mode must be step or curve, got {rx['mode']!r}")
    if rx["threshold_source"] not in ("curve", "model", "explicit"):
        raise ConfigError("reception.threshold_source must be curve, model or explicit, "
                          f"got {rx['threshold_source']!r}")
    # a target PER, whichever source the step threshold comes from
    if not 0 < rx["beta"] < 1:
        raise ConfigError(f"reception.beta must be in (0, 1), got {rx['beta']}")
    return rx


def build_reception(cp, mode: str | None = None) -> PerCurve | StepFunction:
    """The configured reception model: the PER curve, or a step threshold."""
    rx = read_reception(cp)
    if (mode or rx["mode"]) == "curve":
        if not rx["curve_file"]:
            raise ConfigError("reception.curve_file is required for the curve model")
        return load_curve_csv(rx["curve_file"])
    if rx["threshold_source"] == "curve":
        if not rx["curve_file"]:
            raise ConfigError("reception.curve_file is required for threshold_source=curve")
        return threshold_from_curve(load_curve_csv(rx["curve_file"]), rx["beta"])
    if rx["threshold_source"] == "model":
        if not rx["model_file"]:
            raise ConfigError("reception.model_file is required for threshold_source=model")
        model = load_model_file(rx["model_file"])
        theta = cfgmod.theta_for(cp, cfgmod._get(cp, "run", "technology", str))
        return threshold_for_settings(theta, model)
    if rx["threshold_db"] is None:
        raise ConfigError("reception.threshold_db is required for threshold_source=explicit")
    return StepFunction(gamma_th=10.0 ** (rx["threshold_db"] / 10.0), beta=rx["beta"])


def ipg_grid(cp):
    step = cfgmod._get(cp, "metrics", "ipg_grid_step_s", float)
    top = cfgmod._get(cp, "metrics", "ipg_grid_max_s", float)
    if not 0 < step <= top:
        raise ConfigError("metrics.ipg_grid_step_s must be > 0 and at most "
                          "metrics.ipg_grid_max_s")
    try:  # one array, so that a grid too fine to hold fails at once
        grid = np.arange(1, int(round(top / step)) + 1, dtype=float)
    except (MemoryError, OverflowError, ValueError):  # numpy's "array is too big" is a ValueError
        raise ConfigError(f"an IPG grid of {top / step:.3g} steps does not fit in memory: raise "
                          "metrics.ipg_grid_step_s or lower metrics.ipg_grid_max_s") from None
    grid *= step  # each point is step * i, as a float product
    return grid


# ---------------------------------------------------------------------------
# commands


def load(args):
    """The config, setup and IPG grid of a command: every command starts here, so
    that a bad value of any key exits 2 whichever keys the command goes on to read."""
    cp = cfgmod.load_config(args.config, args.set or [])
    read_reception(cp)
    return cp, cfgmod.build_setup(cp), ipg_grid(cp)


def cmd_print_config(args) -> int:
    sys.stdout.write(cfgmod.DEFAULT_CONFIG)
    return 0


def cmd_fit_alpha(args) -> int:
    cp, setup, _ = load(args)
    bandwidth = setup.propagation.bandwidth_hz
    if not os.path.isdir(args.curves):
        raise DataError(f"curve directory not found: {args.curves}")
    picked = []
    for name in sorted(os.listdir(args.curves)):
        if not name.endswith(".csv"):
            continue
        try:
            scenario = parse_curve_filename(name)[0]
        except DataError:
            continue
        if scenario == args.scenario:
            picked.append(name)
    if not picked:
        raise DataError(
            f"no curves for scenario {args.scenario!r} under {os.path.abspath(args.curves)}"
        )
    points, rows = [], []
    for name in picked:
        curve = load_curve_csv(os.path.join(args.curves, name))
        meta = curve.meta
        theta = cfgmod.theta_for(cp, meta.technology, meta.mcs_index, meta.payload_bytes)
        step = threshold_from_curve(curve, args.beta)
        psi_e = effective_throughput(theta)
        psi_s = shannon_throughput(step.gamma_th, bandwidth)
        tag = curve.meta.tag()
        points.append(FitPoint(psi_e=psi_e, psi_s=psi_s, settings_tag=tag))
        rows.append({"settings_tag": tag, "psi_e": psi_e, "psi_s": psi_s,
                     "gamma_th_db": step.gamma_th_db})
    model = fit_alpha(points, bandwidth, args.beta, scenario_id=args.scenario)
    write_model_file(args.out, model, rows)
    print(f"scenario {args.scenario}: alpha_hat={model.alpha_hat:.4f} "
          f"beta={args.beta} n={model.n_points} rmse={model.rmse / 1e6:.4f} Mb/s")
    print(f"model written to {args.out}")
    return 0


def cmd_derive_threshold(args) -> int:
    cp, _, _ = load(args)
    model = load_model_file(args.model)
    tech = args.tech or cfgmod._get(cp, "run", "technology", str)
    theta = cfgmod.theta_for(cp, tech, args.mcs, args.payload)
    print(f"technology: {tech}  payload: {theta.payload_bytes} B  "
          f"mcs: {theta.mcs_index}")
    print(f"effective throughput: {effective_throughput(theta) / 1e6:.4f} Mb/s  "
          f"airtime: {tx_time(theta) * 1e6:.1f} us")
    try:
        step = threshold_for_settings(theta, model)
    except ConfigError:  # the only failure: the threshold collapses to gamma <= 0
        print("threshold: below any threshold (zero-throughput limit)")
        return 0
    print(f"threshold: {float(linear_to_db(step.gamma_th)):.2f} dB "
          f"(linear {step.gamma_th:.4f})")
    return 0


def _counted(store: MetricStore) -> MetricStore:
    """The store of a run that counted a reception opportunity after warmup, so
    that its PRR has a populated bin; else a data error."""
    if store.opportunities == 0:
        raise DataError("the run counted no reception opportunity after run.warmup_s: "
                        "raise run.max_range_m, road.density_vpk or run.sim_duration_s")
    return store


def _reported(store: MetricStore) -> MetricStore:
    """The store of a run that counted a reception opportunity and an inter-packet
    gap, so that neither prr.csv nor ipg_ccdf.csv is a bare header; else a data error."""
    _counted(store)
    if store.ipg.gaps.size == 0:
        raise DataError("no pair within metrics.ipg_range_m received twice after "
                        "run.warmup_s, so ipg_ccdf.csv would be empty: raise "
                        "run.sim_duration_s or metrics.ipg_range_m, or lower "
                        "traffic.generation_period_ms")
    return store


def _write_outputs(cp, store: MetricStore, grid, out_dir: str, command: str):
    # made once every run has succeeded, so that a failed run leaves no directory
    os.makedirs(out_dir, exist_ok=True)
    write_prr_csv(os.path.join(out_dir, "prr.csv"), store)
    write_ipg_csv(os.path.join(out_dir, "ipg_ccdf.csv"), store, grid)
    write_manifest(os.path.join(out_dir, "manifest.ini"), cp, command)


def cmd_simulate(args) -> int:
    cp, setup, grid = load(args)
    store = _reported(run(setup, build_reception(cp)))
    _write_outputs(cp, store, grid, args.out, "simulate")
    print(f"simulated {store.transmitted} transmissions, "
          f"{store.opportunities} reception opportunities, "
          f"{store.received_total} received")
    print(f"outputs in {args.out}: prr.csv ipg_ccdf.csv manifest.ini")
    return 0


def parse_betas(text: str) -> list[float]:
    """The beta list of `--betas`: comma-separated numbers, each given once."""
    try:
        betas = [float(b) for b in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--betas must be a comma list of numbers, got {text!r}") from exc
    # mae.csv has one row per beta, and a repeated one would tie with itself for best
    if len(set(betas)) < len(betas):
        raise ConfigError(f"--betas must not repeat a value, got {text!r}")
    return betas


def cmd_select_beta(args) -> int:
    cp, setup, _ = load(args)
    curve = build_reception(cp, mode="curve")
    betas = parse_betas(args.betas) if args.betas else list(DEFAULT_BETAS)
    # every threshold first, so that a bad beta fails before any simulation
    steps = {beta: threshold_from_curve(curve, beta) for beta in betas}
    # the channel is simulated once for the curve and every beta; mae.csv
    # reads no inter-packet gap
    shared = SharedRun([curve, *steps.values()], ipg=False)
    benchmark = _counted(run(setup, curve, shared=shared)).prr

    def simulate_beta(beta):
        return run(setup, steps[beta], shared=shared).prr

    beta_hat, table = select_beta(betas, benchmark, simulate_beta)
    os.makedirs(args.out, exist_ok=True)
    write_mae_csv(os.path.join(args.out, "mae.csv"), table, beta_hat)
    write_manifest(os.path.join(args.out, "manifest.ini"), cp, "select-beta")
    print("beta  mae")
    for beta, value in table:
        marker = "  <- best" if beta == beta_hat else ""
        print(f"{beta:.2f}  {value:.4f}{marker}")
    print(f"beta_hat = {beta_hat}")
    return 0


def cmd_validate(args) -> int:
    cp, setup, grid = load(args)
    # both models first, so that a bad one writes no output; the channel is
    # simulated once for both
    curve_model = build_reception(cp, mode="curve")
    step_model = build_reception(cp, mode="step")
    shared = SharedRun([curve_model, step_model])
    bench, step = (_reported(run(setup, model, shared=shared))
                   for model in (curve_model, step_model))
    for name, store in (("curve", bench), ("step", step)):
        _write_outputs(cp, store, grid, os.path.join(args.out, name), "validate")
    value = mae(bench.prr, step.prr)
    # the beta the step model was cut at: the model file's under threshold_source=model
    beta = step_model.beta
    write_mae_csv(os.path.join(args.out, "mae.csv"), [(beta, value)], beta)
    print(f"MAE(step beta={beta} vs curve) = {value:.4f}")
    print(f"outputs in {args.out}/curve and {args.out}/step")
    return 0


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xsim",
        description="Network-level V2X simulator with a one-parameter PHY abstraction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="config file (defaults built in)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")

    p = sub.add_parser("print-config", help="dump the annotated default config")
    p.set_defaults(func=cmd_print_config)

    p = sub.add_parser("fit-alpha", help="fit the implementation loss from curves")
    add_common(p)
    p.add_argument("--curves", required=True, help="directory of curve CSV files")
    p.add_argument("--scenario", required=True, help="scenario id to select curves")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_fit_alpha)

    p = sub.add_parser("derive-threshold", help="threshold for a configuration")
    add_common(p)
    p.add_argument("--model", required=True, help="fitted model file")
    p.add_argument("--tech", choices=("11p", "cv2x"), default=None)
    p.add_argument("--mcs", type=int, default=None)
    p.add_argument("--payload", type=int, default=None)
    p.set_defaults(func=cmd_derive_threshold)

    p = sub.add_parser("simulate", help="run one simulation")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select-beta", help="MAE table over a beta grid")
    add_common(p)
    p.add_argument("--betas", default=None, help="comma list, default the standard grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_beta)

    p = sub.add_parser("validate", help="curve-mode vs step-mode comparison")
    add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
