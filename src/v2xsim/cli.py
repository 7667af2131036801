"""Command-line frontend.

Commands: fit-alpha, derive-threshold, select-beta, simulate, validate,
print-config. Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import __version__, config as cfgmod
from .abstraction import (AbstractionModel, FitPoint, fit_alpha, normalize_curve,
                          select_beta, shannon_throughput, threshold_for_settings,
                          threshold_from_curve, CurveMeta, PerCurve, StepFunction)
from .engine import LinkRecord, run
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
    if not os.path.isfile(path):
        raise DataError(f"curve file not found: {path}")
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower()
        if header.replace(" ", "") != "sinr_db,per":
            raise DataError(f"{path}: expected header 'sinr_db,per', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                s, p = line.split(",")
                points.append((float(s), float(p)))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row {line!r}") from exc
    meta = CurveMeta(scenario_id=scenario, technology=tech, mcs_index=mcs,
                     payload_bytes=payload)
    return normalize_curve(points, meta)


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
        if store.ipg.gaps.size:
            for t, c in ipg_ccdf(store.ipg.gaps, grid):
                fh.write(f"{t:.3f},{c:.8f}\n")


def write_mae_csv(path: str, rows, best: float):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("beta,mae,best\n")
        for beta, value in rows:
            fh.write(f"{beta:.3f},{value:.8f},{int(beta == best)}\n")


def _read_csv(path: str, expected_header: str):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise DataError(f"{path}: expected header {expected_header!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(expected_header.split(",")):
                raise DataError(f"{path}:{lineno}: wrong column count")
            rows.append(tuple(float(c) for c in cells))
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


def build_reception(cp, mode: str | None = None) -> PerCurve | StepFunction:
    """The configured reception model: the PER curve, or a step threshold."""
    section = cp["reception"]
    mode = mode or section.get("mode", "step").strip()
    beta = cfgmod._get(cp, "reception", "beta", float)
    curve_file = section.get("curve_file", "").strip()
    if mode == "curve":
        if not curve_file:
            raise ConfigError("reception.curve_file is required in curve mode")
        return load_curve_csv(curve_file)
    if mode != "step":
        raise ConfigError(f"reception.mode must be step or curve, got {mode!r}")
    source = section.get("threshold_source", "curve").strip()
    if source == "curve":
        if not curve_file:
            raise ConfigError("reception.curve_file is required for threshold_source=curve")
        return threshold_from_curve(load_curve_csv(curve_file), beta)
    if source == "model":
        model_file = section.get("model_file", "").strip()
        if not model_file:
            raise ConfigError("reception.model_file is required for threshold_source=model")
        model = load_model_file(model_file)
        theta = cfgmod.theta_for(cp, cp["run"]["technology"].strip())
        return threshold_for_settings(theta, model)
    if source == "explicit":
        threshold_db = cfgmod._get(cp, "reception", "threshold_db", float, allow_blank=True)
        if threshold_db is None:
            raise ConfigError("reception.threshold_db is required for threshold_source=explicit")
        return StepFunction(gamma_th=10.0 ** (threshold_db / 10.0), beta=beta)
    raise ConfigError(f"unknown threshold_source {source!r}")


def ipg_grid(cp):
    step = cfgmod._get(cp, "metrics", "ipg_grid_step_s", float)
    top = cfgmod._get(cp, "metrics", "ipg_grid_max_s", float)
    if not 0 < step <= top:
        raise ConfigError("metrics.ipg_grid_step_s must be > 0 and at most "
                          "metrics.ipg_grid_max_s")
    n = int(round(top / step))
    return [step * i for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# commands


def cmd_print_config(args) -> int:
    sys.stdout.write(cfgmod.DEFAULT_CONFIG)
    return 0


def cmd_fit_alpha(args) -> int:
    cp = cfgmod.load_config(args.config, args.set or [])
    # the whole setup, so that a bad value of any key fails here as in simulate
    bandwidth = cfgmod.build_setup(cp).propagation.bandwidth_hz
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
    cp = cfgmod.load_config(args.config, args.set or [])
    cfgmod.build_setup(cp)  # a bad value of any key fails here as in simulate
    model = load_model_file(args.model)
    tech = args.tech or cp["run"]["technology"].strip()
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


def _simulate_to_dir(cp, setup, reception, grid, out_dir: str, command: str,
                     links: LinkRecord | None = None) -> MetricStore:
    os.makedirs(out_dir, exist_ok=True)
    store = run(setup, reception, links=links)
    write_prr_csv(os.path.join(out_dir, "prr.csv"), store)
    write_ipg_csv(os.path.join(out_dir, "ipg_ccdf.csv"), store, grid)
    write_manifest(os.path.join(out_dir, "manifest.ini"), cp, command)
    return store


def cmd_simulate(args) -> int:
    cp = cfgmod.load_config(args.config, args.set or [])
    reception = build_reception(cp)
    store = _simulate_to_dir(cp, cfgmod.build_setup(cp), reception, ipg_grid(cp), args.out,
                             "simulate")
    print(f"simulated {store.transmitted} transmissions, "
          f"{store.opportunities} reception opportunities, "
          f"{store.received_total} received")
    print(f"outputs in {args.out}: prr.csv ipg_ccdf.csv manifest.ini")
    return 0


def parse_betas(text: str) -> list[float]:
    """The beta list of `--betas`: comma-separated numbers."""
    try:
        return [float(b) for b in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--betas must be a comma list of numbers, got {text!r}") from exc


def cmd_select_beta(args) -> int:
    cp = cfgmod.load_config(args.config, args.set or [])
    curve_file = cp["reception"]["curve_file"].strip()
    if not curve_file:
        raise ConfigError("select-beta needs reception.curve_file as the benchmark")
    curve = load_curve_csv(curve_file)
    betas = parse_betas(args.betas) if args.betas else list(DEFAULT_BETAS)
    # every threshold first, so that a bad beta fails before any simulation
    steps = {beta: threshold_from_curve(curve, beta) for beta in betas}
    # the channel is simulated once; each beta replays its link outcomes
    setup = cfgmod.build_setup(cp)
    links = LinkRecord()
    benchmark = run(setup, curve, links=links).prr

    def simulate_beta(beta):
        return run(setup, steps[beta], links=links).prr

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
    cp = cfgmod.load_config(args.config, args.set or [])
    curve_file = cp["reception"]["curve_file"].strip()
    if not curve_file:
        raise ConfigError("validate needs reception.curve_file as the benchmark")
    os.makedirs(args.out, exist_ok=True)
    # both models and the IPG grid first, so that a bad one writes no output;
    # the channel is simulated once and the step run replays its link outcomes
    curve_model = build_reception(cp, mode="curve")
    step_model = build_reception(cp, mode="step")
    grid = ipg_grid(cp)
    setup = cfgmod.build_setup(cp)
    links = LinkRecord()
    bench = _simulate_to_dir(cp, setup, curve_model, grid, os.path.join(args.out, "curve"),
                             "validate", links)
    step = _simulate_to_dir(cp, setup, step_model, grid, os.path.join(args.out, "step"),
                            "validate", links)
    value = mae(bench.prr, step.prr)
    beta = cfgmod._get(cp, "reception", "beta", float)
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
