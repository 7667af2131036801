"""Benchmark of the v2xsim command line: host time, set-up time and memory.

One workload per process, one CLI command at a time (a closed loop with a
single client). The workload's seed sets the simulation seed of each command
(`run_seeds`); everything else about the inputs is fixed below.

    python3 perfbench/run.py --workload 11p-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --compare before.jsonl after.jsonl

With --trace 0 the commands run untraced and the end-to-end metrics are
reported, in reference-host seconds: the host's speed is sampled while each
command and each cold set-up probe runs, and divided out (see hostspeed.py).
With --trace 1 untraced and traced commands alternate and the per-layer
metrics are reported (see tracing.py). Every command's outputs
are checked; --report FILE appends a full record of the run (fingerprints,
host context, every metric) as one JSON line. The last line printed is a
JSON summary: {"correct", "attempted", "failed", "metrics"}.
See DESIGN.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

from hostspeed import Sampler, calibration_s
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CURVES = SRC / "v2xsim" / "data" / "curves"
SCRATCH = ROOT / ".perfbench_tmp"
PROBE_TIMEOUT_S = 60
# a start-up is short and noisy (cv about 0.1 per probe): two per command
PROBES_PER_COMMAND = 2


class BenchError(Exception):
    """The benchmark cannot run here: no v2xsim sources, or a set-up probe failed."""


@dataclass(frozen=True)
class Workload:
    command: str  # v2xsim CLI command
    technology: str
    density_vpk: float
    speed_kmh: float
    duration_s: float
    warmup_s: float
    engine_runs: int  # engine.run calls one command makes

    def argv(self, seed: int, out_dir: Path, horizon=None) -> list[str]:
        duration, warmup = horizon or (self.duration_s, self.warmup_s)
        curve = CURVES / ("highway_los_11p_mcs2_350B.csv" if self.technology == "11p"
                          else "highway_los_cv2x_mcs7_350B.csv")
        sets = {
            "run.technology": self.technology,
            "run.seed": seed,
            "run.sim_duration_s": duration,
            "run.warmup_s": warmup,
            "road.density_vpk": self.density_vpk,
            "road.mean_speed_kmh": self.speed_kmh,
            # the seed moves vehicles, not how many there are: a Poisson count
            # would change the work per command by several percent per seed
            "road.placement": "fixed_count",
            "reception.curve_file": curve,
        }
        argv = [self.command, "--out", str(out_dir)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv


# 2 km wrap-around highway, step mode at beta 0.5 and the default beta grid
# are the CLI defaults; the bundled highway_los_*_350B curves are used.
# Horizons are short so that a run holds many commands, each about 1-2 s.
WORKLOADS = {
    "select-beta-11p": Workload("select-beta", "11p", 100.0, 96.0, 0.5, 0.15, 8),
    "11p-dense": Workload("simulate", "11p", 400.0, 56.0, 0.2, 0.05, 1),
    "cv2x-dense": Workload("simulate", "cv2x", 400.0, 56.0, 0.5, 0.15, 1),
}

# host times in reference-host seconds (divided by the sampled host slowdown)
END_TO_END = {"wall_s": "s", "decisions_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed by name but not in the summary line: error_rate is 0 when all is well,
# prr_mae exists on select-beta only, the raw_* host times are this host's
# and host_slowdown is what wall_s divided them by
REPORT_ONLY_END_TO_END = {"error_rate": "ratio", "prr_mae": "PRR", "raw_wall_s": "s",
                          "raw_decisions_per_s": "1/s", "raw_setup_s": "s",
                          "host_slowdown": "ratio"}

LAYER_METRICS = {
    "scenario.calls": "count", "scenario.self_s": "s",
    "channel.calls": "count", "channel.self_s": "s",
    "access.self_s": "s",
    "access.csma.calls": "count", "access.csma.self_s": "s",
    "access.csma.timer_pops": "count", "access.csma.timer_useful_ratio": "ratio",
    "access.sps.selections": "count", "access.sps.self_s": "s",
    "access.sps.keep_ratio": "ratio",
    "engine.runs": "count", "engine.self_s": "s",
    "engine.reception.calls": "count", "engine.reception.decisions": "count",
    "engine.reception.self_s": "s",
    "metrics.prr.calls": "count", "metrics.prr.self_s": "s",
    "metrics.ipg.calls": "count", "metrics.ipg.self_s": "s",
    "metrics.ccdf.self_s": "s",
    "abstraction.self_s": "s", "config.self_s": "s", "cli.io.self_s": "s",
    "access.tx_per_generated": "ratio", "engine.reception.success_ratio": "ratio",
    "trace.overhead_s": "s",
}
# each is exactly 0 on the other technology's workloads; access.self_s
# carries their sum in the summary line
REPORT_ONLY_LAYERS = ("access.csma.self_s", "access.sps.self_s")

COUNTERS = ("generated", "transmitted", "opportunities", "received_total",
            "lost_sinr", "lost_half_duplex")


# ---------------------------------------------------------------------------
# host context (recorded, never gated)


def load_v2xsim():
    """Import v2xsim from this checkout's src/, and nowhere else."""
    if not (SRC / "v2xsim" / "__init__.py").is_file():
        raise BenchError(f"no v2xsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import v2xsim.cli

    if Path(v2xsim.__file__).resolve().parent != (SRC / "v2xsim").resolve():
        raise BenchError(f"imported v2xsim from {v2xsim.__file__}, not from {SRC}")
    return v2xsim.cli


def steal_ticks():
    """Cumulative steal ticks of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def host_context() -> dict:
    import numpy as np
    import v2xsim

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "v2xsim": v2xsim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
# one command: run, check, fingerprint


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_store(store) -> list[str]:
    problems = []
    if store.opportunities != store.received_total + store.lost_sinr + store.lost_half_duplex:
        problems.append("opportunities != received + lost_sinr + lost_half_duplex")
    if (store.prr.received > store.prr.opportunities).any():
        problems.append("a PRR bin has more receptions than opportunities")
    return problems


def check_outputs(cli, workload: Workload, out_dir: Path):
    """Problems with the written CSVs, and the best-β MAE of mae.csv if there is one."""
    readers = {"prr.csv": cli.read_prr_csv, "ipg_ccdf.csv": cli.read_ipg_csv,
               "mae.csv": cli.read_mae_csv}
    expected = ("mae.csv",) if workload.command == "select-beta" else ("prr.csv", "ipg_ccdf.csv")
    problems = [f"{name} was not written" for name in expected
                if not (out_dir / name).is_file()]
    prr_mae = None
    for name, read in readers.items():
        if not (out_dir / name).is_file():
            continue
        try:
            rows = read(str(out_dir / name))
        except (cli.DataError, ValueError) as exc:
            problems.append(f"{name} does not parse: {exc}")
            continue
        if name == "mae.csv":
            best = [row[1] for row in rows if row[2] == 1.0]
            if len(best) == 1:
                prr_mae = best[0]
            else:
                problems.append("mae.csv does not have exactly one best=1 row")
    return problems, prr_mae


@dataclass
class Outcome:
    run_seed: int
    traced: bool
    wall_s: float  # host time, without the host speed samples' own time
    ref_wall_s: float | None  # the same in reference-host seconds; untraced only
    failed_runs: int
    problems: list
    fingerprint: dict
    tracer: Tracer | None
    prr_mae: float | None


def run_command(cli, workload: Workload, run_seed: int, argv, out_dir: Path, captured: list,
                tracer=None) -> Outcome:
    shutil.rmtree(out_dir, ignore_errors=True)
    rc, problems, prr_mae = None, [], None
    # traced commands are not sampled: the samples would land in layers' self time
    sampler = Sampler() if tracer is None else None
    if tracer is not None:
        tracer.install()
    else:
        sampler.start()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        else:
            sampler.stop()
    stores = list(captured)
    captured.clear()
    if rc != 0 and not problems:
        problems.append(f"exit code {rc}")
    if len(stores) != workload.engine_runs:
        problems.append(f"{len(stores)} engine runs, expected {workload.engine_runs}")
    if not problems:
        problems, prr_mae = check_outputs(cli, workload, out_dir)
    store_problems = [check_store(s) for s in stores]
    failed_runs = workload.engine_runs if problems else sum(1 for p in store_problems if p)
    for p in store_problems:
        problems += p
    fingerprint = {
        "csv_sha256": {p.name: sha256(p) for p in sorted(out_dir.glob("*.csv"))},
        "runs": [dict({k: int(getattr(s, k)) for k in COUNTERS}, ipg_gaps=len(s.ipg.gaps))
                 for s in stores],
    }
    del stores
    # the engine's objects form cycles; free them now rather than inside the
    # next command's timed region, so each command starts from the same heap
    gc.collect()
    if sampler is None:
        wall, ref_wall = elapsed, None
    elif sampler.samples:
        wall, ref_wall = elapsed - sampler.own_s(), sampler.normalize(elapsed)
    else:  # only a command that crashed at once ends before the first sample
        wall, ref_wall = elapsed, None
        problems.append("ended before the first host speed sample")
        failed_runs = workload.engine_runs
    return Outcome(run_seed=run_seed, traced=tracer is not None, wall_s=wall,
                   ref_wall_s=ref_wall,
                   failed_runs=failed_runs, problems=problems, fingerprint=fingerprint,
                   tracer=tracer, prr_mae=prr_mae)


def run_seeds(seed: int, trace: bool):
    """The simulation seed of each command of a run.

    The seed moves the simulated work of a command by up to 30% (where the
    vehicles start and when they first send), so an untraced run gives every
    command its own scenario and its medians average over them. The first
    scenario runs twice: once to warm caches up, once timed, and the two
    outputs must agree. A traced run repeats the first scenario, so its
    counts are exact for the seed.
    """
    yield seed * 1000
    for i in itertools.count():
        yield seed * 1000 + (0 if trace else i)


def setup_time(argv) -> tuple[float, float]:
    """One cold start up to the first engine.run, in a fresh interpreter.

    Returns its host time without the probe's host speed samples, and the
    same in reference-host seconds.
    """
    t0 = monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), *argv],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
    end, own_s, slowdown = (float(x) for x in proc.stdout.split()[-3:])
    raw = end - t0 - own_s
    return raw, raw / slowdown


# ---------------------------------------------------------------------------
# one workload run


def total(outcome: Outcome, counter: str) -> int:
    """A MetricStore counter summed over the command's engine runs."""
    return sum(run[counter] for run in outcome.fingerprint["runs"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(outcomes: list[Outcome]) -> dict:
    """Per-layer figures from the traced commands of one run."""
    plain = [o.wall_s for o in outcomes if not o.traced]
    traced = [o for o in outcomes if o.traced]
    first = traced[0].tracer

    def median_self(*layers):
        return statistics.median(sum(o.tracer.self_s[l] for l in layers) for o in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    counts = first.counts
    values = {
        "access.self_s": median_self("access.csma", "access.sps"),
        "access.csma.timer_pops": counts["timer_pops"],
        "access.csma.timer_useful_ratio": ratio(counts["timer_useful"], counts["timer_pops"]),
        "access.sps.selections": counts["selections"],
        "access.sps.keep_ratio": ratio(counts["keeps"], counts["keep_draws"]),
        "engine.runs": first.calls["engine"],
        "engine.reception.decisions": counts["decisions"],
        "access.tx_per_generated": ratio(total(traced[0], "transmitted"),
                                         total(traced[0], "generated")),
        "engine.reception.success_ratio": ratio(total(traced[0], "received_total"),
                                                total(traced[0], "opportunities")),
        "trace.overhead_s": (statistics.median(o.wall_s for o in traced)
                             - statistics.median(plain)),
    }
    for name in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if name not in values:
            values[name] = first.calls[layer] if kind == "calls" else median_self(layer)
    return {name: metric(values[name], unit) for name, unit in LAYER_METRICS.items()}


def interquartile_mean(values) -> float:
    """Mean of the middle half: the commands run different scenarios, whose
    mean it estimates better than the median does, without the outliers."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def time_metrics(timed: list[Outcome], setup: list[tuple[float, float]]) -> dict:
    """Interquartile means over the timed commands, medians over the set-up
    probes of one run.

    The end-to-end times are in reference-host seconds; the raw_* ones are
    this host's, for context.
    """
    def median(values):
        return statistics.median(list(values))

    return {
        "wall_s": metric(interquartile_mean(o.ref_wall_s for o in timed), "s"),
        "decisions_per_s": metric(interquartile_mean(
            total(o, "opportunities") / o.ref_wall_s for o in timed), "1/s"),
        "setup_s": metric(median(ref for _, ref in setup), "s"),
        "raw_wall_s": metric(interquartile_mean(o.wall_s for o in timed), "s"),
        "raw_decisions_per_s": metric(interquartile_mean(
            total(o, "opportunities") / o.wall_s for o in timed), "1/s"),
        "raw_setup_s": metric(median(raw for raw, _ in setup), "s"),
        "host_slowdown": metric(median(o.wall_s / o.ref_wall_s for o in timed), "ratio"),
    }


def traced_counts(outcome: Outcome):
    t = outcome.tracer
    return dict(t.calls), dict(t.counts)


def run_workload(name: str, seed: int, seconds: float, trace: bool, horizon=None) -> dict:
    """Run one workload for `seconds` and return its full record.

    `horizon` (duration_s, warmup_s) replaces the workload's simulated time;
    the benchmark itself never sets it, tests use it to stay small.
    """
    cli = load_v2xsim()
    workload = WORKLOADS[name]
    out_dir = SCRATCH / f"{name}-{os.getpid()}"
    context = host_context()
    steal_before = steal_ticks()
    setup = []

    captured = []
    engine_run = cli.run

    def capturing_run(*args, **kwargs):
        store = engine_run(*args, **kwargs)
        captured.append(store)
        return store

    cli.run = capturing_run
    outcomes = []
    try:
        deadline = perf_counter() + seconds
        for run_seed in run_seeds(seed, trace):
            argv = workload.argv(run_seed, out_dir, horizon)
            traced_turn = trace and len(outcomes) % 2 == 1
            if not trace:
                setup += [setup_time(argv) for _ in range(PROBES_PER_COMMAND)]
            outcomes.append(run_command(cli, workload, run_seed, argv, out_dir, captured,
                                        Tracer() if traced_turn else None))
            if perf_counter() >= deadline and len(outcomes) >= 2:
                break
    finally:
        cli.run = engine_run
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    steal_after = steal_ticks()

    # the outputs of each scenario, from its first command that had no problem
    fingerprints = {}
    for o in outcomes:
        if not o.problems:
            fingerprints.setdefault(o.run_seed, o.fingerprint)
    trace_reference = next((traced_counts(o) for o in outcomes if o.traced), None)
    for o in outcomes:
        if not o.problems and o.fingerprint != fingerprints[o.run_seed]:
            o.problems.append("outputs differ from the scenario's first command's")
            o.failed_runs = workload.engine_runs
        if o.traced and traced_counts(o) != trace_reference:
            o.problems.append("traced counts differ from the first traced command's")
            o.failed_runs = workload.engine_runs

    attempted = workload.engine_runs * len(outcomes)
    failed = sum(o.failed_runs for o in outcomes)
    plain = [o for o in outcomes if not o.traced]
    metrics = {
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": metric(failed / attempted, "ratio"),
    }
    if not trace:
        # the first command and its probe warm caches up
        timed = [o for o in outcomes[1:] if o.ref_wall_s is not None]
        if not timed:
            raise BenchError("no command ran long enough to be timed")
        metrics.update(time_metrics(timed, setup[PROBES_PER_COMMAND:]))
    if workload.command == "select-beta" and plain[0].prr_mae is not None:
        metrics["prr_mae"] = metric(plain[0].prr_mae, "PRR")
    context["steal_ticks"] = (None if steal_before is None or steal_after is None
                              else steal_after - steal_before)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": workload.argv(outcomes[0].run_seed, out_dir, horizon),
        "context": context,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "fingerprints": {str(k): v for k, v in fingerprints.items()},
        "commands": [{"run_seed": o.run_seed, "traced": o.traced, "wall_s": o.wall_s,
                      "ref_wall_s": o.ref_wall_s,
                      "problems": o.problems, "fingerprint": o.fingerprint}
                     for o in outcomes],
        "setup_s": setup,
        "metrics": metrics,
        "layers": layer_metrics(outcomes) if trace else {},
    }


def summary_line(record: dict) -> dict:
    """The last line printed: end-to-end metrics untraced, per-layer metrics traced."""
    if record["trace"]:
        names = [n for n in LAYER_METRICS if n not in REPORT_ONLY_LAYERS]
        source = record["layers"]
    else:
        names = list(END_TO_END)
        source = record["metrics"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": {n: source[n] for n in names}}


def print_record(record: dict):
    ctx = record["context"]
    plain = sum(1 for c in record["commands"] if not c["traced"])
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['commands'])} commands ({plain} untraced), "
          f"{record['attempted']} engine runs, {record['failed']} failed")
    print(f"host: python {ctx['python']} numpy {ctx['numpy']} v2xsim {ctx['v2xsim']} "
          f"nproc {ctx['nproc']} steal_ticks {ctx['steal_ticks']} "
          f"calibration_s {ctx['calibration_s']:.4f}")
    for name, m in {**record["metrics"], **record["layers"]}.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for i, c in enumerate(record["commands"]):
        for problem in c["problems"]:
            print(f"  command {i}: {problem}")


# ---------------------------------------------------------------------------
# compare mode


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> bool:
    """Print fingerprint agreement and per-workload metric quartiles of two reports."""
    a, b = load_records(path_a), load_records(path_b)
    same = True
    print(f"A = {path_a}\nB = {path_b}")
    for name in WORKLOADS:
        # keyed by simulation seed: how many scenarios a run reaches depends on speed
        fa = {int(k): fp for r in a if r["workload"] == name
              for k, fp in r["fingerprints"].items()}
        fb = {int(k): fp for r in b if r["workload"] == name
              for k, fp in r["fingerprints"].items()}
        seeds = sorted(set(fa) & set(fb))
        if not (fa or fb):
            continue
        differ = [s for s in seeds if fa[s] != fb[s]]
        same = same and not differ
        status = ("no common simulation seed" if not seeds else
                  f"fingerprints DIFFER on simulation seeds {differ}" if differ else
                  f"fingerprints match on {len(seeds)} simulation seeds")
        print(f"\n{name}: {status}")
        print(f"  {'metric':<24}{'A median [q1, q3] n':>40}{'B median [q1, q3] n':>40}{'B/A':>8}")
        for metric_name, unit in {**END_TO_END, **REPORT_ONLY_END_TO_END}.items():
            cells, medians = [], []
            for records in (a, b):
                values = [r["metrics"][metric_name]["value"] for r in records
                          if r["workload"] == name and metric_name in r["metrics"]]
                if not values:
                    cells.append("-")
                    medians.append(None)
                    continue
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
                medians.append(q2)
            ratio = (f"{medians[1] / medians[0]:.3f}" if None not in medians and medians[0]
                     else "-")
            print(f"  {metric_name + ' (' + unit + ')':<24}{cells[0]:>40}{cells[1]:>40}{ratio:>8}")
    return same


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="append the full record of each run to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two reports instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.report:
        with open(args.report, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print_record(record)
    print(json.dumps(summary_line(record)))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, since peak RSS never goes down."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.report:
            cmd += ["--report", args.report]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
