"""Synthetic PER-vs-SINR curves for examples and tests.

Measured curves are proprietary to their link-level campaigns, so the
bundled data is generated here: logistic curves in dB whose midpoints sit at
the SINR where a chosen reference implementation loss would place the
threshold of the given configuration. Fitting the bundle with beta = 0.5
therefore recovers the reference loss almost exactly, which makes the files
useful both as documentation and as regression anchors.
"""

from __future__ import annotations

import numpy as np

from .abstraction import AbstractionModel, CurveMeta, PerCurve, threshold_for_settings
from .config import build_setup, load_config, theta_for
from .settings import Ieee80211pSettings, TechnologySettings


def logistic_per(sinr_db: np.ndarray, midpoint_db: float, slope_db: float) -> np.ndarray:
    """Decreasing logistic: PER = 0.5 at the midpoint, ~0.9 to 0.1 over 4.4 slopes."""
    return 1.0 / (1.0 + np.exp((np.asarray(sinr_db) - midpoint_db) / slope_db))


def synth_curve(theta: TechnologySettings, scenario_id: str, alpha_ref: float,
                bandwidth_hz: float, slope_db: float = 0.6,
                span_db: float = 10.0, step_db: float = 0.25) -> PerCurve:
    """Logistic curve whose beta=0.5 threshold matches the reference loss."""
    model = AbstractionModel(alpha_hat=alpha_ref, bandwidth_hz=bandwidth_hz, beta=0.5,
                             scenario_id=scenario_id)
    mid_db = threshold_for_settings(theta, model).gamma_th_db
    n = int(round(2 * span_db / step_db))
    sinr = mid_db + np.linspace(-span_db, span_db, n + 1)
    per = logistic_per(sinr, mid_db, slope_db)
    if isinstance(theta, Ieee80211pSettings):
        tech = "11p"
    else:
        tech = "cv2x"
    meta = CurveMeta(scenario_id=scenario_id, technology=tech,
                     mcs_index=theta.mcs_index, payload_bytes=theta.payload_bytes)
    return PerCurve(sinr, per, meta)


# (tech, mcs, payload) triples per bundled scenario, with the reference loss
# each bundle is generated against.
BUNDLES = {
    "highway_los": (0.37, [
        ("11p", 0, 350), ("11p", 2, 350), ("11p", 4, 350),
        ("11p", 0, 550), ("11p", 2, 550), ("11p", 4, 550),
        ("cv2x", 4, 350), ("cv2x", 5, 350), ("cv2x", 6, 350),
        ("cv2x", 7, 350), ("cv2x", 8, 350), ("cv2x", 11, 350),
        ("cv2x", 7, 550),
    ]),
    "crossing_nlos": (0.25, [
        ("11p", 0, 350), ("11p", 2, 350), ("11p", 4, 350),
        ("cv2x", 4, 350), ("cv2x", 5, 350), ("cv2x", 7, 350), ("cv2x", 11, 350),
    ]),
}


def curve_filename(curve: PerCurve) -> str:
    return f"{curve.meta.scenario_id}_{curve.meta.tag()}.csv"


def write_curve_csv(curve: PerCurve, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sinr_db,per\n")
        for s, p in zip(curve.sinr_db, curve.per):
            fh.write(f"{s:.6f},{p:.8f}\n")


def generate_bundles(out_dir):
    """Write every bundled scenario's curves into out_dir; returns the paths.

    Each settings vector and the bandwidth come from the default config, as
    in `fit-alpha`.
    """
    import os

    cp = load_config()
    bandwidth_hz = build_setup(cp).propagation.bandwidth_hz
    paths = []
    for scenario_id, (alpha_ref, triples) in BUNDLES.items():
        for tech, mcs, payload in triples:
            curve = synth_curve(theta_for(cp, tech, mcs, payload), scenario_id, alpha_ref,
                                bandwidth_hz)
            path = os.path.join(out_dir, curve_filename(curve))
            write_curve_csv(curve, path)
            paths.append(path)
    return paths
