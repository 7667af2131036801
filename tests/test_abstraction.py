"""Step thresholding, Shannon mapping, loss fitting, threshold synthesis."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import default_theta

from v2xsim.abstraction import (AbstractionModel, CurveMeta, FitPoint, PerCurve,
                                fit_alpha, normalize_curve, pav_non_increasing,
                                select_beta, shannon_throughput,
                                threshold_for_settings, threshold_from_curve)
from v2xsim.errors import ConfigError, CurveRangeError, DataError
from v2xsim.metrics import PrrSeries
from v2xsim.settings import effective_throughput


def curve(points):
    pts = np.asarray(points, dtype=float)
    return PerCurve(pts[:, 0], pts[:, 1])


THREE_POINT = curve([(0, 0.9), (5, 0.5), (10, 0.1)])


# --- threshold_from_curve ----------------------------------------------------

def test_threshold_exact_sample_point():
    step = threshold_from_curve(THREE_POINT, 0.5)
    assert step.gamma_th_db == pytest.approx(5.0, abs=1e-12)
    assert step.gamma_th == pytest.approx(10 ** 0.5, rel=1e-12)  # 3.162


def test_threshold_interpolated():
    step = threshold_from_curve(THREE_POINT, 0.7)
    assert step.gamma_th_db == pytest.approx(2.5, abs=1e-12)


def test_threshold_midpoint_by_symmetry():
    step = threshold_from_curve(curve([(0, 1.0), (10, 0.0)]), 0.5)
    assert step.gamma_th_db == pytest.approx(5.0, abs=1e-12)


def test_threshold_flat_segment_takes_lowest():
    flat = curve([(0, 0.9), (4, 0.5), (7, 0.5), (10, 0.1)])
    assert threshold_from_curve(flat, 0.5).gamma_th_db == pytest.approx(4.0)


def test_threshold_out_of_range_names_curve():
    c = PerCurve(np.array([0.0, 10.0]), np.array([0.8, 0.2]),
                 CurveMeta("hw", "11p", 2, 350))
    for beta in (0.9, 0.2, 0.05):
        with pytest.raises(CurveRangeError, match="11p_mcs2_350B"):
            threshold_from_curve(c, beta)


def test_threshold_monotone_in_beta():
    betas = np.linspace(0.15, 0.85, 15)
    gammas = [threshold_from_curve(THREE_POINT, b).gamma_th for b in betas]
    assert all(g1 >= g2 for g1, g2 in zip(gammas, gammas[1:]))


# --- shannon_throughput -------------------------------------------------------

@pytest.mark.parametrize("gamma,expected", [(1.0, 10e6), (0.0, 0.0), (3.0, 20e6)])
def test_shannon_values(gamma, expected):
    assert shannon_throughput(gamma, 10e6) == pytest.approx(expected, abs=1e-6)


def test_shannon_rejects_negative():
    with pytest.raises(ConfigError):
        shannon_throughput(-0.1, 10e6)


# --- fit_alpha -----------------------------------------------------------------

def test_fit_exact_linear_data():
    points = [FitPoint(0.37 * s, s) for s in (5e6, 8e6, 12e6, 20e6)]
    model = fit_alpha(points, 10e6, 0.5, "hw")
    assert model.alpha_hat == pytest.approx(0.37, rel=1e-12)
    assert model.rmse == pytest.approx(0.0, abs=1e-6)
    assert model.n_points == 4


def test_fit_closed_form_two_points():
    model = fit_alpha([FitPoint(4e6, 10e6), FitPoint(6e6, 20e6)], 10e6, 0.5)
    assert model.alpha_hat == pytest.approx(0.32, rel=1e-12)


def test_fit_single_point_ratio():
    model = fit_alpha([FitPoint(5e6, 20e6)], 10e6, 0.5)
    assert model.alpha_hat == pytest.approx(0.25, rel=1e-12)


def test_fit_empty_errors():
    with pytest.raises(DataError):
        fit_alpha([], 10e6, 0.5)


def golden_section_alpha(psi_e, psi_s, lo=1e-6, hi=5.0, tol=1e-10):
    """Independent 1-D minimizer of the squared-residual objective."""
    inv_phi = (math.sqrt(5) - 1) / 2

    def objective(a):
        return float(np.sum((psi_e - a * psi_s) ** 2))

    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    while abs(b - a) > tol:
        if objective(c) < objective(d):
            b = d
        else:
            a = c
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    return 0.5 * (a + b)


def test_fit_matches_golden_section():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        psi_s = rng.uniform(1e6, 3e7, size=n)
        psi_e = rng.uniform(0.1, 0.9) * psi_s * rng.uniform(0.8, 1.2, size=n)
        model = fit_alpha([FitPoint(e, s) for e, s in zip(psi_e, psi_s)], 10e6, 0.5)
        assert model.alpha_hat == pytest.approx(
            golden_section_alpha(psi_e, psi_s), rel=1e-6)


def test_fit_scale_consistency():
    rng = np.random.default_rng(4)
    psi_s = rng.uniform(1e6, 2e7, size=6)
    psi_e = rng.uniform(0.2, 0.6) * psi_s
    base = fit_alpha([FitPoint(e, s) for e, s in zip(psi_e, psi_s)], 10e6, 0.5)
    scaled = fit_alpha([FitPoint(3.0 * e, s) for e, s in zip(psi_e, psi_s)], 10e6, 0.5)
    assert scaled.alpha_hat == pytest.approx(3.0 * base.alpha_hat, rel=1e-12)


# --- threshold_for_settings -----------------------------------------------------

def model_037():
    return AbstractionModel(alpha_hat=0.37, bandwidth_hz=10e6, beta=0.5)


def test_threshold_for_settings_unity_exponent():
    # payload 370 B over 40 of 50 PRBs: effective throughput exactly 3.7 Mb/s
    theta = replace(default_theta("cv2x"), payload_bytes=370, n_prb_pkt=40)
    assert effective_throughput(theta) == pytest.approx(3.7e6, rel=1e-12)
    step = threshold_for_settings(theta, model_037())
    assert step.gamma_th == pytest.approx(1.0, rel=1e-12)


def test_threshold_for_settings_double_exponent():
    theta = replace(default_theta("cv2x"), payload_bytes=740, n_prb_pkt=40)
    step = threshold_for_settings(theta, model_037())
    assert step.gamma_th == pytest.approx(3.0, rel=1e-12)


def test_threshold_for_settings_vanishing_throughput():
    theta = replace(default_theta("cv2x"), payload_bytes=1, n_subch=1, n_prb_subch=1,
                    n_prb_pkt=5000)
    step = threshold_for_settings(theta, model_037())
    assert 0.0 < step.gamma_th < 1e-3


def test_round_trip_identity_small():
    rng = np.random.default_rng(5)
    base = default_theta("11p")
    for _ in range(50):
        theta = replace(base, payload_bytes=int(rng.integers(1, 2000)))
        alpha = float(rng.uniform(0.05, 1.0))
        model = AbstractionModel(alpha_hat=alpha, bandwidth_hz=10e6, beta=0.5)
        step = threshold_for_settings(theta, model)
        back = alpha * 10e6 * math.log2(1.0 + step.gamma_th)
        assert back == pytest.approx(effective_throughput(theta), rel=1e-9)


# --- normalize_curve -------------------------------------------------------------

def test_normalize_identity_on_monotone_input():
    pts = [(0, 0.9), (5, 0.5), (10, 0.1)]
    out = normalize_curve(pts)
    assert np.allclose(out.per, [0.9, 0.5, 0.1])
    assert out.max_adjustment == 0.0


def test_normalize_pools_adjacent_violators():
    out = normalize_curve([(0, 0.5), (5, 0.6), (10, 0.1)])
    assert np.allclose(out.per, [0.55, 0.55, 0.1])


def test_normalize_clamps_and_flags():
    out = normalize_curve([(0, 1.2), (5, 0.5), (10, 0.1)])
    assert out.per[0] == 1.0
    assert out.max_adjustment == pytest.approx(0.2, rel=1e-12)


def test_normalize_rejects_duplicates_and_short_input():
    with pytest.raises(DataError):
        normalize_curve([(0, 0.9), (0, 0.5), (10, 0.1)])
    with pytest.raises(DataError):
        normalize_curve([(0, 0.9)])


def test_normalize_output_always_valid():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        sinr = np.sort(rng.choice(np.arange(-200, 200), size=n, replace=False)) / 4.0
        per = rng.uniform(-0.2, 1.3, size=n)
        out = normalize_curve(np.column_stack([sinr, per]))
        assert np.all(np.diff(out.per) <= 1e-12)
        assert np.all((out.per >= 0.0) & (out.per <= 1.0))
        assert np.all(np.diff(out.sinr_db) > 0)


def brute_force_non_increasing(y):
    """Exact oracle: best consecutive-block partition with non-increasing means."""
    n = len(y)
    best_cost, best_fit = None, None
    for mask in range(2 ** (n - 1)):
        blocks, start = [], 0
        for i in range(n - 1):
            if mask & (1 << i):
                blocks.append((start, i + 1))
                start = i + 1
        blocks.append((start, n))
        means = [float(np.mean(y[a:b])) for a, b in blocks]
        if any(m2 > m1 + 1e-15 for m1, m2 in zip(means, means[1:])):
            continue
        fit = np.concatenate([np.full(b - a, m) for (a, b), m in zip(blocks, means)])
        cost = float(np.sum((y - fit) ** 2))
        if best_cost is None or cost < best_cost - 1e-15:
            best_cost, best_fit = cost, fit
    return best_fit


def test_pav_matches_partition_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(50):
        y = rng.uniform(0, 1, size=int(rng.integers(2, 7)))
        assert np.allclose(pav_non_increasing(y), brute_force_non_increasing(y),
                           atol=1e-10)


# --- select_beta ------------------------------------------------------------------

def series(ratios, opportunities=100):
    edges = np.arange(0.0, 25.0 * (len(ratios) + 1), 25.0)
    n = np.full(len(ratios), opportunities, dtype=np.int64)
    r = np.round(np.asarray(ratios) * opportunities).astype(np.int64)
    return PrrSeries(edges, r, n)


def test_select_beta_identical_series():
    bench = series([1.0, 0.8, 0.5, 0.2])
    beta_hat, table = select_beta([0.1, 0.5, 0.9], bench, lambda b: series([1.0, 0.8, 0.5, 0.2]))
    assert all(m == 0.0 for _, m in table)
    assert beta_hat == 0.1  # ties resolve to the first candidate


def test_select_beta_constant_offset():
    bench = series([0.90, 0.70, 0.50], opportunities=100)

    def sim(beta):
        if beta == 0.5:
            return series([0.91, 0.71, 0.51], opportunities=100)
        return series([0.80, 0.60, 0.40], opportunities=100)

    beta_hat, table = select_beta([0.1, 0.5], bench, sim)
    assert beta_hat == 0.5
    maes = dict(table)
    assert maes[0.5] == pytest.approx(0.01, abs=1e-12)
    assert maes[0.1] == pytest.approx(0.10, abs=1e-12)


def test_select_beta_bin_mismatch_errors():
    bench = series([1.0, 0.5])
    with pytest.raises(DataError):
        select_beta([0.5], bench, lambda b: series([1.0, 0.5, 0.2]))
