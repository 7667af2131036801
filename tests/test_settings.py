"""Timing and throughput math, checked against straight-line re-derivations."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import built_setup, default_theta

from v2xsim.errors import ConfigError
from v2xsim.settings import (NBPS_TABLE, PrbTable, effective_throughput, resolve_nprb,
                             tx_time_11p, tx_time_cv2x)

TABLE = built_setup().prb_table
THETA_11P, THETA_CV2X = default_theta("11p"), default_theta("cv2x")


def theta_11p(payload, **changes):
    return replace(THETA_11P, payload_bytes=payload, **changes)


def theta_cv2x(**changes):
    return replace(THETA_CV2X, **changes)


# --- transmission times -----------------------------------------------------

def test_tx_time_11p_350_bytes_qpsk():
    # 2800 bits / 48 per symbol -> 59 symbols; 110 + 40 + 472 us
    assert tx_time_11p(theta_11p(350)) == pytest.approx(622e-6, rel=1e-12)


def test_tx_time_11p_single_symbol():
    assert tx_time_11p(theta_11p(6)) == pytest.approx(158e-6, rel=1e-12)


def test_tx_time_11p_550_bytes_16qam():
    # 4400 / 96 -> 46 symbols; 110 + 40 + 368 us
    assert tx_time_11p(theta_11p(550, mcs_index=4)) == pytest.approx(518e-6, rel=1e-12)


def test_mcs_index_sets_the_symbol_rate():
    # 2800 / 96 -> 30 symbols; 110 + 40 + 240 us
    s = theta_11p(350, mcs_index=4)
    assert s.n_bps == 96
    assert tx_time_11p(s) == pytest.approx(390e-6, rel=1e-12)


def test_tx_time_cv2x_subcapacity_single_tti():
    s = theta_cv2x(payload_bytes=350, n_prb_pkt=38)
    assert tx_time_cv2x(s) == pytest.approx(1e-3, rel=1e-12)


def test_tx_time_cv2x_exact_fit():
    s = theta_cv2x(payload_bytes=350, n_prb_pkt=50)
    assert tx_time_cv2x(s) == pytest.approx(1e-3, rel=1e-12)


def test_tx_time_cv2x_two_short_ttis():
    s = theta_cv2x(payload_bytes=350, n_prb_pkt=75, t_tti_ms=0.5)
    assert s.n_tti == 2
    assert tx_time_cv2x(s) == pytest.approx(1.0e-3, rel=1e-12)


# --- effective throughput ---------------------------------------------------

def test_throughput_11p_350_bytes():
    got = effective_throughput(theta_11p(350))
    assert got == pytest.approx(2800 / 622e-6, rel=1e-12)
    assert got == pytest.approx(4.5016e6, rel=1e-4)


def test_throughput_cv2x_partial_grid():
    s = theta_cv2x(payload_bytes=350, n_prb_pkt=38)
    got = effective_throughput(s)
    assert got == pytest.approx(2.8e6 * 50 / 38, rel=1e-12)
    assert got == pytest.approx(3.684e6, rel=1e-3)


def test_throughput_cv2x_full_tti_collapses():
    s = theta_cv2x(payload_bytes=123, n_prb_pkt=50)
    assert effective_throughput(s) == pytest.approx(8 * 123 / 1e-3, rel=1e-12)


# --- table lookups -----------------------------------------------------------

# the symbol rate is resolved from the MCS index by `Ieee80211pSettings.n_bps`
@pytest.mark.parametrize("mcs,expected", [(2, 48), (0, 24), (4, 96), (7, 216)])
def test_resolve_nbps(mcs, expected):
    assert theta_11p(350, mcs_index=mcs).n_bps == expected


@pytest.mark.parametrize("mcs", [-1, 8])
def test_resolve_nbps_out_of_range(mcs):
    with pytest.raises(ConfigError, match="mcs_index must be in 0..7"):
        theta_11p(350, mcs_index=mcs)


def test_resolve_nprb_scan():
    # brute-force oracle: smallest n with 76*n >= 2800
    table = PrbTable(bits_per_prb={7: 76}, control_overhead_prbs=0)
    expected = next(n for n in range(1, 1000) if 76 * n >= 2800)
    assert expected == 37
    assert resolve_nprb(7, 350, table) == expected


def test_resolve_nprb_rejects_zero_payload():
    with pytest.raises(ConfigError):
        resolve_nprb(7, 0, TABLE)


def test_resolve_nprb_exact_boundary():
    table = replace(TABLE, bits_per_prb={3: 70})
    # 8 * 70 = 560 bits = exactly 8 PRBs of 70 bits
    assert resolve_nprb(3, 70, table) == 8


def test_resolve_nprb_unknown_mcs():
    with pytest.raises(ConfigError):
        resolve_nprb(99, 350, TABLE)


def test_default_table_mcs7_350B():
    # default ladder: 37 data PRBs for the 350-byte QPSK reference packet
    assert resolve_nprb(7, 350, TABLE) == 37


# --- invariants --------------------------------------------------------------

def test_tx_time_monotone_in_payload_and_mcs():
    times = [tx_time_11p(theta_11p(p)) for p in range(1, 900, 7)]
    assert all(b >= a for a, b in zip(times, times[1:]))
    by_rate = [tx_time_11p(theta_11p(350, mcs_index=m)) for m in range(len(NBPS_TABLE))]
    assert all(b <= a for a, b in zip(by_rate, by_rate[1:]))


def test_throughput_11p_below_gross_rate_and_limit():
    s = theta_11p(350)
    gross = s.n_bps / s.t_symbol_s
    assert effective_throughput(s) < gross
    big = theta_11p(10**7)
    assert effective_throughput(big) == pytest.approx(gross, rel=1e-3)


def test_throughput_cv2x_tti_split_invariant():
    # Eq-route value must equal the reduced closed form, which has no n_tti
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = theta_cv2x(
            payload_bytes=int(rng.integers(1, 2000)),
            n_subch=int(rng.integers(1, 11)),
            n_prb_subch=int(rng.integers(1, 21)),
            t_tti_ms=float(rng.choice([0.25, 0.5, 1.0])),
            n_prb_pkt=int(rng.integers(1, 300)),
        )
        closed = 8 * s.payload_bytes * s.n_prb_tti / (s.t_tti_s * s.n_prb_pkt)
        assert effective_throughput(s) == pytest.approx(closed, rel=1e-12)


def straight_line_11p(p_b, t_aifs, t_pre, t_sym, n_bps):
    n_sym = math.ceil(8 * p_b / n_bps)
    t = t_aifs + t_pre + t_sym * n_sym
    return t, 8 * p_b / t


def straight_line_cv2x(p_b, n_subch, n_prb_subch, t_tti, n_prb_pkt):
    n_prb_tti = n_subch * n_prb_subch
    n_tti = math.ceil(n_prb_pkt / n_prb_tti)
    t = t_tti * n_tti
    return t, (8 * p_b / t) * (n_prb_tti * n_tti / n_prb_pkt)


def test_agrees_with_independent_reimplementation():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = int(rng.integers(1, 3000))
        mcs = int(rng.integers(0, 8))
        s = theta_11p(p, mcs_index=mcs)
        t_ref, psi_ref = straight_line_11p(p, s.t_aifs_s, s.t_preamble_s,
                                           s.t_symbol_s, NBPS_TABLE[mcs])
        assert tx_time_11p(s) == pytest.approx(t_ref, rel=1e-12)
        assert effective_throughput(s) == pytest.approx(psi_ref, rel=1e-12)
    for _ in range(300):
        s = theta_cv2x(payload_bytes=int(rng.integers(1, 3000)),
                       n_subch=int(rng.integers(1, 11)),
                       n_prb_subch=int(rng.integers(1, 21)),
                       t_tti_ms=float(rng.choice([0.25, 0.5, 1.0])),
                       n_prb_pkt=int(rng.integers(1, 400)))
        t_ref, psi_ref = straight_line_cv2x(s.payload_bytes, s.n_subch,
                                            s.n_prb_subch, s.t_tti_s, s.n_prb_pkt)
        assert tx_time_cv2x(s) == pytest.approx(t_ref, rel=1e-12)
        assert effective_throughput(s) == pytest.approx(psi_ref, rel=1e-12)


def test_settings_validation():
    with pytest.raises(ConfigError):
        theta_11p(0)
    with pytest.raises(ConfigError):
        theta_11p(10, mcs_index=8)
    with pytest.raises(ConfigError, match="t_tti_ms"):
        theta_cv2x(payload_bytes=10, t_tti_ms=2.0)
    with pytest.raises(ConfigError, match=r"n_subch x n_prb_subch"):
        theta_cv2x(payload_bytes=10, n_subch=0)
    with pytest.raises(ConfigError):
        theta_cv2x(payload_bytes=10, n_prb_pkt=0)
