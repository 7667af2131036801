"""PRR binning, IPG gap collection, CCDF, and the MAE metric."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import built_store, merge, prr_curve

from v2xsim.errors import ConfigError, DataError
from v2xsim.metrics import PrrSeries, bin_index, ipg_ccdf, mae, uniform_bin_edges


def fresh():
    store = built_store(2)
    return store.prr, store.ipg


def add_distances(prr, distances_m, received):
    prr.add_many(prr.bin_of(distances_m), np.asarray(received))


def add_receptions(ipg, tx, rx, distances_m, time_s):
    """IpgStore.add_many on the receptions inside the store's range limit."""
    near = ipg.near(distances_m)
    times = np.broadcast_to(np.asarray(time_s, dtype=float), near.shape)
    ipg.add_many(np.asarray(tx)[near], np.asarray(rx)[near], times[near])


def test_single_reception_fills_bin():
    prr, _ = fresh()
    add_distances(prr, np.array([5.0]), np.array([True]))
    assert prr.opportunities[0] == 1 and prr.received[0] == 1
    assert prr_curve(prr)[0] == (12.5, 1.0)


def test_gap_between_consecutive_receptions():
    _, ipg = fresh()
    add_receptions(ipg, np.array([0, 0]), np.array([1, 1]), np.array([50.0, 50.0]),
                   np.array([0.1, 0.3]))
    assert ipg.gaps.tolist() == [pytest.approx(0.2)]


def test_beyond_ipg_range_counts_for_prr_only():
    prr, ipg = fresh()
    d = np.array([151.0, 151.0])
    add_distances(prr, d, np.array([True, True]))
    add_receptions(ipg, np.array([0, 0]), np.array([1, 1]), d, np.array([0.1, 0.2]))
    assert prr.opportunities.sum() == 2
    assert ipg.gaps.size == 0


def test_beyond_last_edge_ignored():
    prr, _ = fresh()
    add_distances(prr, np.array([700.0]), np.array([False]))
    assert prr.opportunities.sum() == 0


def test_losses_counted_as_opportunities():
    prr, _ = fresh()
    add_distances(prr, np.full(10, 30.0), np.arange(10) < 7)
    assert dict(prr_curve(prr))[37.5] == pytest.approx(0.7)


def test_empty_bins_omitted_not_zero():
    prr, _ = fresh()
    add_distances(prr, np.array([5.0, 80.0]), np.array([True, True]))
    centers = [c for c, _ in prr_curve(prr)]
    assert centers == [12.5, 87.5]


def test_prr_flat_when_everything_received():
    prr, _ = fresh()
    d = np.linspace(5, 595, 100)
    add_distances(prr, d, np.ones(d.size, dtype=bool))
    assert all(r == 1.0 for _, r in prr_curve(prr))


# --- CCDF ---------------------------------------------------------------------

def test_ccdf_point_mass():
    values = dict(ipg_ccdf(np.array([0.1] * 20), [0.05, 0.099, 0.1, 0.2]))
    assert values[0.05] == 1.0 and values[0.099] == 1.0
    assert values[0.1] == 0.0 and values[0.2] == 0.0


def test_ccdf_two_values():
    assert dict(ipg_ccdf(np.array([0.1, 0.2]), [0.15]))[0.15] == pytest.approx(0.5)


def test_ccdf_non_increasing_property():
    rng = np.random.default_rng(9)
    for _ in range(30):
        gaps = rng.exponential(0.2, size=int(rng.integers(1, 200)))
        values = [c for _, c in ipg_ccdf(gaps, np.linspace(0, 1.0, 60))]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0  # all gaps are positive


def test_ccdf_empty_errors():
    with pytest.raises(DataError):
        ipg_ccdf(np.zeros(0), [0.1])


def test_ipg_store_rejects_time_going_backwards():
    store = built_store(2).ipg
    store.add((0, 1), 10.0, 1.0)
    with pytest.raises(DataError):
        store.add((0, 1), 10.0, 0.5)


def reference_gaps(batches, range_limit_m):
    """Per-pair dict loop: the bookkeeping IpgStore.add_many must reproduce."""
    last, gaps = {}, []
    for tx, rx, dist, t in batches:
        for pair in zip(tx, rx, dist):
            if pair[2] > range_limit_m:
                continue
            if pair[:2] in last:
                gaps.append(t - last[pair[:2]])
            last[pair[:2]] = t
    return gaps


def test_ipg_add_many_gap_values_and_order():
    batches = [([0, 1, 2], [1, 0, 3], [10.0, 10.0, 200.0], 0.1),
               ([1], [0], [20.0], 0.3),
               ([0, 1, 2], [1, 0, 3], [30.0, 30.0, 100.0], 0.6)]
    store = built_store(4).ipg
    for tx, rx, dist, t in batches:
        add_receptions(store, np.array(tx), np.array(rx), np.array(dist), t)
    # (2, 3) was out of range at 0.1, so its reception at 0.6 opens no gap
    assert store.gaps.tolist() == [0.3 - 0.1, 0.6 - 0.1, 0.6 - 0.3]
    assert store.gaps.dtype == np.float64
    assert len(store.gaps) == 3


def test_ipg_add_many_matches_reference_loop():
    rng = np.random.default_rng(12)
    batches = []
    for step in range(40):
        tx = rng.integers(0, 12, size=8)
        rx = rng.integers(0, 12, size=8)
        keep = np.unique(tx * 12 + rx, return_index=True)[1]  # distinct pairs
        tx, rx = tx[np.sort(keep)], rx[np.sort(keep)]
        batches.append((tx, rx, rng.uniform(0.0, 300.0, size=tx.size), 0.1 * (step + 1)))
    store = built_store(12).ipg
    for tx, rx, dist, t in batches:
        add_receptions(store, tx, rx, dist, t)
    expected = reference_gaps(batches, store.range_limit_m)
    assert store.gaps.tolist() == expected and len(expected) > 50


def test_ipg_add_many_of_distinct_pairs_skips_the_repeat_search():
    """Pairs known distinct, in no key order: the same gaps with no sort."""
    rng = np.random.default_rng(15)
    searched, trusted = built_store(12).ipg, built_store(12).ipg
    for step in range(30):
        tx, rx = np.divmod(rng.choice(144, size=20, replace=False), 12)
        searched.add_many(tx, rx, 0.1 * (step + 1))
        with mock.patch.object(np, "argsort", side_effect=AssertionError("sorted")):
            trusted.add_many(tx, rx, 0.1 * (step + 1), distinct=True)
    assert searched.gaps.tolist() == trusted.gaps.tolist() and searched.gaps.size > 50
    assert np.array_equal(searched.last_time, trusted.last_time, equal_nan=True)


def test_ipg_add_many_rejects_non_positive_gap():
    store = built_store(5).ipg
    store.add_many(np.array([0, 3]), np.array([1, 4]), 0.5)
    with pytest.raises(DataError, match=r"\(3, 4\)"):
        store.add_many(np.array([3]), np.array([4]), 0.5)


def test_ipg_add_many_repeated_pairs_per_reception_times():
    """One call with repeated pairs at increasing times equals one call per reception."""
    rng = np.random.default_rng(14)
    n = 300
    tx = rng.integers(0, 5, size=n)
    rx = rng.integers(0, 5, size=n)
    dist = rng.uniform(0.0, 300.0, size=n)
    times = np.cumsum(rng.uniform(0.001, 0.05, size=n))
    batched = built_store(5).ipg
    add_receptions(batched, tx, rx, dist, times)
    one_by_one = built_store(5).ipg
    for args in zip(tx, rx, dist, times):
        add_receptions(one_by_one, *(np.array([a]) for a in args[:3]), float(args[3]))
    expected = reference_gaps([([a], [b], [c], t) for a, b, c, t in
                               zip(tx, rx, dist, times)], batched.range_limit_m)
    assert batched.gaps.tolist() == one_by_one.gaps.tolist() == expected
    assert len(batched.gaps) == len(expected) > 100
    assert np.array_equal(batched.last_time, one_by_one.last_time, equal_nan=True)


def test_ipg_add_many_rejects_non_positive_gap_inside_one_batch():
    store = built_store(3).ipg
    with pytest.raises(DataError, match=r"\(2, 1\)"):
        store.add_many(np.array([0, 2, 0, 2]), np.array([1, 1, 1, 1]),
                       np.array([0.1, 0.2, 0.3, 0.2]))


def add_one(prr, distance_m: float, received: bool):
    """One opportunity at one distance: the scalar reference of `PrrSeries.add_many`."""
    idx = np.searchsorted(prr.bin_edges, distance_m, side="right") - 1
    if idx < 0 or idx >= prr.opportunities.size:
        return
    prr.opportunities[idx] += 1
    if received:
        prr.received[idx] += 1


def test_prr_add_many_matches_scalar_loop():
    rng = np.random.default_rng(13)
    d = rng.uniform(-50.0, 800.0, size=500)  # below the first and past the last edge
    d[:3] = [0.0, 600.0, 599.999]
    ok = rng.random(500) < 0.6
    many, one = built_store(0).prr, built_store(0).prr
    add_distances(many, d, ok)
    for di, oi in zip(d, ok):
        add_one(one, float(di), bool(oi))
    assert np.array_equal(many.opportunities, one.opportunities)
    assert np.array_equal(many.received, one.received)
    assert many.opportunities.dtype == np.int64 and many.received.dtype == np.int64
    assert one.opportunities.sum() < 500


def test_bin_of_gives_n_outside_every_bin():
    prr = PrrSeries(np.array([0.0, 30.0, 60.0]))
    bins = prr.bin_of(np.array([-1.0, 0.0, 29.9, 30.0, 60.0, 1e9, np.nan]))
    assert bins.tolist() == [2, 0, 0, 1, 2, 2, 2]
    assert bins.dtype == np.int16
    many = PrrSeries(np.arange(70_001, dtype=float))  # more bins than int16 holds
    assert many.bin_of(np.array([69_999.5, 70_000.0])).tolist() == [69_999, 70_000]


bin_edges = st.one_of(
    st.just(built_store(0).prr.bin_edges),
    st.just(np.array([0.0, 30.0, 60.0])),
    st.builds(lambda width, bins: uniform_bin_edges(width * bins, width),
              st.floats(0.5, 100.0), st.integers(1, 60)),
    st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=40, unique=True)
    .map(lambda e: np.array(sorted(e))),
)


@settings(max_examples=300, deadline=None)
@given(edges=bin_edges, data=st.data())
def test_bin_index_matches_searchsorted(edges, data):
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    span = edges[-1] - edges[0]
    anywhere = data.draw(st.lists(
        st.floats(edges[0] - span - 1.0, edges[-1] + span + 1.0), max_size=50))
    d = np.concatenate([near, anywhere, [-1.0, -0.0, -1e9, edges[-1] + 1e9, np.inf, -np.inf]])
    np.testing.assert_array_equal(bin_index(edges, d),
                                  np.searchsorted(edges, d, side="right") - 1)


# --- MAE ------------------------------------------------------------------------

def series(ratios, opportunities=1000):
    edges = np.arange(0.0, 25.0 * (len(ratios) + 1), 25.0)
    n = np.full(len(ratios), opportunities, dtype=np.int64)
    r = np.round(np.asarray(ratios, dtype=float) * opportunities).astype(np.int64)
    return PrrSeries(edges, r, n)


def test_mae_identical_series():
    a = series([1.0, 0.5, 0.2])
    assert mae(a, series([1.0, 0.5, 0.2])) == 0.0


def test_mae_constant_offset():
    assert mae(series([0.5, 0.5]), series([0.51, 0.51])) == pytest.approx(0.01)


def test_mae_hand_value():
    assert mae(series([1.0, 0.5]), series([0.9, 0.7])) == pytest.approx(0.15)


def test_mae_edge_mismatch_errors():
    a = series([1.0, 0.5])
    b = PrrSeries(np.array([0.0, 30.0, 60.0]), np.array([10, 10]), np.array([10, 10]))
    with pytest.raises(DataError):
        mae(a, b)


def test_mae_skips_unpopulated_bins():
    a = series([1.0, 0.5, 0.2])
    b = series([0.9, 0.7, 0.2])
    b.opportunities[2] = 0
    b.received[2] = 0
    assert mae(a, b) == pytest.approx((0.1 + 0.2) / 2)


def test_mae_metric_properties():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        a, b, c = (series(rng.uniform(0, 1, size=n)) for _ in range(3))
        assert mae(a, b) == mae(b, a)
        assert mae(a, c) <= mae(a, b) + mae(b, c) + 1e-12
        assert 0.0 <= mae(a, b) <= 1.0


def test_merge_adds_counts():
    a = series([1.0, 0.5], opportunities=10)
    b = series([0.0, 0.5], opportunities=10)
    merged = merge(a, b)
    assert merged.opportunities[0] == 20
    assert merged.received[0] == 10


def test_prr_series_validation():
    with pytest.raises(ConfigError):
        PrrSeries(np.array([0.0]))
    with pytest.raises(DataError):
        PrrSeries(np.array([0.0, 10.0]), np.array([5]), np.array([3]))
