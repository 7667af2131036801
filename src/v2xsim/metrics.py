"""Reception statistics: PRR vs distance, inter-packet gaps, and MAE.

PRR bins are half-open [edge_i, edge_i+1); receptions beyond the last edge
are dropped from PRR on purpose. IPG tracks, per directed pair inside the
range limit, the time between consecutive correct receptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_BIN_WIDTH_M = 25.0
DEFAULT_MAX_DISTANCE_M = 600.0
DEFAULT_IPG_RANGE_M = 150.0


def default_bin_edges(max_distance_m: float = DEFAULT_MAX_DISTANCE_M,
                      width_m: float = DEFAULT_BIN_WIDTH_M) -> np.ndarray:
    n = int(round(max_distance_m / width_m))
    return np.linspace(0.0, width_m * n, n + 1)


def bin_index(edges: np.ndarray, d: np.ndarray) -> np.ndarray:
    """`np.searchsorted(edges, d, side="right") - 1` for strictly increasing edges.

    The guess assumes uniform bins; each pass moves every wrong index one
    bin toward the i with edges[i] <= d < edges[i + 1] (-1 below the first
    edge, n from the last edge on), so uniform edges take one checking pass.
    """
    n = edges.size - 1
    guess = d - edges[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a wild guess is still corrected
        guess *= n / (edges[-1] - edges[0])
    np.floor(guess, out=guess)
    np.fmin(guess, n, out=guess)  # before fmax: NaN lands on n, as in searchsorted
    np.fmax(guess, -1, out=guess)
    idx = guess.astype(np.intp)
    # lower[i] = edges[i] and upper[i] = edges[i + 1]; NaN, never crossed,
    # keeps an index from moving below -1 or above n
    lower = np.concatenate((edges, [np.nan]))
    upper = np.concatenate((edges[1:], [np.nan], edges[:1]))
    while True:
        down = d < lower.take(idx)
        up = d >= upper.take(idx)
        if not (down.any() or up.any()):
            return idx
        idx += up
        idx -= down


@dataclass
class PrrSeries:
    """Per-distance-bin tallies of reception opportunities and successes."""

    bin_edges: np.ndarray = field(default_factory=default_bin_edges)
    received: np.ndarray = None
    opportunities: np.ndarray = None

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        if self.bin_edges.size < 2 or not np.all(np.diff(self.bin_edges) > 0):
            raise ConfigError("bin_edges must be strictly increasing with >= 2 entries")
        n = self.bin_edges.size - 1
        if self.received is None:
            self.received = np.zeros(n, dtype=np.int64)
        if self.opportunities is None:
            self.opportunities = np.zeros(n, dtype=np.int64)
        self.received = np.asarray(self.received, dtype=np.int64)
        self.opportunities = np.asarray(self.opportunities, dtype=np.int64)
        if np.any(self.received > self.opportunities):
            raise DataError("received counts exceed opportunities")

    def bin_of(self, distances_m: np.ndarray) -> np.ndarray:
        """The bin of each distance, n (one past the last bin) where none holds it.

        Returned in the smallest signed type of int16 and intp that holds n.
        """
        n = self.opportunities.size
        idx = bin_index(self.bin_edges, np.asarray(distances_m, dtype=float))
        idx[idx < 0] = n
        return idx.astype(np.int16 if n < np.iinfo(np.int16).max else np.intp)

    def add_many(self, bins: np.ndarray, received: np.ndarray):
        """One opportunity per entry of `bins` (from `bin_of`); `received` flags the successes."""
        n = self.opportunities.size
        # one count over (bin, received) pairs: 2 * bin + received
        pair = np.left_shift(bins, 1, dtype=np.intp)
        pair += received
        counts = np.bincount(pair, minlength=2 * n + 2)[:2 * n].reshape(n, 2)
        self.opportunities += counts[:, 0] + counts[:, 1]
        self.received += counts[:, 1]


@dataclass
class IpgStore:
    """Gaps between consecutive receptions per directed (tx, rx) pair.

    `last_time[tx, rx]` is the time of the pair's latest reception inside
    the range limit (NaN = none yet), for vehicle ids below `n_nodes`.
    `gaps` is a float64 array of every gap, in the order the receptions were
    added.
    """

    range_limit_m: float = DEFAULT_IPG_RANGE_M
    n_nodes: int = 0

    def __post_init__(self):
        self.last_time = np.full((self.n_nodes, self.n_nodes), np.nan)
        self._gaps = []  # gap arrays in order, joined when read

    @property
    def gaps(self) -> np.ndarray:
        if len(self._gaps) != 1:
            self._gaps = [np.concatenate(self._gaps) if self._gaps else np.zeros(0)]
        return self._gaps[0]

    def near(self, distance_m: np.ndarray) -> np.ndarray:
        """Which links lie inside the range limit."""
        return np.asarray(distance_m) <= self.range_limit_m

    def add(self, pair, distance_m: float, time_s: float):
        """One reception on `pair`: `add_many` for a single link.

        No command calls it, but perfbench/tracing.py looks it up in the
        class dict to time the IPG layer, so it stays.
        """
        if self.near(distance_m):
            self.add_many(np.array([pair[0]]), np.array([pair[1]]), time_s)

    def add_many(self, tx: np.ndarray, rx: np.ndarray, time_s: float | np.ndarray):
        """Receptions inside the range limit on the (tx[i], rx[i]) pairs at times time_s[i].

        `time_s` holds one time per reception, or one time for all of them;
        the receptions are in chronological order and a pair may repeat.
        Each reception opens a gap to its pair's previous one, and gaps are
        appended in the order of the receptions.
        """
        tx, rx = np.asarray(tx), np.asarray(rx)
        if tx.size == 0:
            return
        times = np.broadcast_to(np.asarray(time_s, dtype=float), tx.shape)
        key = tx * self.last_time.shape[0] + rx
        prev = self.last_time.flat[key]
        latest = np.ones(key.size, dtype=bool)  # the pair's last reception here
        # strictly increasing keys are distinct pairs; otherwise a pair may
        # repeat, and each later reception gaps against its earlier one (a
        # stable sort keeps each pair's receptions in order)
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            grouped = key[order]
            again = np.flatnonzero(grouped[1:] == grouped[:-1])
            prev[order[again + 1]] = times[order[again]]
            latest[order[again]] = False
        seen = ~np.isnan(prev)
        gaps = times[seen] - prev[seen]
        bad = np.flatnonzero(gaps <= 0)
        if bad.size:
            i = np.flatnonzero(seen)[bad[0]]
            raise DataError(f"non-positive gap {gaps[bad[0]]} for pair "
                            f"{(int(tx[i]), int(rx[i]))}")
        if gaps.size:
            self._gaps.append(gaps)
        self.last_time.flat[key[latest]] = times[latest]


def ipg_ccdf(gaps: np.ndarray, grid):
    """Empirical P(IPG > t) of the gaps array on the given grid of durations."""
    if gaps.size == 0:
        raise DataError("no inter-packet gaps recorded")
    gaps = np.sort(gaps)
    t = np.asarray(grid, dtype=float)
    exceed = gaps.size - np.searchsorted(gaps, t, side="right")
    return [(float(ti), float(e / gaps.size)) for ti, e in zip(t, exceed)]


def mae(a: PrrSeries, b: PrrSeries) -> float:
    """Mean absolute PRR error over bins populated in both series."""
    if not np.array_equal(a.bin_edges, b.bin_edges):
        raise DataError("PRR series have different bin edges")
    both = (a.opportunities > 0) & (b.opportunities > 0)
    if not np.any(both):
        raise DataError("no common populated bins")
    ra = a.received[both] / a.opportunities[both]
    rb = b.received[both] / b.opportunities[both]
    return float(np.mean(np.abs(ra - rb)))


@dataclass
class MetricStore:
    """Everything one run produces: PRR tallies, IPG gaps, bookkeeping counters."""

    prr: PrrSeries = field(default_factory=PrrSeries)
    ipg: IpgStore = field(default_factory=IpgStore)
    generated: int = 0
    transmitted: int = 0
    opportunities: int = 0
    lost_half_duplex: int = 0
    lost_sinr: int = 0
    received_total: int = 0
