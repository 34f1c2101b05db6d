"""Corpus-level aggregation: summary means, histograms, metric correlation.

Absent metric values (e.g. averages of a workbook without formulas) are
excluded from every computation rather than imputed as zero.

The (r, n) of one pair of metrics is entry [0][1] of
``correlation_matrix(records, (a, b), method)``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

from .expressions import Value
from .metrics import METRIC_IDS, METRICS, MetricRecord


class EmptyCorpusError(ValueError):
    pass


class NoDataError(ValueError):
    pass


class CorpusSummary(Value):
    __slots__ = ("spreadsheet_count", "ratio_with_formulas", "per_metric")

    def __init__(self, spreadsheet_count: int, ratio_with_formulas: float, per_metric: dict[str, float | None]):
        self.spreadsheet_count = spreadsheet_count
        self.ratio_with_formulas = ratio_with_formulas
        self.per_metric = per_metric


def aggregate(records: list[MetricRecord]) -> CorpusSummary:
    """Arithmetic mean per metric over the records where it is present."""
    if not records:
        raise EmptyCorpusError("no records to aggregate")
    with_formulas = sum(1 for r in records if r.formula_cells > 0)
    per_metric: dict[str, float | None] = {}
    for metric_id in METRIC_IDS:
        values = [r.metrics[metric_id] for r in records if r.metrics[metric_id] is not None]
        per_metric[metric_id] = math.fsum(values) / len(values) if values else None
    return CorpusSummary(
        spreadsheet_count=len(records),
        ratio_with_formulas=with_formulas / len(records),
        per_metric=per_metric,
    )


class Histogram(Value):
    __slots__ = ("metric_id", "bin_edges", "counts")

    def __init__(self, metric_id: str, bin_edges: tuple[float, ...], counts: tuple[int, ...]):
        self.metric_id = metric_id
        self.bin_edges = bin_edges
        self.counts = counts


# Shares of the non-empty cells default to a fixed [0, 1] axis.
UNIT_AXIS_METRICS = tuple(row[0] for row in METRICS if row[2] == "ratio" and row[3][1] == "non_empty_cells")


def histogram(
    records: list[MetricRecord], metric_id: str, bins: int = 20, bounds: tuple[float, float] | None = None
) -> Histogram:
    """Bin the present values of one metric into `bins` bins over `bounds`:
    by default [0, 1] for `UNIT_AXIS_METRICS`, min..max observed otherwise.

    Bins are half-open with the final bin right-closed; a value exactly on an
    interior edge counts in the upper bin. With fixed bounds, out-of-range
    values land in the outermost bins so that counts always sum to the number
    of present values.
    """
    values = [r.metrics[metric_id] for r in records if r.metrics[metric_id] is not None]
    if not values:
        raise NoDataError(f"no values present for {metric_id}")
    if bins < 1:
        raise ValueError("bin count must be >= 1")
    if bounds is None and metric_id in UNIT_AXIS_METRICS:
        bounds = (0.0, 1.0)
    if bounds is not None:
        lo, hi = bounds
        if not hi > lo:
            raise ValueError("histogram range must be ascending")
    else:
        lo, hi = min(values), max(values)
        if hi <= lo:
            hi = lo + 1.0
            if hi <= lo:  # |lo| so large that +1.0 does not register
                hi = math.nextafter(lo, math.inf)
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    edges[0], edges[-1] = lo, hi
    if any(edges[i] <= edges[i - 1] for i in range(1, len(edges))):
        # interval too narrow for the requested bin count at this magnitude
        edges = [lo, hi]
        bins = 1
    counts = [0] * bins
    for v in values:
        idx = bisect_right(edges, v) - 1
        if idx < 0:
            idx = 0
        elif idx >= bins:
            idx = bins - 1
        counts[idx] += 1
    return Histogram(metric_id=metric_id, bin_edges=tuple(edges), counts=tuple(counts))


def _scaled_deviations(values: list[float]) -> array | None:
    """Deviations from the mean, scaled by one power of two so the largest
    lies in [0.5, 1); None when all values are equal. The scaling cancels in
    the coefficient and changes no bit of it short of underflow; it keeps
    the squares of tiny deviations from underflowing."""
    if min(values) == max(values):  # the rounded mean may differ from them
        return None
    mean = math.fsum(values) / len(values)
    deviations = [v - mean for v in values]
    exponent = math.frexp(max(map(abs, deviations)))[1]
    return array("d", [math.ldexp(d, -exponent) for d in deviations])


# The part of a coefficient that depends on one series only: its scaled
# deviations and the square root of their sum of squares.
_Centred = tuple[array, float]


def _centre(values: list[float]) -> _Centred | None:
    """None when n < 2 or the variance is 0."""
    if len(values) < 2:
        return None
    deviations = _scaled_deviations(values)
    if deviations is None:
        return None
    # Explicit += loops, never sum(): float sum() is compensated from
    # Python 3.12 on and would change the last bits between versions.
    sxx = 0.0
    for d in deviations:
        sxx += d * d
    return deviations, math.sqrt(sxx)


def _coefficient(x: _Centred | None, y: _Centred | None) -> float | None:
    if x is None or y is None:
        return None
    (dxs, root_x), (dys, root_y) = x, y
    sxy = 0.0
    for dx, dy in zip(dxs, dys):
        sxy += dx * dy
    return sxy / (root_x * root_y)


def _ranks(values: list[float]) -> list[float]:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


class _Columns:
    """The metric columns of a corpus for pairwise-complete correlation.

    Each column is extracted, ranked (Spearman) and centred once per
    pairwise-complete sample it is correlated on, not once per pair, so a
    pair costs one cross-product loop over its sample. Columns with the
    same missing values share their sample, so a corpus with absent
    metrics reuses the centred columns too.
    """

    def __init__(self, records: list[MetricRecord], metric_ids: tuple[str, ...], rank: bool):
        self._values = [[r.metrics[m] for r in records] for m in metric_ids]
        self._rank = rank
        # samples are tuples of ascending record indices
        self._present = [
            tuple(k for k, v in enumerate(column) if v is not None) for column in self._values
        ]
        self._centred: dict[tuple[int, tuple[int, ...]], _Centred | None] = {}

    def correlate(self, i: int, j: int) -> tuple[float | None, int]:
        """(r, n) of columns i and j over the records where both are present."""
        sample = self._present[i]
        if sample != self._present[j]:
            other = self._values[j]
            sample = tuple(k for k in sample if other[k] is not None)
        return _coefficient(self._column(i, sample), self._column(j, sample)), len(sample)

    def _column(self, i: int, sample: tuple[int, ...]) -> _Centred | None:
        key = (i, sample)
        try:
            return self._centred[key]
        except KeyError:
            column = self._values[i]
            values = [column[k] for k in sample]
            centred = self._centred[key] = _centre(_ranks(values) if self._rank else values)
            return centred


class CorrelationMatrix(Value):
    __slots__ = ("metric_ids", "r", "n")

    def __init__(self, metric_ids: tuple[str, ...], r: tuple[tuple[float | None, ...], ...],
                 n: tuple[tuple[int, ...], ...]):
        self.metric_ids = metric_ids
        self.r = r
        self.n = n


def correlation_matrix(
    records: list[MetricRecord],
    metric_ids: tuple[str, ...] = METRIC_IDS,
    method: str = "pearson",
) -> CorrelationMatrix:
    """Symmetric matrix of pairwise correlations with per-pair sample sizes."""
    if method not in ("pearson", "spearman"):
        raise ValueError(f"unknown correlation method {method!r}")
    columns = _Columns(records, metric_ids, rank=method == "spearman")
    size = len(metric_ids)
    r_rows: list[list[float | None]] = [[None] * size for _ in range(size)]
    n_rows: list[list[int]] = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value, count = columns.correlate(i, j)
            r_rows[i][j] = r_rows[j][i] = value
            n_rows[i][j] = n_rows[j][i] = count
    return CorrelationMatrix(
        metric_ids=tuple(metric_ids),
        r=tuple(tuple(row) for row in r_rows),
        n=tuple(tuple(row) for row in n_rows),
    )
