"""Aggregation, histograms, and correlation."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgauge import analytics
from cellgauge.analytics import (
    EmptyCorpusError,
    NoDataError,
    aggregate,
    correlation_matrix,
    histogram,
)
from cellgauge.metrics import METRIC_IDS, MetricRecord


def record(workbook_id="wb", **metric_values):
    metrics = dict.fromkeys(METRIC_IDS)
    metrics.update(metric_values)
    m03 = metrics["M03"] or 0
    return MetricRecord(
        workbook_id=workbook_id,
        sheet_count=1,
        non_empty_cells=0,
        input_cells=int(metrics["M05"] or 0),
        formula_cells=int(m03),
        parse_failures=0,
        metrics=metrics,
    )


def pair(xs, ys, method="pearson"):
    """(r, n) of xs against ys, as metrics M09 and M10 of one record per
    position (None is an absent value): the off-diagonal entry of their
    correlation matrix."""
    records = [record(M09=x, M10=y) for x, y in zip(xs, ys, strict=True)]
    matrix = correlation_matrix(records, ("M09", "M10"), method)
    return matrix.r[0][1], matrix.n[0][1]


class TestAggregate:
    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            aggregate([])

    def test_single_record_round_trips(self):
        r = record(M01=2.5, M03=4)
        summary = aggregate([r])
        assert summary.spreadsheet_count == 1
        assert summary.ratio_with_formulas == 1.0
        assert summary.per_metric["M01"] == 2.5
        assert summary.per_metric["M02"] is None

    def test_ratio_with_formulas(self):
        summary = aggregate([record(M03=0), record(M03=4)])
        assert summary.ratio_with_formulas == 0.5

    def test_absent_values_excluded_from_means(self):
        rs = [record(M01=1.0), record(M01=2.0), record(M01=None)]
        assert aggregate(rs).per_metric["M01"] == 1.5

    def test_duplication_invariance(self):
        rs = [record("a", M01=1.0, M03=3), record("b", M01=4.0, M03=0)]
        once = aggregate(rs)
        twice = aggregate(rs + rs)
        assert once.ratio_with_formulas == twice.ratio_with_formulas
        assert once.per_metric == twice.per_metric


class TestHistogram:
    def test_edge_rule(self):
        rs = [record(M04=v) for v in (0.0, 0.049, 0.051)]
        h = histogram(rs, "M04")
        assert len(h.counts) == 20
        assert h.counts[0] == 2
        assert h.counts[1] == 1
        assert sum(h.counts) == 3

    def test_value_on_interior_edge_goes_up(self):
        rs = [record(M04=0.05)]
        h = histogram(rs, "M04")
        assert h.counts[1] == 1 and h.counts[0] == 0

    @pytest.mark.parametrize("metric_id", METRIC_IDS)
    def test_ratio_metric_defaults_to_unit_range(self, metric_id):
        # Only the shares of the non-empty cells; M07 is a ratio too, but unbounded.
        h = histogram([record(**{metric_id: 0.5})], metric_id)
        unit = metric_id in ("M04", "M06")
        assert (h.bin_edges[0], h.bin_edges[-1]) == ((0.0, 1.0) if unit else (0.5, 1.5))

    def test_auto_range_covers_observed_values(self):
        rs = [record(M09=v) for v in (2.0, 10.0, 50.0)]
        h = histogram(rs, "M09")
        assert h.bin_edges[0] == 2.0 and h.bin_edges[-1] == 50.0
        assert sum(h.counts) == 3

    def test_degenerate_auto_range(self):
        h = histogram([record(M09=7.0), record(M09=7.0)], "M09")
        assert sum(h.counts) == 2

    def test_out_of_range_values_clamp_into_outer_bins(self):
        rs = [record(M06=v) for v in (0.5, 2.5)]  # input/non-empty can exceed 1
        h = histogram(rs, "M06")
        assert sum(h.counts) == 2
        assert h.counts[-1] == 1

    def test_no_data(self):
        with pytest.raises(NoDataError):
            histogram([record()], "M01")

    def test_custom_spec(self):
        rs = [record(M09=v) for v in (1.0, 2.0, 3.0)]
        h = histogram(rs, "M09", bins=2, bounds=(0.0, 4.0))
        assert h.counts == (1, 2)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=60), st.integers(1, 30))
    @settings(max_examples=200)
    def test_conservation(self, values, bins):
        rs = [record(M04=v) for v in values]
        h = histogram(rs, "M04", bins=bins, bounds=(0.0, 1.0))
        assert sum(h.counts) == len(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_conservation_auto_range(self, values):
        rs = [record(M09=v) for v in values]
        h = histogram(rs, "M09")
        assert sum(h.counts) == len(values)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30
        )
    )
    @settings(max_examples=300)
    def test_edges_strictly_ascending_at_any_magnitude(self, values):
        rs = [record(M09=v) for v in values]
        h = histogram(rs, "M09")
        assert sum(h.counts) == len(values)
        assert all(
            h.bin_edges[i] > h.bin_edges[i - 1] for i in range(1, len(h.bin_edges))
        )


class TestPearson:
    def test_self_correlation(self):
        r, n = pair([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
        assert n == 3
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        r, _ = pair([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0])
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_sigma_formula(self):
        # x=(1,2,3), y=(2,4,7): r = 15 / sqrt(6 * 38)
        r, _ = pair([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert r == pytest.approx(15 / math.sqrt(228), abs=1e-12)

    def test_zero_variance_is_absent(self):
        assert pair([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == (None, 3)

    def test_short_sample_is_absent(self):
        assert pair([1.0], [2.0]) == (None, 1)

    def test_pairwise_complete_deletion(self):
        r, n = pair([1.0, 2.0, 3.0], [2.0, None, 6.0])
        assert n == 2
        assert r == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=40,
        )
    )
    @example([(0.0, 3.960401904942631e-160), (1.5, 0.0)])  # exactly -1
    @settings(max_examples=200)
    def test_matches_exact_reference_and_symmetry(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        ours, _ = pair(xs, ys)
        assert ours == pair(ys, xs)[0]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            assert ours is None
            return
        expected, tolerance = exact_pearson(xs, ys)
        assert ours == pytest.approx(expected, abs=tolerance)
        assert abs(ours) <= 1 + 1e-12


def exact_pearson(xs, ys):
    """(r correctly rounded from exact rational sums, the error a float
    computation may make). Each float deviation from the rounded mean is off
    by up to 2 * eps * max|v| plus the smallest subnormal, so the bound grows
    as the spread shrinks against the magnitude of the values."""
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for y in ys]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    sxx = sum((x - mx) ** 2 for x in fx)
    syy = sum((y - my) ** 2 for y in fy)
    sxy = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
    r = math.copysign(math.sqrt(sxy**2 / (sxx * syy)), sxy)

    def relative_error(values, s):
        error = 2 * Fraction(sys.float_info.epsilon) * max(map(abs, values)) + Fraction(5e-324)
        return math.sqrt(min(error**2 * len(values) / s, Fraction(1)))

    return r, 1e-9 + 4 * (relative_error(fx, sxx) + relative_error(fy, syy))


class TestSpearman:
    def test_monotone_nonlinear_is_perfect(self):
        r, n = pair([1.0, 2.0, 5.0, 9.0], [1.0, 8.0, 125.0, 729.0], "spearman")
        assert n == 4
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_ties_average(self):
        r, _ = pair([1.0, 2.0, 2.0, 5.0], [1.0, 3.0, 3.0, 4.0], "spearman")
        assert r == pytest.approx(1.0, abs=1e-12)


class TestCorrelationMatrix:
    def test_shape_and_diagonal(self):
        rng = random.Random(7)
        rs = [
            record(M01=rng.random(), M03=rng.randrange(5), M09=rng.random() * 10)
            for _ in range(20)
        ]
        matrix = correlation_matrix(rs, metric_ids=("M01", "M03", "M09"))
        assert matrix.metric_ids == ("M01", "M03", "M09")
        for i in range(3):
            assert matrix.r[i][i] == pytest.approx(1.0, abs=1e-12)
            assert matrix.n[i][i] == 20
        for i in range(3):
            for j in range(3):
                assert matrix.r[i][j] == matrix.r[j][i]

    def test_absent_column_gives_absent_r(self):
        rs = [record(M01=1.0), record(M01=2.0)]
        matrix = correlation_matrix(rs, metric_ids=("M01", "M02"))
        assert matrix.r[0][1] is None
        assert matrix.n[0][1] == 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix([record(M01=1.0)], method="kendall")


# Element strategies for one metric column: holes and ties, a constant,
# ordinary floats, and magnitudes whose squares underflow.
_COLUMN_ELEMENTS = st.sampled_from(
    [
        st.none() | st.integers(-2, 2).map(float),
        st.none() | st.just(5.0),
        st.none() | st.floats(-1e3, 1e3),
        st.floats(-2e-160, 2e-160),
        st.floats(-1e3, 1e3),
    ]
)
_COLUMN_IDS = ("M01", "M02", "M07", "M09", "M11")


@st.composite
def _corpora(draw):
    n = draw(st.integers(0, 40))
    width = draw(st.integers(1, len(_COLUMN_IDS)))
    columns = [draw(st.lists(draw(_COLUMN_ELEMENTS), min_size=n, max_size=n)) for _ in range(width)]
    ids = _COLUMN_IDS[:width]
    return ids, [record(**dict(zip(ids, row))) for row in zip(*columns)]


def _bits(value):
    return None if value is None else value.hex()


class TestCorrelationCache:
    @given(_corpora(), st.sampled_from(["pearson", "spearman"]))
    @settings(max_examples=300)
    def test_matrix_equals_per_pair_reference(self, corpus, method):
        # Each entry against a fresh two-metric matrix of its own pair, which
        # shares no extracted, ranked or centred column with any other pair.
        ids, records = corpus
        matrix = correlation_matrix(records, metric_ids=ids, method=method)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                alone = correlation_matrix(records, (a, b), method)
                assert matrix.n[i][j] == alone.n[0][1]
                assert _bits(matrix.r[i][j]) == _bits(alone.r[0][1])

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_each_column_ranked_and_centred_once(self, monkeypatch, method):
        rng = random.Random(3)
        records = [record(**{m: rng.random() for m in METRIC_IDS}) for _ in range(30)]
        calls = {"_ranks": 0, "_scaled_deviations": 0}
        for name in calls:
            original = getattr(analytics, name)

            def counted(values, name=name, original=original):
                calls[name] += 1
                return original(values)

            monkeypatch.setattr(analytics, name, counted)
        correlation_matrix(records, method=method)
        assert len(METRIC_IDS) == 22
        assert calls == {"_ranks": 22 if method == "spearman" else 0, "_scaled_deviations": 22}
