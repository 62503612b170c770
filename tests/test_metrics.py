import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbgbm.exceptions import DomainError
from nbgbm.metrics import WeightedSeries, lrse, weighted_moving_average, wmad


def naive_wma(x, w, k):
    n = x.size
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - k // 2), min(n - 1, i + k // 2)
        out[i] = np.sum(w[lo:hi + 1] * x[lo:hi + 1]) / np.sum(w[lo:hi + 1])
    return out


def naive_lrse(x, w, k):
    n = x.size
    xbar = naive_wma(x, w, k)
    total = 0.0
    for i in range(n):
        lo, hi = max(0, i - k // 2), min(n - 1, i + k // 2)
        wbar = np.mean(w[lo:hi + 1])
        total += (w[i] / wbar) ** 2 * (x[i] - xbar[i]) ** 2
    return np.sqrt(total / n)


def naive_wmad(x, w, k):
    xbar = naive_wma(x, w, k)
    return float(np.median(k * np.abs(np.diff(xbar))))


class TestWeightedMovingAverage:
    def test_zero_bandwidth_is_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        series = WeightedSeries(x, np.array([1.0, 2.0, 3.0]), k=0)
        np.testing.assert_array_equal(weighted_moving_average(series), x)

    def test_constant_series(self):
        series = WeightedSeries(np.full(10, 4.0), np.arange(1.0, 11.0), k=4)
        np.testing.assert_allclose(weighted_moving_average(series), 4.0)

    def test_hand_case(self):
        series = WeightedSeries(np.array([0.0, 3.0, 6.0]), np.array([1.0, 1.0, 2.0]), k=2)
        out = weighted_moving_average(series)
        assert out[1] == pytest.approx((0 + 3 + 12) / 4.0)

    @pytest.mark.parametrize("x, w", [([0.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
                                      ([0.0, np.inf, 1.0], [1.0, 1.0, 1.0]),
                                      ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
                                      ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0]),
                                      ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])])
    def test_non_finite_values_and_weights_rejected(self, x, w):
        with pytest.raises(DomainError):
            WeightedSeries(np.array(x), np.array(w), k=2)

    def test_odd_bandwidth_rejected(self):
        with pytest.raises(DomainError):
            WeightedSeries(np.zeros(3), np.ones(3), k=3)


class TestLrse:
    def test_constant_series_zero(self):
        series = WeightedSeries(np.full(20, 2.5), np.random.default_rng(0).random(20) + 0.5, k=4)
        assert lrse(series) == pytest.approx(0.0, abs=1e-14)

    def test_equal_weights_reduce_to_rms_deviation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        series = WeightedSeries(x, np.ones(50), k=6)
        xbar = naive_wma(x, np.ones(50), 6)
        expected = np.sqrt(np.mean((x - xbar) ** 2))
        assert lrse(series) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        w = rng.random(30) + 0.1
        base = lrse(WeightedSeries(x, w, k=4))
        scaled = lrse(WeightedSeries(c * x, w, k=4))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-9)


class TestWmad:
    def test_constant_series_zero(self):
        series = WeightedSeries(np.full(15, 1.0), np.ones(15), k=2)
        assert wmad(series) == 0.0

    def test_linear_series_slope(self):
        n, k, slope = 2000, 10, 0.37
        x = slope * np.arange(n)
        series = WeightedSeries(x, np.ones(n), k=k)
        assert wmad(series) == pytest.approx(k * slope, rel=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        w = rng.random(40) + 0.2
        a = wmad(WeightedSeries(x, w, k=4))
        b = wmad(WeightedSeries(x + 11.5, w, k=4))
        assert a == pytest.approx(b, rel=1e-9)


class TestAgainstNaiveReference:
    def test_many_random_series(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            k = 2 * int(rng.integers(0, 8))
            x = rng.normal(size=n) * 10
            w = rng.random(n) + 0.05
            series = WeightedSeries(x, w, k=k)
            np.testing.assert_allclose(weighted_moving_average(series),
                                       naive_wma(x, w, k), atol=1e-12, rtol=1e-12)
            assert lrse(series) == pytest.approx(naive_lrse(x, w, k), abs=1e-12, rel=1e-12)
            assert wmad(series) == pytest.approx(naive_wmad(x, w, k), abs=1e-12, rel=1e-12)
