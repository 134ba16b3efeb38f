"""The Welford mean / variance accumulator."""

import math

import pytest

from repro.sim.stats import WelfordAccumulator


def accumulate(values):
    acc = WelfordAccumulator()
    for value in values:
        acc.add(value)
    return acc


class TestWelfordAccumulator:
    def test_empty_accumulator_reports_zeros(self):
        acc = WelfordAccumulator()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.variance == 0.0

    def test_mean_and_variance_match_reference(self):
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        acc = accumulate(data)
        mean = sum(data) / len(data)
        variance = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert acc.mean == pytest.approx(mean)
        assert acc.variance == pytest.approx(variance)
        assert acc.stdev == pytest.approx(math.sqrt(variance))

    def test_single_observation_has_zero_variance(self):
        acc = WelfordAccumulator()
        acc.add(5.0)
        assert acc.variance == 0.0
        assert acc.confidence_halfwidth() == 0.0

    def test_confidence_halfwidth_shrinks_with_samples(self):
        small = accumulate([1.0, 2.0, 3.0] * 3)
        large = accumulate([1.0, 2.0, 3.0] * 300)
        assert large.confidence_halfwidth() < small.confidence_halfwidth()

    def test_confidence_halfwidth_is_z_standard_errors(self):
        acc = accumulate([1.0, 3.0, 5.0, 7.0])
        standard_error = acc.stdev / math.sqrt(4)
        assert acc.confidence_halfwidth() == pytest.approx(1.96 * standard_error)
        assert acc.confidence_halfwidth(z=1.0) == pytest.approx(standard_error)

    def test_constant_values_have_zero_spread(self):
        acc = accumulate([0.1] * 50)
        assert acc.mean == pytest.approx(0.1)
        assert acc.variance == pytest.approx(0.0, abs=1e-30)
        assert acc.confidence_halfwidth() == pytest.approx(0.0, abs=1e-15)

    def test_large_offset_keeps_the_variance(self):
        # The naive sum-of-squares formula loses every digit here.
        acc = accumulate([1e9 + x for x in (4.0, 7.0, 13.0, 16.0)])
        assert acc.mean == pytest.approx(1e9 + 10.0)
        assert acc.variance == pytest.approx(30.0)
