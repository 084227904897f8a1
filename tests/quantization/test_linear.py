import numpy as np
import pytest

from repro.quantization.linear import LinearQuantizer


class TestLinearQuantizer:
    def test_uniform_data_fills_levels_evenly(self):
        values = np.linspace(0, 1, 1000)
        q = LinearQuantizer(4).fit(values)
        counts = q.level_counts(values)
        assert counts.min() > 200

    def test_boundaries_are_equally_spaced(self):
        q = LinearQuantizer(4).fit(np.array([0.0, 8.0]))
        assert np.allclose(np.diff(q.boundaries), 2.0)

    def test_min_maps_to_level_zero(self):
        q = LinearQuantizer(8).fit(np.array([-2.0, 6.0]))
        assert q.transform(np.array([-2.0]))[0] == 0

    def test_max_maps_to_top_level(self):
        q = LinearQuantizer(8).fit(np.array([-2.0, 6.0]))
        assert q.transform(np.array([6.0]))[0] == 7

    def test_out_of_range_clips(self):
        q = LinearQuantizer(4).fit(np.array([0.0, 1.0]))
        assert q.transform(np.array([-5.0]))[0] == 0
        assert q.transform(np.array([5.0]))[0] == 3

    def test_constant_feature_collapses_to_one_level(self):
        # The second span is one subnormal wide: at 16 levels its bin
        # width underflows to zero unless the quantizer guards the width.
        for levels, values in ((4, np.full(10, 3.0)), (16, np.array([0.0, 5e-324]))):
            with np.errstate(all="raise"):
                q = LinearQuantizer(levels).fit(values)
                assert np.all(q.transform(values) == 0)
                assert np.all(np.diff(q.boundaries) > 0)

    def test_span_wider_than_float_range_keeps_finite_bins(self):
        # ``high - low`` overflows to inf here; the bins must not.
        values = np.array([-1e308, 0.0, 1e308])
        with np.errstate(all="raise"):
            q = LinearQuantizer(4).fit(values)
            assert q.transform(values).tolist() == [0, 2, 3]
            assert np.all(np.isfinite(q.boundaries))
            assert np.all(np.diff(q.boundaries) > 0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearQuantizer(4).transform(np.array([1.0]))

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearQuantizer(4).fit(np.array([]))

    def test_fit_rejects_nan(self):
        with pytest.raises(ValueError):
            LinearQuantizer(4).fit(np.array([1.0, np.nan]))

    def test_preserves_shape(self):
        q = LinearQuantizer(4).fit(np.linspace(0, 1, 10))
        out = q.transform(np.zeros((3, 5)))
        assert out.shape == (3, 5)

    def test_monotone(self):
        q = LinearQuantizer(8).fit(np.linspace(0, 1, 100))
        values = np.sort(np.random.default_rng(0).random(50))
        levels = q.transform(values)
        assert np.all(np.diff(levels) >= 0)

    def test_skewed_data_wastes_levels(self):
        # The Fig. 3a pathology: heavy skew leaves upper levels nearly empty.
        values = np.exp(np.random.default_rng(0).normal(size=5000))
        q = LinearQuantizer(8).fit(values)
        counts = q.level_counts(values)
        assert counts[0] > 0.7 * counts.sum()

    def test_bits(self):
        assert LinearQuantizer(4).bits == 2
        assert LinearQuantizer(16).bits == 4
        assert LinearQuantizer(3).bits == 2
