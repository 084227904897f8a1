"""StreamingQuantizer: convergence, freeze protocol, cache invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hdc.item_memory import LevelItemMemory
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.encoder import LookupEncoder
from repro.lookhd.inference import FusedInferenceEngine
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.lookhd.online import OnlineLookHD
from repro.quantization.equalized import EqualizedQuantizer
from repro.streaming import StreamingQuantizer
from repro.utils.rng import derive_rng


def _encoder(quantizer, n_features=12, dim=256, chunk_size=4, seed=11):
    item_memory = LevelItemMemory(
        quantizer.levels, dim, rng=derive_rng(seed, "lookhd-levels")
    )
    table = ChunkLookupTable(item_memory, chunk_size)
    layout = ChunkLayout(n_features, chunk_size)
    return LookupEncoder(quantizer, table, layout, seed=derive_rng(seed, "lookhd-positions"))


class TestQuantizerContract:
    def test_fit_transform_round_trip(self, rng):
        values = rng.normal(size=(200, 6))
        sq = StreamingQuantizer(levels=4)
        levels = sq.fit(values).transform(values)
        assert levels.min() >= 0 and levels.max() <= 3
        # Equalized placement: every level carries roughly 1/4 of the mass.
        occupancy = np.bincount(levels.ravel(), minlength=4) / values.size
        assert occupancy.min() > 0.15

    def test_fit_resets_partial_fit_history(self, rng):
        sq = StreamingQuantizer(levels=4)
        sq.partial_fit(rng.normal(loc=100.0, size=1_000))
        sq.fit(rng.normal(loc=0.0, size=(250, 4)))
        # Boundaries reflect only the fit() data — the loc=100 history is gone.
        assert sq.boundaries.max() < 50.0
        assert sq.sketch.n == 1_000

    def test_transform_before_fit_raises(self):
        sq = StreamingQuantizer(levels=4)
        with pytest.raises(RuntimeError):
            sq.transform(np.zeros((2, 2)))

    def test_empty_partial_fit_is_noop(self):
        sq = StreamingQuantizer(levels=4)
        sq.partial_fit(np.empty(0))
        assert sq.sketch.n == 0
        assert sq.version == 0

    def test_rejects_non_finite(self):
        sq = StreamingQuantizer(levels=4)
        with pytest.raises(ValueError, match="non-finite"):
            sq.partial_fit(np.array([1.0, np.inf]))


class TestConvergence:
    def test_boundaries_converge_to_full_pass(self, rng):
        values = rng.lognormal(size=50_000)
        oracle = EqualizedQuantizer(levels=8).fit(values)
        sq = StreamingQuantizer(levels=8, sketch_capacity=128)
        for start in range(0, values.size, 2_500):
            sq.partial_fit(values[start : start + 2_500])
        # Level-occupancy divergence bounded by the sketch guarantee:
        # each boundary carries <= eps*n rank error plus interpolation slack.
        streaming_levels = sq.transform(values)
        oracle_levels = oracle.transform(values)
        bound = 2.0 * sq.rank_error_bound() + 2.0 / values.size
        for level in range(8):
            streaming_mass = np.mean(streaming_levels == level)
            oracle_mass = np.mean(oracle_levels == level)
            assert abs(streaming_mass - oracle_mass) <= bound

    def test_boundaries_strictly_increasing(self, rng):
        sq = StreamingQuantizer(levels=6)
        sq.partial_fit(rng.normal(size=5_000))
        assert np.all(np.diff(sq.boundaries) > 0)

    def test_deterministic_across_runs(self, rng):
        values = rng.normal(size=10_000)
        a = StreamingQuantizer(levels=4, sketch_capacity=32)
        b = StreamingQuantizer(levels=4, sketch_capacity=32)
        for start in range(0, values.size, 500):
            a.partial_fit(values[start : start + 500])
            b.partial_fit(values[start : start + 500])
        assert np.array_equal(a.boundaries, b.boundaries)
        assert a.version == b.version


class TestParallelMerge:
    def test_merged_workers_converge_to_full_pass(self, rng):
        # The parallel-ingestion protocol: workers sketch disjoint shards,
        # the owner merges them, boundaries land near full-pass placement.
        values = rng.lognormal(size=40_000)
        owner = StreamingQuantizer(levels=4, sketch_capacity=128)
        for shard in np.array_split(values, 4):
            worker = StreamingQuantizer(levels=4, sketch_capacity=128)
            worker.partial_fit(shard)
            owner.merge(worker)
        assert owner.sketch.n == values.size
        reference = EqualizedQuantizer(levels=4).fit(values)
        ordered = np.sort(values)
        slack = owner.sketch.max_rank_error() + 1
        for ours, theirs in zip(owner.boundaries, reference.boundaries):
            rank_gap = abs(
                np.searchsorted(ordered, ours) - np.searchsorted(ordered, theirs)
            )
            assert rank_gap <= 2 * slack

    def test_merge_accepts_raw_sketch_and_bumps_version(self, rng):
        from repro.streaming import QuantileSketch

        owner = StreamingQuantizer(levels=4)
        owner.partial_fit(rng.normal(size=500))
        version = owner.version
        shifted = QuantileSketch(owner.sketch.capacity).update(
            rng.normal(loc=50.0, size=2_000)
        )
        owner.merge(shifted)
        assert owner.version > version
        assert owner.boundaries.max() > 10.0

    def test_frozen_merge_ingests_without_republishing(self, rng):
        owner = StreamingQuantizer(levels=4)
        owner.partial_fit(rng.normal(size=1_000))
        owner.freeze()
        before = owner.boundaries
        worker = StreamingQuantizer(levels=4)
        worker.partial_fit(rng.normal(loc=30.0, size=2_000))
        owner.merge(worker)
        assert np.array_equal(owner.boundaries, before)
        assert owner.sketch.n == 3_000
        owner.unfreeze()
        assert not np.array_equal(owner.boundaries, before)

    def test_merge_rejects_level_mismatch(self, rng):
        owner = StreamingQuantizer(levels=4)
        other = StreamingQuantizer(levels=8)
        other.partial_fit(rng.normal(size=100))
        with pytest.raises(ValueError, match="level"):
            owner.merge(other)


class TestFreezeProtocol:
    def test_version_bumps_only_on_boundary_moves(self, rng):
        sq = StreamingQuantizer(levels=4)
        assert sq.version == 0
        sq.partial_fit(rng.normal(size=1_000))
        first = sq.version
        assert first >= 1
        # Re-feeding a tiny batch that cannot move the quantiles may or may
        # not bump; feeding a shifted distribution must.
        sq.partial_fit(rng.normal(loc=10.0, size=5_000))
        assert sq.version > first

    def test_freeze_pins_boundaries_while_sketch_ingests(self, rng):
        sq = StreamingQuantizer(levels=4)
        sq.partial_fit(rng.normal(size=2_000))
        pinned = sq.boundaries
        version = sq.version
        sq.freeze()
        assert sq.frozen
        sq.partial_fit(rng.normal(loc=25.0, size=5_000))
        assert np.array_equal(sq.boundaries, pinned)
        assert sq.version == version
        assert sq.sketch.n == 7_000  # ingestion never stopped

    def test_unfreeze_adopts_accumulated_state(self, rng):
        sq = StreamingQuantizer(levels=4)
        sq.partial_fit(rng.normal(size=2_000))
        version = sq.version
        sq.freeze()
        sq.partial_fit(rng.normal(loc=25.0, size=5_000))
        sq.unfreeze()
        assert not sq.frozen
        assert sq.version > version
        assert sq.boundaries.max() > 10.0

    def test_unfreeze_without_refresh_keeps_boundaries(self, rng):
        sq = StreamingQuantizer(levels=4)
        sq.partial_fit(rng.normal(size=2_000))
        pinned = sq.boundaries
        sq.freeze()
        sq.partial_fit(rng.normal(loc=25.0, size=5_000))
        sq.unfreeze(refresh=False)
        assert np.array_equal(sq.boundaries, pinned)


class TestCacheInvalidation:
    """Boundary moves must flow through every derived cache."""

    def test_encoder_version_tracks_quantizer(self, rng):
        sq = StreamingQuantizer(levels=4)
        sq.partial_fit(rng.normal(size=(100, 12)))
        encoder = _encoder(sq)
        before = encoder.encoding_version
        sq.partial_fit(rng.normal(loc=30.0, size=(500, 12)))
        assert encoder.encoding_version > before

    def test_fused_engine_rebuilds_and_predictions_follow(self, rng):
        sq = StreamingQuantizer(levels=4)
        train = rng.normal(size=(300, 12))
        labels = (train.sum(axis=1) > 0).astype(np.int64)
        sq.partial_fit(train)
        encoder = _encoder(sq)
        online = OnlineLookHD(encoder, 2)
        online.partial_fit(train, labels)
        engine = FusedInferenceEngine(encoder, online.class_model())
        queries = rng.normal(size=(20, 12))
        engine.predict(queries)
        built_before = engine._built_encoding_version
        # Shift the distribution hard: boundaries move, table is stale.
        sq.partial_fit(rng.normal(loc=50.0, size=(2_000, 12)))
        engine.predict(queries)
        assert engine._built_encoding_version != built_before
        # After the rebuild, the fused path agrees with the direct
        # encode-then-score path under the *new* boundaries.
        direct = np.atleast_1d(online.class_model().predict(encoder.encode(queries)))
        fused = np.atleast_1d(engine.predict(queries))
        np.testing.assert_array_equal(fused, direct)
