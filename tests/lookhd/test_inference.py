"""Exact-equivalence suite: fused lookup-domain inference vs reference.

The fused engine must be indistinguishable from the hypervector-domain
pipeline: identical argmax on every sample, scores equal to float
rounding, across quantization levels, grouping modes, decorrelation, and
through retraining-driven invalidation.
"""

import warnings

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.inference import FusedFallbackWarning, FusedInferenceEngine


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(
        n_features=30,
        n_classes=13,
        n_train=260,
        n_test=130,
        class_separation=2.5,
        seed=11,
    )
    return make_synthetic_classification(spec, name="equivalence")


def fit(dataset, retrain_iterations=0, **overrides):
    defaults = dict(dim=384, levels=4, chunk_size=5, seed=5)
    defaults.update(overrides)
    clf = LookHDClassifier(LookHDConfig(**defaults))
    clf.fit(dataset.train_features, dataset.train_labels, retrain_iterations=retrain_iterations)
    return clf


def reference_scores(clf, features):
    encoded = clf.encoder.encode_reference(features)
    if clf.compressed_model is not None:
        return clf.compressed_model.scores_reference(encoded)
    return clf.class_model.scores(encoded)


class TestFusedEquivalence:
    @pytest.mark.parametrize("levels", [2, 4])
    @pytest.mark.parametrize("group_size", [None, 12])
    @pytest.mark.parametrize("decorrelate", [True, False])
    def test_predictions_and_scores_match_reference(
        self, dataset, levels, group_size, decorrelate
    ):
        clf = fit(dataset, levels=levels, group_size=group_size, decorrelate=decorrelate)
        engine = clf.fused_engine()
        assert engine.enabled
        fused = clf.predict(dataset.test_features)
        reference = clf.predict_reference(dataset.test_features)
        assert np.array_equal(fused, reference)
        assert np.allclose(
            engine.scores(dataset.test_features),
            reference_scores(clf, dataset.test_features),
        )

    def test_uncompressed_class_model_path(self, dataset):
        clf = fit(dataset, compress=False)
        assert clf.compressed_model is None
        fused = clf.predict(dataset.test_features)
        assert np.array_equal(fused, clf.predict_reference(dataset.test_features))
        assert np.allclose(
            clf.fused_engine().scores(dataset.test_features),
            reference_scores(clf, dataset.test_features),
        )

    def test_matches_after_fit_with_retraining(self, dataset):
        clf = fit(dataset, retrain_iterations=4)
        assert np.array_equal(
            clf.predict(dataset.test_features),
            clf.predict_reference(dataset.test_features),
        )

    def test_retrain_update_invalidates_score_table(self, dataset):
        clf = fit(dataset)
        engine = clf.fused_engine()
        # Build the table, then mutate the model behind the engine's back.
        scores_before = engine.scores(dataset.test_features)
        query = clf.encode(dataset.train_features[0])
        for _ in range(25):
            clf.compressed_model.retrain_update(1, 0, query)
        scores_after = engine.scores(dataset.test_features)
        # A stale table would have returned the identical scores.
        assert not np.allclose(scores_before, scores_after)
        assert np.allclose(
            scores_after, reference_scores(clf, dataset.test_features)
        )
        assert np.array_equal(
            clf.predict(dataset.test_features),
            clf.predict_reference(dataset.test_features),
        )

    def test_version_counter_tracks_mutations(self, dataset):
        clf = fit(dataset)
        model = clf.compressed_model
        version = model.version
        model.retrain_update(0, 1, np.ones(model.dim))
        assert model.version == version + 1
        model.mark_dirty()
        assert model.version == version + 2

    def test_single_sample_predict_returns_int64_scalar(self, dataset):
        clf = fit(dataset)
        assert isinstance(clf.predict(dataset.test_features[0]), np.int64)
        assert clf.predict(dataset.test_features[0]) == clf.predict_reference(
            dataset.test_features[0]
        )

    def test_budget_fallback_matches(self, dataset):
        fused = fit(dataset)
        fallback = fit(dataset, score_table_budget_bytes=1)
        assert not fallback.fused_engine().enabled
        with pytest.warns(FusedFallbackWarning):
            predictions = fallback.predict(dataset.test_features)
        assert np.array_equal(fused.predict(dataset.test_features), predictions)

    def test_disabled_engine_raises_on_direct_use(self, dataset):
        clf = fit(dataset, score_table_budget_bytes=1)
        with pytest.warns(FusedFallbackWarning):
            with pytest.raises(RuntimeError, match="predict"):
                clf.fused_engine().scores(dataset.test_features)

    def test_engine_rejects_dimension_mismatch(self, dataset):
        clf = fit(dataset)
        other = fit(dataset, dim=128)
        with pytest.raises(ValueError):
            FusedInferenceEngine(clf.encoder, other.compressed_model)

    def test_score_table_shape_and_reuse(self, dataset):
        clf = fit(dataset)
        engine = clf.fused_engine()
        table = engine.score_table
        assert table.shape == (
            clf.encoder.layout.n_chunks,
            clf.encoder.lookup_table.n_rows,
            clf.n_classes,
        )
        # Untouched model: the exact same table object is served again.
        assert engine.score_table is table
        assert engine.memory_bytes() == table.nbytes

    def test_unbound_positions_ablation_matches(self, dataset):
        clf = fit(dataset)
        clf.encoder.bind_positions = False
        engine = FusedInferenceEngine(clf.encoder, clf.compressed_model)
        assert np.allclose(
            engine.scores(dataset.test_features),
            reference_scores(clf, dataset.test_features),
        )


class TestFallbackObservability:
    def test_enabled_engine_reports_no_fallback(self, dataset):
        clf = fit(dataset)
        engine = clf.fused_engine()
        assert engine.enabled
        with warnings.catch_warnings():
            warnings.simplefilter("error", FusedFallbackWarning)
            clf.predict(dataset.test_features)
        assert engine.fallback_reason is None

    def test_fallback_sets_queryable_reason(self, dataset):
        clf = fit(dataset, score_table_budget_bytes=1)
        engine = clf.fused_engine()
        assert engine.fallback_reason is None  # nothing served yet
        with pytest.warns(FusedFallbackWarning):
            clf.predict(dataset.test_features)
        reason = engine.fallback_reason
        assert reason is not None
        # Actionable: states the footprint, the geometry, and the budget.
        assert "bytes" in reason and "budget is 1" in reason
        assert f"k={clf.n_classes}" in reason

    def test_fallback_warns_exactly_once(self, dataset):
        clf = fit(dataset, score_table_budget_bytes=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clf.predict(dataset.test_features)
            clf.predict(dataset.test_features)
            clf.score(dataset.test_features, dataset.test_labels)
        fallback_warnings = [
            w for w in caught if issubclass(w.category, FusedFallbackWarning)
        ]
        assert len(fallback_warnings) == 1

    def test_fallback_predictions_still_exact(self, dataset):
        clf = fit(dataset, score_table_budget_bytes=1)
        with pytest.warns(FusedFallbackWarning):
            predictions = clf.predict(dataset.test_features)
        assert np.array_equal(predictions, clf.predict_reference(dataset.test_features))


class TestEncoderFastPath:
    def test_encode_bit_identical(self, dataset):
        clf = fit(dataset)
        assert np.array_equal(
            clf.encoder.encode(dataset.test_features),
            clf.encoder.encode_reference(dataset.test_features),
        )

    def test_encode_many_preallocated_matches(self, dataset):
        clf = fit(dataset)
        batch = dataset.test_features
        out = clf.encoder.encode_many(batch, batch_size=17)
        assert out.shape == (batch.shape[0], clf.encoder.dim)
        assert np.array_equal(out, clf.encoder.encode_reference(batch))

    def test_compressed_scores_match_group_loop(self, dataset):
        clf = fit(dataset, group_size=4)
        encoded = clf.encoder.encode(dataset.test_features)
        assert np.allclose(
            clf.compressed_model.scores(encoded),
            clf.compressed_model.scores_reference(encoded),
        )
