import copy

import numpy as np
import pytest

from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.retraining import RetrainTrace, retrain_compressed


def fit_base(small_dataset, seed=0):
    clf = LookHDClassifier(LookHDConfig(dim=512, levels=4, chunk_size=4, seed=seed))
    clf.fit(small_dataset.train_features, small_dataset.train_labels)
    encoded = clf.encoder.encode_many(small_dataset.train_features)
    return clf, encoded


class TestRetrainCompressed:
    def test_accuracy_never_collapses(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        before = clf.score(small_dataset.test_features, small_dataset.test_labels)
        retrain_compressed(
            clf.compressed_model, encoded, small_dataset.train_labels, iterations=8
        )
        after = clf.score(small_dataset.test_features, small_dataset.test_labels)
        # Best-state restoration guarantees retraining cannot end worse
        # than the best traversed state; allow small generalisation slack.
        assert after >= before - 0.05

    def test_trace_lengths(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        trace = retrain_compressed(
            clf.compressed_model, encoded, small_dataset.train_labels, iterations=4,
            stop_when_clean=False,
        )
        assert trace.iterations == 4
        assert len(trace.train_accuracy) == 4

    def test_early_stop_on_clean_pass(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        trace = retrain_compressed(
            clf.compressed_model, encoded, small_dataset.train_labels, iterations=50
        )
        assert trace.iterations < 50
        assert trace.updates_per_iteration[-1] == 0

    def test_zero_iterations_is_noop(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        before = clf.compressed_model.compressed.copy()
        trace = retrain_compressed(
            clf.compressed_model, encoded, small_dataset.train_labels, iterations=0
        )
        assert trace.iterations == 0
        assert np.array_equal(before, clf.compressed_model.compressed)

    def test_validation_trace_recorded(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        encoded_val = clf.encoder.encode_many(small_dataset.test_features)
        trace = retrain_compressed(
            clf.compressed_model,
            encoded,
            small_dataset.train_labels,
            iterations=3,
            validation=(encoded_val, small_dataset.test_labels),
            stop_when_clean=False,
        )
        assert len(trace.validation_accuracy) == 3

    def test_total_updates_property(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        trace = retrain_compressed(
            clf.compressed_model, encoded, small_dataset.train_labels, iterations=3,
            stop_when_clean=False,
        )
        assert trace.total_updates == sum(trace.updates_per_iteration)

    def test_column_labels_raise(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        column = np.asarray(small_dataset.train_labels).reshape(-1, 1)
        with pytest.raises(ValueError, match="labels"):
            retrain_compressed(clf.compressed_model, encoded, column, iterations=1)

    def test_column_validation_labels_raise(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        encoded_val = clf.encoder.encode_many(small_dataset.test_features)
        column = np.asarray(small_dataset.test_labels).reshape(-1, 1)
        with pytest.raises(ValueError, match="validation labels"):
            retrain_compressed(
                clf.compressed_model,
                encoded,
                small_dataset.train_labels,
                iterations=1,
                validation=(encoded_val, column),
            )


def _sabotage(model):
    """A retrain_update stand-in that wrecks the model instead of refining it."""

    def update(label, predicted, encoded_row):
        model.compressed[:] = 0.0
        model.mark_dirty()

    return update


def _thrash_labels(small_dataset):
    """Train labels with a few flips so a retrain pass must make updates."""
    labels = np.asarray(small_dataset.train_labels).copy()
    labels[:8] = (labels[:8] + 1) % int(labels.max() + 1)
    return labels


class TestBestStateRestore:
    def test_degrading_pass_is_rolled_back(self, small_dataset, monkeypatch):
        clf, encoded = fit_base(small_dataset)
        model = clf.compressed_model
        before_compressed = model.compressed.copy()
        before_prepared = model.prepared_classes.copy()
        monkeypatch.setattr(model, "retrain_update", _sabotage(model))
        trace = retrain_compressed(
            model, encoded, _thrash_labels(small_dataset), iterations=1,
            stop_when_clean=False,
        )
        # The sabotaged pass must have fired (otherwise this test proves
        # nothing) and the best-state restore must roll it back exactly.
        assert trace.updates_per_iteration[0] > 0
        np.testing.assert_array_equal(model.compressed, before_compressed)
        np.testing.assert_array_equal(model.prepared_classes, before_prepared)

    def test_restore_judged_on_validation_split(self, small_dataset, monkeypatch):
        clf, encoded = fit_base(small_dataset)
        encoded_val = clf.encoder.encode_many(small_dataset.test_features)
        model = clf.compressed_model
        before = model.compressed.copy()
        monkeypatch.setattr(model, "retrain_update", _sabotage(model))
        trace = retrain_compressed(
            model,
            encoded,
            _thrash_labels(small_dataset),
            iterations=1,
            validation=(encoded_val, small_dataset.test_labels),
            stop_when_clean=False,
        )
        assert trace.updates_per_iteration[0] > 0
        np.testing.assert_array_equal(model.compressed, before)

    def test_restore_invalidates_fused_score_table(self, small_dataset, monkeypatch):
        clf, encoded = fit_base(small_dataset)
        test = small_dataset.test_features
        # Warm the fused score table at the pre-retrain model version.
        before_fused = clf.predict(test)
        model = clf.compressed_model
        monkeypatch.setattr(model, "retrain_update", _sabotage(model))
        trace = retrain_compressed(
            model, encoded, _thrash_labels(small_dataset), iterations=1,
            stop_when_clean=False,
        )
        assert trace.updates_per_iteration[0] > 0
        # The restore path bumps the model version (mark_dirty), so the
        # fused engine must rebuild its score table instead of serving the
        # warmed-but-stale one; restored state == initial state, so fused
        # predictions must round-trip exactly, and agree with the
        # hypervector-domain reference.
        after_fused = clf.predict(test)
        np.testing.assert_array_equal(after_fused, before_fused)
        np.testing.assert_array_equal(after_fused, clf.predict_reference(test))


def _two_predict_retrain(model, encoded, labels, iterations):
    """The retraining loop with a separate selection predict per pass.

    Kept here as the oracle: it scores the training set twice per pass on
    the same unchanged model and hands the int64 rows to every predict
    and update, as the library did before the passes shared predictions.
    """
    trace = RetrainTrace()
    best_accuracy, best_state = -1.0, None

    def selection_accuracy():
        return float(np.mean(np.atleast_1d(model.predict(encoded)) == labels))

    for _ in range(iterations):
        accuracy_now = selection_accuracy()
        if accuracy_now > best_accuracy:
            best_accuracy = accuracy_now
            best_state = (model.compressed.copy(), model.prepared_classes.copy())
        predictions = np.atleast_1d(model.predict(encoded))
        wrong = np.flatnonzero(predictions != labels)
        for index in wrong:
            model.retrain_update(int(labels[index]), int(predictions[index]), encoded[index])
        trace.updates_per_iteration.append(int(wrong.size))
        trace.train_accuracy.append(float(np.mean(predictions == labels)))
    if iterations > 0 and best_state is not None and selection_accuracy() < best_accuracy:
        model.compressed, model.prepared_classes = best_state
        model.mark_dirty()
    return trace


class TestScoringPasses:
    def test_one_predict_per_pass(self, small_dataset, monkeypatch):
        clf, encoded = fit_base(small_dataset)
        model = clf.compressed_model
        seen = []
        predict = model.predict

        def counting_predict(queries):
            seen.append(np.asarray(queries).dtype)
            return predict(queries)

        monkeypatch.setattr(model, "predict", counting_predict)
        trace = retrain_compressed(
            model, encoded, _thrash_labels(small_dataset), iterations=4,
            stop_when_clean=False,
        )
        # One predict per pass plus the final best-state check, each on
        # the set converted to float64 once.
        assert len(seen) == trace.iterations + 1 == 5
        assert all(dtype == np.float64 for dtype in seen)

    def test_matches_two_predict_loop(self, small_dataset):
        clf, encoded = fit_base(small_dataset)
        labels = _thrash_labels(small_dataset)
        oracle_model = copy.deepcopy(clf.compressed_model)
        expected = _two_predict_retrain(oracle_model, encoded, labels, iterations=6)
        trace = retrain_compressed(
            clf.compressed_model, encoded, labels, iterations=6, stop_when_clean=False
        )
        assert trace.total_updates > 0
        assert trace == expected
        model = clf.compressed_model
        assert model.compressed.tobytes() == oracle_model.compressed.tobytes()
        assert model.prepared_classes.tobytes() == oracle_model.prepared_classes.tobytes()
