"""Retraining on the compressed model (Sec. IV-D, Fig. 9).

Each iteration scans the (already encoded) training set, scores it on the
compressed model, and for every misprediction applies

    C̃ = C + P'_correct ⊙ H − P'_wrong ⊙ H

to a *shadow copy* of the compressed hypervectors, exactly as the hardware
does (Sec. V-C): the live model keeps serving inference while the copy
accumulates the epoch's updates and is swapped in at the end of the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lookhd.compression import CompressedModel
from repro.utils.validation import check_labels


@dataclass
class RetrainTrace:
    """Accuracy/update history across retraining iterations."""

    updates_per_iteration: list[int] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.updates_per_iteration)

    @property
    def total_updates(self) -> int:
        return int(sum(self.updates_per_iteration))


def retrain_compressed(
    model: CompressedModel,
    encoded_train: np.ndarray,
    labels: np.ndarray,
    iterations: int = 10,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
    stop_when_clean: bool = True,
) -> RetrainTrace:
    """Run perceptron retraining on ``model`` in place.

    Parameters
    ----------
    model:
        Compressed model to refine (mutated).
    encoded_train:
        ``(N, D)`` encoded training hypervectors.
    labels:
        ``(N,)`` integer labels.
    iterations:
        Maximum passes (the paper uses ~10).
    validation:
        Optional ``(encoded, labels)`` pair scored after each pass.
    stop_when_clean:
        Stop early once a pass makes zero updates.

    Returns
    -------
    :class:`RetrainTrace` with per-iteration updates and accuracies.
    """
    encoded_train = np.atleast_2d(np.asarray(encoded_train))
    # Shape-validated labels only: an (N, 1) label array would broadcast
    # every ``predictions == labels`` below to (N, N) and silently corrupt
    # both the accuracy trace and the misprediction set.
    labels = check_labels(labels, "labels", n_samples=encoded_train.shape[0])
    if validation is not None:
        val_encoded = np.atleast_2d(np.asarray(validation[0]))
        validation = (
            val_encoded.astype(np.float64, copy=False),
            check_labels(validation[1], "validation labels", n_samples=val_encoded.shape[0]),
        )
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    # Scores and updates work in float64: convert both sets once here, not
    # in every predict and update (the same values either way).
    train = encoded_train.astype(np.float64, copy=False)
    trace = RetrainTrace()
    # The paper retrains "until the accuracy stabilises over the validation
    # data"; with a fixed iteration budget the equivalent is keeping the
    # best-scoring state seen and restoring it at the end, which also guards
    # against late-pass perceptron thrash.
    best_accuracy = -1.0
    best_state: tuple[np.ndarray, np.ndarray] | None = None

    def _accuracy(encoded: np.ndarray, expected: np.ndarray) -> float:
        return float(np.mean(np.atleast_1d(model.predict(encoded)) == expected))

    def _selection_accuracy() -> float:
        return _accuracy(*validation) if validation is not None else _accuracy(train, labels)

    for _ in range(iterations):
        # All predictions for the pass are computed before any update, so
        # every sample sees the same (pre-update) model — the shadow-copy
        # semantics of the hardware pipeline (Sec. V-C).
        predictions = np.atleast_1d(model.predict(train))
        train_accuracy = float(np.mean(predictions == labels))
        # Without a validation set the pass's own predictions are the
        # selection score: the model has not changed since they were made.
        accuracy_now = train_accuracy if validation is None else _accuracy(*validation)
        if accuracy_now > best_accuracy:
            best_accuracy = accuracy_now
            best_state = (model.compressed.copy(), model.prepared_classes.copy())
        wrong = np.flatnonzero(predictions != labels)
        for index in wrong:
            model.retrain_update(int(labels[index]), int(predictions[index]), train[index])
        trace.updates_per_iteration.append(int(wrong.size))
        trace.train_accuracy.append(train_accuracy)
        if validation is not None:
            trace.validation_accuracy.append(_accuracy(*validation))
        if stop_when_clean and wrong.size == 0:
            break
    if iterations > 0 and best_state is not None and _selection_accuracy() < best_accuracy:
        model.compressed, model.prepared_classes = best_state
        model.mark_dirty()
    return trace
