"""Quantizer interface shared by linear and equalized schemes."""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.validation import check_finite, check_positive_int


class Quantizer(abc.ABC):
    """Maps raw feature values to integer level indices in ``[0, levels)``.

    A quantizer is *fitted* on training data (to learn the value range or
    the quantile boundaries) and then *transforms* any array of the same
    feature width elementwise.  Fitting is global over all features, as in
    the paper, which quantizes against the dataset-wide
    ``(f_min, f_max)`` range / value distribution.
    """

    def __init__(self, levels: int):
        self.levels = check_positive_int(levels, "levels")
        self._fitted = False
        self._version = 0

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    @property
    def version(self) -> int:
        """Monotonic boundary version, bumped whenever boundaries (re)learn.

        Consumers that cache state whose *semantics* depend on the raw
        value → level map — a fused score table addressed by quantized
        chunks — key their caches to this
        counter (the library-wide version-counter idiom), so a streaming
        quantizer refreshing its boundaries mid-serving can never leave a
        stale cache serving the old value→address map.
        """
        return self._version

    @property
    def bits(self) -> int:
        """Codebook width ``ceil(log2(q))`` in bits (min 1)."""
        return max(1, int(np.ceil(np.log2(self.levels))))

    def fit(self, values: np.ndarray) -> "Quantizer":
        """Learn quantization parameters from training values."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot fit a quantizer on empty data")
        check_finite(values, "training values")
        self._fit(values.ravel())
        self._fitted = True
        self._version += 1
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Map values to level indices; out-of-range values clip to the ends.

        Rejects NaN/inf inputs: a NaN would land in an arbitrary level and
        silently corrupt every downstream hypervector.
        """
        if not self._fitted:
            raise RuntimeError("quantizer must be fitted before transform")
        values = check_finite(np.asarray(values, dtype=np.float64), "values")
        indices = self._transform(values)
        return np.clip(indices, 0, self.levels - 1).astype(np.int64)

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        """Fit on ``values`` then transform them."""
        return self.fit(values).transform(values)

    @abc.abstractmethod
    def _fit(self, flat_values: np.ndarray) -> None:
        """Learn parameters from a flat 1-D float array."""

    @abc.abstractmethod
    def _transform(self, values: np.ndarray) -> np.ndarray:
        """Map float values to raw (unclipped) integer indices."""

    @property
    @abc.abstractmethod
    def boundaries(self) -> np.ndarray:
        """The ``levels − 1`` interior decision boundaries, ascending."""

    def level_counts(self, values: np.ndarray) -> np.ndarray:
        """How many of ``values`` fall into each level (diagnostic, Fig. 3)."""
        indices = self.transform(values).ravel()
        return np.bincount(indices, minlength=self.levels)
