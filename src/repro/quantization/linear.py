"""Linearly spaced quantization — the conventional HDC scheme."""

from __future__ import annotations

import numpy as np

from repro.quantization.base import Quantizer


class LinearQuantizer(Quantizer):
    """Quantize into ``levels`` equal-width bins over ``[f_min, f_max]``.

    This is the baseline scheme of prior HDC work ([33], [37], [47] in the
    paper): the observed value range is divided into ``q`` equal intervals
    regardless of how the data is distributed, so skewed features waste
    levels on nearly empty ranges (Fig. 3a).
    """

    def __init__(self, levels: int):
        super().__init__(levels)
        self._low = 0.0
        self._width = 1.0
        self._scaled = False

    def _fit(self, flat_values: np.ndarray) -> None:
        low = float(flat_values.min())
        high = float(flat_values.max())
        self._low = low
        # A finite span wider than the float64 range overflows
        # ``high - low``; only then divide before subtracting.
        self._scaled = not np.isfinite(high - low)
        if self._scaled:
            width = high / self.levels - low / self.levels
        else:
            width = (high - low) / self.levels
        # A constant feature (or a span so narrow that its bin width
        # underflows) collapses to a single level; keep width positive.
        self._width = width if width > 0 else 1.0

    def _transform(self, values: np.ndarray) -> np.ndarray:
        if self._scaled:
            bins = values / self._width - self._low / self._width
        else:
            bins = (values - self._low) / self._width
        return np.floor(bins).astype(np.int64)

    @property
    def boundaries(self) -> np.ndarray:
        return self._low + self._width * np.arange(1, self.levels)
