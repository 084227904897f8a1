"""Feature-vector chunking (Sec. III-A).

LookHD splits the ``n`` features into ``m`` sequential chunks of size
``r = n/m`` so every chunk can share one ``q^r``-row lookup table.  When
``n`` is not divisible by ``r`` the final chunk is padded with a reserved
constant level (level 0), which is equivalent to padding the feature vector
with ``f_min``; the padding contributes an identical offset to every
encoded sample and therefore never changes similarity rankings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import chunk_addresses
from repro.utils.validation import check_2d, check_positive_int


@dataclass(frozen=True)
class ChunkLayout:
    """Geometry of the chunk split.

    Attributes
    ----------
    n_features:
        Raw feature count ``n``.
    chunk_size:
        Features per chunk ``r``.
    n_chunks:
        Chunk count ``m = ceil(n / r)``.
    padding:
        Number of padded positions in the final chunk.
    """

    n_features: int
    chunk_size: int

    def __post_init__(self):
        check_positive_int(self.n_features, "n_features")
        check_positive_int(self.chunk_size, "chunk_size")
        if self.chunk_size > self.n_features:
            raise ValueError(
                f"chunk_size ({self.chunk_size}) cannot exceed "
                f"n_features ({self.n_features})"
            )

    @property
    def n_chunks(self) -> int:
        return -(-self.n_features // self.chunk_size)

    @property
    def padding(self) -> int:
        return self.n_chunks * self.chunk_size - self.n_features

    @property
    def padded_features(self) -> int:
        return self.n_chunks * self.chunk_size

    def split_levels(self, levels: np.ndarray, pad_level: int = 0) -> np.ndarray:
        """Reshape ``(N, n)`` quantized levels into ``(N, m, r)`` chunks.

        Parameters
        ----------
        levels:
            Integer level indices per feature.
        pad_level:
            Level index used to fill the tail of the last chunk.
        """
        levels = check_2d(levels, "levels")
        if levels.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {levels.shape[1]}"
            )
        if self.padding:
            pad = np.full((levels.shape[0], self.padding), pad_level, dtype=levels.dtype)
            levels = np.concatenate([levels, pad], axis=1)
        return levels.reshape(levels.shape[0], self.n_chunks, self.chunk_size)

    def addresses(self, levels: np.ndarray, q: int, pad_level: int = 0) -> np.ndarray:
        """Fused pad + chunk + base-``q`` addressing: ``(N, n)`` → ``(N, m)``.

        The :func:`~repro.kernels.chunk_addresses` primitive; bit-identical
        to :func:`repro.quantization.codebook.chunk_addresses` over
        ``self.split_levels(levels)`` without materialising the
        ``(N, m, r)`` intermediate.
        """
        levels = check_2d(levels, "levels")
        if levels.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {levels.shape[1]}"
            )
        return chunk_addresses(levels, q, self.chunk_size, self.n_chunks, pad_level)

    def describe(self) -> str:
        """Human-readable layout summary for reports and examples."""
        return (
            f"{self.n_features} features -> {self.n_chunks} chunks of "
            f"{self.chunk_size} (padding {self.padding})"
        )
