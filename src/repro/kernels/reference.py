"""NumPy definitions of the batched lookup-domain primitives.

LookHD reduces HD learning to a handful of cheap primitives (Sec. III–IV,
Figs. 5–6): chunk addressing, counter observe/materialise, table
gather-accumulate and packed popcount.  Each is defined here, once, and
called directly by :mod:`repro.lookhd.chunking`,
:mod:`repro.lookhd.counters`, :mod:`repro.lookhd.inference` and
:mod:`repro.hdc.bitpacked`.

Each primitive is batched: one call per training batch, inference batch,
or materialisation, never per sample.  :func:`gather_accumulate` fixes
its float accumulation order (chunk-major), which is what makes fused
scores bit-reproducible: identical across score-table rebuilds, and
identical to exact scoring for the rows approximate scoring refines.

Popcount
--------
The NumPy >= 2.0 ``np.bitwise_count`` feature check lives here, once, at
import time — :func:`packed_popcount` picks the hardware ufunc when the
running NumPy has it and the 256-entry byte LUT otherwise.  Both produce
identical integers, and :func:`popcount_lut` stays importable and tested
regardless of the NumPy version.
"""

from __future__ import annotations

import numpy as np


def chunk_addresses(
    levels: np.ndarray, q: int, chunk_size: int, n_chunks: int, pad_level: int = 0
) -> np.ndarray:
    """Quantized levels → per-chunk lookup-table addresses, fused.

    Parameters
    ----------
    levels:
        ``(N, n)`` integer level indices in ``[0, q)``.
    q, chunk_size, n_chunks:
        Chunk geometry; ``n_chunks * chunk_size >= n``, the tail padded
        with ``pad_level``.

    Returns
    -------
    ``(N, m)`` int64 addresses in ``[0, q**chunk_size)``; address ``a``
    encodes the chunk's levels big-endian in base ``q`` (first feature is
    the most significant digit), matching
    :func:`repro.quantization.codebook.chunk_addresses`.
    """
    levels = np.asarray(levels)
    padded_width = n_chunks * chunk_size
    if padded_width != levels.shape[1]:
        pad = np.full(
            (levels.shape[0], padded_width - levels.shape[1]),
            pad_level,
            dtype=levels.dtype,
        )
        levels = np.concatenate([levels, pad], axis=1)
    chunks = levels.reshape(levels.shape[0], n_chunks, chunk_size)
    weights = q ** np.arange(chunk_size - 1, -1, -1, dtype=np.int64)
    return (chunks.astype(np.int64) * weights).sum(axis=-1)


def counter_observe(addresses: np.ndarray, n_chunks: int, n_rows: int) -> np.ndarray:
    """Histogram a batch of chunk addresses into ``(m, q^r)`` counts.

    One bincount over ``(chunk, address)`` pairs flattened to
    ``chunk * n_rows + address`` — the whole batch in a single C pass.
    """
    addresses = np.asarray(addresses)
    offsets = np.arange(n_chunks, dtype=np.int64) * n_rows
    flat = (addresses.astype(np.int64) + offsets[np.newaxis, :]).ravel()
    return np.bincount(flat, minlength=n_chunks * n_rows).reshape(n_chunks, n_rows)


def counter_materialize(
    counts: np.ndarray, table: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Counters × table × positions → the ``(D,)`` int64 class hypervector.

    ``C = Σ_i P_i ⊙ (Σ_a counts[i, a] · T[a])`` — Fig. 6 step E/F.  Pure
    int64 arithmetic, so any evaluation order is bit-identical; the
    sparse path below only skips zero rows (a class typically touches far
    fewer than ``q^r`` addresses per chunk).
    """
    counts = np.asarray(counts, dtype=np.int64)
    table = np.asarray(table, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    n_chunks = counts.shape[0]
    nonzero_fraction = np.count_nonzero(counts) / counts.size
    if nonzero_fraction < 0.25:
        chunk_sums = np.empty((n_chunks, table.shape[1]), dtype=np.int64)
        for chunk in range(n_chunks):
            rows = np.flatnonzero(counts[chunk])
            chunk_sums[chunk] = counts[chunk, rows] @ table[rows]
    else:
        chunk_sums = counts @ table
    return (chunk_sums * positions).sum(axis=0)


def gather_accumulate(
    table: np.ndarray, addresses: np.ndarray, out_dtype=np.float64
) -> np.ndarray:
    """Fused gather + sum: ``out[n] = Σ_c table[c, addresses[n, c]]``.

    The primitive behind fused score-table inference: ``table`` is the
    ``(m, q^r, k)`` float64 score table, ``out`` the per-class scores.

    Accumulation is chunk-major per output element (``c = 0, 1, …``), so
    the float variant is deterministic, and a caller that continues the
    same loop over further chunks (approximate scoring's refinement)
    reproduces the full sum bit for bit.
    """
    addresses = np.asarray(addresses)
    out = np.zeros((addresses.shape[0], table.shape[2]), dtype=out_dtype)
    for chunk in range(table.shape[0]):
        out += table[chunk][addresses[:, chunk]]
    return out


#: 256-entry byte-popcount LUT, built once at import — the fallback when
#: the hardware popcount ufunc below is unavailable.
POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
#: ``np.bitwise_count`` (NumPy >= 2) lowers to the POPCNT instruction;
#: ``None`` on older NumPy.  Checked once, here, not per call.
BITWISE_COUNT = getattr(np, "bitwise_count", None)


def popcount_lut(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of ``(…, W)`` uint64 words via the byte LUT."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


def packed_popcount(words: np.ndarray) -> np.ndarray:
    """Per-row population count of ``(…, W)`` uint64 words → ``(…,)`` int64."""
    if BITWISE_COUNT is not None:
        return BITWISE_COUNT(words).sum(axis=-1, dtype=np.int64)
    return popcount_lut(words)
