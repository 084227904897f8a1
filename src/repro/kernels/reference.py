"""NumPy reference implementations of the batched hot-path primitives.

These are the *semantic definitions* of the kernel registry's primitives:
every compiled backend must reproduce them bit for bit (enforced by the
registry's probe verification and by ``tests/kernels``).  They are also
the always-available fallback, so the library works — at NumPy speed —
on any machine, with no optional dependency installed.

Each primitive is batched: one call per training batch, inference batch,
or materialisation, never per sample.  Floating-point primitives fix
their accumulation order (chunk-major, as the pre-registry code already
did), which is what makes bit-identical compiled backends possible at
all — a backend that reassociates float additions cannot pass the gates
and is demoted by the registry.

Popcount centralisation
-----------------------
The NumPy >= 2.0 ``np.bitwise_count`` feature check lives here, once, at
import time — :func:`packed_popcount` picks the hardware ufunc when the
running NumPy has it and the 256-entry byte LUT otherwise.  Both produce
identical integers, and both stay importable/testable regardless of the
NumPy version (:func:`popcount_lut` is always exercised by the kernel
tests even when ``bitwise_count`` exists).
"""

from __future__ import annotations

import numpy as np

#: Ordered names of the registry's primitives.  ``counter_observe`` and
#: ``counter_materialize`` are the two halves of the paper's counter
#: primitive; together the six ops cover the five hot-path primitives of
#: the lookup-domain pipeline (addressing, counters, fused scoring,
#: packed popcount, compressed scoring).
OP_NAMES = (
    "chunk_addresses",
    "counter_observe",
    "counter_materialize",
    "gather_accumulate",
    "packed_popcount",
    "compressed_score",
)


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
    the float variant is deterministic and compiled backends can match it
    bit for bit.
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


def popcount_bitwise_count(words: np.ndarray) -> np.ndarray:
    """Per-row popcount via ``np.bitwise_count`` (NumPy >= 2 only)."""
    if BITWISE_COUNT is None:
        raise RuntimeError("np.bitwise_count is unavailable on this NumPy")
    return BITWISE_COUNT(words).sum(axis=-1, dtype=np.int64)


def packed_popcount(words: np.ndarray) -> np.ndarray:
    """Per-row population count of ``(…, W)`` uint64 words → ``(…,)`` int64."""
    if BITWISE_COUNT is not None:
        return BITWISE_COUNT(words).sum(axis=-1, dtype=np.int64)
    return popcount_lut(words)


def compressed_score(queries: np.ndarray, search_matrix: np.ndarray) -> np.ndarray:
    """Compressed-model search: ``(N, D) @ (k, D).T`` → ``(N, k)`` scores.

    One BLAS GEMM — already a compiled kernel.  A JIT backend is only
    accepted by the registry if it reproduces the exact GEMM bits (it
    must route to the same BLAS); a reassociating loop is demoted.
    """
    return queries @ search_matrix.T


REFERENCE_OPS = {name: globals()[name] for name in OP_NAMES}


def probe_inputs(op: str) -> list[tuple]:
    """Deterministic probe argument tuples for backend verification.

    Small enough to run in microseconds, shaped to cover the dtype and
    geometry corners each primitive meets in production (padding, empty
    counts, int and float tables, all-ones/zeros words, a paper-scale
    GEMM for :func:`compressed_score`).
    """
    rng = np.random.default_rng(0xC0DE)
    if op == "chunk_addresses":
        return [
            (rng.integers(0, 4, size=(7, 11), dtype=np.int64), 4, 3, 4, 0),
            (rng.integers(0, 2, size=(5, 8), dtype=np.int64), 2, 4, 2, 0),
            (rng.integers(0, 6, size=(3, 5), dtype=np.int64), 6, 2, 3, 1),
        ]
    if op == "counter_observe":
        return [
            (rng.integers(0, 16, size=(50, 6), dtype=np.int64), 6, 16),
            (np.zeros((0, 4), dtype=np.int64), 4, 8),
        ]
    if op == "counter_materialize":
        dense = rng.integers(0, 9, size=(4, 16)).astype(np.int64)
        sparse = np.zeros((4, 16), dtype=np.int64)
        sparse[1, 3] = 17
        sparse[3, 12] = 2
        table = rng.integers(-5, 6, size=(16, 32)).astype(np.int64)
        positions = rng.choice([-1, 1], size=(4, 32)).astype(np.int64)
        return [(dense, table, positions), (sparse, table, positions)]
    if op == "gather_accumulate":
        addresses = rng.integers(0, 16, size=(9, 5), dtype=np.int64)
        float_table = rng.standard_normal((5, 16, 7))
        int_table = rng.integers(-4, 5, size=(5, 16, 7)).astype(np.int16)
        return [
            (float_table, addresses, np.float64),
            (int_table, addresses, np.int64),
        ]
    if op == "packed_popcount":
        words = rng.integers(0, 2**63, size=(9, 5), dtype=np.uint64)
        words[0, 0] = 0
        words[1, 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        return [(words,), (words[0],)]
    if op == "compressed_score":
        return [
            (rng.standard_normal((64, 256)), rng.standard_normal((13, 256))),
            (rng.standard_normal((128, 2000)), rng.standard_normal((26, 2000))),
        ]
    raise ValueError(f"unknown kernel op {op!r}")
