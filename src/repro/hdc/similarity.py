"""Similarity metrics between hypervectors.

The paper uses cosine similarity for the associative search and shows (Sec.
IV-A) that with pre-normalised class hypervectors it reduces to a plain dot
product.  All metrics here accept a single ``(D,)`` query or a ``(Q, D)``
batch against a ``(D,)`` vector or ``(K, D)`` matrix and return scalars,
``(K,)``, ``(Q,)``, or ``(Q, K)`` accordingly.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 1:
        return x[np.newaxis, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError(f"expected 1-D or 2-D array, got shape {x.shape}")


def dot_similarity(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Dot product similarity; the hardware-friendly search metric.

    With class hypervectors pre-normalised to unit magnitude this ranks
    identically to cosine (Sec. IV-A).
    """
    q, q_single = _as_matrix(query)
    k, k_single = _as_matrix(keys)
    scores = q.astype(np.float64) @ k.astype(np.float64).T
    if q_single and k_single:
        return scores[0, 0]
    if q_single:
        return scores[0]
    if k_single:
        return scores[:, 0]
    return scores


def cosine_similarity(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosine similarity δ(H, C) = H·C / (‖H‖ ‖C‖).

    Zero-magnitude inputs get similarity 0 rather than NaN — a bundled
    hypervector that cancelled to zero carries no information.
    """
    q, q_single = _as_matrix(query)
    k, k_single = _as_matrix(keys)
    q = q.astype(np.float64)
    k = k.astype(np.float64)
    q_norm = np.linalg.norm(q, axis=1, keepdims=True)
    k_norm = np.linalg.norm(k, axis=1, keepdims=True)
    q_norm[q_norm == 0] = 1.0
    k_norm[k_norm == 0] = 1.0
    scores = (q / q_norm) @ (k / k_norm).T
    if q_single and k_single:
        return scores[0, 0]
    if q_single:
        return scores[0]
    if k_single:
        return scores[:, 0]
    return scores


def _strictly_bipolar(x: np.ndarray) -> bool:
    """True when every element is exactly ±1 (packable without loss)."""
    if x.dtype.kind not in "iuf":
        return False
    return bool(((x == 1) | (x == -1)).all())


def hamming_similarity(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Fraction of matching elements between bipolar/binary hypervectors.

    Used by the binary-HDC comparator (Sec. VII related work); 1.0 means
    identical, 0.5 is the expectation for independent random vectors.

    Strictly ±1 inputs take a bit-packed fast path: pack once, XOR, and
    count matches with the :func:`~repro.kernels.packed_popcount`
    primitive — 64 elements per word instead of one comparison per
    element.  The match count divided by ``D`` equals the elementwise
    mean exactly (both are an integer ≤ D over D in float64), so the
    fast path is bit-identical to the dense comparison it replaces.
    """
    q, q_single = _as_matrix(query)
    k, k_single = _as_matrix(keys)
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {k.shape[1]}")
    dim = q.shape[1]
    if dim and q.size and k.size and _strictly_bipolar(q) and _strictly_bipolar(k):
        from repro.hdc.bitpacked import hamming_matches, pack_bipolar

        counts = hamming_matches(
            np.atleast_2d(pack_bipolar(q)), np.atleast_2d(pack_bipolar(k)), dim
        )
        matches = counts / dim
    else:
        matches = (q[:, np.newaxis, :] == k[np.newaxis, :, :]).mean(axis=2)
    if q_single and k_single:
        return matches[0, 0]
    if q_single:
        return matches[0]
    if k_single:
        return matches[:, 0]
    return matches


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Scale each row of ``matrix`` to unit L2 norm (zero rows unchanged).

    This is the one-time class pre-normalisation C'_i = C_i / ‖C_i‖ the
    paper applies after training so inference needs only dot products.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    single = matrix.ndim == 1
    if single:
        matrix = matrix[np.newaxis, :]
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    out = matrix / norms
    return out[0] if single else out
