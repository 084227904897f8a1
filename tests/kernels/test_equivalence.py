"""Bit-identity suite for the lookup-domain primitives.

Two layers of evidence that each NumPy primitive in
:mod:`repro.kernels.reference` computes what its callers need:

1. **Reference vs oracle** — each primitive is compared against an
   independent re-derivation of the computation (explicit loops, the
   codebook's per-chunk addressing helper, dense GEMMs), over a
   dtype × shape × ``q`` grid.
2. **Hypothesis properties** — randomly generated inputs check the
   invariants bit-identity rests on (address ranges, count conservation,
   popcount-vs-int, chunk-major accumulation).

Plus the NumPy >= 2.0 ``bitwise_count`` feature gate and its byte-LUT
fallback agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import reference
from repro.kernels.reference import (
    chunk_addresses,
    counter_materialize,
    counter_observe,
    gather_accumulate,
    packed_popcount,
    popcount_lut,
)
from repro.quantization.codebook import chunk_addresses as codebook_chunk_addresses

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _assert_identical(expected, actual):
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


class TestChunkAddresses:
    @pytest.mark.parametrize("q", [2, 4, 6])
    @pytest.mark.parametrize("shape", [(1, 4), (17, 23), (64, 100)])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_grid_matches_codebook_helper(self, q, shape, dtype):
        rng = np.random.default_rng(q * 1000 + shape[1])
        levels = rng.integers(0, q, size=shape).astype(dtype)
        chunk_size = 3
        n_chunks = -(-shape[1] // chunk_size)
        # The oracle: pad, reshape to (N, m, r), then the codebook's
        # per-chunk big-endian helper.
        pad = np.zeros((shape[0], n_chunks * chunk_size - shape[1]), dtype=np.int64)
        chunked = np.concatenate([levels.astype(np.int64), pad], axis=1).reshape(
            shape[0], n_chunks, chunk_size
        )
        expected = codebook_chunk_addresses(chunked, q)
        _assert_identical(expected, chunk_addresses(levels, q, chunk_size, n_chunks, 0))

    def test_pad_level_used_for_tail(self):
        levels = np.array([[1, 1, 1, 1, 1]], dtype=np.int64)
        # 5 features, chunks of 3 → second chunk is (1, 1, pad).
        for pad in (0, 1):
            expected = np.array([[1 * 9 + 1 * 3 + 1, 1 * 9 + 1 * 3 + pad]])
            _assert_identical(expected, chunk_addresses(levels, 3, 3, 2, pad))

    @given(seed=seeds, q=st.integers(2, 8), n=st.integers(1, 40), batch=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_property_addresses_in_range_and_big_endian(self, seed, q, n, batch):
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, q, size=(batch, n), dtype=np.int64)
        chunk_size = min(3, n)
        n_chunks = -(-n // chunk_size)
        addresses = chunk_addresses(levels, q, chunk_size, n_chunks, 0)
        assert addresses.shape == (batch, n_chunks)
        assert addresses.min(initial=0) >= 0
        assert addresses.max(initial=0) < q**chunk_size
        if batch:
            # First chunk of the first sample, big-endian by hand.
            digits = levels[0, :chunk_size]
            manual = 0
            for digit in digits:
                manual = manual * q + int(digit)
            assert addresses[0, 0] == manual


class TestCounterObserve:
    @pytest.mark.parametrize("q_r", [8, 16, 1024])
    @pytest.mark.parametrize("shape", [(0, 4), (1, 1), (200, 20)])
    def test_grid_matches_manual_histogram(self, q_r, shape):
        rng = np.random.default_rng(q_r + shape[0])
        addresses = rng.integers(0, q_r, size=shape, dtype=np.int64)
        n_chunks = shape[1]
        expected = np.zeros((n_chunks, q_r), dtype=np.int64)
        for row in addresses:
            for chunk, address in enumerate(row):
                expected[chunk, address] += 1
        _assert_identical(expected, counter_observe(addresses, n_chunks, q_r))

    @given(seed=seeds, batch=st.integers(0, 64), n_chunks=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_property_counts_conserve_batch_size(self, seed, batch, n_chunks):
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 32, size=(batch, n_chunks), dtype=np.int64)
        counts = counter_observe(addresses, n_chunks, 32)
        assert counts.shape == (n_chunks, 32)
        assert np.all(counts.sum(axis=1) == batch)


class TestCounterMaterialize:
    @pytest.mark.parametrize("occupancy", ["dense", "sparse", "empty"])
    @pytest.mark.parametrize("dim", [16, 250])
    def test_grid_matches_dense_formula(self, occupancy, dim):
        rng = np.random.default_rng(dim)
        n_chunks, n_rows = 5, 27
        counts = rng.integers(0, 7, size=(n_chunks, n_rows)).astype(np.int64)
        if occupancy == "sparse":
            mask = rng.random(counts.shape) < 0.05
            counts = np.where(mask, counts, 0)
        elif occupancy == "empty":
            counts = np.zeros_like(counts)
        table = rng.choice([-1, 1], size=(n_rows, dim)).astype(np.int16)
        positions = rng.choice([-1, 1], size=(n_chunks, dim)).astype(np.int64)
        expected = (
            (counts @ table.astype(np.int64)) * positions
        ).sum(axis=0)
        _assert_identical(expected, counter_materialize(counts, table, positions))

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_property_linear_in_counts(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5, size=(3, 8)).astype(np.int64)
        table = rng.integers(-3, 4, size=(8, 12)).astype(np.int64)
        positions = rng.choice([-1, 1], size=(3, 12)).astype(np.int64)
        doubled = counter_materialize(2 * counts, table, positions)
        single = counter_materialize(counts, table, positions)
        assert np.array_equal(doubled, 2 * single)


class TestGatherAccumulate:
    @pytest.mark.parametrize("table_dtype", [np.float64, np.int16, np.int64])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 16, 13), (20, 64, 7)])
    def test_grid_matches_chunk_major_loop(self, table_dtype, shape):
        rng = np.random.default_rng(shape[1])
        m, rows, width = shape
        if np.issubdtype(table_dtype, np.floating):
            table = rng.standard_normal(shape)
            out_dtype = np.float64
        else:
            table = rng.integers(-9, 10, size=shape).astype(table_dtype)
            out_dtype = np.int64
        addresses = rng.integers(0, rows, size=(11, m), dtype=np.int64)
        expected = np.zeros((11, width), dtype=out_dtype)
        for chunk in range(m):
            expected += table[chunk][addresses[:, chunk]]
        _assert_identical(expected, gather_accumulate(table, addresses, out_dtype))

    @given(seed=seeds, m=st.integers(1, 6), width=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_property_float_accumulation_is_chunk_major(self, seed, m, width):
        """The float sum must equal the sequential chunk-major loop exactly
        (not merely approximately) — this is the bit-identity contract."""
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((m, 8, width))
        addresses = rng.integers(0, 8, size=(5, m), dtype=np.int64)
        expected = np.zeros((5, width))
        for chunk in range(m):
            expected += table[chunk][addresses[:, chunk]]
        assert np.array_equal(gather_accumulate(table, addresses, np.float64), expected)


class TestPackedPopcount:
    @pytest.mark.parametrize(
        "shape", [(1,), (7,), (3, 5), (2, 3, 4)], ids=["w1", "w7", "2d", "3d"]
    )
    def test_grid_matches_python_bit_count(self, shape):
        rng = np.random.default_rng(sum(shape))
        words = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
        flat = words.reshape(-1, shape[-1])
        expected = np.array(
            [sum(int(w).bit_count() for w in row) for row in flat], dtype=np.int64
        ).reshape(shape[:-1])
        _assert_identical(expected, packed_popcount(words))

    def test_extremes(self):
        words = np.array([[0, 0xFFFFFFFFFFFFFFFF, 1, 1 << 63]], dtype=np.uint64)
        _assert_identical(np.array([66], dtype=np.int64), packed_popcount(words))

    def test_lut_fallback_matches_packed_popcount(self):
        """The byte-LUT fallback is bit-identical to whatever
        ``packed_popcount`` runs (``np.bitwise_count`` on NumPy >= 2), so
        the feature gate can never change results."""
        rng = np.random.default_rng(0xFA11)
        words = rng.integers(0, 2**63, size=(128, 16), dtype=np.uint64)
        _assert_identical(reference.packed_popcount(words), popcount_lut(words))

    def test_feature_gate_forced_to_lut(self, monkeypatch):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**63, size=(16, 4), dtype=np.uint64)
        expected = reference.packed_popcount(words)
        monkeypatch.setattr(reference, "BITWISE_COUNT", None)
        _assert_identical(expected, reference.packed_popcount(words))

    @given(seed=seeds, width=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_property_popcount_bounds_and_exactness(self, seed, width):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**63, size=(4, width), dtype=np.uint64)
        expected = np.array(
            [sum(int(w).bit_count() for w in row) for row in words], dtype=np.int64
        )
        counts = packed_popcount(words)
        assert np.array_equal(counts, expected)
        assert counts.max(initial=0) <= 64 * width
