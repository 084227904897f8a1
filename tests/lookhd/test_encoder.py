import numpy as np
import pytest

from repro.hdc.item_memory import LevelItemMemory
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.encoder import LookupEncoder
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.quantization.equalized import EqualizedQuantizer


def make_encoder(n_features=12, chunk=4, levels=4, dim=256, seed=0, bind_positions=True):
    rng = np.random.default_rng(seed)
    quantizer = EqualizedQuantizer(levels).fit(rng.random(1000))
    memory = LevelItemMemory(levels, dim, rng=seed)
    table = ChunkLookupTable(memory, chunk)
    layout = ChunkLayout(n_features, chunk)
    return LookupEncoder(quantizer, table, layout, seed=seed, bind_positions=bind_positions)


class TestLookupEncoder:
    def test_output_shape(self):
        encoder = make_encoder()
        assert encoder.encode(np.random.default_rng(0).random(12)).shape == (256,)

    def test_batch_shape(self):
        encoder = make_encoder()
        out = encoder.encode(np.random.default_rng(1).random((5, 12)))
        assert out.shape == (5, 256)

    def test_matches_equation_three(self):
        # H = sum_i P_i * T[address_i], bit-exact.
        encoder = make_encoder()
        sample = np.random.default_rng(2).random(12)
        addresses = encoder.addresses(sample)[0]
        expected = np.zeros(256, dtype=np.int64)
        for chunk_index, address in enumerate(addresses):
            chunk_hv = encoder.lookup_table.table[address].astype(np.int64)
            expected += chunk_hv * encoder.position_memory[chunk_index].astype(np.int64)
        assert np.array_equal(encoder.encode(sample), expected)

    def test_chunk_order_matters_with_positions(self):
        encoder = make_encoder(n_features=8, chunk=4)
        rng = np.random.default_rng(3)
        first, second = rng.random(4), rng.random(4)
        a = encoder.encode(np.concatenate([first, second]))
        b = encoder.encode(np.concatenate([second, first]))
        assert not np.array_equal(a, b)

    def test_chunk_order_ignored_without_positions(self):
        # The naive aggregation the paper rejects: swapping whole chunks
        # encodes identically.
        encoder = make_encoder(n_features=8, chunk=4, bind_positions=False)
        rng = np.random.default_rng(4)
        first, second = rng.random(4), rng.random(4)
        a = encoder.encode(np.concatenate([first, second]))
        b = encoder.encode(np.concatenate([second, first]))
        assert np.array_equal(a, b)

    def test_addresses_in_range(self):
        encoder = make_encoder()
        addresses = encoder.addresses(np.random.default_rng(5).random((20, 12)))
        assert addresses.min() >= 0
        assert addresses.max() < len(encoder.lookup_table)

    def test_uneven_features_padded(self):
        encoder = make_encoder(n_features=10, chunk=4)
        assert encoder.layout.n_chunks == 3
        assert encoder.encode(np.random.default_rng(6).random(10)).shape == (256,)

    def test_wrong_width_rejected(self):
        encoder = make_encoder(n_features=12)
        with pytest.raises(ValueError):
            encoder.encode(np.zeros(13))

    def test_q_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        quantizer = EqualizedQuantizer(8).fit(rng.random(100))
        memory = LevelItemMemory(4, 64, rng=0)
        table = ChunkLookupTable(memory, 2)
        with pytest.raises(ValueError):
            LookupEncoder(quantizer, table, ChunkLayout(4, 2))

    def test_encode_many_matches_encode(self):
        encoder = make_encoder()
        batch = np.random.default_rng(8).random((30, 12))
        assert np.array_equal(
            encoder.encode_many(batch, batch_size=7), encoder.encode(batch)
        )

    def test_deterministic_across_instances(self):
        a = make_encoder(seed=5)
        b = make_encoder(seed=5)
        sample = np.random.default_rng(9).random(12)
        assert np.array_equal(a.encode(sample), b.encode(sample))

    def test_single_sample_matches_batch_row(self):
        # 1-D parity: encode(x) must be bit-identical to encode(X)[i].
        batch = np.random.default_rng(10).random((6, 12))
        encoder = make_encoder()
        encoded_batch = encoder.encode(batch)
        for index in range(batch.shape[0]):
            single = encoder.encode(batch[index])
            assert single.shape == (encoder.dim,)
            assert np.array_equal(single, encoded_batch[index])


class TestEncoderPickling:
    def test_pickle_round_trip_encodes_identically(self):
        # The parallel trainer broadcasts the fitted encoder to worker
        # processes by pickling it; the copy must encode bit-identically.
        import pickle

        encoder = make_encoder()
        batch = np.random.default_rng(11).random((5, 12))
        expected = encoder.encode(batch)
        clone = pickle.loads(pickle.dumps(encoder))
        assert np.array_equal(clone.encode(batch), expected)
        assert np.array_equal(clone.addresses(batch), encoder.addresses(batch))

    def test_pickle_round_trip_keeps_kernel_exact(self):
        # The clone carries the accumulator bound of its own table: it
        # encodes like the reference, and re-derives the bound when its
        # table is replaced after the round trip.
        import pickle

        encoder = make_encoder()
        batch = np.random.default_rng(12).random((4, 12))
        encoder.encode(batch)  # derives the bound before pickling
        clone = pickle.loads(pickle.dumps(encoder))
        assert clone.accumulator_dtype() == encoder.accumulator_dtype()
        assert np.array_equal(clone.encode(batch), clone.encode_reference(batch))
        clone.lookup_table.table = _extreme_table(clone.lookup_table.table.shape, 32767)
        assert clone.accumulator_dtype() == np.int32
        assert np.array_equal(clone.encode(batch), clone.encode_reference(batch))


def _extreme_table(shape, magnitude):
    """An int16 table of identical rows: ±32767 alternating, or all −32768."""
    if magnitude == 32768:
        return np.full(shape, -32768, dtype=np.int16)
    signs = np.where(np.arange(shape[1]) % 2 == 0, 1, -1)
    return np.broadcast_to(signs * magnitude, shape).astype(np.int16)


def _aligned_encoder(n_chunks, table, bind_positions=True):
    """An encoder that meets its bound: identical rows and all positions −1.

    Every chunk then adds the same term to an element, so the sums reach
    ``m × max|T|``; the −1 positions make binding a −32768 entry overflow
    int16 on its own.
    """
    encoder = make_encoder(
        n_features=n_chunks, chunk=1, levels=2, dim=table.shape[1], bind_positions=bind_positions
    )
    encoder.lookup_table.table = table
    encoder.position_memory.vectors = -np.ones_like(encoder.position_memory.vectors)
    return encoder


class TestEncodeKernel:
    @pytest.mark.parametrize(
        ("n_chunks", "magnitude", "accumulator"),
        [
            (1, 32767, np.int16),  # m × max|T| = 32767: int16 exactly
            (1, 32768, np.int32),  # −32768 alone: |T| itself overflows int16
            (2, 32767, np.int32),  # 65534: past int16
            (65537, 32768, np.int64),  # 2^31 + 2^15: past int32
        ],
    )
    @pytest.mark.parametrize("bind_positions", [True, False])
    def test_accumulator_regimes_match_reference(
        self, n_chunks, magnitude, accumulator, bind_positions
    ):
        table = _extreme_table((2, 8), magnitude)
        encoder = _aligned_encoder(n_chunks, table, bind_positions=bind_positions)
        assert encoder.accumulator_dtype() == accumulator
        batch = np.random.default_rng(20).random((3, n_chunks))
        encoded = encoder.encode(batch)
        assert encoded.dtype == np.int64
        assert np.array_equal(encoded, encoder.encode_reference(batch))
        assert np.abs(encoded).max() == n_chunks * magnitude

    def test_random_int16_table_with_extremes_matches_reference(self):
        encoder = make_encoder(n_features=12, chunk=2, levels=4, dim=64)
        rng = np.random.default_rng(21)
        table = rng.integers(-32768, 32768, size=encoder.lookup_table.table.shape)
        table.reshape(-1)[:3] = (32767, -32767, -32768)
        encoder.lookup_table.table = table.astype(np.int16)
        assert encoder.accumulator_dtype() == np.int32
        batch = rng.random((9, 12))
        assert np.array_equal(encoder.encode(batch), encoder.encode_reference(batch))

    @pytest.mark.parametrize("bind_positions", [True, False])
    def test_batch_sizes_match_reference(self, bind_positions):
        from repro.lookhd.encoder import BLOCK_BYTES

        encoder = make_encoder(bind_positions=bind_positions)
        itemsize = encoder.accumulator_dtype().itemsize
        block = BLOCK_BYTES // (encoder.layout.n_chunks * encoder.dim * itemsize)
        rng = np.random.default_rng(22)
        for n_rows in (0, 1, 2 * block + 1):
            batch = rng.random((n_rows, 12))
            encoded = encoder.encode(batch)
            assert encoded.shape == (n_rows, encoder.dim)
            assert np.array_equal(encoded, encoder.encode_reference(batch))

    def test_bound_rederived_when_table_replaced(self):
        encoder = make_encoder()
        batch = np.random.default_rng(23).random((5, 12))
        encoder.encode(batch)  # bound taken from the int16-sized clean table
        assert encoder.accumulator_dtype() == np.int16
        encoder.lookup_table.table = _extreme_table(encoder.lookup_table.table.shape, 32767)
        assert encoder.accumulator_dtype() == np.int32
        assert np.array_equal(encoder.encode(batch), encoder.encode_reference(batch))

    def test_concurrent_table_swaps_keep_bound_with_its_table(self):
        # Serving threads encode while a table may be replaced: each caller
        # must get the bound of the table it read, never one taken from the
        # other table by a concurrent re-derivation.
        import sys
        import threading

        encoder = make_encoder(n_features=12, chunk=2, levels=4, dim=64)
        narrow = encoder.lookup_table.table
        wide = _extreme_table(narrow.shape, 32767)
        n_chunks = encoder.layout.n_chunks
        wrong = []

        def derive_loop():
            for _ in range(3000):
                for table, accumulator in ((narrow, np.int16), (wide, np.int32)):
                    dtype = encoder._accumulator_for(table, n_chunks)
                    if dtype != accumulator:
                        wrong.append(dtype)

        threads = [threading.Thread(target=derive_loop) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_faulted_copy_matches_reference(self, small_dataset):
        from repro.faults import FaultSpec, inject_classifier_faults
        from repro.lookhd.classifier import LookHDClassifier, LookHDConfig

        clf = LookHDClassifier(LookHDConfig(dim=256, levels=4, chunk_size=4, seed=1))
        clf.fit(small_dataset.train_features, small_dataset.train_labels)
        test = small_dataset.test_features
        clf.encoder.encode(test)  # the clean copy's bound travels into the faulted one
        faulted, _ = inject_classifier_faults(
            clf, FaultSpec(ber=0.2, targets=("lookup_table", "positions"), seed=3)
        )
        table = faulted.encoder.lookup_table.table
        assert table is not clf.encoder.lookup_table.table
        assert np.array_equal(faulted.encoder.encode(test), faulted.encoder.encode_reference(test))
        assert not np.array_equal(faulted.encoder.encode(test), clf.encoder.encode(test))
