"""Lookup-based encoder with position-bound chunk aggregation (Eq. 3).

Encoding a sample is: quantize features → form chunk addresses → read the
``m`` pre-stored chunk hypervectors → bind each with its position
hypervector ``P_i`` → sum:

    H = P_1 ⊙ H_1 + P_2 ⊙ H_2 + … + P_m ⊙ H_m

The position binding preserves chunk order; without it, permuting whole
chunks of the input would encode to the same hypervector (the "naive
aggregation" the paper rejects, kept available here for the ablation
bench).

Kernel
------
:meth:`LookupEncoder.encode_addresses` is one blocked kernel: for each
block of rows it gathers the rows' chunk vectors ``T[a]`` as a
``(rows, m, D)`` slab of about :data:`BLOCK_BYTES` (so the slab stays
cache-resident), binds it with the positions and sums over chunks.  The
bind and the sum run in the narrowest integer dtype that a bound proves
exact — the narrow fixed-width adders of the paper's hardware, since a
table element needs only ``log2(r)+1``-ish bits (Sec. III-C).  Integer
addition is exact in any order, so the result is bit-identical to the
reference Eq. 3 implementation, which is kept as
:meth:`LookupEncoder.encode_reference` for equivalence tests and
benchmarking.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.hdc.item_memory import RandomItemMemory
from repro.hdc.ops import ACCUM_DTYPE
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.quantization.base import Quantizer
from repro.utils.rng import derive_rng
from repro.utils.validation import check_2d

#: Target size of the gathered ``(rows, m, D)`` slab per kernel block.
BLOCK_BYTES = 2**20

#: Accumulator candidates, narrowest first.
_ACCUMULATORS = (np.dtype(np.int16), np.dtype(np.int32), np.dtype(ACCUM_DTYPE))


class LookupEncoder:
    """Encode feature vectors via the chunk lookup table.

    Parameters
    ----------
    quantizer:
        Fitted quantizer with ``q`` levels.
    lookup_table:
        Pre-built table for chunks of size ``r`` over the same levels.
    layout:
        Chunk geometry for the expected feature width.
    seed:
        Seed for the position hypervectors ``P_1 … P_m``.
    bind_positions:
        When ``False``, chunks are aggregated by plain addition (the naive
        scheme of Sec. III-A); used only for ablation.
    """

    def __init__(
        self,
        quantizer: Quantizer,
        lookup_table: ChunkLookupTable,
        layout: ChunkLayout,
        seed: int | np.random.Generator | None = 0,
        bind_positions: bool = True,
    ):
        if quantizer.levels != lookup_table.q:
            raise ValueError("quantizer and lookup table disagree on q")
        if layout.chunk_size != lookup_table.chunk_size:
            raise ValueError("layout and lookup table disagree on chunk size")
        self.quantizer = quantizer
        self.lookup_table = lookup_table
        self.layout = layout
        self.dim = lookup_table.dim
        self.bind_positions = bind_positions
        self.position_memory = RandomItemMemory(
            layout.n_chunks, self.dim, rng=derive_rng(seed, "positions")
        )
        #: ``(table, max |entry|)`` for the table array last encoded from.
        self._table_bound: tuple[np.ndarray, int] | None = None

    @property
    def n_features(self) -> int:
        return self.layout.n_features

    @property
    def encoding_version(self) -> int:
        """Version of the value → address map this encoder realises.

        The quantizer's :attr:`~repro.quantization.base.Quantizer.version`:
        when a streaming quantizer refreshes its boundaries, the *meaning*
        of every chunk address shifts, so anything cached against
        addresses produced earlier is stale.  Consumers such as
        :class:`~repro.lookhd.inference.FusedInferenceEngine` key their
        fused score tables to it, mirroring how ``model.version`` keys the
        class-model side.
        """
        return self.quantizer.version

    def addresses(self, features: np.ndarray) -> np.ndarray:
        """Quantize and form chunk addresses: ``(N, n)`` floats → ``(N, m)`` ints."""
        batch = check_2d(features, "features")
        if batch.shape[1] != self.layout.n_features:
            raise ValueError(
                f"expected {self.layout.n_features} features, got {batch.shape[1]}"
            )
        levels = self.quantizer.transform(batch)
        return self.layout.addresses(levels, self.quantizer.levels)

    def prebound_bytes_held(self) -> int:
        """Always 0: the encoder keeps no pre-bound ``(m, q^r, D)`` table.

        Binding happens inside the encode kernel.  The method stays
        because the repository benchmark's traced runs report it as
        ``lookhd.encoder.prebound_mb``.
        """
        return 0

    # -- encoding --------------------------------------------------------------

    def accumulator_dtype(self) -> np.dtype:
        """Narrowest integer dtype in which encoding is provably exact.

        Every encoded element, and every partial sum on the way to it, is
        a sum of at most ``m`` terms ``±T[a, d]`` — positions are bipolar,
        so binding never widens a term — hence bounded by
        ``m × max|T|``.  ``max|T|`` is taken from the table array the
        kernel reads and re-derived whenever ``lookup_table.table`` is
        replaced (fault injection swaps in a corrupted copy).
        """
        return self._accumulator_for(self.lookup_table.table, self.layout.n_chunks)

    def _accumulator_for(self, table: np.ndarray, n_terms: int) -> np.dtype:
        cached = self._table_bound  # one read: a concurrent encode may replace it
        if cached is not None and cached[0] is table:
            max_abs = cached[1]
        else:
            # Two reductions rather than ``np.abs``: no table-sized
            # temporary, and |−32768| does not wrap around in int16.
            max_abs = max(int(table.max(initial=0)), -int(table.min(initial=0)))
            self._table_bound = (table, max_abs)
        bound = n_terms * max_abs
        return next(
            dtype for dtype in _ACCUMULATORS if bound <= np.iinfo(dtype).max
        )

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode one sample or a batch to ``(D,)`` / ``(N, D)`` hypervectors."""
        single = np.asarray(features).ndim == 1
        encoded = self.encode_addresses(self.addresses(features))
        return encoded[0] if single else encoded

    def encode_addresses(self, addresses: np.ndarray) -> np.ndarray:
        """Encode pre-computed ``(N, m)`` chunk addresses to ``(N, D)`` int64.

        Per block of rows: gather the ``(rows, m, D)`` slab of chunk
        vectors, bind it with the positions and sum over chunks, all in
        :meth:`accumulator_dtype`; only the ``(rows, D)`` sums widen to
        int64.
        """
        addresses = np.asarray(addresses)
        encoded = np.empty((addresses.shape[0], self.dim), dtype=ACCUM_DTYPE)
        self._encode_into(addresses, encoded)
        return encoded

    def _encode_into(self, addresses: np.ndarray, out: np.ndarray) -> None:
        """The encode kernel: write the encodings of ``addresses`` into ``out``."""
        table = self.lookup_table.table
        n_rows, n_chunks = addresses.shape
        dtype = self._accumulator_for(table, n_chunks)
        positions = self.position_memory.vectors.astype(dtype) if self.bind_positions else None
        block = max(1, BLOCK_BYTES // (n_chunks * self.dim * dtype.itemsize))
        for start in range(0, n_rows, block):
            chunk_hvs = table[addresses[start : start + block]].astype(dtype, copy=False)
            if positions is not None:
                chunk_hvs *= positions
            out[start : start + block] = chunk_hvs.sum(axis=1, dtype=dtype)
        telemetry.count("encoder.encode.batches", accumulator=dtype.name)
        telemetry.count("encoder.encode.samples", n_rows)
        telemetry.count("encoder.encode.bytes", out.nbytes)

    def encode_reference(self, features: np.ndarray) -> np.ndarray:
        """Reference Eq. 3 path: materialises the ``(N, m, D)`` intermediate.

        Kept verbatim for equivalence tests and as the benchmark baseline;
        bit-identical to :meth:`encode` (integer addition commutes).
        """
        single = np.asarray(features).ndim == 1
        addresses = self.addresses(features)  # (N, m)
        chunk_hvs = self.lookup_table.lookup(addresses).astype(ACCUM_DTYPE)  # (N, m, D)
        if self.bind_positions:
            chunk_hvs = chunk_hvs * self.position_memory.vectors[np.newaxis, :, :]
        encoded = chunk_hvs.sum(axis=1)
        return encoded[0] if single else encoded

    def encode_many(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Encode a large dataset in memory-bounded batches.

        The output is preallocated once and each batch is encoded straight
        into its slice, so peak memory stays at one output array plus one
        batch's quantize/address temporaries and kernel slab.
        """
        batch = check_2d(features, "features")
        encoded = np.empty((batch.shape[0], self.dim), dtype=ACCUM_DTYPE)
        for start in range(0, batch.shape[0], batch_size):
            stop = min(start + batch_size, batch.shape[0])
            self._encode_into(self.addresses(batch[start:stop]), encoded[start:stop])
        return encoded
