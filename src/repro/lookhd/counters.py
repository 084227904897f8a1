"""Per-chunk occurrence counters — the heart of LookHD training (Fig. 6).

During training LookHD never materialises an encoded hypervector per
sample.  For each class it keeps an ``(m, q^r)`` counter array: cell
``(i, a)`` counts how many training samples of that class produced chunk
address ``a`` in chunk position ``i``.  The class hypervector is then
recovered *once*, at the end, as

    C = Σ_i P_i ⊙ (Σ_a counts[i, a] · T[a])

which is algebraically identical to bundling every sample's Eq. 3 encoding
(addition commutes), but costs ``O(q^r · D)`` per class instead of
``O(N · m · D)`` — the source of the paper's training speedup.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import telemetry
from repro.kernels import counter_materialize, counter_observe
from repro.utils.validation import check_positive_int


class CounterOverflowError(OverflowError):
    """An increment would exceed the widest supported counter dtype.

    Raised *before* any state is mutated, so the counters remain valid —
    the failure mode this guards against is silent two's-complement
    wrap-around turning a heavily trained class into garbage.
    """


#: Widening ladder for counter storage.  Hardware deployments model the
#: paper's fixed-width register arrays with a small dtype; software
#: training defaults straight to ``int64``.
_WIDEN_CHAIN = tuple(np.dtype(d) for d in (np.int8, np.int16, np.int32, np.int64))


class ChunkCounters:
    """Counter arrays for one class (or one aggregation unit).

    Parameters
    ----------
    n_chunks:
        Chunk count ``m``.
    n_rows:
        Lookup-table rows ``q^r``.
    dtype:
        Counter storage dtype (one of int8/int16/int32/int64).  The
        default ``int64`` cannot realistically saturate; smaller dtypes
        model the fixed-width hardware register arrays of Sec. V-A.
    widen:
        When ``True`` (default), an :meth:`observe`/:meth:`merge` that
        would saturate the current dtype transparently widens the storage
        to the next dtype in the chain; when ``False`` (or at ``int64``,
        the end of the chain) it raises :class:`CounterOverflowError`
        instead — never silent wrap-around either way.
    """

    def __init__(self, n_chunks: int, n_rows: int, dtype=np.int64, widen: bool = True):
        self.n_chunks = check_positive_int(n_chunks, "n_chunks")
        self.n_rows = check_positive_int(n_rows, "n_rows")
        dtype = np.dtype(dtype)
        if dtype not in _WIDEN_CHAIN:
            raise ValueError(
                f"dtype must be one of {[str(d) for d in _WIDEN_CHAIN]}, got {dtype}"
            )
        self.widen = bool(widen)
        self.counts = np.zeros((self.n_chunks, self.n_rows), dtype=dtype)
        self.n_samples = 0

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, n_samples: int = 0, widen: bool = True
    ) -> "ChunkCounters":
        """Wrap an existing ``(m, q^r)`` count array (distributed reduce)."""
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-D, got shape {counts.shape}")
        if int(n_samples) < 0:
            raise ValueError(f"n_samples must be non-negative, got {n_samples}")
        counters = cls(counts.shape[0], counts.shape[1], dtype=counts.dtype, widen=widen)
        counters.counts[...] = counts
        counters.n_samples = int(n_samples)
        return counters

    @property
    def dtype(self) -> np.dtype:
        """Current counter storage dtype (may widen over the stream)."""
        return self.counts.dtype

    def _ensure_headroom(self, increment_max: int, source: str) -> None:
        """Widen (or raise) before an addition could wrap the dtype.

        The bound is conservative — current global max plus the incoming
        global max, computed in Python integers so the check itself cannot
        overflow.  Widening a little early is harmless; wrapping is not.
        """
        if increment_max <= 0:
            return
        peak = int(self.counts.max(initial=0)) + int(increment_max)
        while peak > np.iinfo(self.counts.dtype).max:
            position = _WIDEN_CHAIN.index(self.counts.dtype)
            if not self.widen or position + 1 >= len(_WIDEN_CHAIN):
                raise CounterOverflowError(
                    f"{source} would saturate {self.counts.dtype} chunk counters "
                    f"(projected peak {peak} > {np.iinfo(self.counts.dtype).max}); "
                    "use a wider dtype or enable widen=True"
                )
            self.counts = self.counts.astype(_WIDEN_CHAIN[position + 1])
            telemetry.count("counters.widened", to=str(self.counts.dtype))

    def observe(self, addresses: np.ndarray) -> None:
        """Record chunk addresses for one sample or a batch.

        Parameters
        ----------
        addresses:
            ``(m,)`` or ``(N, m)`` integer addresses in ``[0, q^r)``.
        """
        addresses = np.asarray(addresses)
        if addresses.ndim == 1:
            addresses = addresses[np.newaxis, :]
        if addresses.ndim != 2 or addresses.shape[1] != self.n_chunks:
            raise ValueError(
                f"addresses must be (N, {self.n_chunks}), got {addresses.shape}"
            )
        if addresses.size and (addresses.min() < 0 or addresses.max() >= self.n_rows):
            raise ValueError(f"addresses must be in [0, {self.n_rows})")
        batch_counts = counter_observe(addresses, self.n_chunks, self.n_rows)
        self._ensure_headroom(int(batch_counts.max(initial=0)), "observe")
        self.counts += batch_counts.astype(self.counts.dtype, copy=False)
        self.n_samples += addresses.shape[0]
        telemetry.count("counters.addresses_observed", addresses.size)

    def materialize(self, table: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Produce the class hypervector from counters, table, and positions.

        Parameters
        ----------
        table:
            ``(q^r, D)`` lookup table.
        positions:
            ``(m, D)`` bipolar position hypervectors.

        Returns
        -------
        ``(D,)`` int64 class hypervector.
        """
        table = np.asarray(table)
        positions = np.asarray(positions)
        if table.shape[0] != self.n_rows:
            raise ValueError("table row count mismatch")
        if positions.shape != (self.n_chunks, table.shape[1]):
            raise ValueError("positions shape mismatch")
        # All int64, so the evaluation order is exact; zero counter rows
        # are skipped when occupancy is low (a class typically touches far
        # fewer than q^r addresses per chunk), the factorisation that
        # makes counter training cheap.
        return counter_materialize(self.counts, table, positions)

    def merge(self, other: "ChunkCounters") -> None:
        """Fold another counter set into this one (distributed training).

        The parallel trainer's reduce step; validated rather than trusted,
        because the input may come back over a process boundary.  Raises
        ``ValueError`` on geometry or count-array shape mismatch and
        :class:`CounterOverflowError` (after exhausting widening) instead
        of wrapping.
        """
        if not isinstance(other, ChunkCounters):
            raise TypeError(f"can only merge ChunkCounters, got {type(other).__name__}")
        if (other.n_chunks, other.n_rows) != (self.n_chunks, self.n_rows):
            raise ValueError(
                f"cannot merge counters of different geometry: "
                f"({other.n_chunks}, {other.n_rows}) into ({self.n_chunks}, {self.n_rows})"
            )
        expected = (self.n_chunks, self.n_rows)
        for label, counters in (("self", self), ("other", other)):
            if counters.counts.shape != expected:
                raise ValueError(
                    f"{label}.counts has shape {counters.counts.shape}, "
                    f"expected {expected} — counter array was corrupted"
                )
        if other.n_samples < 0:
            raise ValueError(f"other.n_samples must be non-negative, got {other.n_samples}")
        self._ensure_headroom(int(other.counts.max(initial=0)), "merge")
        self.counts += other.counts.astype(self.counts.dtype, copy=False)
        self.n_samples += other.n_samples

    def digest(self) -> str:
        """SHA-256 over dtype + shape + raw counts (and the sample count).

        The counters are the authoritative training record the integrity
        layer repairs models from (:mod:`repro.resilience`); this digest
        is what certifies they are themselves undamaged, and what the
        chaos bench compares across sequential/parallel/recovered runs.
        """
        payload = hashlib.sha256()
        payload.update(str(self.counts.dtype).encode())
        payload.update(str(self.counts.shape).encode())
        payload.update(np.ascontiguousarray(self.counts))
        payload.update(str(self.n_samples).encode())
        return payload.hexdigest()

    def occupancy(self) -> float:
        """Fraction of counter cells ever touched (table-utilisation metric)."""
        return float(np.count_nonzero(self.counts) / self.counts.size)

    def memory_bytes(self, bytes_per_counter: int = 4) -> int:
        """Counter storage footprint (register-array budget of Sec. V-A)."""
        check_positive_int(bytes_per_counter, "bytes_per_counter")
        return self.n_chunks * self.n_rows * bytes_per_counter
