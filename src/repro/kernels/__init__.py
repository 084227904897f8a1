"""The lookup-domain primitives LookHD reduces HD learning to.

Chunk addressing, counter observe/materialise, table gather-accumulate
and packed popcount, each defined once in NumPy in
:mod:`repro.kernels.reference` and re-exported here, so callers write::

    from repro.kernels import chunk_addresses, gather_accumulate

    addresses = chunk_addresses(levels, q, r, m)
    scores = gather_accumulate(score_table, addresses)
"""

from repro.kernels.reference import (
    chunk_addresses,
    counter_materialize,
    counter_observe,
    gather_accumulate,
    packed_popcount,
)

__all__ = [
    "chunk_addresses",
    "counter_materialize",
    "counter_observe",
    "gather_accumulate",
    "packed_popcount",
]
