"""Drift-recovery bench: streaming pipeline vs full-pass oracle.

The question the bench answers: does the fully streaming pipeline —
sketch-backed :class:`~repro.streaming.quantizer.StreamingQuantizer`
boundaries plus the decayed :class:`~repro.lookhd.online.OnlineLookHD`
learner — track a drifting stream as well as an *oracle* that was
allowed a full pass over the entire stream to place its
:class:`~repro.quantization.equalized.EqualizedQuantizer` boundaries?
Three measurements, each a schema gate (:mod:`repro.streaming.schema`):

1. **Prequential accuracy vs time** under the incremental and abrupt
   streams of :mod:`repro.datasets.drift`: every batch is scored
   (test-then-train) before it is learned, for both pipelines.  The
   abrupt mode's gate is recovery — tail-averaged streaming accuracy
   within :data:`~repro.streaming.schema.RECOVERY_TOLERANCE` of the
   oracle after the mid-stream jump.
2. **Boundary placement divergence**: max level-occupancy divergence
   between the streaming and full-pass quantizers over the whole
   stream, which the sketch's rank-error guarantee bounds at
   ``2·ε + 2/n`` (each of a level's two boundaries carries ≤ ``ε·n``
   rank error, plus one sample of quantile-interpolation slack each).
3. **Live serving**: the abrupt stream's second half replayed as
   ``partial_fit`` updates through a registry-backed
   :class:`~repro.serving.service.InferenceService` interleaved with
   predict traffic — gates on the zero-dropped drain invariant and on
   the live model staying **bit-identical** to an offline replica that
   applied the same batches sequentially (the collector's
   update-serialization contract).

Everything except wall-clock is deterministic: pinned-seed streams, the
deterministic sketch, and sequential update ordering.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.datasets.drift import DriftBatch, drifting_stream
from repro.datasets.synthetic import SyntheticSpec
from repro.hdc.item_memory import LevelItemMemory
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.encoder import LookupEncoder
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.lookhd.online import OnlineLookHD
from repro.quantization.equalized import EqualizedQuantizer
from repro.serving.registry import ModelRegistry
from repro.serving.service import InferenceService, MicrobatchConfig
from repro.streaming.quantizer import StreamingQuantizer
from repro.streaming.schema import (
    RECOVERY_TOLERANCE,
    STREAMING_SCHEMA_VERSION,
    validate_streaming_payload,
)
from repro.utils.artifact import environment, write_artifact
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class StreamBenchConfig:
    """Workload shape of the drift-recovery bench."""

    dim: int = 2_048
    levels: int = 4
    chunk_size: int = 4
    n_features: int = 32
    n_classes: int = 4
    seed: int = 9
    n_batches: int = 40
    batch_size: int = 200
    #: Hard enough that the abrupt jump visibly dents prequential
    #: accuracy (≈0.96 → ≈0.65 on the full profile) — a drift-recovery
    #: bench whose drift never hurts is not measuring recovery.
    drift_magnitude: float = 4.0
    class_separation: float = 1.0
    decay: float = 0.98
    window: int = 512
    sketch_capacity: int = 256

    def __post_init__(self):
        for field in (
            "dim",
            "levels",
            "chunk_size",
            "n_features",
            "n_classes",
            "n_batches",
            "batch_size",
            "window",
            "sketch_capacity",
        ):
            check_positive_int(getattr(self, field), field)
        if self.drift_magnitude < 0:
            raise ValueError("drift_magnitude must be non-negative")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")

    @property
    def tail_batches(self) -> int:
        """Batches averaged for the recovery gate (the stream's tail)."""
        return max(1, self.n_batches // 5)

    def spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            n_features=self.n_features,
            n_classes=self.n_classes,
            class_separation=self.class_separation,
            seed=self.seed,
        )


#: Named profiles for the ``repro stream`` CLI and CI smoke job.
STREAM_PROFILES: dict[str, StreamBenchConfig] = {
    "full": StreamBenchConfig(),
    "smoke": StreamBenchConfig(
        dim=512,
        n_batches=12,
        batch_size=80,
        window=128,
        sketch_capacity=64,
    ),
}


def _build_encoder(config: StreamBenchConfig, quantizer) -> LookupEncoder:
    """One encoder over ``quantizer`` with config-pinned tables/positions.

    All encoders built from the same config share identical item
    memories, lookup tables, and position hypervectors (same derived
    seeds), so the streaming and oracle pipelines differ *only* in where
    their quantile boundaries came from.
    """
    item_memory = LevelItemMemory(
        config.levels, config.dim, rng=derive_rng(config.seed, "lookhd-levels")
    )
    table = ChunkLookupTable(item_memory, config.chunk_size)
    layout = ChunkLayout(config.n_features, config.chunk_size)
    return LookupEncoder(
        quantizer, table, layout, seed=derive_rng(config.seed, "lookhd-positions")
    )


def _learner(config: StreamBenchConfig, encoder: LookupEncoder) -> OnlineLookHD:
    return OnlineLookHD(
        encoder, config.n_classes, decay=config.decay, window=config.window
    )


def _stream(config: StreamBenchConfig, abrupt: bool) -> list[DriftBatch]:
    return drifting_stream(
        config.spec(),
        n_batches=config.n_batches,
        batch_size=config.batch_size,
        drift_magnitude=config.drift_magnitude,
        abrupt=abrupt,
    )


def _run_mode(config: StreamBenchConfig, abrupt: bool) -> dict:
    """Prequential streaming-vs-oracle comparison over one drift mode."""
    batches = _stream(config, abrupt)
    all_values = np.concatenate([batch.features.ravel() for batch in batches])

    streaming_quantizer = StreamingQuantizer(
        config.levels, sketch_capacity=config.sketch_capacity
    )
    oracle_quantizer = EqualizedQuantizer(config.levels).fit(all_values)
    streaming_learner = _learner(config, _build_encoder(config, streaming_quantizer))
    oracle_learner = _learner(config, _build_encoder(config, oracle_quantizer))

    streaming_accuracy: list[float] = []
    oracle_accuracy: list[float] = []
    for batch in batches:
        # Boundaries absorb the batch before it is scored — the sketch
        # may only ever lag the oracle by data it has not seen, not by
        # data it is currently being graded on.
        streaming_quantizer.partial_fit(batch.features)
        streaming_accuracy.append(streaming_learner.score(batch.features, batch.labels))
        oracle_accuracy.append(oracle_learner.score(batch.features, batch.labels))
        streaming_learner.partial_fit(batch.features, batch.labels)
        oracle_learner.partial_fit(batch.features, batch.labels)

    tail = config.tail_batches
    streaming_tail = float(np.mean(streaming_accuracy[-tail:]))
    oracle_tail = float(np.mean(oracle_accuracy[-tail:]))

    # Level-occupancy divergence over the whole stream, against the
    # sketch's instance guarantee (2 boundaries per level at ε·n rank
    # error each, plus one interpolation sample per boundary).
    occupancy_streaming = np.bincount(
        streaming_quantizer.transform(all_values).ravel(), minlength=config.levels
    ) / all_values.size
    occupancy_oracle = np.bincount(
        oracle_quantizer.transform(all_values).ravel(), minlength=config.levels
    ) / all_values.size
    divergence = float(np.abs(occupancy_streaming - occupancy_oracle).max())
    bound = 2.0 * streaming_quantizer.rank_error_bound() + 2.0 / all_values.size

    return {
        "accuracy": {"streaming": streaming_accuracy, "oracle": oracle_accuracy},
        "tail_batches": tail,
        "streaming_tail_accuracy": streaming_tail,
        "oracle_tail_accuracy": oracle_tail,
        "recovery_gap": oracle_tail - streaming_tail,
        "boundary_divergence": divergence,
        "divergence_bound": bound,
        "rank_error_bound": streaming_quantizer.rank_error_bound(),
        "sketch": streaming_quantizer.sketch.describe(),
        "quantizer_version": streaming_quantizer.version,
    }


async def _serve_updates(
    config: StreamBenchConfig,
    live: OnlineLookHD,
    replica: OnlineLookHD,
    batches: list[DriftBatch],
) -> dict:
    """Replay drift batches as live updates interleaved with predicts."""
    registry = ModelRegistry()
    registry.publish("stream", live)
    service = InferenceService(
        registry=registry,
        config=MicrobatchConfig(max_batch=16, max_wait_ms=0.5),
    )
    predicts = 0
    async with service:
        for batch in batches:
            # Predict traffic rides alongside each update: fire a slice of
            # the batch as concurrent single-sample requests, then apply
            # the update.  The collector serializes them, so predicts
            # resolve against a fully pre- or post-update model.
            queries = [
                service.predict(row, tenant="stream")
                for row in batch.features[: min(8, batch.features.shape[0])]
            ]
            await service.partial_fit(batch.features, batch.labels, tenant="stream")
            await asyncio.gather(*queries)
            predicts += len(queries)
            replica.partial_fit(batch.features, batch.labels)
    stats = service.request_stats()
    live_vectors = live.class_model().class_vectors
    replica_vectors = replica.class_model().class_vectors
    return {
        "updates": stats["updates"],
        "predicts": predicts,
        "dropped": stats["dropped"],
        "flush_reasons": dict(service.flush_reasons),
        "live_matches_offline": bool(np.array_equal(live_vectors, replica_vectors)),
    }


def _run_serving(config: StreamBenchConfig) -> dict:
    """Live ``partial_fit`` through the serving layer vs an offline replica.

    The streaming quantizer is pre-fed the abrupt stream's first half and
    then **frozen** — the deployment protocol: ingestion may continue,
    but published boundaries (and therefore every address-keyed cache)
    hold still while the model serves.  Live and replica learners share
    one encoder, so bit-identity isolates exactly the serving path.
    """
    batches = _stream(config, abrupt=True)
    half = len(batches) // 2
    quantizer = StreamingQuantizer(config.levels, sketch_capacity=config.sketch_capacity)
    for batch in batches[:half]:
        quantizer.partial_fit(batch.features)
    quantizer.freeze()
    encoder = _build_encoder(config, quantizer)
    live = _learner(config, encoder)
    replica = _learner(config, encoder)
    for batch in batches[:half]:
        live.partial_fit(batch.features, batch.labels)
        replica.partial_fit(batch.features, batch.labels)
    return asyncio.run(_serve_updates(config, live, replica, batches[half:]))


def run_stream_bench(config: StreamBenchConfig | None = None) -> dict:
    """Run all three sections and return the validated payload."""
    config = config if config is not None else StreamBenchConfig()
    with telemetry.enabled() as registry:
        modes = {
            "incremental": _run_mode(config, abrupt=False),
            "abrupt": _run_mode(config, abrupt=True),
        }
        serving = _run_serving(config)
    payload = {
        "schema_version": STREAMING_SCHEMA_VERSION,
        "benchmark": "streaming",
        "workload": {
            "dim": config.dim,
            "levels": config.levels,
            "chunk_size": config.chunk_size,
            "n_features": config.n_features,
            "n_classes": config.n_classes,
            "seed": config.seed,
            "n_batches": config.n_batches,
            "batch_size": config.batch_size,
            "sketch_capacity": config.sketch_capacity,
            "window": config.window,
            "drift_magnitude": config.drift_magnitude,
            "decay": config.decay,
        },
        "modes": modes,
        "serving": serving,
        "checks": {
            "abrupt_recovery_within_tolerance": modes["abrupt"]["recovery_gap"]
            <= RECOVERY_TOLERANCE,
            "divergence_within_bound": all(
                mode["boundary_divergence"] <= mode["divergence_bound"]
                for mode in modes.values()
            ),
            "serving_zero_dropped": serving["dropped"] == 0,
            "serving_live_bit_identity": serving["live_matches_offline"],
        },
        "environment": environment(),
        "telemetry": registry.snapshot(),
    }
    return validate_streaming_payload(payload)


def write_streaming_file(
    profile: str = "full",
    out_dir: str | Path = ".",
    config: StreamBenchConfig | None = None,
) -> Path:
    """Run a streaming profile and write ``BENCH_streaming.json``."""
    if config is None:
        try:
            config = STREAM_PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown streaming profile {profile!r}; choose from "
                f"{sorted(STREAM_PROFILES)}"
            ) from None
    payload = run_stream_bench(config)
    return write_artifact(Path(out_dir) / "BENCH_streaming.json", payload)


def override_config(
    base: StreamBenchConfig, **overrides: object
) -> StreamBenchConfig:
    """CLI helper: apply non-``None`` overrides to a profile config."""
    return replace(
        base, **{key: value for key, value in overrides.items() if value is not None}
    )
