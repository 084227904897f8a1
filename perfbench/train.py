"""``train``: offline training at ISOLET size.

The ``speech`` application spec (617 features, 26 classes, label noise
0.05) scaled to ISOLET's 6,238 training and 1,559 test samples, with
D=2000, q=4, r=5: 124 chunks and 3 compressed groups.  The pre-bound
encode table this geometry needs (484 MiB) is over the 256 MiB budget, so
encoding takes the raw-table path that large-n users hit.  No serving
layer runs.

Timed window: rounds of three ``fit(X, y)`` calls, one retraining
(``encode_many(X)`` plus ``retrain_compressed(..., iterations=10)`` on the
round's last, freshly fitted model) and five batch predictions over the
test set with the retrained model, until the window has passed.  Each
kind of operation is spread over the whole window, so the host's speed
drift weighs on every kind alike, and each is reported as its median over
the window.  After it, an untraced run measures memory as the peak RSS
of a fresh process that runs one fit and one retraining.  A traced run
leaves every other fit untraced, as the reference for the tracing
overhead.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from perfbench.common import (
    ROOT,
    Result,
    Tracer,
    host_steal_seconds,
    median,
    parse_status_mb,
    rows,
)


LEVELS = 4
CHUNK_SIZE = 5
RETRAIN_ITERATIONS = 10
FITS_PER_ROUND = 3
PREDICTS_PER_ROUND = 5


@dataclass(frozen=True)
class TrainConfig:
    n_train: int = 6_238
    n_test: int = 1_559
    dim: int = 2_000
    setups: int = 3


FULL = TrainConfig()
SMOKE = TrainConfig(n_train=300, n_test=60, dim=256, setups=1)


def _dataset(config: TrainConfig, seed: int):
    from repro.datasets.registry import APPLICATIONS
    from repro.datasets.synthetic import make_synthetic_classification

    spec = replace(
        APPLICATIONS["speech"].spec, n_train=config.n_train, n_test=config.n_test, seed=seed
    )
    return make_synthetic_classification(spec, name="speech")


def _model_config(config: TrainConfig, seed: int):
    from repro.lookhd.classifier import LookHDConfig

    return LookHDConfig(dim=config.dim, levels=LEVELS, chunk_size=CHUNK_SIZE, seed=seed)


def fit_and_retrain_once(config: TrainConfig, seed: int) -> None:
    """One fit and one retraining; prints this process's peak RSS in MiB."""
    from repro.lookhd import retraining
    from repro.lookhd.classifier import LookHDClassifier

    data = _dataset(config, seed)
    clf = LookHDClassifier(_model_config(config, seed))
    clf.fit(data.train_features, data.train_labels)
    encoded = clf.encoder.encode_many(data.train_features)
    retraining.retrain_compressed(
        clf.compressed_model, encoded, data.train_labels, iterations=RETRAIN_ITERATIONS
    )
    # Not ``ru_maxrss``: it carries over the peak of the process that
    # spawned this one.
    with open("/proc/self/status") as status:
        print(parse_status_mb(status.read(), "VmHWM"))


def _peak_rss_mb(config: TrainConfig, seed: int) -> float:
    """Peak RSS of one fit and one retraining, run in a fresh process.

    A fresh process makes the same allocations in the same order every
    time, so its peak does not depend on what ran before.  In the timed
    process, heap kept from earlier fits moved the RSS read right after a
    retraining between 250 MB and 330 MB from one run to the next.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (
        "from perfbench.train import TrainConfig, fit_and_retrain_once; "
        f"fit_and_retrain_once({config!r}, {seed})"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _model_digest(clf) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(clf.class_model.class_vectors))
    digest.update(np.ascontiguousarray(clf.compressed_model.compressed))
    return digest.hexdigest()


def _instrument(tracer: Tracer) -> None:
    from repro.lookhd import retraining
    from repro.lookhd.classifier import LookHDClassifier
    from repro.lookhd.compression import CompressedModel
    from repro.lookhd.counters import ChunkCounters
    from repro.lookhd.encoder import LookupEncoder
    from repro.lookhd.trainer import LookHDTrainer
    from repro.quantization.base import Quantizer

    tracer.wrap(LookHDClassifier, "fit", "fit")
    tracer.wrap(Quantizer, "fit", "quantization.fit")
    tracer.wrap(LookHDTrainer, "observe", "lookhd.trainer.observe")
    tracer.wrap(ChunkCounters, "materialize", "lookhd.counters.materialize")
    tracer.wrap(CompressedModel, "__init__", "lookhd.compression.build")
    tracer.wrap(LookupEncoder, "encode_many", "lookhd.encoder.encode_many", size=rows)
    tracer.wrap(retraining, "retrain_compressed", "retrain")
    tracer.wrap(CompressedModel, "predict", "lookhd.retraining.score")
    tracer.wrap(CompressedModel, "retrain_update", "lookhd.retraining.update")


def _layer_metrics(tracer: Tracer, n_fits: int, n_retrains: int) -> dict[str, float]:
    def per_fit(name: str) -> float:
        return sum(span.duration for span in tracer.inside(name, "fit")) / n_fits

    def per_retrain(name: str) -> float:
        return sum(span.duration for span in tracer.inside(name, "retrain")) / n_retrains

    encodes = tracer.named("lookhd.encoder.encode_many")
    return {
        "quantization.fit_s": per_fit("quantization.fit"),
        "lookhd.trainer.observe_s": per_fit("lookhd.trainer.observe"),
        "lookhd.counters.materialize_s": per_fit("lookhd.counters.materialize"),
        "lookhd.compression.build_s": per_fit("lookhd.compression.build"),
        "lookhd.encoder.encode_s": sum(span.duration for span in encodes) / n_retrains,
        "lookhd.encoder.encode_us_per_row": 1e6
        * sum(span.duration for span in encodes)
        / sum(span.size for span in encodes),
        "lookhd.retraining.score_s": per_retrain("lookhd.retraining.score"),
        "lookhd.retraining.update_s": per_retrain("lookhd.retraining.update"),
        "lookhd.retraining.updates": len(tracer.inside("lookhd.retraining.update", "retrain"))
        / n_retrains,
        # What the spans above leave unexplained: the classifier's own work
        # in ``fit`` (item memory, chunk table, positions) and the
        # retraining loop's own (state copies, accuracy checks).
        "lookhd.classifier.fit_self_s": tracer.mean_self_time("fit"),
        "lookhd.retraining.self_s": tracer.mean_self_time("retrain"),
    }


def run(seed: int, seconds: float, trace: bool, config: TrainConfig = FULL) -> Result:
    from repro.lookhd import retraining
    from repro.lookhd.classifier import LookHDClassifier

    model_config = _model_config(config, seed)
    # Set-up: data plus one warm-up fit, repeated so its median is steady.
    setup_times = []
    for _ in range(config.setups):
        start = time.perf_counter()
        data = _dataset(config, seed)
        LookHDClassifier(model_config).fit(data.train_features, data.train_labels)
        setup_times.append(time.perf_counter() - start)
    features, labels = data.train_features, data.train_labels
    test_features = data.test_features

    tracer = Tracer() if trace else None
    if tracer is not None:
        _instrument(tracer)
    fit_times, fit_cpu, retrain_times, predict_times = [], [], [], []
    traced_fits = []
    digests, update_counts = set(), set()
    steal_start, wall_start = host_steal_seconds(), time.perf_counter()
    try:
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(FITS_PER_ROUND):
                if tracer is not None:
                    tracer.enabled = len(fit_times) % 2 == 1
                    traced_fits.append(tracer.enabled)
                clf = LookHDClassifier(model_config)
                cpu_start, start = time.process_time(), time.perf_counter()
                clf.fit(features, labels)
                fit_times.append(time.perf_counter() - start)
                fit_cpu.append(time.process_time() - cpu_start)
                digests.add(_model_digest(clf))
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            encoded = clf.encoder.encode_many(features)
            history = retraining.retrain_compressed(
                clf.compressed_model, encoded, labels, iterations=RETRAIN_ITERATIONS
            )
            retrain_times.append(time.perf_counter() - start)
            update_counts.add(history.total_updates)
            del encoded
            clf.predict(test_features)  # builds the fused score table
            for _ in range(PREDICTS_PER_ROUND):
                start = time.perf_counter()
                predictions = clf.predict(test_features)
                predict_times.append(time.perf_counter() - start)
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    steal_share = (host_steal_seconds() - steal_start) / (
        (time.perf_counter() - wall_start) * os.cpu_count()
    )
    reference = np.concatenate(
        [
            clf.predict_reference(test_features[start : start + 32])
            for start in range(0, test_features.shape[0], 32)
        ]
    )
    checks = {
        "fused_equals_reference": bool(np.array_equal(predictions, reference)),
        "fits_bit_identical": len(digests) == 1,
        "retrains_identical": len(update_counts) == 1,
        "predictions_sha256": hashlib.sha256(
            np.ascontiguousarray(predictions, dtype=np.int64)
        ).hexdigest(),
        "test_accuracy": float(np.mean(predictions == data.test_labels)),
    }
    correct = (
        checks["fused_equals_reference"]
        and checks["fits_bit_identical"]
        and checks["retrains_identical"]
    )
    attempted = len(fit_times) + len(retrain_times) + len(predict_times)

    fit_s, retrain_s = median(fit_times), median(retrain_times)
    predict_s = median(predict_times)
    if tracer is None:
        metrics = {
            "setup_s": median(setup_times),
            "p50_ms": 1e3 * fit_s,
            "slow_ms": 1e3 * retrain_s,
            "rate_per_s": test_features.shape[0] / predict_s,
            "cpu_us_per_op": 1e6 * median(fit_cpu),
            "rss_mb": _peak_rss_mb(config, seed),
        }
    else:
        traced = [t for t, on in zip(fit_times, traced_fits) if on]
        untraced = [t for t, on in zip(fit_times, traced_fits) if not on]
        occupied = sum(np.count_nonzero(c.counts) for c in clf.trainer.counters)
        cells = sum(c.counts.size for c in clf.trainer.counters)
        metrics = {
            **_layer_metrics(tracer, len(traced), len(retrain_times)),
            "lookhd.counters.occupancy": occupied / cells,
            "lookhd.encoder.prebound_mb": clf.encoder.prebound_bytes_held() / 2**20,
            "lookhd.inference.us_per_query": 1e6 * predict_s / test_features.shape[0],
            "trace.overhead": median(traced) / median(untraced),
        }
    summary = {
        "setup_s": (median(setup_times), "s"),
        "fit_s": (fit_s, "s"),
        "retrain_s": (retrain_s, "s"),
        "predict_qps": (test_features.shape[0] / predict_s, "1/s"),
        "fits": (len(fit_times), "count"),
        "retrains": (len(retrain_times), "count"),
        "host_steal_share": (steal_share, "ratio"),
    }
    if tracer is None:
        summary["peak_rss_mb"] = (metrics["rss_mb"], "MB")
    return Result(correct, attempted, 0, metrics, summary, checks)
