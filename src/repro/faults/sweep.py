"""Bit-error-rate sweeps: accuracy-vs-BER curves for LookHD variants.

Trains three deployment variants of the same synthetic workload —

* ``plain`` — uncompressed class hypervectors (Sec. IV-A),
* ``compressed`` — Eq. 4 key-folded model *without* decorrelation,
* ``decorrelated`` — the paper's full pipeline (Eq. 4 + Sec. IV-C),

then, for each bit-error rate, injects representation-aware bit flips
(:mod:`repro.faults.targets`) into every BRAM the variant deploys and
measures test accuracy over several independent fault seeds.  The curves
quantify the robustness HDC's holographic representation is supposed to
buy on voltage-over-scaled hardware, and — because compression folds ``k``
classes into shared storage — how the Eq. 4 trade changes the noise
margin.  For the compressed variants the sweep also re-measures the Eq. 5
signal/noise decomposition (:mod:`repro.lookhd.noise`) under fault, so the
accuracy loss can be read against the cross-talk it is caused by.

A smaller input-noise sweep (Gaussian sigma on raw features) rides along:
sensor noise enters *before* quantization, so its damage profile differs
from storage faults in an instructive way (equalized boundaries absorb
small perturbations until a value crosses a quantile edge).

The output payload is validated by :mod:`repro.faults.schema` and written
as ``BENCH_faults.json`` next to the perf harness's artifacts.

Parallel execution
------------------
Every ``(variant, ber, trial)`` fault trial is independent, so the sweep
fans them out over :class:`repro.parallel.ProcessExecutor` when asked
(``n_workers > 1``).  Per-trial RNG seeds are derived up front in the
parent via ``np.random.SeedSequence.spawn`` — a pure function of the
sweep config, never of the worker assignment — so the payload is
byte-identical regardless of worker count (tested in
``tests/parallel/test_parallel_sweep.py``).  Each worker fits its own
copy of the three deterministic variant models once (executor
initializer) and then serves any number of trials against them.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.faults.injectors import gaussian_feature_noise
from repro.faults.schema import FAULTS_SCHEMA_VERSION, validate_faults_payload
from repro.faults.targets import DEFAULT_TARGETS, FaultSpec, inject_classifier_faults
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.noise import compression_noise_report
from repro.parallel.executor import ProcessExecutor
from repro.utils.artifact import environment, write_artifact
from repro.utils.validation import check_positive_int

#: Threshold used for the headline "safe BER" metric: the largest swept
#: BER whose mean accuracy stays within this absolute drop of clean.
ACCURACY_DROP_BUDGET = 0.01

#: The three deployment variants every sweep compares.
MODEL_VARIANTS = ("plain", "compressed", "decorrelated")


@dataclass(frozen=True)
class SweepConfig:
    """One fault sweep: workload geometry + fault model + BER grid."""

    bers: tuple[float, ...]
    dim: int = 512
    levels: int = 4
    chunk_size: int = 4
    n_features: int = 32
    n_classes: int = 6
    n_train: int = 480
    n_test: int = 240
    trials: int = 3
    seed: int = 7
    targets: tuple[str, ...] = DEFAULT_TARGETS
    fixed_point_width: int = 16
    noise_sigmas: tuple[float, ...] = (0.1, 0.5)
    retrain_iterations: int = 2

    def __post_init__(self):
        if not self.bers:
            raise ValueError("bers must not be empty")
        for ber in self.bers:
            if not 0.0 <= ber <= 1.0:
                raise ValueError(f"each BER must be in [0, 1], got {ber}")
        check_positive_int(self.trials, "trials")
        check_positive_int(self.dim, "dim")

    def config_dict(self) -> dict:
        payload = asdict(self)
        payload["bers"] = [float(ber) for ber in self.bers]
        payload["targets"] = list(self.targets)
        payload["noise_sigmas"] = [float(sigma) for sigma in self.noise_sigmas]
        return payload


def _variant_config(variant: str, config: SweepConfig) -> LookHDConfig:
    if variant == "plain":
        return LookHDConfig(
            dim=config.dim,
            levels=config.levels,
            chunk_size=config.chunk_size,
            compress=False,
            seed=config.seed,
        )
    return LookHDConfig(
        dim=config.dim,
        levels=config.levels,
        chunk_size=config.chunk_size,
        compress=True,
        decorrelate=(variant == "decorrelated"),
        seed=config.seed,
    )


def _fit_variant(variant: str, config: SweepConfig, data) -> LookHDClassifier:
    clf = LookHDClassifier(_variant_config(variant, config))
    clf.fit(
        data.train_features,
        data.train_labels,
        retrain_iterations=config.retrain_iterations,
    )
    return clf


def _noise_stats(clf: LookHDClassifier, queries: np.ndarray) -> dict | None:
    """Eq. 5 cross-talk measurements for a (possibly faulted) compressed model."""
    if clf.compressed_model is None:
        return None
    report = compression_noise_report(
        clf.compressed_model, clf.compressed_model.prepared_classes, queries
    )
    return {
        "noise_to_signal": float(report.noise_to_signal),
        "rank_flip_rate": float(report.rank_flip_rate),
    }


def _sweep_dataset(config: SweepConfig):
    return make_synthetic_classification(
        SyntheticSpec(
            n_features=config.n_features,
            n_classes=config.n_classes,
            n_train=config.n_train,
            n_test=config.n_test,
            seed=config.seed,
        ),
        name="faults",
    )


def _clean_queries(clf: LookHDClassifier, test_x: np.ndarray) -> np.ndarray:
    return clf.encoder.encode_many(test_x[: min(64, test_x.shape[0])])


def trial_seeds(config: SweepConfig) -> dict[tuple[str, int, int], int]:
    """Per-trial RNG seeds, ``(variant, ber_index, trial) -> int``.

    Derived with ``np.random.SeedSequence.spawn`` from ``config.seed``
    alone, in a fixed (variant, ber, trial) order — a pure function of the
    config, so sequential and parallel sweeps inject identical faults and
    every trial gets a statistically independent stream.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(len(MODEL_VARIANTS) * len(config.bers) * config.trials)
    seeds = {}
    position = 0
    for variant in MODEL_VARIANTS:
        for ber_index in range(len(config.bers)):
            for trial in range(config.trials):
                seeds[(variant, ber_index, trial)] = int(
                    children[position].generate_state(1, dtype=np.uint32)[0]
                )
                position += 1
    return seeds


#: Worker-process state for the parallel sweep (set by the initializer).
_SWEEP_WORKER: dict = {}


def _init_sweep_worker(config: SweepConfig) -> None:
    """Fit the three deterministic variant models once per worker."""
    data = _sweep_dataset(config)
    test_x = data.test_features
    test_y = np.asarray(data.test_labels)
    variants = {}
    for variant in MODEL_VARIANTS:
        clf = _fit_variant(variant, config, data)
        variants[variant] = (clf, _clean_queries(clf, test_x))
    _SWEEP_WORKER.update(config=config, test_x=test_x, test_y=test_y, variants=variants)


def _reset_sweep_worker() -> None:
    _SWEEP_WORKER.clear()


def _run_fault_trial(task: tuple[str, float, int, bool]) -> dict:
    """One independent fault trial; pure function of the task tuple."""
    variant, ber, seed, want_noise = task
    config: SweepConfig = _SWEEP_WORKER["config"]
    clf, clean_queries = _SWEEP_WORKER["variants"][variant]
    spec = FaultSpec(
        ber=ber,
        targets=config.targets,
        seed=seed,
        fixed_point_width=config.fixed_point_width,
    )
    faulted, fault_report = inject_classifier_faults(clf, spec)
    return {
        "accuracy": float(faulted.score(_SWEEP_WORKER["test_x"], _SWEEP_WORKER["test_y"])),
        "bits_per_target": dict(fault_report.bits_per_target),
        "total_bits": int(fault_report.total_bits),
        "noise": _noise_stats(faulted, clean_queries) if want_noise else None,
    }


def run_ber_sweep(config: SweepConfig, n_workers: int | None = 1) -> dict:
    """Run the full sweep; returns the schema-validated report payload.

    ``n_workers > 1`` fans the independent fault trials out over a process
    pool; the payload is byte-identical to the sequential run (the seeds
    come from :func:`trial_seeds` either way, and there are no timing
    fields in this report).
    """
    data = _sweep_dataset(config)
    test_x = data.test_features
    test_y = np.asarray(data.test_labels)
    seeds = trial_seeds(config)
    max_ber = max(config.bers)

    keys = []
    tasks = []
    for variant in MODEL_VARIANTS:
        for ber_index, ber in enumerate(config.bers):
            for trial in range(config.trials):
                keys.append((variant, ber_index, trial))
                tasks.append(
                    (
                        variant,
                        float(ber),
                        seeds[(variant, ber_index, trial)],
                        bool(ber == max_ber and trial == 0),
                    )
                )
    executor = ProcessExecutor(
        n_workers,
        initializer=_init_sweep_worker,
        initargs=(config,),
        finalizer=_reset_sweep_worker,
    )
    with telemetry.timer("faults.sweep_seconds"):
        trial_results = dict(zip(keys, executor.map(_run_fault_trial, tasks)))

    models = []
    for variant in MODEL_VARIANTS:
        clf = _fit_variant(variant, config, data)
        clean_accuracy = clf.score(test_x, test_y)
        clean_queries = _clean_queries(clf, test_x)
        curve = []
        exposed_bits_total = None
        worst_noise = None
        for ber_index, ber in enumerate(config.bers):
            accuracies = []
            for trial in range(config.trials):
                result = trial_results[(variant, ber_index, trial)]
                for target, bits in result["bits_per_target"].items():
                    telemetry.count("faults.injections", target=target)
                    telemetry.count("faults.bits_exposed", bits, target=target)
                accuracies.append(result["accuracy"])
                if exposed_bits_total is None:
                    exposed_bits_total = result["total_bits"]
                if result["noise"] is not None:
                    worst_noise = result["noise"]
            accuracies = np.asarray(accuracies, dtype=np.float64)
            curve.append(
                {
                    "ber": float(ber),
                    "accuracy_mean": float(accuracies.mean()),
                    "accuracy_std": float(accuracies.std()),
                    "accuracy_min": float(accuracies.min()),
                    "trials": int(config.trials),
                    "accuracy_drop": float(clean_accuracy - accuracies.mean()),
                }
            )
        within_budget = [
            point["ber"]
            for point in curve
            if point["accuracy_drop"] <= ACCURACY_DROP_BUDGET
        ]
        models.append(
            {
                "name": variant,
                "clean_accuracy": float(clean_accuracy),
                "exposed_bits": int(exposed_bits_total or 0),
                "curve": curve,
                "max_safe_ber": (max(within_budget) if within_budget else None),
                "noise_clean": _noise_stats(clf, clean_queries),
                "noise_at_max_ber": worst_noise,
            }
        )

    feature_noise = []
    variants = {variant: _fit_variant(variant, config, data) for variant in MODEL_VARIANTS}
    for sigma in config.noise_sigmas:
        entry = {"sigma": float(sigma), "accuracy": {}}
        for variant, clf in variants.items():
            accuracies = [
                clf.score(
                    gaussian_feature_noise(
                        test_x, sigma, rng=config.seed * 100 + trial
                    ),
                    test_y,
                )
                for trial in range(config.trials)
            ]
            entry["accuracy"][variant] = float(np.mean(accuracies))
        feature_noise.append(entry)

    payload = {
        "schema_version": FAULTS_SCHEMA_VERSION,
        "benchmark": "faults",
        "config": config.config_dict(),
        "environment": environment(),
        "models": models,
        "feature_noise": feature_noise,
        "checks": {
            "chance_accuracy": 1.0 / config.n_classes,
            "accuracy_drop_budget": ACCURACY_DROP_BUDGET,
        },
    }
    return validate_faults_payload(payload)


def write_faults_file(
    config: SweepConfig,
    out_dir: str | Path = ".",
    stream=None,
    n_workers: int | None = 1,
) -> Path:
    """Run a sweep and write ``BENCH_faults.json``; returns the file path."""
    if stream is None:
        stream = sys.stdout
    payload = run_ber_sweep(config, n_workers=n_workers)
    path = write_artifact(Path(out_dir) / "BENCH_faults.json", payload)
    for entry in payload["models"]:
        safe = entry["max_safe_ber"]
        print(
            f"[faults] {entry['name']}: clean {entry['clean_accuracy']:.4f}, "
            f"max safe BER {'none' if safe is None else f'{safe:g}'} "
            f"(<= {ACCURACY_DROP_BUDGET:.0%} drop, {entry['exposed_bits']} bits exposed)",
            file=stream,
        )
    return path
