"""Pinned-seed synthetic workloads for the perf harness.

Every workload is fully determined by its spec (the synthetic generator is
seeded), so re-running a benchmark reproduces the exact same features,
labels, trained model, and predictions — only wall-clock numbers move.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.datasets.base import Dataset
from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark configuration: data geometry + LookHD hyperparameters."""

    name: str
    dim: int
    levels: int
    chunk_size: int
    n_features: int
    n_classes: int
    n_train: int
    n_test: int
    group_size: int | None = 12
    decorrelate: bool = True
    seed: int = 7

    def make_dataset(self) -> Dataset:
        spec = SyntheticSpec(
            n_features=self.n_features,
            n_classes=self.n_classes,
            n_train=self.n_train,
            n_test=self.n_test,
            seed=self.seed,
        )
        return make_synthetic_classification(spec, name=self.name)

    def config_dict(self) -> dict:
        return asdict(self)


def fit_classifier(workload: BenchWorkload, data: Dataset) -> LookHDClassifier:
    """A :class:`LookHDClassifier` with the workload's geometry and seed,
    fitted on ``data``'s training split."""
    clf = LookHDClassifier(
        LookHDConfig(
            dim=workload.dim,
            levels=workload.levels,
            chunk_size=workload.chunk_size,
            group_size=workload.group_size,
            decorrelate=workload.decorrelate,
            seed=workload.seed,
        )
    )
    clf.fit(data.train_features, data.train_labels)
    return clf


#: The acceptance-gate workload: the paper's efficiency configuration
#: (D=2000, q=4, r=5) at a batch size large enough that the (N, m, D)
#: reference intermediate dominates — where the fused path must win ≥ 3×.
_FULL = (
    BenchWorkload(
        name="paper_d2000_q4_k13",
        dim=2000,
        levels=4,
        chunk_size=5,
        n_features=100,
        n_classes=13,
        n_train=2000,
        n_test=2000,
    ),
    BenchWorkload(
        name="speech_like_d2000_q4_k26",
        dim=2000,
        levels=4,
        chunk_size=5,
        n_features=100,
        n_classes=26,
        n_train=1500,
        n_test=1500,
    ),
    BenchWorkload(
        name="binary_d2000_q2_k6",
        dim=2000,
        levels=2,
        chunk_size=5,
        n_features=60,
        n_classes=6,
        n_train=1500,
        n_test=1500,
    ),
)

#: Tiny configuration for CI smoke runs: exercises every code path in a
#: few hundred milliseconds while keeping the same schema.
_SMOKE = (
    BenchWorkload(
        name="smoke_d256_q4_k5",
        dim=256,
        levels=4,
        chunk_size=4,
        n_features=20,
        n_classes=5,
        n_train=200,
        n_test=120,
    ),
)

#: Profiles whose bench run is the worker-count scaling study (training
#: only): each workload is trained sequentially and at several
#: ``ParallelTrainer`` worker counts, with bit-identity checked at every
#: point.  The ``training-scaling`` profile reuses the full workload set
#: (the ≥ 2.5×-at-4-workers gate reads the ``paper_d2000_q4_k13`` shape);
#: the smoke variant is CI-sized.
SCALING_PROFILES = ("training-scaling", "training-scaling-smoke")

_PROFILES = {
    "full": _FULL,
    "smoke": _SMOKE,
    "training-scaling": _FULL,
    "training-scaling-smoke": _SMOKE,
}


def profile_names() -> tuple[str, ...]:
    return tuple(_PROFILES)


def is_scaling_profile(profile: str) -> bool:
    """Whether a profile runs the worker-count scaling bench."""
    return profile in SCALING_PROFILES


def profile_workloads(profile: str) -> tuple[BenchWorkload, ...]:
    """Workloads for a named profile (see :func:`profile_names`)."""
    try:
        return _PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown bench profile {profile!r}; choose from {sorted(_PROFILES)}"
        ) from None
