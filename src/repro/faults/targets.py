"""Apply bit-flip faults to the deployed memories of a fitted classifier.

Maps each BRAM the paper's accelerator would flash to the representation
the hardware stores it at, then injects :mod:`repro.faults.injectors`
faults into a **deep copy** of the classifier (the clean model is never
mutated, so one trained model can serve an entire BER sweep):

=================  ==========================================  ==========
target             memory                                      stored as
=================  ==========================================  ==========
``lookup_table``   chunk encodings ``T[a]`` (Sec. III-C)       int field
``positions``      position hypervectors ``P_i`` (Eq. 3)       1 bit/elem
``class_vectors``  class accumulators ``C_j`` (Sec. IV-A)      int field
``compressed``     compressed hypervector(s) ``C`` (Eq. 4)     fixed point
``keys``           compression keys ``P'_j`` (Eq. 4)           1 bit/elem
=================  ==========================================  ==========

Integer fields use the minimal two's-complement width for the trained
values — the footprint a deployment would provision — and the compressed
model uses ``fixed_point_width``-bit fixed point.  After injection every
derived cache (fused score tables, normalised class views, the
compressed search matrix) is invalidated so the faulted values actually
flow through inference.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.faults.injectors import (
    flip_fixed_point_bits,
    flip_integer_bits,
    flip_sign_bits,
    required_width,
)
from repro.lookhd.classifier import LookHDClassifier
from repro.utils.rng import derive_rng
from repro.utils.validation import check_in_range, check_positive_int

#: Every memory the sweep faults by default — all the BRAMs of Sec. V-A.
DEFAULT_TARGETS = ("lookup_table", "positions", "class_vectors", "compressed", "keys")

#: Memories :func:`inject_live_fault` can corrupt *in place* on a serving
#: classifier.  The derived cache ("score_table") models bit rot in state
#: the version counters cannot see; the authoritative entries model damage
#: the integrity guard must repair or degrade around.
LIVE_TARGETS = ("score_table", "class_vectors", "compressed")


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection configuration.

    Attributes
    ----------
    ber:
        Per-bit flip probability in ``[0, 1]``.
    targets:
        Which memories to fault (subset of :data:`DEFAULT_TARGETS`).
        Targets absent from the model (e.g. ``compressed`` on an
        uncompressed classifier) are skipped silently, so one spec works
        across model variants.
    seed:
        Fault-pattern seed; the same spec on the same model reproduces the
        identical corruption.
    fixed_point_width:
        Stored bits per element for real-valued memories.
    """

    ber: float
    targets: tuple[str, ...] = DEFAULT_TARGETS
    seed: int = 0
    fixed_point_width: int = 16

    def __post_init__(self):
        check_in_range(self.ber, "ber", 0.0, 1.0)
        check_positive_int(self.fixed_point_width, "fixed_point_width")
        unknown = set(self.targets) - set(DEFAULT_TARGETS)
        if unknown:
            raise ValueError(
                f"unknown fault targets {sorted(unknown)}; choose from {DEFAULT_TARGETS}"
            )
        if not self.targets:
            raise ValueError("targets must not be empty")


@dataclass
class FaultReport:
    """What a single injection actually touched (for report provenance)."""

    ber: float
    seed: int
    bits_per_target: dict = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        return int(sum(self.bits_per_target.values()))


def _invalidate_caches(clf: LookHDClassifier) -> None:
    """Drop every table derived from the now-faulted memories."""
    clf._fused_engine = None
    if clf.class_model is not None:
        clf.class_model.mark_dirty()
    if clf.compressed_model is not None:
        clf.compressed_model.mark_dirty()


def inject_classifier_faults(
    clf: LookHDClassifier, spec: FaultSpec
) -> tuple[LookHDClassifier, FaultReport]:
    """Return a faulted deep copy of ``clf`` plus a provenance report.

    The clean classifier is untouched.  Faults are injected per
    ``spec.targets`` into the copy's memories at ``spec.ber``; the report
    records how many stored bits each target exposes, so sweep outputs can
    state the expected flip counts they were produced under.
    """
    if clf.encoder is None or clf.class_model is None:
        raise RuntimeError("classifier must be fitted before injecting faults")
    faulted = copy.deepcopy(clf)
    report = FaultReport(ber=spec.ber, seed=spec.seed)

    if "lookup_table" in spec.targets:
        table = faulted.encoder.lookup_table.table
        width = required_width(table)
        corrupted = flip_integer_bits(
            table, spec.ber, rng=derive_rng(spec.seed, "fault-lookup"), width=width
        )
        faulted.encoder.lookup_table.table = corrupted.astype(table.dtype)
        report.bits_per_target["lookup_table"] = table.size * width

    if "positions" in spec.targets:
        positions = faulted.encoder.position_memory.vectors
        faulted.encoder.position_memory.vectors = flip_sign_bits(
            positions, spec.ber, rng=derive_rng(spec.seed, "fault-positions")
        )
        report.bits_per_target["positions"] = positions.size

    if "class_vectors" in spec.targets:
        vectors = faulted.class_model.class_vectors
        width = required_width(vectors)
        faulted.class_model.class_vectors = flip_integer_bits(
            vectors, spec.ber, rng=derive_rng(spec.seed, "fault-classes"), width=width
        ).astype(vectors.dtype)
        report.bits_per_target["class_vectors"] = vectors.size * width

    if faulted.compressed_model is not None:
        comp = faulted.compressed_model
        if "compressed" in spec.targets:
            comp.compressed = flip_fixed_point_bits(
                comp.compressed,
                spec.ber,
                rng=derive_rng(spec.seed, "fault-compressed"),
                width=spec.fixed_point_width,
            )
            report.bits_per_target["compressed"] = (
                comp.compressed.size * spec.fixed_point_width
            )
        if "keys" in spec.targets:
            comp.keys.vectors = flip_sign_bits(
                comp.keys.vectors, spec.ber, rng=derive_rng(spec.seed, "fault-keys")
            )
            report.bits_per_target["keys"] = comp.keys.vectors.size

    _invalidate_caches(faulted)
    return faulted, report


def inject_live_fault(
    clf: LookHDClassifier, target: str, ber: float = 1e-4, seed: int = 0
) -> dict:
    """Corrupt one memory of a *live* classifier, in place, silently.

    Unlike :func:`inject_classifier_faults` this mutates ``clf`` itself and
    deliberately does **not** invalidate caches or bump version counters —
    it models a radiation/voltage bit flip landing in serving state, the
    exact condition the integrity scrubber (:mod:`repro.resilience`) exists
    to detect.  Sign-flip corruption is used uniformly: negating a stored
    element is the in-memory effect of flipping its sign bit, and it works
    for every dtype involved without rewriting untouched elements.

    At least one element is always corrupted (a ``ber`` too small to hit
    anything would make a chaos run vacuously pass), and the fault pattern
    is deterministic in ``seed``.

    Returns ``{"target", "elements_flipped", "forced"}``.
    """
    check_in_range(ber, "ber", 0.0, 1.0)
    if clf.encoder is None or clf.class_model is None:
        raise RuntimeError("classifier must be fitted before injecting faults")
    if target == "score_table":
        engine = clf.fused_engine()
        array = engine.score_table  # force materialisation
        if array is None:
            raise ValueError(
                "score_table is not materialised (fused path over budget); "
                "pick an authoritative live target instead"
            )
    elif target == "class_vectors":
        array = clf.class_model.class_vectors
    elif target == "compressed":
        if clf.compressed_model is None:
            raise ValueError("classifier has no compressed model to fault")
        array = clf.compressed_model.compressed
    else:
        raise ValueError(f"unknown live fault target {target!r}; choose from {LIVE_TARGETS}")

    rng = derive_rng(seed, f"live-fault-{target}")
    corrupted = flip_sign_bits(array, ber, rng=rng)
    flipped = int(np.count_nonzero(corrupted != array))
    forced = flipped == 0
    array[...] = corrupted
    if forced:
        flat = array.reshape(-1)
        index = int(rng.integers(flat.size))
        value = flat[index]
        flat[index] = -value if value != 0 else flat.dtype.type(1)
        flipped = 1
    return {"target": target, "elements_flipped": flipped, "forced": forced}


def exposed_bits(clf: LookHDClassifier, spec: FaultSpec) -> int:
    """Total fault-exposed stored bits for ``clf`` under ``spec`` (no injection)."""
    _, report = inject_classifier_faults(clf, FaultSpec(0.0, spec.targets, 0, spec.fixed_point_width))
    return report.total_bits
