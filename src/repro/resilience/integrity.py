"""Runtime integrity guard: shadow digests, canary queries, self-repair.

The paper targets failure-prone low-power substrates, and the fault
harness (:mod:`repro.faults`) shows exactly what a flipped bit costs in
accuracy — but measurement is not tolerance.  This module closes the
loop: a fitted classifier's state is continuously *scrubbed* against
shadow SHA-256 digests, corruption is reported as typed
:class:`IntegrityError` telemetry, and the damage is repaired from the
cheapest intact source of truth available.

Two kinds of state, two kinds of check
--------------------------------------
**Authoritative state** — quantizer boundaries, level vectors, lookup
table, position hypervectors, per-class counters, class/compressed
models and keys — is covered by *block digests*: each array is hashed in
fixed-size blocks at guard construction, and
:meth:`IntegrityGuard.verify_next_blocks` re-hashes a few blocks per
call (the scrub budget), round-robin, so a long-lived service sweeps its
entire model state every few seconds of idle time without ever stalling
a request.

**Derived state** — the fused score table — is a pure cache; it is
covered by block digests and by *canary queries*: a handful of
deterministic feature vectors whose answers (score vectors / encodings)
are digest-recorded when the state is known-good.  A canary re-query
touches every layer of the serving path (quantize → address → gather →
score), so a single digest comparison is an end-to-end known-answer
check.

Repair ladder
-------------
1. Derived-state corruption → invalidate the caches (version-counter
   idiom) and let them rebuild from authoritative state; re-run the
   canaries to confirm.  Free, exact.
2. Authoritative model-family corruption (class vectors, compressed
   model, keys) with intact counters → rebuild the models from the
   counters (:meth:`~repro.lookhd.classifier.LookHDClassifier.rebuild_from_counters`),
   bit-identical to the original fit.
3. Anything else (lookup table, positions, quantizer, counters
   themselves) → **degrade**: route serving off the fused path onto the
   reference hypervector path and flag the guard ``degraded`` so health
   probes report it.  The damage is not masked — it is surfaced.

Legitimate mutation (retraining bumps the model's version counter) is
*not* corruption: the guard tracks version counters and re-records its
digests when they move, so the invariant it certifies is "unchanged
since the last legitimate mutation".
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.utils.rng import derive_rng

__all__ = ["FleetScrubber", "IntegrityError", "IntegrityGuard", "RepairReport"]

#: Digest block size.  Smaller blocks localise damage better and bound
#: per-tick latency tighter; larger blocks sweep faster.
_BLOCK_BYTES = 1 << 16

#: Deterministic canary feature vectors per guard, synthesised from
#: ``_CANARY_SEED`` to span the quantizer's boundary range, so every
#: level (and therefore every lookup row family) is exercised.
_N_CANARIES = 8
_CANARY_SEED = 0

#: Authoritative artifacts that :func:`LookHDClassifier.rebuild_from_counters`
#: regenerates bit-identically (the compressed model and its keys are
#: re-derived from the config seed, so key corruption is repairable too).
_REBUILDABLE_FROM_COUNTERS = frozenset(
    {"class_vectors", "compressed", "prepared_classes", "common_direction", "keys"}
)

#: Names the canary checks report against (the encode kernel and the
#: derived score table).
_DERIVED_ARTIFACTS = ("encode", "score_table")


class IntegrityError(RuntimeError):
    """A guarded artifact no longer matches its recorded digest.

    Attributes
    ----------
    artifact:
        Name of the damaged artifact (``"lookup_table"``,
        ``"counters[3]"``, ``"score_table"``, …).
    kind:
        ``"authoritative"`` (block digest mismatch) or ``"derived"``
        (canary known-answer mismatch).
    block:
        Index of the failing block for authoritative artifacts, ``None``
        for canary failures.
    """

    def __init__(self, artifact: str, kind: str, block: int | None, detail: str):
        self.artifact = artifact
        self.kind = kind
        self.block = block
        where = f" (block {block})" if block is not None else ""
        super().__init__(f"integrity violation in {kind} artifact {artifact!r}{where}: {detail}")


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :meth:`IntegrityGuard.repair` attempt."""

    artifact: str
    action: str  #: "rebuilt_derived" | "rebuilt_from_counters" | "degraded_reference"
    repaired: bool
    detail: str = ""
    duration_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "artifact": self.artifact,
            "action": self.action,
            "repaired": self.repaired,
            "detail": self.detail,
            "duration_seconds": self.duration_seconds,
        }


def _digest_block(flat: np.ndarray, start: int, stop: int) -> str:
    return hashlib.sha256(flat[start:stop]).hexdigest()


def _flat_view(array: np.ndarray) -> np.ndarray:
    """1-D uint8 view over the array's live buffer (copying only if needed).

    A view means block verification re-reads the *actual* memory the
    model serves from; the copy fallback (non-contiguous inputs) still
    reflects current values, just without the zero-copy property.
    """
    array = np.ascontiguousarray(array)
    return array.reshape(-1).view(np.uint8)


class IntegrityGuard:
    """Shadow-digest + canary integrity checking for a fitted classifier.

    Parameters
    ----------
    clf:
        A fitted :class:`~repro.lookhd.classifier.LookHDClassifier`.
        The guard holds accessors, not array references, so repairs that
        swap whole objects (model rebuilds) are picked up transparently.
    include_derived:
        When ``False``, the guard covers authoritative state plus the
        encode canary only — no score-table digests and no score canary.
        Building (or even probing) the derived specs *materialises* the
        score table, so a guard over an LRU-evicted fleet tenant must opt
        out or the scrub loop would silently rebind every tenant the
        registry just evicted, defeating the byte budget.  Encoding reads
        the lookup table directly and materialises nothing, so its
        known-answer check runs either way.  The :class:`FleetScrubber`
        flips this per tenant as its binding state changes.
    """

    def __init__(self, clf, include_derived: bool = True):
        if clf.encoder is None or clf.class_model is None:
            raise RuntimeError("IntegrityGuard requires a fitted classifier")
        self.clf = clf
        self.include_derived = bool(include_derived)
        self.degraded = False
        self.blocks_verified = 0
        self.canary_checks = 0
        self._specs = self._build_specs()
        self._canary_features = self._synthesize_canaries()
        self.resync()

    # -- state inventory -------------------------------------------------------

    def _build_specs(self) -> dict:
        """name -> (accessor, family, kind) for every guarded artifact.

        ``family`` names the version counter that legitimises mutation
        (``None`` for state that never changes after fit); ``kind`` is
        ``"authoritative"`` or ``"derived"`` and selects the repair rung.

        The score table is guarded by block digests *as well as*
        canaries: canaries are the end-to-end known-answer check, but a
        handful of probe queries only touch a handful of table rows — a
        flip in a cold row hides from them indefinitely.  Digesting the
        materialised table sweeps every byte.  Recording the digests
        forces the table to materialise, which doubles as serving
        warm-up; the digests stay valid across legitimate rebuilds
        (cache invalidation, LRU eviction and rebind) because rebuilds
        from intact authoritative state are bit-identical.
        """
        clf = self.clf
        specs = {
            "quantizer_boundaries": (lambda: clf.quantizer.boundaries, None, "authoritative"),
            "level_vectors": (
                lambda: clf.encoder.lookup_table.item_memory.vectors,
                None,
                "authoritative",
            ),
            "lookup_table": (lambda: clf.encoder.lookup_table.table, None, "authoritative"),
            "positions": (lambda: clf.encoder.position_memory.vectors, None, "authoritative"),
            "class_vectors": (
                lambda: clf.class_model.class_vectors,
                "class_model",
                "authoritative",
            ),
        }
        if clf.compressed_model is not None:
            specs.update(
                compressed=(
                    lambda: clf.compressed_model.compressed,
                    "compressed_model",
                    "authoritative",
                ),
                prepared_classes=(
                    lambda: clf.compressed_model.prepared_classes,
                    "compressed_model",
                    "authoritative",
                ),
                common_direction=(
                    lambda: clf.compressed_model._common_direction,
                    "compressed_model",
                    "authoritative",
                ),
                keys=(
                    lambda: clf.compressed_model.keys.vectors,
                    "compressed_model",
                    "authoritative",
                ),
            )
        counters = getattr(clf.trainer, "counters", None)
        if counters:
            for index in range(len(counters)):
                specs[f"counters[{index}]"] = (
                    lambda index=index: clf.trainer.counters[index].counts,
                    None,
                    "authoritative",
                )
        if (
            self.include_derived
            and not clf.serve_reference
            and clf.config.fused_inference
            and clf.fused_engine().enabled
        ):
            model_family = (
                "compressed_model" if clf.compressed_model is not None else "class_model"
            )
            specs["score_table"] = (
                lambda: clf.fused_engine().score_table,
                model_family,
                "derived",
            )
        return specs

    def _family_versions(self) -> dict:
        versions = {"class_model": self.clf.class_model.version}
        if self.clf.compressed_model is not None:
            versions["compressed_model"] = self.clf.compressed_model.version
        return versions

    def _synthesize_canaries(self) -> np.ndarray:
        boundaries = np.asarray(self.clf.quantizer.boundaries, dtype=np.float64)
        if boundaries.size:
            lo, hi = float(boundaries.min()), float(boundaries.max())
        else:
            lo, hi = -1.0, 1.0
        pad = 0.5 * (hi - lo) + 1.0
        rng = derive_rng(_CANARY_SEED, "resilience-canaries")
        return rng.uniform(
            lo - pad, hi + pad, size=(_N_CANARIES, self.clf.encoder.layout.n_features)
        )

    # -- digest recording ------------------------------------------------------

    def _kind(self, name: str) -> str:
        return self._specs[name][2]

    def _snapshot(self, name: str) -> tuple:
        value = self._specs[name][0]()
        if value is None:
            raise RuntimeError(f"guarded artifact {name!r} is not materialised")
        array = np.asarray(value)
        flat = _flat_view(array)
        blocks = [
            _digest_block(flat, start, start + _BLOCK_BYTES)
            for start in range(0, max(1, flat.size), _BLOCK_BYTES)
        ]
        return (str(array.dtype), array.shape, blocks)

    def resync(self, artifacts=None) -> None:
        """(Re-)record digests and canary answers from the current state.

        Called at construction, after legitimate mutation (version-counter
        movement), and after a successful repair.  ``artifacts`` limits
        the re-record to a subset; the schedule and canaries always
        refresh, since they depend on every artifact's geometry.
        """
        self._specs = self._build_specs()
        if artifacts is None:
            self._digests = {}
            names = list(self._specs)
        else:
            # Partial resync: refresh the requested artifacts, pick up any
            # spec that newly appeared, and drop any that went away.
            self._digests = {
                name: value for name, value in self._digests.items() if name in self._specs
            }
            names = [name for name in artifacts if name in self._specs]
            names += [name for name in self._specs if name not in self._digests]
        for name in names:
            self._digests[name] = self._snapshot(name)
        self._versions = self._family_versions()
        self._schedule = [
            (name, block)
            for name in self._specs
            for block in range(len(self._digests[name][2]))
        ]
        self._cursor = 0
        self._record_canaries()

    def _canary_answers_now(self) -> dict:
        """Known-answer digests over the serving path, as of now.

        The encode answer is always recorded; the score answer only with
        derived coverage on, since running the score canary would
        materialise the score table.
        """
        clf = self.clf
        encoded = clf.encoder.encode_many(self._canary_features)
        answers = {"encode": hashlib.sha256(np.ascontiguousarray(encoded)).hexdigest()}
        if self.include_derived and clf.config.fused_inference:
            engine = clf.fused_engine()
            if engine.enabled:
                scores = engine.scores(self._canary_features)
                answers["score_table"] = hashlib.sha256(
                    np.ascontiguousarray(scores)
                ).hexdigest()
        return answers

    def _record_canaries(self) -> None:
        self._canary_answers = self._canary_answers_now()

    # -- verification ----------------------------------------------------------

    def _resync_if_mutated(self) -> None:
        """Absorb legitimate mutation: version-counter movement re-records.

        This is the guard's documented detection hole: it certifies
        "unchanged since the last legitimate mutation", so corruption that
        lands in the same scrub interval as a retraining update is folded
        into the new baseline.  Shrinking the window is what frequent
        ticks are for.
        """
        current = self._family_versions()
        if current != self._versions:
            moved = [
                name
                for name, (_, family, _) in self._specs.items()
                if family is not None and current.get(family) != self._versions.get(family)
            ]
            self.resync(artifacts=moved)
            telemetry.count("resilience.integrity.resyncs", trigger="version_change")

    def verify_next_blocks(self, n_blocks: int) -> list[IntegrityError]:
        """Verify the next ``n_blocks`` scheduled blocks (round-robin).

        Collecting, not raising: a scrub tick reports *all* the damage it
        found so the repair pass can act on complete information.
        """
        self._resync_if_mutated()
        errors = []
        flat_cache: dict[str, np.ndarray] = {}
        checked_meta: set[str] = set()
        for _ in range(min(n_blocks, len(self._schedule))):
            name, block = self._schedule[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._schedule)
            dtype, shape, blocks = self._digests[name]
            kind = self._kind(name)
            value = self._specs[name][0]()
            if value is None:
                if name not in checked_meta:
                    checked_meta.add(name)
                    errors.append(
                        IntegrityError(name, kind, None, "artifact is no longer materialised")
                    )
                self.blocks_verified += 1
                continue
            array = np.asarray(value)
            if name not in checked_meta:
                checked_meta.add(name)
                if (str(array.dtype), array.shape) != (dtype, shape):
                    errors.append(
                        IntegrityError(
                            name,
                            kind,
                            None,
                            f"geometry changed from {dtype}{shape} to "
                            f"{array.dtype}{array.shape}",
                        )
                    )
                    self.blocks_verified += 1
                    continue
            if name not in flat_cache:
                flat_cache[name] = _flat_view(array)
            start = block * _BLOCK_BYTES
            actual = _digest_block(flat_cache[name], start, start + _BLOCK_BYTES)
            self.blocks_verified += 1
            if actual != blocks[block]:
                errors.append(
                    IntegrityError(
                        name,
                        kind,
                        block,
                        f"digest {actual[:12]}… != recorded {blocks[block][:12]}…",
                    )
                )
        for error in errors:
            telemetry.count("resilience.integrity.errors", artifact=error.artifact)
        return errors

    def check_canaries(self) -> list[IntegrityError]:
        """Known-answer check over the derived serving path."""
        self._resync_if_mutated()
        self.canary_checks += 1
        actual = self._canary_answers_now()
        errors = []
        for name in _DERIVED_ARTIFACTS:
            expected = self._canary_answers.get(name)
            if expected is None:
                continue
            if actual.get(name) != expected:
                errors.append(
                    IntegrityError(
                        name, "derived", None, "canary answers diverged from record"
                    )
                )
        for error in errors:
            telemetry.count("resilience.integrity.errors", artifact=error.artifact)
        return errors

    def verify_all(self) -> list[IntegrityError]:
        """Full sweep: every block of every artifact, plus the canaries."""
        return self.verify_next_blocks(len(self._schedule)) + self.check_canaries()

    def _artifact_intact(self, name: str) -> bool:
        dtype, shape, blocks = self._digests[name]
        value = self._specs[name][0]()
        if value is None:
            return False
        array = np.asarray(value)
        if (str(array.dtype), array.shape) != (dtype, shape):
            return False
        flat = _flat_view(array)
        return all(
            _digest_block(flat, index * _BLOCK_BYTES, (index + 1) * _BLOCK_BYTES)
            == digest
            for index, digest in enumerate(blocks)
        )

    def counters_intact(self) -> bool:
        """Whether every guarded counter array still matches its digests."""
        counter_names = [name for name in self._specs if name.startswith("counters[")]
        return bool(counter_names) and all(
            self._artifact_intact(name) for name in counter_names
        )

    # -- repair ----------------------------------------------------------------

    def _invalidate_derived(self) -> None:
        clf = self.clf
        if clf._fused_engine is not None:
            clf._fused_engine.invalidate()

    def repair(self, error: IntegrityError) -> RepairReport:
        """Climb the repair ladder for one detected violation.

        Derived damage → invalidate + rebuild caches (free, exact).
        Rebuildable authoritative damage with intact counters → rebuild
        the models from counters (bit-identical to the original fit).
        Everything else → degrade to the reference serving path and flag
        :attr:`degraded` (the damage is surfaced, not masked).
        """
        started = time.perf_counter()
        report = self._repair(error)
        report = RepairReport(
            report.artifact,
            report.action,
            report.repaired,
            report.detail,
            time.perf_counter() - started,
        )
        telemetry.count(
            "resilience.integrity.repairs",
            action=report.action,
            repaired=str(report.repaired).lower(),
        )
        return report

    def _repair(self, error: IntegrityError) -> RepairReport:
        if error.kind == "derived":
            self._invalidate_derived()
            # Accessing the specs below forces the caches to rebuild from
            # authoritative state; if that state is intact, the rebuilt
            # bytes match the recorded digests and the canaries agree.
            residual = [
                name
                for name in self._specs
                if self._kind(name) == "derived" and not self._artifact_intact(name)
            ]
            residual += [failure.artifact for failure in self.check_canaries()]
            if not residual:
                return RepairReport(
                    error.artifact,
                    "rebuilt_derived",
                    True,
                    "caches invalidated and rebuilt from authoritative state; "
                    "digests and canaries match the records again",
                )
            # Rebuilding the caches did not restore the recorded state, so
            # the authoritative inputs themselves are damaged — find out
            # which and fall through to the authoritative ladder.
            authoritative = [
                failure
                for failure in self.verify_next_blocks(len(self._schedule))
                if failure.kind == "authoritative"
            ]
            if authoritative:
                return self._repair(authoritative[0])
            return self._degrade(
                error,
                "derived state still diverges after a cache rebuild, but every "
                "authoritative block digest matches — undiagnosable state",
            )
        if (
            error.artifact in _REBUILDABLE_FROM_COUNTERS
            and getattr(self.clf.trainer, "counters", None)
            and self.counters_intact()
        ):
            self.clf.rebuild_from_counters()
            self.resync()
            return RepairReport(
                error.artifact,
                "rebuilt_from_counters",
                True,
                "model family rebuilt from intact counters (bit-identical to "
                "the original fit); digests and canaries re-recorded",
            )
        return self._degrade(error, "authoritative state is not rebuildable here")

    def _degrade(self, error: IntegrityError, why: str) -> RepairReport:
        self.degraded = True
        self.clf.serve_reference = True
        self._invalidate_derived()
        # Re-record the baseline: the damage is latched in :attr:`degraded`
        # (and the health probe), so re-alerting on the same bytes every
        # tick would only bury the signal.
        self.resync()
        telemetry.count("resilience.integrity.degraded", artifact=error.artifact)
        return RepairReport(
            error.artifact,
            "degraded_reference",
            False,
            f"{why}; serving degraded to the reference hypervector path — "
            "restore from a clean artifact or refit",
        )


class _TenantScrub:
    """One tenant's scrub state: the guard over the registry record it
    covers, the tenant's own tick count (its canary cadence), and what its
    ticks found and repaired."""

    __slots__ = (
        "record", "guard", "ticks", "errors_detected", "repairs", "last_error", "last_repair"
    )

    def __init__(self, record):
        self.record = record
        self.guard = IntegrityGuard(record.classifier, include_derived=record.bound)
        self.ticks = 0
        self.errors_detected = 0
        self.repairs = 0
        self.last_error: str | None = None
        self.last_repair: dict | None = None

    def handle(self, errors: list[IntegrityError]) -> None:
        """Record what a tick found and climb the repair ladder for it."""
        if not errors:
            return
        self.errors_detected += len(errors)
        self.last_error = str(errors[0])
        repaired_artifacts: set[str] = set()
        for error in errors:
            if error.artifact in repaired_artifacts:
                continue
            report = self.guard.repair(error)
            repaired_artifacts.add(error.artifact)
            self.last_repair = {**report.as_dict(), "at_tick": self.ticks}
            if report.repaired:
                self.repairs += 1
                # A successful repair resynced the guard; block errors
                # queued behind this one are stale now.
                break

    def status(self) -> dict:
        return {
            "version": self.record.version,
            "bound": self.record.bound,
            "derived_guarded": self.guard.include_derived,
            "ticks": self.ticks,
            "blocks_verified": self.guard.blocks_verified,
            "canary_checks": self.guard.canary_checks,
            "errors_detected": self.errors_detected,
            "repairs": self.repairs,
            "degraded": self.guard.degraded,
            "last_error": self.last_error,
            "last_repair": self.last_repair,
        }


class FleetScrubber:
    """Budgeted incremental scrubbing of every model in a
    :class:`~repro.serving.registry.ModelRegistry` (a single model is a
    one-tenant registry).

    One :meth:`tick` scrubs one tenant (round-robin over the registry's
    current membership): it verifies ``blocks_per_tick`` of that tenant's
    blocks, runs its canaries every ``canary_every`` of its own ticks,
    repairs what it finds, and **never raises** — a scrub failure must not
    take down the service it protects.  :meth:`run` drives the ticks from
    a serving event loop's idle time.  A disabled scrubber's :meth:`tick`
    is a no-op returning ``[]``; that is the configuration the <2%
    serving-overhead gate measures.

    Swap/eviction awareness — the part a naive per-model loop gets
    wrong:

    * Each tenant's :class:`IntegrityGuard` is keyed to the registry
      *record* it was built over.  A hot-swap replaces the record, so
      the next tick on that tenant discards the stale guard and builds
      one over the new version — a swap mid-scrub is absorbed at the
      next tick instead of raising false "geometry changed" alarms
      against the retired model (whose in-flight batches it would also
      have been scrubbing pointlessly).  A guard records its baseline
      when it is built, at the tenant's first tick.
    * Guards over **unbound** tenants are built with
      ``include_derived=False``: probing derived caches materialises
      them, so a full guard would rebind every table set the LRU budget
      just evicted.  Such a guard still runs the encode canary, which
      materialises nothing.  When the tenant's binding state flips
      (eviction or lazy rebind), the guard is rebuilt to match.

    Tenants whose classifier the guard cannot cover (no quantizer /
    counters surface) are skipped with a recorded ``last_error`` rather
    than crashing the loop.
    """

    def __init__(
        self,
        registry,
        blocks_per_tick: int = 8,
        canary_every: int = 8,
        enabled: bool = True,
    ):
        if blocks_per_tick <= 0:
            raise ValueError(f"blocks_per_tick must be positive, got {blocks_per_tick}")
        if canary_every <= 0:
            raise ValueError(f"canary_every must be positive, got {canary_every}")
        self.registry = registry
        self.blocks_per_tick = int(blocks_per_tick)
        self.canary_every = int(canary_every)
        self.enabled = bool(enabled)
        self.ticks = 0
        self.guard_builds = 0
        self.last_error: str | None = None
        self._tenants: dict[str, _TenantScrub] = {}

    def _state_for(self, tenant: str) -> _TenantScrub:
        record = self.registry.record(tenant)
        state = self._tenants.get(tenant)
        if (
            state is None
            or state.record is not record
            or state.guard.include_derived != record.bound
        ):
            # New version (hot-swap), new tenant, or a binding flip: build a
            # fresh guard matched to the record's current state.
            state = self._tenants[tenant] = _TenantScrub(record)
            self.guard_builds += 1
            telemetry.count("resilience.fleet.guard_builds", tenant=tenant)
        return state

    def tick(self) -> list[IntegrityError]:
        """Scrub one tenant's next increment; returns the corruption it
        detected and never raises."""
        if not self.enabled:
            return []
        self.ticks += 1
        names = self.registry.tenants()
        for stale in [t for t in self._tenants if t not in names]:
            del self._tenants[stale]
        if not names:
            return []
        tenant = names[(self.ticks - 1) % len(names)]
        try:
            state = self._state_for(tenant)
            state.ticks += 1
            with telemetry.timer("resilience.scrub.tick_seconds"):
                errors = state.guard.verify_next_blocks(self.blocks_per_tick)
                if state.ticks % self.canary_every == 0:
                    errors += state.guard.check_canaries()
                state.handle(errors)
        except Exception as unexpected:  # pragma: no cover - defensive
            # The scrub loop protects the fleet; it must not take it down.
            self.last_error = f"fleet scrub failed for {tenant!r}: {unexpected!r}"
            telemetry.count("resilience.scrub.tick_failures")
            return []
        return errors

    async def run(self, service, interval: float) -> None:
        """Tick every ``interval`` seconds while ``service`` has no queued
        work, until cancelled.

        A tick is deliberately small (a handful of block digests) and never
        raises, so it runs inline on the event loop; gating on an empty
        queue keeps it out of the latency path under load.
        """
        while True:
            await asyncio.sleep(interval)
            if service.queue_depth == 0:
                self.tick()

    def status(self) -> dict:
        """Snapshot for health probes and the chaos bench.

        ``degraded``/``errors_detected``/``repairs`` aggregate across the
        fleet (any degraded tenant degrades the fleet's health), and the
        per-tenant breakdown rides under ``"tenants"``.
        """
        tenants = {tenant: state.status() for tenant, state in sorted(self._tenants.items())}
        last_error, last_repair = self.last_error, None
        for sub in tenants.values():
            last_error = sub["last_error"] or last_error
            last_repair = sub["last_repair"] or last_repair
        totals = ("blocks_verified", "canary_checks", "errors_detected", "repairs")
        return {
            "enabled": self.enabled,
            "auto_repair": True,
            "ticks": self.ticks,
            "guard_builds": self.guard_builds,
            **{key: sum(sub[key] for sub in tenants.values()) for key in totals},
            "degraded": any(sub["degraded"] for sub in tenants.values()),
            "last_error": last_error,
            "last_repair": last_repair,
            "tenants": tenants,
        }
