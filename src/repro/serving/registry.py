"""Multi-tenant model registry: named, versioned models with atomic hot-swap.

The fleet-serving shape of the problem: production traffic is many models
— one per tenant, plus differently-compressed variants of the same model —
while everything below this layer (:class:`FusedInferenceEngine`, the
microbatcher, the scrubber) was built around exactly one.  The registry is
the indirection that turns those single-model subsystems into a fleet:

* **Named, versioned records.**  ``publish(tenant, classifier)`` installs
  a model under a tenant name and bumps that tenant's monotonic version.
  Publishing again is a **zero-downtime hot-swap**: the new model's fused
  encode/score tables are built *before* the flip (off the serving path —
  the TCP front end runs the build in a worker thread), and the flip
  itself is one dict assignment, so a serving-path :meth:`get` observes
  either the complete old record or the complete new one, never a
  half-built table.  In-flight batches hold a reference to the record
  they resolved and finish on the old version — the same version-counter
  / swap-by-reference idiom :mod:`repro.lookhd.inference` uses for score
  tables, applied one level up.

* **LRU table cache under a byte budget.**  The registered models
  themselves are cheap (counters + class vectors); the expensive part is
  each model's *bound table set* — the fused score table, a few MB at
  paper scale.  The registry keeps bound table sets in an LRU keyed by
  serving recency, charged against ``cache_budget_bytes``.  Publishing or lazily rebinding a tenant past
  the budget evicts the least-recently-served tenants' tables
  (``serving.registry.evictions``); an evicted tenant stays registered
  and correct — its next request rebuilds the tables lazily
  (``serving.registry.lazy_rebuilds``), bit-identical to pre-eviction,
  because the tables are pure caches of authoritative state.

Thread-safety: a mutex guards the record map and LRU bookkeeping, so a
publish prepared on a worker thread can flip safely while the event loop
serves.  Table *builds* happen outside the lock (on the classifier, which
is private to the publisher until the flip).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import telemetry
from repro.serving.service import ServingError


class UnknownTenantError(ServingError, KeyError):
    """No model is registered under the requested tenant name.

    Typed so front ends can answer "unknown_tenant" instead of a generic
    failure; also a ``KeyError`` for dict-like ergonomics.
    """

    def __init__(self, tenant: str, known):
        self.tenant = tenant
        self.known = sorted(known)
        super().__init__(
            f"no model registered for tenant {tenant!r}; "
            f"registered tenants: {self.known or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0]


class ModelRecord:
    """One (tenant, version) entry: the classifier plus its binding state.

    Records are immutable once published apart from their binding state
    (``bound``/``table_bytes``), which only the registry mutates under its
    lock.  A hot-swap never mutates a record — it replaces it — so any
    consumer holding a record keeps a consistent model.
    """

    __slots__ = ("tenant", "version", "classifier", "n_features", "bound", "table_bytes")

    def __init__(self, tenant: str, version: int, classifier, n_features: int):
        self.tenant = tenant
        self.version = version
        self.classifier = classifier
        self.n_features = n_features
        self.bound = False
        self.table_bytes = 0

    def describe(self) -> dict:
        return {
            "version": self.version,
            "n_features": self.n_features,
            "bound": self.bound,
            "table_bytes": self.table_bytes,
        }


def _infer_n_features(classifier, n_features) -> int:
    if n_features is not None:
        return int(n_features)
    encoder = getattr(classifier, "encoder", None)
    if encoder is not None:
        return int(encoder.n_features)
    raise ValueError(
        "classifier exposes no fitted encoder; pass n_features explicitly"
    )


class ModelRegistry:
    """Named, versioned model fleet with hot-swap and an LRU table cache.

    Parameters
    ----------
    cache_budget_bytes:
        Byte budget for *bound table sets* across all tenants.  ``None``
        (default) is unlimited.  The budget governs the caches only —
        registration is never refused; over-budget tenants serve through
        the exact unbound fallback paths until their next (lazy) rebind.
    """

    def __init__(self, cache_budget_bytes: int | None = None):
        if cache_budget_bytes is not None and not cache_budget_bytes > 0:
            raise ValueError(
                f"cache_budget_bytes must be positive or None, got {cache_budget_bytes}"
            )
        self.cache_budget_bytes = cache_budget_bytes
        self._records: dict[str, ModelRecord] = {}
        #: Bound tenants, least-recently-served first.
        self._lru: OrderedDict[str, None] = OrderedDict()
        self._lock = threading.Lock()
        self.bound_bytes = 0
        # Always-on fleet accounting, mirrored to telemetry when enabled.
        self.publishes = 0
        self.evictions = 0
        self.lazy_rebuilds = 0

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._records

    def tenants(self) -> list[str]:
        """Registered tenant names, sorted."""
        return sorted(self._records)

    def record(self, tenant: str) -> ModelRecord:
        """The current record for ``tenant`` — no LRU touch, no rebind."""
        try:
            return self._records[tenant]
        except KeyError:
            raise UnknownTenantError(tenant, self._records) from None

    def describe(self) -> dict:
        """Fleet snapshot for the ``list`` admin op and health probes."""
        with self._lock:
            return {
                "tenants": {
                    tenant: record.describe()
                    for tenant, record in sorted(self._records.items())
                },
                "cache_budget_bytes": self.cache_budget_bytes,
                "bound_bytes": self.bound_bytes,
                "publishes": self.publishes,
                "evictions": self.evictions,
                "lazy_rebuilds": self.lazy_rebuilds,
            }

    # -- binding (table-set cache) ---------------------------------------------

    @staticmethod
    def _warm(classifier) -> int:
        warm = getattr(classifier, "warm_tables", None)
        if warm is None:
            # Models without cacheable tables (e.g. a live OnlineLookHD)
            # are always "bound" at zero bytes.
            return 0
        return int(warm())

    @staticmethod
    def _release(classifier) -> None:
        release = getattr(classifier, "release_tables", None)
        if release is not None:
            release()

    def _evict_record_locked(self, tenant: str, reason: str) -> None:
        record = self._records.get(tenant)
        self._lru.pop(tenant, None)
        if record is None or not record.bound:
            return
        self._release(record.classifier)
        self.bound_bytes -= record.table_bytes
        record.bound = False
        record.table_bytes = 0
        self.evictions += 1
        telemetry.count("serving.registry.evictions", reason=reason, tenant=tenant)

    def _admit_bound_locked(self, record: ModelRecord, table_bytes: int) -> None:
        """Charge a freshly built table set to the budget, evicting LRU.

        The entering tenant itself is exempt from its own admission sweep:
        if its tables alone exceed the whole budget they are released
        again (it serves unbound — correct, just slower) rather than
        evicting the entire rest of the fleet for nothing.
        """
        budget = self.cache_budget_bytes
        if budget is not None and table_bytes > budget:
            self._release(record.classifier)
            record.bound = False
            record.table_bytes = 0
            telemetry.count(
                "serving.registry.bind_over_budget", tenant=record.tenant
            )
            return
        record.bound = True
        record.table_bytes = table_bytes
        self.bound_bytes += table_bytes
        self._lru[record.tenant] = None
        self._lru.move_to_end(record.tenant)
        if budget is not None:
            while self.bound_bytes > budget:
                victim = next(
                    (t for t in self._lru if t != record.tenant), None
                )
                if victim is None:  # pragma: no cover — exempt rule above
                    break
                self._evict_record_locked(victim, reason="budget")

    # -- fleet operations ------------------------------------------------------

    def publish(self, tenant: str, classifier, n_features: int | None = None) -> ModelRecord:
        """Install (or hot-swap) ``tenant``'s model; returns the new record.

        The table build runs *before* the flip, on the caller's thread —
        call from a worker thread to keep a live event loop serving — so
        no request can ever resolve a record whose tables are mid-build.
        After this returns, new :meth:`get` calls see the new version;
        batches already holding the old record finish on it undisturbed.
        """
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
        width = _infer_n_features(classifier, n_features)
        if getattr(classifier, "predict", None) is None:
            raise ValueError("published model must expose predict()")
        table_bytes = self._warm(classifier)
        with self._lock:
            previous = self._records.get(tenant)
            version = 1 if previous is None else previous.version + 1
            record = ModelRecord(tenant, version, classifier, width)
            if previous is not None:
                # The old version's tables leave the budget; the record
                # object itself stays alive for in-flight batches.
                self._evict_record_locked(tenant, reason="superseded")
            # The atomic flip: one assignment under the lock (and the GIL),
            # so a concurrent get() sees old-complete or new-complete.
            self._records[tenant] = record
            self._admit_bound_locked(record, table_bytes)
            self.publishes += 1
        telemetry.count("serving.registry.publishes", tenant=tenant)
        return record

    def get(self, tenant: str) -> ModelRecord:
        """Resolve ``tenant`` for serving: LRU touch + lazy rebind.

        This is the per-batch hot-path call.  A bound tenant costs a dict
        lookup and an LRU touch; an evicted tenant pays its table rebuild
        here (counted in ``serving.registry.lazy_rebuilds``), after which
        its outputs are bit-identical to pre-eviction — the tables are
        pure caches of authoritative state.
        """
        with self._lock:
            try:
                record = self._records[tenant]
            except KeyError:
                raise UnknownTenantError(tenant, self._records) from None
            if record.bound:
                self._lru[tenant] = None
                self._lru.move_to_end(tenant)
                return record
        # Rebuild outside the lock: the build only touches this record's
        # classifier, and a racing publish simply supersedes the binding.
        table_bytes = self._warm(record.classifier)
        with self._lock:
            if self._records.get(tenant) is record and not record.bound:
                self.lazy_rebuilds += 1
                telemetry.count("serving.registry.lazy_rebuilds", tenant=tenant)
                self._admit_bound_locked(record, table_bytes)
        return record

    def evict(self, tenant: str) -> bool:
        """Drop ``tenant``'s cached table set (admin op); keeps the model.

        Returns whether tables were actually released (``False`` when the
        tenant was already unbound).  Raises :class:`UnknownTenantError`
        for unregistered tenants.
        """
        with self._lock:
            if tenant not in self._records:
                raise UnknownTenantError(tenant, self._records)
            was_bound = self._records[tenant].bound
            self._evict_record_locked(tenant, reason="admin")
        return was_bound

    def remove(self, tenant: str) -> None:
        """Unregister ``tenant`` entirely (tables released first)."""
        with self._lock:
            if tenant not in self._records:
                raise UnknownTenantError(tenant, self._records)
            self._evict_record_locked(tenant, reason="removed")
            del self._records[tenant]
