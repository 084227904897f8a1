"""Model compression via random-key binding (Sec. IV-B/C, Eq. 4).

``k`` class hypervectors are folded into a single hypervector

    C = P'_1 ⊙ C_1 + P'_2 ⊙ C_2 + … + P'_k ⊙ C_k

with independent random bipolar keys ``P'_j``.  Scoring a query ``H``
against class ``j`` is then

    score_j = Σ_d P'_j[d] · H[d] · C[d]  =  H · (P'_j ⊙ C)

whose expansion (Eq. 5) is the true dot product ``H · C_j`` (signal,
because ``P'_j ⊙ P'_j = 1``) plus cross terms attenuated by the
near-orthogonality of the keys (noise).  Only the ``D`` multiplications of
``H ⊙ C`` are real multiplies; each class then needs only a signed sum —
the multiplication reduction that drives the paper's inference speedup.

Because class hypervectors are highly correlated in practice (cosines in
[0.9, 1], Fig. 8), the classes are first **decorrelated** by removing their
projection onto the class average.  For ``k`` above a noise budget
(~12 classes), classes are partitioned into groups, one compressed
hypervector per group ("exact mode", Sec. VI-G).
"""

from __future__ import annotations

import numpy as np

from repro.hdc.item_memory import RandomItemMemory
from repro.hdc.model import ClassModel
from repro.hdc.similarity import cosine_similarity, normalize_rows
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

#: Paper finding: compression is lossless up to about this many classes per
#: compressed hypervector (Sec. VI-G / Fig. 15a).
DEFAULT_GROUP_SIZE = 12


def decorrelate_classes(class_vectors: np.ndarray) -> np.ndarray:
    """Remove the common component from class hypervectors (Sec. IV-C).

    ``C'_i = C_i − C_ave · δ(C_i, C_ave)`` with ``C_ave`` the class mean.
    This widens the cosine distribution between classes (Fig. 8) so the
    small compression noise cannot flip the top-1 ranking.

    Returns a float array; the input is not modified.
    """
    vectors = np.asarray(class_vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"class_vectors must be 2-D, got shape {vectors.shape}")
    average = vectors.mean(axis=0)
    if not np.any(average):
        return vectors.copy()
    similarities = cosine_similarity(vectors, average)  # (k,)
    return vectors - np.outer(np.atleast_1d(similarities), average)


class CompressedModel:
    """One-or-few-hypervector compressed class model.

    Parameters
    ----------
    class_model:
        Trained (uncompressed) model to fold.
    group_size:
        Maximum classes per compressed hypervector; ``None`` folds all
        classes into a single hypervector regardless of ``k`` (the paper's
        headline mode).  ``DEFAULT_GROUP_SIZE`` gives "exact mode".
    decorrelate:
        Apply :func:`decorrelate_classes` before compression (paper default).
    normalize:
        Pre-normalise class hypervectors to unit magnitude before folding so
        the dot-product search ranks like cosine.
    seed:
        Seed for the key hypervectors ``P'``.
    """

    # Class-level defaults so artifacts restored via ``__new__`` (see
    # :mod:`repro.lookhd.persistence`) behave like freshly built models.
    _version = 0
    _search_cache: np.ndarray | None = None
    _search_cache_version = -1

    def __init__(
        self,
        class_model: ClassModel,
        group_size: int | None = None,
        decorrelate: bool = True,
        normalize: bool = True,
        seed: int | np.random.Generator | None = 0,
    ):
        self.n_classes = class_model.n_classes
        self.dim = class_model.dim
        self.decorrelate = decorrelate
        if group_size is None:
            self.group_size = self.n_classes
        else:
            self.group_size = min(check_positive_int(group_size, "group_size"), self.n_classes)
        self.n_groups = -(-self.n_classes // self.group_size)
        #: class j lives in group ``j // group_size`` at slot ``j % group_size``.
        self.keys = RandomItemMemory(
            self.n_classes, self.dim, rng=derive_rng(seed, "compression-keys")
        )
        self._seed = seed
        self._rebuild(class_model.class_vectors, normalize)

    def _rebuild(self, class_vectors: np.ndarray, normalize: bool) -> None:
        # Order matters: normalise FIRST (so dot-product search ranks like
        # cosine), then remove the common component.  Decorrelation leaves
        # every per-query score shifted by a near-constant offset — rankings
        # and margins are preserved exactly — while the class norms shrink
        # ~5–10x, which shrinks the Eq. 5 cross-talk noise by the same
        # factor.  Renormalising after decorrelation would divide each class
        # by a different residual norm and distort rankings.
        prepared = np.asarray(class_vectors, dtype=np.float64)
        if normalize:
            prepared = normalize_rows(prepared)
        # Direction of the removed common component; retraining updates are
        # projected off it so they stay consistent with the decorrelated
        # model (adding raw queries would reintroduce the common component
        # per-class and blow up the Eq. 5 cross-talk).
        average = prepared.mean(axis=0)
        norm = np.linalg.norm(average)
        self._common_direction = average / norm if norm > 0 else average
        if self.decorrelate:
            prepared = decorrelate_classes(prepared)
        self._normalize = normalize
        self.prepared_classes = prepared
        # Adaptive perceptron step: scaled to the mean prepared-class norm
        # (so updates are small relative to the folded components) and
        # down-weighted by sqrt(k) — more classes mean more per-pass updates
        # and thinner margins, so each update must be gentler to keep the
        # compressed model from thrashing (observed empirically on the
        # 26-class SPEECH workload).
        mean_norm = float(np.linalg.norm(prepared, axis=1).mean())
        self.learning_rate = (
            0.25 * mean_norm / np.sqrt(self.n_classes) if mean_norm > 0 else 1.0
        )
        self.compressed = np.zeros((self.n_groups, self.dim), dtype=np.float64)
        for class_index in range(self.n_classes):
            group = class_index // self.group_size
            self.compressed[group] += self.keys[class_index] * prepared[class_index]
        self.mark_dirty()

    # -- change tracking -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation of the compressed state.

        Consumers that cache derived tables (the search matrix below, the
        score tables of :mod:`repro.lookhd.inference`) compare against it to
        detect staleness.
        """
        return self._version

    def mark_dirty(self) -> None:
        """Invalidate caches derived from ``compressed`` / ``prepared_classes``.

        Called automatically by every mutator here; call it manually after
        assigning those arrays directly (as retraining's best-state restore
        does).
        """
        self._version = self._version + 1

    # -- inference -------------------------------------------------------------

    @property
    def search_matrix(self) -> np.ndarray:
        """``(k, D)`` matrix ``W_j = P'_j ⊙ C_{group(j)}`` (cached).

        Since the keys are ±1, ``H · W_j`` equals the Eq. 4/5 score
        ``(H ⊙ C_{group(j)}) · P'_j`` exactly (sign flips are lossless in
        IEEE), so the whole search collapses to one matmul.
        """
        if self._search_cache is None or self._search_cache_version != self._version:
            groups = np.arange(self.n_classes) // self.group_size
            self._search_cache = self.keys.vectors.astype(np.float64) * self.compressed[groups]
            self._search_cache_version = self._version
        return self._search_cache

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """Per-class scores for ``(D,)`` or ``(N, D)`` queries.

        Implements the Eq. 4/5 search as ``Q @ W.T`` with the cached
        :attr:`search_matrix` — one fused matmul instead of a Python loop
        over groups.
        """
        queries = np.asarray(queries, dtype=np.float64)
        single = queries.ndim == 1
        if single:
            queries = queries[np.newaxis, :]
        if queries.shape[1] != self.dim:
            raise ValueError(f"queries must have dimension {self.dim}")
        out = queries @ self.search_matrix.T
        return out[0] if single else out

    def scores_reference(self, queries: np.ndarray) -> np.ndarray:
        """Group-loop formulation of :meth:`scores` (Eq. 4/5 literally).

        One elementwise product per group, then per-class sign-flipped sums
        via the keys — the multiplication count the paper reports.  Kept as
        the benchmark baseline and equivalence oracle.
        """
        queries = np.asarray(queries, dtype=np.float64)
        single = queries.ndim == 1
        if single:
            queries = queries[np.newaxis, :]
        if queries.shape[1] != self.dim:
            raise ValueError(f"queries must have dimension {self.dim}")
        out = np.empty((queries.shape[0], self.n_classes), dtype=np.float64)
        for group in range(self.n_groups):
            start = group * self.group_size
            stop = min(start + self.group_size, self.n_classes)
            # (N, D): the only true multiplications in the search.
            product = queries * self.compressed[group][np.newaxis, :]
            # (N, classes-in-group): multiplication-free signed sums.
            out[:, start:stop] = product @ self.keys[np.arange(start, stop)].astype(np.float64).T
        return out[0] if single else out

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Argmax class per query.

        Single-query contract (shared by every model in the library, and
        relied on by :mod:`repro.serving`): a 1-D ``(D,)`` query returns a
        NumPy ``int64`` scalar; a 2-D ``(N, D)`` batch returns an ``(N,)``
        ``int64`` array.
        """
        scores = self.scores(queries)
        if scores.ndim == 1:
            return np.int64(np.argmax(scores))
        return np.argmax(scores, axis=1).astype(np.int64, copy=False)

    # -- retraining support ----------------------------------------------------

    def retrain_update(
        self, correct: int, wrong: int, query: np.ndarray, learning_rate: float | None = None
    ) -> None:
        """Apply the compressed-model perceptron update (Sec. IV-D).

        ``C̃ = C + P'_correct ⊙ H − P'_wrong ⊙ H`` applied to the group(s)
        owning each class.  When ``correct`` and ``wrong`` share a group
        this collapses to adding ``ΔP' ⊙ H`` with ``ΔP' ∈ {−2, 0, +2}``,
        the shift/negate trick of Sec. V-C.

        The query is normalised and, when the model is decorrelated, its
        common component is removed so the update lives in the same residual
        space as the folded classes; ``learning_rate`` (default: the model's
        adaptive rate) scales it to stay below inter-class margins.
        """
        for index in (correct, wrong):
            if not 0 <= index < self.n_classes:
                raise ValueError(f"class index {index} out of range")
        rate = self.learning_rate if learning_rate is None else float(learning_rate)
        query = np.asarray(query, dtype=np.float64)
        if self._normalize:
            norm = np.linalg.norm(query)
            if norm > 0:
                query = query / norm
        if self.decorrelate:
            query = query - self._common_direction * (query @ self._common_direction)
        update = rate * query
        self.prepared_classes[correct] += update
        self.prepared_classes[wrong] -= update
        self.compressed[correct // self.group_size] += self.keys[correct] * update
        self.compressed[wrong // self.group_size] -= self.keys[wrong] * update
        self.mark_dirty()

    # -- reporting ---------------------------------------------------------------

    def model_size_bytes(self, bytes_per_element: int = 4) -> int:
        """Deployed footprint: ``n_groups`` hypervectors (vs ``k`` baseline)."""
        check_positive_int(bytes_per_element, "bytes_per_element")
        return self.n_groups * self.dim * bytes_per_element

    def compression_ratio(self) -> float:
        """Baseline model size over compressed model size (= k / groups)."""
        return self.n_classes / self.n_groups

    def multiplications_per_query(self) -> int:
        """True multiplies per query: one ``H ⊙ C`` per group."""
        return self.n_groups * self.dim
