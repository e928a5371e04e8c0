"""Item sets, concept bookkeeping and similarity kernels.

A collection consists of a ground set V of items, optional auxiliary sets
(queries, private/irrelevant items, previous summaries) living in a shadow
universe V', and optional concept annotations used by the coverage-style
objectives and the evaluation metrics.  Items carry dense feature vectors
and/or sparse concept counts; kernels are built from features (falling back
to concept-count vectors when features are absent).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, NumericError

AUX_ROLES = ("query", "private", "previous_summary")


@dataclass
class ItemRecord:
    """One item: identifier plus features and/or concept annotations.

    concepts maps concept name -> nonnegative integer count (ROUGE-style),
    coverage maps concept name -> probability in [0, 1] (probabilistic
    set cover).  Either features or concepts must be present.
    """

    id: str
    features: np.ndarray | None = None
    concepts: dict[str, int] = field(default_factory=dict)
    coverage: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.concepts = dict(self.concepts) if self.concepts else {}
        self.coverage = dict(self.coverage) if self.coverage else {}
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)
            if self.features.ndim != 1:
                raise FormatError(f"item {self.id!r}: features must be a flat vector")
        if self.features is None and not self.concepts and not self.coverage:
            raise FormatError(f"item {self.id!r}: needs features or concepts")
        for name, cnt in self.concepts.items():
            whole = isinstance(cnt, (int, float, np.integer, np.floating)) and float(cnt).is_integer()
            if not whole or cnt < 0:
                raise FormatError(f"item {self.id!r}: concept {name!r} count must be a nonnegative integer")
        self.concepts = {name: int(cnt) for name, cnt in self.concepts.items()}
        for name, p in self.coverage.items():
            if not (0.0 <= float(p) <= 1.0):
                raise FormatError(f"item {self.id!r}: coverage {name!r} must lie in [0, 1]")


class GroundSet:
    """Ordered, id-unique set of items with a shared feature dimension."""

    def __init__(self, items: list[ItemRecord]):
        ids = [it.id for it in items]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FormatError(f"duplicate item ids: {dupes}")
        dims = {it.features.shape[0] for it in items if it.features is not None}
        if len(dims) > 1:
            raise FormatError(f"inconsistent feature dimensions: {sorted(dims)}")
        self.items = list(items)
        self.ids = tuple(ids)
        self.dim = dims.pop() if dims else None
        self._index = {i: k for k, i in enumerate(self.ids)}

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise LookupError(f"unknown item id {item_id!r}") from None

    def feature_matrix(self, universe: "ConceptUniverse | None" = None) -> np.ndarray:
        """Dense (n, d) feature matrix.

        Uses explicit features when every item has them; otherwise falls back
        to concept-count vectors over the given (or derived) universe.
        """
        if self.dim is not None and all(it.features is not None for it in self.items):
            return np.stack([it.features for it in self.items]) if self.items else np.zeros((0, self.dim))
        uni = universe or ConceptUniverse.from_items(self)
        return count_matrix(self, uni).astype(float)


class AuxiliarySet(GroundSet):
    """Items living in the shadow universe V' (queries, privates, previous summaries)."""

    def __init__(self, items: list[ItemRecord], role_tag: str):
        if role_tag not in AUX_ROLES:
            raise FormatError(f"role_tag must be one of {AUX_ROLES}, got {role_tag!r}")
        super().__init__(items)
        self.role_tag = role_tag


class ConceptUniverse:
    """Fixed concept vocabulary with per-concept nonnegative weights."""

    def __init__(self, concepts: list[str] | tuple[str, ...], weights=None):
        names = tuple(concepts)
        if len(set(names)) != len(names):
            raise FormatError("duplicate concept names in universe")
        self.concepts = names
        if weights is None:
            self.weights = np.ones(len(names))
        else:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (len(names),):
                raise FormatError("weights length must match concept count")
            if np.any(self.weights < 0):
                raise FormatError("concept weights must be nonnegative")
        self.index = {c: k for k, c in enumerate(names)}

    def __len__(self):
        return len(self.concepts)

    @classmethod
    def from_items(cls, *sets: GroundSet, weights=None) -> "ConceptUniverse":
        names: set[str] = set()
        for s in sets:
            for it in s:
                names.update(it.concepts)
                names.update(it.coverage)
        return cls(sorted(names), weights)


def count_matrix(items: GroundSet, universe: ConceptUniverse) -> np.ndarray:
    """(n, L) integer concept-count matrix; unknown concepts raise LookupError."""
    out = np.zeros((len(items), len(universe)), dtype=int)
    for r, it in enumerate(items):
        for name, cnt in it.concepts.items():
            if name not in universe.index:
                raise LookupError(f"item {it.id!r}: concept {name!r} not in universe")
            out[r, universe.index[name]] = int(cnt)
    return out


def coverage_matrix(items: GroundSet, universe: ConceptUniverse) -> np.ndarray:
    """(n, L) coverage-probability matrix.

    Items without explicit coverage fall back to binarized counts
    (probability 1 wherever the count is positive).
    """
    out = np.zeros((len(items), len(universe)), dtype=float)
    for r, it in enumerate(items):
        if it.coverage:
            for name, p in it.coverage.items():
                if name not in universe.index:
                    raise LookupError(f"item {it.id!r}: concept {name!r} not in universe")
                out[r, universe.index[name]] = float(p)
        else:
            for name, cnt in it.concepts.items():
                if name not in universe.index:
                    raise LookupError(f"item {it.id!r}: concept {name!r} not in universe")
                out[r, universe.index[name]] = 1.0 if cnt > 0 else 0.0
    return out


def embed_query(concepts, universe: ConceptUniverse) -> np.ndarray:
    """k-hot embedding of a concept list; duplicates collapse, unknown names raise."""
    vec = np.zeros(len(universe))
    for name in concepts:
        if name not in universe.index:
            raise LookupError(f"unknown concept {name!r}")
        vec[universe.index[name]] = 1.0
    return vec


@dataclass
class SimilarityKernel:
    """Symmetric similarity matrix over the joint universe (ground set first).

    ground_count marks the split between V rows/cols and V' rows/cols.
    psd_jitter is the diagonal boost applied before any factorization.
    """

    matrix: np.ndarray
    ids: tuple[str, ...]
    metric_tag: str
    psd_jitter: float = 1e-6
    ground_count: int | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n) or len(self.ids) != n:
            raise FormatError("kernel matrix must be square and match the id list")
        if self.ground_count is None:
            self.ground_count = n
        asym = np.max(np.abs(self.matrix - self.matrix.T)) if n else 0.0
        if asym > 1e-12:
            raise FormatError(f"kernel asymmetry {asym:.3g} exceeds 1e-12")
        if self.metric_tag == "cosine" and n:
            lo, hi = self.matrix.min(), self.matrix.max()
            if lo < -1 - 1e-9 or hi > 1 + 1e-9:
                raise FormatError(f"cosine similarities out of [-1, 1]: [{lo:.3g}, {hi:.3g}]")
        self.index = {i: k for k, i in enumerate(self.ids)}

    def check_positive_definite(self):
        """Cholesky of matrix + jitter*I must succeed for cosine/rbf kernels."""
        if self.metric_tag not in ("cosine", "rbf") or not len(self.ids):
            return
        try:
            np.linalg.cholesky(self.matrix + self.psd_jitter * np.eye(len(self.ids)))
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"kernel + {self.psd_jitter:g}*I is not positive definite; "
                "increase the jitter or check the features"
            ) from exc


def _pairwise(metric: str, feats: np.ndarray, sigma: float) -> np.ndarray:
    if metric == "dot":
        return feats @ feats.T
    if metric == "rbf":
        sq = np.sum(feats**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * feats @ feats.T, 0.0)
        return np.exp(-d2 / (2 * sigma**2))
    if metric == "cosine":
        norms = np.linalg.norm(feats, axis=1)
        zero = norms == 0
        safe = np.where(zero, 1.0, norms)
        unit = feats / safe[:, None]
        sim = np.clip(unit @ unit.T, -1.0, 1.0)
        # Zero vectors: similarity 0 everywhere except self-similarity 1.
        sim[zero, :] = 0.0
        sim[:, zero] = 0.0
        np.fill_diagonal(sim, 1.0)
        return sim
    raise ConfigError(f"unknown similarity metric {metric!r}")


def build_kernel(
    ground: GroundSet,
    aux: AuxiliarySet | list[AuxiliarySet] | None = None,
    metric: str = "cosine",
    jitter: float = 1e-6,
    sigma: float = 1.0,
    universe: ConceptUniverse | None = None,
) -> SimilarityKernel:
    """Build the similarity kernel over ground items followed by auxiliary items."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    if not np.isfinite(jitter):
        raise ConfigError(f"jitter must be finite, got {jitter}")
    aux_sets = [] if aux is None else ([aux] if isinstance(aux, GroundSet) else list(aux))
    ids = list(ground.ids)
    for s in aux_sets:
        ids.extend(s.ids)
    if len(set(ids)) != len(ids):
        raise FormatError("auxiliary item ids must be disjoint from the ground set")
    all_sets = [ground, *aux_sets]
    use_features = all(it.features is not None for s in all_sets for it in s)
    if use_features:
        dims = {s.dim for s in all_sets if s.dim is not None}
        if len(dims) > 1:
            raise FormatError(f"feature dimension mismatch across sets: {sorted(dims)}")
        feats = np.concatenate([s.feature_matrix() for s in all_sets], axis=0) if ids else np.zeros((0, 0))
    else:
        uni = universe or ConceptUniverse.from_items(*all_sets)
        feats = np.concatenate([count_matrix(s, uni).astype(float) for s in all_sets], axis=0)
    if not np.all(np.isfinite(feats)):
        raise FormatError("feature values must be finite")
    mat = _pairwise(metric, feats, sigma) if len(ids) else np.zeros((0, 0))
    mat = (mat + mat.T) / 2.0
    kern = SimilarityKernel(mat, tuple(ids), metric, jitter, ground_count=len(ground))
    kern.check_positive_definite()
    return kern


def cross_only(matrix: np.ndarray, n_ground: int) -> np.ndarray:
    """Copy of a square matrix with both diagonal blocks replaced by identity,
    keeping only V<->V' entries.  Idempotent."""
    out = matrix.copy()
    out[:n_ground, :n_ground] = 0.0
    out[n_ground:, n_ground:] = 0.0
    np.fill_diagonal(out, 1.0)
    return out


def cross_only_kernel(kernel: SimilarityKernel) -> SimilarityKernel:
    """The kernel with only its V<->V' similarities kept (see cross_only)."""
    n = kernel.ground_count
    return SimilarityKernel(cross_only(kernel.matrix, n), kernel.ids, kernel.metric_tag,
                            kernel.psd_jitter, ground_count=n)


def read_json(path):
    """Parsed JSON document; an unreadable or malformed file raises FormatError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None


def write_json(path, payload) -> None:
    """Write payload as strict JSON: a NaN or infinity raises NumericError
    and leaves no file behind, since no JSON reader has to accept them."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"refusing to write a non-finite number to {path}") from exc
    Path(path).write_text(text + "\n")


def _record_from_json(obj: dict) -> ItemRecord:
    if not isinstance(obj, dict) or "id" not in obj:
        raise FormatError(f"item record must be an object with an 'id': {obj!r}")
    try:
        return ItemRecord(
            id=str(obj["id"]),
            features=None if obj.get("features") is None else np.asarray(obj["features"], dtype=float),
            concepts={str(k): v for k, v in (obj.get("concepts") or {}).items()},
            coverage={str(k): float(v) for k, v in (obj.get("coverage") or {}).items()},
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"item {obj['id']!r}: {exc}") from None


def load_items(path, fmt: str | None = None) -> GroundSet:
    """Load a ground set from JSON ({'items': [...]} or a bare list) or CSV.

    CSV layout: header id,f0,...,f{L-1}; one row per item, features only.
    """
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix.lower() == ".csv" else "json")
    if fmt == "json":
        doc = read_json(path)
        records = doc["items"] if isinstance(doc, dict) else doc
        return GroundSet([_record_from_json(r) for r in records])
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or not rows[0] or rows[0][0] != "id":
            raise FormatError("csv must start with header id,f0,...")
        width = len(rows[0]) - 1
        expected = ["id"] + [f"f{k}" for k in range(width)]
        if rows[0] != expected:
            raise FormatError(f"csv header must be {','.join(expected)}")
        items = []
        for row in rows[1:]:
            if len(row) != width + 1:
                raise FormatError(f"csv row for {row[0] if row else '?'!r} has wrong width")
            items.append(ItemRecord(id=row[0], features=np.array([float(v) for v in row[1:]])))
        return GroundSet(items)
    raise ConfigError(f"unknown format {fmt!r}")


@dataclass
class Collection:
    """One summarization problem: ground items plus optional auxiliary material."""

    ground: GroundSet
    queries: AuxiliarySet
    privates: AuxiliarySet
    references: list[tuple[str, ...]]
    universe: ConceptUniverse | None = None

    @property
    def aux_sets(self) -> list[AuxiliarySet]:
        out = []
        if len(self.queries):
            out.append(self.queries)
        if len(self.privates):
            out.append(self.privates)
        return out


def load_collection(path) -> Collection:
    """Load the single-document JSON collection schema.

    Top-level keys: items (required), queries, privates, references,
    concept_universe {concepts: [...], weights: [...]}.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or "items" not in doc:
        raise FormatError("collection must be a JSON object with an 'items' array")
    ground = GroundSet([_record_from_json(r) for r in doc["items"]])
    queries = AuxiliarySet([_record_from_json(r) for r in doc.get("queries", [])], "query")
    privates = AuxiliarySet([_record_from_json(r) for r in doc.get("privates", [])], "private")
    refs = [tuple(str(i) for i in ref) for ref in doc.get("references", [])]
    known = set(ground.ids)
    for ref in refs:
        missing = [i for i in ref if i not in known]
        if missing:
            raise FormatError(f"reference ids not in ground set: {missing}")
    universe = None
    if "concept_universe" in doc:
        cu = doc["concept_universe"]
        if not isinstance(cu, dict) or not isinstance(cu.get("concepts"), list):
            raise FormatError("concept_universe must be an object with a 'concepts' list")
        universe = ConceptUniverse([str(c) for c in cu["concepts"]], cu.get("weights"))
        for it in (*ground, *queries, *privates):
            unknown = sorted((set(it.concepts) | set(it.coverage)) - set(universe.index))
            if unknown:
                raise FormatError(f"item {it.id!r}: concepts {unknown} not in concept_universe")
    return Collection(ground, queries, privates, refs, universe)


def collection_to_json(coll: Collection) -> dict:
    def rec(it: ItemRecord) -> dict:
        out: dict = {"id": it.id}
        if it.features is not None:
            out["features"] = [float(v) for v in it.features]
        if it.concepts:
            out["concepts"] = {k: int(v) for k, v in sorted(it.concepts.items())}
        if it.coverage:
            out["coverage"] = {k: float(v) for k, v in sorted(it.coverage.items())}
        return out

    doc: dict = {"items": [rec(it) for it in coll.ground]}
    if len(coll.queries):
        doc["queries"] = [rec(it) for it in coll.queries]
    if len(coll.privates):
        doc["privates"] = [rec(it) for it in coll.privates]
    if coll.references:
        doc["references"] = [list(r) for r in coll.references]
    if coll.universe is not None:
        doc["concept_universe"] = {
            "concepts": list(coll.universe.concepts),
            "weights": [float(w) for w in coll.universe.weights],
        }
    return doc
