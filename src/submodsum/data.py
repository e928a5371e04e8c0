"""Item sets, concept bookkeeping and similarity kernels.

A collection consists of a ground set V of items, optional auxiliary sets
(queries, private/irrelevant items, previous summaries) living in a shadow
universe V', and optional concept annotations used by the coverage-style
objectives and the evaluation metrics.  Items carry dense feature vectors
and/or sparse concept counts; kernels are built from features (falling back
to concept-count vectors when features are absent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, NumericError

AUX_ROLES = ("query", "private", "previous_summary")

_U = np.finfo(float).eps / 2  # unit roundoff of float64
_TILE = 256  # side of the square blocks the kernel is symmetrized in
_SAFETY = 100.0  # margin of the positive-definiteness certificate over Demmel's condition


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of an m-term sum of products."""
    return m * _U / (1 - m * _U)


def _tile_pairs(n: int):
    """(rows, cols) slice pairs covering the upper block triangle of an n x n matrix."""
    spans = [slice(a, min(a + _TILE, n)) for a in range(0, n, _TILE)]
    return [(r, c) for k, r in enumerate(spans) for c in spans[k:]]


def _symmetrize(mat: np.ndarray) -> None:
    """Overwrite mat with (mat + mat.T) / 2, bit for bit, one block pair at a time."""
    for r, c in _tile_pairs(mat.shape[0]):
        avg = (mat[r, c] + mat[c, r].T) / 2.0
        mat[r, c] = avg
        mat[c, r] = avg.T


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

    def feature_matrix(self) -> np.ndarray:
        """Dense (n, d) matrix of the items' features; every item must have them."""
        return np.stack([it.features for it in self.items]) if self.items else np.zeros((0, 0))


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
        try:
            self.weights = np.ones(len(names)) if weights is None else np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            raise FormatError("concept weights must be a list of numbers") from None
        if self.weights.shape != (len(names),):
            raise FormatError("weights length must match concept count")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise FormatError("concept weights must be finite and nonnegative")
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


@dataclass
class SimilarityKernel:
    """Similarity matrix over the joint universe (ground set first), as
    build_kernel returns it: exactly symmetric, and for cosine clipped to
    [-1, 1].  psd_jitter is the diagonal boost applied before any
    factorization.
    """

    matrix: np.ndarray
    ids: tuple[str, ...]
    metric_tag: str
    psd_jitter: float = 1e-6

    def check_positive_definite(self, entry_error: float | None = None):
        """Cholesky of matrix + jitter*I must succeed for cosine/rbf kernels.

        entry_error, when given, bounds |matrix - G| entrywise for some
        positive semidefinite G.  By Weyl's inequality the matrix to factor
        then has lambda_min >= jitter - n*entry_error - u*(1 + jitter).  When
        that clears Demmel's sufficient condition for Cholesky to complete
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10),
        n*gamma_{n+1} times the diagonal 1 + jitter, by a factor of 100, the
        factorization would succeed and is skipped.
        """
        n = len(self.ids)
        if self.metric_tag not in ("cosine", "rbf") or not n:
            return
        jitter = self.psd_jitter
        if entry_error is not None and jitter > 0:
            floor = jitter - n * entry_error - _U * (1 + jitter)
            if floor > _SAFETY * n * _gamma(n + 1) * (1 + jitter):
                return
        shifted = self.matrix.copy()
        shifted.flat[:: n + 1] += jitter  # matrix + jitter*I without an n x n identity
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"kernel + {self.psd_jitter:g}*I is not positive definite; "
                "increase the jitter or check the features"
            ) from exc


def _pairwise(metric: str, feats: np.ndarray, sigma: float) -> tuple[np.ndarray, float | None]:
    """Similarity matrix (not yet symmetrized) and, for cosine, a bound on
    how far each of its entries lies from a positive semidefinite matrix
    once symmetrized (None for the other metrics)."""
    if metric == "dot":
        return feats @ feats.T, None
    if metric == "rbf":
        sq = np.sum(feats**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * feats @ feats.T, 0.0)
        return np.exp(-d2 / (2 * sigma**2)), None
    if metric == "cosine":
        norms = np.linalg.norm(feats, axis=1)
        zero = norms == 0
        safe = np.where(zero, 1.0, norms)
        unit = feats / safe[:, None]
        sim = unit @ unit.T
        # Bound every entry's distance from G, the Gram matrix of the unit
        # rows with zero rows zeroed, which is positive semidefinite.  An
        # inner product is within gamma_d |u_i||u_j| (Higham, section 3.1)
        # and |u_i|^2 is within delta of 1, where delta is measured on this
        # product's own diagonal, not assumed O(d u): rounded norms of
        # features near 1e-160 leave it ~1e-3.  Clipping and the unit
        # diagonal stay within delta of G; halving the symmetrized sum adds
        # u.  A zero row's unit diagonal only adds a semidefinite term.
        d = feats.shape[1]
        off = np.abs(sim.diagonal()[~zero] - 1.0).max(initial=0.0)
        delta = (off + _gamma(d)) / (1 - _gamma(d))
        entry_error = _gamma(d) * (1 + delta) + delta + 2 * _U
        np.clip(sim, -1.0, 1.0, out=sim)
        # Zero vectors: similarity 0 everywhere except self-similarity 1.
        sim[zero, :] = 0.0
        sim[:, zero] = 0.0
        np.fill_diagonal(sim, 1.0)
        return sim, entry_error
    raise ConfigError(f"unknown similarity metric {metric!r}")


def aux_list(aux) -> list[AuxiliarySet]:
    """One auxiliary set, a list of them or None, as a list without the
    empty sets: an empty set adds no items and so no role."""
    sets = [] if aux is None else ([aux] if isinstance(aux, GroundSet) else list(aux))
    return [s for s in sets if len(s)]


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
    aux_sets = aux_list(aux)
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
    mat, entry_error = _pairwise(metric, feats, sigma) if len(ids) else (np.zeros((0, 0)), None)
    _symmetrize(mat)
    kern = SimilarityKernel(mat, tuple(ids), metric, jitter)
    kern.check_positive_definite(entry_error=entry_error)
    return kern


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


def _item_list(value, where: str) -> list[ItemRecord]:
    """Item records parsed from a JSON list; any other value raises FormatError."""
    if not isinstance(value, list):
        raise FormatError(f"{where} must be a list of item records, not {type(value).__name__}")
    return [_record_from_json(r) for r in value]


def id_list(value, where: str) -> tuple[str, ...]:
    """Ids parsed from a JSON list of strings or numbers; any other value
    raises FormatError."""
    if not isinstance(value, list) or not all(isinstance(i, (str, int, float)) for i in value):
        raise FormatError(f"{where} must be a list of ids")
    return tuple(str(i) for i in value)


def id_lists(value, where: str) -> list[tuple[str, ...]]:
    """Id tuples parsed from a JSON list of id lists; any other value raises FormatError."""
    if not isinstance(value, list) or not all(isinstance(ref, list) for ref in value):
        raise FormatError(f"{where} must be a list of id lists")
    return [id_list(ref, f"{where}[{k}]") for k, ref in enumerate(value)]


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
        return aux_list([self.queries, self.privates])


def load_collection(path) -> Collection:
    """Load the single-document JSON collection schema.

    Top-level keys: items (required), queries, privates, references,
    concept_universe {concepts: [...], weights: [...]}.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or "items" not in doc:
        raise FormatError("collection must be a JSON object with an 'items' array")
    ground = GroundSet(_item_list(doc["items"], "'items'"))
    queries = AuxiliarySet(_item_list(doc.get("queries", []), "'queries'"), "query")
    privates = AuxiliarySet(_item_list(doc.get("privates", []), "'privates'"), "private")
    refs = id_lists(doc.get("references", []), "'references'")
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
        names = set(universe.index)
        for it in (*ground, *queries, *privates):
            unknown = sorted((set(it.concepts) | set(it.coverage)) - names)
            if unknown:
                raise FormatError(f"item {it.id!r}: concepts {unknown} not in concept_universe")
    return Collection(ground, queries, privates, refs, universe)
