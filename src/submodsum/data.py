"""Item sets, concept bookkeeping and similarity kernels.

A collection consists of a ground set V of items, optional auxiliary sets
(queries, private/irrelevant items, previous summaries) living in a shadow
universe V', and optional concept annotations used by the coverage-style
objectives and the evaluation metrics.  Items carry dense feature vectors
and/or sparse concept counts; kernels are built from features (falling back
to concept-count vectors when features are absent).

Item sets are held as columns: ids, a feature matrix and concept triplets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, NumericError

AUX_ROLES = ("query", "private", "previous_summary")

_U = np.finfo(float).eps / 2  # unit roundoff of float64
_SAFETY = 100.0  # margin of the positive-definiteness certificate over Demmel's condition


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of an m-term sum of products."""
    return m * _U / (1 - m * _U)


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
        self.coverage = {name: float(p) for name, p in dict(self.coverage or {}).items()}
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
            if not (0.0 <= p <= 1.0):
                raise FormatError(f"item {self.id!r}: coverage {name!r} must lie in [0, 1]")


class Triplets(NamedTuple):
    """Per-item concept values as columns: item rows[k] holds values[k] of concept names[k]."""

    rows: np.ndarray
    names: list[str]
    values: np.ndarray

    @classmethod
    def of(cls, dicts: list[dict]) -> "Triplets":
        """Per-item {name: value} dicts; a value that is no number or boolean raises ValueError."""
        values = np.array([v for d in dicts for v in d.values()])
        if values.dtype.kind not in "biuf":
            raise ValueError("concept values must be numbers")
        rows = np.repeat(np.arange(len(dicts)), [len(d) for d in dicts])
        return cls(rows, [k for d in dicts for k in d], values.astype(float))


class GroundSet:
    """Ordered, id-unique items held as columns: features, the (m, d) matrix (None when some
    item has none), and counts and cover, Triplets of the concept counts and the coverage
    probabilities (an item without coverage covers, surely, each concept it counts above 0)."""

    def __init__(self, items: list[ItemRecord]):
        ids = [it.id for it in items]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FormatError(f"duplicate item ids: {dupes}")
        dims = {it.features.shape[0] for it in items if it.features is not None}
        if len(dims) > 1:
            raise FormatError(f"inconsistent feature dimensions: {sorted(dims)}")
        self._fill(ids, [it.features for it in items], [it.concepts for it in items],
                   [it.coverage for it in items])

    def _fill(self, ids: list[str], feats: list, concepts: list[dict], coverage: list[dict]) -> None:
        """Columns of items given as lists, checked in vectorized form: features are flat lists
        of numbers of one length or None, counts nonnegative integers, coverage in [0, 1], every
        item has some payload and no id repeats; a failure raises a builtin exception."""
        present = [f for f in feats if f is not None]
        mat = np.array(present, dtype=float) if present else np.zeros((0, 0))
        counts, given = Triplets.of(concepts), Triplets.of(coverage)
        payload = np.array([f is not None for f in feats], dtype=bool)
        payload[counts.rows] = payload[given.rows] = True
        c, p = counts.values, given.values
        if (mat.ndim != 2 or not payload.all() or len(set(ids)) != len(ids)
                or not np.all(np.isfinite(c) & (c >= 0) & (c == np.floor(c))) or not np.all((p >= 0) & (p <= 1))):
            raise ValueError("item values fail the format checks")
        self.ids = tuple(ids)
        self.features = mat if len(present) == len(feats) else None
        self.counts = counts
        fallback = ~np.isin(counts.rows, given.rows)
        self.cover = Triplets(np.concatenate([given.rows, counts.rows[fallback]]),
                              given.names + list(compress(counts.names, fallback.tolist())),
                              np.concatenate([p, (c[fallback] > 0).astype(float)]))
        self._index = {i: k for k, i in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise LookupError(f"unknown item id {item_id!r}") from None


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
        names = set().union(*(s.counts.names for s in sets), *(s.cover.names for s in sets))
        return cls(sorted(names), weights)


def _scatter(sets, universe: ConceptUniverse, column: str) -> np.ndarray:
    """(n, L) matrix of one Triplets column of an item set, or of several
    stacked in order; a concept outside the universe raises KeyError."""
    sets = [sets] if isinstance(sets, GroundSet) else sets
    out = np.zeros((sum(len(s) for s in sets), len(universe)))
    offset = 0
    for s in sets:
        rows, names, values = getattr(s, column)
        out[rows + offset, list(map(universe.index.__getitem__, names))] = values
        offset += len(s)
    return out


def count_matrix(items: GroundSet | list[GroundSet], universe: ConceptUniverse) -> np.ndarray:
    """(n, L) concept-count matrix, as floats; unknown concepts raise KeyError."""
    return _scatter(items, universe, "counts")


def coverage_matrix(items: GroundSet | list[GroundSet], universe: ConceptUniverse) -> np.ndarray:
    """(n, L) coverage-probability matrix.

    Items without explicit coverage fall back to binarized counts
    (probability 1 wherever the count is positive).
    """
    return _scatter(items, universe, "cover")


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
    """Similarity matrix, exactly symmetric as built, and for cosine a bound
    on how far each of its entries lies from a positive semidefinite matrix
    (None for the other metrics).  Each metric maps the Gram matrix X @ X.T
    entry by entry, alike for (i, j) and (j, i), and numpy forms X @ X.T as
    one triangle mirrored into the other (BLAS syrk; without BLAS, as the
    same products summed in the same order)."""
    if metric == "dot":
        return feats @ feats.T, None
    if metric == "rbf":
        sq = np.sum(feats**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * (feats @ feats.T), 0.0)
        return np.exp(-d2 / (2 * sigma**2)), None
    if metric == "cosine":
        norms = np.linalg.norm(feats, axis=1)
        zero = norms == 0
        unit = feats / np.where(zero, 1.0, norms)[:, None]
        sim = unit @ unit.T
        # Bound every entry's distance from G, the Gram matrix of the unit
        # rows with zero rows zeroed, which is positive semidefinite.  An
        # inner product is within gamma_d |u_i||u_j| (Higham, section 3.1)
        # and |u_i|^2 is within delta of 1, where delta is measured on this
        # product's own diagonal, not assumed O(d u): rounded norms of
        # features near 1e-160 leave it ~1e-3.  Clipping and the unit
        # diagonal stay within delta of G, and the last 2u are slack.  A
        # zero row's unit diagonal only adds a semidefinite term.
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
    all_sets = [ground, *aux_list(aux)]
    ids = [i for s in all_sets for i in s.ids]
    if len(set(ids)) != len(ids):
        raise FormatError("auxiliary item ids must be disjoint from the ground set")
    if all(s.features is not None for s in all_sets):
        dims = {s.features.shape[1] for s in all_sets if len(s)}
        if len(dims) > 1:
            raise FormatError(f"feature dimension mismatch across sets: {sorted(dims)}")
        # an empty ground set adds no rows, whatever its (0, 0) matrix
        feats = np.concatenate([s.features for s in all_sets if len(s)]) if ids else np.zeros((0, 0))
    else:
        feats = count_matrix(all_sets, universe or ConceptUniverse.from_items(*all_sets))
    if not np.all(np.isfinite(feats)):
        raise FormatError("feature values must be finite")
    mat, entry_error = _pairwise(metric, feats, sigma) if len(ids) else (np.zeros((0, 0)), None)
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
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"item {obj['id']!r}: {exc}") from None


def _read_role(value, where: str, make) -> GroundSet:
    """The item set (make builds it from records) of a JSON list of item records, read into
    columns.  A list that fails a vectorized check is read again record by record, so that
    the error names its first offending item in ItemRecord's words."""
    if not isinstance(value, list):
        raise FormatError(f"{where} must be a list of item records, not {type(value).__name__}")
    out = make([])
    try:
        out._fill([str(r["id"]) for r in value], [r.get("features") for r in value],
                  [r.get("concepts") or {} for r in value], [r.get("coverage") or {} for r in value])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        return make([_record_from_json(r) for r in value])
    return out


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
    ground = _read_role(doc["items"], "'items'", GroundSet)
    queries = _read_role(doc.get("queries", []), "'queries'", partial(AuxiliarySet, role_tag="query"))
    privates = _read_role(doc.get("privates", []), "'privates'", partial(AuxiliarySet, role_tag="private"))
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
        for s in (ground, queries, privates):
            rows = np.concatenate([s.counts.rows, s.cover.rows]).tolist()
            unknown = [(r, n) for r, n in zip(rows, s.counts.names + s.cover.names) if n not in universe.index]
            if unknown:
                row = min(unknown)[0]
                bad = sorted({n for r, n in unknown if r == row})
                raise FormatError(f"item {s.ids[row]!r}: concepts {bad} not in concept_universe")
    return Collection(ground, queries, privates, refs, universe)
