"""Item sets, concept bookkeeping and similarity kernels.

A collection consists of a ground set V of items, optional auxiliary sets
(queries, private/irrelevant items, previous summaries) living in a shadow
universe V', and optional concept annotations used by the coverage-style
objectives and the evaluation metrics.  Items carry dense feature vectors
and/or sparse concept counts; kernels are built from features (falling back
to concept-count vectors when features are absent).

Item sets are held as columns (ids, a feature matrix and concept triplets),
built from per-item columns by the one constructor that checks the item rules.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
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


class Triplets(NamedTuple):
    """Per-item concept values as columns: item rows[k] holds values[k] of concept names[k]."""

    rows: np.ndarray
    names: list[str]
    values: np.ndarray

    @classmethod
    def of(cls, dicts: list, dtype=None) -> "Triplets":
        """Per-item {name: value} dicts, a falsy entry for none; a value that is no number or
        boolean (with dtype=float, no value numpy reads as a float) raises ValueError."""
        values = np.array([v for d in dicts if d for v in d.values()], dtype=dtype)
        if values.ndim != 1 or values.dtype.kind not in "biuf":
            raise ValueError("concept values must be numbers")
        rows = np.repeat(np.arange(len(dicts)), [len(d) if d else 0 for d in dicts])
        return cls(rows, [k for d in dicts if d for k in d], values.astype(float))


def _item_fault(ids, feats, concepts, coverage) -> str | None:
    """'item <id>: <rule>' for the first item, in order, that breaks a per-item rule (its
    features convert to a flat vector, it has some payload, its counts are nonnegative
    integers and its coverage lies in [0, 1]), or None when every item keeps them."""
    for item_id, f, cc, cov in zip(ids, feats, concepts, coverage):
        try:
            f = None if f is None else np.asarray(f, dtype=float)
            cc, cov = list((cc or {}).items()), [(k, float(p)) for k, p in (cov or {}).items()]
            if f is not None and f.ndim != 1:
                return f"item {item_id!r}: features must be a flat vector"
            if f is None and not cc and not cov:
                return f"item {item_id!r}: needs features or concepts"
            for k, x in cc:
                if not (isinstance(x, (int, float, np.integer, np.floating)) and float(x).is_integer() and x >= 0):
                    return f"item {item_id!r}: concept {k!r} count must be a nonnegative integer"
            for k, p in cov:
                if not 0.0 <= p <= 1.0:
                    return f"item {item_id!r}: coverage {k!r} must lie in [0, 1]"
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            return f"item {item_id!r}: {exc}"
    return None


class GroundSet:
    """Ordered, id-unique items held as columns: features, the (m, d) matrix (None when some
    item has none), and counts and cover, Triplets of the concept counts and the coverage
    probabilities (an item without coverage covers, surely, each concept it counts above 0).

    Built from per-item columns, each None or one entry per id: features (a flat vector or
    None), concepts ({name: count}) and coverage ({name: probability}), checked in vectorized
    form.  A failure raises FormatError with _item_fault's message, else _set_fault's."""

    def __init__(self, ids, features=None, concepts=None, coverage=None):
        ids = list(ids)
        feats, concepts, coverage = ([None] * len(ids) if c is None else c for c in (features, concepts, coverage))
        if not len(feats) == len(concepts) == len(coverage) == len(ids):
            raise FormatError(f"each item column needs one entry per id ({len(ids)})")
        try:
            present = [f for f in feats if f is not None]
            mat = np.array(present, dtype=float) if present else np.zeros((0, 0))
            counts, given = Triplets.of(concepts), Triplets.of(coverage, float)
            payload = np.array([f is not None for f in feats], dtype=bool)
            payload[counts.rows] = payload[given.rows] = True
            c, p = counts.values, given.values
            valid = (mat.ndim == 2 and payload.all() and len(set(ids)) == len(ids)
                     and np.all(np.isfinite(c) & (c >= 0) & (c == np.floor(c))) and np.all((p >= 0) & (p <= 1)))
        except (AttributeError, TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise FormatError(_item_fault(ids, feats, concepts, coverage) or _set_fault(ids, feats))
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


def _set_fault(ids: list, feats: list) -> str:
    """The message of columns whose items each keep the per-item rules: repeated ids, listed,
    else mixed feature lengths, listed by length."""
    dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
    dims = sorted({len(f) for f in feats if f is not None})
    return (f"duplicate item ids: {dupes}" if dupes else f"inconsistent feature dimensions: {dims}"
            if len(dims) > 1 else "item values fail the format checks")


class AuxiliarySet(GroundSet):
    """Items living in the shadow universe V' (queries, privates, previous summaries)."""

    def __init__(self, ids, features=None, concepts=None, coverage=None, *, role_tag: str):
        if role_tag not in AUX_ROLES:
            raise FormatError(f"role_tag must be one of {AUX_ROLES}, got {role_tag!r}")
        super().__init__(ids, features, concepts, coverage)
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


def _universe_columns(s: GroundSet, universe: ConceptUniverse, column: str) -> list[int]:
    """Universe column of each concept of one Triplets column of s; a concept outside the
    universe, in either column, raises FormatError naming the first item that has one."""
    try:
        return list(map(universe.index.__getitem__, getattr(s, column).names))
    except KeyError:
        unknown = [(r, n) for t in (s.counts, s.cover) for r, n in zip(t.rows.tolist(), t.names)
                   if n not in universe.index]
    row = min(unknown)[0]
    raise FormatError(f"item {s.ids[row]!r}: concepts {sorted({n for r, n in unknown if r == row})} "
                      "not in concept_universe")


def _scatter(sets, universe: ConceptUniverse, column: str) -> np.ndarray:
    """(n, L) matrix of one Triplets column of an item set, or of several
    stacked in order."""
    sets = [sets] if isinstance(sets, GroundSet) else sets
    out = np.zeros((sum(len(s) for s in sets), len(universe)))
    offset = 0
    for s in sets:
        rows, _, values = getattr(s, column)
        out[rows + offset, _universe_columns(s, universe, column)] = values
        offset += len(s)
    return out


def count_matrix(items: GroundSet | list[GroundSet], universe: ConceptUniverse) -> np.ndarray:
    """(n, L) concept-count matrix, as floats; a concept outside the universe raises FormatError."""
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
            # numpy factors a NaN entry into NaNs instead of raising
            definite = np.isfinite(np.diagonal(np.linalg.cholesky(shifted))).all()
        except np.linalg.LinAlgError:
            definite = False
        if not definite:
            raise NumericError(
                f"kernel + {self.psd_jitter:g}*I is not positive definite; "
                "increase the jitter or check the features"
            )


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
    # rbf divides by 2 sigma^2: a subnormal or zero one turns d^2 = 0 into NaN
    if not (sigma > 0 and np.finfo(float).tiny <= 2 * float(sigma) * float(sigma) < np.inf):
        raise ConfigError(f"sigma must be positive with 2*sigma^2 a finite normal float, got {sigma}")
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


def json_text(payload, path) -> str:
    """payload as strict JSON text for the file at path: a NaN or infinity
    raises NumericError, since no JSON reader has to accept them."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"refusing to write a non-finite number to {path}") from exc


def write_json(path, payload) -> None:
    """Write payload as strict JSON (json_text): a NaN or infinity leaves no file behind."""
    Path(path).write_text(json_text(payload, path))


def _columns(records: list) -> tuple[list, list, list, list]:
    """The ids, features, concepts and coverage columns of JSON item records."""
    return ([str(r["id"]) for r in records], [r.get("features") for r in records],
            [r.get("concepts") for r in records], [r.get("coverage") for r in records])


def _read_role(value, where: str, make) -> GroundSet:
    """The item set make builds from the columns of a JSON list of item records.  A record
    that is no object with an 'id' is named unless an item before it breaks an item rule."""
    if not isinstance(value, list):
        raise FormatError(f"{where} must be a list of item records, not {type(value).__name__}")
    try:
        columns = _columns(value)
    except (KeyError, TypeError):
        bad = next(k for k, r in enumerate(value) if not isinstance(r, dict) or "id" not in r)
        raise FormatError(_item_fault(*_columns(value[:bad]))
                          or f"item record must be an object with an 'id': {value[bad]!r}") from None
    return make(*columns)


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
            for column in ("counts", "cover"):
                _universe_columns(s, universe, column)
    return Collection(ground, queries, privates, refs, universe)
