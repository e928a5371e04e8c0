"""Seeded input generator for the benchmark workloads.

Collections are written in the package's JSON collection schema, so the
benchmark feeds the program through its public loader.  Items look like
short text passages: each carries 3-8 concepts drawn from a Zipf-like
vocabulary and a nonnegative tf-idf-style feature vector mixed from its
concepts' embeddings.  Nonnegative features keep every cosine similarity
nonnegative, which keeps graph-cut conditional gains on the lazy path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CollectionShape:
    n: int  # ground items
    d: int  # feature dimension
    vocab: int  # concept vocabulary size
    per_item: tuple[int, int]  # concepts per ground item, inclusive range
    queries: int
    privates: int
    references: int
    ref_size: int  # items per reference summary

    def to_json(self) -> dict:
        return asdict(self)


def _concept_rows(rng, rows: int, vocab: int, lo: int, hi: int, popularity) -> np.ndarray:
    """(rows, vocab) count matrix: lo..hi distinct concepts per row, counts 1..3."""
    out = np.zeros((rows, vocab), dtype=int)
    sizes = rng.integers(lo, hi + 1, size=rows)
    for r, m in enumerate(sizes):
        picks = rng.choice(vocab, size=int(m), replace=False, p=popularity)
        out[r, picks] = rng.integers(1, 4, size=int(m))
    return out


def _world(shape: CollectionShape):
    """Concept popularity and embeddings: one fixed 'language' per shape, so
    that seeds vary the documents and not the language they are written in."""
    rng = np.random.default_rng([shape.vocab, shape.d])
    popularity = 1.0 / (rng.permutation(shape.vocab) + 10.0)
    popularity /= popularity.sum()
    # sparse nonnegative concept embeddings; features mix them by count
    embed = rng.exponential(1.0, size=(shape.vocab, shape.d))
    embed *= rng.random((shape.vocab, shape.d)) < 0.25
    return popularity, embed


def make_collection(rng, shape: CollectionShape) -> dict:
    """One collection document (JSON-ready) drawn from rng."""
    names = [f"c{i:03d}" for i in range(shape.vocab)]
    popularity, embed = _world(shape)

    def records(prefix: str, counts: np.ndarray) -> list[dict]:
        feats = np.round(counts @ embed + 0.05 * rng.random((len(counts), shape.d)), 6)
        out = []
        for i, (row, vec) in enumerate(zip(counts, feats.tolist())):
            nz = np.flatnonzero(row)
            out.append({"id": f"{prefix}{i}", "features": vec,
                        "concepts": {names[c]: int(row[c]) for c in nz}})
        return out

    ground = _concept_rows(rng, shape.n, shape.vocab, *shape.per_item, popularity)
    # queries and privates use mid-frequency concepts only, so that every
    # seed poses a problem of the same difficulty
    ranked = np.argsort(-popularity, kind="stable")
    lo = shape.vocab // 30
    band = np.zeros(shape.vocab)
    band[ranked[lo:max(shape.vocab // 5, lo + 4)]] = 1.0
    band /= band.sum()
    queries = _concept_rows(rng, shape.queries, shape.vocab, 3, 3, band)
    privates = _concept_rows(rng, shape.privates, shape.vocab, 3, 3, band)

    # references imitate annotators: items sharing the most query concepts,
    # each annotator with its own noise
    overlap = (ground * (queries.sum(axis=0) > 0)).sum(axis=1).astype(float)
    references = []
    for _ in range(shape.references):
        score = overlap + rng.normal(0.0, 1.0, shape.n)
        top = np.argsort(-score, kind="stable")[:shape.ref_size]
        references.append([f"g{int(i)}" for i in top])

    return {
        "items": records("g", ground),
        "queries": records("q", queries),
        "privates": records("p", privates),
        "references": references,
        "concept_universe": {
            "concepts": names,
            "weights": np.round(np.log1p(1.0 / (popularity * shape.vocab)), 6).tolist(),
        },
    }


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))
