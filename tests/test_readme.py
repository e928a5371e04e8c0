"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from submodsum.cli import main
from submodsum.data import load_collection, write_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def _collection(rng, n: int = 14) -> dict:
    """A collection with queries, privates and references, large enough for
    the quick start's budget of 10."""
    def item(prefix, i):
        concepts = {f"c{k}": int(rng.integers(1, 3)) for k in rng.choice(6, size=2, replace=False)}
        return {"id": f"{prefix}{i}", "features": rng.normal(size=2).round(3).tolist(),
                "concepts": concepts, "coverage": {c: 0.5 for c in concepts}}

    return {"items": [item("s", i) for i in range(n)],
            "queries": [item("q", i) for i in range(2)],
            "privates": [item("p", i) for i in range(2)],
            "references": [["s0", "s3", "s5"], ["s1", "s2", "s7", "s9"]]}


def test_readme_collection_example_loads_and_summarizes(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "example.json"
    path.write_text(block)
    coll = load_collection(path)
    assert coll.references == [("s0",), ("s0", "s1")]
    assert main(["summarize", "--collection", str(path), "--flavor", "query_privacy",
                 "--fn", "sc", "--budget", "1", "--out", str(tmp_path / "run")]) == 0


def test_readme_python_examples_run_in_order(tmp_path, monkeypatch):
    blocks = _blocks("python")
    assert len(blocks) == 3
    write_json(tmp_path / "collection.json", _collection(np.random.default_rng(0)))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["sel"].ids) == 10
    assert len(namespace["model"].components) == 4
