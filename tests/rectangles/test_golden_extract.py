"""Golden differential test of the greedy extraction loop.

``golden_extract.json`` pins, for every case below, the full step
sequence of :func:`~repro.rectangles.cover.kernel_extract` (new node,
kernel, rectangle labels, modified nodes, measured delta), the final
literal count and the metered operation counts.  Any change to how the
KC matrix is built, labelled or searched that alters a tie-break, a
label or a meter charge shows up here as a byte difference.  Each case
runs twice: ``/bit`` through the production searchers, ``/set`` through
the sparse-set reference (:func:`repro.verify.reference.reference_searcher`),
and both must match the same fixture.  Every case runs on its own empty
rectangle memo; a replay test reruns each production exhaustive case on
its first run's memo and requires the all-hit second run to match the
fixture too.

Regenerate (only when a behaviour change is intended, and say why in
the change log) with::

    PYTHONPATH=src python tests/rectangles/test_golden_extract.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.circuits import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles.bitview import BitKCView
from repro.rectangles.cover import kernel_extract
from repro.rectangles.memo import RectMemo, scoped_default_memo
from repro.verify.corpus import load_corpus
from repro.verify.reference import reference_searcher

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_extract.json")
CORPUS_DIR = os.path.join(HERE, "..", "fuzz_corpus")

#: (MCNC stand-in, scale): small enough that exhaustive search is quick.
MCNC_CASES = (
    ("misex3", 0.2),
    ("dalu", 0.15),
    ("des", 0.08),
    ("seq", 0.05),
    ("spla", 0.04),
    ("ex1010", 0.05),
)
SEARCHERS = ("pingpong", "exhaustive")
#: "bit" = the production searchers, "set" = the sparse-set reference.
CORES = ("bit", "set")


def _networks():
    for name, scale in MCNC_CASES:
        yield f"{name}@{scale}", lambda n=name, s=scale: make_circuit(n, scale=s)
    for entry in load_corpus(CORPUS_DIR):
        yield f"corpus:{entry.stem}", entry.network.copy


def case_ids():
    return [
        f"{label}/{searcher}/{core}"
        for label, _ in _networks() for searcher in SEARCHERS for core in CORES
    ]


def _make(case_id):
    label, searcher, core = case_id.rsplit("/", 2)
    for got, make in _networks():
        if got == label:
            return make(), searcher, core
    raise KeyError(case_id)


def record(case_id, memo=None) -> dict:
    """Run one case metered and return its JSON-ready trace.

    The run gets *memo* as its rectangle memo, by default a fresh empty
    one, so a case never replays searches another case made.
    """
    net, searcher, core = _make(case_id)
    meter = CostMeter()
    if core == "set":
        searcher = reference_searcher(searcher, meter=meter, max_seeds=64)
    with scoped_default_memo(memo if memo is not None else RectMemo()):
        res = kernel_extract(net, searcher=searcher, meter=meter)
    steps = [
        [s.new_node, [list(c) for c in s.kernel], list(s.rectangle.rows),
         list(s.rectangle.cols), list(s.modified_nodes), s.actual_delta]
        for s in res.steps
    ]
    return {
        "initial_lc": res.initial_lc,
        "final_lc": res.final_lc,
        "steps": steps,
        "counts": dict(sorted(meter.counts.items())),
    }


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _load_fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case_id", case_ids())
def test_matches_golden(case_id):
    expect = _load_fixture()[case_id]
    got = record(case_id)
    assert _dump(got) == _dump(expect)


@pytest.mark.parametrize("case_id", [c for c in case_ids() if c.endswith("/exhaustive/bit")])
def test_memo_replay_matches_golden(case_id, monkeypatch):
    """Run twice on one memo: the second run is all hits, and both runs
    match the fixture byte for byte (steps and meter counts)."""
    monkeypatch.setenv("REPRO_RECT_MEMO", "1")
    memo = RectMemo()
    first = record(case_id, memo)
    cold = memo.stats()
    second = record(case_id, memo)
    warm = memo.stats()
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] - cold["hits"] == cold["hits"] + cold["misses"] > 0
    expect = _dump(_load_fixture()[case_id])
    assert _dump(first) == expect
    assert _dump(second) == expect


def _view_fields(view):
    return {name: getattr(view, name) for name in (
        "row_labels", "col_labels", "row_pos", "col_pos", "row_cols",
        "col_rows", "cells", "entry_cubes", "row_node", "node_names",
        "row_cost", "col_cost",
    )}


@pytest.mark.parametrize("case_id", [c for c in case_ids() if c.endswith("/bit")])
def test_block_view_equals_sparse_compile(case_id, monkeypatch):
    """Every iteration's view equals one compiled from the sparse form."""
    import repro.rectangles.cover as cover

    built = []
    real = cover.build_kc_matrix

    def spy(*args, **kwargs):
        mat = real(*args, **kwargs)
        built.append(_view_fields(mat.bitview()))
        # Reading the adjacency materialises the sparse form; compile a
        # second view from that alone.
        assert sum(map(len, mat.by_row.values())) == len(mat.entries)
        assert type(mat.entries) is dict
        built.append(_view_fields(BitKCView(mat)))
        return mat

    monkeypatch.setattr(cover, "build_kc_matrix", spy)
    net, searcher, _ = _make(case_id)
    kernel_extract(net, searcher=searcher)
    assert built
    for from_blocks, from_sparse in zip(built[::2], built[1::2]):
        assert from_blocks == from_sparse


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_extract.py --write")
    doc = {case_id: record(case_id) for case_id in case_ids()}
    with open(FIXTURE, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in sorted(doc.items())))
        fh.write("\n}\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}")
