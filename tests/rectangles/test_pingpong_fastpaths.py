"""Differential tests of ping-pong's fast paths.

Production ping-pong ranks its seeds from the view's shared-column mask
and resolves a seed with no shared column (a *private* row) in closed
form.  Both must reproduce the sparse-set reference
(:mod:`repro.verify.reference`) exactly — best rectangle, candidate
list and ``pingpong_round`` charges — and the closed form must also
keep the tracer counters of the general ascent loop.  The cube-state
store's one-pass value table must equal one ``store.value`` call per
cell, charges included.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.cube import cube
from repro.machine.costmodel import CostMeter
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel.cubestate import CubeStateStore
from repro.rectangles import pingpong
from repro.rectangles.bitview import BitKCView
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import default_value
from repro.verify import reference


def mixed_matrix(seed: int, n_shared: int = 8, n_private: int = 8) -> KCMatrix:
    """Rows sharing columns over a small literal universe, plus private
    rows: each owns its columns, some repeat a cube within the row (a
    column cube overlapping the co-kernel) and some have an empty
    co-kernel."""
    rng = random.Random(seed)
    mat = KCMatrix()
    labels = iter(range(1, 10_000))
    alloc = labels.__next__
    shared_cols = [
        mat.ensure_col(cube(rng.sample(range(1, 9), rng.randint(1, 3))), alloc)
        for _ in range(6)
    ]
    # Interleave the two kinds in label order, so potential-0 rows of
    # both kinds sit on either side of each other.
    kinds = ["shared"] * n_shared + list(range(n_private))
    rng.shuffle(kinds)
    for row, i in enumerate(kinds, start=1):
        if i == "shared":
            mat.add_row(row, f"n{rng.randint(0, 3)}",
                        cube(rng.sample(range(1, 9), rng.randint(1, 2))))
            for c in shared_cols:
                if rng.random() < 0.5:
                    mat.add_entry(row, c)
            continue
        kind = i % 3
        a, b, x = 200 + i, 300 + i, 400 + i
        lits = rng.sample(range(100 + 10 * i, 110 + 10 * i), rng.randint(1, 4))
        if kind == 0:
            cok = cube([a])
            cubes = [cube([lit, lit + 1, lit + 2]) for lit in lits]
        elif kind == 1:
            cok = ()  # empty co-kernel: row cost 1
            cubes = [cube([lit, lit + 1]) for lit in lits]
        else:
            # {a,x} ∪ {a,b} == {x,b} ∪ {a,b}: a dup-cube row whose
            # repeated cells both pay off.
            cok = cube([a, b])
            cubes = [cube([a, x]), cube([x, b])]
            cubes += [cube([lit, lit + 1, lit + 2]) for lit in lits]
        mat.add_row(row, f"p{rng.randint(0, 2)}", cok)
        for kc in dict.fromkeys(cubes):
            mat.add_entry(row, mat.ensure_col(kc, alloc))
    return mat


def all_private_matrix(seed: int) -> KCMatrix:
    return mixed_matrix(seed, n_shared=0, n_private=12)


MATRICES = {
    "mixed": mixed_matrix,
    "all-private": all_private_matrix,
    "all-shared": lambda seed: mixed_matrix(seed, n_private=0),
}


def value_fns():
    """Value functions: the default, one with zeros, one with negatives."""
    def zeros(node, c):
        return 0 if sum(c) % 3 == 0 else len(c)

    def negatives(node, c):
        return (7 * len(c) + sum(c)) % 5 - 2

    return {"default": default_value, "zeros": zeros, "negatives": negatives}


def run_both(mat, value_fn, **kw):
    got = {}
    for name, mod in (("prod", pingpong), ("ref", reference)):
        m1, m2 = CostMeter(), CostMeter()
        got[name] = (
            mod.best_rectangle_pingpong(mat, value_fn=value_fn, meter=m1, **kw),
            mod.pingpong_candidates(mat, value_fn=value_fn, meter=m2, **kw),
            m1.counts.get("pingpong_round"),
            m2.counts.get("pingpong_round"),
        )
    return got


@pytest.mark.parametrize("kind", sorted(MATRICES))
@pytest.mark.parametrize("vf", sorted(value_fns()))
@pytest.mark.parametrize("max_rounds", [0, 1, 2, 8])
@pytest.mark.parametrize("min_cols", [1, 2, 3])
@pytest.mark.parametrize("max_seeds", [1, 5, None])
def test_matches_reference(kind, vf, max_rounds, min_cols, max_seeds):
    for seed in range(3):
        mat = MATRICES[kind](seed)
        got = run_both(mat, value_fns()[vf], max_rounds=max_rounds,
                       min_cols=min_cols, max_seeds=max_seeds)
        assert got["prod"] == got["ref"], seed


def _traced(mat, **kw):
    tr = Tracer()
    meter = CostMeter()
    with use_tracer(tr):
        with tr.span("search") as sp:
            found = pingpong.pingpong_candidates(mat, meter=meter, **kw)
    return found, meter.counts, sp.counters


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_rounds", [1, 2, 8])
@pytest.mark.parametrize("min_cols", [1, 2])
def test_closed_form_keeps_loop_counters(seed, max_rounds, min_cols, monkeypatch):
    """Marking every column shared sends every seed through the general
    loop (the potentials are unchanged: a private column's term is 0);
    the closed form must leave the same result, charges and counters."""
    mat = mixed_matrix(seed)
    kw = dict(max_rounds=max_rounds, min_cols=min_cols,
              value_fn=value_fns()["negatives"])
    fast = _traced(mat, **kw)
    monkeypatch.setattr(
        BitKCView, "shared_cols", lambda view: (1 << view.num_cols) - 1
    )
    slow = _traced(mat, **kw)
    assert fast == slow
    assert fast[2]["memo_hit"] > 0 or max_rounds == 1


def test_potential_zero_rows_keep_label_order():
    """Rows 1 and 2 share a column worth 0 (potential 0), row 3 is
    private (potential 0): seeds go 1, 2, 3, whatever their kind."""
    mat = KCMatrix()
    alloc = iter(range(1, 100)).__next__
    for row, lits in ((1, (20, 21)), (2, (30, 31)), (3, (40, 41))):
        mat.add_row(row, f"n{row}", cube([row + 10, row + 50]))
        for lit in lits:
            mat.add_entry(row, mat.ensure_col(cube([lit]), alloc))
        if row < 3:
            mat.add_entry(row, mat.ensure_col(cube([1]), alloc))

    def values(node, c):
        return 0 if 1 in c else len(c)

    for max_seeds in (1, 2, 3):
        got = run_both(mat, values, max_seeds=max_seeds)
        assert got["prod"] == got["ref"]
        assert [rect.rows for rect, _ in got["prod"][1]] == [
            (r,) for r in range(1, max_seeds + 1)
        ]


def test_private_rows_are_seeded_and_resolved():
    mat = all_private_matrix(0)
    view = mat.bitview()
    assert view.shared_cols() == 0
    best = pingpong.best_rectangle_pingpong(mat, min_cols=1)
    assert best is not None and len(best[0].rows) == 1


def random_store(rng, refs, nprocs):
    store = CubeStateStore()
    for ref in refs:
        roll = rng.random()
        if roll < 0.3:
            store.cover([ref], rng.randrange(nprocs))
        elif roll < 0.45:
            store.divide([ref])
        elif roll < 0.55:
            pid = rng.randrange(nprocs)
            store.cover([ref], pid)
            store.uncover([ref], pid)
    return store


@pytest.mark.parametrize("seed", range(8))
def test_store_table_equals_per_cell_values(seed):
    rng = random.Random(seed)
    mat = mixed_matrix(seed)
    # Drop a few rows so the view has dead positions too.
    mat.bitview()
    for r in rng.sample(sorted(mat.rows), 3):
        mat.remove_row(r)
    view = mat.bitview()
    refs = [mat.cube_ref(r, c) for (r, c) in mat.entries]
    store = random_store(rng, refs, 3)
    for pid in range(3):
        table_meter, cell_meter = CostMeter(), CostMeter()
        table = view.value_table(store.value_fn(pid, table_meter))
        per_cell = view.value_table(
            lambda node, c: store.value((node, c), pid, meter=cell_meter)
        )
        live = [eid for rcells in view.cells for eid in rcells.values()]
        assert [table[e] for e in live] == [per_cell[e] for e in live]
        assert table_meter.counts == cell_meter.counts == {
            "cube_state_op": float(len(live))
        }
        assert store.value_fn(pid)(*refs[0]) == store.value(refs[0], pid)
