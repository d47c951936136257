"""Differential tests for the v2 pruned search and the canonical memo.

The v2 exhaustive search (branch-and-bound with an admissible
remaining-gain bound plus column-dominance reduction; see the "Search
pruning & memoization" section of docs/algorithms.md) must return the
*identical* best rectangle — value and identity, including lexicographic
tie-breaks — as the best of the unpruned v1 stream on every matrix, for
both the production stream and the sparse-set reference's, and must
spend budgets exactly like the reference's v2 twin.  The cross-job memo must
be budget/meter-exact on hits, invalidate itself across matrix version
bumps, and persist through a DiskCache backing.
"""

from __future__ import annotations

import pytest

from repro.algebra.cube import cube
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles.cover import apply_rectangle
from repro.rectangles.kcmatrix import LABEL_OFFSET, KCMatrix, build_kc_matrix
from repro.rectangles.memo import (
    GLOBAL_SEARCH_STATS,
    RectMemo,
    default_memo,
    install_default_memo,
    memo_enabled,
    memo_key,
    rect_search_snapshot,
)
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_of,
    best_rectangle_exhaustive,
)
from repro.serve.diskcache import DiskCache
from repro.verify import reference
from tests.rectangles.test_bitview_equivalence import ENUMERATORS, random_kc_matrix

#: Which v1 stream the unpruned best is taken from: the production bit
#: core's ("bit") or the sparse-set reference's ("set").
CORES = ("set", "bit")
SEEDS = range(10)


def v1_best(mat, core="bit", **kwargs):
    """The best rectangle of the unpruned v1 stream of *core*."""
    return best_of(ENUMERATORS[core](mat, **kwargs))


def dup_rows_matrix(seed: int) -> KCMatrix:
    """A random matrix with duplicated row supports (the fuzz suite's
    ``dup_rows`` shape): duplicate rows create tied rectangles and
    subset columns, the exact territory of dominance pruning."""
    import random

    mat = random_kc_matrix(seed)
    rng = random.Random(seed + 1000)
    rows = sorted(mat.rows)
    next_row = max(rows) + 1
    for r in rows[: len(rows) // 2]:
        node = mat.rows[r].node
        cok = cube(rng.sample(range(1, 9), rng.randint(1, 2)))
        mat.add_row(next_row, node, cok)
        for c in sorted(mat.by_row[r]):
            mat.add_entry(next_row, c)
        next_row += 1
    return mat


@pytest.fixture
def no_default_memo():
    """Isolate a test from the process-default memo."""
    previous = install_default_memo(None)
    yield
    install_default_memo(previous)


class TestPrunedEqualsUnpruned:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("core", CORES)
    def test_random_matrices(self, seed, core):
        mat = random_kc_matrix(seed)
        assert best_rectangle_exhaustive(mat, memo=False) == v1_best(mat, core)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("core", CORES)
    def test_dup_rows_matrices(self, seed, core):
        mat = dup_rows_matrix(seed)
        assert best_rectangle_exhaustive(mat, memo=False) == v1_best(mat, core)

    @pytest.mark.parametrize("core", CORES)
    def test_mcnc_circuit(self, core):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        assert best_rectangle_exhaustive(mat, memo=False) == v1_best(mat, core)

    @pytest.mark.parametrize(
        "make, seed",
        [(random_kc_matrix, 231), (random_kc_matrix, 394),
         (dup_rows_matrix, 227), (dup_rows_matrix, 262), (dup_rows_matrix, 329)],
    )
    def test_tie_break_on_sorted_columns(self, make, seed):
        # Tied best rectangles where the winner's columns, in walk
        # order, put a forced column above a later branch column: the
        # tie-break must compare sorted columns, as v1 does.
        mat = make(seed)
        best = best_rectangle_exhaustive(mat, memo=False)
        assert best == v1_best(mat) == reference.best_rectangle_exhaustive(mat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cross_core_v2_parity(self, seed):
        mat = dup_rows_matrix(seed)
        searches = {
            "bit": lambda m, meter: best_rectangle_exhaustive(
                m, memo=False, meter=meter
            ),
            "set": reference.best_rectangle_exhaustive,
        }
        got = {}
        for core, search in searches.items():
            meter = CostMeter()
            got[core] = (
                search(mat, meter=meter), meter.counts.get("search_node")
            )
        assert got["set"] == got["bit"]

    def test_custom_value_fn_falls_back_to_v1(self):
        # v2's bound/dominance proofs only hold for the default value
        # function; a custom one must take the (correct) v1 path.
        mat = random_kc_matrix(0)
        custom = lambda node, c: 1  # noqa: E731
        assert best_rectangle_exhaustive(
            mat, value_fn=custom, memo=False
        ) == v1_best(mat, value_fn=custom)


class TestBudgetParity:
    """Production v2 and the reference's v2 twin spend the budget at
    identical tree nodes."""

    def run_core(self, mat, core, max_nodes):
        budget = SearchBudget(max_nodes)
        try:
            if core == "set":
                res = reference.best_rectangle_exhaustive(mat, budget=budget)
            else:
                res = best_rectangle_exhaustive(mat, memo=False, budget=budget)
            return ("done", res, budget.used)
        except BudgetExceeded:
            return ("dnf", None, budget.used)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("max_nodes", [1, 5, 17, 60])
    def test_exhaustion_parity(self, seed, max_nodes):
        mat = dup_rows_matrix(seed)
        assert self.run_core(mat, "set", max_nodes) == self.run_core(
            mat, "bit", max_nodes
        )

    def test_v2_never_spends_more_than_v1(self):
        for seed in SEEDS:
            mat = dup_rows_matrix(seed)
            v1_budget = SearchBudget(10**9)
            v1_best(mat, budget=v1_budget)
            v2_budget = SearchBudget(10**9)
            best_rectangle_exhaustive(mat, memo=False, budget=v2_budget)
            assert v2_budget.used <= v1_budget.used


def misex3_matrix(scale: float = 0.1, pid: int = 0) -> KCMatrix:
    """A fresh build of a small stand-in circuit: compiled from row
    blocks, so its view carries a memo key."""
    return build_kc_matrix(make_circuit("misex3", scale=scale), pid=pid)


class TestMemo:
    def test_hit_returns_identical_result(self):
        memo = RectMemo()
        first = best_rectangle_exhaustive(misex3_matrix(), memo=memo)
        # A fresh build of the same circuit hits.
        second = best_rectangle_exhaustive(misex3_matrix(), memo=memo)
        assert first == second
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert len(memo) == 1

    def test_hit_across_label_renaming(self):
        # Entries are stored in dense position space: the same network
        # built in processor 9's label space must hit and decode to its
        # *own* labels.
        memo = RectMemo()
        res0 = best_rectangle_exhaustive(misex3_matrix(pid=0), memo=memo)
        res9 = best_rectangle_exhaustive(misex3_matrix(pid=9), memo=memo)
        assert memo.stats()["hits"] == 1
        assert res0 is not None and res9 is not None
        rect0, gain0 = res0
        rect9, gain9 = res9
        shift = 9 * LABEL_OFFSET
        assert gain9 == gain0
        assert list(rect9.cols) == [c + shift for c in rect0.cols]
        assert list(rect9.rows) == [r + shift for r in rect0.rows]

    def test_version_bump_invalidates(self):
        # Extracting a rectangle modifies nodes; the rebuilt matrix (new
        # blocks for exactly those nodes) must miss.
        net = make_circuit("misex3", scale=0.1)
        blocks = {}
        mat = build_kc_matrix(net, blocks=blocks)
        memo = RectMemo()
        rect, gain = best_rectangle_exhaustive(mat, memo=memo)
        applied = apply_rectangle(net, mat, rect, new_name="[k0]", gain=gain)
        for n in applied.modified_nodes:
            blocks.pop(n)
        mat = build_kc_matrix(net, blocks=blocks)
        res = best_rectangle_exhaustive(mat, memo=memo)
        stats = memo.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert res == v1_best(mat)

    def test_hit_is_budget_and_meter_exact(self):
        live_meter = CostMeter()
        live = best_rectangle_exhaustive(
            misex3_matrix(), memo=False, meter=live_meter
        )
        nodes = int(live_meter.counts["search_node"])

        memo = RectMemo()
        best_rectangle_exhaustive(misex3_matrix(), memo=memo)
        # Exact-cap budget: the lump replay completes with used == nodes.
        budget = SearchBudget(nodes)
        hit_meter = CostMeter()
        hit = best_rectangle_exhaustive(
            misex3_matrix(), memo=memo, budget=budget, meter=hit_meter
        )
        assert hit == live
        assert memo.stats()["hits"] == 1
        assert budget.used == nodes
        assert hit_meter.counts["search_node"] == live_meter.counts[
            "search_node"
        ]
        # One node short: the hit raises exactly like a live run would.
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(
                misex3_matrix(), memo=memo, budget=SearchBudget(nodes - 1)
            )
        assert memo.stats()["hits"] == 2

    def test_unkeyed_matrices_skip_memo(self):
        # A matrix mutated after build, and a hand-built one, have no
        # memo key: no lookup is counted and the answer is memo=False's.
        mutated = misex3_matrix()
        mutated.remove_row(max(mutated.rows))
        for mat in (mutated, random_kc_matrix(3)):
            assert mat.bitview().signature() is None
            memo = RectMemo()
            got = best_rectangle_exhaustive(mat, memo=memo)
            stats = memo.stats()
            assert stats["hits"] == 0 and stats["misses"] == 0
            assert len(memo) == 0
            assert got == best_rectangle_exhaustive(mat, memo=False)

    def test_incomplete_search_not_stored(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        memo = RectMemo()
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(mat, memo=memo, budget=SearchBudget(3))
        assert len(memo) == 0

    def test_diskcache_backing_persists_across_memos(self, tmp_path):
        mat = misex3_matrix()
        memo1 = RectMemo(backing=DiskCache(str(tmp_path)))
        first = best_rectangle_exhaustive(mat, memo=memo1)
        # A fresh memo (fresh process, same cache dir) hits via backing.
        memo2 = RectMemo(backing=DiskCache(str(tmp_path)))
        second = best_rectangle_exhaustive(mat, memo=memo2)
        assert first == second
        assert memo2.stats()["hits"] == 1 and memo2.stats()["misses"] == 0

    def test_lru_eviction_counted(self):
        memo = RectMemo(capacity=1)
        mats = [misex3_matrix(scale) for scale in (0.1, 0.05)]
        for mat in mats:
            best_rectangle_exhaustive(mat, memo=memo)
        assert memo.stats()["evictions"] == 1
        best_rectangle_exhaustive(mats[0], memo=memo)  # evicted: a miss
        assert memo.stats()["misses"] == 3

    def test_memo_key_depends_on_parameters(self):
        sig = "abc"
        keys = {
            memo_key(sig, 2),
            memo_key(sig, 3),
            memo_key(sig, 2, prime_only=False),
            memo_key("abd", 2),
        }
        assert len(keys) == 4


class TestDefaultsAndCounters:
    def test_memo_env_gate(self, monkeypatch, no_default_memo):
        monkeypatch.setenv("REPRO_RECT_MEMO", "0")
        assert not memo_enabled()
        assert default_memo() is None
        monkeypatch.setenv("REPRO_RECT_MEMO", "1")
        assert memo_enabled()
        assert default_memo() is not None

    def test_global_stats_and_snapshot(self, no_default_memo):
        before = GLOBAL_SEARCH_STATS.snapshot()
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        best_rectangle_exhaustive(mat, memo=False)
        after = GLOBAL_SEARCH_STATS.snapshot()
        assert after["searches"] == before["searches"] + 1
        assert after["pruned_subtrees"] >= before["pruned_subtrees"]
        snap = rect_search_snapshot()
        assert set(snap) == {
            "rect_search_pruned_subtrees",
            "rect_search_dominance_skips",
            "rect_memo_hits",
            "rect_memo_misses",
            "rect_memo_evictions",
        }

    def test_traced_memo_hit_attaches_counters(self):
        from repro import obs

        memo = RectMemo()
        best_rectangle_exhaustive(misex3_matrix(), memo=memo)
        tracer = obs.Tracer(name="memo-hit")
        with obs.use_tracer(tracer), obs.span("memo-hit"):
            best_rectangle_exhaustive(misex3_matrix(), memo=memo)
        totals = tracer.counter_totals()
        assert totals.get("rect_memo_hits") == 1
        # The hit replays the recorded node spend into the span too, so
        # traced accounting matches the meter/budget replay.
        assert totals.get("search_node_visit", 0) > 0
