"""Differential tests: the production bitmask core must replicate the
sparse-set reference (:mod:`repro.verify.reference`) exactly.

The contract is byte-level equivalence, not merely same-best: identical
(rectangle, gain) streams in identical order, identical budget
consumption at the point of exhaustion, identical meter charges, and
byte-identical factorization results end to end.  These tests exercise
it on seeded random KC matrices (which hit degenerate shapes the circuit
suites may not) and on the repo's example circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.cube import cube
from repro.circuits.examples import (
    chain_network,
    paper_example_network,
    two_kernel_network,
)
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.pingpong import (
    best_rectangle_pingpong,
    pingpong_candidates,
)
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    enumerate_rectangles,
)
from repro.verify import reference
from repro.verify.reference import reference_searcher


def random_kc_matrix(seed: int, n_rows: int = 14, n_cols: int = 10) -> KCMatrix:
    """A random sparse KC matrix over a small literal universe.

    Small universes force label collisions the gain model must handle:
    several rows of one node, and distinct (row, col) cells of one node
    naming the same original cube (the distinct-count correction).
    """
    rng = random.Random(seed)
    mat = KCMatrix()
    col_labels = []
    next_col = [1]

    def col_alloc():
        lab = next_col[0]
        next_col[0] += 1
        return lab

    for _ in range(n_cols):
        c = cube(rng.sample(range(1, 9), rng.randint(1, 3)))
        lab = mat.ensure_col(c, col_alloc)
        if lab not in col_labels:
            col_labels.append(lab)
    for i in range(n_rows):
        node = f"n{rng.randint(0, 3)}"
        cok = cube(rng.sample(range(1, 9), rng.randint(1, 2)))
        row = i + 1
        try:
            mat.add_row(row, node, cok)
        except ValueError:
            continue
        for c in col_labels:
            if rng.random() < 0.45:
                mat.add_entry(row, c)
    return mat


SEEDS = range(12)

#: The v1 stream of each implementation: production bit core, reference.
ENUMERATORS = {"bit": enumerate_rectangles, "set": reference.enumerate_rectangles}


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_identical_stream(self, seed):
        mat = random_kc_matrix(seed)
        stream_set = list(reference.enumerate_rectangles(mat))
        stream_bit = list(enumerate_rectangles(mat))
        assert stream_set == stream_bit

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_nonprime_stream(self, seed):
        mat = random_kc_matrix(seed)
        stream_set = list(reference.enumerate_rectangles(mat, prime_only=False))
        stream_bit = list(enumerate_rectangles(mat, prime_only=False))
        assert stream_set == stream_bit

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_tie_broken_best(self, seed):
        mat = random_kc_matrix(seed)
        assert reference.best_rectangle_exhaustive(
            mat
        ) == best_rectangle_exhaustive(mat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_pingpong(self, seed):
        mat = random_kc_matrix(seed)
        assert reference.pingpong_candidates(mat) == pingpong_candidates(mat)
        assert reference.best_rectangle_pingpong(
            mat, max_seeds=5
        ) == best_rectangle_pingpong(mat, max_seeds=5)

    def test_eq1_stream(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert list(reference.enumerate_rectangles(mat)) == list(
            enumerate_rectangles(mat)
        )

    def test_mcnc_circuit_stream_and_meter(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        meters = {}
        streams = {}
        for core, enum in ENUMERATORS.items():
            meters[core] = CostMeter()
            streams[core] = list(enum(mat, meter=meters[core]))
        assert streams["bit"] == streams["set"]
        assert meters["bit"].counts.get("search_node") == meters["set"].counts.get(
            "search_node"
        )

    def test_mcnc_circuit_pingpong_meter(self):
        mat = build_kc_matrix(make_circuit("dalu", scale=0.2))
        searches = {
            "bit": pingpong_candidates, "set": reference.pingpong_candidates,
        }
        meters = {c: CostMeter() for c in searches}
        got = {c: search(mat, meter=meters[c]) for c, search in searches.items()}
        assert got["bit"] == got["set"]
        assert meters["bit"].counts.get("pingpong_round") == meters[
            "set"
        ].counts.get("pingpong_round")


class TestBudgetParity:
    """Production and reference spend the budget at identical tree nodes."""

    def run_core(self, mat, core, max_nodes):
        budget = SearchBudget(max_nodes)
        out = []
        raised = False
        try:
            for rg in ENUMERATORS[core](mat, budget=budget):
                out.append(rg)
        except BudgetExceeded:
            raised = True
        return out, raised, budget.used

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("max_nodes", [1, 5, 17, 60])
    def test_exhaustion_parity(self, seed, max_nodes):
        mat = random_kc_matrix(seed)
        got_set = self.run_core(mat, "set", max_nodes)
        got_bit = self.run_core(mat, "bit", max_nodes)
        assert got_set == got_bit

    def test_mcnc_truncated_prefix(self):
        # seq@0.05 needs ~800 nodes to finish; 300 truncates mid-tree.
        mat = build_kc_matrix(make_circuit("seq", scale=0.05))
        got_set = self.run_core(mat, "set", 300)
        got_bit = self.run_core(mat, "bit", 300)
        assert got_set == got_bit
        assert got_set[1]  # the budget genuinely truncated the search


class TestEndToEnd:
    """Byte-identical factorization on every example circuit."""

    FACTORIES = [paper_example_network, two_kernel_network, chain_network]

    @pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("searcher", ["exhaustive", "pingpong"])
    def test_kernel_extract_identical(self, factory, searcher):
        results = {}
        nets = {}
        # kernel_extract's default max_seeds for the named searcher is 64.
        ref_searcher = reference_searcher(searcher, max_seeds=64)
        for core, search in (("bit", searcher), ("set", ref_searcher)):
            net = factory()
            results[core] = kernel_extract(net, searcher=search)
            nets[core] = net
        assert nets["bit"].nodes == nets["set"].nodes
        assert results["bit"].final_lc == results["set"].final_lc
        assert [s.rectangle for s in results["bit"].steps] == [
            s.rectangle for s in results["set"].steps
        ]

    def test_eq1_quality_identical_on_both_cores(self):
        # Eq. 1 starts at LC 33; greedy extraction lands production and
        # the reference on the same optimized network (LC 21 with this
        # repo's searchers).
        for searcher in ("exhaustive", reference_searcher("exhaustive")):
            net = paper_example_network()
            kernel_extract(net, searcher=searcher)
            assert net.literal_count() == 21


def _one_entry_matrix() -> KCMatrix:
    """A 1×1 matrix whose labels no circuit matrix here uses."""
    other = KCMatrix()
    other.add_row(999_999, "fresh", cube([1]))
    other.add_entry(999_999, other.ensure_col(cube([90, 91]), lambda: 999_998))
    return other


class TestViewStructure:
    def test_view_matches_matrix(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        view = mat.bitview()
        assert view.num_rows == mat.num_rows
        assert view.num_cols == mat.num_cols
        assert view.num_entries == mat.num_entries
        # Round-trip: every sparse entry appears at its dense position.
        for (r, c), cube_ in mat.entries.items():
            rpos = view.row_pos[r]
            cpos = view.col_pos[c]
            assert view.entry_cubes[view.cells[rpos][cpos]] == cube_
            assert view.row_cols[rpos] >> cpos & 1
            assert view.col_rows[cpos] >> rpos & 1

    MUTATIONS = {
        "add_row": lambda mat: mat.add_row(999_999, "fresh", cube([1])),
        "ensure_col": lambda mat: mat.ensure_col(cube([90, 91]), lambda: 999_999),
        "add_entry": lambda mat: mat.add_entry(*next(
            (r, c) for r in sorted(mat.rows) for c in sorted(mat.cols)
            if (r, c) not in mat.entries
        )),
        "remove_col": lambda mat: mat.remove_col(min(mat.cols)),
        "merge": lambda mat: mat.merge(_one_entry_matrix()),
    }

    def test_view_invalidated_by_mutation(self, eq1_network):
        """Every mutation but ``remove_row`` drops the cached view."""
        for mutation, apply in sorted(self.MUTATIONS.items()):
            mat = build_kc_matrix(eq1_network)
            view = mat.bitview()
            assert mat.bitview() is view  # cached while untouched
            apply(mat)
            view2 = mat.bitview()
            assert view2 is not view, mutation
            assert view2.num_rows == mat.num_rows, mutation
            assert view2.num_entries == mat.num_entries, mutation

    @pytest.mark.parametrize("seed", range(8))
    def test_remove_row_patches_view(self, seed):
        """``remove_row`` patches the cached view in place, and after
        random removal sequences both searchers return on it what they
        return, charges included, on a freshly compiled copy."""
        rng = random.Random(seed)
        mat = (
            build_kc_matrix(make_circuit("misex3", scale=0.1))
            if seed % 2 else random_kc_matrix(seed, n_rows=18)
        )
        view = mat.bitview()
        values = lambda node, c: (3 * len(c) + sum(c)) % 4 - 1  # noqa: E731
        while mat.rows:
            for label in rng.sample(sorted(mat.rows), min(len(mat.rows), 2)):
                mat.remove_row(label)
            assert mat.bitview() is view
            fresh = KCMatrix()
            fresh.merge(mat)
            assert fresh.bitview().dead_rows == set()
            assert view.num_rows == fresh.bitview().num_rows == mat.num_rows
            assert view.num_entries == fresh.bitview().num_entries
            for search, kwargs in (
                (best_rectangle_pingpong, {}),
                (best_rectangle_pingpong, {"max_seeds": 3}),
                (pingpong_candidates, {"value_fn": values, "min_cols": 1}),
                (best_rectangle_exhaustive, {}),
                (best_rectangle_exhaustive, {"value_fn": values}),
            ):
                got = {}
                for name, m in (("patched", mat), ("fresh", fresh)):
                    meter = CostMeter()
                    got[name] = (search(m, meter=meter, **kwargs), meter.counts)
                assert got["patched"] == got["fresh"], (search.__name__, kwargs)

    def test_block_tables_equal_full_scan(self):
        # The paper example has both a clean node and nodes whose rows
        # share a cube.
        view = build_kc_matrix(paper_example_network()).bitview()
        clean = view.clean_rows_mask()
        assert clean == view.scan_clean_rows_mask()
        assert 0 < clean < (1 << view.num_rows) - 1
        assert view.dup_rows() == view.scan_dup_rows() == set()

    def test_shared_neg_above_grows_safely_across_threads(self, monkeypatch):
        import sys
        import threading

        from repro.rectangles import bitview

        monkeypatch.setattr(bitview, "_NEG_ABOVE", [])
        bad = []

        def worker():
            # Every thread grows the table step by step, so growth races.
            for n in range(1, 3000):
                if len(bitview.neg_above_table(n)) < n:
                    bad.append(n)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert not bad
        table = bitview._NEG_ABOVE
        assert table == [-(1 << (p + 1)) for p in range(len(table))]

    def test_value_table_default_cached(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        view = mat.bitview()
        assert view.value_table() is view.value_table()
        custom = view.value_table(lambda node, cube_: 1)
        assert custom == [1] * view.num_entries
