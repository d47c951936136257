import pytest

from repro.machine.costmodel import CostMeter
from repro.rectangles.kcmatrix import (
    KCMatrix,
    LABEL_OFFSET,
    LabelAllocator,
    build_kc_matrix,
)


class TestLabelAllocator:
    def test_processor_zero_starts_at_one(self):
        alloc = LabelAllocator(0)
        assert alloc() == 1
        assert alloc() == 2

    def test_paper_labeling(self):
        """Paper: processor 2's first kernel is 200001, processor 5's 500001."""
        assert LabelAllocator(2)() == 200_001
        assert LabelAllocator(5)() == 500_001

    def test_spaces_disjoint(self):
        a0, a1 = LabelAllocator(0), LabelAllocator(1)
        labels0 = {a0() for _ in range(100)}
        labels1 = {a1() for _ in range(100)}
        assert not labels0 & labels1

    def test_exhaustion(self):
        alloc = LabelAllocator(0, offset=3)
        alloc(), alloc()
        with pytest.raises(OverflowError):
            alloc()

    def test_negative_pid_rejected(self):
        with pytest.raises(ValueError):
            LabelAllocator(-1)


class TestBuild:
    def test_eq1_matrix_shape(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        # F: 7 kernels/cokernels, G: 5, H: 1 (ade+cde has kernel a+c @ de)
        assert mat.num_rows == 13
        assert mat.num_entries == sum(len(mat.by_row[r]) for r in mat.rows)

    def test_rows_are_node_cokernel_pairs(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        pairs = {(info.node, info.cokernel) for info in mat.rows.values()}
        assert len(pairs) == mat.num_rows

    def test_columns_dedupe_kernel_cubes(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert len(set(mat.cols.values())) == mat.num_cols

    def test_entry_is_cokernel_union_kernelcube(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        for (r, c), cube in mat.entries.items():
            info = mat.rows[r]
            assert set(cube) == set(info.cokernel) | set(mat.cols[c])

    def test_entries_are_original_cubes(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        for (r, c), cube in mat.entries.items():
            node = mat.rows[r].node
            assert cube in eq1_network.nodes[node]

    def test_node_subset(self, eq1_network):
        mat = build_kc_matrix(eq1_network, nodes=["G", "H"])
        assert {info.node for info in mat.rows.values()} == {"G", "H"}

    def test_pid_offsets_labels(self, eq1_network):
        mat = build_kc_matrix(eq1_network, pid=3)
        assert all(r > 3 * LABEL_OFFSET for r in mat.rows)
        assert all(c > 3 * LABEL_OFFSET for c in mat.cols)

    def test_block_cache_filled_and_used(self, eq1_network):
        cache = {}
        meter = CostMeter()
        m1 = build_kc_matrix(eq1_network, blocks=cache, meter=meter)
        assert set(cache) == {"F", "G", "H"}
        visits = meter.counts["kernel_cube_visit"]
        m2 = build_kc_matrix(eq1_network, blocks=cache, meter=meter)
        assert meter.counts["kernel_cube_visit"] == visits  # no re-enumeration
        assert m1.rows == m2.rows and dict(m1.entries) == dict(m2.entries)

    def test_meter_charged(self, eq1_network):
        meter = CostMeter()
        build_kc_matrix(eq1_network, meter=meter)
        assert meter.counts["kc_entry"] > 0

    def test_sparsity(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert 0 < mat.sparsity() < 1


class TestMutation:
    def test_remove_row_cleans_indexes(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        r = next(iter(mat.rows))
        cols = set(mat.by_row[r])
        mat.remove_row(r)
        assert r not in mat.rows
        for c in cols:
            assert r not in mat.by_col[c]
            assert (r, c) not in mat.entries

    def test_remove_col_cleans_indexes(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        c = next(iter(mat.cols))
        cube = mat.cols[c]
        mat.remove_col(c)
        assert c not in mat.cols
        assert cube not in mat.col_of_cube

    def test_duplicate_row_label_rejected(self):
        mat = KCMatrix()
        mat.add_row(1, "n", ())
        with pytest.raises(ValueError):
            mat.add_row(1, "m", ())


class TestNodeRowsIndex:
    def test_index_matches_row_infos(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        for node, labels in mat.node_rows.items():
            assert labels == {
                r for r, info in mat.rows.items() if info.node == node
            }

    def test_rows_of_node_sorted(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        for node in mat.node_rows:
            got = mat.rows_of_node(node)
            assert got == sorted(got)
            assert set(got) == mat.node_rows[node]

    def test_rows_of_node_unknown_is_empty(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert mat.rows_of_node("no-such-node") == []

    def test_remove_row_maintains_index(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        node = next(iter(mat.node_rows))
        for r in list(mat.rows_of_node(node)):
            mat.remove_row(r)
        # Last row removed drops the node key entirely.
        assert node not in mat.node_rows
        assert mat.rows_of_node(node) == []


class TestSubmatrixAndMerge:
    def test_submatrix_columns(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        chosen = sorted(mat.cols)[:3]
        sub = mat.submatrix_columns(chosen)
        assert set(sub.cols) <= set(chosen)
        for (r, c) in sub.entries:
            assert (r, c) in mat.entries

    def test_submatrix_drops_empty_rows(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        sub = mat.submatrix_columns([])
        assert sub.num_rows == 0

    def test_merge_disjoint_label_spaces(self):
        # Hand-built matrices with disjoint cube sets and label spaces —
        # the splice case the L-shaped exchange relies on.
        m0, m1 = KCMatrix(), KCMatrix()
        m0.add_row(1, "F", (9,))
        c0 = m0.ensure_col((0,), lambda: 1)
        m0.add_entry(1, c0)
        m1.add_row(100_001, "G", (8,))
        c1 = m1.ensure_col((2,), lambda: 100_001)
        m1.add_entry(100_001, c1)
        m0.merge(m1)
        assert m0.num_rows == 2
        assert m0.num_cols == 2
        assert m0.num_entries == 2

    def test_merge_shared_column_same_label(self):
        # Same cube under the SAME global label merges fine (the point of
        # the ownership relabeling).
        m0, m1 = KCMatrix(), KCMatrix()
        m0.add_row(1, "F", (9,))
        c0 = m0.ensure_col((0,), lambda: 7)
        m0.add_entry(1, c0)
        m1.add_row(100_001, "G", (8,))
        c1 = m1.ensure_col((0,), lambda: 7)
        m1.add_entry(100_001, c1)
        m0.merge(m1)
        assert m0.num_cols == 1
        assert len(m0.by_col[7]) == 2

    def test_merge_conflicting_cube_label_rejected(self, eq1_network):
        # same cube under two labels must be rejected
        m0 = build_kc_matrix(eq1_network, nodes=["G"], pid=0)
        m1 = build_kc_matrix(eq1_network, nodes=["G"], pid=1)
        with pytest.raises(ValueError):
            m0.merge(m1)
