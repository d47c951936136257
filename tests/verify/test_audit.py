"""Invariant audits: clean structures pass, corruption raises, gating."""

import pytest

from repro.circuits import make_circuit
from repro.parallel.cubestate import CubeStateStore, CubeStatus
from repro.rectangles.kcmatrix import KCMatrix, LabelAllocator, build_kc_matrix
from repro.verify import InvariantViolation, audit, set_audits


@pytest.fixture
def audits_on():
    prev = audit._enabled
    set_audits(True)
    yield
    set_audits(prev)


def _small_matrix() -> KCMatrix:
    mat = KCMatrix()
    alloc = LabelAllocator()
    mat.add_row(1, "F", (10,))
    mat.add_row(2, "F", (11,))
    mat.add_row(3, "G", ())
    c1 = mat.ensure_col((20,), alloc)
    c2 = mat.ensure_col((21, 22), alloc)
    for r in (1, 2, 3):
        mat.add_entry(r, c1)
    mat.add_entry(1, c2)
    return mat


class TestGating:
    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv(audit.ENV_VAR, "1")
        set_audits(None)  # re-read the environment
        assert audit.enabled()
        monkeypatch.setenv(audit.ENV_VAR, "0")
        set_audits(None)
        assert not audit.enabled()

    def test_set_audits_overrides_env(self, monkeypatch):
        monkeypatch.setenv(audit.ENV_VAR, "0")
        set_audits(True)
        try:
            assert audit.enabled()
        finally:
            set_audits(None)

    def test_off_by_default_means_corruption_is_silent(self):
        prev = audit._enabled
        set_audits(False)
        try:
            mat = _small_matrix()
            mat.by_col.clear()  # massive corruption
            mat.add_row(9, "H", ())  # mutator runs its audit only if enabled
        finally:
            set_audits(prev)


class TestKCMatrixAudits:
    def test_clean_matrix_passes(self, audits_on):
        mat = _small_matrix()  # every mutator self-audits on the way
        audit.audit_kcmatrix(mat)

    def test_mutators_audit_their_delta(self, audits_on):
        mat = _small_matrix()
        mat.remove_row(2)
        mat.remove_col(mat.col_of_cube[(21, 22)])
        audit.audit_kcmatrix(mat)

    @pytest.mark.parametrize(
        "corrupt, msg",
        [
            (lambda m: m.by_col[next(iter(m.by_col))].clear(),
             "adjacency"),
            (lambda m: m.entries.update(
                {next(iter(m.entries)): (99, 98, 97)}), "cube"),
            (lambda m: m.col_of_cube.update({(77,): 12345}), "col_of_cube"),
            (lambda m: m.node_rows["F"].add(999), "node_rows"),
            (lambda m: m.by_row.update({555: set()}), "by_row keys"),
        ],
    )
    def test_corruption_detected(self, corrupt, msg):
        mat = _small_matrix()
        corrupt(mat)
        with pytest.raises(InvariantViolation, match=msg):
            audit.audit_kcmatrix(mat)

    def test_bitview_parity_clean(self):
        mat = _small_matrix()
        view = mat.bitview()
        audit.audit_bitview(mat, view)

    def test_bitview_parity_detects_stale_view(self):
        mat = _small_matrix()
        view = mat.bitview()
        mat.add_row(4, "G", (12,))  # view no longer mirrors the matrix
        with pytest.raises(InvariantViolation):
            audit.audit_bitview(mat, view)

    def test_bitview_detects_corrupted_masks(self):
        mat = _small_matrix()
        view = mat.bitview()
        view.row_cols[0] = 0
        with pytest.raises(InvariantViolation, match="mask"):
            audit.audit_bitview(mat, view)

    def test_patched_bitview_audited_at_remove_row(self, audits_on, monkeypatch):
        from repro.rectangles.bitview import BitKCView

        mat = _small_matrix()
        view = mat.bitview()
        view.shared_cols()
        mat.remove_row(2)  # patched in place, and the patch is audited
        assert mat.bitview() is view and view.dead_rows == {1}
        monkeypatch.setattr(BitKCView, "drop_row", lambda self, label: None)
        with pytest.raises(InvariantViolation, match="live row labels"):
            mat.remove_row(3)

    @pytest.mark.parametrize("corrupt, msg", [
        (lambda view: view.col_rows.__setitem__(0, view.col_rows[0] | 0b10),
         "bits of no cell"),
        (lambda view: setattr(view, "_shared_cols", view._shared_cols ^ 1),
         "shared-column mask"),
        (lambda view: view.row_pos.__setitem__(2, 1), "row_pos"),
    ])
    def test_corrupted_patch_caught(self, corrupt, msg):
        mat = _small_matrix()
        view = mat.bitview()
        view.shared_cols()
        mat.remove_row(2)
        audit.audit_bitview(mat, view)
        corrupt(view)
        with pytest.raises(InvariantViolation, match=msg):
            audit.audit_bitview(mat, view)

    @pytest.mark.parametrize("table", ["clean", "dup_rows"])
    def test_tampered_block_table_caught(self, audits_on, table):
        net = make_circuit("misex3", scale=0.1)
        blocks = {}
        build_kc_matrix(net, blocks=blocks)  # the audit fills every table
        block = next(b for b in blocks.values() if b.rows)
        if table == "clean":
            block._clean = not block.clean()
        else:
            block._dup_rows = () if block.dup_rows() else (0,)
        with pytest.raises(InvariantViolation, match="full scan"):
            build_kc_matrix(net, blocks=blocks)

    def test_mutation_audit_fires_at_the_faulty_operation(self, audits_on):
        mat = _small_matrix()
        # Sabotage an index, then perform the next mutation touching it:
        # the audit localizes the breach to that operation instead of
        # letting it surface later as a wrong factorization.
        mat.node_rows["G"].add(1)  # row 1 belongs to F, not G
        with pytest.raises(InvariantViolation, match="still lists"):
            mat.remove_row(1)


class TestCubeStateAudits:
    def test_clean_protocol_run_passes(self, audits_on):
        store = CubeStateStore()
        refs = [("F", (1, 2)), ("F", (3,)), ("G", (4, 5, 6))]
        store.cover(refs, pid=0)
        store.uncover(refs[:1], pid=0)
        store.cover(refs[:1], pid=1)
        store.divide(refs[1:])
        audit.audit_cubestate(store)

    def test_foreign_claim_is_not_stolen(self, audits_on):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        store.cover([ref], pid=1)  # must silently lose, not steal
        assert store.record(ref).owner == 0
        assert store.value(ref, asking_pid=1) == 0

    def test_free_record_with_owner_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        rec = store.record(ref)
        rec.owner = 3  # FREE cubes carry no owner
        with pytest.raises(InvariantViolation, match="FREE"):
            audit.audit_cubestate(store)

    def test_covered_record_with_wrong_value_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        store.record(ref).trueval = 99
        with pytest.raises(InvariantViolation, match="COVERED"):
            audit.audit_cubestate(store)

    def test_divided_record_with_value_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.divide([ref])
        store.record(ref).trueval = 2
        with pytest.raises(InvariantViolation, match="DIVIDED"):
            audit.audit_cubestate(store)

    def test_double_cover_transition_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        rec = store.record(ref)
        rec.owner = 1  # simulate a protocol bug handing the claim over
        with pytest.raises(InvariantViolation, match="double cover"):
            audit.audit_cover_transition(ref, (CubeStatus.COVERED, 0), rec, 1)

    def test_resurrected_divided_cube_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        rec = store.record(ref)
        with pytest.raises(InvariantViolation, match="DIVIDED"):
            audit.audit_cover_transition(
                ref, (CubeStatus.DIVIDED, -1), rec, 0
            )


def _tied_matrix():
    """F = ac + ad + bc + bd: the kernels (c + d) and (a + b) extract
    with equal gain, so only the tie-break picks one."""
    from repro.network.boolean_network import BooleanNetwork

    net = BooleanNetwork("tie")
    net.add_inputs(["a", "b", "c", "d"])
    net.add_node("F", "ac + ad + bc + bd")
    net.add_output("F")
    return build_kc_matrix(net)


class TestSearchAudits:
    """Every production search is rerun on the sparse-set reference."""

    def test_clean_searches_pass(self, audits_on):
        from repro.machine.costmodel import CostMeter
        from repro.rectangles.pingpong import (
            best_rectangle_pingpong,
            pingpong_candidates,
        )
        from repro.rectangles.search import SearchBudget, best_rectangle_exhaustive

        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        meter = CostMeter()
        budget = SearchBudget(10**6)
        assert best_rectangle_exhaustive(mat, memo=False, budget=budget, meter=meter)
        assert best_rectangle_pingpong(mat, meter=meter)
        assert pingpong_candidates(mat, max_seeds=8, meter=meter)
        assert budget.used == meter.counts["search_node"] > 0

    def test_exhaustive_tie_break_divergence(self, audits_on, monkeypatch):
        from repro.rectangles import search
        from repro.rectangles.rectangle import Rectangle

        mat = _tied_matrix()
        real = search._best_rectangle_bit_v2
        winner = Rectangle(rows=(2, 3), cols=(5, 6))
        loser = Rectangle(rows=(4, 5), cols=(7, 8))

        def other_side(*args):
            best, stats = real(*args)
            assert best == (winner, 2)
            return (loser, 2), stats

        monkeypatch.setattr(search, "_best_rectangle_bit_v2", other_side)
        with pytest.raises(InvariantViolation, match="best_rectangle_exhaustive.*result"):
            search.best_rectangle_exhaustive(mat, memo=False)

    def test_pingpong_extra_round_divergence(self, audits_on, monkeypatch):
        from repro.rectangles import pingpong

        real = pingpong._ascents

        def one_more_round(matrix, value_fn, min_cols, max_seeds, max_rounds, meter):
            meter.charge("pingpong_round", 1)
            return real(matrix, value_fn, min_cols, max_seeds, max_rounds, meter)

        monkeypatch.setattr(pingpong, "_ascents", one_more_round)
        with pytest.raises(InvariantViolation, match="best_rectangle_pingpong.*meter"):
            pingpong.best_rectangle_pingpong(_tied_matrix())

    def test_exhaustive_budget_overspend_divergence(self, audits_on, monkeypatch):
        from repro.rectangles import search

        real = search._best_rectangle_bit_v2

        def overspend(matrix, min_cols, anchor_filter, budget, meter):
            budget.spend()
            return real(matrix, min_cols, anchor_filter, budget, meter)

        monkeypatch.setattr(search, "_best_rectangle_bit_v2", overspend)
        with pytest.raises(InvariantViolation, match="best_rectangle_exhaustive.*budget"):
            search.best_rectangle_exhaustive(
                _tied_matrix(), memo=False, budget=search.SearchBudget(10**6)
            )

    def test_lshaped_metered_value_fn_passes(self, audits_on, monkeypatch):
        # L-shaped values cells through the metered cube-state store.
        # The audit records those values for the reference, so it
        # compares the searches without metering the lookups twice.
        from repro.parallel.lshaped import lshaped_kernel_extract
        from repro.verify.generator import random_network

        checked = []
        real = audit._check_search

        def spy(search, matrix, kwargs):
            checked.append(kwargs.get("value_fn"))
            return real(search, matrix, kwargs)

        monkeypatch.setattr(audit, "_check_search", spy)
        net = random_network(12, family="dense")
        result = lshaped_kernel_extract(net, 3)
        result.network.validate()
        assert checked and all(callable(fn) for fn in checked)
