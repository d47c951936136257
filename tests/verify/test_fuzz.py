"""Differential fuzz driver: oracles, campaign bookkeeping, audits."""

import pytest

from repro.network.boolean_network import BooleanNetwork
from repro.verify import audit
from repro.verify.fuzz import FuzzConfig, check_path, run_fuzz
from repro.verify.paths import FactorPath, all_paths, get_path


def _tiny_network():
    net = BooleanNetwork("tiny")
    net.add_inputs(["a", "b", "c", "d"])
    net.add_node("F", "ac + ad + bc + bd")
    net.add_output("F")
    return net


class TestCheckPath:
    # "bit": the production core alone; "set": audits on, so every
    # search is also rerun on the sparse-set reference, as in run_fuzz.
    @pytest.mark.parametrize("path", all_paths(), ids=lambda p: p.name)
    @pytest.mark.parametrize("core", ["bit", "set"])
    def test_all_real_paths_pass(self, path, core):
        prev = audit._enabled
        audit.set_audits(core == "set")
        try:
            outcome, final = check_path(_tiny_network(), path)
        finally:
            audit.set_audits(prev)
        assert outcome is None
        assert final is not None and final <= 8

    def test_each_run_has_its_own_memo(self, monkeypatch):
        from repro.rectangles import memo as rect_memo

        monkeypatch.setenv(rect_memo.ENV_VAR, "1")
        shared = rect_memo.RectMemo()
        path = get_path("seq-exhaustive")
        with rect_memo.scoped_default_memo(shared):
            for _ in range(2):
                path.run(_tiny_network())
            assert rect_memo.default_memo() is shared
        # Neither run's searches went through the surrounding memo.
        assert shared.stats()["hits"] == shared.stats()["misses"] == 0

    def test_exception_is_a_finding(self):
        def boom(network):
            raise RuntimeError("kaput")

        outcome, final = check_path(
            _tiny_network(), FactorPath("boom", boom)
        )
        assert final is None
        assert outcome[0] == "exception" and "kaput" in outcome[1]

    def test_nonequivalent_result_is_a_finding(self):
        def drop_cube(network):
            out = network.copy()
            out.nodes["F"] = out.nodes["F"][:1]
            return out

        outcome, _ = check_path(
            _tiny_network(), FactorPath("dropper", drop_cube)
        )
        assert outcome[0] == "equivalence"

    def test_literal_growth_is_a_finding(self):
        def bloat(network):
            out = network.copy()
            # F + F is functionally identical but strictly bigger.
            out.nodes["F"] = out.nodes["F"] + out.nodes["F"][:1]
            return out

        outcome, _ = check_path(
            _tiny_network(), FactorPath("bloat", bloat)
        )
        # Either the SOP dedupes (no finding is impossible: nodes[] is
        # raw cube list here) — the grown literal count must be flagged.
        assert outcome[0] == "lc-bound"

    def test_lost_output_is_a_finding(self):
        def lose_output(network):
            out = network.copy()
            del out.nodes["F"]
            out.outputs.remove("F")
            return out

        outcome, _ = check_path(
            _tiny_network(), FactorPath("loser", lose_output)
        )
        assert outcome[0] in ("exception", "interface")


class TestRunFuzz:
    def test_clean_small_campaign(self):
        config = FuzzConfig(runs=3, seed=0)
        report = run_fuzz(config)
        assert report.ok
        assert report.runs == 3
        assert report.checks == 3 * len(all_paths())

    def test_path_and_core_filters(self):
        report = run_fuzz(FuzzConfig(runs=2, seed=5, paths=["seq-pingpong"]))
        assert report.ok and report.checks == 2
        # One production core: there is no core dimension to filter.
        with pytest.raises(TypeError):
            FuzzConfig(cores=["bit"])

    def test_unknown_path_raises(self):
        with pytest.raises(ValueError, match="unknown factorization path"):
            run_fuzz(FuzzConfig(runs=1, paths=["nope"]))

    def test_audits_enabled_and_restored(self, monkeypatch):
        from repro.rectangles import pingpong

        seen = []
        real = pingpong._ascents

        def spy(*args):
            seen.append(audit.enabled())
            return real(*args)

        monkeypatch.setattr(pingpong, "_ascents", spy)
        prev = audit._enabled
        try:
            audit.set_audits(False)
            report = run_fuzz(
                FuzzConfig(runs=2, seed=0, paths=["seq-pingpong", "lshaped"])
            )
            assert report.ok
            assert seen and all(seen)  # every campaign runs under audits
            assert audit._enabled is False  # restored after the campaign
        finally:
            audit.set_audits(prev)

    def test_progress_callback_sees_runs(self):
        lines = []
        run_fuzz(FuzzConfig(runs=2, seed=0, paths=["seq-pingpong"],
                            progress=lines.append))
        assert len(lines) == 2 and "family=" in lines[0]

    def test_report_render_mentions_counts(self):
        report = run_fuzz(FuzzConfig(runs=1, seed=0, paths=["seq-pingpong"]))
        text = report.render()
        assert "1 runs" in text and "0 failure(s)" in text
