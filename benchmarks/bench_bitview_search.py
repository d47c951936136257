"""Perf regression harness — sparse-set reference vs dense bitmask core.

Times the production bitmask searches (``repro.rectangles.bitview``)
against the sparse-set reference (``repro.verify.reference``) on the
BENCH_rectsearch workload suite: exhaustive search where the replicated
algorithm finishes, budget-truncated exhaustive search in the paper's
DNF regime (spla/ex1010), and the ping-pong heuristic the sequential
baseline and the timing-driven loop run.  Every workload cross-checks
that the two return identical results, so this doubles as an
end-to-end differential test on real matrices.

The committed ``benchmarks/results/BENCH_rectsearch.json`` is the full
suite at scale 1; runs with ``REPRO_SCALE < 1`` use the quick smoke
suite and do not overwrite it.
"""

from benchmarks.conftest import RESULTS_DIR, bench_scale, emit, run_once
from repro.harness.perfcheck import render_report, run_perf_check, write_report


def test_bitview_search_speedup(benchmark):
    quick = bench_scale() < 1.0
    report = run_once(benchmark, lambda: run_perf_check(quick=quick))
    emit("bench_rectsearch", render_report(report))
    if not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        write_report(report, RESULTS_DIR / "BENCH_rectsearch.json")
    assert report["all_results_match"], "searches disagree on a workload"
    assert report["geomean_speedup"] > 1.0, (
        f"bit core slower than the reference: {report['geomean_speedup']:.2f}x"
    )
