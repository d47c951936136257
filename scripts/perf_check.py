#!/usr/bin/env python
"""Time the reference vs production rectangle searches; write BENCH_rectsearch.json.

Usage:

    PYTHONPATH=src python scripts/perf_check.py            # full suite
    PYTHONPATH=src python scripts/perf_check.py --quick    # CI smoke suite
    PYTHONPATH=src python scripts/perf_check.py --check    # non-zero exit on regression
    PYTHONPATH=src python scripts/perf_check.py --serving  # also re-run the
                                                           # serving sweep and
                                                           # rewrite BENCH_serving.json

``--check`` fails (exit 1) when the production bitmask core is slower
than the sparse-set reference (:mod:`repro.verify.reference`) in
geomean, when any workload's two lanes disagree on the search result, when the v2 branch-and-bound core's geomean speedup over
the v1 bitview core falls below ``--min-v2-speedup`` (default 1.4) or
its results are not equal-or-better on any exhaustive workload, when
disabled tracing, the disabled fault-injection gates, or the always-on
flight recorder are estimated to cost more than their budgets (2%
each), or when
``benchmarks/results/BENCH_serving.json`` is missing or violates the
serving-tier behavioral gate (failed requests, broken coalescing,
malformed percentiles — see
:func:`repro.serve.bench.validate_serving_report`) — the CI perf-smoke
gate.

``--serving`` boots a real gateway (worker processes + HTTP) and
regenerates the serving sweep; ``--serving-only`` skips the
rectangle-search suite while doing so.

With ``REPRO_TRACE=1`` in the environment the timed runs are traced and
every workload row in the JSON carries its phase breakdown and hot-loop
counters alongside the speedup.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.perfcheck import (
    MIN_V2_SPEEDUP,
    render_report,
    run_perf_check,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the miniature CI smoke suite instead of the full one",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if the bit core is slower than the reference or results diverge",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.0,
        help="geomean speedup the --check gate requires (default 1.0)",
    )
    parser.add_argument(
        "--min-v2-speedup", type=float, default=MIN_V2_SPEEDUP,
        help="geomean speedup the v2 pruned core must show over the v1 "
             f"bitview core under --check (default {MIN_V2_SPEEDUP})",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_rectsearch.json",
        help="output JSON path (default benchmarks/results/BENCH_rectsearch.json)",
    )
    parser.add_argument(
        "--serving", action="store_true",
        help="also run the serving-tier saturation sweep and rewrite "
             "BENCH_serving.json",
    )
    parser.add_argument(
        "--serving-only", action="store_true",
        help="run only the serving sweep (implies --serving)",
    )
    parser.add_argument(
        "--serving-out", type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_serving.json",
        help="serving sweep JSON path "
             "(default benchmarks/results/BENCH_serving.json)",
    )
    parser.add_argument(
        "--serving-workers", type=int, default=4,
        help="worker processes for the serving sweep (default 4)",
    )
    parser.add_argument(
        "--serving-duration", type=float, default=None,
        help="seconds per offered rate (default: 5, or 2 with --quick)",
    )
    args = parser.parse_args(argv)

    report = None
    if not args.serving_only:
        report = run_perf_check(quick=args.quick)
        print(render_report(report))
        args.out.parent.mkdir(parents=True, exist_ok=True)
        write_report(report, args.out)
        print(f"wrote {args.out}")

    if args.serving or args.serving_only:
        import json

        from repro.serve.bench import run_serving_bench

        duration = args.serving_duration
        if duration is None:
            duration = 2.0 if args.quick else 5.0
        rates = (10.0, 25.0) if args.quick else (10.0, 25.0, 50.0, 100.0)
        serving = run_serving_bench(
            rates=rates, duration=duration, workers=args.serving_workers,
        )
        args.serving_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.serving_out, "w") as fh:
            json.dump(serving, fh, indent=2)
            fh.write("\n")
        for row in serving["rows"]:
            lat = row["latency_ms"]
            print(
                f"serving rate={row['rate']:>6g}/s: {row['ok']} ok "
                f"{row['failed']} failed {row['rejected']} rejected, "
                f"p50 {lat['p50']:.1f}ms p99 {lat['p99']:.1f}ms, "
                f"{row['throughput_rps']:.1f} req/s"
            )
        probe = serving["coalesce_probe"]
        print(
            f"serving coalesce probe: {probe['requests']} requests -> "
            f"{probe['computations']} computation(s), "
            f"{probe['coalesced']} coalesced"
        )
        print(f"wrote {args.serving_out}")

    if args.check:
        import json

        from repro.serve.bench import validate_serving_report

        if not args.serving_out.exists():
            print(
                f"FAIL: {args.serving_out} is missing — run "
                f"'scripts/perf_check.py --serving' to generate it",
                file=sys.stderr,
            )
            return 1
        try:
            with open(args.serving_out) as fh:
                serving_report = json.load(fh)
        except ValueError as exc:
            print(f"FAIL: {args.serving_out} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 1
        problems = validate_serving_report(serving_report)
        if problems:
            for problem in problems:
                print(f"FAIL: serving gate: {problem}", file=sys.stderr)
            return 1
        print("serving gate: BENCH_serving.json OK "
              f"({len(serving_report['rows'])} rate(s), zero failures, "
              "coalescing verified)")

        if report is None:
            return 0
        if not report["all_results_match"]:
            print("FAIL: reference and production searches disagree on "
                  "at least one workload",
                  file=sys.stderr)
            return 1
        if report["geomean_speedup"] < args.min_speedup:
            print(
                f"FAIL: geomean speedup {report['geomean_speedup']:.2f}x "
                f"< required {args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        if not report["all_v2_match"]:
            print(
                "FAIL: v2 pruned core is not equal-or-better on at least "
                "one exhaustive workload",
                file=sys.stderr,
            )
            return 1
        if report["geomean_speedup_v2"] < args.min_v2_speedup:
            print(
                f"FAIL: v2 geomean speedup "
                f"{report['geomean_speedup_v2']:.2f}x < required "
                f"{args.min_v2_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        overhead = report["trace_overhead"]
        if not overhead["ok"]:
            print(
                f"FAIL: disabled-tracing overhead "
                f"{100 * overhead['estimated_overhead']:.3f}% exceeds "
                f"{100 * overhead['max_overhead']:.0f}%",
                file=sys.stderr,
            )
            return 1
        faults = report["fault_overhead"]
        if not faults["ok"]:
            print(
                f"FAIL: disabled-faults overhead "
                f"{100 * faults['estimated_overhead']:.3f}% exceeds "
                f"{100 * faults['max_overhead']:.0f}%",
                file=sys.stderr,
            )
            return 1
        flight = report["flight_overhead"]
        if not flight["ok"]:
            print(
                f"FAIL: flight-recorder overhead "
                f"{100 * flight['estimated_overhead']:.3f}% exceeds "
                f"{100 * flight['max_overhead']:.0f}%",
                file=sys.stderr,
            )
            return 1
        journal = report.get("journal_overhead")
        if journal and not journal["ok"]:
            print(
                f"FAIL: disabled-journal overhead "
                f"{100 * journal['estimated_overhead']:.3f}% exceeds "
                f"{100 * journal['max_overhead']:.0f}%",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
