"""Command-line interface.

    python -m repro factor CIRCUIT [--algorithm ALG] [--procs N] [--cache]
    python -m repro profile CIRCUIT [--algorithm ALG] [--procs N] [--format F]
    python -m repro batch MANIFEST [--workers N] [--repeat K] [--json OUT]
    python -m repro run-table {table1,table2,table3,table4,table6,eq3} [--scale S]
    python -m repro info CIRCUIT [--scale S]
    python -m repro fuzz [--runs N] [--seed S] [--shrink] [--faults]
    python -m repro chaos CIRCUIT [--plan SPEC] [--seed S] [--algorithm ALG]
    python -m repro chaos --serve [--runs N] [--seed S] [--plan SPEC]
    python -m repro serve [--workers N] [--port P] [--cache-dir D]
    python -m repro fsck CACHE_DIR [--repair]
    python -m repro loadgen URL [--rate R] [--duration S] [--tenants K]
    python -m repro --list

``CIRCUIT`` is a named stand-in (``dalu``, ``seq``, …), a path to an
``.eqn``/``.pla``/``.blif`` file, or ``example`` for the paper's Equation 1
network.  ``MANIFEST`` is a JSON or line-oriented list of factorization
jobs run through the batch engine (:mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.network.boolean_network import BooleanNetwork


@contextlib.contextmanager
def _trace_to_file(path: Optional[str]):
    """Trace the body and write the spans to *path* on the way out.

    ``.jsonl`` suffix → one span per line (both clocks preserved);
    anything else → a Chrome-trace JSON over the host clock, loadable in
    ``chrome://tracing`` / Perfetto.  Used by ``batch --trace`` and
    ``fuzz --trace`` so a slow job or a failing finding ships with its
    trace; replay the run with the recorded seeds to regenerate it.
    """
    if not path:
        yield
        return
    from repro.obs import Tracer, use_tracer, write_chrome_trace, write_jsonl

    tracer = Tracer(name=path)
    try:
        with use_tracer(tracer):
            yield
    finally:
        if path.endswith(".jsonl"):
            write_jsonl(tracer, path)
        else:
            write_chrome_trace(tracer, path, clock="host")
        print(f"trace: wrote {len(tracer.finished())} span(s) to {path}")


def _load_circuit(spec: str, scale: float) -> BooleanNetwork:
    from repro.circuits import load_circuit

    try:
        return load_circuit(spec, scale=scale)
    except ValueError as exc:
        # UnknownCircuitError, scale-on-netlist-path, or a parse error in
        # the netlist file itself: all are usage errors, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_factor(args: argparse.Namespace) -> int:
    net = _load_circuit(args.circuit, args.scale)
    initial = net.literal_count()
    cache_note: Optional[str] = None
    if args.cache:
        from repro.service import FactorizationJob, get_default_engine

        engine = get_default_engine()
        job = FactorizationJob(
            circuit=args.circuit, network=net, algorithm=args.algorithm,
            procs=args.procs, searcher=args.searcher, scale=args.scale,
        )
        res = engine.execute(job)
        if not res.ok:
            if res.exception is not None:
                raise res.exception
            raise SystemExit(f"job failed: {res.error}")
        cache_note = "hit" if res.cache_hit else "miss"
        final = res.final_lc
        if args.algorithm == "sequential":
            work, speed = res.payload.network, None
        else:
            base = engine.execute(FactorizationJob(
                circuit=args.circuit, network=net, algorithm="baseline",
                scale=args.scale,
            ))
            work = res.payload.network
            speed = (
                base.payload.time / res.payload.parallel_time
                if res.payload.parallel_time else None
            )
    elif args.algorithm == "sequential":
        from repro.rectangles import kernel_extract

        work = net.copy()
        res = kernel_extract(work, searcher=args.searcher)
        final, speed = res.final_lc, None
    else:
        from repro.parallel import (
            independent_kernel_extract,
            lshaped_kernel_extract,
            replicated_kernel_extract,
            sequential_baseline,
        )

        runner = {
            "replicated": replicated_kernel_extract,
            "independent": independent_kernel_extract,
            "lshaped": lshaped_kernel_extract,
        }[args.algorithm]
        result = runner(net, args.procs)
        base = sequential_baseline(net)
        final = result.final_lc
        speed = base.time / result.parallel_time if result.parallel_time else None
        work = result.network
    print(f"circuit      : {net.name}")
    print(f"algorithm    : {args.algorithm}" + (
        f" ({args.procs} processors)" if args.algorithm != "sequential" else ""
    ))
    print(f"literal count: {initial} -> {final} "
          f"(ratio {final / initial:.3f})")
    if speed is not None:
        print(f"speedup      : {speed:.2f}x over the sequential baseline")
    if cache_note is not None:
        print(f"cache        : {cache_note}")
    if args.output:
        from repro.network.eqn import save_eqn

        save_eqn(work, args.output)
        print(f"written      : {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import ProfileMismatch, profile_run
    from repro.rectangles.search import BudgetExceeded

    net = _load_circuit(args.circuit, args.scale)
    try:
        prof = profile_run(net, algorithm=args.algorithm, nprocs=args.procs)
    except BudgetExceeded:
        print(
            f"error: {args.algorithm} exceeded the search budget on "
            f"{net.name} (paper: DNF); try a smaller circuit or --scale",
            file=sys.stderr,
        )
        return 3
    except ProfileMismatch as exc:
        print(f"error: profile self-check failed: {exc}", file=sys.stderr)
        return 4
    if args.format == "table":
        output = prof.render()
    elif args.format == "chrome":
        output = prof.chrome_trace(clock=args.clock)
    elif args.format == "jsonl":
        output = prof.jsonl()
    else:  # json
        import json

        output = json.dumps(prof.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output)
            if not output.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.out} ({len(prof.tracer.finished())} span(s))")
    else:
        print(output)
    return 0


def _cmd_run_table(args: argparse.Namespace) -> int:
    from repro.harness import experiments

    runner = {
        "table1": experiments.run_table1,
        "table2": experiments.run_table2,
        "table3": experiments.run_table3,
        "table4": experiments.run_table4,
        "table6": experiments.run_table6,
        "eq3": experiments.run_eq3,
    }[args.table]
    print(runner(scale=args.scale).render())
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    net = _load_circuit(args.circuit, args.scale)
    from repro.rectangles import build_kc_matrix

    mat = build_kc_matrix(net)
    print(f"circuit : {net.name}")
    print(f"inputs  : {len(net.inputs)}")
    print(f"nodes   : {len(net.nodes)}")
    print(f"outputs : {len(net.outputs)}")
    print(f"literals: {net.literal_count()}")
    print(f"KC matrix: {mat.num_rows} rows x {mat.num_cols} cols, "
          f"{mat.num_entries} entries (sparsity {mat.sparsity():.4f})")
    if args.factored:
        from repro.algebra.factor import network_factored_literal_count

        print(f"factored literals: {network_factored_literal_count(net)}")
    return 0


def _parse_manifest_entries(text: str) -> List[dict]:
    """Parse a batch manifest: JSON (list or {"jobs": [...]}) or lines.

    The line format is ``CIRCUIT ALGORITHM [key=value ...]`` with ``#``
    comments; values are coerced to int/float where they parse as such.
    """
    import json

    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if data is not None:
        entries = data.get("jobs", []) if isinstance(data, dict) else data
        if not isinstance(entries, list):
            raise SystemExit("manifest JSON must be a list or {'jobs': [...]}")
        return [dict(e) for e in entries]
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise SystemExit(
                f"manifest line {lineno}: expected 'CIRCUIT ALGORITHM "
                f"[key=value ...]', got {raw!r}"
            )
        entry: dict = {"circuit": tokens[0], "algorithm": tokens[1]}
        for token in tokens[2:]:
            if "=" not in token:
                raise SystemExit(
                    f"manifest line {lineno}: expected key=value, got {token!r}"
                )
            key, value = token.split("=", 1)
            for conv in (int, float):
                try:
                    value = conv(value)
                    break
                except ValueError:
                    continue
            entry[key] = value
        entries.append(entry)
    return entries


def _manifest_jobs(entries: List[dict], default_scale: float) -> List:
    """Fresh job objects from manifest entries (jobs are single-use)."""
    from repro.service import FactorizationJob

    jobs = []
    known = {
        "circuit", "algorithm", "procs", "searcher", "scale", "priority",
        "deadline", "node_budget", "max_retries", "allow_degrade",
    }
    for entry in entries:
        kwargs = {k: v for k, v in entry.items() if k in known}
        kwargs.setdefault("scale", default_scale)
        params = {k: v for k, v in entry.items() if k not in known}
        try:
            jobs.append(FactorizationJob(params=params, **kwargs))
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad manifest entry {entry!r}: {exc}") from None
    return jobs


def _cmd_batch(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.service import FactorizationEngine

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    try:
        text = pathlib.Path(args.manifest).read_text()
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    entries = _parse_manifest_entries(text)
    if not entries:
        print("error: manifest contains no jobs", file=sys.stderr)
        return 2
    engine = FactorizationEngine(workers=args.workers, use_cache=args.cache)
    reports = []
    with _trace_to_file(args.trace):
        for n in range(args.repeat):
            report = engine.run_batch(_manifest_jobs(entries, args.scale))
            reports.append(report)
            if args.repeat > 1:
                print(f"--- pass {n + 1}/{args.repeat} ---")
            print(report.render())
            print()
    if args.repeat > 1:
        times = ", ".join(f"{r.wall_time:.3f}s" for r in reports)
        print(f"pass wall times: {times}")
    print("metrics:")
    print(engine.metrics.render())
    if args.json:
        payload = {"passes": [r.to_dict() for r in reports]}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if all(r.ok for r in reports[-1].results) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (factor / batch / run-table / info / …)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel algebraic factorization (Roy & Banerjee, IPPS 1997)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the named circuits (MCNC stand-ins + 'example') and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_factor = sub.add_parser("factor", help="factor one circuit")
    p_factor.add_argument("circuit")
    p_factor.add_argument(
        "--algorithm",
        choices=["sequential", "replicated", "independent", "lshaped"],
        default="sequential",
    )
    p_factor.add_argument("--searcher", choices=["pingpong", "exhaustive"],
                          default="pingpong")
    p_factor.add_argument("--procs", type=int, default=4)
    p_factor.add_argument("--scale", type=float, default=1.0)
    p_factor.add_argument("--output", help="write result as .eqn")
    p_factor.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="route through the shared result cache (repro.service)",
    )
    p_factor.set_defaults(fn=_cmd_factor)

    p_batch = sub.add_parser(
        "batch", help="run a manifest of jobs through the batch engine"
    )
    p_batch.add_argument("manifest", help="JSON or line-format job manifest")
    p_batch.add_argument("--workers", type=int, default=4)
    p_batch.add_argument("--repeat", type=int, default=1,
                         help="run the manifest K times (cache warm-up demo)")
    p_batch.add_argument("--scale", type=float, default=1.0,
                         help="default scale for entries that omit one")
    p_batch.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="enable/disable the content-addressed result cache",
    )
    p_batch.add_argument("--json", help="dump results + metrics as JSON")
    p_batch.add_argument(
        "--trace",
        help="record a span trace of the batch (.jsonl → span-per-line, "
             "otherwise Chrome-trace JSON)",
    )
    p_batch.set_defaults(fn=_cmd_batch)

    p_profile = sub.add_parser(
        "profile",
        help="Table-1-style phase/percent breakdown of one factorization run",
    )
    p_profile.add_argument("circuit")
    p_profile.add_argument(
        "--algorithm",
        choices=["sequential", "replicated", "independent", "lshaped"],
        default="lshaped",
    )
    p_profile.add_argument("--procs", type=int, default=4)
    p_profile.add_argument("--scale", type=float, default=1.0)
    p_profile.add_argument(
        "--format", choices=["table", "chrome", "jsonl", "json"],
        default="table",
        help="table: phase + per-processor tables; chrome: chrome://tracing "
             "JSON; jsonl: span-per-line; json: the full profile payload",
    )
    p_profile.add_argument(
        "--clock", choices=["virtual", "host"], default="virtual",
        help="which clock the chrome export uses (default: virtual)",
    )
    p_profile.add_argument("--out", help="write the output here instead of stdout")
    p_profile.set_defaults(fn=_cmd_profile)

    p_table = sub.add_parser("run-table", help="regenerate a paper table")
    p_table.add_argument(
        "table",
        choices=["table1", "table2", "table3", "table4", "table6", "eq3"],
    )
    p_table.add_argument("--scale", type=float, default=1.0)
    p_table.set_defaults(fn=_cmd_run_table)

    p_info = sub.add_parser("info", help="circuit statistics")
    p_info.add_argument("circuit")
    p_info.add_argument("--scale", type=float, default=1.0)
    p_info.add_argument("--factored", action="store_true",
                        help="also report factored-form literal count")
    p_info.set_defaults(fn=_cmd_info)

    p_stats = sub.add_parser(
        "stats", help="one-line SIS-style stats (depth, fanin/out, lits)"
    )
    p_stats.add_argument("circuit")
    p_stats.add_argument("--scale", type=float, default=1.0)
    p_stats.add_argument("--no-factored", action="store_true",
                         help="skip the (slow) factored-form count")
    p_stats.set_defaults(fn=_cmd_stats)

    p_cmp = sub.add_parser(
        "compare", help="run all three parallel algorithms side by side"
    )
    p_cmp.add_argument("circuit")
    p_cmp.add_argument("--scale", type=float, default=1.0)
    p_cmp.add_argument("--procs", default="2,4,6",
                       help="comma-separated processor counts")
    p_cmp.add_argument("--json", help="also dump results as JSON to this path")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz of every factorization path (audits on)",
    )
    p_fuzz.add_argument("--runs", type=int, default=25,
                        help="number of random networks to generate")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed (run i uses seed+i)")
    p_fuzz.add_argument("--paths",
                        help="comma-separated path names (default: all)")
    p_fuzz.add_argument("--family",
                        help="pin one generator family (default: rotate all)")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="minimize each failing network before reporting")
    p_fuzz.add_argument("--repro-dir",
                        help="write shrunk repros here as .eqn/.json pairs "
                             "(implies --shrink)")
    p_fuzz.add_argument("--vectors", type=int, default=256,
                        help="Monte-Carlo vectors when >8 primary inputs")
    p_fuzz.add_argument("--faults", action="store_true",
                        help="also re-run the machine-backed paths under "
                             "random crash+drop fault plans (chaos mode)")
    p_fuzz.add_argument("--fault-seed", type=int, default=0,
                        help="base seed for the per-run fault plans")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    p_fuzz.add_argument(
        "--trace",
        help="record a span trace of the campaign (.jsonl → span-per-line, "
             "otherwise Chrome-trace JSON); spans carry run/seed/path",
    )
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_chaos = sub.add_parser(
        "chaos",
        help="factor one circuit under an injected fault plan and verify "
             "detection, recovery, and functional equivalence "
             "(--serve: process-level faults against a real serve stack)",
    )
    p_chaos.add_argument("circuit", nargs="?",
                         help="circuit to factor (machine-level mode; "
                              "omitted with --serve)")
    p_chaos.add_argument(
        "--plan",
        help="fault spec, e.g. 'crash:1@3,drop:5' — or with --serve e.g. "
             "'gw-restart@2,cache-corrupt:2' (default: a random plan "
             "derived from --seed)",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="injector seed (and random-plan seed)")
    p_chaos.add_argument(
        "--algorithm", choices=["replicated", "independent", "lshaped"],
        default="lshaped",
    )
    p_chaos.add_argument("--procs", type=int, default=4)
    p_chaos.add_argument("--scale", type=float, default=1.0)
    p_chaos.add_argument("--vectors", type=int, default=256,
                         help="Monte-Carlo equivalence vectors")
    p_chaos.add_argument(
        "--trace",
        help="record a span trace (fault:*/recovery:* spans included)",
    )
    p_chaos.add_argument(
        "--serve", action="store_true",
        help="serve-level mode: boot a real `repro serve` subprocess per "
             "run, inject process faults (gateway kill -9, worker kills, "
             "disk-full, cache corruption, slow shards) and verify zero "
             "accepted-job loss and fault-free-equivalent answers",
    )
    p_chaos.add_argument("--runs", type=int, default=3,
                         help="[--serve] chaos bursts (run i uses seed+i)")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="[--serve] worker processes per instance")
    p_chaos.add_argument("--requests", type=int, default=8,
                         help="[--serve] requests per burst")
    p_chaos.add_argument("--timeout", type=float, default=120.0,
                         help="[--serve] per-run drain deadline, seconds")
    p_chaos.add_argument("--json", action="store_true",
                         help="[--serve] emit the JSON report")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_fsck = sub.add_parser(
        "fsck",
        help="scan a serving cache directory (every DiskCache schema + "
             "the job journal) for corrupt entries, orphaned temp files, "
             "and torn journal records",
    )
    p_fsck.add_argument("cache_dir", help="the --cache-dir to scan")
    p_fsck.add_argument("--repair", action="store_true",
                        help="quarantine corrupt entries, delete orphaned "
                             "temp files, rewrite torn journal segments")
    p_fsck.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of the table")
    p_fsck.set_defaults(fn=_cmd_fsck)

    p_serve = sub.add_parser(
        "serve",
        help="run the sharded HTTP serving tier (asyncio gateway in front "
             "of N factorization worker processes)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8337,
                         help="listen port (0 = pick a free one)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker processes (content-hash shards)")
    p_serve.add_argument("--cache-dir",
                         help="persistent result-cache directory shared by "
                              "all workers (omit for no persistence)")
    p_serve.add_argument("--max-inflight", type=int, default=64,
                         help="distinct in-flight computations before 429")
    p_serve.add_argument("--rate-limit", type=float,
                         help="per-tenant sustained requests/second "
                              "(default: unlimited)")
    p_serve.add_argument("--burst", type=float,
                         help="per-tenant burst size (default: 2x rate)")
    p_serve.add_argument("--flight-dir",
                         help="flight-recorder dump directory (default: "
                              "<cache-dir>/flight when --cache-dir is set)")
    p_serve.add_argument("--no-trace", action="store_true",
                         help="disable per-request distributed tracing")
    p_serve.add_argument("--no-journal", action="store_true",
                         help="disable the write-ahead job journal "
                              "(accepted jobs will not survive a crash)")
    p_serve.add_argument("--cache-max-bytes", type=int,
                         help="byte budget for the persistent cache; "
                              "least-recently-used entries are evicted "
                              "(default: unbounded)")
    p_serve.add_argument("--max-footprint", type=int,
                         help="admission control: estimated KC-matrix "
                              "cells in flight before fresh computations "
                              "are shed with 429 (default: unbounded)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="open-loop (Poisson) load generator against a running gateway",
    )
    p_load.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8337")
    p_load.add_argument("--rate", type=float, default=20.0,
                        help="mean offered arrivals/second")
    p_load.add_argument("--duration", type=float, default=5.0,
                        help="seconds of offered load")
    p_load.add_argument("--tenants", type=int, default=1,
                        help="round-robin synthetic tenant count")
    p_load.add_argument("--seed", type=int, default=0,
                        help="arrival-process seed (deterministic schedule)")
    p_load.add_argument("--workload",
                        help="JSONL file of request bodies (default: a "
                             "small mixed workload on the example circuit)")
    p_load.add_argument("--timeout", type=float, default=30.0,
                        help="per-request client timeout in seconds")
    p_load.add_argument("--json", help="also dump the report as JSON here")
    p_load.set_defaults(fn=_cmd_loadgen)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a gateway's /metrics",
    )
    p_top.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8337")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    p_top.set_defaults(fn=_cmd_top)

    p_flight = sub.add_parser(
        "flight",
        help="inspect flight-recorder dump artifacts (.flight.jsonl)",
    )
    flight_sub = p_flight.add_subparsers(dest="flight_command", required=True)
    p_flight_show = flight_sub.add_parser(
        "show", help="render one dump as a timeline")
    p_flight_show.add_argument("file", help="path to a .flight.jsonl dump")
    p_flight_show.set_defaults(fn=_cmd_flight_show)

    p_trace = sub.add_parser(
        "trace",
        help="work with distributed request traces from a gateway",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_fetch = trace_sub.add_parser(
        "fetch", help="fetch one job's merged cross-process trace")
    p_trace_fetch.add_argument("url", help="gateway base URL")
    p_trace_fetch.add_argument("job_id", help="job id (from a factor response)")
    p_trace_fetch.add_argument("--chrome", action="store_true",
                               help="fetch Chrome-trace format "
                                    "(load in Perfetto)")
    p_trace_fetch.add_argument("-o", "--out",
                               help="write JSON here instead of a summary "
                                    "to stdout")
    p_trace_fetch.set_defaults(fn=_cmd_trace_fetch)
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    import json

    from repro.harness.tables import Table
    from repro.parallel import (
        independent_kernel_extract,
        lshaped_kernel_extract,
        replicated_kernel_extract,
        sequential_baseline,
    )
    from repro.rectangles.search import BudgetExceeded

    net = _load_circuit(args.circuit, args.scale)
    procs = [int(p) for p in args.procs.split(",")]
    base = sequential_baseline(net)
    table = Table(
        title=f"parallel algorithms on {net.name} "
              f"(sequential: {base.result.final_lc} literals)",
        columns=["algorithm", "procs", "final LC", "speedup"],
    )
    records = []
    try:
        repl1 = replicated_kernel_extract(net, 1)
        for p in procs:
            r = replicated_kernel_extract(net, p)
            r.sequential_time = repl1.parallel_time
            table.add_row("replicated", p, r.final_lc, r.speedup)
            records.append(r.to_dict())
    except BudgetExceeded:
        table.add_row("replicated", "—", None, None)
        table.add_note("replicated: search budget exceeded (paper: DNF)")
    for name, runner in (
        ("independent", independent_kernel_extract),
        ("lshaped", lshaped_kernel_extract),
    ):
        for p in procs:
            r = runner(net, p)
            r.sequential_time = base.time
            table.add_row(name, p, r.final_lc, r.speedup)
            records.append(r.to_dict())
    print(table.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.harness.stats import collect_stats

    net = _load_circuit(args.circuit, args.scale)
    print(collect_stats(net, with_factored=not args.no_factored).render())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import FuzzConfig, run_fuzz

    def split(opt: Optional[str]) -> Optional[List[str]]:
        return [t.strip() for t in opt.split(",") if t.strip()] if opt else None

    config = FuzzConfig(
        runs=args.runs,
        seed=args.seed,
        paths=split(args.paths),
        family=args.family,
        shrink=args.shrink or bool(args.repro_dir),
        repro_dir=args.repro_dir,
        vectors=args.vectors,
        faults=args.faults,
        fault_seed=args.fault_seed,
        progress=None if args.quiet else print,
    )
    try:
        with _trace_to_file(args.trace):
            report = run_fuzz(config)
    except ValueError as exc:  # unknown path/family name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    """Serve-level chaos: process faults against a real serve stack.

    Exit code 0 means every run kept all three invariants: zero
    accepted-job loss across kill -9 restarts, every answer equivalent
    to a fault-free reference, and bounded worker respawns.
    """
    import json as _json

    from repro.faults import FaultPlan
    from repro.serve.chaos import (
        ServeChaosConfig,
        render_serve_chaos_report,
        run_serve_chaos,
    )

    if args.circuit:
        print("error: --serve takes no circuit argument", file=sys.stderr)
        return 2
    if args.plan:
        try:
            plan = FaultPlan.parse(args.plan)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not plan.serve_events():
            print("error: --serve needs serve-level events (gw-restart, "
                  "worker-kill, disk-full, cache-corrupt, worker-slow)",
                  file=sys.stderr)
            return 2
    config = ServeChaosConfig(
        seed=args.seed, runs=args.runs, workers=args.workers,
        requests=args.requests, plan=args.plan, timeout=args.timeout,
    )
    report = run_serve_chaos(config)
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        print(render_serve_chaos_report(report))
    return 0 if report["ok"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one parallel factorization under faults; verify the recovery.

    Exit code 0 means every injected fault was detected and answered by
    a recovery action, the recovered network is functionally equivalent
    to the input, and the final literal count stays within 5% of the
    fault-free run of the same algorithm.
    """
    if args.serve:
        return _cmd_chaos_serve(args)
    if not args.circuit:
        print("error: a circuit is required (or pass --serve)",
              file=sys.stderr)
        return 2
    from repro.faults import FaultInjector, FaultPlan
    from repro.network.simulate import random_equivalence_check
    from repro.parallel import (
        independent_kernel_extract,
        lshaped_kernel_extract,
        replicated_kernel_extract,
    )

    net = _load_circuit(args.circuit, args.scale)
    if args.plan:
        try:
            plan = FaultPlan.parse(args.plan)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        plan = FaultPlan.random_single(args.seed, args.procs)
    if plan.serve_events():
        print("error: the plan contains serve-level events "
              f"({', '.join(ev.kind for ev in plan.serve_events())}); "
              "run them with --serve", file=sys.stderr)
        return 2
    if plan.is_empty():
        print("error: the fault plan is empty; nothing to inject",
              file=sys.stderr)
        return 2
    runner = {
        "replicated": replicated_kernel_extract,
        "independent": independent_kernel_extract,
        "lshaped": lshaped_kernel_extract,
    }[args.algorithm]
    injector = FaultInjector(plan, seed=args.seed)
    with _trace_to_file(args.trace):
        baseline = runner(net, args.procs)
        chaos = runner(net, args.procs, faults=injector)
    summary = injector.summary()
    print(f"circuit      : {net.name}")
    print(f"algorithm    : {args.algorithm} ({args.procs} processors)")
    print(f"plan         : {summary['plan']} (seed {args.seed})")
    print(f"injected     : {summary['injected'] or '(nothing fired)'}")
    print(f"recovered    : {summary['recovered'] or '(nothing to recover)'}")
    if summary["dead"]:
        print(f"crashed pids : {summary['dead']}")
    unrecovered = [r for r in injector.unrecovered() if r.kind != "slow"]
    equivalent = random_equivalence_check(
        net, chaos.network, vectors=args.vectors, outputs=net.outputs,
    )
    base_lc, chaos_lc = baseline.final_lc, chaos.final_lc
    within = base_lc == 0 or chaos_lc - base_lc <= max(base_lc * 0.05, 5)
    print(f"literal count: fault-free {base_lc}, under faults {chaos_lc}"
          + ("" if within else "  (> 5% worse)"))
    print(f"equivalence  : {'ok' if equivalent else 'FAILED'}")
    if unrecovered:
        print("unrecovered  :")
        for rec in unrecovered:
            print(f"  {rec.kind}@op{rec.op} pid={rec.pid} {rec.detail}")
    else:
        print("unrecovered  : none")
    ok = equivalent and within and not unrecovered
    print(f"verdict      : {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Scan (and optionally repair) a serving cache directory.

    Exit code 0 means the tree is clean (or --repair fixed everything),
    1 means issues remain, 2 means the directory is not a cache root.
    """
    import json as _json
    import os

    from repro.serve import fsck_scan, render_fsck_report

    if not os.path.isdir(args.cache_dir):
        print(f"error: {args.cache_dir!r} is not a directory",
              file=sys.stderr)
        return 2
    report = fsck_scan(args.cache_dir, repair=args.repair)
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        print(render_fsck_report(report))
    return 0 if report["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the gateway + workers and serve until interrupted."""
    import asyncio
    import signal

    from repro.serve import Gateway, GatewayConfig

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    config = GatewayConfig(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=args.cache_dir, max_inflight=args.max_inflight,
        rate_limit=args.rate_limit, burst=args.burst,
        flight_dir=args.flight_dir,
        trace_requests=not args.no_trace,
        journal=not args.no_journal,
        cache_max_bytes=args.cache_max_bytes,
        max_footprint=args.max_footprint,
    )

    async def _serve() -> int:
        gateway = Gateway(config)
        await gateway.start()
        if not await gateway.wait_ready(timeout=15.0):
            print("error: workers failed to start", file=sys.stderr)
            await gateway.stop()
            return 1
        print(f"repro serve: listening on {gateway.url} "
              f"({config.workers} worker process(es))")
        print(f"  POST {gateway.url}/v1/factor")
        print(f"  GET  {gateway.url}/v1/jobs/<id>[?watch=1]")
        if config.trace_requests:
            print(f"  GET  {gateway.url}/v1/jobs/<id>/trace[?format=chrome]")
        print(f"  GET  {gateway.url}/healthz | /readyz | "
              "/metrics[?format=prom]")
        if config.cache_dir:
            print(f"  persistent cache: {config.cache_dir}")
        if gateway.flight_dir:
            print(f"  flight dumps: {gateway.flight_dir}")
        # Explicit handlers instead of relying on KeyboardInterrupt: a
        # process started as a background job of a non-interactive shell
        # (CI scripts) inherits SIGINT ignored, which Python honors — so
        # Ctrl-C semantics alone would make `kill -INT` a silent no-op
        # there.  This also gives SIGTERM the same graceful drain.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, OSError, RuntimeError):
                pass  # loop without POSIX signal support
        serving = asyncio.ensure_future(gateway.serve_forever())
        stopper = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serving, stopper}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (serving, stopper):
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            await gateway.stop()
            print("repro serve: stopped (workers drained)")
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Fire one open-loop run at a gateway; non-zero exit on failures."""
    import asyncio
    import json

    from repro.serve import LoadgenConfig, load_workload_file, run_loadgen

    if args.rate <= 0 or args.duration <= 0:
        print("error: --rate and --duration must be > 0", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print("error: --tenants must be >= 1", file=sys.stderr)
        return 2
    config = LoadgenConfig(
        url=args.url, rate=args.rate, duration=args.duration,
        tenants=args.tenants, seed=args.seed, timeout=args.timeout,
    )
    if args.workload:
        try:
            config.workload = load_workload_file(args.workload)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        report = asyncio.run(run_loadgen(config))
    except KeyboardInterrupt:
        return 1
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if report.failed == 0 else 1


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll a gateway's /metrics and render the live dashboard."""
    import asyncio

    from repro.serve.top import run_top

    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    try:
        return asyncio.run(run_top(
            args.url, interval=args.interval,
            iterations=1 if args.once else None,
        ))
    except KeyboardInterrupt:
        return 0


def _cmd_flight_show(args: argparse.Namespace) -> int:
    """Render one flight-recorder dump as a human-readable timeline."""
    from repro.obs.flight import load_flight, render_flight

    try:
        doc = load_flight(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_flight(doc))
    return 0


def _cmd_trace_fetch(args: argparse.Namespace) -> int:
    """Fetch a job's merged cross-process trace from a gateway."""
    import asyncio
    import json

    from repro.serve.httpio import http_json

    url = (args.url.rstrip("/") + f"/v1/jobs/{args.job_id}/trace"
           + ("?format=chrome" if args.chrome else ""))
    try:
        status, doc = asyncio.run(http_json("GET", url))
    except (OSError, ConnectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status != 200 or doc is None:
        detail = (doc or {}).get("error", f"HTTP {status}")
        print(f"error: {detail}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.out}")
        return 0
    if args.chrome:
        print(json.dumps(doc))
        return 0
    print(f"trace {doc['trace_id']}  job {doc['job_id']}  "
          f"{doc['duration_s'] * 1000.0:.1f}ms  "
          f"procs: {', '.join(doc['procs'])}")
    depth_of = {}
    for sp in doc["spans"]:
        depth_of[sp["id"]] = depth_of.get(sp.get("parent"), -1) + 1
    for sp in doc["spans"]:
        indent = "  " * depth_of[sp["id"]]
        width = (sp["t1"] - sp["t0"]) * 1000.0
        mark = " !" if sp.get("error") else ""
        print(f"  {sp['t0'] * 1000.0:9.3f}ms {width:9.3f}ms  "
              f"{indent}{sp['name']} [{sp['proc']}]{mark}")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        from repro.circuits import available_circuits

        for name in available_circuits():
            print(name)
        return 0
    if args.command is None:
        parser.error("a command is required (or --list)")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
