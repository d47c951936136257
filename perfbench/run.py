#!/usr/bin/env python3
"""Whole-extraction benchmark: sequential, simulated-parallel and served.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``seq-pingpong``   ``kernel_extract`` with the default ping-pong searcher;
- ``seq-exhaustive`` the same circuits with ``searcher="exhaustive"``;
- ``parallel-sim``   ``lshaped_kernel_extract`` and
  ``independent_kernel_extract`` on 4 simulated processors.

Each pass runs in a fresh process (``perfbench.engine``); passes repeat
until ``--seconds`` of timed work is done, and there are at least
``MIN_PASSES``.  ``setup_s`` is the median of ``SETUPS`` set-ups.  Every answer is checked
exactly (``perfbench.collapse``).  ``--trace 1`` adds one traced pass
and reports the per-layer metrics instead of the end-to-end ones; the
traced run of ``seq-pingpong`` also serves its circuits from a real
``repro serve`` (``perfbench.serve``) for the serve-tier layers.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record of a
run (every metric, every pass, the stamp) is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: perfbench.engine.WORKLOADS, named here so arguments parse before the
#: package is importable.
WORKLOADS = ("seq-pingpong", "seq-exhaustive", "parallel-sim")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "host_s": "s",
    "job_p50_ms": "ms",
    "quality_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer a workload
#: does not exercise reads 0 there.
PER_LAYER = {
    "algebra.kernels.self_s": "s",
    "algebra.kernels.calls": "count",
    "rectangles.kcmatrix.self_s": "s",
    "rectangles.kcmatrix.calls": "count",
    "rectangles.kcmatrix.entries": "count",
    "rectangles.bitview.self_s": "s",
    "rectangles.bitview.calls": "count",
    "rectangles.search.self_s": "s",
    "rectangles.search.calls": "count",
    "rectangles.search.pruned_subtrees": "count",
    "rectangles.memo.self_s": "s",
    "rectangles.memo.hits": "count",
    "rectangles.memo.misses": "count",
    "rectangles.memo.hit_ratio": "ratio",
    "rectangles.cover.self_s": "s",
    "rectangles.cover.iterations": "count",
    "parallel.lshaped.self_s": "s",
    "partition.self_s": "s",
    "machine.proc_imbalance": "ratio",
    "machine.virtual_time": "units",
    "machine.virtual_speedup": "ratio",
    "unattributed_s": "s",
    "layer_sum_gap": "ratio",
    "trace_overhead": "ratio",
    "serve.cold_ms_p50": "ms",
    "serve.engine_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.hit_ms_p50": "ms",
    "serve.gateway.lru_hit_ratio": "ratio",
    "serve.diskcache.hit_ratio": "ratio",
    "service.cache.hit_ratio": "ratio",
    "serve.gateway.coalesced": "count",
    "serve.gateway.dispatched": "count",
    "serve.gateway.rejected": "count",
    "serve.durability.appends": "count",
    "serve.durability.fsyncs": "count",
}

#: The workload whose traced run also serves its circuits: a served
#: request runs sequential ping-pong extraction, the path of its jobs.
SERVED_WORKLOAD = "seq-pingpong"
#: Set-ups measured per run; the passes' own set-ups count, and
#: set-up-only processes make up the rest.
SETUPS = 5
#: Passes per run at least, so answers are always compared across
#: processes and ``host_s`` is a median of several.
MIN_PASSES = 2
#: Layers a workload's jobs call on every circuit.  A traced run in which
#: one records no calls fails: the wrapper missed it (say, the function
#: is reached through a closure or a table), and its time would have gone
#: to ``unattributed_s`` unnoticed.
SEQUENTIAL_LAYERS = ("algebra.kernels", "rectangles.kcmatrix", "rectangles.bitview",
                     "rectangles.search", "rectangles.cover")
REQUIRED_LAYERS = {
    "seq-pingpong": SEQUENTIAL_LAYERS,
    "seq-exhaustive": SEQUENTIAL_LAYERS,
    "parallel-sim": SEQUENTIAL_LAYERS + ("parallel.lshaped", "partition"),
}
#: Times the served replay sends every body.  The count is fixed, not the
#: duration, because a server's per-request cost grows with the requests
#: it has served (hit p50 ~8.7 ms -> ~10 ms over ~4000 requests).
HIT_ROUNDS = 5


class Failures:
    """attempted / failed tally plus the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies: List[float]) -> Dict[str, float]:
    """Percentiles for the run record, with their sample count."""
    out = {f"p{p}": percentile(latencies, p) for p in (50, 75, 90, 99)}
    out["count"] = len(latencies)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stamp(seed: int, workload: str) -> Dict[str, Any]:
    """Where and on what a run was made."""
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository names the code measured.
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "git_sha": sha,
        "src_digest": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
    }


def src_digest() -> str:
    """Digest of every file under ``src/``: names the code measured even
    where the checkout is not a git repository."""
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------

def engine_pass(workload: str, seed: int, *flags: str) -> Dict[str, Any]:
    """One ``perfbench.engine`` process; *flags* are its options."""
    cmd = [sys.executable, "-m", "perfbench.engine", workload, str(seed), *flags]
    out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"engine pass failed:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_engine_passes(passes: List[Dict[str, Any]], fails: Failures) -> None:
    """Every job's answer is certified and identical in every pass."""
    reference = passes[0]["jobs"]
    for p in passes:
        for job, ref in zip(p["jobs"], reference):
            name = f"{job['circuit']}/{job['job']}"
            if job["problems"]:
                fails.record(False, f"{name}: {job['problems'][0]}")
            elif (job["answer_digest"], job["final_lc"], job["input_digest"]) != (
                    ref["answer_digest"], ref["final_lc"], ref["input_digest"]):
                fails.record(False, f"{name}: answer differs between passes")
            else:
                fails.record(True)


def run_engine(workload: str, seed: int, seconds: float, trace: bool,
               fails: Failures) -> Tuple[Dict[str, float], Dict[str, Any]]:
    # As many passes as fill --seconds, judged by the first pass.
    passes = [engine_pass(workload, seed)]
    first = sum(j["host_s"] for j in passes[0]["jobs"])
    while len(passes) < max(MIN_PASSES, round(seconds / first)):
        passes.append(engine_pass(workload, seed))
    setups = [p["setup_s"] for p in passes] + [
        engine_pass(workload, seed, "--setup-only")["setup_s"]
        for _ in range(SETUPS - len(passes))]
    traced = engine_pass(workload, seed, "--trace") if trace else None
    check_engine_passes(passes + ([traced] if traced else []), fails)

    jobs = passes[0]["jobs"]
    latencies = [j["host_s"] * j["scale"] * 1000.0 for p in passes for j in p["jobs"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "host_s": statistics.median(
            sum(j["host_s"] * j["scale"] for j in p["jobs"]) for p in passes),
        "job_p50_ms": percentile(latencies, 50),
        "quality_ratio": ratio(sum(j["final_lc"] for j in jobs),
                               sum(j["initial_lc"] for j in jobs)),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if traced is not None:
        metrics.update(engine_layers(traced, REQUIRED_LAYERS[workload], fails))
        if workload == SERVED_WORKLOAD:
            metrics.update(serve_layers(seed, fails))
    detail = {"passes": passes, "traced": traced, "setups": setups,
              "samples": {"passes": len(passes), "setups": len(setups),
                          "jobs_per_pass": len(jobs),
                          "memo_hits": sum(j["memo_hits"] for p in passes for j in p["jobs"]),
                          "duplicate_cubes": sum(j["duplicate_cubes"] for j in jobs)},
              "latency_ms": latency_summary(latencies)}
    return metrics, detail


def engine_layers(traced: Dict[str, Any], required, fails: Failures) -> Dict[str, float]:
    jobs = traced["jobs"]
    out = trace_layers(traced["layers"], traced["untraced_s"], required, fails)
    out["rectangles.search.pruned_subtrees"] = sum(j["pruned"] for j in jobs)
    hits = sum(j["memo_hits"] for j in jobs)
    misses = sum(j["memo_misses"] for j in jobs)
    out["rectangles.memo.hits"] = hits
    out["rectangles.memo.misses"] = misses
    out["rectangles.memo.hit_ratio"] = ratio(hits, hits + misses)
    out["rectangles.cover.iterations"] = sum(j["iterations"] for j in jobs)
    clocks = [j["proc_clocks"] for j in jobs if j["proc_clocks"]]
    out["machine.proc_imbalance"] = ratio(
        sum(max(c) for c in clocks), sum(statistics.fmean(c) for c in clocks))
    virtual = sum(j["virtual_time"] for j in jobs)
    out["machine.virtual_time"] = virtual
    base = traced["baseline_virtual"]
    out["machine.virtual_speedup"] = ratio(sum(base[j["index"]] for j in jobs), virtual)
    return out


def trace_layers(report: Dict[str, Any], untraced_wall: float, required,
                 fails: Failures) -> Dict[str, float]:
    """Every per-layer metric at 0, then the ones a LayerClock report
    gives; a layer sum outside its tolerance, or a *required* layer that
    was never called, fails the run."""
    out: Dict[str, float] = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = report["self_s"].get(layer, 0.0)
        elif field == "calls":
            out[name] = report["calls"].get(layer, 0)
    out["rectangles.kcmatrix.entries"] = report["counters"].get("rectangles.kcmatrix.entries", 0)
    out["unattributed_s"] = report["unattributed_s"]
    out["layer_sum_gap"] = report["layer_sum_gap"]
    out["trace_overhead"] = ratio(report["wall_s"], untraced_wall)
    if not report["layer_sum_ok"]:
        fails.fail(f"layer sum off by {report['layer_sum_gap']:.2%} of traced wall")
    for layer in required:
        if not report["calls"].get(layer):
            fails.fail(f"layer {layer} recorded no calls")
    return out


# ----------------------------------------------------------------------
# The serve tier
# ----------------------------------------------------------------------

def answer_of(rec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    doc = rec["doc"]
    if rec["status"] != 200 or not isinstance(doc, dict) or doc.get("status") != "done":
        return None
    result = doc.get("result")
    return result if isinstance(result, dict) and "eqn" in result else None


def serve_layers(seed: int, fails: Failures) -> Dict[str, float]:
    """Serve the workload's circuits from a fresh ``repro serve`` with a
    fresh cache directory: a cold phase computes each once, a replay
    answers them again from the caches.  Every cold answer is certified
    and must equal the library's answer for the network the server parsed
    (literal ids, and so tie-breaks, follow the parse); every replayed
    answer must equal the cold one.  Returns the serve-tier layer metrics."""
    from perfbench import serve
    from perfbench.collapse import check_answer
    from perfbench.engine import job_calls, workload_circuits
    from repro.network.eqn import read_eqn, write_eqn

    texts = [write_eqn(net) for net in workload_circuits(SERVED_WORKLOAD, seed)]
    bodies = [json.dumps({"eqn": t, "include_network": True}).encode() for t in texts]
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="serve-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        with serve.Server(ROOT, scratch) as server:
            before = server.snapshot()
            cold, _ = serve.closed_loop(server.url, bodies, rounds=1)
            after_cold = server.snapshot()
            replay, _ = serve.closed_loop(server.url, bodies, rounds=HIT_ROUNDS)
            after_hit = server.snapshot()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    _, extract = job_calls(SERVED_WORKLOAD)[0]
    answers: Dict[int, Dict[str, Any]] = {}
    for rec in cold:
        i = rec["index"]
        result = answer_of(rec)
        if result is None:
            fails.record(False, f"served body {i}: HTTP {rec['status']} {str(rec['doc'])[:200]}")
            continue
        parsed = read_eqn(texts[i], name="inline")
        problems, _ = check_answer(parsed, read_eqn(result["eqn"]), result["final_lc"])
        library, initial, final = extract(parsed.copy())[:3]
        if (result["initial_lc"], result["final_lc"], result["eqn"]) != (
                initial, final, write_eqn(library)):
            problems.append("served answer differs from the library's")
        fails.record(not problems, f"served body {i}: {problems[:1]}")
        answers[i] = result
    for rec in replay:
        result, first = answer_of(rec), answers.get(rec["index"])
        same = result is not None and first is not None and (
            (result["eqn"], result["final_lc"]) == (first["eqn"], first["final_lc"]))
        fails.record(same, f"served body {rec['index']}: replayed answer differs from the cold one")

    cold_c, hit_c = serve.delta(after_cold, before), serve.delta(after_hit, after_cold)
    out = {
        "serve.cold_ms_p50": percentile([r["latency_s"] * 1000.0 for r in cold], 50),
        "serve.hit_ms_p50": percentile([r["latency_s"] * 1000.0 for r in replay], 50),
        "serve.gateway.lru_hit_ratio": ratio(
            hit_c["lru_hits"], hit_c["lru_hits"] + hit_c["lru_misses"]),
        "serve.diskcache.hit_ratio": ratio(
            hit_c["disk_hits"], hit_c["disk_hits"] + hit_c["disk_misses"]),
        "service.cache.hit_ratio": ratio(
            hit_c["service_hits"], hit_c["service_hits"] + hit_c["service_misses"]),
        "serve.gateway.coalesced": cold_c["coalesced"],
        "serve.gateway.dispatched": cold_c["dispatched"],
        "serve.gateway.rejected": cold_c["rejected"],
        "serve.durability.appends": cold_c["appends"],
        "serve.durability.fsyncs": cold_c["fsyncs"],
    }
    computed = [(r, answer_of(r)) for r in cold
                if answer_of(r) is not None and r["doc"].get("cache") == "computed"]
    if computed:
        out["serve.engine_ms_p50"] = percentile([a["elapsed"] * 1000.0 for _, a in computed], 50)
        out["serve.overhead_ms_p50"] = percentile(
            [(r["latency_s"] - a["elapsed"]) * 1000.0 for r, a in computed], 50)
    return out


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="whole-extraction benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Import perfbench as a package, not its files from the script's
    # directory (the first entry of sys.path).
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]

    # A SIGTERM unwinds like an exception, so every server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    fails = Failures()
    metrics, detail = run_engine(args.workload, args.seed, args.seconds, bool(args.trace), fails)

    names = PER_LAYER if args.trace else END_TO_END
    info = stamp(args.seed, args.workload)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(info))
    print(f"# samples {json.dumps(detail['samples'])}")
    for name, unit in names.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    error_rate = ratio(fails.failed, fails.attempted)
    print(f"  {'error_rate':<36} {error_rate:>16.6g} failed/attempted"
          f" ({fails.failed}/{fails.attempted})")
    for reason in fails.reasons:
        print(f"  failure: {reason}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"stamp": info, "metrics": metrics, "error_rate": error_rate,
              "attempted": fails.attempted, "failed": fails.failed,
              "failures": fails.reasons, "detail": detail}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
