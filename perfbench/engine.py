"""One measured pass of an engine workload, in a fresh process.

Run as ``python -m perfbench.engine WORKLOAD SEED [--trace | --setup-only]``
from the repository root with ``src`` on ``PYTHONPATH``; prints one JSON
document.  A pass sets up (:func:`set_up`: imports, lazy-import warm-up,
the workload's circuit set), then extracts every circuit once through the
public entry point, timing each call.  The process-wide rectangle memo is replaced by
an empty one before every call, so no timed call can be answered from a
search an earlier call made; the hits and misses each call makes on its
own memo are recorded.  After the timed loop every answer is checked
with :func:`perfbench.collapse.check_answer`.

``--trace`` also runs every job under :class:`perfbench.layers.LayerClock`
and afterwards the metered sequential baselines (see :func:`measure`);
``--setup-only`` sets up and reports the set-up time, nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

from perfbench import calibrate
from perfbench.inputs import ENGINE_SET, circuit_plan, circuit_set, make_circuit, network_digest

#: Simulated processors of the parallel-sim workload.
NPROCS = 4

#: workload -> (kind, circuits taken from each ENGINE_SET recipe).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "seq-pingpong": {"kind": "sequential", "searcher": "pingpong", "per_recipe": 16},
    "seq-exhaustive": {"kind": "sequential", "searcher": "exhaustive", "per_recipe": 16},
    "parallel-sim": {"kind": "parallel", "per_recipe": 12},
}


def workload_recipes(workload: str) -> List[Tuple[str, float, int]]:
    per = WORKLOADS[workload]["per_recipe"]
    return [(r, s, min(per, n)) for r, s, n in ENGINE_SET]


def workload_circuits(workload: str, seed: int) -> List:
    return circuit_set(seed, workload_recipes(workload))


def job_calls(workload: str):
    """The (label, call) pairs run on every circuit.  A call takes a
    network it may modify and returns (answer network, initial LC, final
    LC, virtual time, per-processor clocks or None, extractions).  A
    sequential job runs unmetered, as the CLI and the server run it, so
    its virtual time is None and its label is its searcher; a traced
    pass meters it separately (:func:`measure`)."""
    from repro.parallel import independent_kernel_extract, lshaped_kernel_extract
    from repro.rectangles import kernel_extract

    spec = WORKLOADS[workload]
    if spec["kind"] == "sequential":
        searcher = spec["searcher"]

        def sequential(work):
            res = kernel_extract(work, searcher=searcher)
            return work, res.initial_lc, res.final_lc, None, None, res.iterations

        return [(searcher, sequential)]

    def parallel(fn):
        def call(net):
            res = fn(net, NPROCS)
            return (res.network, res.initial_lc, res.final_lc, res.parallel_time,
                    res.proc_clocks, res.extractions)

        return call

    return [("lshaped", parallel(lshaped_kernel_extract)),
            ("independent", parallel(independent_kernel_extract))]


def timed_call(call, net, clock=None) -> Tuple[tuple, float, Dict[str, int]]:
    """Run one job on a fresh rectangle memo: (result, host seconds, the
    job's own memo hits and misses and pruned subtrees).  With *clock*,
    the call is traced."""
    from repro.rectangles.memo import GLOBAL_SEARCH_STATS, default_memo, install_default_memo

    install_default_memo(None)
    # kernel_extract rewrites its argument; the parallel entry points
    # copy it themselves.
    work = net.copy()
    pruned = GLOBAL_SEARCH_STATS.snapshot()["pruned_subtrees"]
    with clock if clock is not None else contextlib.nullcontext():
        start = time.perf_counter()
        result = call(work)
        host = time.perf_counter() - start
    memo = default_memo()
    stats = memo.stats() if memo is not None else {"hits": 0, "misses": 0}
    install_default_memo(None)
    return result, host, {
        "memo_hits": stats["hits"], "memo_misses": stats["misses"],
        "pruned": GLOBAL_SEARCH_STATS.snapshot()["pruned_subtrees"] - pruned,
    }


def set_up(workload: str, seed: int) -> Tuple[list, List, float]:
    """Import the program, warm its lazy imports and build the workload's
    circuit set: (jobs, circuits, set-up time in reference seconds).

    Lazy imports (the partitioner pulls in networkx on first use) are paid
    once per process, so they belong to set-up, not to a job.  A
    calibration probe runs before the imports and after every step, and
    each step is scaled by the probes around it, as a job is."""
    probes = [calibrate.probe() for _ in range(3)]
    start = time.perf_counter()
    from repro.circuits import paper_example_network

    jobs = job_calls(workload)
    for _, call in jobs:
        call(paper_example_network())
    steps = [time.perf_counter() - start]
    probes.append(calibrate.probe())
    circuits = []
    for recipe, scale, index in circuit_plan(workload_recipes(workload)):
        start = time.perf_counter()
        circuits.append(make_circuit(seed, recipe, scale, index))
        steps.append(time.perf_counter() - start)
        probes.append(calibrate.probe())
    # Step i ran between probes 2 + i and 3 + i.
    setup_s = sum(t * calibrate.scale(calibrate.window(probes, 2 + i))
                  for i, t in enumerate(steps))
    return jobs, circuits, setup_s


def run_pass(workload: str, seed: int, trace: bool = False,
             setup_only: bool = False) -> Dict[str, Any]:
    """:func:`set_up`, then :func:`measure` unless *setup_only*."""
    jobs, circuits, setup_s = set_up(workload, seed)
    doc = {} if setup_only else measure(jobs, circuits, trace=trace)
    doc.update(workload=workload, seed=seed, setup_s=setup_s)
    return doc


def measure(jobs, circuits, trace: bool = False) -> Dict[str, Any]:
    """Time and check every job on every circuit; returns the pass
    document.

    An untraced pass times a calibration probe before every job and once
    after the last (:mod:`perfbench.calibrate`).  A traced pass runs every
    job twice, traced and untraced, alternating which goes first: the
    pair gives the tracing overhead and the answer the traced run must
    reproduce.  After the loop it runs the metered sequential baselines
    (:func:`repro.parallel.sequential_baseline`): the virtual time of each
    sequential job, and the ping-pong baseline of each circuit for the
    virtual speedup.
    """
    probes: List[float] = []
    clock = None
    if trace:
        from perfbench.layers import LayerClock

        clock = LayerClock()
    records: List[Dict[str, Any]] = []
    outputs = []
    untraced_s = 0.0
    for index, net in enumerate(circuits):
        for label, call in jobs:
            if clock is None:
                probes.append(calibrate.probe())
                result, host, stats = timed_call(call, net)
            else:
                first_traced = len(records) % 2 == 1
                runs = {}
                for traced in (first_traced, not first_traced):
                    runs[traced] = timed_call(call, net, clock if traced else None)
                result, host, stats = runs[True]
                plain, plain_host, _ = runs[False]
                untraced_s += plain_host
                stats["untraced_digest"] = network_digest(plain[0])
            out, initial, final, virtual, clocks, steps = result
            records.append({
                "index": index, "circuit": net.name, "job": label, "host_s": host,
                "initial_lc": initial, "final_lc": final,
                "virtual_time": virtual, "proc_clocks": clocks,
                "iterations": steps, **stats,
            })
            outputs.append((net, out))
    if clock is None:
        probes.append(calibrate.probe())
        # Job i ran between probes len(probes) - len(records) - 1 + i and
        # the next one.
        first = len(probes) - len(records) - 1
        for i, rec in enumerate(records):
            rec["scale"] = calibrate.scale(calibrate.window(probes, first + i))

    from perfbench.collapse import check_answer

    for rec, (net, out) in zip(records, outputs):
        rec["input_digest"] = network_digest(net)
        rec["answer_digest"] = network_digest(out)
        rec["problems"], rec["duplicate_cubes"] = check_answer(net, out, rec["final_lc"])
        if rec.get("untraced_digest", rec["answer_digest"]) != rec["answer_digest"]:
            rec["problems"].append("traced answer differs from untraced")

    doc: Dict[str, Any] = {
        "probes": probes,
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if clock is not None:
        doc["layers"] = clock.report(sum(r["host_s"] for r in records))
        doc["untraced_s"] = untraced_s
    if clock is not None:
        doc["baseline_virtual"] = metered_baselines(records, circuits)
    return doc


def metered_baselines(records: List[Dict[str, Any]], circuits: List) -> List[float]:
    """Fill in the virtual time of every sequential job from a metered
    run of the same extraction, each on a fresh rectangle memo; returns
    the ping-pong baseline's virtual time of every circuit."""
    from repro.parallel import sequential_baseline
    from repro.rectangles.memo import install_default_memo

    virtual: Dict[Tuple[int, str], float] = {}

    def metered(index: int, searcher: str) -> float:
        if (index, searcher) not in virtual:
            install_default_memo(None)
            virtual[index, searcher] = sequential_baseline(circuits[index], searcher=searcher).time
            install_default_memo(None)
        return virtual[index, searcher]

    for rec in records:
        if rec["virtual_time"] is None:
            rec["virtual_time"] = metered(rec["index"], rec["job"])
    return [metered(i, "pingpong") for i in range(len(circuits))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    doc = run_pass(args.workload, args.seed, trace=args.trace, setup_only=args.setup_only)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
