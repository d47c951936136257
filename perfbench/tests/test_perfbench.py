"""Tests of the benchmark's own machinery.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os

import pytest

from perfbench import calibrate, run
from perfbench.collapse import check_answer, collapse, collapse_check
from perfbench.engine import WORKLOADS, workload_circuits
from perfbench.inputs import make_circuit, network_digest
from perfbench.layers import ENGINE_LAYERS, LayerClock
from repro.network.boolean_network import BooleanNetwork
from repro.network.eqn import read_eqn, write_eqn
from repro.parallel import lshaped_kernel_extract
from repro.rectangles import kernel_extract

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _small(seed=3, recipe="dalu", scale=0.08, index=0):
    return make_circuit(seed, recipe, scale, index)


def _network(inputs, nodes, outputs):
    net = BooleanNetwork("t")
    net.add_inputs(inputs)
    for name, expr in nodes:
        net.add_node(name, expr)
    for o in outputs:
        net.add_output(o)
    return net


# -- inputs -------------------------------------------------------------

def test_same_seed_gives_identical_input_digests():
    for workload in WORKLOADS:
        a = [network_digest(n) for n in workload_circuits(workload, 7)]
        b = [network_digest(n) for n in workload_circuits(workload, 7)]
        assert a == b
    c = [network_digest(n) for n in workload_circuits("parallel-sim", 8)]
    assert c != [network_digest(n) for n in workload_circuits("parallel-sim", 7)]


def test_smaller_workloads_take_a_prefix_of_the_same_circuits():
    seq = [network_digest(n) for n in workload_circuits("seq-pingpong", 5)]
    par = [network_digest(n) for n in workload_circuits("parallel-sim", 5)]
    assert par == seq[:len(par)]


# -- collapse check -----------------------------------------------------

def test_collapse_check_certifies_real_answers():
    net = _small()
    seq = net.copy()
    res = kernel_extract(seq, searcher="pingpong")
    assert res.iterations > 0
    assert check_answer(net, seq, res.final_lc) == ([], 0)
    par = lshaped_kernel_extract(net, 2)
    assert check_answer(net, par.network, par.final_lc)[0] == []
    # Across a process boundary: both sides re-read from eqn text.
    assert collapse_check(read_eqn(write_eqn(net)), read_eqn(write_eqn(seq))) == []


def test_collapse_check_rejects_a_corrupted_network():
    net = _small()
    out = net.copy()
    res = kernel_extract(out, searcher="pingpong")
    extracted = res.steps[0].new_node
    cubes = list(out.nodes[extracted])

    dropped = out.copy()
    dropped.set_expression(extracted, cubes[1:])
    assert collapse_check(net, dropped)

    # Same literal count, different function: swap one literal.
    swapped = out.copy()
    lit = cubes[0][0]
    other = next(l for c in cubes for l in c if l != lit)
    swapped.set_expression(extracted, [tuple(sorted({other} | set(cubes[0][1:])))] + cubes[1:])
    assert collapse_check(net, swapped)

    assert check_answer(net, out, res.final_lc + 1)[0]


def test_collapse_check_counts_duplicate_cubes():
    original = _network("abcx", [("f", "a*b + a*c"), ("g", "x*b + x*c")], ["f", "g"])
    ok = _network("abcx", [("k", "b + c"), ("f", "a*k"), ("g", "x*k")], ["f", "g"])
    assert collapse(original, ok) == ([], 0)
    # a*k + a*b yields a*b twice: the cube set matches, with one copy to
    # spare (the L-shaped algorithm can produce this through X = A + B).
    dup = _network("abcx", [("k", "b + c"), ("f", "a*k + a*b"), ("g", "x*k")], ["f", "g"])
    assert collapse(original, dup) == ([], 1)


def test_collapse_check_ignores_null_cubes_the_writer_drops():
    original = _network("abc", [("f", "a*b + a*c + a*a'")], ["f"])
    # The factored form creates a*a' through a kernel cube; eqn output
    # of either side drops it.
    factored = _network("abc", [("k", "b + c + a'"), ("f", "a*k")], ["f"])
    assert collapse_check(original, factored) == []
    assert collapse_check(read_eqn(write_eqn(original)), read_eqn(write_eqn(factored))) == []


def test_collapse_check_handles_collapsed_aliases():
    original = _network(
        "abcde",
        [("n", "a + b"), ("m", "c*a + c*b + d"), ("o", "n*e + n'*d"), ("p", "e")],
        ["m", "o"],
    )
    # n's whole cube set became the kernel X, so n = X was an alias and
    # collapse_aliases rewrote its readers (n -> X, n' -> X'); p = e is an
    # original alias, removed the same way.
    factored = _network(
        "abcde", [("X", "a + b"), ("m", "c*X + d"), ("o", "X*e + X'*d")], ["m", "o"]
    )
    assert collapse_check(original, factored) == []
    wrong = _network(
        "abcde", [("X", "a + c"), ("m", "c*X + d"), ("o", "X*e + X'*d")], ["m", "o"]
    )
    assert collapse_check(original, wrong)


def test_collapse_check_handles_real_alias_collapse():
    # n's whole cube set is a kernel shared with m and q, so the L-shaped
    # run extracts it, leaving the alias n = [L..] that collapse_aliases
    # removes; o reads n and n'.
    net = _network(
        "abcde",
        [("n", "a + b"), ("m", "c*a + c*b + d"), ("q", "e*a + e*b"), ("o", "n*e + n'*d")],
        ["m", "o", "q"],
    )
    par = lshaped_kernel_extract(net, 2)
    assert "n" not in par.network.nodes
    assert check_answer(net, par.network, par.final_lc)[0] == []
    x = next(n for n in par.network.nodes if n not in net.nodes)
    flipped = par.network.copy()
    table = flipped.table
    swap = {x: x + "'", x + "'": x}
    flipped.set_expression("o", [
        [table.id_of(swap.get(table.name_of(l), table.name_of(l))) for l in cube]
        for cube in flipped.nodes["o"]
    ])
    assert collapse_check(net, flipped)


# -- layer clock --------------------------------------------------------

def test_layer_sum_holds_on_a_small_circuit():
    import time

    import repro.rectangles.cover as cover
    before = cover.build_kc_matrix
    net = _small(scale=0.15)
    plain = net.copy()
    kernel_extract(plain, searcher="exhaustive")
    traced = net.copy()
    with LayerClock() as clock:
        start = time.perf_counter()
        kernel_extract(traced, searcher="exhaustive")
        wall = time.perf_counter() - start
    assert clock.layer_sum_ok(wall), clock.layer_sum_gap(wall)
    assert clock.unattributed_s < wall
    assert clock.calls["rectangles.kcmatrix"] == clock.calls["rectangles.search"] > 0
    assert clock.self_s["rectangles.search"] > 0
    assert clock.counters["rectangles.kcmatrix.entries"] > 0
    # Traced answers are the untraced answers, and the wrappers are gone.
    assert write_eqn(traced) == write_eqn(plain)
    assert cover.build_kc_matrix is before


def test_layer_table_names_functions_that_exist():
    import importlib

    for module, attr, _ in ENGINE_LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


# -- calibration and BENCHMARK.json ----------------------------------------

def test_calibration_scale():
    assert calibrate.reference_work() == calibrate.reference_work()
    assert calibrate.scale([calibrate.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert calibrate.scale([2 * calibrate.NOMINAL_S]) == pytest.approx(0.5)
    assert calibrate.window(list(range(20)), 8) == [5, 6, 7, 8, 9, 10, 11, 12]
    assert calibrate.window(list(range(20)), 1) == [0, 1, 2, 3, 4, 5]


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_traced_run_fails_when_a_required_layer_records_no_calls():
    report = {"self_s": {"algebra.kernels": 0.5}, "calls": {"algebra.kernels": 3},
              "counters": {}, "unattributed_s": 0.5, "wall_s": 1.0,
              "layer_sum_gap": 0.0, "layer_sum_ok": True}
    fails = run.Failures()
    run.trace_layers(report, 1.0, ("algebra.kernels",), fails)
    assert fails.failed == 0
    run.trace_layers(report, 1.0, run.SEQUENTIAL_LAYERS, fails)
    assert fails.failed == len(run.SEQUENTIAL_LAYERS) - 1
    known = {layer for _, _, layer in ENGINE_LAYERS}
    for layers in run.REQUIRED_LAYERS.values():
        assert set(layers) <= known
