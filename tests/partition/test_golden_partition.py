"""Golden pin of the min-cut and random partitioners.

``golden_partition.json`` records, on the six MCNC stand-ins of
``tests/rectangles/test_golden_extract.py`` (same scales) and on two
larger stand-ins whose graphs have many more edges:

- ``multiway_partition`` (with its ``partition_pass`` meter charge) and
  ``random_partition`` at 2, 3, 4 and 6 blocks and seeds 0 and 1;
- ``fm_bipartition`` started from a fixed ``initial=`` split (sorted
  node names dealt alternately to sides 0 and 1);

each as the assignment's ``[vertex, block]`` pairs in iteration order,
with the ``cut_size`` and ``block_weights`` of that assignment.  The
parallel algorithms hand these blocks to processors, so a partition
that moves by one vertex moves every downstream answer and clock.

Regenerate (only when a behaviour change is intended, and say why in
the change log) with::

    PYTHONPATH=src python tests/partition/test_golden_partition.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.circuits import make_circuit
from repro.machine.costmodel import CostMeter
from repro.partition import circuit_graph, cut_size, fm_bipartition
from repro.partition.graphs import block_weights
from repro.partition.multiway import multiway_partition, random_partition

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_partition.json")

#: (MCNC stand-in, scale): the sequential golden fixture's six, then two larger.
MCNC_CASES = (
    ("misex3", 0.2),
    ("dalu", 0.15),
    ("des", 0.08),
    ("seq", 0.05),
    ("spla", 0.04),
    ("ex1010", 0.05),
    # Most of the graphs above have few or no edges; these two have
    # 54 and 17, so FM's gains and the refinement rounds get exercised.
    ("dalu", 0.5),
    ("des", 0.3),
)
NBLOCKS = (2, 3, 4, 6)
SEEDS = (0, 1)


def case_ids():
    out = []
    for name, scale in MCNC_CASES:
        for algo in ("multiway", "random"):
            out += [f"{name}@{scale}/{algo}/n{n}/s{seed}" for n in NBLOCKS for seed in SEEDS]
        out.append(f"{name}@{scale}/fm-initial")
    return out


def record(case_id) -> dict:
    """Partition one case; return its JSON-ready pin."""
    label, algo, *rest = case_id.split("/")
    name, scale = label.split("@")
    net = make_circuit(name, scale=float(scale))
    graph = circuit_graph(net)
    pin: dict = {}
    if algo == "fm-initial":
        nblocks = 2
        initial = {v: i % 2 for i, v in enumerate(sorted(net.nodes))}
        assignment = fm_bipartition(graph, initial=initial)
    else:
        nblocks, seed = int(rest[0][1:]), int(rest[1][1:])
        if algo == "multiway":
            meter = CostMeter()
            assignment = multiway_partition(graph, nblocks, seed=seed, meter=meter)
            pin["partition_pass"] = meter.counts.get("partition_pass", 0)
        else:
            assignment = random_partition(graph, nblocks, seed=seed)
    pin["assignment"] = [[v, b] for v, b in assignment.items()]
    pin["cut_size"] = cut_size(graph, assignment)
    pin["block_weights"] = block_weights(graph, assignment, nblocks)
    return pin


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("case_id", case_ids())
def test_matches_golden(case_id):
    with open(FIXTURE) as fh:
        expect = json.load(fh)[case_id]
    assert _dump(record(case_id)) == _dump(expect)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_partition.py --write")
    doc = {case_id: record(case_id) for case_id in case_ids()}
    with open(FIXTURE, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in sorted(doc.items())))
        fh.write("\n}\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}")
