"""Golden pin of the three parallel algorithms' answers and virtual clocks.

``golden_parallel.json`` records, for the L-shaped, independent and
replicated algorithms at 2 and 4 simulated processors on the six MCNC
stand-ins of ``tests/rectangles/test_golden_extract.py`` (same scales),
the sha256 of the final network's eqn text, the final literal count,
the extraction count, the simulated ``parallel_time`` and every
processor's virtual clock.  A change that moves a tie-break, a meter
charge or a message anywhere in a parallel run shows up here as a byte
difference, even when the answer itself stays the same.

Regenerate (only when a behaviour change is intended, and say why in
the change log) with::

    PYTHONPATH=src python tests/parallel/test_golden_parallel.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.circuits import make_circuit
from repro.network.eqn import write_eqn
from repro.parallel import (
    independent_kernel_extract,
    lshaped_kernel_extract,
    replicated_kernel_extract,
)
from repro.rectangles.memo import RectMemo, scoped_default_memo

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_parallel.json")

#: (MCNC stand-in, scale), as in the sequential golden fixture.
MCNC_CASES = (
    ("misex3", 0.2),
    ("dalu", 0.15),
    ("des", 0.08),
    ("seq", 0.05),
    ("spla", 0.04),
    ("ex1010", 0.05),
)
ALGORITHMS = {
    "lshaped": lshaped_kernel_extract,
    "independent": independent_kernel_extract,
    "replicated": replicated_kernel_extract,
}
PROCS = (2, 4)


def case_ids():
    return [
        f"{name}@{scale}/{algo}/p{nprocs}"
        for name, scale in MCNC_CASES for algo in ALGORITHMS for nprocs in PROCS
    ]


def record(case_id) -> dict:
    """Run one case on a fresh rectangle memo; return its JSON-ready pin."""
    label, algo, procs = case_id.split("/")
    name, scale = label.split("@")
    net = make_circuit(name, scale=float(scale))
    with scoped_default_memo(RectMemo()):
        res = ALGORITHMS[algo](net, int(procs[1:]))
    return {
        "eqn_sha256": hashlib.sha256(write_eqn(res.network).encode()).hexdigest(),
        "final_lc": res.final_lc,
        "extractions": res.extractions,
        "parallel_time": res.parallel_time,
        "proc_clocks": list(res.proc_clocks),
    }


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("case_id", case_ids())
def test_matches_golden(case_id):
    with open(FIXTURE) as fh:
        expect = json.load(fh)[case_id]
    assert _dump(record(case_id)) == _dump(expect)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_parallel.py --write")
    doc = {case_id: record(case_id) for case_id in case_ids()}
    with open(FIXTURE, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in sorted(doc.items())))
        fh.write("\n}\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}")
