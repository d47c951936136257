"""Persistence and replay of minimal fuzz repros.

Every shrunk failure becomes two files in a corpus directory (the
repository keeps one under ``tests/fuzz_corpus/``):

- ``<stem>.eqn`` — the minimal network in equation format,
- ``<stem>.json`` — replay coordinates: family, generator seed, path,
  failure kind, a human-readable detail string, and — for chaos
  findings — the fault plan spec and injector seed.

The tier-1 suite replays the whole corpus on every run
(``tests/verify/test_corpus_replay.py``), so a repro added once is a
permanent regression test: the recorded path must pass all fuzz oracles
on the recorded network forever after the fix.  Replay runs under
audits, so every search is also checked against the reference.  Entries
written when production had two search cores may carry a ``core`` key;
it is ignored.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.network.boolean_network import BooleanNetwork
from repro.network.eqn import read_eqn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.fuzz import CheckOutcome, FuzzFailure


@dataclass
class CorpusEntry:
    """One replayable repro: the network plus its replay coordinates."""

    stem: str
    network: BooleanNetwork
    path: str
    family: str = ""
    seed: int = 0
    kind: str = ""
    detail: str = ""
    fault_plan: Optional[str] = None    # chaos repros replay this plan
    fault_seed: int = 0

    def describe(self) -> str:
        chaos = f" faults=[{self.fault_plan}]" if self.fault_plan else ""
        return f"{self.stem}: {self.path}{chaos} ({self.kind or 'regression'})"


def _stem_for(failure: "FuzzFailure") -> str:
    raw = f"{failure.family}_s{failure.seed}_{failure.path}_{failure.kind}"
    if failure.fault_plan:
        raw += f"_chaos{failure.fault_seed}"
    return re.sub(r"[^A-Za-z0-9_.-]", "-", raw)


def save_repro(directory: str, failure: "FuzzFailure") -> str:
    """Write one failure as a corpus entry; return the ``.eqn`` path."""
    os.makedirs(directory, exist_ok=True)
    stem = _stem_for(failure)
    eqn_path = os.path.join(directory, stem + ".eqn")
    with open(eqn_path, "w") as fh:
        fh.write(failure.eqn)
    meta = {
        "family": failure.family,
        "seed": failure.seed,
        "path": failure.path,
        "kind": failure.kind,
        "detail": failure.detail,
        "shrunk": failure.shrunk,
    }
    if failure.fault_plan:
        meta["fault_plan"] = failure.fault_plan
        meta["fault_seed"] = failure.fault_seed
    with open(os.path.join(directory, stem + ".json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return eqn_path


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Read every ``.eqn``/``.json`` pair under *directory* (sorted)."""
    entries: List[CorpusEntry] = []
    if not os.path.isdir(directory):
        return entries
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".eqn"):
            continue
        stem = fname[:-4]
        meta_path = os.path.join(directory, stem + ".json")
        meta = {}
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
        with open(os.path.join(directory, fname)) as fh:
            network = read_eqn(fh.read(), name=stem)
        entries.append(
            CorpusEntry(
                stem=stem,
                network=network,
                path=meta.get("path", "seq-pingpong"),
                family=meta.get("family", ""),
                seed=int(meta.get("seed", 0)),
                kind=meta.get("kind", ""),
                detail=meta.get("detail", ""),
                fault_plan=meta.get("fault_plan"),
                fault_seed=int(meta.get("fault_seed", 0)),
            )
        )
    return entries


def replay_entry(entry: CorpusEntry, vectors: int = 256) -> "CheckOutcome":
    """Re-run the recorded path under audits; ``None`` means all oracles
    pass.

    Entries that record a fault plan replay it with the recorded seed,
    so a chaos repro exercises the exact recovery path that once failed.
    """
    from repro.verify import audit
    from repro.verify.fuzz import check_path
    from repro.verify.paths import get_path

    with audit.audits_on():
        outcome, _ = check_path(entry.network, get_path(entry.path),
                                vectors=vectors, faults=entry.fault_plan,
                                fault_seed=entry.fault_seed)
    return outcome
