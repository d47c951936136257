"""Seeded benchmark inputs.

Every input is an MCNC stand-in recipe from :data:`repro.circuits.MCNC_SUITE`
re-seeded and scaled (``dataclasses.replace`` + ``generate_circuit``), so
the program only ever sees generated networks.  Circuit *i* of a recipe
depends only on the workload seed, the recipe and *i*, so a workload that
takes fewer circuits of a recipe takes a prefix of the same sequence.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Sequence, Tuple

#: (recipe, scale, count) for the engine workloads' circuit set.  At these
#: scales a dalu and a des circuit take about the same time to extract
#: (~1.4k and ~1.3k literals), so per-job latencies form one population.
ENGINE_SET: Tuple[Tuple[str, float, int], ...] = (("dalu", 0.4, 16), ("des", 0.17, 16))


def circuit_seed(seed: int, recipe: str, index: int) -> int:
    """The generator seed of circuit *index* of *recipe* under *seed*."""
    digest = hashlib.sha256(f"perfbench/{seed}/{recipe}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_circuit(seed: int, recipe: str, scale: float, index: int):
    """One re-seeded, scaled stand-in network."""
    from repro.circuits import MCNC_SUITE, generate_circuit

    base = MCNC_SUITE[recipe]
    spec = dataclasses.replace(
        base,
        name=f"{recipe}-s{seed}-{index}",
        seed=circuit_seed(seed, recipe, index),
        target_lc=max(40, int(base.target_lc * scale)),
    )
    return generate_circuit(spec)


def circuit_plan(recipes: Sequence[Tuple[str, float, int]]) -> List[Tuple[str, float, int]]:
    """(recipe, scale, index) of every circuit of *recipes*, interleaved
    recipe by recipe."""
    longest = max(count for _, _, count in recipes)
    return [(recipe, scale, index) for index in range(longest)
            for recipe, scale, count in recipes if index < count]


def circuit_set(seed: int, recipes: Sequence[Tuple[str, float, int]]) -> List:
    """Networks for *recipes*, in :func:`circuit_plan` order."""
    return [make_circuit(seed, recipe, scale, index)
            for recipe, scale, index in circuit_plan(recipes)]


def network_digest(network) -> str:
    """Content digest of a network (its eqn text)."""
    from repro.network.eqn import write_eqn

    return hashlib.sha256(write_eqn(network).encode()).hexdigest()[:16]
