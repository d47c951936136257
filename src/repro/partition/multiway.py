"""Sanchis-style multi-way partitioning.

n-way min-cut by recursive bisection with weight-proportional targets
(handles n that is not a power of two), followed by pairwise FM
refinement rounds over block pairs — the flat multi-way improvement
Sanchis's algorithm performs with level gains, here realized as repeated
2-way FM on block unions.  A seeded random partitioner is provided for
the ablation study (does cut quality matter for factorization quality?).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.partition.fm import fm_bipartition
from repro.partition.graphs import Graph, cut_size


def _bisect_range(
    graph: Graph,
    vertices: Sequence[str],
    blocks: range,
    assignment: Dict[str, int],
    seed: int,
    meter=None,
) -> None:
    """Assign *vertices* to *blocks* by recursive bisection."""
    n = len(blocks)
    if n == 1:
        for v in vertices:
            assignment[v] = blocks[0]
        return
    left = n // 2
    sub = graph.subgraph(vertices)
    side = fm_bipartition(
        sub,
        seed=seed,
        target_fraction=left / n,
        meter=meter,
    )
    v0 = sorted(v for v in vertices if side[v] == 0)
    v1 = sorted(v for v in vertices if side[v] == 1)
    _bisect_range(graph, v0, blocks[:left], assignment, seed * 2 + 1, meter)
    _bisect_range(graph, v1, blocks[left:], assignment, seed * 2 + 2, meter)


def multiway_partition(
    graph: Graph,
    nblocks: int,
    seed: int = 0,
    refine_rounds: int = 1,
    meter=None,
) -> Dict[str, int]:
    """Partition vertices into *nblocks* blocks, minimizing the cut.

    Every block is guaranteed non-empty when the graph has at least
    *nblocks* vertices.  Returns vertex → block id.
    """
    if nblocks < 1:
        raise ValueError("nblocks must be positive")
    vertices = sorted(graph.weight)
    assignment: Dict[str, int] = {}
    if not vertices:
        return assignment
    if nblocks == 1:
        return {v: 0 for v in vertices}
    _bisect_range(graph, vertices, range(nblocks), assignment, seed, meter)
    _ensure_nonempty(graph, assignment, nblocks)

    for _ in range(refine_rounds):
        improved = False
        for a in range(nblocks):
            for b in range(a + 1, nblocks):
                pair = sorted(v for v in vertices if assignment[v] in (a, b))
                if len(pair) < 2:
                    continue
                sub = graph.subgraph(pair)
                before = cut_size(sub, {v: assignment[v] for v in pair})
                initial = {v: 0 if assignment[v] == a else 1 for v in pair}
                side = fm_bipartition(sub, seed=seed, initial=initial, meter=meter)
                after = cut_size(sub, side)
                if after < before and all(
                    any(side[v] == s for v in pair) for s in (0, 1)
                ):
                    for v in pair:
                        assignment[v] = a if side[v] == 0 else b
                    improved = True
        if not improved:
            break
    _ensure_nonempty(graph, assignment, nblocks)
    return assignment


def _ensure_nonempty(
    graph: Graph, assignment: Dict[str, int], nblocks: int
) -> None:
    """Move lightest vertices from the heaviest blocks into empty ones."""
    if len(assignment) < nblocks:
        return
    counts: Dict[int, List[str]] = {b: [] for b in range(nblocks)}
    for v, b in assignment.items():
        counts[b].append(v)
    empty = [b for b in range(nblocks) if not counts[b]]
    for b in empty:
        donor = max(counts, key=lambda k: (len(counts[k]), -k))
        if len(counts[donor]) <= 1:
            continue
        v = min(counts[donor], key=lambda x: (graph.weight[x], x))
        counts[donor].remove(v)
        counts[b].append(v)
        assignment[v] = b


def random_partition(
    graph: Graph, nblocks: int, seed: int = 0
) -> Dict[str, int]:
    """Weight-balanced random assignment (the ablation baseline)."""
    rng = random.Random(seed)
    vertices = sorted(graph.weight)
    rng.shuffle(vertices)
    weights = [0.0] * nblocks
    assignment: Dict[str, int] = {}
    for v in vertices:
        b = min(range(nblocks), key=lambda k: (weights[k], k))
        assignment[v] = b
        weights[b] += graph.weight[v]
    return assignment
