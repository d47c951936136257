"""Greedy rectangle cover: the sequential kernel-extraction loop.

This is the reproduction's stand-in for SIS ``gkx``: iteratively build
the KC matrix, find the best rectangle, extract its kernel as a new
network node, rewrite the covered nodes, and repeat until no rectangle
has positive gain.  All three parallel algorithms in :mod:`repro.parallel`
are parallelizations of exactly this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube, cube_union
from repro.algebra.sop import Sop
from repro.machine.cancel import check_cancelled
from repro.machine.costmodel import CostMeter, CostModel, DEFAULT_COST_MODEL
from repro.network.boolean_network import BooleanNetwork
from repro.obs.tracer import NULL_SPAN, active_tracer
from repro.rectangles.kcmatrix import KCMatrix, RowBlock, build_kc_matrix, row_block
from repro.rectangles.pingpong import best_rectangle_pingpong
from repro.rectangles.rectangle import (
    Rectangle,
    ValueFn,
    default_value,
    rectangle_kernel,
)
from repro.rectangles.search import SearchBudget, best_rectangle_exhaustive

Searcher = Callable[[KCMatrix], Optional[Tuple[Rectangle, int]]]


@dataclass(frozen=True)
class AppliedExtraction:
    """Record of one rectangle extraction applied to the network."""

    new_node: str
    kernel: Sop
    rectangle: Rectangle
    gain: int              # speculative gain reported by the searcher
    actual_delta: int      # measured LC decrease (= gain for exact values)
    modified_nodes: Tuple[str, ...]


@dataclass
class KernelExtractionResult:
    """Outcome of a full greedy extraction run."""

    initial_lc: int
    final_lc: int
    steps: List[AppliedExtraction] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def improvement(self) -> int:
        return self.initial_lc - self.final_lc

    @property
    def quality_ratio(self) -> float:
        """final/initial LC — the normalized quality the paper tabulates."""
        return self.final_lc / self.initial_lc if self.initial_lc else 1.0


def apply_rectangle(
    network: BooleanNetwork,
    matrix: KCMatrix,
    rect: Rectangle,
    new_name: Optional[str] = None,
    gain: int = 0,
) -> AppliedExtraction:
    """Extract the rectangle's kernel into a fresh node and rewrite rows.

    Every covered original cube is removed from its node; each row (n, ck)
    contributes the replacement cube ``ck·X``.  The transformation is
    function-preserving by construction (X sums exactly the divided-out
    kernel cubes).
    """
    kernel_sop = rectangle_kernel(matrix, rect)
    if new_name is None:
        new_name = network.new_node_name()
    network.add_node(new_name, kernel_sop)
    x_lit = network.table.id_of(new_name)

    rows_by_node: Dict[str, List[int]] = {}
    for r in rect.rows:
        rows_by_node.setdefault(matrix.rows[r].node, []).append(r)

    # Overlap bookkeeping: the distinct original cubes each node loses.
    # A search has usually just compiled the matrix's bitset view, whose
    # dense cell ids dedupe overlapping cells without re-hashing cube
    # tuples; fall back to the sparse entry map when no view is live.
    view = matrix._bitview
    if view is not None:
        covered_by_node: Dict[str, Set[Cube]] = view.covered_cubes_by_node(rect)
    else:
        covered_by_node = {}
        for r in rect.rows:
            per_node = covered_by_node.setdefault(matrix.rows[r].node, set())
            for c in rect.cols:
                per_node.add(matrix.entries[(r, c)])

    # Only the rewritten nodes and the new one change, so the LC delta
    # is measured on them alone rather than on the whole network.
    delta = -network.literal_count(new_name)
    for node, rows in sorted(rows_by_node.items()):
        covered = covered_by_node[node]
        replacements: List[Cube] = [
            cube_union(matrix.rows[r].cokernel, (x_lit,)) for r in rows
        ]
        new_cubes = [cu for cu in network.nodes[node] if cu not in covered]
        new_cubes.extend(replacements)
        delta += network.literal_count(node)
        network.set_expression(node, new_cubes)
        delta -= network.literal_count(node)

    return AppliedExtraction(
        new_node=new_name,
        kernel=kernel_sop,
        rectangle=rect,
        gain=gain,
        actual_delta=delta,
        modified_nodes=tuple(sorted(rows_by_node)),
    )


def make_searcher(
    kind: str,
    value_fn: ValueFn = default_value,
    budget: Optional[SearchBudget] = None,
    meter=None,
    max_seeds: Optional[int] = None,
) -> Searcher:
    """Build a searcher callable from a name ("pingpong"/"exhaustive")."""
    if kind == "pingpong":
        return lambda m: best_rectangle_pingpong(
            m, value_fn=value_fn, meter=meter, max_seeds=max_seeds
        )
    if kind == "exhaustive":
        return lambda m: best_rectangle_exhaustive(
            m, value_fn=value_fn, budget=budget, meter=meter
        )
    raise ValueError(f"unknown searcher {kind!r}")


def kernel_extract(
    network: BooleanNetwork,
    nodes: Optional[Iterable[str]] = None,
    searcher: "Searcher | str" = "pingpong",
    min_gain: int = 1,
    max_iterations: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    name_prefix: str = "[k",
    max_seeds: Optional[int] = 64,
    model: CostModel = DEFAULT_COST_MODEL,
) -> KernelExtractionResult:
    """Run greedy kernel extraction in place; return the run record.

    *nodes* restricts extraction to a subset (a circuit partition); newly
    created nodes join the active set so extracted kernels are themselves
    factorable, exactly as in SIS.  *meter* (see
    :mod:`repro.machine.costmodel`) is charged for kernel generation,
    matrix entries and search work — the simulated multiprocessor uses
    these charges as its clock.

    When a tracer is active (:mod:`repro.obs`), each iteration emits
    ``kernel-gen`` / ``kc-build`` / ``rect-search`` / ``extract-commit``
    spans whose virtual intervals are cumulative metered compute time
    under *model* — the sequential path's virtual clock.  An internal
    meter is created for this when the caller passed none.
    """
    tr = active_tracer()
    if tr is not None and meter is None:
        meter = CostMeter()

    def _span(name: str):
        if tr is None:
            return NULL_SPAN
        return tr.span(name, cat="seq", virtual_start=_vnow())

    def _vnow() -> Optional[float]:
        return model.compute_time(meter.counts) if tr is not None else None

    if isinstance(searcher, str):
        searcher = make_searcher(
            searcher, budget=budget, meter=meter, max_seeds=max_seeds
        )
    active: Set[str] = set(nodes) if nodes is not None else set(network.nodes)
    for n in active:
        if n not in network.nodes:
            raise KeyError(f"unknown node {n!r}")
    blocks: Dict[str, RowBlock] = {}
    result = KernelExtractionResult(
        initial_lc=network.literal_count(), final_lc=network.literal_count()
    )
    counter = 0
    while max_iterations is None or result.iterations < max_iterations:
        check_cancelled()
        order = sorted(active)
        # Kernel generation gets its own span, apart from the matrix
        # compile, by filling the row-block cache first.
        with _span("kernel-gen") as sp:
            for n in order:
                if n not in blocks:
                    blocks[n] = row_block(n, network.nodes[n], meter)
            sp.set_virtual_end(_vnow())
        with _span("kc-build") as sp:
            matrix = build_kc_matrix(network, nodes=order, blocks=blocks, meter=meter)
            sp.set_virtual_end(_vnow())
        with _span("rect-search") as sp:
            best = searcher(matrix)
            sp.set_virtual_end(_vnow())
        if best is None:
            break
        rect, gain = best
        if gain < min_gain:
            break
        new_name = f"{name_prefix}{counter}]"
        while new_name in network.nodes or network.is_input(new_name):
            counter += 1
            new_name = f"{name_prefix}{counter}]"
        with _span("extract-commit") as sp:
            applied = apply_rectangle(
                network, matrix, rect, new_name=new_name, gain=gain
            )
            if meter is not None:
                meter.charge("divide_node", len(applied.modified_nodes))
            sp.set_virtual_end(_vnow())
            sp.add_counters(gain=gain, modified=len(applied.modified_nodes))
        counter += 1
        for n in applied.modified_nodes:
            blocks.pop(n, None)
        active.add(applied.new_node)
        result.steps.append(applied)
    result.final_lc = network.literal_count()
    return result
