"""Exhaustive column-anchored rectangle search.

This is the search the replicated-circuit algorithm (paper Section 3)
parallelizes: a top-down traversal of the tree of column subsets, ordered
by leftmost column, generating every rectangle and its value (Figure 1).
Processor *p* owns the anchors in its column stripe, so restricting the
anchor set decomposes the tree exactly as the paper describes.

For a fixed column set the optimal row set decomposes row-by-row: a row's
marginal contribution is ``Σ_j value(cube_ij) − |cokernel_i| − 1`` and
rows are kept iff positive.  (When several rows of one node cover the
same original cube the reported gain is corrected by exact distinct
counting afterwards.)

Two interchangeable cores drive the traversal (``core=`` / the
``REPRO_RECT_CORE`` environment variable):

- ``"bit"`` (default) — the dense bitmask core of
  :mod:`repro.rectangles.bitview`: row sets are int bitmasks, candidate
  scans are bit iterations, the column dominance test is one mask
  equality, and cell values are table lookups;
- ``"set"`` — the legacy sparse-set implementation, retained for
  differential testing.  Both cores visit the identical tree, spend the
  identical budget and yield the identical (rectangle, gain) stream.

Enumeration is exponential in the worst case; :class:`SearchBudget`
bounds the number of visited tree nodes and raises
:class:`BudgetExceeded` — this is how the reproduction models the paper's
"did not terminate after 10000 seconds" rows for spla/ex1010.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs.tracer import active_tracer, add_counters
from repro.rectangles.bitview import resolve_core
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.memo import (
    GLOBAL_SEARCH_STATS,
    memo_key,
    resolve_memo,
)
from repro.rectangles.rectangle import (
    Rectangle,
    ValueFn,
    default_value,
    rectangle_gain,
)

#: Environment toggle for the v2 pruned best-rectangle search
#: (branch-and-bound + dominance); "0" falls back to full enumeration.
ENV_PRUNE = "REPRO_RECT_PRUNE"


def prune_enabled() -> bool:
    """Process-wide default for v2 pruning (``REPRO_RECT_PRUNE``)."""
    return os.environ.get(ENV_PRUNE, "1") not in ("0", "off", "false")


def resolve_prune(prune: Optional[bool]) -> bool:
    """Resolve an explicit ``prune=`` argument (``None`` → the default)."""
    return prune_enabled() if prune is None else bool(prune)


class BudgetExceeded(Exception):
    """Raised when the rectangle search exceeds its node budget."""


@dataclass
class SearchBudget:
    """A cap on search-tree nodes, shared across one extraction run."""

    max_nodes: int
    used: int = 0

    def spend(self, n: int = 1) -> None:
        """Consume *n* units; raise :class:`BudgetExceeded` past the cap."""
        self.used += n
        if self.used > self.max_nodes:
            raise BudgetExceeded(
                f"rectangle search exceeded budget of {self.max_nodes} nodes"
            )


def _row_marginal(
    matrix: KCMatrix, row: int, cols: Sequence[int], value_fn: ValueFn
) -> int:
    info = matrix.rows[row]
    total = 0
    for c in cols:
        total += value_fn(info.node, matrix.entries[(row, c)])
    return total - len(info.cokernel) - 1


def _best_rows_for_cols(
    matrix: KCMatrix,
    cols: Sequence[int],
    candidate_rows: Set[int],
    value_fn: ValueFn,
) -> Tuple[Tuple[int, ...], int]:
    """Keep rows with positive marginal; return (rows, Σ marginals)."""
    chosen: List[int] = []
    total = 0
    for r in sorted(candidate_rows):
        m = _row_marginal(matrix, r, cols, value_fn)
        if m > 0:
            chosen.append(r)
            total += m
    return tuple(chosen), total


def _memoized(value_fn: ValueFn) -> ValueFn:
    """Per-search memo of (node, cube) → value.

    One search call values each distinct cell many times — once per row
    marginal at every tree node it survives to, and once more in
    :func:`rectangle_gain` for every yielded rectangle.  The value
    function is stable for the duration of a single search (even the
    L-shaped cube-state values only change *between* searches), so a
    search-scoped cache is exact.
    """
    cache: Dict[Tuple[str, tuple], int] = {}

    def cached(node, cube):
        key = (node, cube)
        got = cache.get(key)
        if got is None:
            got = value_fn(node, cube)
            cache[key] = got
        return got

    return cached


def _enumerate_rectangles_set(
    matrix: KCMatrix,
    value_fn: ValueFn,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
    prime_only: bool,
) -> Iterator[Tuple[Rectangle, int]]:
    """The legacy sparse-set core (kept behind ``core="set"``)."""
    col_labels = sorted(matrix.cols)
    value_fn = _memoized(value_fn)
    tracing = active_tracer() is not None
    n_visits = [0]
    n_forced = [0]

    def explore(
        cols: List[int], rows: Set[int], last_col: int
    ) -> Iterator[Tuple[Rectangle, int]]:
        if budget is not None:
            budget.spend()
        if meter is not None:
            meter.charge("search_node", 1)
        if tracing:
            n_visits[0] += 1
        # Only columns co-occurring with the current rows can extend the
        # rectangle; scanning anything else would intersect to empty.
        in_cols = set(cols)
        candidates: Set[int] = set()
        for r in rows:
            for c2 in matrix.by_row[r]:
                if c2 > last_col and c2 not in in_cols:
                    candidates.add(c2)
        branch: List[int] = []
        forced: List[int] = []
        for c2 in sorted(candidates):
            rows2 = rows & matrix.by_col[c2]
            if not rows2:
                continue
            if prime_only and len(rows2) == len(rows):
                forced.append(c2)
            else:
                branch.append(c2)
        if tracing:
            n_forced[0] += len(forced)
        cols.extend(forced)
        if len(cols) >= min_cols:
            chosen, _ = _best_rows_for_cols(matrix, cols, rows, value_fn)
            if chosen:
                rect = Rectangle(rows=chosen, cols=tuple(cols))
                gain = rectangle_gain(matrix, rect, value_fn)
                if gain > 0:
                    yield rect, gain
        for c2 in branch:
            rows2 = rows & matrix.by_col[c2]
            cols.append(c2)
            yield from explore(cols, rows2, c2)
            cols.pop()
        del cols[len(cols) - len(forced):]

    for c in col_labels:
        if anchor_filter is not None and not anchor_filter(c):
            continue
        rows0 = set(matrix.by_col[c])
        if not rows0:
            continue
        yield from explore([c], rows0, c)
    if tracing:
        add_counters(search_node_visit=n_visits[0], dominance_prune=n_forced[0])


def _enumerate_rectangles_bit(
    matrix: KCMatrix,
    value_fn: ValueFn,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
    prime_only: bool,
) -> Iterator[Tuple[Rectangle, int]]:
    """The dense bitmask core: same tree, same stream, table lookups."""
    view = matrix.bitview()
    values = view.value_table(value_fn)
    row_cols = view.row_cols
    col_rows = view.col_rows
    cells = view.cells
    row_cost = view.row_cost
    col_cost = view.col_cost
    row_node = view.row_node
    entry_cubes = view.entry_cubes
    row_labels = view.row_labels
    col_labels = view.col_labels
    neg_above = view.neg_above()
    dup_rows = view.dup_rows()  # empty for kernel-built matrices

    # The column-subset tree is walked iteratively in exactly the
    # recursive preorder (anchors in label order; at each node, forced
    # columns first, then branch children left to right) so the yield
    # stream, the budget spend sequence and the meter charges are
    # byte-identical to the legacy core's recursion.
    #
    # A stack frame is (cols, cols_mask, rows_mask, last_pos,
    # parent_sums, add_cpos): the node's exact row mask (computed when
    # its parent branched) and the one column it adds.  On pop the node
    # walks only its own surviving rows, building a rpos → running
    # Σ_j value(cell_rj) dict from the parent's — rows the added column
    # dropped cost nothing.  The OR of the surviving rows' column masks
    # is the candidate superset, so no node ever rescans its column set.
    spend = budget.spend if budget is not None else None
    charge = meter.charge if meter is not None else None
    # Tracing hoisted to one bool; counters are plain local ints and are
    # attached to the active span once, when the traversal finishes.
    tracing = active_tracer() is not None
    n_visits = 0
    n_forced = 0
    stack: List[tuple] = []
    push = stack.append
    pop = stack.pop
    for cpos in range(len(col_labels) - 1, -1, -1):
        if anchor_filter is not None and not anchor_filter(col_labels[cpos]):
            continue
        rows0 = col_rows[cpos]
        if not rows0:
            continue
        push(([cpos], 1 << cpos, rows0, cpos, None, cpos))

    while stack:
        cols, cols_mask, rows_mask, last_pos, psums, add_cpos = pop()
        if spend is not None:
            spend()
        if charge is not None:
            charge("search_node", 1)
        if tracing:
            n_visits += 1
        sums: Dict[int, int] = {}
        cand_all = 0
        mm = rows_mask
        if psums is None:
            while mm:
                lo = mm & -mm
                rpos = lo.bit_length() - 1
                mm ^= lo
                sums[rpos] = values[cells[rpos][add_cpos]]
                cand_all |= row_cols[rpos]
        else:
            while mm:
                lo = mm & -mm
                rpos = lo.bit_length() - 1
                mm ^= lo
                sums[rpos] = psums[rpos] + values[cells[rpos][add_cpos]]
                cand_all |= row_cols[rpos]
        # Columns ≤ the anchor path and columns already chosen are out.
        cand_mask = cand_all & neg_above[last_pos] & ~cols_mask
        if prime_only and len(sums) == 1:
            # Single surviving row: every candidate column trivially
            # dominates (its row set is exactly this row), so all are
            # forced and the node has no branch children.  One row's
            # cells are distinct original cubes except for rows the view
            # flags in dup_rows (never for kernel-built matrices), which
            # recompute their covered value with a seen-cube set.
            (rpos, s), = sums.items()
            rcells = cells[rpos]
            m = cand_mask
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                m ^= low
                cols.append(cpos)
                s += values[rcells[cpos]]
            if len(cols) >= min_cols:
                if dup_rows and rpos in dup_rows:
                    seen: Set = set()
                    s = 0
                    for cpos in cols:
                        eid = rcells[cpos]
                        cube = entry_cubes[eid]
                        if cube not in seen:
                            seen.add(cube)
                            s += values[eid]
                gain = s - row_cost[rpos]
                if gain > 0:
                    for cpos in cols:
                        gain -= col_cost[cpos]
                    if gain > 0:
                        yield (
                            Rectangle(
                                rows=(row_labels[rpos],),
                                cols=tuple([col_labels[c] for c in cols]),
                            ),
                            gain,
                        )
            continue
        branch: List[Tuple[int, int]] = []
        if prime_only:
            # A column dominates (contains every current row) iff it is
            # in every surviving row's column set, so the whole forced
            # set is one mask intersection — no per-candidate row-set
            # AND + equality test.  (Every candidate intersects the rows
            # by construction: cand_all is the OR of their column sets.)
            rows_it = iter(sums)
            common = row_cols[next(rows_it)]
            for rpos in rows_it:
                common &= row_cols[rpos]
            forced_mask = cand_mask & common
            if forced_mask:
                forced: List[int] = []
                m = forced_mask
                while m:
                    low = m & -m
                    forced.append(low.bit_length() - 1)
                    m ^= low
                if tracing:
                    n_forced += len(forced)
                cols.extend(forced)
                cols_mask |= forced_mask
                # Batched: one pass per row over all forced columns.
                for rpos in sums:
                    rcells = cells[rpos]
                    s = sums[rpos]
                    for cpos in forced:
                        s += values[rcells[cpos]]
                    sums[rpos] = s
            m = cand_mask & ~common
        else:
            m = cand_mask
        while m:
            low = m & -m
            cpos = low.bit_length() - 1
            m ^= low
            branch.append((cpos, rows_mask & col_rows[cpos]))
        if len(cols) >= min_cols:
            chosen: List[int] = []
            gain = 0
            for rpos, s in sums.items():
                marg = s - row_cost[rpos]
                if marg > 0:
                    chosen.append(rpos)
                    gain += marg
            if chosen:
                for cpos in cols:
                    gain -= col_cost[cpos]
                if len(chosen) > 1 or dup_rows:
                    counts: Dict[int, int] = {}
                    multi = False
                    for rpos in chosen:
                        nid = row_node[rpos]
                        if nid in counts:
                            counts[nid] += 1
                            multi = True
                        else:
                            counts[nid] = 1
                    need: Set[int] = set()
                    if multi:
                        need = {n for n, k in counts.items() if k > 1}
                    if dup_rows:
                        for rpos in chosen:
                            if rpos in dup_rows:
                                need.add(row_node[rpos])
                    if need:
                        # Distinct-cube correction: cells of one node
                        # naming the same original cube count once —
                        # several rows of the node, or one dup-flagged
                        # row repeating a cube across its own cells.
                        for nid in need:
                            seen = set()
                            for rpos in chosen:
                                if row_node[rpos] != nid:
                                    continue
                                rcells = cells[rpos]
                                for cpos in cols:
                                    eid = rcells[cpos]
                                    cube = entry_cubes[eid]
                                    if cube in seen:
                                        gain -= values[eid]
                                    else:
                                        seen.add(cube)
                if gain > 0:
                    rect = Rectangle(
                        rows=tuple([row_labels[r] for r in chosen]),
                        cols=tuple([col_labels[c] for c in cols]),
                    )
                    yield rect, gain
        for cpos, rows2 in reversed(branch):
            push((
                cols + [cpos], cols_mask | (1 << cpos), rows2, cpos,
                sums, cpos,
            ))
    if tracing:
        add_counters(search_node_visit=n_visits, dominance_prune=n_forced)


def enumerate_rectangles(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    prime_only: bool = True,
    core: Optional[str] = None,
) -> Iterator[Tuple[Rectangle, int]]:
    """Yield (rectangle, gain) for every profitable column subset.

    Rows are the optimal subset for each column set (see module
    docstring); gains are exact (distinct-cube counted).  *anchor_filter*
    restricts to rectangles whose leftmost column satisfies it — the
    stripe decomposition of the parallel search.

    ``prime_only`` (default) applies the classic dominance prune: a
    candidate column whose row set contains the current rows is included
    unconditionally instead of branched on, so only prime (column-
    maximal for their rows) rectangles are enumerated.  Under the default
    value function a dominated column never decreases the gain, so the
    best rectangle is preserved; pass ``prime_only=False`` for arbitrary
    value functions.

    *core* selects the search core ("bit"/"set"; ``None`` → the
    ``REPRO_RECT_CORE`` default).  Both cores yield identical streams.
    """
    impl = (
        _enumerate_rectangles_bit
        if resolve_core(core) == "bit"
        else _enumerate_rectangles_set
    )
    return impl(matrix, value_fn, min_cols, anchor_filter, budget, meter, prime_only)


def _best_rectangle_bit_v2(
    matrix: KCMatrix,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
) -> Tuple[Optional[Tuple[Rectangle, int]], Dict[str, int]]:
    """Bit-core v2: v1's traversal plus branch-and-bound + dominance.

    Walks the identical column-subset tree as the v1 bit core (prime
    closure, same frame layout, same spend-at-entry accounting) but cuts
    two kinds of subtree:

    - **bound cut** — at node entry an admissible upper bound on any
      descendant's corrected gain is computed in the same row loop that
      builds the marginal sums: each surviving row contributes
      ``max(0, Σ path values − row_cost + suffix_potential(> last))``
      and the path's column costs are subtracted.  Future column costs
      and distinct-cube corrections only lower real gains, so pruning
      whenever the bound is below the incumbent (strictly — equal-gain
      ties still matter lexicographically) is exact;
    - **dominance skip** — anchors in the view's
      :meth:`~repro.rectangles.bitview.BitKCView.dominated_anchors`
      mask are never pushed: the dominating earlier column's subtree
      contains a rectangle with at least the gain and a lexicographically
      smaller column tuple, so the incumbent (value *and* tie-winner) is
      preserved.

    Returns the best rectangle plus a stats dict; identical decisions —
    and hence identical budget spends and meter charges — to the set
    core's v2 twin.
    """
    view = matrix.bitview()
    values = view.value_table(default_value)
    row_cols = view.row_cols
    col_rows = view.col_rows
    cells = view.cells
    row_cost = view.row_cost
    col_cost = view.col_cost
    row_node = view.row_node
    entry_cubes = view.entry_cubes
    row_labels = view.row_labels
    col_labels = view.col_labels
    neg_above = view.neg_above()
    dup_rows = view.dup_rows()
    suf_cols, suf_sums = view.suffix_potentials()
    dom_mask = view.dominated_anchors()

    spend = budget.spend if budget is not None else None
    charge = meter.charge if meter is not None else None

    n_visits = 0
    n_pruned = 0
    n_domskips = 0
    n_forced = 0
    n_evaluated = 0
    found = False
    best_gain = 0
    best_tuple: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())
    cut = 1  # a rectangle must reach this gain to matter

    stack: List[tuple] = []
    push = stack.append
    pop = stack.pop
    for cpos in range(len(col_labels) - 1, -1, -1):
        if anchor_filter is not None and not anchor_filter(col_labels[cpos]):
            continue
        rows0 = col_rows[cpos]
        if not rows0:
            continue
        if (dom_mask >> cpos) & 1:
            n_domskips += 1
            continue
        push(([cpos], 1 << cpos, rows0, cpos, None, cpos, col_cost[cpos]))

    while stack:
        cols, cols_mask, rows_mask, last_pos, psums, add_cpos, ccost = pop()
        if spend is not None:
            spend()
        if charge is not None:
            charge("search_node", 1)
        n_visits += 1
        sums: Dict[int, int] = {}
        cand_all = 0
        ub = -ccost
        mm = rows_mask
        if psums is None:
            while mm:
                lo = mm & -mm
                rpos = lo.bit_length() - 1
                mm ^= lo
                s = values[cells[rpos][add_cpos]]
                sums[rpos] = s
                cand_all |= row_cols[rpos]
                t = s - row_cost[rpos] + suf_sums[rpos][
                    bisect_right(suf_cols[rpos], last_pos)
                ]
                if t > 0:
                    ub += t
        else:
            while mm:
                lo = mm & -mm
                rpos = lo.bit_length() - 1
                mm ^= lo
                s = psums[rpos] + values[cells[rpos][add_cpos]]
                sums[rpos] = s
                cand_all |= row_cols[rpos]
                t = s - row_cost[rpos] + suf_sums[rpos][
                    bisect_right(suf_cols[rpos], last_pos)
                ]
                if t > 0:
                    ub += t
        if ub < cut:
            n_pruned += 1
            continue
        cand_mask = cand_all & neg_above[last_pos] & ~cols_mask
        if len(sums) == 1:
            # Single surviving row: all candidates are forced (v1's fast
            # path); the node has no branch children.
            (rpos, s), = sums.items()
            rcells = cells[rpos]
            m = cand_mask
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                m ^= low
                cols.append(cpos)
                s += values[rcells[cpos]]
            if len(cols) >= min_cols:
                if dup_rows and rpos in dup_rows:
                    seen: Set = set()
                    s = 0
                    for cpos in cols:
                        eid = rcells[cpos]
                        cube = entry_cubes[eid]
                        if cube not in seen:
                            seen.add(cube)
                            s += values[eid]
                gain = s - row_cost[rpos]
                if gain > 0:
                    for cpos in cols:
                        gain -= col_cost[cpos]
                    if gain > 0:
                        n_evaluated += 1
                        key = (tuple(cols), (rpos,))
                        if (
                            not found
                            or gain > best_gain
                            or (gain == best_gain and key < best_tuple)
                        ):
                            found = True
                            best_gain = gain
                            best_tuple = key
                            cut = gain
            continue
        branch: List[Tuple[int, int]] = []
        rows_it = iter(sums)
        common = row_cols[next(rows_it)]
        for rpos in rows_it:
            common &= row_cols[rpos]
        forced_mask = cand_mask & common
        if forced_mask:
            forced: List[int] = []
            m = forced_mask
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                forced.append(cpos)
                m ^= low
            n_forced += len(forced)
            cols.extend(forced)
            cols_mask |= forced_mask
            for rpos in sums:
                rcells = cells[rpos]
                s = sums[rpos]
                for cpos in forced:
                    s += values[rcells[cpos]]
                sums[rpos] = s
            for cpos in forced:
                ccost += col_cost[cpos]
        m = cand_mask & ~common
        while m:
            low = m & -m
            cpos = low.bit_length() - 1
            m ^= low
            branch.append((cpos, rows_mask & col_rows[cpos]))
        if len(cols) >= min_cols:
            chosen: List[int] = []
            gain = 0
            for rpos, s in sums.items():
                marg = s - row_cost[rpos]
                if marg > 0:
                    chosen.append(rpos)
                    gain += marg
            if chosen:
                for cpos in cols:
                    gain -= col_cost[cpos]
                if len(chosen) > 1 or dup_rows:
                    counts: Dict[int, int] = {}
                    multi = False
                    for rpos in chosen:
                        nid = row_node[rpos]
                        if nid in counts:
                            counts[nid] += 1
                            multi = True
                        else:
                            counts[nid] = 1
                    need: Set[int] = set()
                    if multi:
                        need = {n for n, k in counts.items() if k > 1}
                    if dup_rows:
                        for rpos in chosen:
                            if rpos in dup_rows:
                                need.add(row_node[rpos])
                    if need:
                        for nid in need:
                            seen = set()
                            for rpos in chosen:
                                if row_node[rpos] != nid:
                                    continue
                                rcells = cells[rpos]
                                for cpos in cols:
                                    eid = rcells[cpos]
                                    cube = entry_cubes[eid]
                                    if cube in seen:
                                        gain -= values[eid]
                                    else:
                                        seen.add(cube)
                if gain > 0:
                    n_evaluated += 1
                    key = (tuple(cols), tuple(chosen))
                    if (
                        not found
                        or gain > best_gain
                        or (gain == best_gain and key < best_tuple)
                    ):
                        found = True
                        best_gain = gain
                        best_tuple = key
                        cut = gain
        for cpos, rows2 in reversed(branch):
            push((
                cols + [cpos], cols_mask | (1 << cpos), rows2, cpos,
                sums, cpos, ccost + col_cost[cpos],
            ))

    best: Optional[Tuple[Rectangle, int]] = None
    if found:
        best = (
            Rectangle(
                rows=tuple([row_labels[r] for r in best_tuple[1]]),
                cols=tuple([col_labels[c] for c in best_tuple[0]]),
            ),
            best_gain,
        )
    return best, {
        "nodes": n_visits,
        "pruned": n_pruned,
        "dominance_skips": n_domskips,
        "forced": n_forced,
        "evaluated": n_evaluated,
    }


def _best_rectangle_set_v2(
    matrix: KCMatrix,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
) -> Tuple[Optional[Tuple[Rectangle, int]], Dict[str, int]]:
    """Set-core v2 twin of :func:`_best_rectangle_bit_v2`.

    Computes the identical bound, dominance set and incumbent updates
    from the sparse structures, so both cores visit the same pruned
    tree, spend the same budget and return the same rectangle — the
    differential property every cross-core test leans on.
    """
    col_labels = sorted(matrix.cols)
    value_fn = _memoized(default_value)
    rows_map = matrix.rows
    entries = matrix.entries
    by_row = matrix.by_row
    by_col = matrix.by_col
    node_of = {r: rows_map[r].node for r in rows_map}
    row_cost = {r: len(rows_map[r].cokernel) + 1 for r in rows_map}
    col_cost = {c: len(kc) for c, kc in matrix.cols.items()}

    suf_cols: Dict[int, List[int]] = {}
    suf_sums: Dict[int, List[int]] = {}
    for r in rows_map:
        cs = sorted(by_row[r])
        suf = [0] * (len(cs) + 1)
        for i in range(len(cs) - 1, -1, -1):
            suf[i] = suf[i + 1] + value_fn(node_of[r], entries[(r, cs[i])])
        suf_cols[r] = cs
        suf_sums[r] = suf

    node_rows: Dict[str, List[int]] = {}
    for r in rows_map:
        node_rows.setdefault(node_of[r], []).append(r)
    clean_rows: Set[int] = set()
    for node, rws in node_rows.items():
        seen_cubes: Set = set()
        clean = True
        for r in rws:
            for c in by_row[r]:
                cube = entries[(r, c)]
                if cube in seen_cubes:
                    clean = False
                    break
                seen_cubes.add(cube)
            if not clean:
                break
        if clean:
            clean_rows.update(rws)
    dominated: Set[int] = set()
    for c in col_labels:
        rows = by_col[c]
        if not rows or not rows <= clean_rows:
            continue
        r0 = min(rows)
        for c2 in sorted(by_row[r0]):
            if c2 >= c:
                break
            if rows <= by_col[c2]:
                dominated.add(c)
                break

    stats = {
        "nodes": 0, "pruned": 0, "dominance_skips": 0,
        "forced": 0, "evaluated": 0,
    }
    best: List[Optional[Tuple[Rectangle, int]]] = [None]
    cut = [1]

    def explore(cols: List[int], rows: Set[int], last_col: int, ccost: int) -> None:
        if budget is not None:
            budget.spend()
        if meter is not None:
            meter.charge("search_node", 1)
        stats["nodes"] += 1
        in_cols = set(cols)
        ub = -ccost
        candidates: Set[int] = set()
        for r in rows:
            s = 0
            node = node_of[r]
            for c in cols:
                s += value_fn(node, entries[(r, c)])
            t = s - row_cost[r] + suf_sums[r][
                bisect_right(suf_cols[r], last_col)
            ]
            if t > 0:
                ub += t
            for c2 in by_row[r]:
                if c2 > last_col and c2 not in in_cols:
                    candidates.add(c2)
        if ub < cut[0]:
            stats["pruned"] += 1
            return
        branch: List[int] = []
        forced: List[int] = []
        for c2 in sorted(candidates):
            rows2 = rows & by_col[c2]
            if not rows2:
                continue
            if len(rows2) == len(rows):
                forced.append(c2)
            else:
                branch.append(c2)
        stats["forced"] += len(forced)
        cols.extend(forced)
        ccost += sum(col_cost[c2] for c2 in forced)
        if len(cols) >= min_cols:
            chosen, _ = _best_rows_for_cols(matrix, cols, rows, value_fn)
            if chosen:
                rect = Rectangle(rows=chosen, cols=tuple(cols))
                gain = rectangle_gain(matrix, rect, value_fn)
                if gain > 0:
                    stats["evaluated"] += 1
                    b = best[0]
                    if (
                        b is None
                        or gain > b[1]
                        or (gain == b[1]
                            and (rect.cols, rect.rows) < (b[0].cols, b[0].rows))
                    ):
                        best[0] = (rect, gain)
                        cut[0] = gain
        for c2 in branch:
            rows2 = rows & by_col[c2]
            cols.append(c2)
            explore(cols, rows2, c2, ccost + col_cost[c2])
            cols.pop()
        del cols[len(cols) - len(forced):]

    for c in col_labels:
        if anchor_filter is not None and not anchor_filter(c):
            continue
        rows0 = set(by_col[c])
        if not rows0:
            continue
        if c in dominated:
            stats["dominance_skips"] += 1
            continue
        explore([c], rows0, c, col_cost[c])
    return best[0], stats


def best_rectangle_exhaustive(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    core: Optional[str] = None,
    prune: Optional[bool] = None,
    memo=None,
) -> Optional[Tuple[Rectangle, int]]:
    """Maximum-gain rectangle (deterministic ties).

    By default this runs the v2 pruned search — branch-and-bound with an
    admissible remaining-gain bound, dominance-based anchor skipping and
    the cross-job canonical memo of :mod:`repro.rectangles.memo` — which
    returns the exact rectangle (value *and* tie-break) full enumeration
    would, while visiting a fraction of the tree.  ``prune=False`` (or
    ``REPRO_RECT_PRUNE=0``) falls back to consuming the v1
    :func:`enumerate_rectangles` stream; non-default value functions
    always take that fallback because the bound and dominance arguments
    assume the default value structure.

    ``memo=`` is ``None`` (the process-default memo), ``False``
    (disabled) or an explicit :class:`~repro.rectangles.memo.RectMemo`.
    Memoization applies only to unfiltered default-value searches on
    matrices compiled from row blocks (those whose view has a
    :meth:`~repro.rectangles.bitview.BitKCView.signature`); hits
    replay the recorded node count as one lump budget spend / meter
    charge, so budgets raise and simulated clocks advance exactly as if
    the search had run.
    """
    tracing = active_tracer() is not None
    if resolve_prune(prune) and value_fn is default_value:
        memo_obj = resolve_memo(memo) if anchor_filter is None else None
        view = None
        key = None
        if memo_obj is not None:
            view = matrix.bitview()
            sig = view.signature()
            if sig is not None:
                key = memo_key(sig, min_cols)
            hit = memo_obj.lookup(key) if key is not None else None
            if hit is not None:
                nodes = hit["nodes"]
                if budget is not None:
                    budget.spend(nodes)
                if meter is not None:
                    meter.charge("search_node", nodes)
                if tracing:
                    # A hit stands in for the recorded search: the nodes
                    # it charged the meter/budget are attributed to the
                    # span so traced profiles keep adding up.
                    add_counters(search_node_visit=nodes, rect_memo_hits=1)
                if not hit["found"]:
                    return None
                row_labels = view.row_labels
                col_labels = view.col_labels
                rect = Rectangle(
                    rows=tuple([row_labels[r] for r in hit["rows"]]),
                    cols=tuple([col_labels[c] for c in hit["cols"]]),
                )
                return rect, hit["gain"]
        impl = (
            _best_rectangle_bit_v2
            if resolve_core(core) == "bit"
            else _best_rectangle_set_v2
        )
        best, stats = impl(matrix, min_cols, anchor_filter, budget, meter)
        GLOBAL_SEARCH_STATS.record(stats["pruned"], stats["dominance_skips"])
        if tracing:
            add_counters(
                search_node_visit=stats["nodes"],
                dominance_prune=stats["forced"],
                rect_yield=stats["evaluated"],
                rect_search_pruned_subtrees=stats["pruned"],
                rect_search_dominance_skips=stats["dominance_skips"],
            )
            if key is not None:
                add_counters(rect_memo_misses=1)
        if key is not None:
            if best is None:
                entry = {
                    "found": False, "gain": 0, "rows": [], "cols": [],
                    "nodes": stats["nodes"],
                }
            else:
                rect, gain = best
                row_pos = view.row_pos
                col_pos = view.col_pos
                entry = {
                    "found": True,
                    "gain": gain,
                    "rows": [row_pos[r] for r in rect.rows],
                    "cols": [col_pos[c] for c in rect.cols],
                    "nodes": stats["nodes"],
                }
            evicted = memo_obj.store(key, entry)
            if evicted and tracing:
                add_counters(rect_memo_evictions=1)
        return best
    n_yield = 0
    best: Optional[Tuple[Rectangle, int]] = None
    for rect, gain in enumerate_rectangles(
        matrix,
        value_fn=value_fn,
        min_cols=min_cols,
        anchor_filter=anchor_filter,
        budget=budget,
        meter=meter,
        core=core,
    ):
        if tracing:
            n_yield += 1
        if (
            best is None
            or gain > best[1]
            or (gain == best[1] and (rect.cols, rect.rows) < (best[0].cols, best[0].rows))
        ):
            best = (rect, gain)
    if tracing:
        add_counters(rect_yield=n_yield)
    return best


def column_stripes(matrix: KCMatrix, nprocs: int) -> List[Set[int]]:
    """Contiguous column stripes for the Figure 1 decomposition.

    Processor 1 gets rectangles whose leftmost column lies in the first
    ``1/n`` of the (label-sorted) columns, processor 2 the second, etc.
    """
    labels = sorted(matrix.cols)
    n = len(labels)
    stripes: List[Set[int]] = []
    for p in range(nprocs):
        lo = (p * n) // nprocs
        hi = ((p + 1) * n) // nprocs
        stripes.append(set(labels[lo:hi]))
    return stripes
