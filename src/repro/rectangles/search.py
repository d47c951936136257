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

There is one production core: the traversal runs on the dense bitmask
view of :mod:`repro.rectangles.bitview` — row sets are int bitmasks,
candidate scans are bit iterations, the column dominance test is one
mask equality, and cell values are table lookups.  The best-rectangle
search is the v2 pruned walk (branch-and-bound, dominance skips and the
cross-job memo); the v1 :func:`enumerate_rectangles` stream remains for
non-default value functions.  The sparse-set implementation of the same
walks lives in :mod:`repro.verify.reference`; with audits on
(``REPRO_CHECK=1``) every :func:`best_rectangle_exhaustive` call is
rerun there and must agree on the result, the meter charges and the
budget spend.

Enumeration is exponential in the worst case; :class:`SearchBudget`
bounds the number of visited tree nodes and raises
:class:`BudgetExceeded` — this is how the reproduction models the paper's
"did not terminate after 10000 seconds" rows for spla/ex1010.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.obs.tracer import active_tracer, add_counters
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
)
from repro.verify import audit


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


def rectangle_rank(rect: Rectangle, gain: int) -> Tuple[int, tuple, tuple]:
    """Sort key of the deterministic tie-break every searcher uses:
    higher gain first, then lexicographically smaller (cols, rows)."""
    return (-gain, rect.cols, rect.rows)


def best_of(
    stream: Iterable[Tuple[Rectangle, int]]
) -> Optional[Tuple[Rectangle, int]]:
    """The best (rectangle, gain) of *stream* under :func:`rectangle_rank`
    (``None`` for an empty stream)."""
    return min(stream, key=lambda rg: rectangle_rank(*rg), default=None)


def enumerate_rectangles(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    prime_only: bool = True,
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
    """
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
    # byte-identical to the recursion of the sparse-set reference
    # (:mod:`repro.verify.reference`).
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
    and hence identical budget spends and meter charges — to the v2
    twin in :mod:`repro.verify.reference`.
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
                        if gain >= best_gain:  # best_gain is 0 until found
                            key = (tuple(sorted(cols)), (rpos,))
                            if gain > best_gain or key < best_tuple:
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
                    if gain >= best_gain:
                        # cols is in walk order (a forced column can sit
                        # above a later branch column); ties compare the
                        # sorted column tuple, as rectangle_rank does.
                        key = (tuple(sorted(cols)), tuple(chosen))
                        if gain > best_gain or key < best_tuple:
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


@audit.audit_search
def best_rectangle_exhaustive(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    memo=None,
) -> Optional[Tuple[Rectangle, int]]:
    """Maximum-gain rectangle (deterministic ties, :func:`rectangle_rank`).

    For the default value function this runs the v2 pruned search —
    branch-and-bound with an admissible remaining-gain bound,
    dominance-based anchor skipping and the cross-job canonical memo of
    :mod:`repro.rectangles.memo` — which returns the exact rectangle
    (value *and* tie-break) full enumeration would, while visiting a
    fraction of the tree.  Non-default value functions take the best of
    the v1 :func:`enumerate_rectangles` stream, because the bound and
    dominance arguments assume the default value structure.

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
    if value_fn is default_value:
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
        best, stats = _best_rectangle_bit_v2(
            matrix, min_cols, anchor_filter, budget, meter
        )
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
    stream = enumerate_rectangles(
        matrix,
        value_fn=value_fn,
        min_cols=min_cols,
        anchor_filter=anchor_filter,
        budget=budget,
        meter=meter,
    )
    if tracing:
        stream = list(stream)
        add_counters(rect_yield=len(stream))
    return best_of(stream)


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
