"""Reference rectangle searches: the sparse-set oracle for the bit core.

Production runs one implementation of each searcher, on the dense
bitmask view of :mod:`repro.rectangles.bitview`.  This module keeps the
original sparse-set implementations of the same searches — the
column-anchored enumeration of Figure 1, its v2 branch-and-bound twin
and the SIS ping-pong ascents — as an independent second opinion.  They
walk the same trees on ``KCMatrix``'s ``by_row``/``by_col``/``entries``
indexes instead of bitmasks and dense tables, and promise the identical
result, tie-breaks included, the identical budget spend and the
identical ``search_node``/``pingpong_round`` meter charges.

Nothing in production selects these.  With audits on
(:mod:`repro.verify.audit`), every production search is rerun here on
the same matrix and any difference raises
:class:`~repro.verify.audit.InvariantViolation`; tests and the perf
harness also call them directly.  They record nothing in the tracer or
the global search statistics, and have no memo.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import (
    Rectangle,
    ValueFn,
    default_value,
    rectangle_gain,
)
from repro.rectangles.search import SearchBudget, best_of, rectangle_rank


def _best_rows_for_cols(
    matrix: KCMatrix, cols: List[int], rows: Set[int], value_fn: ValueFn
) -> Tuple[int, ...]:
    """The rows (in label order) whose marginal ``Σ_j value(cube_rj) −
    |cokernel_r| − 1`` over *cols* is positive."""
    chosen = []
    for r in sorted(rows):
        info = matrix.rows[r]
        total = sum(value_fn(info.node, matrix.entries[(r, c)]) for c in cols)
        if total - len(info.cokernel) - 1 > 0:
            chosen.append(r)
    return tuple(chosen)


def enumerate_rectangles(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    prime_only: bool = True,
) -> Iterator[Tuple[Rectangle, int]]:
    """The v1 column-subset walk, recursive over sparse row sets: the
    twin of :func:`repro.rectangles.search.enumerate_rectangles`."""
    col_labels = sorted(matrix.cols)

    def explore(
        cols: List[int], rows: Set[int], last_col: int
    ) -> Iterator[Tuple[Rectangle, int]]:
        if budget is not None:
            budget.spend()
        if meter is not None:
            meter.charge("search_node", 1)
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
        cols.extend(forced)
        if len(cols) >= min_cols:
            chosen = _best_rows_for_cols(matrix, cols, rows, value_fn)
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


def _best_rectangle_set_v2(
    matrix: KCMatrix,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
) -> Optional[Tuple[Rectangle, int]]:
    """The v2 pruned search (bound cut + dominance skip) on sparse sets:
    the bit core's bound, dominance set and incumbent updates, so both
    visit the same pruned tree and return the same rectangle."""
    col_labels = sorted(matrix.cols)
    value_fn = default_value
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

    best: List[Optional[Tuple[Rectangle, int]]] = [None]
    cut = [1]

    def explore(cols: List[int], rows: Set[int], last_col: int, ccost: int) -> None:
        if budget is not None:
            budget.spend()
        if meter is not None:
            meter.charge("search_node", 1)
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
        cols.extend(forced)
        ccost += sum(col_cost[c2] for c2 in forced)
        if len(cols) >= min_cols:
            chosen = _best_rows_for_cols(matrix, cols, rows, value_fn)
            if chosen:
                rect = Rectangle(rows=chosen, cols=tuple(cols))
                gain = rectangle_gain(matrix, rect, value_fn)
                if gain > 0 and (
                    best[0] is None
                    or rectangle_rank(rect, gain) < rectangle_rank(*best[0])
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
        if not rows0 or c in dominated:
            continue
        explore([c], rows0, c, col_cost[c])
    return best[0]


def _cols_for_rows(
    matrix: KCMatrix,
    rows: Tuple[int, ...],
    value_fn: ValueFn,
    min_cols: int,
) -> Tuple[int, ...]:
    """Best column set given fixed rows (per-column positive contribution)."""
    if not rows:
        return ()
    candidates: Set[int] = set(matrix.by_row[rows[0]])
    for r in rows[1:]:
        candidates &= matrix.by_row[r]
        if not candidates:
            return ()
    scored: List[Tuple[int, int]] = []
    for c in candidates:
        contrib = (
            sum(value_fn(matrix.rows[r].node, matrix.entries[(r, c)]) for r in rows)
            - len(matrix.cols[c])
        )
        scored.append((contrib, -c))
    scored.sort(reverse=True)
    chosen = [(-negc) for contrib, negc in scored if contrib > 0]
    if len(chosen) < min_cols:
        # Keep the top-min_cols columns so the rectangle stays a kernel.
        chosen = [(-negc) for _, negc in scored[:min_cols]]
        if len(chosen) < min_cols:
            return ()
    return tuple(sorted(chosen))


def _rows_for_cols(
    matrix: KCMatrix,
    cols: Tuple[int, ...],
    value_fn: ValueFn,
) -> Tuple[int, ...]:
    """Best row set given fixed columns (per-row positive marginal)."""
    if not cols:
        return ()
    candidates: Set[int] = set(matrix.by_col[cols[0]])
    for c in cols[1:]:
        candidates &= matrix.by_col[c]
        if not candidates:
            return ()
    chosen: List[int] = []
    for r in sorted(candidates):
        info = matrix.rows[r]
        marginal = (
            sum(value_fn(info.node, matrix.entries[(r, c)]) for c in cols)
            - len(info.cokernel)
            - 1
        )
        if marginal > 0:
            chosen.append(r)
    return tuple(chosen)


def _ascents_set(
    matrix: KCMatrix, value_fn, min_cols, max_seeds, max_rounds, meter
) -> Iterator[Tuple[Rectangle, int]]:
    """Seeded coordinate ascents, one per seed row, on sparse sets."""
    # Seed ranking: a row is promising when its columns are shared by
    # other rows (that sharing is what a rectangle monetizes), weighted
    # by the value sitting in those shared columns.
    col_sharing = {c: len(rows) for c, rows in matrix.by_col.items()}
    row_potential = {
        r: sum(
            (col_sharing[c] - 1)
            * value_fn(matrix.rows[r].node, matrix.entries[(r, c)])
            for c in matrix.by_row[r]
        )
        for r in matrix.rows
    }
    seeds = sorted(matrix.rows, key=lambda r: (-row_potential[r], r))
    if max_seeds is not None:
        seeds = seeds[:max_seeds]

    for seed in seeds:
        rows: Tuple[int, ...] = (seed,)
        cols: Tuple[int, ...] = ()
        for _ in range(max_rounds):
            if meter is not None:
                meter.charge("pingpong_round", 1)
            new_cols = _cols_for_rows(matrix, rows, value_fn, min_cols)
            if not new_cols:
                break
            new_rows = _rows_for_cols(matrix, new_cols, value_fn)
            if not new_rows:
                break
            if new_cols == cols and new_rows == rows:
                break
            cols, rows = new_cols, new_rows
        if len(cols) < min_cols or not rows:
            continue
        rect = Rectangle(rows=rows, cols=cols)
        gain = rectangle_gain(matrix, rect, value_fn)
        if gain > 0:
            yield rect, gain


def rank_candidates(
    stream: Iterable[Tuple[Rectangle, int]]
) -> List[Tuple[Rectangle, int]]:
    """The distinct rectangles of *stream* (best gain per rectangle),
    best first under :func:`~repro.rectangles.search.rectangle_rank`."""
    found: dict = {}
    for rect, gain in stream:
        key = (rect.rows, rect.cols)
        if key not in found or found[key][1] < gain:
            found[key] = (rect, gain)
    return sorted(found.values(), key=lambda rg: rectangle_rank(*rg))


# The production search signatures (minus the memo).

def best_rectangle_exhaustive(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
) -> Optional[Tuple[Rectangle, int]]:
    """Reference twin of :func:`repro.rectangles.search.best_rectangle_exhaustive`:
    the v2 pruned search for the default value function, else the best
    of the v1 stream."""
    if value_fn is default_value:
        return _best_rectangle_set_v2(matrix, min_cols, anchor_filter, budget, meter)
    return best_of(enumerate_rectangles(
        matrix, value_fn=value_fn, min_cols=min_cols,
        anchor_filter=anchor_filter, budget=budget, meter=meter,
    ))


def pingpong_candidates(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    max_seeds: Optional[int] = None,
    max_rounds: int = 8,
    meter=None,
) -> List[Tuple[Rectangle, int]]:
    """Reference twin of :func:`repro.rectangles.pingpong.pingpong_candidates`."""
    return rank_candidates(
        _ascents_set(matrix, value_fn, min_cols, max_seeds, max_rounds, meter)
    )


def best_rectangle_pingpong(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    max_seeds: Optional[int] = None,
    max_rounds: int = 8,
    meter=None,
) -> Optional[Tuple[Rectangle, int]]:
    """Reference twin of :func:`repro.rectangles.pingpong.best_rectangle_pingpong`."""
    return best_of(
        _ascents_set(matrix, value_fn, min_cols, max_seeds, max_rounds, meter)
    )


def reference_searcher(
    kind: str,
    meter=None,
    budget: Optional[SearchBudget] = None,
    max_seeds: Optional[int] = None,
) -> Callable[[KCMatrix], Optional[Tuple[Rectangle, int]]]:
    """A ``kernel_extract(searcher=...)`` callable over the reference
    searches ("pingpong"/"exhaustive"), mirroring ``make_searcher``."""
    if kind == "pingpong":
        return lambda m: best_rectangle_pingpong(m, meter=meter, max_seeds=max_seeds)
    if kind == "exhaustive":
        return lambda m: best_rectangle_exhaustive(m, budget=budget, meter=meter)
    raise ValueError(f"unknown searcher {kind!r}")
