"""SIS-style ping-pong rectangle heuristic.

``gkx`` in SIS does not enumerate all rectangles: it grows one greedily by
alternating between the best column set for the current rows and the best
row set for the current columns (coordinate ascent on the gain).  Because
a column's contribution given fixed rows — ``Σ_i value(cube_ic) − |kc_c|``
— and a row's contribution given fixed columns are independent per
column/row, each half-step is exact, the gain is monotone non-decreasing
and the iteration terminates at a local optimum.

The sequential baseline of this reproduction ("SIS") uses this searcher;
it is fast enough for the largest circuits, unlike the exhaustive search
of :mod:`repro.rectangles.search` which the replicated parallel algorithm
uses (and which DNFs on them, as in the paper).

Seeds are tried in order of potential ``Σ_c (|rows(c)| − 1)·value``,
highest first, ties by row label.  Only *shared* columns — those of two
or more rows — add to it, so the view keeps an exact shared-column mask
and only rows touching it are scored.  A *private* row (no shared
column) has potential 0, and its ascent is resolved in closed form: no
other row can join its columns, so it ends in round 1 or confirms the
one-row rectangle in round 2, charged and counted as the general loop
would.  Searches work in view positions and build a :class:`Rectangle`
only for what they return.

The ascents run on the dense bitmask view — candidate sets are single
``&`` operations and cell values are table lookups.  That is the one
production implementation; :mod:`repro.verify.reference` keeps a
sparse-set twin, and with audits on (``REPRO_CHECK=1``) every
:func:`best_rectangle_pingpong` and :func:`pingpong_candidates` call is
rerun there and must agree on the result and the ``pingpong_round``
charges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import active_tracer, add_counters
from repro.rectangles.bitview import popcount
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import Rectangle, ValueFn, default_value
from repro.verify import audit


def _ascents(matrix, value_fn, min_cols, max_seeds, max_rounds, meter):
    """Run every seed's coordinate ascent on *matrix*'s bitset view.

    Returns the view and the distinct positive-gain fixpoints as
    ``(-gain, cols, rows)`` position tuples.  Position order is label
    order, so sorting these tuples sorts the rectangles by
    :func:`~repro.rectangles.search.rectangle_rank`.
    """
    view = matrix.bitview()
    values = view.value_table(value_fn)
    row_cols = view.row_cols
    col_rows = view.col_rows
    cells = view.cells
    row_cost = view.row_cost
    col_cost = view.col_cost

    getval = values.__getitem__

    def cols_for_rows(rows: Tuple[int, ...]) -> Tuple[int, ...]:
        # When enough columns contribute positively the result is just
        # their sorted positions — the (contrib, -cpos) ranking only
        # matters for the keep-top-min_cols fallback, so the scored list
        # and its sort are skipped on the fast path.
        if len(rows) == 1:
            # A seed's first half-step: its candidate columns are exactly
            # its own cells, no intersection needed.
            rcells = cells[rows[0]]
            pos = [
                cpos
                for cpos, eid in rcells.items()
                if values[eid] > col_cost[cpos]
            ]
            if len(pos) >= min_cols:
                return tuple(sorted(pos))
            scored = [
                (values[eid] - col_cost[cpos], -cpos)
                for cpos, eid in rcells.items()
            ]
        else:
            cand = row_cols[rows[0]]
            for r in rows[1:]:
                cand &= row_cols[r]
                if not cand:
                    return ()
            rdicts = [cells[r] for r in rows]
            scored = []
            m = cand
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                m ^= low
                contrib = -col_cost[cpos]
                for rc in rdicts:
                    contrib += values[rc[cpos]]
                scored.append((contrib, -cpos))
            pos = [(-negc) for contrib, negc in scored if contrib > 0]
            if len(pos) >= min_cols:
                return tuple(sorted(pos))
        scored.sort(reverse=True)
        chosen = [(-negc) for contrib, negc in scored if contrib > 0]
        if len(chosen) < min_cols:
            chosen = [(-negc) for _, negc in scored[:min_cols]]
            if len(chosen) < min_cols:
                return ()
        return tuple(sorted(chosen))

    def rows_for_cols(cols: Tuple[int, ...]) -> Tuple[int, ...]:
        cand = col_rows[cols[0]]
        for c in cols[1:]:
            cand &= col_rows[c]
            if not cand:
                return ()
        chosen: List[int] = []
        m = cand
        if len(cols) > 1:
            # Every candidate row has a cell in every chosen column (cand
            # is the intersection), so itemgetter/map run the whole
            # marginal sum in C.
            getcols = itemgetter(*cols)
            while m:
                low = m & -m
                rpos = low.bit_length() - 1
                m ^= low
                if sum(map(getval, getcols(cells[rpos]))) > row_cost[rpos]:
                    chosen.append(rpos)
        else:
            c0 = cols[0]
            while m:
                low = m & -m
                rpos = low.bit_length() - 1
                m ^= low
                if values[cells[rpos][c0]] > row_cost[rpos]:
                    chosen.append(rpos)
        return tuple(chosen)

    # Seed order: (-potential, position) over the live rows, where a
    # row's potential Σ_c (|rows(c)| − 1)·value(cell_rc) only has terms
    # in shared columns.  Rows with a shared column are ranked; the
    # private rest all have potential 0 and slot in, in position order,
    # among the shared rows of potential 0.
    shared = view.shared_cols()
    shar = list(map(popcount, col_rows)) if shared else None
    keyed: List[Tuple[int, int]] = []
    private: List[int] = []
    dead = view.dead_rows
    for rpos, mask in enumerate(row_cols):
        m = mask & shared
        if m:
            rcells = cells[rpos]
            p = 0
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                m ^= low
                p += (shar[cpos] - 1) * values[rcells[cpos]]
            keyed.append((-p, rpos))
        elif mask or rpos not in dead:
            private.append(rpos)
    keyed.sort()
    n_pos = bisect_left(keyed, (0, -1))
    n_zero = bisect_right(keyed, (0, len(row_cols)))
    if n_zero > n_pos:
        private += [r for _, r in keyed[n_pos:n_zero]]
        private.sort()
    seeds = [r for _, r in keyed[:n_pos]] + private + [r for _, r in keyed[n_zero:]]
    if max_seeds is not None:
        del seeds[max_seeds:]

    # A *private* seed (no shared column) ascends in closed form: its
    # columns are its own cells, the only row owning all of them is
    # itself, so the ascent either stops in round 1 or reaches
    # ((seed,), cols) and confirms that fixpoint in round 2 (two memo
    # hits).  No other ascent ever visits those states, so the memos
    # below neither help nor miss it.  Needs min_cols ≥ 1 (an empty
    # column set ends the ascent) and at least one round.
    closed_form = min_cols >= 1 and max_rounds >= 1
    dup = view.dup_rows()

    # Different seeds funnel into the same ascent states, and both
    # half-steps and the gain are pure functions of the state for the
    # duration of one search — so memoize them per state tuple.  The
    # round loop itself still runs per seed, so every round actually
    # walked is counted (and charged as one pingpong_round each).
    memo_cfr: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    memo_rfc: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    # Fixpoint state → its (-gain, cols, rows), or () when the gain is
    # not positive.
    memo_out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], tuple] = {}
    found: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []

    n_rounds = 0
    n_memo_hits = 0

    for seed in seeds:
        if closed_form and not row_cols[seed] & shared:
            n_rounds += 1
            cols = cols_for_rows((seed,))
            if not cols:
                continue
            rcells = cells[seed]
            if len(cols) == 1:
                marginal = values[rcells[cols[0]]] - row_cost[seed]
            else:
                marginal = sum(map(getval, itemgetter(*cols)(rcells))) - row_cost[seed]
            if marginal <= 0:
                continue
            if max_rounds > 1:
                n_rounds += 1
                n_memo_hits += 2
            if seed in dup:
                gain = view.rect_gain((seed,), cols, values)
            else:
                gain = marginal - sum(map(col_cost.__getitem__, cols))
            if gain > 0:
                found.append((-gain, cols, (seed,)))
            continue
        rows: Tuple[int, ...] = (seed,)
        cols = ()
        for _ in range(max_rounds):
            n_rounds += 1
            new_cols = memo_cfr.get(rows)
            if new_cols is None:
                new_cols = cols_for_rows(rows)
                memo_cfr[rows] = new_cols
            else:
                n_memo_hits += 1
            if not new_cols:
                break
            new_rows = memo_rfc.get(new_cols)
            if new_rows is None:
                new_rows = rows_for_cols(new_cols)
                memo_rfc[new_cols] = new_rows
            else:
                n_memo_hits += 1
            if not new_rows:
                break
            if new_cols == cols and new_rows == rows:
                break
            cols, rows = new_cols, new_rows
        if len(cols) < min_cols or not rows:
            continue
        state = (rows, cols)
        out = memo_out.get(state)
        if out is None:
            gain = view.rect_gain(rows, cols, values)
            out = (-gain, cols, rows) if gain > 0 else ()
            memo_out[state] = out
            if out:
                found.append(out)
        else:
            n_memo_hits += 1
    if meter is not None and n_rounds:
        meter.charge("pingpong_round", n_rounds)
    if active_tracer() is not None:
        add_counters(
            pingpong_round_visit=n_rounds,
            memo_hit=n_memo_hits,
            ascent_seed=len(seeds),
        )
    return view, found


def _labelled(view, found) -> Tuple[Rectangle, int]:
    """The (label rectangle, gain) of one ``(-gain, cols, rows)`` tuple."""
    neg_gain, cols, rows = found
    row_labels = view.row_labels
    col_labels = view.col_labels
    return (
        Rectangle(
            rows=tuple([row_labels[r] for r in rows]),
            cols=tuple([col_labels[c] for c in cols]),
        ),
        -neg_gain,
    )


@audit.audit_search
def pingpong_candidates(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    max_seeds: Optional[int] = None,
    max_rounds: int = 8,
    meter=None,
) -> List[Tuple[Rectangle, int]]:
    """All distinct positive-gain local optima, best first.

    Used by consumers that need alternatives beyond the single best —
    e.g. the timing-driven extraction loop, which skips rectangles whose
    new node would violate the depth budget.
    """
    view, found = _ascents(matrix, value_fn, min_cols, max_seeds, max_rounds, meter)
    found.sort()
    return [_labelled(view, f) for f in found]


@audit.audit_search
def best_rectangle_pingpong(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    max_seeds: Optional[int] = None,
    max_rounds: int = 8,
    meter=None,
) -> Optional[Tuple[Rectangle, int]]:
    """Best rectangle found by seeded coordinate ascent.

    Every row seeds one ascent (highest shared-column potential first,
    then private rows among the potential-0 ones in label order;
    *max_seeds* caps the number tried).  Deterministic: ties break
    toward lexicographically smaller (cols, rows).
    """
    view, found = _ascents(matrix, value_fn, min_cols, max_seeds, max_rounds, meter)
    return _labelled(view, min(found)) if found else None
