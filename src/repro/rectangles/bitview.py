"""Dense bitset view of a :class:`~repro.rectangles.kcmatrix.KCMatrix`.

The rectangle searches spend nearly all of their time intersecting row
sets, scanning candidate columns and re-valuing (row, col) cells.  The
sparse matrix keys all of that by *global offset labels* (processor 2's
first kernel is row 200001), so the sets are sparse ``Set[int]`` objects
and every cell value is a fresh ``value_fn`` call.

:class:`BitKCView` compiles the matrix once into a dense form:

- row/column labels are remapped to dense positions ``0..R-1`` /
  ``0..C-1`` in sorted-label order, so position order *is* label order
  and every label-order tie-break of the searchers is preserved;
- each column's row set and each row's column set become Python int
  bitmasks — a row-set intersection is one big-int ``&``, a dominance
  test one equality, a cardinality one popcount;
- every occupied cell carries a dense *entry id* into a per-search value
  table, and per-row ``len(cokernel) + 1`` / per-column
  ``len(kernel_cube)`` cost tables turn row marginals and rectangle
  gains into table lookups instead of ``value_fn`` calls;
- rows carry dense node ids, so the distinct-cube gain correction (two
  cells of one node naming the same original cube count once) only ever
  hashes cubes for nodes that actually contribute several rows to a
  rectangle — the common all-distinct case is pure table arithmetic.

The view is *structural*: it never mutates the matrix.  Every matrix
mutation but one drops it (``KCMatrix`` recompiles after
``add_row``/``ensure_col``/``add_entry``/``remove_col``/``merge``).  The
exception is ``remove_row``, the L-shaped extraction step: it patches the
cached view in place with :meth:`BitKCView.drop_row`, which clears the
row's bits, marks its position dead and resets the derived tables, so a
row removal costs the row's cells instead of a full recompile.  Positions
and entry ids never move, so a patched view searches exactly like one
compiled afresh from the smaller matrix.  The value table for the pure
:func:`~repro.rectangles.rectangle.default_value` is cached with the
structure; any other ``value_fn`` (e.g. the L-shaped speculative
cube-state values, which change between search rounds) is evaluated
freshly per search — still once per cell instead of once per
(row, col, visit), and with one meter charge for the whole table when
the function offers a ``fill_table`` (see :meth:`BitKCView.value_table`).

The labels stay the external interface: every rectangle leaving a
bit-core search carries the original offset labels, so the parallel
algorithms' exchange/splice protocol is untouched.
"""

from __future__ import annotations

import hashlib
import threading
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube
from repro.rectangles.kcmatrix import dup_row_indices, node_is_clean
from repro.rectangles.rectangle import ValueFn, default_value

CubeRef = Tuple[str, Cube]

if hasattr(int, "bit_count"):  # Python ≥ 3.10
    popcount = int.bit_count
else:  # pragma: no cover - exercised on 3.9 CI only
    def popcount(mask: int) -> int:
        return bin(mask).count("1")


#: ``_NEG_ABOVE[p] == -(1 << (p + 1))``, shared by every view.  Grown
#: by building a longer list and swapping it in under the lock, so a
#: search in another thread keeps reading the list it already loaded.
_NEG_ABOVE: List[int] = []
_NEG_ABOVE_LOCK = threading.Lock()


def neg_above_table(n: int) -> List[int]:
    """The shared ``neg_above`` table, at least *n* entries long."""
    global _NEG_ABOVE
    table = _NEG_ABOVE
    if len(table) < n:
        with _NEG_ABOVE_LOCK:
            table = _NEG_ABOVE
            if len(table) < n:
                table = table + [-(1 << (p + 1)) for p in range(len(table), n)]
                _NEG_ABOVE = table
    return table


def _compile_sparse(matrix) -> tuple:
    """The dense arrays of *matrix* from its sparse entry dict.

    Positions are sorted-label order; node ids follow first appearance
    in that order; entry ids follow the entry dict's order.
    """
    row_labels = sorted(matrix.rows)
    col_labels = sorted(matrix.cols)
    row_pos = {lab: i for i, lab in enumerate(row_labels)}
    col_pos = {lab: i for i, lab in enumerate(col_labels)}
    # Dense node ids: the gain correction only compares cells within
    # one node, so rows carry an int id instead of the node name.
    node_ids: Dict[str, int] = {}
    row_node: List[int] = []
    row_cost: List[int] = []
    rows_map = matrix.rows
    for lab in row_labels:
        info = rows_map[lab]
        row_cost.append(len(info.cokernel) + 1)
        row_node.append(node_ids.setdefault(info.node, len(node_ids)))

    col_rows = [0] * len(col_labels)
    row_cols = [0] * len(row_labels)
    cells: List[Dict[int, int]] = [dict() for _ in row_labels]
    entry_cubes: List[Cube] = []
    for (rlab, clab), cube in matrix.entries.items():
        rpos = row_pos[rlab]
        cpos = col_pos[clab]
        row_cols[rpos] |= 1 << cpos
        col_rows[cpos] |= 1 << rpos
        cells[rpos][cpos] = len(entry_cubes)
        entry_cubes.append(cube)
    col_cost = [len(matrix.cols[lab]) for lab in col_labels]
    return (row_labels, col_labels, row_pos, col_pos, row_node, list(node_ids),
            row_cost, col_cost, row_cols, col_rows, cells, entry_cubes)


class BitKCView:
    """Dense-position bitmask compilation of one KCMatrix snapshot.

    Get it with :meth:`KCMatrix.bitview` (cached) rather than building
    it directly; the cache guarantees at most one compilation per matrix
    version.
    """

    __slots__ = (
        "row_labels",
        "col_labels",
        "row_pos",
        "col_pos",
        "row_cols",
        "col_rows",
        "cells",
        "entry_cubes",
        "row_node",
        "node_names",
        "row_cost",
        "col_cost",
        "dead_rows",
        "_blocks",
        "_default_values",
        "_shared_cols",
        "_dup_rows",
        "_clean_rows",
        "_dominated_anchors",
        "_suffix_pot",
        "_signature",
    )

    def __init__(
        self, matrix=None, dense: Optional[tuple] = None, blocks: Optional[list] = None
    ) -> None:
        """Compile *matrix*'s sparse form, or adopt *dense*.

        *dense* is ``(row_labels, col_labels, row_pos, col_pos, row_node,
        node_names, row_cost, col_cost, row_cols, col_rows, cells,
        entry_cubes)`` as :func:`~repro.rectangles.kcmatrix.build_kc_matrix`
        compiles it straight from its row blocks; *blocks* is then the
        ordered ``(first row position, RowBlock)`` list it compiled, one
        pair per node, from which :meth:`signature`, :meth:`dup_rows`
        and :meth:`clean_rows_mask` are assembled in O(nodes).
        """
        if dense is None:
            dense = _compile_sparse(matrix)
        (
            self.row_labels, self.col_labels, self.row_pos, self.col_pos,
            self.row_node, self.node_names, self.row_cost, self.col_cost,
            self.row_cols, self.col_rows, self.cells, self.entry_cubes,
        ) = dense
        self._blocks = blocks
        #: Positions of rows :meth:`drop_row` removed; they keep their
        #: position and entry ids but have no cells.
        self.dead_rows: Set[int] = set()
        self._default_values: Optional[List[int]] = None
        self._shared_cols: Optional[int] = None
        self._dup_rows: Optional[Set[int]] = None
        self._clean_rows: Optional[int] = None
        self._dominated_anchors: Optional[int] = None
        self._suffix_pot: Optional[Tuple[List[List[int]], List[List[int]]]] = None
        self._signature: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Live rows (dropped rows keep a position but do not count)."""
        return len(self.row_labels) - len(self.dead_rows)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)

    @property
    def num_entries(self) -> int:
        """Live cells."""
        if self.dead_rows:
            return sum(map(len, self.cells))
        return len(self.entry_cubes)

    def shared_cols(self) -> int:
        """Bitmask of the columns at least two live rows share.

        Only these columns can enlarge a seed row into a rectangle with
        more rows; ping-pong ranks its seeds by them and resolves a row
        with none of them in closed form.  Computed on first request and
        then kept exact by :meth:`drop_row`.
        """
        got = self._shared_cols
        if got is None:
            got = 0
            for cpos, rows in enumerate(self.col_rows):
                if rows & (rows - 1):
                    got |= 1 << cpos
            self._shared_cols = got
        return got

    def drop_row(self, label: int) -> None:
        """Patch the view for ``KCMatrix.remove_row(label)``.

        The row's bits are cleared from its columns, its cells emptied,
        its position marked dead and its label unmapped; the shared-column
        mask is updated for the row's columns, the dup-row set loses the
        row (a per-row property), and the tables derived from the whole
        matrix — clean rows, dominated anchors, suffix potentials — and
        the memo signature are reset, so they are rebuilt from the
        patched cells on next use and the memo is skipped.  The default
        value table stays valid: entry ids never move.
        """
        rpos = self.row_pos.pop(label, None)
        if rpos is None:
            return
        col_rows = self.col_rows
        clear = ~(1 << rpos)
        shared = self._shared_cols
        m = self.row_cols[rpos]
        while m:
            low = m & -m
            cpos = low.bit_length() - 1
            m ^= low
            rows = col_rows[cpos] & clear
            col_rows[cpos] = rows
            if shared is not None and not rows & (rows - 1):
                shared &= ~low
        self._shared_cols = shared
        self.row_cols[rpos] = 0
        self.cells[rpos] = {}
        self.dead_rows.add(rpos)
        if self._dup_rows is not None:
            self._dup_rows.discard(rpos)
        self._blocks = None
        self._signature = None
        self._clean_rows = None
        self._dominated_anchors = None
        self._suffix_pot = None

    def dup_rows(self) -> Set[int]:
        """Row positions whose cells repeat an original cube.

        KC matrices built from kernels never have these: a row's cubes
        are ``cokernel ∪ kc_j`` with the kernel cubes disjoint from the
        co-kernel, so distinct columns give distinct cubes.  Hand-built
        matrices can violate that (a column cube may overlap the
        co-kernel), and the distinct-cube gain correction must then also
        dedupe within single rows.  Assembled from the row blocks when
        the view was compiled from them, else scanned.
        """
        got = self._dup_rows
        if got is None:
            blocks = self._blocks
            if blocks is None:
                got = self.scan_dup_rows()
            else:
                got = {first + i for first, block in blocks for i in block.dup_rows()}
            self._dup_rows = got
        return got

    def neg_above(self) -> List[int]:
        """``neg_above[p] == -(1 << (p + 1))``: mask of columns above *p*.

        ANDing with ``neg_above[p]`` keeps exactly the bits strictly
        greater than ``p`` — the ordered-tree "only extend rightwards"
        filter — so the per-node mask is a table load instead of a fresh
        big-int shift at every search-tree node.  The table depends only
        on the column position and is shared by all views; it may be
        longer than this view's column count.
        """
        return neg_above_table(len(self.col_labels))

    def clean_rows_mask(self) -> int:
        """Bitmask of rows belonging to *clean* nodes.

        A node is clean when no two of its cells (across all of its
        rows, including within one row) name the same original cube —
        the distinct-cube gain correction can never fire for it, so
        adding a column to a rectangle made of clean rows contributes
        its full cell values.  The v2 dominance prune is only sound for
        columns whose rows are all clean (see
        :func:`repro.rectangles.search.best_rectangle_exhaustive`).
        Assembled from the row blocks when the view was compiled from
        them, else scanned.
        """
        got = self._clean_rows
        if got is None:
            blocks = self._blocks
            if blocks is None:
                got = self.scan_clean_rows_mask()
            else:
                got = 0
                for first, block in blocks:
                    if block.clean():
                        got |= ((1 << len(block.rows)) - 1) << first
            self._clean_rows = got
        return got

    def scan_dup_rows(self) -> Set[int]:
        """:meth:`dup_rows` by a full scan of the cells."""
        cubes = self.entry_cubes
        col_cost = self.col_cost
        row_cost = self.row_cost
        cells = self.cells
        # dup_row_indices's length bound summed over the whole view: when
        # the totals meet it, no cell overlaps and no row repeats a cube.
        # Only live cells count (dropped rows keep their entry ids).
        n_cells = sum(map(len, cells))
        bound = (
            sum(map(mul, row_cost, map(len, cells))) - n_cells
            + sum(map(mul, col_cost, map(popcount, self.col_rows)))
        )
        if n_cells == len(cubes):
            total = sum(map(len, cubes))
        else:
            total = sum(map(len, map(cubes.__getitem__, chain.from_iterable(
                map(dict.values, cells)
            ))))
        if total == bound:
            return set()
        return set(dup_row_indices(
            (
                row_cost[rpos] - 1,
                map(col_cost.__getitem__, rcells),
                list(map(cubes.__getitem__, rcells.values())),
            )
            for rpos, rcells in enumerate(cells)
        ))

    def scan_clean_rows_mask(self) -> int:
        """:meth:`clean_rows_mask` by a full scan of the cells."""
        cubes = self.entry_cubes
        cells = self.cells
        node_rows: Dict[int, List[int]] = {}
        for rpos, nid in enumerate(self.row_node):
            node_rows.setdefault(nid, []).append(rpos)
        got = 0
        for rows in node_rows.values():
            if node_is_clean(map(cubes.__getitem__, chain.from_iterable(
                cells[rpos].values() for rpos in rows
            ))):
                for rpos in rows:
                    got |= 1 << rpos
        return got

    def dominated_anchors(self) -> int:
        """Bitmask of columns the v2 search never anchors a subtree at.

        Column *c* is dominated when an earlier column *c2* covers a
        superset of its rows (``col_rows[c] ⊆ col_rows[c2]``,
        ``c2 < c``) and every row of *c* belongs to a clean node.  Under
        the default value function any rectangle anchored at *c* is then
        matched or beaten (gain, then lexicographic tie-break) by one in
        *c2*'s earlier subtree — adding *c2* costs ``|kernel_cube(c2)|``
        but contributes ``|cokernel_r| + |kernel_cube(c2)| + 1`` per row,
        and cleanliness guarantees the distinct-cube correction cannot
        claw that back — so skipping *c* as an anchor is exact.  *c*
        still participates as a forced or branched column inside other
        anchors' subtrees.
        """
        got = self._dominated_anchors
        if got is None:
            clean = self.clean_rows_mask()
            col_rows = self.col_rows
            got = 0
            for cpos in range(len(self.col_labels)):
                rows = col_rows[cpos]
                if not rows or rows & ~clean:
                    continue
                # Any dominator shares every row of c; scanning one
                # incident row's column set finds them all.
                r0 = (rows & -rows).bit_length() - 1
                m = self.row_cols[r0] & ((1 << cpos) - 1)
                while m:
                    low = m & -m
                    c2 = low.bit_length() - 1
                    m ^= low
                    if not (rows & ~col_rows[c2]):
                        got |= 1 << cpos
                        break
            self._dominated_anchors = got
        return got

    def suffix_potentials(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Per-row ``(sorted column positions, value suffix sums)``.

        ``sums[r][i]`` is the total default value of row *r*'s cells at
        column positions ``cols[r][i:]`` — the most the row can still
        gain from columns strictly above a position, found by bisecting
        ``cols[r]``.  This is the admissible remaining-gain table the v2
        branch-and-bound cut evaluates at every node.
        """
        got = self._suffix_pot
        if got is None:
            values = self.value_table(default_value)
            cols_tbl: List[List[int]] = []
            sums_tbl: List[List[int]] = []
            for rcells in self.cells:
                cs = sorted(rcells)
                suf = [0] * (len(cs) + 1)
                for i in range(len(cs) - 1, -1, -1):
                    suf[i] = suf[i + 1] + values[rcells[cs[i]]]
                cols_tbl.append(cs)
                sums_tbl.append(suf)
            got = (cols_tbl, sums_tbl)
            self._suffix_pot = got
        return got

    def signature(self) -> Optional[str]:
        """The rectangle-memo key of this view, or None.

        Only a view compiled from row blocks has one: the sha256, tagged
        ``rectsig/2``, of its blocks' expression digests in row order.
        The compiled matrix — positions, costs, incidence, node
        partition and entry cubes, everything the exhaustive search
        reads — is a deterministic function of that sequence, so equal
        keys mean identical position-space search input.  Views compiled
        from a sparse matrix (hand-built, mutated after build, or a
        parallel algorithm's slab) return None and skip the memo.
        """
        got = self._signature
        if got is None:
            blocks = self._blocks
            if blocks is None:
                return None
            h = hashlib.sha256(b"rectsig/2")
            for _, block in blocks:
                h.update(block.digest())
            got = self._signature = h.hexdigest()
        return got

    def value_table(self, value_fn: ValueFn = default_value) -> List[int]:
        """Per-entry-id values under *value_fn*.

        The table for the pure default value function is computed once
        and cached with the view; any other function is evaluated per
        call because its answers may legitimately change between calls
        (the L-shaped cube-state protocol does exactly that).  Cells of
        one node naming the same original cube always receive equal
        values, so marginal sums and gains match the sparse reference's
        ``value_fn``-per-ref arithmetic exactly.

        A *value_fn* with a ``fill_table(view)`` method (the cube-state
        store's :class:`~repro.parallel.cubestate.CubeValueFn`) fills the
        whole table itself, with the same values and meter charges as one
        metered call per live cell; otherwise the function is called per
        live cell.  Entries of dropped rows are never read.
        """
        if value_fn is default_value:
            vals = self._default_values
            if vals is None:
                vals = [len(cube) for cube in self.entry_cubes]
                self._default_values = vals
            return vals
        fill = getattr(value_fn, "fill_table", None)
        if fill is not None:
            return fill(self)
        cubes = self.entry_cubes
        names = self.node_names
        out: List[int] = [0] * len(cubes)
        for rpos, rcells in enumerate(self.cells):
            name = names[self.row_node[rpos]]
            for eid in rcells.values():
                out[eid] = value_fn(name, cubes[eid])
        return out

    # ------------------------------------------------------------------
    def rect_gain(
        self,
        row_positions: Sequence[int],
        col_positions: Sequence[int],
        values: List[int],
    ) -> int:
        """Exact distinct-cube-counted gain of a position rectangle."""
        cells = self.cells
        row_node = self.row_node
        gain = 0
        for cpos in col_positions:
            gain -= self.col_cost[cpos]
        counts: Dict[int, int] = {}
        for rpos in row_positions:
            gain -= self.row_cost[rpos]
            nid = row_node[rpos]
            counts[nid] = counts.get(nid, 0) + 1
        dup = self.dup_rows()
        need: Set[int] = {nid for nid, k in counts.items() if k > 1}
        if dup:
            for rpos in row_positions:
                if rpos in dup:
                    need.add(row_node[rpos])
        if not need:
            # Every cell is a distinct (node, cube) ref: no correction.
            for rpos in row_positions:
                rcells = cells[rpos]
                for cpos in col_positions:
                    gain += values[rcells[cpos]]
            return gain
        cubes = self.entry_cubes
        seen: Dict[int, Set[Cube]] = {nid: set() for nid in need}
        for rpos in row_positions:
            rcells = cells[rpos]
            node_seen = seen.get(row_node[rpos])
            if node_seen is None:
                for cpos in col_positions:
                    gain += values[rcells[cpos]]
            else:
                for cpos in col_positions:
                    eid = rcells[cpos]
                    cube = cubes[eid]
                    if cube not in node_seen:
                        node_seen.add(cube)
                        gain += values[eid]
        return gain

    def covered_cubes_by_node(self, rect) -> Dict[str, Set[Cube]]:
        """Distinct original cubes a (label) rectangle covers, per node."""
        out: Dict[str, Set[Cube]] = {}
        cells = self.cells
        cubes = self.entry_cubes
        names = self.node_names
        row_pos = self.row_pos
        col_positions = [self.col_pos[c] for c in rect.cols]
        for rlab in rect.rows:
            rpos = row_pos[rlab]
            rcells = cells[rpos]
            node = names[self.row_node[rpos]]
            per_node = out.setdefault(node, set())
            for cpos in col_positions:
                per_node.add(cubes[rcells[cpos]])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitKCView({self.num_rows}×{self.num_cols}, "
            f"{self.num_entries} entries)"
        )
