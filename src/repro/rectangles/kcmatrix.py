"""The sparse co-kernel cube matrix with global offset labeling.

Row and column indices are *labels*, not positions: the parallel
algorithms give processor *p* the index space ``p·OFFSET + k`` (the
paper's "offset which is a factor of the processor id" — processor 2's
first kernel is row 200001).  Labels therefore stay consistent across
replicas regardless of generation order, and sub-matrices exchanged
between processors splice together without renumbering.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube, cube_union
from repro.algebra.kernels import kernels
from repro.algebra.sop import Sop
from repro.verify import audit as _audit

# The paper labels processor p's first kernel p·100000 + 1.
LABEL_OFFSET = 100_000

CubeRef = Tuple[str, Cube]  # (node name, original SOP cube)


@dataclass(frozen=True)
class RowInfo:
    """A row: one (node, co-kernel) pair."""

    node: str
    cokernel: Cube


class _ViewEntries(Mapping):
    """Read-only ``(row, col) → cube`` map over a compiled view.

    Stands in for the entry dict of a matrix compiled from row blocks
    until something needs the dict itself, so ``len`` and lookups cost
    no materialisation.  Iterates in entry-id order.
    """

    __slots__ = ("_view",)

    def __init__(self, view) -> None:
        self._view = view

    def __len__(self) -> int:
        return len(self._view.entry_cubes)

    def __getitem__(self, key: Tuple[int, int]) -> Cube:
        view = self._view
        try:
            rpos = view.row_pos[key[0]]
            return view.entry_cubes[view.cells[rpos][view.col_pos[key[1]]]]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self):
        view = self._view
        row_labels, col_labels = view.row_labels, view.col_labels
        for rpos, rcells in enumerate(view.cells):
            r = row_labels[rpos]
            for cpos in rcells:
                yield (r, col_labels[cpos])


class KCMatrix:
    """Sparse KC matrix keyed by integer row/column labels.

    ``entries[(r, c)]`` is the original SOP cube of ``rows[r].node``
    obtained as ``rows[r].cokernel ∪ cols[c]``.  ``by_row``/``by_col``
    are adjacency indexes kept consistent by :meth:`add_entry` /
    :meth:`remove_row`.

    A matrix from :func:`build_kc_matrix` starts out as its compiled
    bitset view plus ``rows``/``cols``/``col_of_cube``/``node_rows``:
    ``entries`` reads through the view, and the entry dict and both
    adjacency indexes are derived from it the first time a caller reads
    ``by_row``/``by_col`` or mutates the matrix.
    """

    def __init__(self) -> None:
        self.rows: Dict[int, RowInfo] = {}
        self.cols: Dict[int, Cube] = {}
        self.col_of_cube: Dict[Cube, int] = {}
        self.node_rows: Dict[str, Set[int]] = {}
        # None while the view is the only form (see _sparse).
        self._entries: Optional[Dict[Tuple[int, int], Cube]] = {}
        self._by_row: Dict[int, Set[int]] = {}
        self._by_col: Dict[int, Set[int]] = {}
        self._bitview = None

    @property
    def entries(self) -> Mapping[Tuple[int, int], Cube]:
        if self._entries is None:
            return _ViewEntries(self._bitview)
        return self._entries

    @property
    def by_row(self) -> Dict[int, Set[int]]:
        if self._entries is None:
            self._sparse()
        return self._by_row

    @property
    def by_col(self) -> Dict[int, Set[int]]:
        if self._entries is None:
            self._sparse()
        return self._by_col

    def _sparse(self) -> None:
        """Derive the entry dict and adjacency from the view; callers
        check first that ``_entries`` is None (the view is the only form)."""
        view = self._bitview
        row_labels, col_labels = view.row_labels, view.col_labels
        cubes = view.entry_cubes
        entries: Dict[Tuple[int, int], Cube] = {}
        by_row: Dict[int, Set[int]] = {r: set() for r in row_labels}
        by_col: Dict[int, Set[int]] = {c: set() for c in col_labels}
        for rpos, rcells in enumerate(view.cells):
            r = row_labels[rpos]
            adj = by_row[r]
            for cpos, eid in rcells.items():
                c = col_labels[cpos]
                entries[(r, c)] = cubes[eid]
                adj.add(c)
                by_col[c].add(r)
        self._entries, self._by_row, self._by_col = entries, by_row, by_col

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        """Record a structural mutation that drops the cached bitset view."""
        if self._entries is None:
            self._sparse()
        self._bitview = None

    def add_row(self, label: int, node: str, cokernel: Cube) -> None:
        if label in self.rows:
            raise ValueError(f"duplicate row label {label}")
        if self._entries is None:
            self._sparse()
        self.rows[label] = RowInfo(node, cokernel)
        self._by_row[label] = set()
        self.node_rows.setdefault(node, set()).add(label)
        if _audit.enabled():
            _audit.audit_row_added(self, label)
        self._touch()

    def ensure_col(self, cube: Cube, label_factory: Callable[[], int]) -> int:
        """Return the column label for *cube*, creating it if new."""
        got = self.col_of_cube.get(cube)
        if got is not None:
            return got
        label = label_factory()
        if label in self.cols:
            raise ValueError(f"duplicate column label {label}")
        if self._entries is None:
            self._sparse()
        self.cols[label] = cube
        self.col_of_cube[cube] = label
        self._by_col[label] = set()
        if _audit.enabled():
            _audit.audit_col_added(self, label)
        self._touch()
        return label

    def add_entry(self, row: int, col: int) -> None:
        if self._entries is None:
            self._sparse()
        info = self.rows[row]
        self._entries[(row, col)] = cube_union(info.cokernel, self.cols[col])
        self._by_row[row].add(col)
        self._by_col[col].add(row)
        if _audit.enabled():
            _audit.audit_entry_added(self, row, col)
        self._touch()

    def remove_row(self, label: int) -> None:
        if self._entries is None:
            self._sparse()
        for col in self._by_row.pop(label, set()):
            self._by_col[col].discard(label)
            self._entries.pop((label, col), None)
        info = self.rows.pop(label, None)
        if info is not None:
            node_set = self.node_rows.get(info.node)
            if node_set is not None:
                node_set.discard(label)
                if not node_set:
                    del self.node_rows[info.node]
        # The one mutation that keeps the cached view: it is patched in
        # place (the sparse form above already exists, so the view is
        # never again the only form).
        view = self._bitview
        if view is not None:
            view.drop_row(label)
        if _audit.enabled():
            _audit.audit_row_removed(self, label)
            if view is not None:
                _audit.audit_bitview(self, view)

    def remove_col(self, label: int) -> None:
        if self._entries is None:
            self._sparse()
        cube = self.cols.get(label)
        for row in self._by_col.pop(label, set()):
            self._by_row[row].discard(label)
            self._entries.pop((row, label), None)
        if cube is not None:
            self.col_of_cube.pop(cube, None)
        self.cols.pop(label, None)
        if _audit.enabled():
            _audit.audit_col_removed(self, label)
        self._touch()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def sparsity(self) -> float:
        """Fraction of occupied cells — the α/γ of the paper's Eq. 3."""
        cells = self.num_rows * self.num_cols
        return self.num_entries / cells if cells else 0.0

    def entry_cube(self, row: int, col: int) -> Cube:
        return self.entries[(row, col)]

    def cube_ref(self, row: int, col: int) -> CubeRef:
        return (self.rows[row].node, self.entries[(row, col)])

    def rows_of_node(self, node: str) -> List[int]:
        """Row labels of *node*, via the maintained ``node_rows`` index."""
        return sorted(self.node_rows.get(node, ()))

    def bitview(self):
        """The cached dense bitset view (see :mod:`repro.rectangles.bitview`).

        :func:`build_kc_matrix` compiles it with the matrix; otherwise it
        is compiled from the sparse form on first use.  :meth:`remove_row`
        patches it in place (see :meth:`BitKCView.drop_row`); every other
        structural mutation drops it, so it is compiled at most once per
        run of row removals no matter how many searches share the matrix.
        """
        view = self._bitview
        if view is None:
            from repro.rectangles.bitview import BitKCView

            view = BitKCView(self)
            if _audit.enabled():
                _audit.audit_bitview(self, view)
            self._bitview = view
        return view

    def submatrix_columns(self, col_labels: Iterable[int]) -> "KCMatrix":
        """Restriction to a set of columns (all rows with entries kept).

        Walks the ``by_col`` adjacency of the kept columns only, so the
        cost is proportional to the entries *kept*, not the total entry
        count — this sits inside the L-shaped B_ij exchange, which calls
        it once per processor pair.
        """
        out = KCMatrix()
        for c in sorted(set(col_labels)):
            cube = self.cols.get(c)
            if cube is None:
                continue
            out.cols[c] = cube
            out.col_of_cube[cube] = c
            out.by_col[c] = set()
            for r in sorted(self.by_col[c]):
                if r not in out.rows:
                    info = self.rows[r]
                    out.add_row(r, info.node, info.cokernel)
                out.entries[(r, c)] = self.entries[(r, c)]
                out.by_row[r].add(c)
                out.by_col[c].add(r)
        if _audit.enabled():
            _audit.audit_kcmatrix(out)
        out._touch()
        return out

    def merge(self, other: "KCMatrix") -> None:
        """Splice another (label-consistent) matrix into this one.

        Labels shared by both must agree on their row/column identity —
        this is exactly the guarantee the offset labeling provides.
        """
        for label, info in other.rows.items():
            mine = self.rows.get(label)
            if mine is None:
                self.add_row(label, info.node, info.cokernel)
            elif mine != info:
                raise ValueError(f"row label clash at {label}: {mine} vs {info}")
        for label, cube in other.cols.items():
            mine = self.cols.get(label)
            if mine is None:
                if cube in self.col_of_cube:
                    raise ValueError(
                        f"cube {cube} already labeled {self.col_of_cube[cube]}, "
                        f"incoming label {label}"
                    )
                self.cols[label] = cube
                self.col_of_cube[cube] = label
                self.by_col[label] = set()
                self._touch()
            elif mine != cube:
                raise ValueError(f"column label clash at {label}")
        for (r, c) in other.entries.keys():
            self.add_entry(r, c)
        if _audit.enabled():
            _audit.audit_kcmatrix(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KCMatrix({self.num_rows}×{self.num_cols}, "
            f"{self.num_entries} entries)"
        )


class LabelAllocator:
    """Per-processor label sequence: ``pid·OFFSET + 1, pid·OFFSET + 2, …``"""

    def __init__(self, pid: int = 0, offset: int = LABEL_OFFSET) -> None:
        if pid < 0:
            raise ValueError("processor id must be non-negative")
        self._next = pid * offset + 1
        self._limit = (pid + 1) * offset

    def __call__(self) -> int:
        label = self._next
        if label >= self._limit:
            raise OverflowError("label space for this processor exhausted")
        self._next += 1
        return label


def dup_row_indices(rows: Iterable[Tuple[int, Iterable[int], Sequence[Cube]]]) -> Tuple[int, ...]:
    """Indices of the rows whose cells repeat an original cube.

    *rows* yields, per row, ``(|cokernel|, kernel-cube lengths, entry
    cubes)`` with the last two in the same cell order.  An entry cube is
    ``cokernel ∪ kernel cube``, so its length is at most |cokernel| +
    |kc|, with equality exactly when the two are disjoint; a row whose
    lengths add up to that bound has only disjoint cells, and distinct
    columns then give distinct cubes.  Only rows with an overlapping
    cell pay for cube hashing.
    """
    out: List[int] = []
    for i, (base, klens, cubes) in enumerate(rows):
        n = len(cubes)
        if n > 1 and sum(map(len, cubes)) != base * n + sum(klens) and len(set(cubes)) < n:
            out.append(i)
    return tuple(out)


def node_is_clean(cubes: Iterable[Cube]) -> bool:
    """Whether no two of one node's cells (*cubes*, over all of its rows)
    name the same original cube."""
    seen: Set[Cube] = set()
    add = seen.add
    for cube in cubes:
        if cube in seen:
            return False
        add(cube)
    return True


class RowBlock:
    """One node version's KC rows, in kernel order.

    ``rows`` holds each kernel's row, its cost ``|cokernel| + 1``, its
    kernel cubes and the matching entry cubes ``cokernel ∪ kernel cube``;
    ``expr`` is the node expression they were enumerated from.  The
    expression digest, the dup-row indices and the clean flag are
    computed on first request and kept for the life of the block, which
    is the life of the node version: the greedy loop drops a node's
    block when it modifies the node.
    """

    __slots__ = ("rows", "expr", "_digest", "_dup_rows", "_clean")

    def __init__(
        self,
        rows: Tuple[Tuple[RowInfo, int, Tuple[Cube, ...], Tuple[Cube, ...]], ...],
        expr: Sop,
    ) -> None:
        self.rows = rows
        self.expr = expr
        self._digest: Optional[bytes] = None
        self._dup_rows: Optional[Tuple[int, ...]] = None
        self._clean: Optional[bool] = None

    def digest(self) -> bytes:
        """sha256 of the expression: the rows are a function of it."""
        got = self._digest
        if got is None:
            got = self._digest = hashlib.sha256(repr(self.expr).encode()).digest()
        return got

    def dup_rows(self) -> Tuple[int, ...]:
        """Indices of rows whose cells repeat an original cube."""
        got = self._dup_rows
        if got is None:
            got = self._dup_rows = dup_row_indices(
                (cost - 1, map(len, kcubes), ecubes)
                for _, cost, kcubes, ecubes in self.rows
            )
        return got

    def clean(self) -> bool:
        """Whether no two cells of the node name the same original cube."""
        got = self._clean
        if got is None:
            got = self._clean = node_is_clean(
                chain.from_iterable(row[3] for row in self.rows)
            )
        return got


def row_block(node: str, f: Sop, meter=None) -> RowBlock:
    """Enumerate the kernels of *node* (expression *f*) as a row block."""
    return RowBlock(tuple(
        (
            RowInfo(node, kern.cokernel),
            len(kern.cokernel) + 1,
            tuple(kern.expression),
            tuple(cube_union(kern.cokernel, kc) for kc in kern.expression),
        )
        for kern in kernels(f, meter=meter)
    ), f)


def build_kc_matrix(
    network,
    nodes: Optional[Iterable[str]] = None,
    pid: int = 0,
    blocks: Optional[Dict[str, RowBlock]] = None,
    meter=None,
) -> KCMatrix:
    """Build the KC matrix for *nodes* of *network* (default: all nodes).

    *pid* selects the label space (processor id); sequential callers use
    0.  *blocks* maps node name → :class:`RowBlock` and is filled in (and
    trusted) when provided, so the greedy loop only re-enumerates the
    kernels of nodes it modified.

    One pass over the blocks fills ``rows``/``cols``/``col_of_cube``/
    ``node_rows`` and compiles the bitset view directly: rows are
    labelled in node then kernel order, columns in first-encounter
    order, so dense positions are label order by construction.  The
    view also gets the ordered ``(first row position, block)`` list, from
    which it assembles its memo key and per-node tables.  The sparse
    entry dict and adjacency are derived later, only if read.
    """
    from repro.rectangles.bitview import BitKCView

    if blocks is None:
        blocks = {}
    base = pid * LABEL_OFFSET + 1
    node_list = list(nodes) if nodes is not None else list(network.topological_order())
    rows: Dict[int, RowInfo] = {}
    node_rows: Dict[str, Set[int]] = {}
    col_pos: Dict[Cube, int] = {}
    col_cubes: List[Cube] = []
    col_rows: List[int] = []
    node_ids: Dict[str, int] = {}
    row_node: List[int] = []
    row_cost: List[int] = []
    row_cols: List[int] = []
    cells: List[Dict[int, int]] = []
    entry_cubes: List[Cube] = []
    placed: Optional[List[Tuple[int, RowBlock]]] = []
    for node in node_list:
        block = blocks.get(node)
        if block is None:
            block = blocks[node] = row_block(node, network.nodes[node], meter)
        if not block.rows:
            continue
        nid = node_ids.setdefault(node, len(node_ids))
        first = len(row_cost)
        placed.append((first, block))
        eid0 = eid = len(entry_cubes)
        for info, cost, kcubes, ecubes in block.rows:
            rpos = len(row_cost)
            rows[base + rpos] = info
            row_node.append(nid)
            row_cost.append(cost)
            rbit = 1 << rpos
            mask = 0
            rcells: Dict[int, int] = {}
            for kc in kcubes:
                cpos = col_pos.get(kc)
                if cpos is None:
                    cpos = col_pos[kc] = len(col_cubes)
                    col_cubes.append(kc)
                    col_rows.append(rbit)
                else:
                    col_rows[cpos] |= rbit
                mask |= 1 << cpos
                rcells[cpos] = eid
                eid += 1
            row_cols.append(mask)
            cells.append(rcells)
            entry_cubes.extend(ecubes)
        node_rows.setdefault(node, set()).update(range(base + first, base + len(row_cost)))
        if meter is not None and eid > eid0:
            meter.charge("kc_entry", eid - eid0)
    if max(len(row_cost), len(col_cubes)) >= LABEL_OFFSET:
        raise OverflowError("label space for this processor exhausted")

    row_labels = list(rows)
    col_labels = list(range(base, base + len(col_cubes)))
    mat = KCMatrix()
    mat.rows = rows
    mat.node_rows = node_rows
    mat.cols = dict(zip(col_labels, col_cubes))
    # col_pos iterates in position order, so labels zip straight on.
    mat.col_of_cube = dict(zip(col_pos, col_labels))
    mat._entries = None
    # A node listed twice shares one node id across two blocks, which
    # the per-block tables cannot express: compile that view unkeyed.
    if len(placed) != len(node_ids):
        placed = None
    mat._bitview = BitKCView(blocks=placed, dense=(
        row_labels, col_labels,
        dict(zip(row_labels, range(len(row_labels)))),
        dict(zip(col_labels, range(len(col_labels)))),
        row_node, list(node_ids), row_cost, list(map(len, col_cubes)),
        row_cols, col_rows, cells, entry_cubes,
    ))
    if _audit.enabled():
        mat._sparse()  # the audits below read the derived sparse form
        _audit.audit_kcmatrix(mat)
        _audit.audit_bitview(mat, mat._bitview)
    return mat
