"""Opt-in invariant audits (sanitizer-style, ``REPRO_CHECK=1``).

The rectangle search and the speculative cube-state protocol maintain
redundant indexes for speed: ``KCMatrix`` keeps ``entries``/``by_row``/
``by_col``/``node_rows``/``col_of_cube`` in lockstep, compiles a dense
:class:`~repro.rectangles.bitview.BitKCView` mirror of the whole
structure, and :class:`~repro.parallel.cubestate.CubeStateStore` tracks
per-cube claims that must never double-cover.  A bug in any of that
bookkeeping silently corrupts factorization results long before an
equivalence check can localize it.

This module provides the checks and the switch.  Audits are **off by
default** — the hot paths pay one predicate call per mutation or search
— and are enabled process-wide by ``REPRO_CHECK=1`` in the environment
(read once, lazily) or :func:`set_audits` from code.  When enabled:

- every :class:`KCMatrix` mutator validates the delta it just applied
  (O(delta), not O(matrix)),
- splice-style bulk operations (``merge``, ``submatrix_columns``),
  every bitset-view compilation and every ``build_kc_matrix`` (which
  then derives the sparse form from the view it compiled) validate the
  full structure, including sparse/bitview parity and the view's
  dup-row and clean-row tables against a full scan,
- every ``CubeStateStore`` operation validates the records it touched
  (claim/value/owner consistency — the no-double-cover invariant),
- every production rectangle search (:func:`audit_search`) is rerun on
  the sparse-set reference of :mod:`repro.verify.reference`, which
  must return the same result, make the same meter charges and spend
  the same budget.

Violations raise :class:`InvariantViolation` with a message naming the
index or search that disagreed.  The fuzz driver
(:mod:`repro.verify.fuzz`) and corpus replay always run with audits on.

This module must stay import-light (``os``/``functools`` plus
:mod:`repro.algebra`): it is imported by :mod:`repro.rectangles` at
module load, and loads the reference lazily.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import os
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.algebra.cube import cube_union


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


popcount = getattr(int, "bit_count", None) or _popcount

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.cubestate import CubeRecord, CubeRef, CubeStateStore
    from repro.rectangles.kcmatrix import KCMatrix

ENV_VAR = "REPRO_CHECK"

#: Tri-state cache: None = not yet read from the environment.
_enabled = None


class InvariantViolation(AssertionError):
    """An internal data-structure invariant was found broken."""


def enabled() -> bool:
    """Whether audits are on (``REPRO_CHECK=1`` or :func:`set_audits`)."""
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get(ENV_VAR, "0") not in ("", "0")
    return _enabled


def set_audits(on) -> None:
    """Force audits on/off for this process (``None`` re-reads the env)."""
    global _enabled
    _enabled = None if on is None else bool(on)


@contextlib.contextmanager
def audits_on():
    """Run a block with audits on, then restore the previous setting."""
    prev = _enabled
    set_audits(True)
    try:
        yield
    finally:
        set_audits(prev)


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


# ----------------------------------------------------------------------
# KCMatrix: incremental (per-mutation) checks
# ----------------------------------------------------------------------

def audit_row_added(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``add_row``: indexes agree on the new row."""
    info = mat.rows.get(label)
    if info is None:
        _fail(f"add_row({label}): row missing from rows")
    if mat.by_row.get(label) != set():
        _fail(f"add_row({label}): by_row not initialized empty")
    if label not in mat.node_rows.get(info.node, ()):
        _fail(f"add_row({label}): node_rows[{info.node!r}] missing the row")


def audit_col_added(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``ensure_col``: cols/col_of_cube/by_col agree."""
    cube = mat.cols.get(label)
    if cube is None:
        _fail(f"ensure_col({label}): column missing from cols")
    if mat.col_of_cube.get(cube) != label:
        _fail(f"ensure_col({label}): col_of_cube inverse disagrees")
    if label not in mat.by_col:
        _fail(f"ensure_col({label}): by_col not initialized")


def audit_entry_added(mat: "KCMatrix", row: int, col: int) -> None:
    """Post-condition of ``add_entry``: cell, adjacency and cube agree."""
    cube = mat.entries.get((row, col))
    if cube is None:
        _fail(f"add_entry({row}, {col}): entry missing")
    if col not in mat.by_row.get(row, ()):
        _fail(f"add_entry({row}, {col}): by_row adjacency missing")
    if row not in mat.by_col.get(col, ()):
        _fail(f"add_entry({row}, {col}): by_col adjacency missing")
    expect = cube_union(mat.rows[row].cokernel, mat.cols[col])
    if cube != expect:
        _fail(
            f"add_entry({row}, {col}): entry cube {cube} != "
            f"cokernel ∪ kernel-cube {expect}"
        )


def audit_row_removed(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``remove_row``: no index still references it."""
    if label in mat.rows or label in mat.by_row:
        _fail(f"remove_row({label}): row survives in rows/by_row")
    for node, rows in mat.node_rows.items():
        if label in rows:
            _fail(f"remove_row({label}): node_rows[{node!r}] still lists it")
        if not rows:
            _fail(f"remove_row({label}): empty node_rows[{node!r}] kept")
    for rows in mat.by_col.values():
        if label in rows:
            _fail(f"remove_row({label}): by_col still lists the row")


def audit_col_removed(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``remove_col``: no index still references it."""
    if label in mat.cols or label in mat.by_col:
        _fail(f"remove_col({label}): column survives in cols/by_col")
    if label in mat.col_of_cube.values():
        _fail(f"remove_col({label}): col_of_cube still maps to it")
    for cols in mat.by_row.values():
        if label in cols:
            _fail(f"remove_col({label}): by_row still lists the column")


# ----------------------------------------------------------------------
# KCMatrix: full-structure check
# ----------------------------------------------------------------------

def audit_kcmatrix(mat: "KCMatrix") -> None:
    """Full consistency of ``entries`` vs ``by_row``/``by_col`` vs
    ``node_rows`` vs ``col_of_cube`` (O(rows + cols + entries))."""
    if set(mat.by_row) != set(mat.rows):
        _fail("by_row keys != rows keys")
    if set(mat.by_col) != set(mat.cols):
        _fail("by_col keys != cols keys")
    # entries ⊆ rows × cols, adjacency closed both ways, cubes correct.
    n_adj = 0
    for (r, c), cube in mat.entries.items():
        if r not in mat.rows:
            _fail(f"entry ({r}, {c}) references unknown row")
        if c not in mat.cols:
            _fail(f"entry ({r}, {c}) references unknown column")
        if c not in mat.by_row[r] or r not in mat.by_col[c]:
            _fail(f"entry ({r}, {c}) missing from adjacency")
        expect = cube_union(mat.rows[r].cokernel, mat.cols[c])
        if cube != expect:
            _fail(f"entry ({r}, {c}) cube {cube} != {expect}")
    for r, cols in mat.by_row.items():
        n_adj += len(cols)
        for c in cols:
            if (r, c) not in mat.entries:
                _fail(f"by_row lists ({r}, {c}) with no entry")
    if n_adj != len(mat.entries):
        _fail("by_row adjacency count != entry count")
    if sum(len(rows) for rows in mat.by_col.values()) != len(mat.entries):
        _fail("by_col adjacency count != entry count")
    # col_of_cube is the exact inverse of cols.
    if len(mat.col_of_cube) != len(mat.cols):
        _fail("col_of_cube size != cols size")
    for cube, label in mat.col_of_cube.items():
        if mat.cols.get(label) != cube:
            _fail(f"col_of_cube[{cube}] = {label} but cols disagrees")
    # node_rows is the exact row partition by node.
    expect_nodes: dict = {}
    for label, info in mat.rows.items():
        expect_nodes.setdefault(info.node, set()).add(label)
    if mat.node_rows != expect_nodes:
        _fail("node_rows index disagrees with rows")


def audit_bitview(mat: "KCMatrix", view) -> None:
    """Sparse/bitview parity: the dense compilation mirrors the matrix.

    A view patched by ``remove_row`` is compared on its live rows: its
    dead positions must have no cells, no bits and no label mapping, and
    its shared-column mask, once computed, must equal a fresh one.
    """
    live = [lab for i, lab in enumerate(view.row_labels) if i not in view.dead_rows]
    if live != sorted(mat.rows):
        _fail("bitview live row labels != sorted matrix rows")
    if sorted(view.row_pos) != sorted(mat.rows):
        _fail("bitview row_pos maps labels that are not matrix rows")
    for i in view.dead_rows:
        if view.cells[i] or view.row_cols[i]:
            _fail(f"bitview dead row pos {i} still has cells or bits")
    shared = view._shared_cols
    if shared is not None and shared != sum(
        1 << j for j, rows in enumerate(view.col_rows) if rows & (rows - 1)
    ):
        _fail("bitview shared-column mask disagrees with the column masks")
    if view.col_labels != sorted(mat.cols):
        _fail("bitview col_labels != sorted matrix cols")
    if view.num_entries != mat.num_entries:
        _fail(
            f"bitview has {view.num_entries} cells, "
            f"matrix has {mat.num_entries} entries"
        )
    n_cells = sum(len(rcells) for rcells in view.cells)
    if n_cells != mat.num_entries:
        _fail(f"bitview has {n_cells} cells, matrix has {mat.num_entries} entries")
    for (r, c), cube in mat.entries.items():
        i = view.row_pos.get(r)
        j = view.col_pos.get(c)
        if i is None or j is None:
            _fail(f"bitview lost entry ({r}, {c})")
        eid = view.cells[i].get(j)
        if eid is None:
            _fail(f"bitview has no cell for entry ({r}, {c})")
        if view.entry_cubes[eid] != cube:
            _fail(f"bitview cell ({r}, {c}) cube disagrees with sparse entry")
        if not (view.row_cols[i] >> j) & 1:
            _fail(f"bitview row mask misses ({r}, {c})")
        if not (view.col_rows[j] >> i) & 1:
            _fail(f"bitview col mask misses ({r}, {c})")
    for i, mask in enumerate(view.row_cols):
        if popcount(mask) != len(view.cells[i]):
            _fail(f"bitview row mask popcount disagrees at row pos {i}")
    # With every entry's bit checked above, an equal total leaves no
    # stale bit (a dropped row's included) in any column mask.
    if sum(map(popcount, view.col_rows)) != n_cells:
        _fail("bitview column masks carry bits of no cell")
    for lab, i in view.row_pos.items():
        if view.row_cost[i] != len(mat.rows[lab].cokernel) + 1:
            _fail(f"bitview row_cost[{lab}] disagrees with cokernel size")
    for j, lab in enumerate(view.col_labels):
        if view.col_cost[j] != len(mat.cols[lab]):
            _fail(f"bitview col_cost[{lab}] disagrees with kernel-cube size")
    # A view compiled from row blocks assembles these from per-block
    # tables; the full scan must agree.
    if view.dup_rows() != view.scan_dup_rows():
        _fail("bitview dup_rows disagrees with a full scan of the cells")
    if view.clean_rows_mask() != view.scan_clean_rows_mask():
        _fail("bitview clean_rows_mask disagrees with a full scan of the cells")


# ----------------------------------------------------------------------
# CubeStateStore checks
# ----------------------------------------------------------------------

def audit_cube_record(ref: "CubeRef", rec: "CubeRecord") -> None:
    """Field consistency of one speculative cube record (Table 5).

    FREE records carry no owner; COVERED records carry a claiming
    processor and the saved true value; DIVIDED records are worth zero
    forever.  ``cover`` must never reassign a COVERED cube to a second
    owner without an intervening ``uncover`` — with this check at every
    mutation, a double-cover shows up as an owner/status inconsistency
    at the exact operation that caused it.
    """
    from repro.parallel.cubestate import CubeStatus

    if rec.status is CubeStatus.FREE:
        if rec.owner != -1:
            _fail(f"FREE cube {ref} still owned by processor {rec.owner}")
    elif rec.status is CubeStatus.COVERED:
        if rec.owner < 0:
            _fail(f"COVERED cube {ref} has no owner")
        if rec.trueval != len(ref[1]):
            _fail(
                f"COVERED cube {ref} saved value {rec.trueval} != "
                f"cube size {len(ref[1])}"
            )
    else:  # DIVIDED
        if rec.trueval != 0:
            _fail(f"DIVIDED cube {ref} keeps nonzero value {rec.trueval}")


def audit_cover_transition(
    ref: "CubeRef", before: Tuple[object, int], rec: "CubeRecord", pid: int
) -> None:
    """No-double-cover: ``cover`` may claim FREE cubes or refresh its own
    claim, but must leave foreign claims and DIVIDED cubes untouched."""
    from repro.parallel.cubestate import CubeStatus

    status0, owner0 = before
    if status0 is CubeStatus.DIVIDED and rec.status is not CubeStatus.DIVIDED:
        _fail(f"cover({ref}) by {pid} resurrected a DIVIDED cube")
    if (
        status0 is CubeStatus.COVERED
        and owner0 not in (pid, -1)
        and rec.owner != owner0
    ):
        _fail(
            f"double cover of {ref}: processor {pid} stole the claim "
            f"of processor {owner0}"
        )
    audit_cube_record(ref, rec)


def audit_cubestate(store: "CubeStateStore") -> None:
    """Full-store sweep of :func:`audit_cube_record`."""
    for ref, rec in store._recs.items():
        audit_cube_record(ref, rec)


# ----------------------------------------------------------------------
# Rectangle searches: production vs the sparse-set reference
# ----------------------------------------------------------------------

class _MeterTap:
    """A meter proxy that tallies every charge and forwards it on."""

    def __init__(self, inner=None) -> None:
        self.counts: Dict[str, float] = {}
        self.inner = inner

    def charge(self, kind: str, amount: float = 1.0) -> None:
        self.counts[kind] = self.counts.get(kind, 0.0) + amount
        if self.inner is not None:
            self.inner.charge(kind, amount)


class _ValueRecorder:
    """Passes every call through to *value_fn* and records the answers,
    so the reference can replay them without calling (or metering) it."""

    def __init__(self, value_fn: Callable) -> None:
        self.value_fn = value_fn
        self.seen: Dict[tuple, int] = {}
        self.stable = True

    def __call__(self, node, cube) -> int:
        got = self.value_fn(node, cube)
        if self.seen.setdefault((node, cube), got) != got:
            self.stable = False  # the values moved under the search
        return got


def audit_search(search: Callable) -> Callable:
    """Decorate a production rectangle search with the reference check.

    With audits on, each call also runs the same-named function of
    :mod:`repro.verify.reference` on the same matrix and arguments, with
    a fresh meter, a copy of the budget as it stood and — for a
    non-default ``value_fn`` (never :func:`default_value`, whose identity
    selects the v2 search) — the values production recorded.  Any
    difference in the result, the meter charges or the budget spend (or
    in running out of budget) raises :class:`InvariantViolation` naming
    the search.  A memo hit is compared like a miss.  If a value function
    changed its answer for a cube mid-search (threads covering cubes
    concurrently) there is no single input to replay, and the comparison
    is skipped.
    """

    @functools.wraps(search)
    def audited(matrix, *args, **kwargs):
        if not enabled():
            return search(matrix, *args, **kwargs)
        kwargs.update(zip(search.__code__.co_varnames[1:1 + len(args)], args))
        return _check_search(search, matrix, kwargs)

    return audited


def _check_search(search: Callable, matrix, kwargs: dict):
    from repro.rectangles.rectangle import default_value
    from repro.rectangles.search import BudgetExceeded
    from repro.verify import reference

    recorder = None
    if kwargs.get("value_fn", default_value) is not default_value:
        recorder = kwargs["value_fn"] = _ValueRecorder(kwargs["value_fn"])
    ref_kwargs = {k: v for k, v in kwargs.items() if k != "memo"}
    ref_kwargs["meter"] = _MeterTap()
    if "budget" in kwargs:
        ref_kwargs["budget"] = copy.copy(kwargs["budget"])
    kwargs["meter"] = _MeterTap(kwargs.get("meter"))

    def run(fn, call):
        budget = call.get("budget")
        used = budget.used if budget is not None else 0
        try:
            result = fn(matrix, **call)
        except BudgetExceeded as exc:
            return exc, {"result": "BudgetExceeded"}
        spent = budget.used - used if budget is not None else 0
        return result, {"result": result, "meter charges": call["meter"].counts,
                        "budget spend": spent}

    result, have = run(search, kwargs)
    if recorder is None or recorder.stable:
        if recorder is not None:
            ref_kwargs["value_fn"] = lambda node, cube: recorder.seen[node, cube]
        _, want = run(getattr(reference, search.__name__), ref_kwargs)
        if have != want:
            what = next(k for k in have if have[k] != want.get(k))
            _fail(f"{search.__name__}: production {what} {have[what]!r} != "
                  f"reference {want.get(what)!r}")
    if isinstance(result, BudgetExceeded):
        raise result
    return result
