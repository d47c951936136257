"""The speculative cube-state protocol of Section 5.3 (Table 5).

Every original SOP cube that appears as a KC-matrix entry carries:

=========  =====  =====  ==================================================
state      V      T      meaning (paper Table 5)
=========  =====  =====  ==================================================
FREE       —      —      cube not covered by any best rectangle
COVERED    0      saved  covered by some processor's best rectangle,
                         not yet divided
DIVIDED    0      0      covered by some rectangle and divided out
=========  =====  =====  ==================================================

plus the *owner* attribute that qualifies COVERED: when the owning
processor asks for the value it receives the true value (the cube is not
yet divided, so a better rectangle of its own may still claim it); any
other processor receives zero (it cannot change the owner's best
rectangle, so for its purposes the cube is as good as gone).  This makes
each processor's search independent of the order in which rectangles are
generated — the problem analyzed at the end of Section 5.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra.cube import Cube
from repro.verify import audit as _audit

CubeRef = Tuple[str, Cube]  # (node name, original cube)


class CubeStatus(enum.Enum):
    """The three states of Table 5."""

    FREE = "free"
    COVERED = "covered"
    DIVIDED = "divided"


@dataclass
class CubeRecord:
    """Per-cube protocol state: status, saved value, claiming processor."""

    status: CubeStatus = CubeStatus.FREE
    trueval: int = 0
    owner: int = -1


def _value_of(rec: Optional[CubeRecord], cube: Cube, asking_pid: int) -> int:
    """Table 5's value of *cube* to *asking_pid*, given its record (None
    for a cube never touched, i.e. FREE)."""
    if rec is None or rec.status is CubeStatus.FREE:
        return len(cube)
    if rec.status is CubeStatus.DIVIDED:
        return 0
    # COVERED: owner sees the true value, everyone else sees zero.
    return rec.trueval if rec.owner == asking_pid else 0


class CubeStateStore:
    """Shared-memory map from cube refs to their speculative state.

    Cubes never touched by any best rectangle have no record (implicit
    FREE).  ``meter``, when supplied to the operations, is charged
    ``cube_state_op`` per touch — the protocol's (small) runtime cost.
    """

    def __init__(self) -> None:
        self._recs: Dict[CubeRef, CubeRecord] = {}

    def record(self, ref: CubeRef) -> CubeRecord:
        """Fetch (or lazily create) the record for *ref*."""
        rec = self._recs.get(ref)
        if rec is None:
            rec = CubeRecord()
            self._recs[ref] = rec
        return rec

    def status(self, ref: CubeRef) -> CubeStatus:
        """Current state of *ref* (FREE when never touched)."""
        rec = self._recs.get(ref)
        return rec.status if rec is not None else CubeStatus.FREE

    def value(self, ref: CubeRef, asking_pid: int, meter=None) -> int:
        """The value the protocol returns to *asking_pid* (Table 5)."""
        if meter is not None:
            meter.charge("cube_state_op", 1)
        return _value_of(self._recs.get(ref), ref[1], asking_pid)

    def value_fn(self, asking_pid: int, meter=None) -> "CubeValueFn":
        """The rectangle-search value function of *asking_pid*."""
        return CubeValueFn(self, asking_pid, meter)

    def cover(self, refs: Iterable[CubeRef], pid: int, meter=None) -> None:
        """Speculatively claim *refs* for processor *pid*'s best rectangle."""
        auditing = _audit.enabled()
        for ref in refs:
            if meter is not None:
                meter.charge("cube_state_op", 1)
            rec = self.record(ref)
            before = (rec.status, rec.owner)
            if rec.status is CubeStatus.DIVIDED:
                pass
            elif rec.status is CubeStatus.COVERED and rec.owner != pid:
                # Another processor speculated first; it keeps the claim.
                pass
            else:
                rec.status = CubeStatus.COVERED
                rec.trueval = len(ref[1])
                rec.owner = pid
            if auditing:
                _audit.audit_cover_transition(ref, before, rec, pid)

    def uncover(self, refs: Iterable[CubeRef], pid: int, meter=None) -> None:
        """Release claims when the owner found a better rectangle."""
        for ref in refs:
            if meter is not None:
                meter.charge("cube_state_op", 1)
            rec = self._recs.get(ref)
            if rec is None:
                continue
            if rec.status is CubeStatus.COVERED and rec.owner == pid:
                rec.status = CubeStatus.FREE
                rec.owner = -1
            if _audit.enabled():
                _audit.audit_cube_record(ref, rec)

    def release_owner(self, pid: int, meter=None) -> int:
        """Free every COVERED claim held by a crashed processor.

        A dead processor's speculative claims would otherwise zero out
        those cubes' values for every survivor forever (Table 5's
        COVERED/other-pid row).  Recovery releases them back to FREE so
        survivors can re-claim; DIVIDED cubes stay consumed.  Returns
        the number of claims released.
        """
        freed = 0
        for ref, rec in self._recs.items():
            if rec.status is CubeStatus.COVERED and rec.owner == pid:
                if meter is not None:
                    meter.charge("cube_state_op", 1)
                rec.status = CubeStatus.FREE
                rec.owner = -1
                freed += 1
                if _audit.enabled():
                    _audit.audit_cube_record(ref, rec)
        return freed

    def divide(self, refs: Iterable[CubeRef], meter=None) -> None:
        """Mark *refs* permanently consumed by an applied extraction."""
        for ref in refs:
            if meter is not None:
                meter.charge("cube_state_op", 1)
            rec = self.record(ref)
            rec.status = CubeStatus.DIVIDED
            rec.trueval = 0
            if _audit.enabled():
                _audit.audit_cube_record(ref, rec)

    def __len__(self) -> int:
        return len(self._recs)


class CubeValueFn:
    """:meth:`CubeStateStore.value` as a search ``value_fn`` for one
    processor: ``fn(node, cube)`` is ``store.value((node, cube), pid,
    meter=meter)``.

    :meth:`fill_table` values every live cell of a
    :class:`~repro.rectangles.bitview.BitKCView` by the same rule as
    :meth:`CubeStateStore.value` and then charges ``cube_state_op`` once
    for all of them — the values, the count and (since no other charge
    falls between) the meter's key order are those of one metered call
    per cell.  Each record is looked up per ref, never by iterating the
    store, so the fill is safe while other threads add records (the
    threaded L-shaped run searches outside its lock).
    """

    __slots__ = ("store", "pid", "meter")

    def __init__(self, store: CubeStateStore, pid: int, meter=None) -> None:
        self.store = store
        self.pid = pid
        self.meter = meter

    def __call__(self, node: str, cube: Cube) -> int:
        return self.store.value((node, cube), self.pid, meter=self.meter)

    def fill_table(self, view) -> List[int]:
        """Per-entry-id values of *view*'s live cells (see
        :meth:`~repro.rectangles.bitview.BitKCView.value_table`)."""
        get = self.store._recs.get
        value_of = _value_of
        pid = self.pid
        cubes = view.entry_cubes
        names = view.node_names
        row_node = view.row_node
        out: List[int] = [0] * len(cubes)
        n_cells = 0
        for rpos, rcells in enumerate(view.cells):
            n_cells += len(rcells)
            name = names[row_node[rpos]]
            for eid in rcells.values():
                cube = cubes[eid]
                out[eid] = value_of(get((name, cube)), cube, pid)
        if self.meter is not None and n_cells:
            self.meter.charge("cube_state_op", n_cells)
        return out
