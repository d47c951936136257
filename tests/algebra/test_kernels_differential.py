"""Differential test of the kernel recursion against a reference copy.

:func:`reference_kernels` is the Brayton–Rudell recursion as it stood
before ``kernels`` learned to skip literals that occur in fewer than two
of the current cubes: it visits every literal index ≥ *j* and drops the
ones that select fewer than two cubes.  Those literals never reach a
recursive call or a meter charge, so both versions must return the same
kernel list, in the same order, for the same ``kernel_cube_visit``
charge.  The comparison runs on random SOPs and on every node
expression ``kernel_extract`` enumerates on the six MCNC stand-ins.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.rectangles.kcmatrix as kcmatrix
from repro.algebra.kernels import Kernel, kernels
from repro.algebra.sop import Sop, sop_support
from repro.circuits import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles import kernel_extract

#: The sequential golden fixture's stand-ins, here all at scale 0.1.
STAND_INS = ("misex3", "dalu", "des", "seq", "spla", "ex1010")


def reference_kernels(f: Sop, meter=None) -> List[Kernel]:
    """The full-scan recursion: every literal index ≥ j is tried."""
    if len(f) < 2:
        return []
    lits = sorted(sop_support(f))
    bit = {l: i for i, l in enumerate(lits)}

    def to_mask(c) -> int:
        m = 0
        for l in c:
            m |= 1 << bit[l]
        return m

    def to_cube(mask: int):
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(lits[i])
            mask >>= 1
            i += 1
        return tuple(out)

    masks = [to_mask(c) for c in f]
    common = masks[0]
    for m in masks[1:]:
        common &= m
    base = sorted(m & ~common for m in masks)
    found: Dict[Tuple[Tuple[int, ...], int], None] = {}

    def rec(cubes: List[int], cok: int, j: int) -> None:
        if meter is not None:
            meter.charge("kernel_cube_visit", len(cubes))
        found.setdefault((tuple(cubes), cok), None)
        for i in range(j, len(lits)):
            b = 1 << i
            sel = [m for m in cubes if m & b]
            if len(sel) < 2:
                continue
            co = sel[0]
            for m in sel[1:]:
                co &= m
            if co & (b - 1):
                continue
            sub = sorted(m & ~co for m in sel)
            rec(sub, cok | co, i + 1)

    rec(base, common, 0)
    out = [
        Kernel(expression=tuple(sorted(to_cube(m) for m in cube_masks)),
               cokernel=to_cube(cok_mask))
        for cube_masks, cok_mask in found
    ]
    out.sort(key=lambda k: (k.cokernel, k.expression))
    return out


def assert_same(f: Sop) -> None:
    mine, ref = CostMeter(), CostMeter()
    assert kernels(f, meter=mine) == reference_kernels(f, meter=ref)
    assert mine.counts == ref.counts


cubes = st.frozensets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6).map(
    lambda s: tuple(sorted(s)))
sops = st.frozensets(cubes, min_size=0, max_size=14).map(lambda s: tuple(sorted(s)))


@settings(max_examples=300, deadline=None)
@given(sops)
def test_random_sops_match_reference(f):
    assert_same(f)


def test_sparse_literal_ids_match_reference():
    """Global ids far apart still map to adjacent local bits."""
    assert_same(((3, 900), (3, 41), (41, 900), (7, 41, 900), (7, 3)))


@pytest.mark.parametrize("name", STAND_INS)
def test_kernel_extract_expressions_match_reference(name, monkeypatch):
    seen: Dict[Sop, None] = {}

    def recording(f, meter=None):
        seen.setdefault(f, None)
        return kernels(f, meter=meter)

    monkeypatch.setattr(kcmatrix, "kernels", recording)
    kernel_extract(make_circuit(name, scale=0.1))
    assert seen
    for f in seen:
        assert_same(f)
