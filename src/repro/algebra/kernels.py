"""Kernel and co-kernel enumeration (Brayton–Rudell recursion).

The kernels of an expression *f* are its cube-free primary divisors:
``K(f) = { g ∈ D(f) : g cube-free }`` with ``D(f) = { f/C : C a cube }``.
The cube *C* used to reach kernel ``k = f/C`` is its *co-kernel*.

The enumeration is the classic recursion from Brayton & Rudell (MIS,
1987), run over per-expression bitmask encodings for speed: literals of
*f* are mapped to bit positions in ascending global-id order, cubes become
integers, each recursion level visits only the literals that occur in at
least two of its cubes (no other literal selects a kernel), and the
"already generated" prune is a mask test against the current literal
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.algebra.cube import Cube
from repro.algebra.sop import Sop, sop_support


@dataclass(frozen=True)
class Kernel:
    """A kernel with the co-kernel cube that produces it.

    Both are expressed over global literal ids so kernels from different
    network nodes are directly comparable (KC-matrix columns dedupe
    kernel-cubes globally).
    """

    expression: Sop
    cokernel: Cube

    def __post_init__(self) -> None:
        if len(self.expression) < 2:
            raise ValueError("a kernel must have at least two cubes")

    @property
    def num_cubes(self) -> int:
        return len(self.expression)


class _MaskSpace:
    """Mapping from global literal ids to local bits (ascending id order)."""

    __slots__ = ("lits", "bit")

    def __init__(self, f: Sop) -> None:
        self.lits: List[int] = sorted(sop_support(f))
        self.bit: Dict[int, int] = {l: i for i, l in enumerate(self.lits)}

    def to_mask(self, c: Cube) -> int:
        m = 0
        for l in c:
            m |= 1 << self.bit[l]
        return m


def _rec(cubes: List[int], cok: int, j: int,
         found: Dict[Tuple[Tuple[int, ...], int], None], meter) -> None:
    """Record ``(cubes, cok)`` in *found*, then recurse on every literal
    ≥ *j* that occurs in two or more of *cubes*.  (A module function, not
    a closure over *found*: a self-referencing closure is a reference
    cycle, which would keep every call's *found* alive until the cyclic
    collector ran.)"""
    if meter is not None:
        meter.charge("kernel_cube_visit", len(cubes))
    found.setdefault((tuple(cubes), cok), None)
    # Only a literal in two or more cubes can select a kernel.
    seen = twice = 0
    for m in cubes:
        twice |= seen & m
        seen |= m
    twice &= -1 << j
    while twice:
        b = twice & -twice
        twice ^= b
        sel = [m for m in cubes if m & b]
        co = sel[0]
        for m in sel[1:]:
            co &= m
        if co & (b - 1):
            # The common cube contains a literal with smaller index:
            # this kernel was already generated from that literal.
            continue
        sub = sorted(m & ~co for m in sel)
        _rec(sub, cok | co, b.bit_length(), found, meter)


def kernels(f: Sop, meter=None) -> List[Kernel]:
    """Enumerate all (kernel, co-kernel) pairs of *f*.

    Expressions with fewer than two cubes have no kernels.  The cube-free
    part of *f* itself is always the first kernel returned (with the
    largest common cube as its co-kernel).  Distinct co-kernels producing
    the same kernel expression yield distinct entries — each becomes its
    own KC-matrix row.

    ``meter``, if given, is charged ``("kernel_cube_visit", n)`` for the
    cube traffic of the recursion; the simulated machine uses this to cost
    kernel generation.
    """
    if len(f) < 2:
        return []
    space = _MaskSpace(f)
    masks = [space.to_mask(c) for c in f]
    common = masks[0]
    for m in masks[1:]:
        common &= m
    base = sorted(m & ~common for m in masks)
    found: Dict[Tuple[Tuple[int, ...], int], None] = {}
    _rec(base, common, 0, found, meter)
    lits = space.lits
    decoded: Dict[int, Cube] = {}

    def cube_of(mask: int) -> Cube:
        cube = decoded.get(mask)
        if cube is None:
            held = []
            rest = mask
            while rest:
                low = rest & -rest
                held.append(lits[low.bit_length() - 1])
                rest ^= low
            cube = decoded[mask] = tuple(held)
        return cube

    out = [
        Kernel(expression=tuple(sorted(map(cube_of, cube_masks))), cokernel=cube_of(cok_mask))
        for cube_masks, cok_mask in found
    ]
    out.sort(key=lambda k: (k.cokernel, k.expression))
    return out


def kernel_level(f: Sop) -> int:
    """The level of expression *f* in the kernel hierarchy.

    A kernel is *level 0* if it has no kernels other than itself; a kernel
    is level *n* if it contains at least one level *n−1* kernel and no
    kernel of level *n* or higher (Brayton–Rudell).  Expressions with no
    kernels at all conventionally get level 0.
    """
    ks = kernels(f)
    proper = [k for k in ks if k.expression != f or k.cokernel != ()]
    # When f is not cube-free, its cube-free part is a proper divisor too;
    # only the exact self-kernel (co-kernel 1) is "itself".
    if not proper:
        return 0
    return 1 + max(kernel_level(k.expression) for k in proper)


def level0_kernels(f: Sop, meter=None) -> List[Kernel]:
    """The subset of kernels that are level 0 (no proper sub-kernels)."""
    out = []
    for k in kernels(f, meter=meter):
        sub = kernels(k.expression)
        if all(s.expression == k.expression and s.cokernel == () for s in sub):
            out.append(k)
    return out
