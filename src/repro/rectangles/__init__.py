"""Co-kernel cube matrix and minimum-weighted rectangle covering.

Kernel extraction is solved, exactly as in Brayton/Rudell and the paper,
as repeated extraction of the maximum-gain rectangle of the *co-kernel
cube (KC) matrix*:

- rows are (node, co-kernel) pairs,
- columns are distinct kernel-cubes,
- entry (i, j) names the original SOP cube ``cokernel_i ∪ kernelcube_j``
  of the row's node.

A rectangle (R, C) selects a kernel (the column cubes) shared by all its
rows; extracting it creates a new node and rewrites every row's node.

Sub-modules:

- :mod:`~repro.rectangles.kcmatrix` — the sparse matrix with the global
  offset labeling used by the parallel algorithms,
- :mod:`~repro.rectangles.bitview` — the dense bitset compilation of the
  matrix that every search runs on,
- :mod:`~repro.rectangles.rectangle` — rectangles and the literal-savings
  gain model,
- :mod:`~repro.rectangles.search` — exhaustive column-anchored
  enumeration (with the search budget that reproduces the paper's DNF
  rows) and the leftmost-column stripe decomposition of Figure 1,
- :mod:`~repro.rectangles.pingpong` — the SIS-style greedy heuristic,
- :mod:`~repro.rectangles.cover` — the greedy extract loop (the
  sequential kernel-extraction baseline) and network rewriting.
"""

from repro.rectangles.bitview import BitKCView
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.rectangle import Rectangle, rectangle_gain
from repro.rectangles.search import (
    SearchBudget,
    BudgetExceeded,
    best_rectangle_exhaustive,
    enumerate_rectangles,
)
from repro.rectangles.pingpong import best_rectangle_pingpong
from repro.rectangles.cover import (
    KernelExtractionResult,
    apply_rectangle,
    kernel_extract,
)

__all__ = [
    "BitKCView",
    "KCMatrix",
    "build_kc_matrix",
    "Rectangle",
    "rectangle_gain",
    "SearchBudget",
    "BudgetExceeded",
    "best_rectangle_exhaustive",
    "enumerate_rectangles",
    "best_rectangle_pingpong",
    "KernelExtractionResult",
    "apply_rectangle",
    "kernel_extract",
]
