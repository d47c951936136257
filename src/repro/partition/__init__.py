"""Circuit partitioning substrate.

The partitioned parallel algorithms (paper Sections 4 and 5) distribute
circuit *nodes* across processors with a min-cut objective, citing
Sanchis's multiple-way network partitioning.  This package provides:

- :mod:`~repro.partition.graphs` — netlist → weighted undirected graph
  (:class:`~repro.partition.graphs.Graph`: a vertex-weight dict and a
  ``{u: {v: w}}`` adjacency),
- :mod:`~repro.partition.fm` — Fiduccia–Mattheyses 2-way min-cut with
  gain buckets and balance constraints,
- :mod:`~repro.partition.multiway` — Sanchis-style n-way partitioning by
  recursive bisection plus pairwise FM refinement, and a random
  partitioner used by the ablation benchmarks.
"""

from repro.partition.graphs import circuit_graph, cut_size
from repro.partition.fm import fm_bipartition
from repro.partition.multiway import multiway_partition, random_partition

__all__ = [
    "circuit_graph",
    "cut_size",
    "fm_bipartition",
    "multiway_partition",
    "random_partition",
]
