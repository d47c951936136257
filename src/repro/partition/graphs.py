"""Netlist-to-graph mapping for min-cut partitioning.

The paper: "The circuit is mapped to a graph, by transforming the nodes
to vertices and the fanin-fanout relation between node pairs into
edges."  Primary inputs are not vertices — only internal nodes are
distributed across processors.  Edge weights count how many distinct
fanin references connect the pair (a node reading another through both
phases counts once per phase); node weights are SOP literal counts so
balance constraints track work, not node count.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.algebra.sop import sop_support
from repro.network.boolean_network import BooleanNetwork, base_signal


class Graph:
    """Undirected weighted graph: ``weight[v]`` is vertex *v*'s weight and
    ``adj[u][v] == adj[v][u]`` the weight of edge ``{u, v}``.  Every vertex
    has an ``adj`` entry, possibly empty; there are no self-loops."""

    __slots__ = ("weight", "adj")

    def __init__(self) -> None:
        self.weight: Dict[str, int] = {}
        self.adj: Dict[str, Dict[str, int]] = {}

    def add_node(self, v: str, weight: int = 1) -> None:
        self.weight[v] = weight
        self.adj.setdefault(v, {})

    def add_edge(self, u: str, v: str, weight: int = 1) -> None:
        """Add *weight* to edge ``{u, v}`` between two added vertices,
        creating the edge if absent."""
        self.adj[u][v] = self.adj[u].get(v, 0) + weight
        self.adj[v][u] = self.adj[u][v]

    def subgraph(self, vertices: Sequence[str]) -> "Graph":
        """The subgraph induced by *vertices* (a new graph, not a view)."""
        sub = Graph()
        keep = set(vertices)
        for v in vertices:
            sub.weight[v] = self.weight[v]
            sub.adj[v] = {u: w for u, w in self.adj[v].items() if u in keep}
        return sub


def circuit_graph(network: BooleanNetwork) -> Graph:
    """Undirected weighted graph over internal nodes.

    Vertex weight = node literal count; edge weight = number of fanin
    literals realizing the connection, summed over both directions.
    """
    g = Graph()
    for n in network.nodes:
        g.add_node(n, weight=max(1, network.literal_count(n)))
    for n, f in network.nodes.items():
        refs: Dict[str, int] = {}
        for lit in sop_support(f):
            s = base_signal(network.table.name_of(lit))
            if s in network.nodes and s != n:
                refs[s] = refs.get(s, 0) + 1
        for s, w in refs.items():
            g.add_edge(n, s, weight=w)
    return g


def cut_size(graph: Graph, assignment: Mapping[str, int]) -> int:
    """Total weight of edges whose endpoints sit in different blocks."""
    total = 0
    for u, nbrs in graph.adj.items():
        bu = assignment[u]
        for v, w in nbrs.items():
            if u < v and bu != assignment[v]:
                total += w
    return total


def block_nodes(assignment: Mapping[str, int], nblocks: int) -> List[List[str]]:
    """Group node names by block id, names sorted for determinism."""
    out: List[List[str]] = [[] for _ in range(nblocks)]
    for n, b in assignment.items():
        out[b].append(n)
    for lst in out:
        lst.sort()
    return out


def block_weights(graph: Graph, assignment: Mapping[str, int], nblocks: int) -> List[int]:
    """Total vertex weight per block."""
    out = [0] * nblocks
    for n, b in assignment.items():
        out[b] += graph.weight[n]
    return out
