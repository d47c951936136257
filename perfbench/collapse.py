"""Exact algebraic certificate for a kernel-extraction answer.

Algebraic extraction only rewrites a node's cube set as co-kernel ×
kernel products, so substituting every extracted node back into the
nodes that read it must reproduce each original node's cube set exactly.
:func:`collapse_check` does that substitution node by node and returns
the list of problems found (empty when the answer is certified).  It
works on literal *names*, so the factored network may come from another
process (a served ``eqn`` answer) with its own literal table.

Three cases need care:

- *null cubes* (``x·x'``) are identically 0.  The eqn writer drops them,
  and expanding a co-kernel against a kernel cube can create one, so
  both sides are compared with null cubes removed;
- *duplicate cubes*: an expansion can yield one cube twice (the L-shaped
  algorithm can extract ``X = A + B`` where the kernels ``A`` and ``B``
  share a cube).  Both sides are compared as cube *sets*, which such an
  answer still matches, and the extra copies are counted, since they are
  literals the factored form carries for nothing;
- *aliases*: the L-shaped algorithm collapses single-literal nodes
  (``collapse_aliases``), including original nodes whose whole cube set
  was extracted (``n = X``).  Such a node is gone from the answer and its
  readers name ``X`` instead.  The original side substitutes the missing
  node into its readers too; a complemented reference ``n'`` cannot be
  substituted, so the answer's ``X'`` is matched to the missing node
  whose cube set ``X`` reproduces.

It also recounts the factored network's literals, so a reported final
literal count can be checked against the network itself.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

Cube = FrozenSet[str]

#: Problems listed per answer before the rest are summarised.
MAX_PROBLEMS = 20


def _flip(name: str) -> str:
    return name[:-1] if name.endswith("'") else name + "'"


def _base(name: str) -> str:
    return name.rstrip("'")


def _is_null(cube: Cube) -> bool:
    return any(_flip(lit) in cube for lit in cube if not lit.endswith("'"))


def named_cubes(network, node: str) -> List[Cube]:
    """A node's cubes as sets of literal names (order and ids dropped)."""
    names = network.table.name_of
    return [frozenset(names(lit) for lit in cube) for cube in network.nodes[node]]


def literal_count(network) -> int:
    """Literals of every internal node, recounted from the cube lists."""
    return sum(len(cube) for sop in network.nodes.values() for cube in sop)


def _expand(cube: Cube, factor_of) -> List[Cube]:
    """The cubes of ``Π factor_of(lit)`` over the literals of *cube*."""
    return [frozenset().union(*parts) for parts in product(*map(factor_of, cube))]


def collapse_check(original, factored) -> List[str]:
    """Problems that keep *factored* from being an exact algebraic
    factorization of *original*; an empty list certifies it."""
    return collapse(original, factored)[0]


def collapse(original, factored) -> Tuple[List[str], int]:
    """(problems, duplicate cubes) of *factored* against *original*."""
    problems: List[str] = []
    duplicates = 0
    if list(original.inputs) != list(factored.inputs):
        problems.append("primary inputs differ")
    if list(original.outputs) != list(factored.outputs):
        problems.append("primary outputs differ")
    extracted = {n for n in factored.nodes if n not in original.nodes}
    missing = {n for n in original.nodes if n not in factored.nodes}
    for n in sorted(extracted):
        if original.is_input(n):
            problems.append(f"{n}: primary input redefined as a node")
    for out in factored.outputs:
        if out not in factored.nodes and not factored.is_input(out):
            problems.append(f"{out}: primary output has no definition")

    def expander(network, inline, complemented):
        """Memoised cube lists of *network*'s nodes with every node in
        *inline* substituted into its readers; ``complemented(base)``
        gives the literal a complemented reference becomes."""
        memo: Dict[str, List[Cube]] = {}

        def cubes(node: str, stack: Tuple[str, ...] = ()) -> List[Cube]:
            if node in memo:
                return memo[node]
            if node in stack:
                raise ValueError(f"cycle through {node}")

            def factor(lit: str) -> List[Cube]:
                base = _base(lit)
                if base not in inline:
                    return [frozenset([lit])]
                if lit == base:
                    return cubes(base, stack + (node,))
                return [frozenset([complemented(base)])]

            out = [c for cube in named_cubes(network, node) for c in _expand(cube, factor)]
            memo[node] = out
            return out

        return cubes

    def original_complement(base: str) -> str:
        body = named_cubes(original, base)
        if len(body) == 1 and len(body[0]) == 1:
            return _flip(next(iter(body[0])))   # a collapsed alias n = s
        return base + "'"

    want_cubes = expander(original, missing, original_complement)
    reps: Dict[str, str] = {}

    def answer_complement(x: str) -> str:
        if x not in reps:
            have = _cube_set(have_cubes(x))
            for n in sorted(missing):
                if _cube_set(want_cubes(n)) == have:
                    reps[x] = n
                    break
            else:
                raise ValueError(f"complemented extracted node {x}' stands for no original node")
        return reps[x] + "'"

    have_cubes = expander(factored, extracted, answer_complement)

    for node in original.nodes:
        if node in missing:
            continue
        try:
            have = Counter(c for c in have_cubes(node) if not _is_null(c))
            want = _cube_set(want_cubes(node))
        except ValueError as exc:
            problems.append(f"{node}: {exc}")
            continue
        duplicates += sum(have.values()) - len(have)
        if set(have) != want:
            lost = len(want - set(have))
            extra = len(set(have) - want)
            problems.append(f"{node}: cube set differs ({lost} lost, {extra} extra)")
    if len(problems) > MAX_PROBLEMS:
        problems = problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]
    return problems, duplicates


def _cube_set(cubes) -> Set[Cube]:
    return {c for c in cubes if not _is_null(c)}


def check_answer(original, factored,
                 reported_final_lc: Optional[int]) -> Tuple[List[str], int]:
    """:func:`collapse` plus the literal recount."""
    problems, duplicates = collapse(original, factored)
    if reported_final_lc is not None:
        recount = literal_count(factored)
        if recount != reported_final_lc:
            problems.append(
                f"reported final LC {reported_final_lc} != recount {recount}"
            )
    return problems, duplicates
