"""DAG extensions of a partially directed graph.

``consistent_extension`` finds one DAG with the same skeleton and
unshielded colliders that keeps every directed edge (the sink-peeling
algorithm), ``enumerate_dags`` lists the whole class by backtracking
over undirected edges with rule closure after every choice, and
``represents`` is the membership predicate both are measured against.
The enumeration checks its input once and then trusts the closure: by
Meek (1995) every branch of a closed, extendable graph is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .meek import _close, _closed, _low
from .pdag_core import PdagGraph, _adjacency, _bits, has_directed_cycle, unshielded_collider_triples

DEFAULT_DAG_LIMIT = 100_000


@dataclass(frozen=True)
class DagList:
    """Distinct DAGs in deterministic order; ``truncated`` marks a cut-off."""

    dags: tuple[PdagGraph, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.dags)

    def __iter__(self) -> Iterator[PdagGraph]:
        return iter(self.dags)


def represents(g: PdagGraph, h: PdagGraph) -> bool:
    """True iff ``h`` is represented by ``g``: identical skeleton and
    unshielded colliders, and every directed edge of ``g`` oriented the
    same way in ``h``."""
    if set(g.nodes) != set(h.nodes):
        return False
    if g.skeleton() != h.skeleton():
        return False
    if unshielded_collider_triples(g) != unshielded_collider_triples(h):
        return False
    return all(h.is_directed(tail, head) for tail, head in g.directed_edges())


def consistent_extension(g: PdagGraph) -> Optional[PdagGraph]:
    """One DAG represented by ``g``, or None when no extension exists.

    Repeatedly peels a node with no outgoing directed edge whose
    undirected neighbours are adjacent to all of its other neighbours,
    orienting the undirected edges into it.  Ties break on the lowest
    node index, so the result is deterministic.  A cyclic ``g`` gives
    None: a node on a directed cycle always keeps a child left.

    Eligible nodes are kept in a mask (Dor and Tarsi 1992): peeling
    ``x`` only removes nodes from its neighbours' tests, so eligible
    nodes stay eligible and only the other neighbours are re-tested.
    """
    dag = g._copy()
    und, ch = dag._und, dag._ch
    adjacent = _adjacency(g)
    remaining = (1 << len(und)) - 1

    def eligible(x: int) -> bool:
        near = adjacent[x] & remaining
        return not ch[x] & remaining and all(
            not near & ~(1 << u | adjacent[u]) for u in _bits(und[x])
        )

    ready = sum(1 << x for x in range(len(und)) if eligible(x))
    while ready:
        x = _low(ready)
        # Never a cycle: every descendant of x has been peeled already.
        for u in _bits(und[x]):
            dag._orient(u, x)
        remaining ^= 1 << x
        ready ^= 1 << x
        for y in _bits(adjacent[x] & remaining & ~ready):
            if eligible(y):
                ready |= 1 << y
    return dag if not remaining else None


def enumerate_dags(g: PdagGraph, limit: int = DEFAULT_DAG_LIMIT) -> DagList:
    """All DAGs represented by ``g``, each exactly once.

    A graph with no consistent extension gives an empty list.  Otherwise
    the rules are closed once, then the search backtracks depth-first
    over the first undirected edge in canonical pair order, orienting it
    both ways and re-closing the rules before going deeper.  Meek (1995,
    "Causal inference and causal explanation with background knowledge")
    shows that either orientation of an undirected edge of a closed,
    extendable graph, re-closed, is again closed and extendable with no
    new unshielded collider, so every leaf is represented by ``g`` and
    none is re-checked; the property test against a brute-force
    orientation of every undirected edge checks this.  The explicit
    stack keeps the depth clear of Python's recursion limit.

    Args:
        g: graph with an acyclic directed part.
        limit: positive cap on the number of DAGs collected; the result
            is flagged truncated when unexplored work remains.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    if has_directed_cycle(g):
        raise ValueError("input graph has a directed cycle")
    if consistent_extension(g) is None:
        return DagList(())

    found: list[PdagGraph] = []
    truncated = False

    by_name = sorted(range(len(g.nodes)), key=g.nodes.__getitem__)

    def first_undirected(h: PdagGraph) -> Optional[tuple[int, int]]:
        """First undirected edge in canonical (name-sorted) pair order."""
        for pos, u in enumerate(by_name):
            if h._und[u]:
                for v in by_name[pos + 1 :]:
                    if h._und[u] >> v & 1:
                        return u, v
        return None

    stack = [_closed(g)]
    while stack:
        h = stack.pop()
        edge = first_undirected(h)
        if edge is None:
            if len(found) >= limit:
                truncated = True
                break
            found.append(h)
            continue
        a, b = edge
        for tail, head in ((b, a), (a, b)):  # (a, b) is popped, so explored, first
            branch = h._copy()
            branch._orient(tail, head)
            _close(branch, [(tail, head)])
            stack.append(branch)
    return DagList(tuple(found), truncated)
