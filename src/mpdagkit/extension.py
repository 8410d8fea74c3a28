"""DAG extensions of a partially directed graph.

``consistent_extension`` (defined in :mod:`.pdag_core`, re-exported here)
finds one DAG with the same skeleton and unshielded colliders that keeps
every directed edge (the sink-peeling algorithm), ``enumerate_dags`` lists
the whole class by backtracking over undirected edges with rule closure
after every choice, and ``represents`` is the membership predicate both
are measured against.
The enumeration checks its input once and then trusts the closure: by
Meek (1995) every branch of a closed, extendable graph is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .meek import _close, _closed
from .pdag_core import PdagGraph, _acyclic_extension, unshielded_collider_triples
from .pdag_core import consistent_extension  # re-exported: part of this module's API

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
    if _acyclic_extension(g) is None:
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
