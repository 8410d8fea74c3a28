"""Possible-ancestral-relation queries on maximal PDAGs.

Reachability uses a depth-first search over (previous, current) states
that only follows forward or undirected edges and skips shielded
continuations; ``mpdagkit.reference.oracle_reach`` is the path-by-path
oracle the tests sweep it against.  ``_simple_paths`` is the one
simple-path enumerator, behind ``forbidden_set`` and the reference
oracles; it is bounded by a step budget, ``PATH_STEP_BUDGET``, not by
the graph's size, and its caller may end it early.  The reach queries
run the library's one node-list rule on ``xs``, which may be empty, and
then the maximality check: the search is exact on maximal PDAGs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .meek import _require_maximal
from .pdag_core import PdagGraph, _bits, _query_masks

DESCENDANTS = "descendants"
ANCESTORS = "ancestors"

PATH_STEP_BUDGET = 1_000_000  # path extensions per enumeration


@dataclass(frozen=True)
class ReachSet:
    """Closure of a query set under one direction of possible causation."""

    nodes: frozenset[str]
    query: frozenset[str]
    direction: str

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __iter__(self):
        return iter(sorted(self.nodes))


def _forward_reach(g: PdagGraph, roots: int, out: tuple, removed: int = 0) -> int:
    """Mask of the nodes reachable from ``roots`` along possibly-causal
    unshielded walks in ``g`` with the ``removed`` nodes deleted.

    Walks follow undirected edges and the directed ones in ``out``
    (``g._ch`` for descendants, ``g._pa`` for ancestors).  States are
    (previous, current) pairs; a step to ``w`` is allowed when it does
    not back up and ``w`` is non-adjacent to the previous node (keeping
    consecutive triples unshielded).  Tracking the predecessor makes the
    state space O(nodes * edges) rather than linear; correctness is
    anchored to the enumeration oracle, which the test suite checks it
    against.
    """
    pa, ch, und = g._pa, g._ch, g._und
    step = [(o | u) & ~removed for o, u in zip(out, und)]
    reached = roots & ~removed
    seen: set[tuple[int, int]] = set()
    # Each entry is a node and the steps still allowed from it.
    stack = [(r, step[r]) for r in _bits(reached)]
    while stack:
        cur, allowed = stack.pop()
        reached |= allowed
        for w in _bits(allowed):
            if (cur, w) not in seen:
                seen.add((cur, w))
                stack.append((w, step[w] & ~(pa[cur] | ch[cur] | und[cur] | 1 << cur)))
    return reached


def b_possible_descendants(g: PdagGraph, xs: "str | Iterable[str]") -> ReachSet:
    """All nodes with a b-possibly-causal path from some node of ``xs``
    (plus ``xs`` itself); ``g`` must be a maximal PDAG."""
    (roots,) = _query_masks(g, {"xs": xs}, optional=("xs",))
    _require_maximal(g)
    return ReachSet(g._names(_forward_reach(g, roots, g._ch)), g._names(roots), DESCENDANTS)


def b_possible_ancestors(g: PdagGraph, xs: "str | Iterable[str]") -> ReachSet:
    """Mirror image of :func:`b_possible_descendants` on the edge-reversed graph."""
    (roots,) = _query_masks(g, {"xs": xs}, optional=("xs",))
    _require_maximal(g)
    return ReachSet(g._names(_forward_reach(g, roots, g._pa)), g._names(roots), ANCESTORS)


def _simple_paths(
    starts: int,
    step: Sequence[int],
    back: Sequence[int],
    targets: int,
    found: Callable[[tuple[int, ...]], object],
) -> None:
    """Call ``found`` with each simple path, as a node-index tuple, that
    leaves a node of ``starts`` and ends in ``targets`` (``~0``: any
    node), in depth-first order by index; paths go on past targets.  A
    true value returned by ``found`` ends the walk.

    A path at ``v`` grows by each node ``w`` of ``step[v]`` off the path
    whose ``back[w]`` misses it, since no extension repairs a backward
    pair.  No path is kept.  This is the one simple-path enumerator.  An
    explicit stack of per-depth candidate masks keeps long paths clear
    of Python's recursion limit, and every extension counts against
    ``PATH_STEP_BUDGET``; past it the walk stops with a ValueError.
    """
    budget = PATH_STEP_BUDGET
    for s in _bits(starts):
        path = [s]
        on_path = 1 << s
        stack = [step[s] & ~on_path]  # the candidates left at each depth
        while stack:
            left = stack[-1]
            if not left:
                stack.pop()
                on_path ^= 1 << path.pop()
                continue
            low = left & -left
            stack[-1] = left ^ low
            w = low.bit_length() - 1
            if back[w] & on_path:
                continue
            budget -= 1
            if budget < 0:
                raise ValueError(
                    f"path enumeration passed its budget of {PATH_STEP_BUDGET:,} steps"
                )
            path.append(w)
            if targets & low and found(tuple(path)):
                return
            on_path |= low
            stack.append(step[w] & ~on_path)

