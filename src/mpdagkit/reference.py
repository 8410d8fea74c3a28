"""Reference oracles: the path-by-path semantics of the source paper.

The paper defines b-possibly-causal and definite-status paths, then
decides possible ancestry and the b-adjustment criterion without
walking paths; the library's production routes do the same.  This
module keeps the path-by-path readings that the tests sweep those
routes against: :func:`classify_path` and
:func:`classify_definite_status` judge one path, given as a sequence of
node names, and :func:`oracle_reach` and
:func:`b_blocking_by_enumeration` walk every simple path with the one
enumerator, ``causal_paths._simple_paths``, so they stop at its step
budget with a ValueError.  Path semantics hold on any PDAG, so the
oracles skip the maximality check that the production routes make, and
the tests sweep them on other graphs too.  No production module imports
this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .adjustment import ConditionCheck, _first_witness
from .causal_paths import ANCESTORS, DESCENDANTS, ReachSet, _simple_paths
from .pdag_core import PdagGraph, _adjacency, _closure, _query_masks

B_POSSIBLY_CAUSAL = "b-possibly-causal"
B_NON_CAUSAL = "b-non-causal"

# Definite-status labels for nodes on a path.
COLLIDER = "collider"
DEFINITE_NON_COLLIDER = "definite-non-collider"
ENDPOINT = "endpoint"
NOT_DEFINITE = "not-definite"


@dataclass(frozen=True)
class PathClassification:
    """Verdict for one path; a failing ordered index pair when non-causal."""

    path: tuple[str, ...]
    verdict: str
    witness: Optional[tuple[int, int]] = None

    @property
    def is_b_possibly_causal(self) -> bool:
        return self.verdict == B_POSSIBLY_CAUSAL

    @property
    def witness_nodes(self) -> Optional[tuple[str, str]]:
        if self.witness is None:
            return None
        i, j = self.witness
        return (self.path[i], self.path[j])


def _path(g: PdagGraph, p: Sequence[str]) -> tuple[str, ...]:
    """``p`` as a tuple of names, checked to be a path in ``g``: two or
    more distinct known nodes, each adjacent to the next.  A bare string
    is one name."""
    nodes = (p,) if isinstance(p, str) else tuple(p)
    if len(nodes) < 2:
        raise ValueError("a path needs at least two nodes")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"path repeats a node: {nodes}")
    for name in nodes:
        g.node_index(name)  # the KeyError for an unknown name
    for u, v in zip(nodes, nodes[1:]):
        if not g.has_edge(u, v):
            raise ValueError(f"consecutive path nodes not adjacent: {u}, {v}")
    return nodes


def classify_path(g: PdagGraph, p: Sequence[str]) -> PathClassification:
    """Decide whether ``p`` could be causal in some DAG completion of ``g``.

    The path is possibly causal only when no ordered pair of its nodes
    (in path order, consecutive or not) is joined by a directed edge
    pointing backwards; the first offending pair is reported otherwise.
    """
    nodes = _path(g, p)
    for i in range(len(nodes) - 1):
        for j in range(i + 1, len(nodes)):
            if g.is_directed(nodes[j], nodes[i]):
                return PathClassification(nodes, B_NON_CAUSAL, (i, j))
    return PathClassification(nodes, B_POSSIBLY_CAUSAL)


def classify_definite_status(g: PdagGraph, p: Sequence[str]) -> tuple[str, ...]:
    """Label every node on ``p`` with its definite-status role.

    Interior nodes become ``collider`` when both flanking edges point into
    them, ``definite-non-collider`` when a flanking edge leaves them or when
    both flanking edges are undirected and the flanking neighbours are
    non-adjacent, and ``not-definite`` otherwise.  Endpoints are labelled
    ``endpoint``.
    """
    nodes = _path(g, p)
    labels = [ENDPOINT]
    for left, mid, right in zip(nodes, nodes[1:], nodes[2:]):
        into_left = g.is_directed(left, mid)
        into_right = g.is_directed(right, mid)
        out_any = g.is_directed(mid, left) or g.is_directed(mid, right)
        if into_left and into_right:
            labels.append(COLLIDER)
        elif out_any:
            labels.append(DEFINITE_NON_COLLIDER)
        elif (
            g.is_undirected(left, mid)
            and g.is_undirected(mid, right)
            and not g.has_edge(left, right)
        ):
            labels.append(DEFINITE_NON_COLLIDER)
        else:
            labels.append(NOT_DEFINITE)
    labels.append(ENDPOINT)
    return tuple(labels)


def oracle_reach(
    g: PdagGraph, xs: "str | Iterable[str]", direction: str = DESCENDANTS
) -> ReachSet:
    """Reference reachability semantics via simple-path enumeration.

    Walks every viable simple path, so it shares the enumerator's step
    budget: a query past ``PATH_STEP_BUDGET`` extensions (K11 from one
    node) raises a ValueError.  Agrees with the state search of
    ``b_possible_descendants`` and ``b_possible_ancestors``, the
    production route.
    """
    (roots,) = _query_masks(g, {"xs": xs}, optional=("xs",))
    if direction not in (DESCENDANTS, ANCESTORS):
        raise ValueError(f"unknown direction {direction!r}")
    # Ancestors are descendants along reversed edges.
    out = g._ch if direction == DESCENDANTS else g._pa
    step = [o | u for o, u in zip(out, g._und)]
    ends: set[int] = set()
    _simple_paths(roots, step, out, ~0, lambda p: ends.add(p[-1]))
    query = g._names(roots)
    return ReachSet(query | {g.nodes[v] for v in ends}, query, direction)


def b_blocking_by_enumeration(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    zs: "str | Iterable[str]" = (),
) -> ConditionCheck:
    """Reference blocking semantics: every proper non-causal
    definite-status path from ``xs`` to ``ys`` must be blocked by ``zs``.

    Walks all proper simple paths, so it is meant for small graphs and
    cross-checks of the fast route; a query past the enumerator's step
    budget (K11 between two nodes) raises a ValueError.  Each path that
    reaches ``ys`` is judged on node masks in one pass along it: a
    backward directed pair makes it non-causal, and each interior triple
    must be a collider that is or has a descendant in ``zs``, or a
    definite non-collider outside ``zs``.  No path is pruned, so the walk
    and its step count do not depend on ``zs``.
    """
    x_mask, y_mask, z_mask = _query_masks(g, {"xs": xs, "ys": ys, "zs": zs}, ("xs", "ys", "zs"))
    pa, ch, und = g._pa, g._ch, g._und
    adjacent = _adjacency(g)
    opened = _closure(pa, z_mask)  # colliders that do not block
    violations: list[tuple[str, ...]] = []

    def check(path: tuple[int, ...]) -> None:
        earlier = 0
        for v in path:
            if ch[v] & earlier:
                break  # v -> an earlier node: not possibly causal
            earlier |= 1 << v
        else:
            return
        for left, mid, right in zip(path, path[1:], path[2:]):
            ends = 1 << left | 1 << right
            if pa[mid] & ends == ends:  # a collider
                if not opened >> mid & 1:
                    return
            elif ch[mid] & ends or (und[mid] & ends == ends and not adjacent[left] & 1 << right):
                if z_mask >> mid & 1:  # a definite non-collider
                    return
            else:
                return  # not a definite-status path
        violations.append(tuple(g.nodes[v] for v in path))

    step = [m & ~x_mask for m in adjacent]
    _simple_paths(x_mask, step, (0,) * len(g), y_mask, check)
    return ConditionCheck(not violations, _first_witness(violations))
