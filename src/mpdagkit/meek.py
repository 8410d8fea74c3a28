"""Orientation closure, background-knowledge merging and CPDAG construction.

The four orientation rules are applied as exact induced-subgraph
patterns; a graph closed under them that has a DAG extension is a
maximal PDAG, and every public entry point that needs one checks all
three properties once (:func:`_require_maximal`).  Required edge
orientations are merged one at a time: each requirement either matches
the current graph (undirected or already oriented) and is followed by
re-closure, or the whole merge fails and the input is reported back
untouched together with the first violating requirement.

Closure orients a private copy of the graph in place, where each rule
premise is a few operations on its per-node sibling, parent and child
bitmasks; the copy shares the graph's node index and is itself the
result, so no name is looked up or re-checked.  Closure and merge
outputs are marked maximal when built, other graphs when they pass the
check, so no graph is checked twice; a checked graph also keeps the DAG
extension its check built, so the queries behind the check need not peel
it again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .pdag_core import (
    GraphParseError,
    PdagGraph,
    _acyclic_extension,
    _bits,
    _low,
    consistent_extension,
    has_directed_cycle,
    parse_statements,
)


class OrientationConflictError(RuntimeError):
    """``close_orientations`` was given an acyclic graph that has no
    consistent DAG extension, so closing it could create a directed
    cycle.  Raised before any rule is applied; merges never raise it.
    """


@dataclass(frozen=True)
class BackgroundKnowledge:
    """Ordered collection of required directed-edge orientations."""

    requirements: tuple[tuple[str, str], ...]

    def __init__(self, requirements: Iterable[tuple[str, str]] = ()):
        reqs = tuple((str(a), str(b)) for a, b in requirements)
        for a, b in reqs:
            if a == b:
                raise ValueError(f"requirement endpoints must differ: {a!r}")
        object.__setattr__(self, "requirements", reqs)

    def __len__(self) -> int:
        return len(self.requirements)

    def __iter__(self):
        return iter(self.requirements)


def parse_background(text: str) -> BackgroundKnowledge:
    """Parse background knowledge: graph format restricted to ``A -> B`` lines."""
    reqs = []
    for st in parse_statements(text):
        if st[0] != "edge" or st[3] != "->":
            raise GraphParseError(
                "only directed edge statements are allowed in background knowledge",
                st[-1],
            )
        _, u, v, _op, lineno = st
        if u == v:
            raise GraphParseError(f"self-loop on {u!r}", lineno)
        reqs.append((u, v))
    return BackgroundKnowledge(reqs)


@dataclass(frozen=True)
class OrientationOutcome:
    """Result of merging background knowledge into a maximal PDAG.

    On success ``graph`` is the re-closed result and ``violation`` is
    None.  On failure ``graph`` is the untouched input, ``violation`` is
    the first requirement that could not be oriented and ``reason`` says
    why in one line.
    """

    graph: PdagGraph
    violation: Optional[tuple[str, str]] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class ValidationReport:
    acyclic: bool
    closed: bool
    extendable: bool


def _first_target(g: PdagGraph, a: int, b: int) -> Optional[tuple[int, int]]:
    """First orientation implied by a rule whose pattern uses the directed
    edge a -> b, or None.

    Rules are tried in the order R1, R2 (a -> b first, then second edge
    of the chain), R3, R4 (a -> b as upper, then lower edge), each with
    the lowest node index first.  Every rule premise contains at least
    one directed edge, so scanning each directed edge as it appears
    visits every applicable pattern.
    """
    und, pa, ch = g._und, g._pa, g._ch
    # Nodes other than a that are not adjacent to a.
    apart_a = ~(und[a] | pa[a] | ch[a] | 1 << a)

    # R1: a -> b, b - c, a and c non-adjacent  =>  b -> c.
    hits = und[b] & apart_a
    if hits:
        return b, _low(hits)
    # R2 with a -> b as the first edge of the chain: a -> b -> c, a - c  =>  a -> c.
    hits = ch[b] & und[a]
    if hits:
        return a, _low(hits)
    # R2 with a -> b as the second edge: x -> a -> b, x - b  =>  x -> b.
    hits = pa[a] & und[b]
    if hits:
        return _low(hits), b

    common = und[a] & und[b]
    if not common:
        return None
    # R3: i - b, i - a, i - w, a -> b, w -> b, a and w non-adjacent  =>  i -> b.
    others = pa[b] & apart_a
    if others:
        for i in _bits(common):
            if und[i] & others:
                return i, b
    # R4, a -> b matching the upper edge j -> l of the pattern
    # (i - j, i - l, i - k, j -> l, l -> k, j and k non-adjacent => i -> k).
    others = ch[b] & apart_a
    if others:
        for i in _bits(common):
            hits = und[i] & others
            if hits:
                return i, _low(hits)
    # R4, a -> b matching the lower edge l -> k of the pattern (b is not in pa[a]).
    others = pa[a] & ~(und[b] | pa[b] | ch[b])
    if others:
        for i in _bits(common):
            if und[i] & others:
                return i, b
    return None


def _close(g: PdagGraph, seed: Iterable[tuple[int, int]]) -> None:
    """Apply rules to ``g`` until fixpoint, starting from the given directed edges.

    The first target is recomputed after every orientation so each
    firing is checked against the current state, never a stale premise.
    """
    queue = deque(seed)
    while queue:
        a, b = queue.popleft()
        while True:
            target = _first_target(g, a, b)
            if target is None:
                break
            g._orient(*target)
            queue.append(target)


def _closed(g: PdagGraph) -> PdagGraph:
    """Closure of a graph already known to be acyclic and extendable."""
    out = g._copy()
    _close(out, [(u, v) for u, m in enumerate(g._ch) for v in _bits(m)])
    out._maximal = True
    return out


def close_orientations(g: PdagGraph) -> PdagGraph:
    """Close the edge orientations of ``g`` under the four rules.

    The skeleton is unchanged and existing directed edges are kept.
    Raises ValueError when the input has a directed cycle and
    :class:`OrientationConflictError` when it has no consistent DAG
    extension, both checked before any rule is applied.
    """
    if _acyclic_extension(g) is None:
        raise OrientationConflictError("graph has no consistent DAG extension")
    return _closed(g)


def is_closed(g: PdagGraph) -> bool:
    """True iff no orientation rule applies to ``g``."""
    if g._maximal:
        return True
    return not any(
        _first_target(g, u, v) for u, children in enumerate(g._ch) for v in _bits(children)
    )


def _require_maximal(g: PdagGraph) -> None:
    """Raise ValueError naming the first maximality check ``g`` fails.
    A graph that passes is marked maximal, so it is never checked again,
    and keeps the DAG extension the check built in ``g._extension``,
    which the adjustment criterion reads instead of peeling ``g`` again.
    Graphs are immutable, so the kept extension stays one of ``g``'s;
    every derived graph starts without one."""
    if g._maximal:
        return
    report, dag = _validation(g)
    if not report.acyclic:
        raise ValueError("input graph has a directed cycle")
    if not report.closed:
        raise ValueError("input graph is not closed under the orientation rules")
    if not report.extendable:
        raise ValueError("graph has no consistent DAG extension")
    g._maximal = True
    g._extension = dag


def _merge_one(g: PdagGraph, x: int, y: int) -> Optional[str]:
    """Merge the required orientation x -> y into ``g`` and re-close.

    ``g`` must be a maximal PDAG, and stays one.  Returns None on
    success, otherwise why the requirement fails; after a failure
    ``g`` is left part-way and must be discarded.
    """
    if g._ch[x] >> y & 1:
        return None
    names = g._nodes
    if g._und[x] >> y & 1:
        g._orient(x, y)
        _close(g, [(x, y)])
        return None
    if g._ch[y] >> x & 1:
        return f"{names[x]} -> {names[y]} conflicts with {names[y]} -> {names[x]}"
    return f"no edge between {names[x]} and {names[y]}"


def construct_max_pdag(
    g: PdagGraph, r: BackgroundKnowledge | Iterable[tuple[str, str]]
) -> OrientationOutcome:
    """Merge required orientations into a maximal PDAG, or fail.

    Requirements are processed in order.  A requirement ``X -> Y`` is
    oriented when the current graph has ``X - Y`` or already ``X -> Y``;
    after each new orientation the rules are re-closed, which by Meek
    (1995) keeps the graph maximal.  Any other edge state (a reversed
    edge, no edge or an unknown node) makes the whole merge fail: the
    outcome then carries that requirement and the untouched input graph.
    Raises ValueError when ``g`` is not a maximal PDAG (acyclic,
    rule-closed and extendable).
    """
    if not isinstance(r, BackgroundKnowledge):
        r = BackgroundKnowledge(r)
    _require_maximal(g)
    merged = g._copy()
    index = g._index
    for x, y in r:
        if x not in index or y not in index:
            missing = x if x not in index else y
            return OrientationOutcome(g, (x, y), f"unknown node {missing}")
        reason = _merge_one(merged, index[x], index[y])
        if reason is not None:
            return OrientationOutcome(g, (x, y), reason)
    merged._maximal = True
    return OrientationOutcome(merged)


def cpdag_of(d: PdagGraph) -> PdagGraph:
    """CPDAG of a DAG: its skeleton plus the orientations shared by the
    whole Markov equivalence class (unshielded colliders, then closure)."""
    if not d.is_dag():
        raise ValueError("input is not a fully directed acyclic graph")
    pa, ch, nodes = d._pa, d._ch, range(len(d))
    # An edge u -> v is kept when v has another parent not adjacent to u.
    kept_pa = [sum(1 << u for u in _bits(m) if m & ~(pa[u] | ch[u] | 1 << u)) for m in pa]
    kept_ch = [0] * len(d)
    for v in nodes:
        for u in _bits(kept_pa[v]):
            kept_ch[u] |= 1 << v
    und = [pa[v] & ~kept_pa[v] | ch[v] & ~kept_ch[v] for v in nodes]
    # ``d`` itself extends the seed, so it needs no check.
    return _closed(PdagGraph._from_masks(d.nodes, d._index, kept_pa, kept_ch, und))


def _validation(g: PdagGraph) -> tuple[ValidationReport, Optional[PdagGraph]]:
    """The report of :func:`validate_maximal_pdag` and the DAG extension
    it was read from, or None."""
    # consistent_extension returns None on a cyclic graph, so an extension
    # answers acyclicity too; only a graph without one is peeled again.
    dag = consistent_extension(g)
    extendable = dag is not None
    return ValidationReport(extendable or not has_directed_cycle(g), is_closed(g), extendable), dag


def validate_maximal_pdag(g: PdagGraph) -> ValidationReport:
    """Report whether ``g`` is acyclic, rule-closed and DAG-extendable."""
    return _validation(g)[0]
