"""Covariate-adjustment identification on maximal PDAGs.

The criterion has three conditions, evaluated in order: every proper
possibly-causal path out of the treatment set must start with a directed
edge (amenability), the candidate set must avoid the forbidden nodes,
and every proper non-causal definite-status path must be blocked.  One
pass on the graph (:func:`_conditions`), a possible-ancestor walk from
the outcomes per treatment, finds the second nodes of the proper
possibly-causal paths; they decide amenability, the forbidden set and
the zero effect, and the edges into them are the cut.  Blocking is then
one search, :func:`_d_separated`, on one DAG extension without the cut
(:func:`_backdoor`): on an amenable query whose candidate set avoids
the forbidden set, that is d-separation in the extension's proper
back-door graph, which decides the condition for every extension
alike.  The extension is the one the graph keeps, built once on its
first amenable query when the maximality check kept none.  The
verdict, the canonical set and both listings run that one search; a
failing check's witness is the least shortest d-connecting walk in the
same graph, and a shortest-walk search names a non-amenable query's
witness.  Every public entry point checks its
query in one place, :func:`_query`: the library's one node-list rule on
``xs``, ``ys`` and ``zs``, then the maximality check, as the source
paper defines the criterion on maximal PDAGs only.  Everything behind it
works on node masks and re-checks nothing.  The one simple-path
enumeration left is :func:`forbidden_set`'s, for its ``on_path`` field
where the walks only bound it; it stops at the enumerator's step budget
with a ValueError.  No query is bounded by the graph's node count.  The
path-by-path blocking oracle, ``b_blocking_by_enumeration``, is in
``mpdagkit.reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from .causal_paths import _forward_reach, _simple_paths
from .meek import _require_maximal
from .pdag_core import (
    PdagGraph,
    _bits,
    _closure,
    _query_masks,
    consistent_extension,
)


@dataclass(frozen=True)
class ForbiddenSet:
    """Nodes unusable for adjustment, with the on-path nodes they stem from."""

    nodes: frozenset[str]
    on_path: frozenset[str]

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __iter__(self):
        return iter(sorted(self.nodes))


@dataclass(frozen=True)
class ConditionCheck:
    """Boolean outcome plus a violating path when the check fails."""

    ok: bool
    witness: Optional[tuple[str, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AdjustmentVerdict:
    """Per-condition results of the adjustment criterion.

    Conditions are checked in order and evaluation stops at the first
    failure, so later fields may be None (not evaluated).  ``witness``
    is a node-name tuple for a violating path or a single node name for
    a forbidden-set violation.  ``zero_effect`` is advisory: it flags
    that the outcome set cannot possibly descend from the treatments, so
    the total effect is zero even when no adjustment set exists.
    """

    amenable: bool
    forbidden_ok: Optional[bool]
    blocking_ok: Optional[bool]
    overall: bool
    zero_effect: bool
    witness: "tuple[str, ...] | str | None" = None


def _query(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    zs: "str | Iterable[str]" = (),
) -> list[int]:
    """The masks of ``xs``, ``ys`` and ``zs`` (only ``zs`` may be empty)
    after the one node-list rule, once ``g`` is known to be maximal."""
    masks = _query_masks(g, {"xs": xs, "ys": ys, "zs": zs}, ("zs",))
    _require_maximal(g)
    return masks


def _first_witness(paths: Iterable[tuple[str, ...]]) -> Optional[tuple[str, ...]]:
    ranked = sorted(paths, key=lambda p: (len(p), p))
    return ranked[0] if ranked else None


def _least_shortest_path(
    size: int,
    first: Iterable[tuple[int, int]],
    step: Callable[[int, int], int],
    targets: int,
    label: Callable[[int], object],
) -> Optional[tuple[int, ...]]:
    """The shortest walk into ``targets`` that is least by ``label``
    sequence, or None, in a graph of ``size`` nodes.  Walks start as the
    pairs ``(v, w)`` for each ``(v, mask)`` in ``first`` and ``w`` in the
    mask, and grow by the nodes in the mask ``step(previous, current)``.

    Breadth-first over (previous, current) states.  Each layer stays in
    label order, so the first walk to reach a state is its least one; a
    state is entered once, as its successors do not depend on the walk:
    ``done[v]`` holds the ``w`` whose state ``(v, w)`` was entered.
    """
    done = [0] * size
    starts = []
    for v, mask in first:
        done[v] |= mask
        starts += [(v, w) for w in _bits(mask)]
    layer = sorted(starts, key=lambda walk: [label(v) for v in walk])
    while layer:
        for walk in layer:
            if targets >> walk[-1] & 1:
                return walk
        grown = []
        for walk in layer:
            prev, cur = walk[-2:]
            fresh = step(prev, cur) & ~done[cur]
            done[cur] |= fresh
            grown += [walk + (w,) for w in sorted(_bits(fresh), key=label)]
        layer = grown
    return None


def _amenability(g: PdagGraph, x_mask: int, y_mask: int) -> ConditionCheck:
    """Amenability, with the witness least by (length, node names).

    A witness is a proper possibly-causal path ``x - s ... y`` that
    starts with an undirected edge.  For each ``x``, walks start at its
    siblings outside ``xs`` and follow child and undirected edges,
    avoiding ``xs | pa(x)``; every step after the second avoids the
    neighbours of the previous node.

    Proof sketch.  A chord of a shortest witness cannot point backward,
    so it would skip ahead to a shorter witness with the same first
    edge, unless it leaves ``x``: ``x - v_j`` starts a shorter witness
    itself, which leaves ``x -> v2`` as the only possible shield.  So
    every shortest witness is a walk of the search, and no shortest walk
    meets a sibling ``v`` of ``x`` after ``s``: ``x - v`` and the rest
    would be a shorter one.  Conversely a walk is unshielded after ``x``;
    by the fact :func:`_forward_reach` rests on (the source paper's lemma
    that a b-possibly-causal path has a b-possibly-causal unshielded
    subsequence) ``s`` then has a b-possibly-causal path to ``ys``
    avoiding ``xs | pa(x)``, and ``x - s`` before it is a witness.  That
    the least walk is the least witness is swept in the tests.
    """
    pa, ch, und = g._pa, g._ch, g._und
    names = g.nodes
    witnesses = []
    for x in _bits(x_mask):

        def step(prev: int, cur: int) -> int:
            near = 0 if prev == x else pa[prev] | ch[prev] | und[prev] | 1 << prev
            return (ch[cur] | und[cur]) & ~(x_mask | pa[x] | near)

        first = [(x, und[x] & ~x_mask)]
        walk = _least_shortest_path(len(g), first, step, y_mask, names.__getitem__)
        if walk is not None:
            witnesses.append(tuple(names[v] for v in walk))
    witness = _first_witness(witnesses)
    return ConditionCheck(witness is None, witness)


def _path_starts(g: PdagGraph, x_mask: int, y_mask: int) -> Iterator[tuple[int, int, int, int]]:
    """Per ``x`` in ``xs``, ``(x, removed, leads, starts)``: in ``H_x = g -
    removed``, with ``removed = xs | pa(x)``, the ``leads`` reach ``ys``,
    and ``starts`` are the children and siblings of ``x`` among them.
    The ``starts`` of all ``x`` make the mask ``sure``, and their
    b-possible descendants in ``H_x`` within ``leads`` the mask ``bound``,
    with ``sure <= on_path <= bound``, where ``on_path`` holds the
    non-treatment nodes of the proper b-possibly-causal paths; only
    :func:`forbidden_set` builds ``bound``.

    Proof sketch.  ``H_x`` is induced in a maximal PDAG, so it is maximal
    and, by the source paper's lemma (a b-possibly-causal path has an
    unshielded b-possibly-causal subsequence), :func:`_forward_reach`
    decides b-possibly-causal paths in it.  ``x`` before such a path from
    ``s`` in ``sure`` into ``ys`` is proper and b-possibly-causal, as
    ``H_x`` lacks the other treatments and ``pa(x)``.  Conversely, such a
    path ``x, s, ..., v, ..., y`` is in ``H_x`` after ``x`` (it is proper,
    and a parent of ``x`` on it is a backward edge), so ``v`` is in both
    walks; only ``bound`` may be loose.  On an amenable query
    ``sure`` holds children of ``xs`` only, and its b-possible
    descendants are the forbidden set: the DAG construction of van der
    Zander, Liskiewicz and Textor (AIJ 2019) read with the possible
    descendants of Perkovic, Textor, Kalisch and Maathuis (JMLR 2018),
    which the tests sweep.  On other queries they can miss some.
    """
    pa, ch, und = g._pa, g._ch, g._und
    for x in _bits(x_mask):
        removed = x_mask | pa[x]
        leads = _forward_reach(g, y_mask, pa, removed)
        yield x, removed, leads, (ch[x] | und[x]) & leads


def _conditions(g: PdagGraph, x_mask: int, y_mask: int) -> tuple[bool, int, list[tuple[int, int]]]:
    """``(amenable, sure, cut)`` from one pass over :func:`_path_starts`
    on the maximal ``g``.  As the starts are the second nodes of the
    proper b-possibly-causal paths, the query is ``amenable`` when no
    ``x`` has a sibling among its starts; ``sure``, their OR, is empty
    exactly when the total effect is zero, as such a path into ``ys`` is
    proper after its last treatment; ``cut`` pairs each ``x`` with its
    starts, the heads of the edges :func:`_backdoor` drops.
    """
    amenable, sure, cut = True, 0, []
    for x, _, _, starts in _path_starts(g, x_mask, y_mask):
        amenable &= not starts & g._und[x]
        sure |= starts
        cut.append((x, starts))
    return amenable, sure, cut


def _backdoor(
    g: PdagGraph, cut: list[tuple[int, int]], dag: Optional[PdagGraph] = None
) -> tuple[list[int], list[int]]:
    """The parent and child masks of a DAG extension of ``g`` without
    each ``x -> s``, ``s`` in ``x``'s part of ``cut``, on an amenable
    query.  The extension is ``dag`` when given, else the one ``g``
    keeps; a graph that keeps none gets :func:`consistent_extension` of
    itself, once, so a witness read off it is a function of ``g``.

    Proof sketch.  Let ``D`` be any extension, ``F`` the forbidden set
    and ``Z`` outside ``F``, as every caller's is.  (i) Blocking on
    ``g`` holds exactly when ``Z`` d-separates ``X`` and ``Y`` in the
    proper back-door graph of ``D`` (Perkovic, Textor, Kalisch and
    Maathuis, JMLR 2018).  If blocking holds, the source paper's theorem
    makes ``Z`` an adjustment set in every DAG of the class, which the
    DAG criterion reads as that d-separation.  If it fails, take an open
    violation on ``g``: a proper b-non-causal definite-status path whose
    colliders have a directed path into ``Z`` and whose other nodes are
    outside ``Z``.  It d-connects in ``D``: a collider and its path into
    ``Z`` stay, an edge out of a node stays, and an unshielded ``a - b -
    c`` is no collider in ``D``.  The back-door graph keeps every edge it
    uses: that graph drops ``x -> c`` only when a directed path from
    ``c`` avoiding ``X`` reaches ``Y``; that path is b-possibly causal in
    ``g``, so ``c`` is in ``F`` and no collider's path into ``Z`` runs
    through ``c``, and a violation ``x -> c ...`` stays directed up to its
    first collider (``u -> v - w`` is oriented by Meek's first rule or is
    not definite), so it is causal or that collider is a descendant of
    ``c`` with one in ``Z``.  (ii) The cut drops every edge that
    graph drops: ``x -> c`` before a directed path avoiding ``X`` into
    ``Y`` is a proper b-possibly-causal path in ``g``, so ``c`` is a start
    of ``x``, a child of ``x`` on an amenable query.  A further cut edge
    ``x -> s`` has ``s`` in ``F``, so no descendant of ``s`` is in ``Z``
    and ``s`` never opens as a collider; a path ``x -> s ...`` can only
    run down a directed path, and one into ``Y`` would make ``x -> s``
    proper causal, dropped by that graph too.  The parent masks stay
    ``D``'s, which changes no answer: a cut ``c`` has its descendants in
    ``F``, so ``_closure(pa, Z)`` holds none.  The searches never
    re-enter ``X`` but :func:`_d_separated`, which may re-enter ``x`` from
    ``c`` into states it started from.
    """
    if dag is None:
        dag = g._extension
        if dag is None:
            dag = g._extension = consistent_extension(g)
    ch = dag._ch[:]
    for x, starts in cut:
        ch[x] &= ~starts
    return dag._pa, ch


def _path_nodes(g: PdagGraph, x_mask: int, y_mask: int) -> tuple[int, int]:
    """The masks ``(sure, bound)`` of :func:`_path_starts`."""
    sure = bound = 0
    for _, removed, leads, starts in _path_starts(g, x_mask, y_mask):
        sure |= starts
        bound |= _forward_reach(g, starts, g._ch, removed) & leads
    return sure, bound


def forbidden_set(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    max_nodes: Optional[int] = None,
) -> ForbiddenSet:
    """Nodes that no adjustment set for (``xs``, ``ys``) may contain.

    ``on_path`` is every non-treatment node on a proper b-possibly-causal
    path from ``xs`` to ``ys``, and ``nodes`` its closure under b-possible
    descent.  Paths are walked only where :func:`_path_nodes`'s bounds on
    ``on_path`` differ, within ``bound``, until they cover it.  Where it
    is loose the walk runs to its end, and past the enumerator's step
    budget it raises a ValueError.  ``max_nodes`` is accepted and
    ignored; it no longer bounds anything.
    """
    x_mask, y_mask, _ = _query(g, xs, ys)
    on_path, bound = _path_nodes(g, x_mask, y_mask)
    if on_path != bound:
        step = [(c | u) & bound for c, u in zip(g._ch, g._und)]

        def cover(path: tuple[int, ...]) -> bool:
            nonlocal on_path
            for v in path[1:]:
                on_path |= 1 << v
            return on_path == bound

        _simple_paths(x_mask, step, g._ch, y_mask, cover)
    return ForbiddenSet(g._names(_forward_reach(g, on_path, g._ch)), g._names(on_path))


def is_amenable(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
) -> ConditionCheck:
    """Check that every proper possibly-causal path leaves ``xs`` with a
    directed edge; a shortest offending path is the witness otherwise."""
    x_mask, y_mask, _ = _query(g, xs, ys)
    amenable = _conditions(g, x_mask, y_mask)[0]
    return ConditionCheck(True) if amenable else _amenability(g, x_mask, y_mask)


# -- d-separation in DAGs ----------------------------------------------


def d_separated(
    d: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    zs: "str | Iterable[str]" = (),
) -> bool:
    """True iff every path between ``xs`` and ``ys`` in the DAG ``d`` is
    blocked by ``zs``.

    Uses reachability over (node, arrival-direction) states: a collider
    passes the trail on only when it has a descendant in ``zs``, any
    other interior node only when it is outside ``zs``.
    """
    if not d.is_dag():
        raise ValueError("d-separation needs a fully directed acyclic graph")
    masks = _query_masks(d, {"xs": xs, "ys": ys, "zs": zs}, ("xs", "ys", "zs"))
    return _d_separated(d._pa, d._ch, *masks)


def _d_separated(pa: list[int], ch: list[int], xs: int, ys: int, zs: int) -> bool:
    """The search behind :func:`d_separated`, on a DAG's parent and child
    masks and pairwise disjoint node masks the caller has checked; every
    adjustment verdict passes the masks of :func:`_backdoor`."""
    anz = _closure(pa, zs)  # nodes with a descendant in zs, plus zs
    # Two frontiers: ``down`` nodes were arrived at along an edge into
    # them, ``up`` nodes against an edge out of them.
    down = up = 0
    new_down = new_up = 0
    for x in _bits(xs):
        new_down |= ch[x]
        new_up |= pa[x]
    while new_down or new_up:
        if (new_down | new_up) & ys:
            return False
        down |= new_down
        up |= new_up
        grow_down = grow_up = 0
        for v in _bits(new_down & anz):
            grow_up |= pa[v]  # collider opens
        for v in _bits(new_down & ~zs):
            grow_down |= ch[v]
        for v in _bits(new_up & ~zs):
            grow_up |= pa[v]
            grow_down |= ch[v]
        new_down = grow_down & ~down
        new_up = grow_up & ~up
    return True


def _open_walks(pa: list[int], ch: list[int], x_mask: int, z_mask: int) -> tuple[list, Callable]:
    """The d-connecting walk's first entries, each a treatment ``x`` and
    the mask of its first steps, and ``step(a, b)``, the mask of the
    ``c`` that a step ``a, b, c`` passes on to, on a DAG's parent masks
    and its child masks ``ch`` from :func:`_backdoor`.  A step passes
    ``b`` as a collider with a descendant in ``Z`` (``b`` in ``Z``
    included) or as a non-collider outside ``Z``, and never re-enters
    ``X``.  Walked breadth-first (:func:`_least_shortest_path`) it gives
    the shortest d-connecting path least by node indices: no shortest
    walk backs up, as a walk that turns back can only climb to a parent
    from a node of ``An(Z)``, so each node it retraces passes on no more
    than at its first visit but the node before, and the walk could have
    left that node then."""
    opened = _closure(pa, z_mask)
    first = [(x, (pa[x] | ch[x]) & ~x_mask) for x in _bits(x_mask)]

    def step(a: int, b: int) -> int:
        onward = pa[b] if pa[b] >> a & 1 and opened >> b & 1 else 0  # a collider
        if not z_mask >> b & 1:  # a non-collider
            onward |= pa[b] | ch[b] if ch[b] >> a & 1 else ch[b]
        return onward & ~x_mask

    return first, step


def check_b_blocking(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    zs: "str | Iterable[str]" = (),
) -> ConditionCheck:
    """Check the blocking condition: d-separation in the proper back-door
    graph of ``g``'s DAG extension, which decides it for the whole class.

    Requires the amenability and forbidden-set hypotheses to hold (the
    search is exact under them); violation is a ValueError.  The witness
    on failure is the shortest d-connecting path in that graph least by
    node indices (:func:`_open_walks`).
    """
    verdict = satisfies_b_adjustment(g, xs, ys, zs)
    if not verdict.amenable:
        raise ValueError("blocking check requires amenability to hold")
    if not verdict.forbidden_ok:
        raise ValueError("blocking check requires zs to avoid the forbidden set")
    return ConditionCheck(verdict.blocking_ok, verdict.witness)


def satisfies_b_adjustment(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    zs: "str | Iterable[str]" = (),
) -> AdjustmentVerdict:
    """Evaluate the three-condition adjustment criterion for ``zs``.

    Conditions run in order with the first failure short-circuiting the
    rest; the verdict also carries the zero-effect flag (outcomes outside
    the possible descendants of the treatments).
    """
    x_mask, y_mask, z_mask = _query(g, xs, ys, zs)
    amenable, sure, cut = _conditions(g, x_mask, y_mask)
    forbidden_ok = blocking_ok = None
    witness = None if amenable else _amenability(g, x_mask, y_mask).witness
    if amenable:
        blocked_nodes = z_mask & _forward_reach(g, sure, g._ch)
        forbidden_ok = not blocked_nodes
        if blocked_nodes:
            witness = g.nodes[next(_bits(blocked_nodes))]
        else:
            pa, ch = _backdoor(g, cut)
            blocking_ok = _d_separated(pa, ch, x_mask, y_mask, z_mask)
            if not blocking_ok:
                walks = _open_walks(pa, ch, x_mask, z_mask)
                walk = _least_shortest_path(len(g), *walks, y_mask, int)
                witness = tuple(g.nodes[v] for v in walk)
    return AdjustmentVerdict(
        amenable=amenable,
        forbidden_ok=forbidden_ok,
        blocking_ok=blocking_ok,
        overall=blocking_ok is True,
        zero_effect=not sure,
        witness=witness,
    )


def adjust_set(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
) -> Optional[frozenset[str]]:
    """The canonical candidate adjustment set, or None when nothing works.

    Builds possible-ancestors(xs | ys) minus xs, ys and the forbidden
    set, and keeps it only when it passes the criterion; by construction
    no other set can pass when this one fails.
    """
    x_mask, y_mask, _ = _query(g, xs, ys)
    return _adjust_core(g, x_mask, y_mask)[1]


def _adjust_core(
    g: PdagGraph, x_mask: int, y_mask: int, dag: Optional[PdagGraph] = None
) -> tuple[bool, Optional[frozenset[str]]]:
    """Whether the query is amenable, and :func:`adjust_set`'s answer,
    from one :func:`_conditions` pass, on the maximal ``g`` and query
    masks its caller checked: :func:`adjust_set`, or a study replicate,
    which checks its query once for the graphs of all its rows and
    passes its true DAG, an extension of each of them, as ``dag``."""
    amenable, sure, cut = _conditions(g, x_mask, y_mask)
    if not amenable:
        return False, None
    taken = x_mask | y_mask | _forward_reach(g, sure, g._ch)
    candidate = _forward_reach(g, x_mask | y_mask, g._pa) & ~taken
    if _d_separated(*_backdoor(g, cut, dag), x_mask, y_mask, candidate):
        return True, g._names(candidate)
    return True, None


def list_adjustment_sets(
    g: PdagGraph,
    xs: "str | Iterable[str]",
    ys: "str | Iterable[str]",
    minimal_only: bool = False,
    universe_cap: int = 20,
    max_nodes: Optional[int] = None,
) -> list[frozenset[str]]:
    """All (or all minimal) valid adjustment sets at desk scale.

    A valid set is a subset Z of the candidate universe U, the nodes
    outside ``xs``, ``ys`` and the forbidden set, that d-separates
    ``xs`` and ``ys`` in the proper back-door DAG D.  Subsets are listed
    by size, then in ``combinations`` order over node indices.  The
    universe is capped before any search (override with
    ``universe_cap`` or the MPDAGKIT_UNIVERSE_CAP environment variable
    via the CLI).  The full listing tests every subset of U; the
    minimal listing searches only the ancestors of ``xs | ys`` in D
    and tests no superset of a set already found.  ``max_nodes`` is
    accepted and ignored; no path is enumerated.

    Proof sketch for the minimal listing.  (1) If Z separates, so does
    Z' = Z & An(xs | ys): separation in D is separation in the moral
    graph of An(xs | ys | Z) without Z (Lauritzen et al. 1990), and the
    moral graph of An(xs | ys | Z') = An(xs | ys) is a subgraph of that
    one holding no node of Z - Z', so every minimal set lies in the
    ancestors (Tian, Paz and Pearl 1998).  (2) Subsets come by size, so
    when Z comes up every strict subset has been decided, and a valid Z
    is minimal exactly when it contains no minimal set found before it
    (van der Zander, Liskiewicz and Textor, AIJ 2019).
    """
    if universe_cap < 0:
        raise ValueError("universe_cap must be non-negative")
    x_mask, y_mask, _ = _query(g, xs, ys)
    amenable, sure, cut = _conditions(g, x_mask, y_mask)
    if not amenable:
        return []
    taken = x_mask | y_mask | _forward_reach(g, sure, g._ch)
    universe = [name for v, name in enumerate(g.nodes) if not taken >> v & 1]
    if len(universe) > universe_cap:
        raise ValueError(
            f"candidate universe has {len(universe)} nodes, above the cap of "
            f"{universe_cap}"
        )
    pa, ch = _backdoor(g, cut)
    bit = {name: 1 << g._index[name] for name in universe}
    if minimal_only:
        ancestors = _closure(pa, x_mask | y_mask)
        universe = [name for name in universe if bit[name] & ancestors]
    valid: list[frozenset[str]] = []
    found: list[int] = []  # the masks of the valid sets
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            z = sum(map(bit.__getitem__, combo))
            if minimal_only and any(z & m == m for m in found):
                continue
            if _d_separated(pa, ch, x_mask, y_mask, z):
                found.append(z)
                valid.append(frozenset(combo))
    return valid
