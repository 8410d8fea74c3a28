"""Graph value type for partially directed graphs, plus the text format.

A :class:`PdagGraph` stores an ordered node tuple and, per node, bitmasks
of its parents, children and siblings over node indices.  The same value
type is used for DAGs, CPDAGs and maximal PDAGs.  Library code works on
the masks; names appear only at the public methods and in
parse/serialize.  The public constructor validates names and edges; a
graph derived from another (closure, merge, extension) is built by the
private ``PdagGraph._from_masks`` or ``_copy``, which share the source's
nodes and index and re-check nothing.  Graphs are immutable once
returned, as derived graphs may share mask lists with their source.

The module also owns peeling: acyclicity, the topological order the SEM
sampler walks (:func:`_topological_order`) and the one DAG extension
(:func:`consistent_extension`), which the orientation rules build on;
and the one node-list rule (:func:`_query_masks`) that every public
query and the command line run on a query's node lists.  The text
format has two readers with one answer: a one-pass regex read of the
canonical form that :func:`serialize_graph` writes, and the per-line
parser, which takes every other text and reports its errors.  Judging a
single path by its nodes (definite status) is a reference oracle, in
``mpdagkit.reference``.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
NAME_RE = re.compile(_NAME + r"\Z")

UNDIRECTED = "--"


class GraphParseError(ValueError):
    """Raised for malformed graph documents; carries the offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QueryError(ValueError):
    """Raised when a query's node lists break the node-list rule; the
    message names each list by the label its caller gave it."""


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(step: Sequence[int], seeds: int) -> int:
    """``seeds`` plus every node reached from them by repeating ``step``
    (per-node masks: parents for ancestors, children for descendants)."""
    out = frontier = seeds
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= step[v]
        frontier = grown & ~out
        out |= frontier
    return out


def _adjacency(g: "PdagGraph") -> list[int]:
    return [p | c | u for p, c, u in zip(g._pa, g._ch, g._und)]


class PdagGraph:
    """Immutable partially directed graph over named nodes.

    Args:
        nodes: node names in declaration order; names must match
            ``[A-Za-z_][A-Za-z0-9_]*`` and be unique.
        directed: iterable of ``(tail, head)`` pairs.
        undirected: iterable of unordered pairs.

    Each node pair may carry at most one edge and self loops are
    rejected, so the representation cannot express multigraphs.
    Internally ``_pa[i]``, ``_ch[i]`` and ``_und[i]`` are the bitmasks
    of the parents, children and siblings of ``nodes[i]``.
    """

    __slots__ = ("_nodes", "_index", "_pa", "_ch", "_und", "_maximal", "_extension")

    def __init__(
        self,
        nodes: Sequence[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ):
        nodes = tuple(nodes)
        index: dict[str, int] = {}
        for name in nodes:
            if not NAME_RE.match(name):
                raise ValueError(f"invalid node name: {name!r}")
            if name in index:
                raise ValueError(f"duplicate node name: {name!r}")
            index[name] = len(index)
        pa = [0] * len(nodes)
        ch = [0] * len(nodes)
        und = [0] * len(nodes)

        def add(u: str, v: str) -> tuple[int, int]:
            if u not in index or v not in index:
                missing = u if u not in index else v
                raise ValueError(f"edge endpoint not a declared node: {missing!r}")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            i, j = index[u], index[v]
            if (pa[i] | ch[i] | und[i]) >> j & 1:
                a, b = _pair(u, v)
                raise ValueError(f"duplicate edge between {a!r} and {b!r}")
            return i, j

        for u, v in directed:
            i, j = add(u, v)
            ch[i] |= 1 << j
            pa[j] |= 1 << i
        for u, v in undirected:
            i, j = add(u, v)
            und[i] |= 1 << j
            und[j] |= 1 << i
        self._assign(nodes, index, pa, ch, und)

    def _assign(self, nodes, index, pa, ch, und) -> None:
        self._nodes = nodes
        self._index = index
        self._pa = pa
        self._ch = ch
        self._und = und
        self._maximal = False  # set by meek on its own outputs and on a graph it checked
        self._extension = None  # consistent_extension(self), kept once meek or adjustment built it

    @classmethod
    def _from_masks(cls, nodes, index, pa, ch, und) -> "PdagGraph":
        """Trusted constructor for graphs derived from an existing one:
        ``nodes`` and ``index`` are that graph's, and the mask lists
        must be consistent (``pa`` the transpose of ``ch``, ``und``
        symmetric, the three pairwise disjoint); nothing is re-checked."""
        g = object.__new__(cls)
        g._assign(nodes, index, pa, ch, und)
        return g

    def _copy(self) -> "PdagGraph":
        """Fresh mask lists, same nodes and index.  Only the function that
        made a copy may ``_orient`` it, and only before returning it."""
        return self._from_masks(self._nodes, self._index, self._pa[:], self._ch[:], self._und[:])

    def _orient(self, u: int, v: int) -> None:
        """Turn the undirected edge u - v into u -> v, unchecked.  No
        caller creates a cycle: by Meek (1995) closing an extendable graph,
        or orienting and re-closing one of its undirected edges, keeps it
        extendable, and sink peeling orients only into a node with no child left."""
        self._und[u] ^= 1 << v
        self._und[v] ^= 1 << u
        self._ch[u] |= 1 << v
        self._pa[v] |= 1 << u

    # -- basic views ---------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._nodes)

    def node_index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise KeyError(f"unknown node: {node!r}") from None

    def _names(self, mask: int) -> frozenset[str]:
        return frozenset(self._nodes[i] for i in _bits(mask))

    def edge(self, u: str, v: str) -> Optional[str]:
        """Edge state between ``u`` and ``v``, oriented relative to ``u``.

        Returns ``"->"`` for ``u -> v``, ``"<-"`` for ``u <- v``, ``"--"``
        for an undirected edge and ``None`` when the pair is not adjacent.
        """
        i, j = self.node_index(u), self.node_index(v)
        if self._ch[i] >> j & 1:
            return "->"
        if self._pa[i] >> j & 1:
            return "<-"
        if self._und[i] >> j & 1:
            return UNDIRECTED
        return None

    def _pair_bit(self, masks: list[int], u: str, v: str) -> bool:
        """Bit ``v`` of ``masks[u]``; False when either name is unknown."""
        i = self._index.get(u)
        j = self._index.get(v)
        return i is not None and j is not None and bool(masks[i] >> j & 1)

    def has_edge(self, u: str, v: str) -> bool:
        i = self._index.get(u)
        j = self._index.get(v)
        if i is None or j is None:
            return False
        return bool((self._pa[i] | self._ch[i] | self._und[i]) >> j & 1)

    def is_directed(self, u: str, v: str) -> bool:
        """True iff the edge ``u -> v`` is present."""
        return self._pair_bit(self._ch, u, v)

    def is_undirected(self, u: str, v: str) -> bool:
        return self._pair_bit(self._und, u, v)

    def parents(self, v: str) -> frozenset[str]:
        return self._names(self._pa[self.node_index(v)])

    def children(self, v: str) -> frozenset[str]:
        return self._names(self._ch[self.node_index(v)])

    def siblings(self, v: str) -> frozenset[str]:
        return self._names(self._und[self.node_index(v)])

    def adjacent(self, v: str) -> frozenset[str]:
        i = self.node_index(v)
        return self._names(self._pa[i] | self._ch[i] | self._und[i])

    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        """All directed edges as (tail, head), in canonical pair order."""
        names = self._nodes
        edges = [(names[t], names[h]) for t, m in enumerate(self._ch) for h in _bits(m)]
        return tuple(sorted(edges, key=lambda e: _pair(*e)))

    def undirected_edges(self) -> tuple[tuple[str, str], ...]:
        names = self._nodes
        return tuple(
            sorted(
                _pair(names[a], names[b])
                for a, m in enumerate(self._und)
                for b in _bits(m)
                if a < b
            )
        )

    def skeleton(self) -> frozenset[tuple[str, str]]:
        """Unordered adjacent pairs, each as its name-sorted tuple."""
        names = self._nodes
        return frozenset(
            _pair(names[a], names[b])
            for a, m in enumerate(self._ch)
            for b in _bits(m | self._und[a])
        )

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._ch) + sum(
            m.bit_count() for m in self._und
        ) // 2

    def is_dag(self) -> bool:
        """True iff every edge is directed and no directed cycle exists."""
        return not any(self._und) and not has_directed_cycle(self)

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PdagGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._pa == other._pa
            and self._und == other._und
        )

    def __hash__(self) -> int:
        return hash((self._nodes, tuple(self._pa), tuple(self._und)))

    def __repr__(self) -> str:
        return f"PdagGraph(nodes={len(self._nodes)}, edges={self.edge_count()})"


def _query_masks(g: PdagGraph, lists: dict, optional: tuple[str, ...] = ()) -> list[int]:
    """The node masks of a query's lists, in order, after the one
    node-list rule.  ``lists`` maps each list's label to its names (a
    bare string is one name).  Each check runs over all lists, in order:
    every name is known (the first unknown one is the KeyError), no two
    lists share a node, no list is empty unless its label is in
    ``optional``, and no list names a node twice; the last three raise
    :class:`QueryError` naming the lists by their labels."""
    index = g._index
    masks, sizes = [], []
    for names in lists.values():
        names = (names,) if isinstance(names, str) else tuple(names)
        mask = 0
        for name in names:
            if name not in index:
                raise KeyError(f"unknown node: {name!r}")
            mask |= 1 << index[name]
        masks.append(mask)
        sizes.append(len(names))
    labels = tuple(lists)
    for (a, mask_a), (b, mask_b) in combinations(zip(labels, masks), 2):
        if mask_a & mask_b:
            shared = ", ".join(g._nodes[v] for v in _bits(mask_a & mask_b))
            raise QueryError(f"{a} and {b} overlap: {{{shared}}}")
    for label, mask in zip(labels, masks):
        if not mask and label not in optional:
            raise QueryError(f"{label} must name at least one node")
    for label, mask, size in zip(labels, masks, sizes):
        if mask.bit_count() != size:
            raise QueryError(f"{label} names a node more than once")
    return masks


def _topological_order(g: PdagGraph) -> Optional[list[int]]:
    """Node indices in Kahn's (1962) order, or None on a directed cycle.
    A first-in first-out queue starts with the parentless nodes and takes
    children as they run out of parents, each in index order; undirected
    edges are ignored."""
    pa, ch = g._pa, g._ch
    waiting = [m.bit_count() for m in pa]
    order = [v for v, count in enumerate(waiting) if not count]
    for v in order:  # the list is the queue: appended nodes are visited in turn
        for c in _bits(ch[v]):
            waiting[c] -= 1
            if not waiting[c]:
                order.append(c)
    return order if len(order) == len(pa) else None


def has_directed_cycle(g: PdagGraph) -> bool:
    """True iff the directed sub-relation of ``g`` contains a cycle."""
    return _topological_order(g) is None


def _low(mask: int) -> int:
    """Index of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


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
        if ch[x] & remaining:
            return False
        near = adjacent[x] & remaining
        m = und[x]
        while m:
            low = m & -m
            if near & ~(low | adjacent[low.bit_length() - 1]):
                return False
            m ^= low
        return True

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


def _acyclic_extension(g: PdagGraph) -> Optional[PdagGraph]:
    """:func:`consistent_extension` of ``g``, or None when an acyclic
    ``g`` has none; a ``g`` with a directed cycle is a ValueError."""
    dag = consistent_extension(g)
    # A cyclic graph has no extension, so only then is a second peel needed.
    if dag is None and has_directed_cycle(g):
        raise ValueError("input graph has a directed cycle")
    return dag


def unshielded_collider_triples(g: PdagGraph) -> frozenset[tuple[str, str, str]]:
    """Triples (x, z, y), x < y, with x -> z <- y and x, y non-adjacent."""
    triples = set()
    for z in g.nodes:
        parents = sorted(g.parents(z))
        for i, x in enumerate(parents):
            for y in parents[i + 1 :]:
                if not g.has_edge(x, y):
                    triples.add((x, z, y))
    return frozenset(triples)


# -- text format -------------------------------------------------------

_EDGE_OPS = ("--", "->")


def parse_statements(text: str) -> list[tuple]:
    """Tokenize a graph document into statements.

    Returns a list of ``("node", name, line)`` and ``("edge", u, v, op,
    line)`` tuples where ``op`` is ``"--"`` or ``"->"``.  Raises
    :class:`GraphParseError` with the line number on malformed input.
    """
    statements: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) >= 3 and tokens[1] in _EDGE_OPS:
            u, op, v = tokens[:3]
            for name in (u, v):
                if not NAME_RE.match(name):
                    raise GraphParseError(f"invalid node name {name!r}", lineno)
            if len(tokens) > 3:
                raise GraphParseError("too many tokens on edge statement", lineno)
            statements.append(("edge", u, v, op, lineno))
            continue
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise GraphParseError("node directive takes exactly one name", lineno)
            if not NAME_RE.match(tokens[1]):
                raise GraphParseError(f"invalid node name {tokens[1]!r}", lineno)
            statements.append(("node", tokens[1], lineno))
            continue
        if NAME_RE.match(tokens[0]) and len(tokens) >= 2 and tokens[1] not in _EDGE_OPS:
            if NAME_RE.match(tokens[1]) and len(tokens) == 2:
                raise GraphParseError(f"unknown directive {tokens[0]!r}", lineno)
            raise GraphParseError(f"unknown edge operator {tokens[1]!r}", lineno)
        raise GraphParseError(f"syntax error near {tokens[0]!r}", lineno)
    return statements


# One canonical statement per match, or the rest of the text from the
# first line that is not one (all groups empty); so the matches tile the
# text.
_CANONICAL_LINE = re.compile(rf"node ({_NAME})\n|({_NAME}) -([->]) ({_NAME})\n|(?s:.+)")


def _parse_canonical(text: str) -> Optional[PdagGraph]:
    """The graph of ``text`` when it is in the strict form that
    :func:`serialize_graph` writes (``node NAME``, ``A -- B`` and
    ``A -> B`` lines, single spaces, each line ending in ``\\n``) and
    declares no self-loop and no pair twice; None otherwise."""
    index: dict[str, int] = {}
    edges = []
    for name, u, op, v in _CANONICAL_LINE.findall(text):
        if name:
            index.setdefault(name, len(index))
        elif u:
            edges.append((index.setdefault(u, len(index)), index.setdefault(v, len(index)), op))
        else:
            return None
    pa, ch, und = [0] * len(index), [0] * len(index), [0] * len(index)
    for i, j, op in edges:
        if i == j or (pa[i] | ch[i] | und[i]) >> j & 1:
            return None
        if op == "-":
            und[i] |= 1 << j
            und[j] |= 1 << i
        else:
            ch[i] |= 1 << j
            pa[j] |= 1 << i
    return PdagGraph._from_masks(tuple(index), index, pa, ch, und)


def parse_graph(text: str) -> PdagGraph:
    """Parse the edge-list graph format into a :class:`PdagGraph`.

    One statement per line: ``node NAME``, ``A -- B`` or ``A -> B``; a
    token after an edge is an error.  ``#`` starts a comment; blank lines
    are skipped.  Nodes are recorded in order of first mention; a pair
    may be declared once.

    Two routes give the same graph.  A text in the canonical form of
    :func:`serialize_graph` is read in one regex pass straight into the
    masks (:func:`_parse_canonical`).  Any other text, and any text the
    pass declines (a self-loop, a pair declared twice), goes to the
    per-line parser (:func:`_parse_lines`), which reports every error
    with its line number; it is the oracle the tests sweep the pass
    against.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_lines(text: str) -> PdagGraph:
    """:func:`parse_graph` one statement at a time; a self-loop or a
    second edge on one pair is a GraphParseError with its line."""
    nodes: dict[str, None] = {}
    edges: dict[str, list[tuple[str, str]]] = {"--": [], "->": []}
    pairs: set[tuple[str, str]] = set()
    for st in parse_statements(text):
        if st[0] == "node":
            nodes.setdefault(st[1])
            continue
        _, u, v, op, lineno = st
        if u == v:
            raise GraphParseError(f"self-loop on {u!r}", lineno)
        key = _pair(u, v)
        if key in pairs:
            raise GraphParseError(f"duplicate edge between {key[0]!r} and {key[1]!r}", lineno)
        pairs.add(key)
        nodes.setdefault(u)
        nodes.setdefault(v)
        edges[op].append((u, v))
    return PdagGraph(nodes, directed=edges["->"], undirected=edges["--"])


def serialize_graph(g: PdagGraph) -> str:
    """Canonical text form: node directives in declaration order, then
    edges sorted by (min endpoint, max endpoint).  Round-trips through
    :func:`parse_graph` bit-exactly."""
    lines = [f"node {name}" for name in g.nodes]
    for a, b in sorted(g.skeleton()):
        state = g.edge(a, b)
        if state == "--":
            lines.append(f"{a} -- {b}")
        elif state == "->":
            lines.append(f"{a} -> {b}")
        else:
            lines.append(f"{b} -> {a}")
    return "\n".join(lines) + "\n"
