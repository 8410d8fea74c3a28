"""Graphs the library derives from another graph skip validation, so
check them against a rebuild through the public constructor, check that
deriving them never goes back to node names, and check that it never
changes the graph they are derived from."""

from itertools import combinations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mpdagkit import pdag_core
from mpdagkit.adjustment import adjust_set, list_adjustment_sets
from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.ida import _accepted, joint_ida_effects, possible_parent_sets
from mpdagkit.meek import (
    OrientationConflictError,
    close_orientations,
    construct_max_pdag,
    cpdag_of,
)
from mpdagkit.pdag_core import PdagGraph

from conftest import random_mpdag
from test_properties import SEEDED, pdags


def corpus(count, seed):
    """``count`` random maximal PDAGs plus K3-K7, each with a DAG it
    represents."""
    rng = np.random.default_rng(seed)
    graphs = [random_mpdag(rng, 8, p_min=2) for _ in range(count)]
    for n in range(3, 8):
        names = [f"K{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        graphs.append((PdagGraph(names, undirected=pairs), PdagGraph(names, directed=pairs)))
    return rng, graphs


def assert_sound(h: PdagGraph, source: PdagGraph) -> None:
    """``h`` shares ``source``'s node index, equals and hashes like its
    public rebuild, and its masks describe a simple graph."""
    assert h._index is source._index
    rebuilt = PdagGraph(h.nodes, h.directed_edges(), h.undirected_edges())
    assert h == rebuilt
    assert hash(h) == hash(rebuilt)
    n = len(h)
    for i in range(n):
        pa, ch, und = h._pa[i], h._ch[i], h._und[i]
        assert not (pa & ch or pa & und or ch & und)
        assert not (pa | ch | und) >> i & 1
        assert not (pa | ch | und) >> n
        for j in range(n):
            assert pa >> j & 1 == h._ch[j] >> i & 1
            assert und >> j & 1 == h._und[j] >> i & 1


def true_requirements(rng, g, dag):
    """A random half of the undirected edges of ``g``, oriented as in ``dag``."""
    return [
        (a, b) if dag.is_directed(a, b) else (b, a)
        for a, b in g.undirected_edges()
        if rng.random() < 0.5
    ]


def test_derived_graphs_equal_their_public_rebuild():
    rng, graphs = corpus(300, seed=2024)
    for g, dag in graphs:
        closed = close_orientations(g)
        assert_sound(closed, g)
        merged = construct_max_pdag(g, true_requirements(rng, g, dag))
        assert merged.ok
        assert_sound(merged.graph, g)
        ext = consistent_extension(g)
        assert_sound(ext, g)
        for member in enumerate_dags(g):
            assert_sound(member, g)
        x, y = g.nodes[0], g.nodes[-1]
        # A later intervention node is decided on the graph that its prefix
        # query merges, so the prefixes cover every graph the route builds.
        xs = tuple(dict.fromkeys((x, y, g.nodes[len(g) // 2])))
        for k in range(1, len(xs) + 1):
            pairs = list(_accepted(g, xs[:k], g, merge=True))
            assert pairs
            for _, merged in pairs:
                assert_sound(merged, g)


class CountingNames:
    """Stands in for ``pdag_core.NAME_RE`` and counts name checks."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def match(self, name):
        self.calls += 1
        return self.real.match(name)


def test_derived_graphs_check_no_names(monkeypatch):
    rng, graphs = corpus(40, seed=7)
    counter = CountingNames(pdag_core.NAME_RE)
    monkeypatch.setattr(pdag_core, "NAME_RE", counter)
    for g, dag in graphs:
        close_orientations(g)
        assert construct_max_pdag(g, true_requirements(rng, g, dag)).ok
        consistent_extension(g)
        adjust_set(g, g.nodes[0], g.nodes[-1])
    assert counter.calls == 0


def test_copy_has_fresh_masks_without_name_lookups(monkeypatch):
    _, graphs = corpus(20, seed=5)

    def by_name(self, v):
        raise AssertionError("name lookup while copying a graph")

    for method in ("parents", "children", "siblings", "adjacent", "node_index"):
        monkeypatch.setattr(PdagGraph, method, by_name)
    copies = [(g, g._copy()) for g, _ in graphs]
    monkeypatch.undo()
    for g, copy in copies:
        assert copy == g
        assert_sound(copy, g)
        assert copy._nodes is g._nodes
        for mine, source in zip((copy._pa, copy._ch, copy._und), (g._pa, g._ch, g._und)):
            assert mine is not source


def masks(g: PdagGraph):
    return list(g._pa), list(g._ch), list(g._und)


def attempt(call, *args):
    """``call(*args)``, or None when it refuses its input."""
    try:
        return call(*args)
    except (ValueError, OrientationConflictError):
        return None


def seeded_mpdag(seed: int) -> PdagGraph:
    return random_mpdag(np.random.default_rng(seed), 6)[0]


@SEEDED
@given(st.one_of(pdags(), st.integers(0, 10_000).map(seeded_mpdag)))
def test_deriving_a_graph_leaves_its_input_unchanged(g):
    """Every entry point that orients a copy of ``g`` leaves ``g``'s masks
    as they were, on success and on refusal, and returns sound graphs."""
    before = masks(g)
    ext = consistent_extension(g)
    reqs = [
        (a, b) if ext is None or ext.is_directed(a, b) else (b, a)
        for a, b in g.undirected_edges()
    ]
    reversed_edge = [(b, a) for a, b in g.directed_edges()[:1]]
    returned = [ext, attempt(close_orientations, g), attempt(cpdag_of, g)]
    returned += enumerate_dags(g).dags
    for requirements in (reqs, reqs + reversed_edge):
        outcome = attempt(construct_max_pdag, g, requirements)
        returned.append(outcome and outcome.graph)
    if ext is not None:
        ext_before = masks(ext)
        returned.append(cpdag_of(ext))
        assert masks(ext) == ext_before
    y = g.nodes[-1]
    xs = list(g.nodes[:-1])[:2]
    if xs:
        attempt(possible_parent_sets, g, xs)
        data = np.random.default_rng(0).standard_normal((len(g) + 2, len(g)))
        attempt(joint_ida_effects, g, xs, y, data)
        attempt(adjust_set, g, xs[0], y)
        attempt(list_adjustment_sets, g, xs[0], y)
    assert masks(g) == before
    for h in returned:
        if h is not None:
            assert_sound(h, g)
