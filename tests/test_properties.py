"""Properties over arbitrary PDAGs whose directed part is acyclic: closed
under the orientation rules or not, with a DAG extension or not."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.ida import ida_effects, joint_ida_effects, possible_parent_sets
from mpdagkit.meek import (
    OrientationConflictError,
    close_orientations,
    construct_max_pdag,
    is_closed,
    validate_maximal_pdag,
)
from mpdagkit.pdag_core import PdagGraph, has_directed_cycle, parse_graph, serialize_graph

from helpers import (
    all_rule_orders,
    brute_force_dags,
    global_merge_parent_sets,
    scan_close,
    scan_extension,
)

# Seeded and stateless, so every tier-1 run checks the same examples.
SEEDED = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@st.composite
def pdags(draw) -> PdagGraph:
    """One to five nodes, named in drawn declaration order; each pair is
    non-adjacent, undirected or directed along a drawn topological order."""
    n = draw(st.integers(1, 5))
    names = draw(st.permutations("ABCDE"[:n]))
    rank = draw(st.permutations(range(n)))
    directed, undirected = [], []
    for i, j in combinations(range(n), 2):
        state = draw(st.sampled_from((None, "->", "--")))
        a, b = (names[i], names[j]) if rank[i] < rank[j] else (names[j], names[i])
        if state == "->":
            directed.append((a, b))
        elif state == "--":
            undirected.append((a, b))
    return PdagGraph(names, directed=directed, undirected=undirected)


@SEEDED
@given(pdags())
def test_enumerate_dags_lists_the_brute_force_class_once(g):
    listed = enumerate_dags(g).dags
    assert len(set(listed)) == len(listed)
    assert set(listed) == set(brute_force_dags(g))


@SEEDED
@given(pdags())
def test_consistent_extension_matches_the_restart_scan(g):
    ext, oracle = consistent_extension(g), scan_extension(g)
    assert (ext is None) == (oracle is None)
    if ext is not None:
        assert (ext._pa, ext._ch, ext._und) == (oracle._pa, oracle._ch, oracle._und)


@SEEDED
@given(pdags())
def test_parse_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@SEEDED
@given(pdags())
def test_closure_is_idempotent(g):
    try:
        closed = close_orientations(g)
    except OrientationConflictError:
        assert consistent_extension(g) is None
        return
    assert is_closed(closed)
    assert close_orientations(closed) == closed


@SEEDED
@given(pdags())
def test_closure_is_confluent_on_extendable_input(g):
    """Every extendable input closes to the restart scan's result under
    all 24 rule orders; every other input is refused before closing."""
    if consistent_extension(g) is None:
        expected = ValueError if has_directed_cycle(g) else OrientationConflictError
        with pytest.raises(expected):
            close_orientations(g)
        return
    closed = close_orientations(g)
    for order in all_rule_orders():
        assert scan_close(g, order) == closed


# The three ways to fail the maximality check, in the order they are tested.
NOT_MAXIMAL = "directed cycle|not closed|no consistent DAG extension"


@SEEDED
@given(pdags())
def test_inputs_with_no_extension_are_rejected_at_every_boundary(g):
    # close_orientations is covered by the confluence property above.
    if consistent_extension(g) is not None:
        return
    x = g.nodes[0]
    with pytest.raises(ValueError, match=NOT_MAXIMAL):
        construct_max_pdag(g, [])
    with pytest.raises(ValueError, match=NOT_MAXIMAL):
        possible_parent_sets(g, [x])
    data = np.random.default_rng(0).standard_normal((len(g) + 2, len(g)))
    y = g.nodes[-1]
    with pytest.raises(ValueError, match=NOT_MAXIMAL):
        ida_effects(g, x, y, data)
    with pytest.raises(ValueError, match=NOT_MAXIMAL):
        joint_ida_effects(g, [x], y, data)


@SEEDED
@given(pdags())
def test_one_node_parent_sets_match_the_merge_oracle(g):
    """The local rule for one intervention node gives the merge
    oracle's family entry for entry, on every node of a maximal input."""
    report = validate_maximal_pdag(g)
    if not (report.acyclic and report.closed and report.extendable):
        return
    for x in g.nodes:
        assert list(possible_parent_sets(g, [x])) == global_merge_parent_sets(g, [x])


@SEEDED
@given(pdags())
def test_two_node_parent_sets_match_the_merge_oracle(g):
    """Deciding the second node on the graph the first node's picks were
    merged into gives the merge oracle's family, for every ordered pair."""
    report = validate_maximal_pdag(g)
    if not (report.acyclic and report.closed and report.extendable):
        return
    for xs in permutations(g.nodes, 2):
        assert list(possible_parent_sets(g, xs)) == global_merge_parent_sets(g, xs)
