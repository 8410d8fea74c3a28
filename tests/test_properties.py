"""Properties over arbitrary PDAGs whose directed part is acyclic: closed
under the orientation rules or not, with a DAG extension or not.  The
topological-order property also takes PDAGs with a directed cycle."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdagkit import causal_paths
from mpdagkit.adjustment import adjust_set, forbidden_set, list_adjustment_sets
from mpdagkit.causal_paths import ANCESTORS, b_possible_ancestors, b_possible_descendants
from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.ida import ida_effects, joint_ida_effects, possible_parent_sets
from mpdagkit.meek import (
    OrientationConflictError,
    close_orientations,
    construct_max_pdag,
    is_closed,
    validate_maximal_pdag,
)
from mpdagkit.pdag_core import (
    PdagGraph,
    _topological_order,
    has_directed_cycle,
    parse_graph,
    serialize_graph,
)
from mpdagkit.reference import oracle_reach

from helpers import (
    all_rule_orders,
    brute_force_dags,
    dag_adjustment_criterion,
    enumerated_forbidden_set,
    global_merge_parent_sets,
    name_topological_order,
    recursive_simple_paths,
    scan_close,
    scan_extension,
    subset_listing,
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


@st.composite
def any_pdags(draw) -> PdagGraph:
    """One to six nodes; each pair is non-adjacent, undirected or directed
    either way, so the directed part may hold a cycle."""
    names = draw(st.permutations("ABCDEF"[: draw(st.integers(1, 6))]))
    directed, undirected = [], []
    for a, b in combinations(names, 2):
        state = draw(st.sampled_from((None, "->", "<-", "--")))
        if state == "--":
            undirected.append((a, b))
        elif state is not None:
            directed.append((a, b) if state == "->" else (b, a))
    return PdagGraph(names, directed=directed, undirected=undirected)


def is_maximal(g: PdagGraph) -> bool:
    report = validate_maximal_pdag(g)
    return report.acyclic and report.closed and report.extendable


@SEEDED
@given(any_pdags())
def test_topological_order_matches_the_name_based_sort(g):
    """Kahn's order by masks equals the name-based sort, both None on a
    directed cycle, and every directed edge points forward in it."""
    order, reference = _topological_order(g), name_topological_order(g)
    assert (order is None) == (reference is None) == has_directed_cycle(g)
    if order is None:
        return
    assert [g.nodes[v] for v in order] == reference
    position = {g.nodes[v]: i for i, v in enumerate(order)}
    assert all(position[tail] < position[head] for tail, head in g.directed_edges())


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
    if not is_maximal(g):
        return
    for x in g.nodes:
        assert list(possible_parent_sets(g, [x])) == global_merge_parent_sets(g, [x])


@SEEDED
@given(pdags())
def test_two_node_parent_sets_match_the_merge_oracle(g):
    """Deciding the second node on the graph the first node's picks were
    merged into gives the merge oracle's family, for every ordered pair."""
    if not is_maximal(g):
        return
    for xs in permutations(g.nodes, 2):
        assert list(possible_parent_sets(g, xs)) == global_merge_parent_sets(g, xs)


@SEEDED
@given(pdags())
def test_adjustment_listing_matches_the_subset_oracle(g):
    """Both listings give the subset oracle's sets in its order, for
    every ordered pair of nodes of a maximal input."""
    if not is_maximal(g):
        return
    for x, y in permutations(g.nodes, 2):
        for minimal in (False, True):
            assert list_adjustment_sets(g, x, y, minimal_only=minimal) == subset_listing(
                g, x, y, minimal
            )


@SEEDED
@given(pdags())
def test_possible_reach_matches_the_path_oracle(g):
    """The state search gives the path-enumeration oracle's b-possible
    descendants and ancestors of every node of a maximal input."""
    if not is_maximal(g):
        return
    for v in g.nodes:
        assert b_possible_descendants(g, v) == oracle_reach(g, v)
        assert b_possible_ancestors(g, v) == oracle_reach(g, v, ANCESTORS)


@SEEDED
@given(any_pdags())
def test_simple_paths_match_the_recursive_oracle(g):
    """The explicit-stack enumerator reports the recursive oracle's paths
    in the same order, under the step and back masks of each caller
    (reachability both ways, and blocking, which prunes nothing), from
    every node and from all nodes at once, into any node or the last."""
    pa, ch, und = g._pa, g._ch, g._und
    walks = [
        ([c | u for c, u in zip(ch, und)], ch),
        ([p | u for p, u in zip(pa, und)], pa),
        ([p | c | u for p, c, u in zip(pa, ch, und)], (0,) * len(g)),
    ]
    everyone = (1 << len(g)) - 1
    for step, back in walks:
        for starts in [1 << v for v in range(len(g))] + [everyone]:
            for targets in (~0, 1 << len(g) - 1):
                found = []
                causal_paths._simple_paths(starts, step, back, targets, found.append)
                assert found == recursive_simple_paths(starts, step, back, targets)


@SEEDED
@given(any_pdags())
def test_forbidden_set_matches_the_enumeration(g):
    """Covering the reachable nodes early gives the full enumeration's
    ``nodes`` and ``on_path``, cyclic and non-closed inputs included,
    for every one- and two-node treatment and outcome set."""
    for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for xs in combinations(g.nodes, kx):
            rest = [v for v in g.nodes if v not in xs]
            for ys in combinations(rest, ky):
                assert forbidden_set(g, xs, ys) == enumerated_forbidden_set(g, xs, ys)


@SEEDED
@given(pdags())
def test_adjust_set_exists_exactly_when_some_set_adjusts_in_every_dag(g):
    """On a maximal input, ``adjust_set`` finds a set for (x, y) exactly
    when some subset of the other nodes passes the DAG criterion in
    every DAG of the brute-force class."""
    if not is_maximal(g):
        return
    dags = brute_force_dags(g)
    for x, y in permutations(g.nodes, 2):
        others = [v for v in g.nodes if v not in (x, y)]
        subsets = (zs for k in range(len(others) + 1) for zs in combinations(others, k))
        exists = any(
            all(dag_adjustment_criterion(d, {x}, {y}, zs) for d in dags) for zs in subsets
        )
        assert (adjust_set(g, x, y) is not None) == exists
