"""Properties over arbitrary PDAGs whose directed part is acyclic: closed
under the orientation rules or not, with a DAG extension or not.  The
topological-order property also takes PDAGs with a directed cycle."""

import re
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdagkit import adjustment, causal_paths, meek
from mpdagkit.adjustment import (
    adjust_set,
    check_b_blocking,
    forbidden_set,
    is_amenable,
    list_adjustment_sets,
    satisfies_b_adjustment,
)
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
from mpdagkit.reference import b_blocking_by_enumeration, oracle_reach

from helpers import (
    all_rule_orders,
    brute_force_dags,
    dag_adjustment_criterion,
    enumerated_forbidden_set,
    extension_blocking,
    global_merge_parent_sets,
    maximality_error,
    name_topological_order,
    recursive_simple_paths,
    scan_close,
    scan_extension,
    subset_listing,
    tuple_set_forward_reach,
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
def test_forward_reach_matches_the_tuple_set_search(g):
    """On a maximal input, the per-node-mask state search reaches what
    the tuple-set search it replaced reaches, both ways, from every node
    and from all nodes, with every set of at most two nodes removed."""
    if not is_maximal(g):
        return
    n = len(g)
    everything = (1 << n) - 1
    removals = [0] + [1 << v | 1 << w for v in range(n) for w in range(v, n)]
    for out in (g._ch, g._pa):
        for roots in [1 << v for v in range(n)] + [everything]:
            for removed in removals:
                got = causal_paths._forward_reach(g, roots, out, removed)
                assert got == tuple_set_forward_reach(g, roots, out, removed), (roots, removed)


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
    """On a maximal input, for every one- and two-node treatment and
    outcome set, the walks bound the enumeration's ``on_path`` from both
    sides and ``forbidden_set`` gives its ``nodes`` and ``on_path``; any
    other input raises the maximality check's error."""
    error = maximality_error(g)
    if error is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            forbidden_set(g, g.nodes[0], g.nodes[-1])
        return
    for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for xs in combinations(g.nodes, kx):
            rest = [v for v in g.nodes if v not in xs]
            for ys in combinations(rest, ky):
                want = enumerated_forbidden_set(g, xs, ys)
                assert forbidden_set(g, xs, ys) == want
                sure, bound = adjustment._path_nodes(g, *adjustment._query(g, xs, ys)[:2])
                on_path = sum(1 << g.node_index(v) for v in want.on_path)
                assert sure & ~on_path == 0 and on_path & ~bound == 0


@SEEDED
@given(any_pdags())
def test_blocking_walk_matches_the_extension_and_the_enumeration(g):
    """On a maximal input, for every amenable one- and two-node treatment
    and outcome set and every candidate set outside the forbidden set,
    the walk on ``g`` gives the verdict of d-separation in the extension's
    proper back-door graph and of the path enumeration, and
    ``check_b_blocking`` the extension route's witness."""
    if not is_maximal(g):
        return
    for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for xs in combinations(g.nodes, kx):
            rest = [v for v in g.nodes if v not in xs]
            for ys in combinations(rest, ky):
                x_mask, y_mask, _ = adjustment._query(g, xs, ys)
                if not adjustment._amenability(g, x_mask, y_mask).ok:
                    continue
                taken = x_mask | y_mask | adjustment._forbidden_nodes(g, x_mask, y_mask)
                free = [v for v in range(len(g)) if not taken >> v & 1]
                for k in range(len(free) + 1):
                    for zs in combinations(free, k):
                        z_mask = sum(1 << v for v in zs)
                        want = extension_blocking(g, x_mask, y_mask, z_mask)
                        assert adjustment._blocked_on_g(g, x_mask, y_mask, z_mask) == want.ok
                        names = g._names(z_mask)
                        assert b_blocking_by_enumeration(g, xs, ys, names).ok == want.ok
                        assert check_b_blocking(g, xs, ys, names) == want


# The query entry points behind the maximality gate, each on (g, x, y).
GATED = {
    "b_possible_descendants": lambda g, x, y: b_possible_descendants(g, x),
    "b_possible_ancestors": lambda g, x, y: b_possible_ancestors(g, x),
    "is_amenable": is_amenable,
    "forbidden_set": forbidden_set,
    "satisfies_b_adjustment": satisfies_b_adjustment,
    "check_b_blocking": check_b_blocking,
    "adjust_set": adjust_set,
    "list_adjustment_sets": list_adjustment_sets,
}


@SEEDED
@given(any_pdags())
def test_every_query_entry_point_is_gated(g):
    """Each query entry point raises the first maximality check's error
    on an input that is not a maximal PDAG, and answers on one; only the
    first query on a graph object builds an extension for the check."""
    x, y = g.nodes[0], g.nodes[-1]
    error = maximality_error(g)
    with mock.patch.object(
        meek, "consistent_extension", wraps=meek.consistent_extension
    ) as checks:
        for name, query in GATED.items():
            if x == y and not name.startswith("b_possible"):
                continue  # one node: no treatment and outcome pair
            if error is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                    query(g, x, y)
            elif name == "check_b_blocking" and not satisfies_b_adjustment(g, x, y).forbidden_ok:
                with pytest.raises(ValueError, match="^blocking check requires"):
                    query(g, x, y)
            else:
                query(g, x, y)
    if error is None:
        assert checks.call_count == 1  # the first query's; the others read the mark


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
