import numpy as np
import pytest

from mpdagkit import causal_paths
from mpdagkit.causal_paths import ANCESTORS, b_possible_ancestors, b_possible_descendants
from mpdagkit.extension import enumerate_dags
from mpdagkit.pdag_core import PdagGraph, parse_graph
from mpdagkit.reference import (
    B_NON_CAUSAL,
    B_POSSIBLY_CAUSAL,
    NOT_DEFINITE,
    classify_definite_status,
    classify_path,
    oracle_reach,
)

from conftest import complete_graph, random_mpdag
from helpers import recursive_simple_paths


class TestClassifyPath:
    def test_backward_edge_off_the_path(self, fig1_mpdag):
        result = classify_path(fig1_mpdag, ("B", "C", "D"))
        assert result.verdict == B_NON_CAUSAL
        assert result.witness_nodes == ("B", "D")

    def test_same_path_in_cpdag(self, fig1_cpdag):
        result = classify_path(fig1_cpdag, ("B", "C", "D"))
        assert result.verdict == B_POSSIBLY_CAUSAL
        assert result.witness is None

    def test_reverse_direction_fine_in_both(self, fig1_cpdag, fig1_mpdag):
        for g in (fig1_cpdag, fig1_mpdag):
            assert classify_path(g, ("D", "C", "B")).is_b_possibly_causal

    def test_example_two_sibling_route(self, fig3_g2):
        result = classify_path(fig3_g2, ("X", "V2", "Y"))
        assert result.verdict == B_NON_CAUSAL
        assert result.witness_nodes == ("X", "Y")

    def test_witness_indices_valid(self, fig3_g2):
        result = classify_path(fig3_g2, ("X", "V2", "Y"))
        i, j = result.witness
        assert 0 <= i < j < 3


class TestReachability:
    def test_example_one_cpdag(self, fig1_cpdag):
        assert b_possible_descendants(fig1_cpdag, "B").nodes == {"A", "B", "C", "D"}

    def test_example_one_mpdag(self, fig1_mpdag):
        assert b_possible_descendants(fig1_mpdag, "B").nodes == {"A", "B", "C"}

    def test_example_one_other_nodes_unchanged(self, fig1_cpdag, fig1_mpdag):
        for node in "ACD":
            before = b_possible_descendants(fig1_cpdag, node).nodes
            after = b_possible_descendants(fig1_mpdag, node).nodes
            assert before == after

    def test_isolated_node_reflexive(self):
        g = parse_graph("A -- B\nnode Z")
        assert b_possible_descendants(g, "Z").nodes == {"Z"}
        assert b_possible_ancestors(g, "Z").nodes == {"Z"}

    def test_ancestors_example_two(self, fig3_g1):
        assert b_possible_ancestors(fig3_g1, "Y").nodes == {"Y", "X", "V1", "V2"}

    def test_ancestors_figure_one(self, fig1_mpdag):
        assert b_possible_ancestors(fig1_mpdag, "B").nodes == {"A", "B", "C", "D"}

    def test_unknown_node(self, fig1_cpdag):
        with pytest.raises(KeyError, match="unknown node"):
            b_possible_descendants(fig1_cpdag, "Q")

    def test_query_contained_in_result(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            g, _ = random_mpdag(rng, 7)
            xs = {g.nodes[int(rng.integers(len(g.nodes)))]}
            reach = b_possible_descendants(g, xs)
            assert xs <= reach.nodes
            assert reach.query == frozenset(xs)

    def test_union_over_singletons(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g, _ = random_mpdag(rng, 7)
            size = int(rng.integers(1, len(g.nodes) + 1))
            xs = set(rng.choice(g.nodes, size=size, replace=False))
            combined = b_possible_descendants(g, xs).nodes
            union = set()
            for x in xs:
                union |= b_possible_descendants(g, x).nodes
            assert combined == union


class TestOracleAgreement:
    def test_example_one_agreement(self, fig1_cpdag, fig1_mpdag):
        for g in (fig1_cpdag, fig1_mpdag):
            for node in g.nodes:
                assert (
                    oracle_reach(g, node).nodes
                    == b_possible_descendants(g, node).nodes
                )

    def test_random_sweep_both_directions(self):
        rng = np.random.default_rng(77)
        for _ in range(120):
            g, _ = random_mpdag(rng, 7)
            for node in g.nodes:
                assert (
                    b_possible_descendants(g, node).nodes
                    == oracle_reach(g, node).nodes
                )
                assert (
                    b_possible_ancestors(g, node).nodes
                    == oracle_reach(g, node, ANCESTORS).nodes
                )

    def test_step_budget_not_node_count(self):
        """A cheap 13-node query and a 3,000-node chain answer; K11 from
        one node passes the enumerator's step budget."""
        g = PdagGraph([f"N{i}" for i in range(13)])
        assert oracle_reach(g, "N0").nodes == {"N0"}
        chain = [f"N{i}" for i in range(3000)]
        g = PdagGraph(chain, directed=list(zip(chain, chain[1:])))
        assert oracle_reach(g, "N0").nodes == set(chain)
        assert oracle_reach(g, "N2999", ANCESTORS).nodes == set(chain)
        with pytest.raises(ValueError, match="budget of 1,000,000 steps"):
            oracle_reach(complete_graph(11), "V0")

    def test_budget_counts_path_extensions(self, monkeypatch):
        """K5 has 64 simple paths out of V0: a budget of 64 answers and
        one of 63 stops the walk."""
        monkeypatch.setattr(causal_paths, "PATH_STEP_BUDGET", 64)
        assert len(oracle_reach(complete_graph(5), "V0").nodes) == 5
        monkeypatch.setattr(causal_paths, "PATH_STEP_BUDGET", 63)
        with pytest.raises(ValueError, match="budget of 63 steps"):
            oracle_reach(complete_graph(5), "V0")

    def test_a_true_value_from_found_ends_the_walk(self, monkeypatch):
        """The first path out of V0 in K5 takes one step: a ``found`` that
        returns True there ends the walk inside a budget of 1, and one
        that returns None walks on past it."""
        monkeypatch.setattr(causal_paths, "PATH_STEP_BUDGET", 1)
        g = complete_graph(5)
        step = [c | u for c, u in zip(g._ch, g._und)]
        found = []
        causal_paths._simple_paths(1, step, g._ch, ~0, lambda p: found.append(p) or True)
        assert found == [(0, 1)]
        with pytest.raises(ValueError, match="budget of 1 steps"):
            causal_paths._simple_paths(1, step, g._ch, ~0, found.append)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_simple_paths_match_the_recursive_oracle_on_complete_graphs(self, n):
        g = complete_graph(n)
        step = [c | u for c, u in zip(g._ch, g._und)]
        found = []
        causal_paths._simple_paths(1, step, g._ch, ~0, found.append)
        assert found == recursive_simple_paths(1, step, g._ch, ~0)

    def test_unknown_direction(self, fig1_cpdag):
        with pytest.raises(ValueError, match="direction"):
            oracle_reach(fig1_cpdag, "B", "sideways")


def simple_paths(g, start):
    """All simple paths (length >= 1) out of start, any edge types."""
    paths = []

    def extend(path, seen):
        for w in sorted(g.adjacent(path[-1])):
            if w in seen:
                continue
            path.append(w)
            seen.add(w)
            paths.append(tuple(path))
            extend(path, seen)
            seen.discard(w)
            path.pop()

    extend([start], {start})
    return paths


class TestStructuralProperties:
    def test_dag_descendants_are_sound(self):
        # every ordinary descendant in any member DAG stays possible
        rng = np.random.default_rng(101)
        for _ in range(25):
            g, _ = random_mpdag(rng, 6)
            reach = {x: b_possible_descendants(g, x).nodes for x in g.nodes}
            for dag in enumerate_dags(g):
                for x in dag.nodes:
                    descended = {x}
                    stack = [x]
                    while stack:
                        v = stack.pop()
                        for c in dag.children(v):
                            if c not in descended:
                                descended.add(c)
                                stack.append(c)
                    assert descended <= reach[x]

    def test_definite_status_paths_need_only_consecutive_checks(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            g, _ = random_mpdag(rng, 6)
            for start in g.nodes:
                for path in simple_paths(g, start):
                    if NOT_DEFINITE in classify_definite_status(g, path):
                        continue
                    consecutive_ok = not any(
                        g.is_directed(b, a) for a, b in zip(path, path[1:])
                    )
                    assert classify_path(g, path).is_b_possibly_causal == consecutive_ok

    def test_directed_edge_forces_directed_suffix(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            g, _ = random_mpdag(rng, 6)
            for start in g.nodes:
                for path in simple_paths(g, start):
                    if NOT_DEFINITE in classify_definite_status(g, path):
                        continue
                    if not classify_path(g, path).is_b_possibly_causal:
                        continue
                    steps = list(zip(path, path[1:]))
                    directed = [g.is_directed(u, v) for u, v in steps]
                    if True in directed:
                        first = directed.index(True)
                        assert all(directed[first:])
