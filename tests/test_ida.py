import math
import tracemalloc

import numpy as np
import pytest

from mpdagkit import ida
from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.ida import (
    EffectMultiset,
    _least_squares,
    ida_effects,
    joint_ida_effects,
    possible_parent_sets,
)
from mpdagkit.meek import construct_max_pdag, cpdag_of
from mpdagkit.pdag_core import PdagGraph, QueryError, parse_graph
from mpdagkit.sem_sim import SemModel, random_dag, sample_data, true_total_effect

from conftest import random_mpdag
from helpers import fit_coefficient_matrix, global_merge_combinations, global_merge_parent_sets

FOUR_CYCLE = PdagGraph(
    "ABCD", undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]
)


def regression_se(data, col_x, col_y, col_extra):
    """Standard error of the treatment coefficient in one OLS fit."""
    n = data.shape[0]
    design = np.column_stack(
        [np.ones(n), data[:, col_x]] + [data[:, c] for c in col_extra]
    )
    response = data[:, col_y]
    beta, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    resid = response - design @ beta
    sigma2 = float(resid @ resid) / (n - design.shape[1])
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return math.sqrt(cov[1, 1])


class TestPossibleParentSets:
    def test_single_intervention_example(self, fig1_mpdag):
        family = possible_parent_sets(fig1_mpdag, ["C"])
        assert family.tuples() == [
            (frozenset(),),
            (frozenset({"D"}),),
            (frozenset({"B", "D"}),),
        ]

    def test_local_variant_counterexample_excluded(self, fig1_mpdag):
        tuples = {t[0] for t in possible_parent_sets(fig1_mpdag, ["C"]).tuples()}
        assert frozenset({"B"}) not in tuples

    def test_joint_example(self, fig1_mpdag):
        family = possible_parent_sets(fig1_mpdag, ["C", "D"])
        assert sorted(
            (tuple(sorted(a)), tuple(sorted(b))) for a, b in family.tuples()
        ) == [
            ((), ("C",)),
            (("B", "D"), ()),
            (("B", "D"), ("A",)),
            (("D",), ()),
        ]

    def test_cpdag_single_intervention(self, fig1_cpdag):
        tuples = {t[0] for t in possible_parent_sets(fig1_cpdag, ["C"]).tuples()}
        assert tuples == {
            frozenset(),
            frozenset({"B"}),
            frozenset({"D"}),
            frozenset({"B", "D"}),
        }

    def test_tuples_distinct(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            g, _ = random_mpdag(rng, 6)
            nodes = list(g.nodes)
            k = int(rng.integers(1, 3))
            xs = list(rng.choice(nodes, size=min(k, len(nodes)), replace=False))
            family = possible_parent_sets(g, xs)
            assert len(set(family.tuples())) == len(family)

    def test_matches_global_enumeration(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            g, _ = random_mpdag(rng, 6)
            nodes = list(g.nodes)
            k = int(rng.integers(1, 3))
            xs = list(rng.choice(nodes, size=min(k, len(nodes)), replace=False))
            semi_local = set(possible_parent_sets(g, xs).tuples())
            global_view = {
                tuple(frozenset(d.parents(x)) for x in xs)
                for d in enumerate_dags(g)
            }
            assert semi_local == global_view

    def test_background_knowledge_never_grows_family(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            g, dag = random_mpdag(rng, 6)
            reqs = [
                (a, b) if dag.is_directed(a, b) else (b, a)
                for a, b in g.undirected_edges()
                if rng.random() < 0.5
            ]
            refined = construct_max_pdag(g, reqs).graph
            x = g.nodes[0]
            assert set(possible_parent_sets(refined, [x]).tuples()) <= set(
                possible_parent_sets(g, [x]).tuples()
            )

    def test_bare_string_is_one_node(self):
        g = complete_graph(4)
        assert list(possible_parent_sets(g, "V1")) == list(possible_parent_sets(g, ["V1"]))
        assert possible_parent_sets(g, "V1").interventions == ("V1",)
        # Not the joint query for A and B.
        with pytest.raises(KeyError, match="unknown node: 'AB'"):
            possible_parent_sets(parse_graph("A -- B\nB -- C"), "AB")

    def test_rejects_duplicates_and_unknowns(self, fig1_mpdag):
        with pytest.raises(QueryError, match="^xs names a node more than once$"):
            possible_parent_sets(fig1_mpdag, ["C", "C"])
        with pytest.raises(KeyError, match="unknown"):
            possible_parent_sets(fig1_mpdag, ["Q"])

    def test_rejects_non_maximal_input(self):
        with pytest.raises(ValueError, match="not closed"):
            possible_parent_sets(parse_graph("A -> B\nB -- C"), ["C"])

    def test_rejects_no_interventions(self):
        g = parse_graph("A -- B\nB -- C")
        data = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(QueryError, match="^xs must name at least one node$"):
            possible_parent_sets(g, [])
        with pytest.raises(QueryError, match="^xs must name at least one node$"):
            joint_ida_effects(g, [], "C", data)

    def test_rejects_input_with_no_extension(self):
        with pytest.raises(ValueError, match="no consistent DAG extension"):
            possible_parent_sets(FOUR_CYCLE, ["A"])


def complete_graph(n):
    names = [f"V{i}" for i in range(1, n + 1)]
    return PdagGraph(
        names, undirected=[(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    )


def sem_mpdag(rng, p, edge_prob=0.8):
    """A maximal PDAG from a random linear SEM on ``p`` nodes: the
    CPDAG of the SEM's DAG with 30 % of its undirected edges oriented as
    in the DAG, and its nodes declared in a shuffled order.  Returns the
    graph and the SEM."""
    model = random_dag(p, edge_prob * (p - 1), rng)
    cpdag = cpdag_of(model.dag)
    reqs = [
        (a, b) if model.dag.is_directed(a, b) else (b, a)
        for a, b in cpdag.undirected_edges()
        if rng.random() < 0.3
    ]
    g = construct_max_pdag(cpdag, reqs).graph
    names = [g.nodes[i] for i in rng.permutation(len(g))]
    return PdagGraph(names, directed=g.directed_edges(), undirected=g.undirected_edges()), model


class TestParentSetOracle:
    """Production parent sets against one global merge per sibling subset."""

    @staticmethod
    def assert_matches(g, xs):
        family = possible_parent_sets(g, xs)
        assert list(family) == global_merge_parent_sets(g, xs)
        return len(family)

    @staticmethod
    def sweep_joint(graphs, rng):
        """Two random two-node and two random three-node queries on each
        graph; returns the numbers of queries and of entries compared."""
        queries = entries = 0
        for g in graphs:
            for k in (2, 2, 3, 3):
                xs = [str(x) for x in rng.choice(g.nodes, size=k, replace=False)]
                entries += TestParentSetOracle.assert_matches(g, xs)
                queries += 1
        return queries, entries

    @staticmethod
    def sweep_every_node(graphs):
        """Each node of each graph as the one intervention; returns the
        numbers of queries and of parent sets compared."""
        queries = sets = 0
        for g in graphs:
            for x in g.nodes:
                sets += TestParentSetOracle.assert_matches(g, [x])
                queries += 1
        return queries, sets

    def test_random_mpdags(self):
        rng = np.random.default_rng(67)
        compared = 0
        for _ in range(300):
            g, _ = random_mpdag(rng, 10)
            nodes = list(g.nodes)
            for k in (1, 2):
                xs = [str(x) for x in rng.choice(nodes, size=k, replace=False)]
                self.assert_matches(g, xs)
                compared += 1
        assert compared == 600

    def test_joint_rule_on_random_mpdags(self):
        rng = np.random.default_rng(83)
        graphs = [random_mpdag(rng, 7, p_min=4)[0] for _ in range(300)]
        assert self.sweep_joint(graphs, rng) == (1200, 5868)

    def test_joint_rule_on_dense_mpdags(self):
        rng = np.random.default_rng(89)
        graphs = [sem_mpdag(rng, int(rng.integers(4, 8)))[0] for _ in range(150)]
        assert self.sweep_joint(graphs, rng) == (600, 2714)

    def test_local_rule_on_random_mpdags(self):
        rng = np.random.default_rng(71)
        graphs = [random_mpdag(rng, 11, p_min=4)[0] for _ in range(600)]
        assert self.sweep_every_node(graphs) == (4461, 9329)

    def test_local_rule_on_dense_mpdags(self):
        rng = np.random.default_rng(73)
        graphs = [sem_mpdag(rng, int(rng.integers(4, 13)))[0] for _ in range(200)]
        assert self.sweep_every_node(graphs) == (1602, 3474)

    def test_complete_graphs(self):
        for n in range(3, 9):
            g = complete_graph(n)
            # every sibling subset of every node in K_n is a possible parent set
            assert self.sweep_every_node([g]) == (n, n << n - 1)
            self.assert_matches(g, [g.nodes[-1], g.nodes[0]])
            if n < 7:
                self.assert_matches(g, [g.nodes[-1], g.nodes[0], g.nodes[1]])

    def test_star_and_paired_hub(self):
        leaves = [f"L{i}" for i in range(1, 11)]
        star = PdagGraph(["H"] + leaves, undirected=[("H", v) for v in leaves])
        pairs = list(zip(leaves[::2], leaves[1::2]))
        hub = PdagGraph(
            ["H"] + leaves, undirected=[("H", v) for v in leaves] + pairs
        )
        # non-adjacent leaves never share the centre as a common child
        assert self.assert_matches(star, ["H"]) == 11
        assert self.assert_matches(hub, ["H"]) == 16
        for g in (star, hub):
            self.assert_matches(g, ["L1"])
            self.assert_matches(g, ["H", "L2"])
            self.assert_matches(g, ["L3", "H"])
            self.assert_matches(g, ["L3", "H", "L4"])
            self.assert_matches(g, ["L5", "L6", "H"])


class TestIdaEffects:
    def test_single_edge_recovers_weight(self):
        g = parse_graph("X -> Y")
        model = SemModel(g, {("X", "Y"): 2.0}, {"X": 1.0, "Y": 1.0})
        data = sample_data(model, 10_000, np.random.default_rng(4))
        effects = ida_effects(g, "X", "Y", data)
        assert len(effects) == 1
        se = regression_se(data, 0, 1, [])
        assert abs(effects.values[0] - 2.0) <= 3 * se

    def test_outcome_in_parent_set_is_exact_zero(self):
        g = parse_graph("Y -> X")
        data = np.random.default_rng(2).standard_normal((50, 2))
        effects = ida_effects(g, "X", "Y", data, columns=("Y", "X"))
        assert effects.values == (0.0,)

    def test_true_dag_gives_single_tuple(self, fig1b_dags):
        dag = fig1b_dags[0]
        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 4))
        effects = ida_effects(dag, "C", "A", data, columns=tuple(dag.nodes))
        assert len(effects) == 1

    def test_requires_enough_samples(self, fig1_mpdag):
        with pytest.raises(ValueError, match="samples"):
            ida_effects(fig1_mpdag, "C", "A", np.zeros((3, 4)))

    def test_requires_matching_columns(self, fig1_mpdag):
        data = np.zeros((10, 4))
        with pytest.raises(ValueError, match="columns"):
            ida_effects(fig1_mpdag, "C", "A", data, columns=("A", "B", "C", "Q"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_data(self, fig1_mpdag, bad):
        data = np.random.default_rng(2).standard_normal((10, 4))
        data[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ida_effects(fig1_mpdag, "C", "A", data)
        with pytest.raises(ValueError, match="finite"):
            joint_ida_effects(fig1_mpdag, ["C", "B"], "A", data)

    def test_unknown_outcome_is_an_unknown_node(self, fig1_mpdag):
        data = np.random.default_rng(2).standard_normal((10, 4))
        with pytest.raises(KeyError, match="unknown node: 'Q'"):
            ida_effects(fig1_mpdag, "C", "Q", data)
        with pytest.raises(KeyError, match="unknown node: 'Q'"):
            joint_ida_effects(fig1_mpdag, ["C", "B"], "Q", data)

    def test_rejects_input_with_no_extension(self):
        data = np.random.default_rng(2).standard_normal((10, 4))
        with pytest.raises(ValueError, match="no consistent DAG extension"):
            ida_effects(FOUR_CYCLE, "A", "C", data)
        with pytest.raises(ValueError, match="no consistent DAG extension"):
            joint_ida_effects(FOUR_CYCLE, ["A", "B"], "C", data)

    def test_rejects_data_that_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="data must be a 2-d matrix with 2 columns"):
            ida_effects(parse_graph("X -> Y"), "X", "Y", np.arange(10.0))

    def test_singular_design_reported_as_nan(self):
        g = parse_graph("X -> Y")
        rng = np.random.default_rng(23)
        data = np.column_stack([np.zeros(50), rng.standard_normal(50)])
        effects = ida_effects(g, "X", "Y", data)
        assert math.isnan(effects.values[0])

    def test_effects_equal_regressions_over_the_oracle_family(self):
        """Every effect is bit-identical to the fit over the merge
        oracle's parent set, with x first and the parents in node order."""
        rng = np.random.default_rng(79)
        compared = 0
        for _ in range(200):
            p = int(rng.integers(3, 10))
            g, model = sem_mpdag(rng, p, edge_prob=float(rng.uniform(0.3, 0.9)))
            data = sample_data(model, 60, rng)
            columns = model.dag.nodes
            col = {name: j for j, name in enumerate(columns)}
            for x in g.nodes:
                y = str(rng.choice([v for v in g.nodes if v != x]))
                expected = [
                    0.0
                    if y in entry.parents[0]
                    else float(
                        _least_squares(
                            data, col, y, [x] + sorted(entry.parents[0], key=g.node_index)
                        )[0]
                    )
                    for entry in global_merge_parent_sets(g, [x])
                ]
                got = ida_effects(g, x, y, data, columns=columns).values
                assert len(got) == len(expected)
                assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, expected))
                compared += len(got)
        assert compared >= 1000

    def test_truth_lands_in_the_multiset(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(20):
            model = random_dag(5, 2.0, rng)
            dag = model.dag
            cpdag = cpdag_of(dag)
            x, y = "V1", "V5"
            if y in dag.parents(x):
                continue
            data = sample_data(model, 20_000, rng)
            effects = ida_effects(cpdag, x, y, data)
            truth = float(true_total_effect(model, x, y)[0])
            true_parents = frozenset(dag.parents(x))
            matched = [
                value
                for entry, value in zip(effects.family, effects.values)
                if entry.parents[0] == true_parents
            ]
            assert len(matched) == 1
            assert abs(matched[0] - truth) < 0.08
            hits += 1
        assert hits >= 15


class TestJointEffects:
    def test_chain_path_tracing(self):
        g = parse_graph("X1 -> X2\nX2 -> Y")
        model = SemModel(
            g, {("X1", "X2"): 0.7, ("X2", "Y"): -0.5}, dict.fromkeys(g.nodes, 1.0)
        )
        data = sample_data(model, 50_000, np.random.default_rng(7))
        effects = joint_ida_effects(g, ["X1", "X2"], "Y", data)
        assert len(effects) == 1
        vec = effects.values[0]
        assert abs(vec[0] - 0.7 * -0.5) < 0.02
        assert abs(vec[1] - -0.5) < 0.02

    def test_joint_family_size_on_figure_one(self, fig1_mpdag, fig1b_dags):
        # data simulated from the first class member
        dag = fig1b_dags[0]
        coeffs = {e: 0.8 for e in dag.directed_edges()}
        model = SemModel(dag, coeffs, dict.fromkeys(dag.nodes, 1.0))
        data = sample_data(model, 2_000, np.random.default_rng(11))
        effects = joint_ida_effects(
            fig1_mpdag, ["C", "D"], "A", data, columns=tuple(dag.nodes)
        )
        assert len(effects) == 4
        assert all(len(vec) == 2 for vec in effects.values)
        assert all(np.isfinite(vec).all() for vec in effects.values)

    def test_zero_effect_when_no_possible_path(self, fig3_g2):
        # under this orientation the outcome cannot descend from X
        weights = {("Y", "X"): 0.9, ("X", "V1"): 0.7, ("X", "V2"): 0.4, ("Y", "V2"): 0.2}
        nodes = ("Y", "X", "V1", "V2")
        model = SemModel(PdagGraph(nodes, directed=weights), weights, dict.fromkeys(nodes, 1.0))
        data = sample_data(model, 30_000, np.random.default_rng(13))
        effects = joint_ida_effects(
            fig3_g2, ["X"], "Y", data, columns=tuple(model.dag.nodes)
        )
        assert len(effects) >= 1
        for vec in effects.values:
            assert abs(vec[0]) < 0.025

    def test_effects_equal_fits_over_the_oracle_graphs(self):
        """Every joint effect is bit-identical to path tracing through the
        fitted extension of the graph the merge oracle built for its entry."""
        rng = np.random.default_rng(97)
        compared = 0
        for _ in range(300):
            p = int(rng.integers(4, 9))
            g, model = sem_mpdag(rng, p, edge_prob=float(rng.uniform(0.3, 0.9)))
            data = sample_data(model, 60, rng)
            columns = model.dag.nodes
            col = {name: j for j, name in enumerate(columns)}
            picked = rng.choice(g.nodes, size=int(rng.integers(3, 5)), replace=False)
            *xs, y = (str(v) for v in picked)
            expected = []
            for _, merged in global_merge_combinations(g, xs):
                B = fit_coefficient_matrix(consistent_extension(merged), data, col)
                totals = np.linalg.inv(np.eye(p) - B)
                expected.append(tuple(float(totals[g.node_index(x), g.node_index(y)]) for x in xs))
            effects = joint_ida_effects(g, xs, y, data, columns=columns)
            assert list(effects.family) == global_merge_parent_sets(g, xs)
            assert len(effects.values) == len(expected)
            for got, want in zip(effects.values, expected):
                assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want))
            compared += len(expected)
        assert compared >= 1000

    def test_each_distinct_regression_is_fitted_once(self, monkeypatch):
        """A joint query on K5 calls lstsq once per distinct (node, parent
        set) pair among the extensions of the oracle's merged graphs."""
        g = complete_graph(5)
        xs, y = ["V2", "V4"], "V1"
        data = np.random.default_rng(11).standard_normal((40, 5))
        extensions = [consistent_extension(m) for _, m in global_merge_combinations(g, xs)]
        distinct = {(v, mask) for d in extensions for v, mask in enumerate(d._pa) if mask}
        per_extension = sum(1 for d in extensions for mask in d._pa if mask)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
        effects = joint_ida_effects(g, xs, y, data)
        assert len(effects) == len(extensions)
        assert len(calls) == len(distinct) < per_extension

    @pytest.mark.parametrize("block", [3, ida._BLOCK])
    def test_nan_entries_beside_finite_ones_across_blocks(self, monkeypatch, block):
        """V4 repeats V1, so an extension with a node that regresses on
        both is rank deficient and its entry is a NaN tuple, while the
        others stay finite.  Cut into blocks of three, NaN and finite
        entries share blocks, and every entry is bit-identical to fitting
        and inverting its own extension."""
        g = complete_graph(4)
        xs, y = ["V2", "V3"], "V1"
        data = np.random.default_rng(5).standard_normal((30, 4))
        data[:, 3] = data[:, 0]
        col = {name: j for j, name in enumerate(g.nodes)}
        expected = []
        for _, merged in global_merge_combinations(g, xs):
            B = fit_coefficient_matrix(consistent_extension(merged), data, col)
            if np.isnan(B).any():
                expected.append((math.nan, math.nan))
                continue
            totals = np.linalg.inv(np.eye(4) - B)
            expected.append(tuple(float(totals[g.node_index(x), g.node_index(y)]) for x in xs))
        monkeypatch.setattr(ida, "_BLOCK", block)
        effects = joint_ida_effects(g, xs, y, data)
        assert list(effects.family) == global_merge_parent_sets(g, xs)
        failed = [math.isnan(vec[0]) for vec in expected]
        blocks = [failed[i : i + 3] for i in range(0, len(failed), 3)]
        assert any(True in b and False in b for b in blocks) and len(blocks) > 2
        assert len(effects.values) == len(expected)
        for got, want in zip(effects.values, expected):
            assert len(got) == len(want)
            assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want))
            assert all(math.isnan(a) for a in got) or all(map(math.isfinite, got))

    def test_blocks_are_fitted_as_the_search_yields_them(self):
        """A three-node joint query on K8 has 6,144 entries.  Its peak
        allocation stays within 1.4 times what the result keeps: it read
        1.75 times when every merged graph of the family was collected
        before the first block was fitted, and 1.18 since."""
        g = complete_graph(8)
        data = np.random.default_rng(3).standard_normal((50, 8))
        joint_ida_effects(complete_graph(3), ["V1", "V2"], "V3", data[:, :3])  # lazy imports
        tracemalloc.start()
        try:
            effects = joint_ida_effects(g, ["V1", "V2", "V3"], "V8", data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(effects) == 6144
        assert peak < 1.4 * kept

    def test_rank_deficient_fits_are_nan_tuples(self):
        g = parse_graph("X1 -- X2\nX1 -> Y\nX2 -> Y")
        data = np.random.default_rng(29).standard_normal((40, 3))
        data[:, 0] = 0.0
        effects = joint_ida_effects(g, ["X1", "X2"], "Y", data)
        assert len(effects) == 2
        assert all(len(vec) == 2 and all(map(math.isnan, vec)) for vec in effects.values)
        assert effects.unique_count() == 1

    def test_bare_string_is_one_node(self):
        g = complete_graph(4)
        data = np.random.default_rng(19).standard_normal((30, 4))
        single = joint_ida_effects(g, "V1", "V3", data)
        assert single.family.interventions == ("V1",)
        assert single.values == joint_ida_effects(g, ["V1"], "V3", data).values

    def test_outcome_among_interventions_rejected(self, fig1_mpdag):
        with pytest.raises(QueryError, match=r"^xs and y overlap: \{A\}$"):
            joint_ida_effects(fig1_mpdag, ["C", "A"], "A", np.zeros((10, 4)))
        # The single-intervention route shares the rule, under its labels.
        with pytest.raises(QueryError, match=r"^x and y overlap: \{A\}$"):
            ida_effects(fig1_mpdag, "A", "A", np.zeros((10, 4)))


class TestDedup:
    def test_tolerance_groups_close_values(self):
        family = possible_parent_sets(parse_graph("X -> Y"), ["X"])
        ms = EffectMultiset(family, (1.0,))
        assert ms.unique_count() == 1
        ms3 = EffectMultiset(family, (1.0, 1.0 + 5e-9, 2.0))
        assert ms3.unique_count() == 2
        assert ms3.unique_values() == [1.0, 2.0]

    def test_vector_dedup(self):
        family = possible_parent_sets(parse_graph("X -> Y"), ["X"])
        ms = EffectMultiset(family, ((1.0, 2.0), (1.0, 2.0 + 1e-12), (1.0, 3.0)))
        assert ms.unique_count() == 2

    def test_vector_joins_the_first_representative_within_tolerance(self):
        # The middle vector sorts between two near-equal ones, which are
        # one effect, not two.
        family = possible_parent_sets(parse_graph("X -> Y"), ["X"])
        values = (
            (0.5747231995583424, 0.0),
            (0.5747231995583425, -0.24043324150955261),
            (0.5747231995583426, 0.0),
        )
        ms = EffectMultiset(family, values)
        assert ms.unique_count() == 2
        assert ms.unique_values() == [values[0], values[1]]

    def test_count_ignores_order_and_tiny_noise(self):
        # Effects planted on a coarse grid, each repeated with at most
        # 1e-12 of noise per component: the count is the number planted,
        # in any order of the values.
        family = possible_parent_sets(parse_graph("X -> Y"), ["X"])
        rng = np.random.default_rng(30)
        for _ in range(300):
            width = int(rng.integers(1, 4))
            planted = np.unique(rng.integers(-2, 3, size=(int(rng.integers(1, 7)), width)) / 4, axis=0)
            copies = np.repeat(planted, rng.integers(1, 4, size=len(planted)), axis=0)
            noisy = copies + rng.uniform(-1e-12, 1e-12, size=copies.shape)
            for rows in (copies, noisy, noisy[rng.permutation(len(noisy))]):
                values = tuple(tuple(map(float, r)) if width > 1 else float(r[0]) for r in rows)
                assert EffectMultiset(family, values).unique_count() == len(planted), values

    def test_nan_grouped_separately(self):
        family = possible_parent_sets(parse_graph("X -> Y"), ["X"])
        ms = EffectMultiset(family, (1.0, float("nan"), float("nan")))
        assert ms.unique_count() == 2

    def test_sample_order_invariance(self):
        g = parse_graph("X -- Y\nnode Z")
        rng = np.random.default_rng(17)
        data = rng.standard_normal((500, 3))
        shuffled = data[rng.permutation(500)]
        a = ida_effects(g, "X", "Y", data, columns=("X", "Y", "Z"))
        b = ida_effects(g, "X", "Y", shuffled, columns=("X", "Y", "Z"))
        assert a.unique_values() == pytest.approx(b.unique_values(), abs=1e-9)
