import numpy as np
import pytest

from mpdagkit import meek
from mpdagkit.extension import represents
from mpdagkit.meek import (
    BackgroundKnowledge,
    OrientationConflictError,
    close_orientations,
    construct_max_pdag,
    cpdag_of,
    is_closed,
    parse_background,
    validate_maximal_pdag,
)
from mpdagkit.pdag_core import GraphParseError, PdagGraph, parse_graph

from conftest import random_mpdag, same_graph
from helpers import all_rule_orders, scan_close, scan_construct

FOUR_CYCLE = PdagGraph(
    "ABCD", undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]
)


class TestRules:
    def test_rule1(self):
        g = parse_graph("A -> B\nB -- C")
        closed = close_orientations(g)
        assert closed.is_directed("B", "C")

    def test_rule1_blocked_by_shield(self):
        g = parse_graph("A -> B\nB -- C\nA -- C")
        assert close_orientations(g).is_undirected("B", "C")

    def test_rule2(self):
        g = parse_graph("A -> B\nB -> C\nA -- C")
        assert close_orientations(g).is_directed("A", "C")

    def test_rule3(self):
        g = parse_graph("A -- B\nA -- C\nA -- D\nC -> B\nD -> B")
        closed = close_orientations(g)
        assert closed.is_directed("A", "B")
        assert closed.is_undirected("A", "C")

    def test_rule3_needs_nonadjacent_parents(self):
        g = parse_graph("A -- B\nA -- C\nA -- D\nC -> B\nD -> B\nC -- D")
        assert close_orientations(g).is_undirected("A", "B")

    def test_rule4(self):
        g = parse_graph("I -- J\nI -- L\nI -- K\nJ -> L\nL -> K")
        closed = close_orientations(g)
        assert closed.is_directed("I", "K")
        assert closed.is_undirected("I", "J")

    def test_rule4_needs_nonadjacent_ends(self):
        g = parse_graph("I -- J\nI -- L\nI -- K\nJ -> L\nL -> K\nJ -- K")
        closed = close_orientations(g)
        assert not closed.is_directed("I", "K")

    def test_cycle_input_rejected(self):
        g = PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])
        with pytest.raises(ValueError, match="directed cycle"):
            close_orientations(g)

    def test_unextendable_closure_conflict(self):
        seeded = PdagGraph(
            "ABCD",
            directed=[("A", "B")],
            undirected=[("B", "C"), ("C", "D"), ("D", "A")],
        )
        with pytest.raises(OrientationConflictError):
            close_orientations(seeded)

    def test_closed_input_with_no_extension_rejected(self):
        # Already closed, so no rule would fire; the check comes first.
        with pytest.raises(OrientationConflictError, match="no consistent DAG extension"):
            close_orientations(FOUR_CYCLE)


class TestCloseOrientations:
    def test_figure_one_merge(self, fig1_cpdag, fig1_mpdag):
        seeded = PdagGraph(
            fig1_cpdag.nodes,
            directed=[("D", "B")],
            undirected=[("A", "B"), ("A", "D"), ("B", "C"), ("C", "D")],
        )
        assert close_orientations(seeded) == fig1_mpdag

    def test_closed_graph_unchanged(self, fig1_cpdag):
        assert close_orientations(fig1_cpdag) == fig1_cpdag

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            g, _ = random_mpdag(rng, 8)
            once = close_orientations(g)
            assert close_orientations(once) == once

    def test_matches_restart_scan_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            g, dag = random_mpdag(rng, 7)
            undirected = g.undirected_edges()
            if not undirected:
                continue
            a, b = undirected[int(rng.integers(len(undirected)))]
            if not dag.is_directed(a, b):
                a, b = b, a
            seeded = PdagGraph(
                g.nodes,
                directed=list(g.directed_edges()) + [(a, b)],
                undirected=[e for e in undirected if e != tuple(sorted((a, b)))],
            )
            assert close_orientations(seeded) == scan_close(seeded)


class TestConstructMaxPdag:
    def test_example_two_g1(self, fig3_cpdag, fig3_g1):
        outcome = construct_max_pdag(fig3_cpdag, [("V1", "X")])
        assert outcome.ok
        assert same_graph(outcome.graph, fig3_g1)

    def test_example_two_g2(self, fig3_cpdag, fig3_g2):
        outcome = construct_max_pdag(fig3_cpdag, [("Y", "X")])
        assert outcome.ok
        assert same_graph(outcome.graph, fig3_g2)

    def test_fail_on_reversed_edge(self, fig3_g2):
        outcome = construct_max_pdag(fig3_g2, [("X", "Y")])
        assert not outcome.ok
        assert outcome.violation == ("X", "Y")
        assert outcome.reason == "X -> Y conflicts with Y -> X"
        assert outcome.graph == fig3_g2  # input untouched

    def test_fail_on_missing_edge(self, fig1_mpdag):
        outcome = construct_max_pdag(fig1_mpdag, [("A", "C")])
        assert not outcome.ok
        assert "no edge" in outcome.reason

    @pytest.mark.parametrize("reqs", [[], [("A", "B")]], ids=["no_requirements", "one"])
    def test_rejects_input_with_no_extension(self, reqs):
        # Closed and acyclic, but not maximal: the undirected 4-cycle has
        # no DAG extension, so it is refused before any merge.
        for _ in range(2):
            with pytest.raises(ValueError, match="no consistent DAG extension"):
                construct_max_pdag(FOUR_CYCLE, reqs)

    def test_duplicates_and_satisfied_requirements_are_noops(self, fig1_cpdag):
        once = construct_max_pdag(fig1_cpdag, [("D", "B")])
        thrice = construct_max_pdag(
            fig1_cpdag, [("D", "B"), ("D", "B"), ("D", "B")]
        )
        assert once.ok and thrice.ok
        assert once.graph == thrice.graph

    def test_requires_closed_input(self):
        open_graph = parse_graph("A -> B\nB -- C")
        for _ in range(2):  # a failed check is not memoised
            with pytest.raises(ValueError, match="not closed"):
                construct_max_pdag(open_graph, [("B", "C")])

    def test_requires_acyclic_input(self):
        g = PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])
        for _ in range(2):
            with pytest.raises(ValueError, match="directed cycle"):
                construct_max_pdag(g, [])

    def test_unknown_node_fails(self, fig1_cpdag):
        outcome = construct_max_pdag(fig1_cpdag, [("Z", "B")])
        assert not outcome.ok
        assert "unknown node" in outcome.reason

    def test_success_result_represents_input(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            g, dag = random_mpdag(rng, 7)
            undirected = g.undirected_edges()
            reqs = []
            for a, b in undirected:
                if rng.random() < 0.5:
                    reqs.append((a, b) if dag.is_directed(a, b) else (b, a))
            outcome = construct_max_pdag(g, reqs)
            assert outcome.ok
            assert represents(g, outcome.graph)

    def test_sibling_orientation_always_consistent(self):
        # every node can be turned into a local source among its siblings
        rng = np.random.default_rng(17)
        for _ in range(50):
            g, _ = random_mpdag(rng, 7)
            for x in g.nodes:
                reqs = [(x, s) for s in sorted(g.siblings(x))]
                assert construct_max_pdag(g, reqs).ok

    def test_matches_restart_scan_construct(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g, dag = random_mpdag(rng, 7)
            undirected = g.undirected_edges()
            reqs = []
            for a, b in undirected:
                roll = rng.random()
                if roll < 0.4:
                    reqs.append((a, b) if dag.is_directed(a, b) else (b, a))
                elif roll < 0.55:
                    reqs.append((a, b) if dag.is_directed(b, a) else (b, a))
            rng.shuffle(reqs)
            mine = construct_max_pdag(g, reqs)
            reference = scan_construct(g, reqs)
            if reference is None:
                assert not mine.ok
            else:
                assert mine.ok
                assert mine.graph == reference

    def test_random_directions_match_restart_scan_construct(self):
        # directions drawn independently of any DAG, so many merges fail
        rng = np.random.default_rng(29)
        failures = 0
        for _ in range(200):
            g, _ = random_mpdag(rng, 9)
            reqs = [
                (a, b) if rng.random() < 0.5 else (b, a)
                for a, b in g.undirected_edges()
                if rng.random() < 0.6
            ]
            if rng.random() < 0.3:
                reqs += [(b, a) for a, b in g.directed_edges()[:1]]
            rng.shuffle(reqs)
            mine = construct_max_pdag(g, reqs)
            reference = scan_construct(g, reqs)
            if reference is None:
                failures += 1
                assert not mine.ok
                assert mine.graph is g
            else:
                assert mine.ok
                assert mine.graph == reference
        assert failures > 20

    def test_merge_outputs_are_maximal(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            g, dag = random_mpdag(rng, 8)
            reqs = [
                (a, b) if dag.is_directed(a, b) else (b, a)
                for a, b in g.undirected_edges()
                if rng.random() < 0.5
            ]
            merged = construct_max_pdag(g, reqs).graph
            # a fresh copy carries no memo, so the rules are really checked
            copy = PdagGraph(
                merged.nodes, merged.directed_edges(), merged.undirected_edges()
            )
            assert is_closed(copy)


class TestConfluence:
    def test_rule_and_requirement_order_invariance(self):
        rng = np.random.default_rng(31)
        orders = all_rule_orders()
        for _ in range(40):
            g, dag = random_mpdag(rng, 6)
            undirected = g.undirected_edges()
            reqs = []
            for a, b in undirected:
                if rng.random() < 0.6:
                    reqs.append((a, b) if dag.is_directed(a, b) else (b, a))
            baseline = construct_max_pdag(g, reqs)
            assert baseline.ok
            for _ in range(3):
                perm = list(reqs)
                rng.shuffle(perm)
                order = orders[int(rng.integers(len(orders)))]
                reference = scan_construct(g, perm, order)
                assert reference is not None
                assert reference == baseline.graph


class TestCpdagOf:
    def test_chain_becomes_undirected(self):
        d = parse_graph("X -> Z\nZ -> Y")
        c = cpdag_of(d)
        assert c.is_undirected("X", "Z") and c.is_undirected("Z", "Y")

    def test_collider_preserved(self):
        d = parse_graph("X -> Z\nY -> Z")
        assert cpdag_of(d) == d

    def test_figure_one_recovery(self, fig1b_dags, fig1_cpdag):
        assert same_graph(cpdag_of(fig1b_dags[0]), fig1_cpdag)

    def test_rejects_partially_directed_input(self, fig1_mpdag):
        with pytest.raises(ValueError, match="not a fully directed"):
            cpdag_of(fig1_mpdag)

    def test_random_dag_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            _, dag = random_mpdag(rng, 8)
            c = cpdag_of(dag)
            assert represents(c, dag)
            assert is_closed(c)
            # Equality ignores the child masks; check them against the parents.
            rebuilt = PdagGraph(c.nodes, c.directed_edges(), c.undirected_edges())
            assert (rebuilt._pa, rebuilt._ch) == (c._pa, c._ch)


class TestValidation:
    def test_figure_one_mpdag_fully_valid(self, fig1_mpdag):
        report = validate_maximal_pdag(fig1_mpdag)
        assert report.acyclic and report.closed and report.extendable

    def test_open_rule_one_graph(self):
        report = validate_maximal_pdag(parse_graph("A -> B\nB -- C"))
        assert report.acyclic
        assert not report.closed

    def test_chordless_four_cycle(self):
        report = validate_maximal_pdag(FOUR_CYCLE)
        assert report.acyclic
        assert report.closed
        assert not report.extendable

    def test_cyclic_graph(self):
        g = PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])
        report = validate_maximal_pdag(g)
        assert not report.acyclic
        assert not report.extendable

    @pytest.mark.parametrize(
        "g, acyclic, extendable, cycle_checks",
        [
            (parse_graph("A -> B\nB -- C"), True, True, 0),
            (FOUR_CYCLE, True, False, 1),
            (PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")]), False, False, 1),
        ],
        ids=["extendable", "four-cycle", "cyclic"],
    )
    def test_cycle_search_only_without_extension(
        self, monkeypatch, g, acyclic, extendable, cycle_checks
    ):
        # The extension answers acyclicity when it exists, so only a
        # graph without one is peeled a second time.
        calls = []
        real = meek.has_directed_cycle
        monkeypatch.setattr(meek, "has_directed_cycle", lambda h: calls.append(h) or real(h))
        report = validate_maximal_pdag(g)
        assert (report.acyclic, report.extendable) == (acyclic, extendable)
        assert len(calls) == cycle_checks


class TestBackgroundParsing:
    def test_inline_requirements(self):
        bg = parse_background("A -> B\nC -> D")
        assert bg.requirements == (("A", "B"), ("C", "D"))

    def test_rejects_undirected_lines(self):
        with pytest.raises(GraphParseError, match="only directed"):
            parse_background("A -- B")

    def test_rejects_node_directives(self):
        with pytest.raises(GraphParseError, match="only directed"):
            parse_background("node A")

    def test_rejects_weights(self):
        for text in ("A -> B 0.5", "A -- B 0.5"):
            with pytest.raises(GraphParseError, match="line 1: too many tokens on edge statement"):
                parse_background(text)

    def test_background_type_validation(self):
        with pytest.raises(ValueError, match="differ"):
            BackgroundKnowledge([("A", "A")])
