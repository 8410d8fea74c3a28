import numpy as np
import pytest

from mpdagkit import pdag_core
from mpdagkit.extension import (
    consistent_extension,
    enumerate_dags,
    represents,
    unshielded_collider_triples,
)
from mpdagkit.meek import cpdag_of
from mpdagkit.pdag_core import PdagGraph, parse_graph
from mpdagkit.sem_sim import add_background_fraction, random_dag

from conftest import dag_key, random_mpdag
from helpers import brute_force_dags, scan_extension

FOUR_CYCLE = PdagGraph(
    "ABCD", undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]
)
THREE_CYCLE = PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])


class TestRepresents:
    def test_first_class_member(self, fig1_mpdag, fig1d_dags):
        assert represents(fig1_mpdag, fig1d_dags[0])

    def test_reversed_required_edge(self, fig1_mpdag, fig1b_dags):
        # the sixth DAG of the wider class contains B -> D
        assert not represents(fig1_mpdag, fig1b_dags[5])

    def test_reflexive(self, fig1_mpdag, fig3_g1):
        assert represents(fig1_mpdag, fig1_mpdag)
        assert represents(fig3_g1, fig3_g1)

    def test_skeleton_mismatch(self):
        assert not represents(parse_graph("A -- B"), parse_graph("A -> B\nB -> C"))

    def test_node_set_mismatch(self):
        # Two edgeless graphs agree on everything but their nodes.
        assert not represents(PdagGraph(["A", "B"]), PdagGraph(["A", "C"]))

    def test_collider_mismatch(self):
        chain = parse_graph("X -> Z\nZ -> Y")
        collider = parse_graph("X -> Z\nY -> Z")
        assert not represents(chain, collider)
        assert unshielded_collider_triples(collider) == {("X", "Z", "Y")}

    def test_cpdag_members(self, fig1_cpdag, fig1b_dags):
        for dag in fig1b_dags:
            assert represents(fig1_cpdag, dag)


class TestConsistentExtension:
    def test_figure_one(self, fig1_mpdag, fig1d_dags):
        ext = consistent_extension(fig1_mpdag)
        assert ext is not None
        assert dag_key(ext) in {dag_key(d) for d in fig1d_dags}

    def test_dag_identity(self, fig1b_dags):
        for dag in fig1b_dags:
            ext = consistent_extension(dag)
            assert dag_key(ext) == dag_key(dag)

    def test_four_cycle_has_none(self):
        assert consistent_extension(FOUR_CYCLE) is None

    @pytest.mark.parametrize(
        "text",
        [
            "A -> B\nB -> C\nC -> A",
            "A -> B\nB -> C\nC -> A\nC -- D\nD -- E",
        ],
        ids=["cycle", "cycle_with_undirected_edges"],
    )
    def test_directed_cycle_has_none(self, text):
        # In the second graph E and D are peeled before the cycle is left.
        assert consistent_extension(parse_graph(text)) is None

    def test_deterministic(self, fig1_cpdag):
        assert consistent_extension(fig1_cpdag) == consistent_extension(fig1_cpdag)

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            g, _ = random_mpdag(rng, 7)
            listed = enumerate_dags(g)
            ext = consistent_extension(g)
            assert ext is not None
            assert dag_key(ext) in {dag_key(d) for d in listed}

    def test_none_iff_enumeration_empty(self):
        assert len(enumerate_dags(FOUR_CYCLE)) == 0
        assert consistent_extension(FOUR_CYCLE) is None


def masks(g):
    return None if g is None else (g.nodes, g._pa, g._ch, g._und)


class TestExtensionMatchesScanOracle:
    """The ready-mask extension picks the same sink as the restart scan
    at every step, so it returns the same DAG; the property corpus in
    test_properties adds cyclic and non-extendable inputs."""

    def test_random_mpdags(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            g, _ = random_mpdag(rng, 12)
            assert masks(consistent_extension(g)) == masks(scan_extension(g))

    @pytest.mark.parametrize("p", [50, 100, 200, 400])
    def test_sparse_cpdags_and_mpdags(self, p):
        rng = np.random.default_rng(p)
        for _ in range(2):
            dag = random_dag(p, 4.0, rng).dag
            cpdag = cpdag_of(dag)
            for g in (cpdag, add_background_fraction(cpdag, dag, 0.3, rng)):
                ext = consistent_extension(g)
                assert ext is not None and represents(g, ext)
                assert masks(ext) == masks(scan_extension(g))


class TestEnumerateDags:
    def test_figure_one_cpdag(self, fig1_cpdag, fig1b_dags):
        listed = enumerate_dags(fig1_cpdag)
        assert len(listed) == 10
        assert not listed.truncated
        assert {dag_key(d) for d in listed} == {dag_key(d) for d in fig1b_dags}

    def test_figure_one_mpdag(self, fig1_mpdag, fig1b_dags):
        listed = enumerate_dags(fig1_mpdag)
        assert len(listed) == 5
        assert {dag_key(d) for d in listed} == {dag_key(d) for d in fig1b_dags[:5]}

    def test_fully_directed_input(self, fig1b_dags):
        listed = enumerate_dags(fig1b_dags[2])
        assert len(listed) == 1
        assert dag_key(listed.dags[0]) == dag_key(fig1b_dags[2])

    def test_all_members_are_dags_and_represented(self, fig1_cpdag):
        for dag in enumerate_dags(fig1_cpdag):
            assert dag.is_dag()
            assert represents(fig1_cpdag, dag)

    def test_truncation_flag(self, fig1_cpdag):
        cut = enumerate_dags(fig1_cpdag, limit=3)
        assert len(cut) == 3 and cut.truncated
        exact = enumerate_dags(fig1_cpdag, limit=10)
        assert len(exact) == 10 and not exact.truncated
        with pytest.raises(ValueError, match="positive"):
            enumerate_dags(fig1_cpdag, limit=0)

    def test_deep_backtracking_needs_no_recursion(self):
        # 1,100 independent choices: deeper than Python's recursion limit.
        names = [f"N{i:04d}" for i in range(2200)]
        pairs = [(names[i], names[i + 1]) for i in range(0, 2200, 2)]
        cut = enumerate_dags(PdagGraph(names, undirected=pairs), limit=3)
        assert len(cut) == 3 and cut.truncated

    def test_deterministic_order(self, fig1_cpdag):
        first = enumerate_dags(fig1_cpdag)
        second = enumerate_dags(fig1_cpdag)
        assert first.dags == second.dags

    def test_rejects_cyclic_input(self):
        g = PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])
        with pytest.raises(ValueError, match="directed cycle"):
            enumerate_dags(g)

    @pytest.mark.parametrize(
        "g, listed, peels",
        [
            (PdagGraph("AB", undirected=[("A", "B")]), 2, ["extension"]),
            (FOUR_CYCLE, 0, ["extension", "cycle"]),
            (THREE_CYCLE, None, ["extension", "cycle"]),
        ],
        ids=["extendable", "no_extension", "cyclic"],
    )
    def test_checks_its_input_with_one_peel_when_it_extends(self, monkeypatch, g, listed, peels):
        """The extension answers acyclicity too, so only a graph without
        one is peeled a second time, for the cycle check; a cyclic graph
        (``listed`` None) is refused.  Both peels are
        ``pdag_core._acyclic_extension``'s, so they are counted there."""
        calls = []
        peelers = {"extension": "consistent_extension", "cycle": "has_directed_cycle"}
        for label, name in peelers.items():
            real = getattr(pdag_core, name)
            monkeypatch.setattr(
                pdag_core, name, lambda h, real=real, label=label: calls.append(label) or real(h)
            )
        if listed is None:
            with pytest.raises(ValueError, match="^input graph has a directed cycle$"):
                enumerate_dags(g)
        else:
            assert len(enumerate_dags(g)) == listed
        assert calls == peels

    def test_matches_brute_force(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            g, _ = random_mpdag(rng, 7)
            assert set(enumerate_dags(g)) == set(brute_force_dags(g))

    def test_class_recovery_round_trip(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            _, dag = random_mpdag(rng, 6)
            c = cpdag_of(dag)
            members = enumerate_dags(c)
            assert len(members) >= 1
            for member in members:
                assert cpdag_of(member) == c

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 6), (4, 24), (5, 120)])
    def test_complete_graph_counts_orderings(self, n, expected):
        # acyclic orientations of a complete graph are exactly the node orderings
        names = [f"K{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        g = PdagGraph(names, undirected=pairs)
        assert len(enumerate_dags(g)) == expected

    def test_star_excludes_collider_orientations(self):
        g = PdagGraph("ABCD", undirected=[("A", "B"), ("A", "C"), ("A", "D")])
        listed = enumerate_dags(g)
        # at most one leaf may point into the hub, else an unshielded collider
        assert len(listed) == 4
        for dag in listed:
            assert len(dag.parents("A")) <= 1
