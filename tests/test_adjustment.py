import inspect
from itertools import combinations

import numpy as np
import pytest

from mpdagkit import adjustment, causal_paths, reference
from mpdagkit.adjustment import (
    ForbiddenSet,
    adjust_set,
    check_b_blocking,
    d_separated,
    forbidden_set,
    is_amenable,
    list_adjustment_sets,
    satisfies_b_adjustment,
)
from mpdagkit.causal_paths import b_possible_ancestors, b_possible_descendants
from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.meek import construct_max_pdag, cpdag_of, is_closed, validate_maximal_pdag
from mpdagkit.pdag_core import PdagGraph, QueryError, parse_graph
from mpdagkit.reference import b_blocking_by_enumeration, oracle_reach

from conftest import complete_graph, random_mpdag
from helpers import (
    _path_blocked,
    _proper_paths,
    dag_adjustment_criterion,
    deepening_connecting_path,
    enumerated_conditions,
    enumerated_forbidden_set,
    extension_blocking,
    forbidden_nodes,
    moral_separated,
    name_adjacency,
    name_b_blocking_by_enumeration,
    proper_backdoor_dag,
    reach_backdoor,
    reach_zero_effect,
    subset_listing,
    tuple_set_forward_reach,
)


def strip(n):
    """Undirected chordal strip: V_i -- V_i+1 and V_i -- V_i+2."""
    names = [f"V{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in (i + 1, i + 2) if j < n]
    return PdagGraph(names, undirected=pairs)


class TestForbiddenSet:
    def test_example_two_g1(self, fig3_g1):
        forb = forbidden_set(fig3_g1, "X", "Y")
        assert forb.nodes == {"V2", "Y"}
        assert forb.on_path == {"V2", "Y"}

    def test_example_two_g2(self, fig3_g2):
        assert forbidden_set(fig3_g2, "X", "Y").nodes == frozenset()

    def test_two_node_edge(self):
        g = parse_graph("X -> Y")
        assert forbidden_set(g, "X", "Y").nodes == {"Y"}

    def test_mediator_on_shielded_path_is_forbidden(self):
        g = parse_graph("X -> W\nW -> Y\nX -> Y")
        assert forbidden_set(g, "X", "Y").nodes == {"W", "Y"}

    def test_requires_disjoint_nonempty_sets(self, fig3_g1):
        with pytest.raises(QueryError, match=r"^xs and ys overlap: \{X\}$"):
            forbidden_set(fig3_g1, {"X"}, {"X", "Y"})
        with pytest.raises(QueryError, match="^ys must name at least one node$"):
            forbidden_set(fig3_g1, {"X"}, ())

    def test_step_budget_not_node_count(self):
        """A cheap 13-node query answers, and ``max_nodes`` bounds nothing;
        on K11 the forbidden set answers with its first path, which covers
        every node, while the blocking enumeration between the same two
        nodes passes the enumerator's step budget."""
        g = PdagGraph([f"N{i}" for i in range(13)], directed=[("N0", "N1")])
        assert forbidden_set(g, "N0", "N1").nodes == {"N1"}
        assert forbidden_set(g, "N0", "N1", max_nodes=2).nodes == {"N1"}
        assert list_adjustment_sets(g, "N0", "N1", minimal_only=True, max_nodes=2) == [frozenset()]
        k11 = complete_graph(11)
        forb = forbidden_set(k11, "V0", "V10")
        assert forb.nodes == set(k11.nodes)
        assert forb.on_path == {f"V{i}" for i in range(1, 11)}
        with pytest.raises(ValueError, match="budget of 1,000,000 steps"):
            b_blocking_by_enumeration(k11, "V0", "V10")

    def test_budget_binds_where_the_bound_is_loose(self, monkeypatch):
        """On the undirected tree ``X - S - A - Y`` with a leaf ``W`` at
        ``A``, the walks bound ``on_path`` by {S, A, W, Y}, but no path
        from X into Y passes W, so no path covers the bound and the walk
        runs to the end: four path extensions, to S, A, W and Y.  A budget
        of 4 answers and one of 3 stops the walk."""
        g = parse_graph("X -- S\nS -- A\nA -- W\nA -- Y")
        monkeypatch.setattr(causal_paths, "PATH_STEP_BUDGET", 4)
        assert forbidden_set(g, "X", "Y").on_path == {"S", "A", "Y"}
        monkeypatch.setattr(causal_paths, "PATH_STEP_BUDGET", 3)
        with pytest.raises(ValueError, match="budget of 3 steps"):
            forbidden_set(g, "X", "Y")

    def test_an_outcome_that_is_a_parent_of_the_treatment_walks_no_path(self, monkeypatch):
        """K12 with ``V11 -> V0`` is maximal, and every path from V0 into
        V11 has a backward pair: the walks leave out V0's parent V11, so
        both bounds are empty and the answer needs no path extension."""
        names = [f"V{i}" for i in range(12)]
        pairs = [(a, b) for a, b in combinations(names, 2) if (a, b) != ("V0", "V11")]
        g = PdagGraph(names, directed=[("V11", "V0")], undirected=pairs)
        assert validate_maximal_pdag(g).extendable and is_closed(g)
        monkeypatch.setattr(causal_paths, "PATH_STEP_BUDGET", 0)
        assert forbidden_set(g, "V0", "V11") == ForbiddenSet(frozenset(), frozenset())

    def test_max_nodes_is_gone_where_nothing_passes_it(self):
        for query in (
            is_amenable,
            check_b_blocking,
            satisfies_b_adjustment,
            adjust_set,
            b_blocking_by_enumeration,
            oracle_reach,
        ):
            assert "max_nodes" not in inspect.signature(query).parameters

    def test_closed_under_possible_descent(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            g, _ = random_mpdag(rng, 6)
            nodes = list(g.nodes)
            x, y = nodes[0], nodes[-1]
            if x == y:
                continue
            forb = forbidden_set(g, x, y).nodes
            assert b_possible_descendants(g, forb).nodes == forb or not forb

    def test_background_knowledge_shrinks_forbidden_set(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g, dag = random_mpdag(rng, 6)
            undirected = g.undirected_edges()
            reqs = [
                (a, b) if dag.is_directed(a, b) else (b, a)
                for a, b in undirected
                if rng.random() < 0.5
            ]
            refined = construct_max_pdag(g, reqs).graph
            x, y = g.nodes[0], g.nodes[-1]
            assert (
                forbidden_set(refined, x, y).nodes
                <= forbidden_set(g, x, y).nodes
            )


@pytest.mark.parametrize(
    "entry",
    [
        forbidden_set,
        is_amenable,
        check_b_blocking,
        satisfies_b_adjustment,
        adjust_set,
        list_adjustment_sets,
    ],
)
@pytest.mark.parametrize("xs, ys", [([], "Y"), ("X", [])])
def test_every_entry_point_rejects_an_empty_set(entry, xs, ys):
    g = parse_graph("X -> Y\nY -- Z")
    label = "ys" if xs else "xs"
    with pytest.raises(QueryError, match=f"^{label} must name at least one node$"):
        entry(g, xs, ys)


class TestAmenability:
    def test_cpdag_not_amenable(self, fig3_cpdag):
        check = is_amenable(fig3_cpdag, "X", "Y")
        assert not check.ok
        assert check.witness == ("X", "Y")

    def test_g1_amenable(self, fig3_g1):
        assert is_amenable(fig3_g1, "X", "Y").ok

    def test_g2_amenable(self, fig3_g2):
        assert is_amenable(fig3_g2, "X", "Y").ok

    def test_no_paths_is_amenable(self):
        g = parse_graph("X -> A\nnode Y")
        assert is_amenable(g, "X", "Y").ok


class TestDSeparation:
    def test_chain(self):
        d = parse_graph("X -> Z\nZ -> Y")
        assert d_separated(d, "X", "Y", "Z")
        assert not d_separated(d, "X", "Y")

    def test_collider(self):
        d = parse_graph("X -> Z\nY -> Z")
        assert d_separated(d, "X", "Y")
        assert not d_separated(d, "X", "Y", "Z")

    def test_collider_descendant_opens(self):
        d = parse_graph("X -> Z\nY -> Z\nZ -> W")
        assert not d_separated(d, "X", "Y", "W")

    def test_figure_one_first_dag(self, fig1b_dags):
        assert d_separated(fig1b_dags[0], "A", "C", ("B", "D"))

    def test_requires_dag(self, fig1_mpdag):
        with pytest.raises(ValueError, match="directed acyclic"):
            d_separated(fig1_mpdag, "A", "C")

    def test_requires_disjoint_sets(self, fig1b_dags):
        with pytest.raises(ValueError, match="overlap"):
            d_separated(fig1b_dags[0], "A", "C", "A")

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(80):
            _, dag = random_mpdag(rng, 6)
            nodes = list(dag.nodes)
            rng.shuffle(nodes)
            x, y = nodes[0], nodes[1]
            rest = nodes[2:]
            for r in range(len(rest) + 1):
                for zs in combinations(rest, r):
                    blocked_all = all(
                        _path_blocked(dag, path, frozenset(zs))
                        for path in _proper_paths(
                            name_adjacency(dag), frozenset({x}), frozenset({y})
                        )
                    )
                    assert d_separated(dag, x, y, zs) == blocked_all

    def test_moral_graph_oracle_matches_path_enumeration(self):
        """The oracle that the blocking sweeps compare the library's one
        separation search with, against the path enumeration, on random
        DAGs of up to 6 nodes with one and two treatment and outcome
        nodes."""
        rng = np.random.default_rng(38)
        checks = separated = 0
        for _ in range(200):
            _, dag = random_mpdag(rng, 6)
            nodes = list(dag.nodes)
            for kx, ky in ((1, 1), (2, 1), (1, 2), (2, 2)):
                if kx + ky > len(nodes):
                    continue
                rng.shuffle(nodes)
                xs, ys, rest = nodes[:kx], nodes[kx : kx + ky], nodes[kx + ky :]
                paths = _proper_paths(name_adjacency(dag), frozenset(xs), frozenset(ys))
                for r in range(len(rest) + 1):
                    for zs in combinations(rest, r):
                        want = all(_path_blocked(dag, path, frozenset(zs)) for path in paths)
                        masks = (sum(1 << dag.node_index(v) for v in vs) for vs in (xs, ys, zs))
                        assert moral_separated(dag, *masks) == want, (dag, xs, ys, zs)
                        checks += 1
                        separated += want
        assert (checks, separated) == (3181, 580)


class TestBlocking:
    def test_g1_empty_set(self, fig3_g1):
        assert check_b_blocking(fig3_g1, "X", "Y", ()).ok

    def test_g1_with_v1(self, fig3_g1):
        assert check_b_blocking(fig3_g1, "X", "Y", "V1").ok

    def test_g2_unblockable(self, fig3_g2):
        check = check_b_blocking(fig3_g2, "X", "Y", ())
        assert not check.ok
        assert check.witness == ("X", "Y")

    def test_precondition_amenability(self, fig3_cpdag):
        with pytest.raises(ValueError, match="amenability"):
            check_b_blocking(fig3_cpdag, "X", "Y", ())

    def test_precondition_forbidden(self, fig3_g1):
        with pytest.raises(ValueError, match="forbidden"):
            check_b_blocking(fig3_g1, "X", "Y", "V2")

    def test_fast_path_matches_enumeration(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 150:
            g, _ = random_mpdag(rng, 7)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            x, y = nodes[0], nodes[1]
            if not is_amenable(g, x, y).ok:
                continue
            forb = forbidden_set(g, x, y).nodes
            candidates = [n for n in nodes[2:] if n not in forb]
            size = int(rng.integers(0, len(candidates) + 1))
            zs = frozenset(
                rng.choice(candidates, size=size, replace=False)
            ) if candidates else frozenset()
            fast = check_b_blocking(g, x, y, zs)
            slow = b_blocking_by_enumeration(g, x, y, zs)
            assert fast.ok == slow.ok
            checked += 1

    def test_enumeration_matches_the_name_oracle(self):
        """The mask checks give the name-based oracle's verdict and witness
        on every query: maximal PDAGs, their true DAGs, and graphs with any
        mix of edges on the same nodes."""
        rng = np.random.default_rng(41)
        verdicts = []
        for _ in range(300):
            g, dag = random_mpdag(rng, 7)
            pairs = list(combinations(g.nodes, 2))
            kinds = rng.integers(0, 4, size=len(pairs))  # none, --, ->, <-
            mixed = PdagGraph(
                g.nodes,
                directed=[(a, b) if k == 2 else (b, a) for (a, b), k in zip(pairs, kinds) if k > 1],
                undirected=[p for p, k in zip(pairs, kinds) if k == 1],
            )
            for h in (g, dag, mixed):
                nodes = list(h.nodes)
                rng.shuffle(nodes)
                nx, ny = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                xs, ys, rest = nodes[:nx], nodes[nx : nx + ny], nodes[nx + ny :]
                zs = [v for v in rest if rng.random() < 0.4]
                got = b_blocking_by_enumeration(h, xs, ys, zs)
                assert got == name_b_blocking_by_enumeration(h, xs, ys, zs)
                verdicts.append(got.ok)
        assert len(verdicts) == 900 and verdicts.count(False) >= 150


class TestVerdicts:
    def test_g1_valid_set(self, fig3_g1):
        verdict = satisfies_b_adjustment(fig3_g1, "X", "Y", "V1")
        assert verdict.amenable and verdict.forbidden_ok and verdict.blocking_ok
        assert verdict.overall
        assert not verdict.zero_effect
        assert verdict.witness is None

    def test_g1_forbidden_member(self, fig3_g1):
        verdict = satisfies_b_adjustment(fig3_g1, "X", "Y", "V2")
        assert verdict.amenable
        assert verdict.forbidden_ok is False
        assert verdict.blocking_ok is None  # short-circuited
        assert not verdict.overall
        assert verdict.witness == "V2"

    def test_g2_zero_effect(self, fig3_g2):
        verdict = satisfies_b_adjustment(fig3_g2, "X", "Y", ())
        assert verdict.amenable and verdict.forbidden_ok
        assert verdict.blocking_ok is False
        assert not verdict.overall
        assert verdict.zero_effect
        assert verdict.witness == ("X", "Y")

    def test_cpdag_short_circuits_at_amenability(self, fig3_cpdag):
        verdict = satisfies_b_adjustment(fig3_cpdag, "X", "Y", ())
        assert not verdict.amenable
        assert verdict.forbidden_ok is None and verdict.blocking_ok is None
        assert verdict.witness == ("X", "Y")

    def test_rejects_overlapping_sets(self, fig3_g1):
        with pytest.raises(ValueError, match="overlap"):
            satisfies_b_adjustment(fig3_g1, "X", "Y", "X")


class TestAdjustSet:
    def test_g1(self, fig3_g1):
        assert adjust_set(fig3_g1, "X", "Y") == {"V1"}

    def test_cpdag_none(self, fig3_cpdag):
        assert adjust_set(fig3_cpdag, "X", "Y") is None

    def test_g2_none(self, fig3_g2):
        assert adjust_set(fig3_g2, "X", "Y") is None

    def test_plain_edge_gives_empty_set(self):
        assert adjust_set(parse_graph("X -> Y"), "X", "Y") == frozenset()


class TestListing:
    def test_g1_all_sets(self, fig3_g1):
        assert list_adjustment_sets(fig3_g1, "X", "Y") == [
            frozenset(),
            frozenset({"V1"}),
        ]

    def test_g1_minimal(self, fig3_g1):
        assert list_adjustment_sets(fig3_g1, "X", "Y", minimal_only=True) == [
            frozenset()
        ]

    def test_g2_empty(self, fig3_g2):
        assert list_adjustment_sets(fig3_g2, "X", "Y") == []

    def test_universe_cap(self, fig3_g1):
        with pytest.raises(ValueError, match="cap of 0"):
            list_adjustment_sets(fig3_g1, "X", "Y", universe_cap=0)

    def test_negative_universe_cap_is_rejected(self):
        g = parse_graph("X -> Y")
        assert list_adjustment_sets(g, "X", "Y", universe_cap=0) == [frozenset()]
        with pytest.raises(ValueError, match="^universe_cap must be non-negative$"):
            list_adjustment_sets(g, "X", "Y", universe_cap=-1)

    def test_listing_matches_per_set_verdicts(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            g, _ = random_mpdag(rng, 6)
            nodes = list(g.nodes)
            x, y = nodes[0], nodes[-1]
            listed = set(map(frozenset, list_adjustment_sets(g, x, y)))
            rest = [n for n in nodes if n not in (x, y)]
            checked = set()
            for r in range(len(rest) + 1):
                for zs in combinations(rest, r):
                    if satisfies_b_adjustment(g, x, y, zs).overall:
                        checked.add(frozenset(zs))
            assert listed == checked

    def test_listing_matches_the_subset_oracle(self):
        """Entry for entry, order included, on the CPDAG and a partially
        merged graph of each of 300 random DAGs of 5-10 nodes, with one
        and two treatment and outcome nodes, in both modes."""
        rng = np.random.default_rng(2028)
        calls = sets = minimal_sets = 0
        for _ in range(300):
            merged, dag = random_mpdag(rng, 10, p_min=5)
            for g in (cpdag_of(dag), merged):
                nodes = list(g.nodes)
                for kx, ky in ((1, 1), (2, 1), (1, 2), (2, 2)):
                    rng.shuffle(nodes)
                    xs, ys = nodes[:kx], nodes[kx : kx + ky]
                    for minimal in (False, True):
                        got = list_adjustment_sets(g, xs, ys, minimal_only=minimal)
                        assert got == subset_listing(g, xs, ys, minimal), (g, xs, ys)
                        calls += 1
                        sets += len(got)
                        minimal_sets += len(got) if minimal else 0
        assert (calls, sets, minimal_sets) == (4800, 20313, 826)


class TestReachabilityRoutes:
    @staticmethod
    def queries():
        rng = np.random.default_rng(2026)
        for _ in range(300):
            g, _ = random_mpdag(rng, 9)
            nodes = list(g.nodes)
            for _ in range(2):
                rng.shuffle(nodes)
                kx, ky = (int(k) for k in rng.integers(1, 3, size=2))
                if kx + ky > len(nodes):
                    kx = ky = 1
                yield g, frozenset(nodes[:kx]), frozenset(nodes[kx : kx + ky])
        for g in [complete_graph(n) for n in range(3, 10)] + [strip(n) for n in range(8, 15)]:
            last = g.nodes[-1]
            yield g, frozenset({"V0"}), frozenset({last})
            yield g, frozenset({"V0", "V1"}), frozenset({last})
            yield g, frozenset({"V1"}), frozenset({"V0", last})

    def test_amenability_and_forbidden_nodes_match_enumeration(self):
        amenable = not_amenable = 0
        for g, xs, ys in self.queries():
            witness, forbidden = enumerated_conditions(g, xs, ys)
            check = is_amenable(g, xs, ys)
            assert (check.ok, check.witness) == (witness is None, witness), (g, xs, ys)
            if check.ok:
                nodes = forbidden_nodes(g, *adjustment._query(g, xs, ys)[:2])
                assert g._names(nodes) == forbidden
                amenable += 1
            else:
                not_amenable += 1
        assert amenable > 200 and not_amenable > 200

    def test_conditions_match_the_reaches_they_replaced(self):
        """Entry for entry, the one path-starts pass against the searches
        it replaced: its amenability against the shortest-walk search, its
        zero-effect flag against the reach from the treatments, and the
        graph's child masks without its cut against the reach from the
        outcomes for an amenable query.  For every query the cut removes
        every edge that the reach removes from the kept DAG extension,
        and each further cut edge points into the forbidden set, with
        every descendant of its head in the extension."""
        amenable = zero = pruned = 0
        for g, xs, ys in self.queries():
            x_mask, y_mask, _ = adjustment._query(g, xs, ys)
            ok, sure, cut = adjustment._conditions(g, x_mask, y_mask)
            assert ok == adjustment._amenability(g, x_mask, y_mask).ok, (g, xs, ys)
            assert (not sure) == reach_zero_effect(g, x_mask, y_mask), (g, xs, ys)
            if ok:
                ch = g._ch[:]
                for x, starts in cut:
                    ch[x] &= ~starts
                assert ch == reach_backdoor(g, x_mask, y_mask), (g, xs, ys)
                amenable += 1
                pruned += ch != g._ch
            dag = g._extension or consistent_extension(g)
            want, ch = reach_backdoor(dag, x_mask, y_mask), adjustment._backdoor(g, cut, dag)[1]
            forbidden = forbidden_nodes(g, x_mask, y_mask)
            for x in adjustment._bits(x_mask):
                assert ch[x] & ~want[x] == 0, (g, xs, ys)
                for s in adjustment._bits(want[x] & ~ch[x]):
                    below = adjustment._closure(dag._ch, 1 << s)
                    assert below & ~forbidden == 0, (g, xs, ys)
            zero += not sure
        assert (amenable, zero, pruned) == (398, 251, 147)

    def test_forward_reach_matches_the_tuple_set_search(self):
        """Entry for entry against the state search over a set of tuples
        that the per-node masks replaced: both directions, from the
        treatments, the outcomes and both, with no node removed, with the
        treatments or the outcomes removed, and with the treatments and
        one treatment's parents removed, as the criterion removes them."""
        calls = shrunk = 0
        for g, xs, ys in self.queries():
            x_mask, y_mask, _ = adjustment._query(g, xs, ys)
            removals = [0, x_mask, y_mask] + [x_mask | g._pa[x] for x in adjustment._bits(x_mask)]
            for out in (g._ch, g._pa):
                for roots in (x_mask, y_mask, x_mask | y_mask):
                    whole = causal_paths._forward_reach(g, roots, out)
                    for removed in removals:
                        got = causal_paths._forward_reach(g, roots, out, removed)
                        want = tuple_set_forward_reach(g, roots, out, removed)
                        assert got == want, (g, xs, ys, roots, removed)
                        calls += 1
                        shrunk += got != whole & ~removed
        assert (calls, shrunk) == (17_226, 5_192)

    def test_forbidden_set_matches_the_enumeration(self):
        """Entry for entry, ``nodes`` and ``on_path``, against the walk of
        every proper possibly-causal path to its end."""
        covered = 0
        for g, xs, ys in self.queries():
            forb = forbidden_set(g, xs, ys)
            assert forb == enumerated_forbidden_set(g, xs, ys), (g, xs, ys)
            covered += bool(forb.on_path)
        assert covered > 300

    def test_walks_bound_on_path_on_random_mpdags(self):
        """On random maximal PDAGs of 3-9 nodes with one- and two-node
        treatment and outcome sets, the walks give ``sure <= on_path <=
        bound`` and ``forbidden_set`` the enumeration's answer, entry for
        entry.  The bound is loose, so the paths are walked to their end,
        on a few non-amenable queries and on no amenable one."""
        rng = np.random.default_rng(2029)
        queries = loose = loose_amenable = 0
        for _ in range(600):
            g, _ = random_mpdag(rng, 9)
            nodes = list(g.nodes)
            for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2)):
                if kx + ky > len(nodes):
                    continue
                rng.shuffle(nodes)
                xs, ys = nodes[:kx], nodes[kx : kx + ky]
                want = enumerated_forbidden_set(g, xs, ys)
                assert forbidden_set(g, xs, ys) == want, (g, xs, ys)
                sure, bound = adjustment._path_nodes(g, *adjustment._query(g, xs, ys)[:2])
                on_path = sum(1 << g.node_index(v) for v in want.on_path)
                assert sure & ~on_path == 0 and on_path & ~bound == 0, (g, xs, ys)
                queries += 1
                if on_path != bound:
                    loose += 1
                    loose_amenable += is_amenable(g, xs, ys).ok
        assert (queries, loose, loose_amenable) == (2321, 35, 0)

    def test_blocking_witness_matches_iterative_deepening(self):
        rng = np.random.default_rng(2027)
        connected = 0
        for _ in range(400):
            g, _ = random_mpdag(rng, 8)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            xs, ys = frozenset(nodes[:1]), frozenset(nodes[1:2])
            if not is_amenable(g, xs, ys).ok:
                continue
            forb = forbidden_set(g, xs, ys).nodes
            zs = frozenset(v for v in nodes[2:] if v not in forb and rng.random() < 0.3)
            check = check_b_blocking(g, xs, ys, zs)
            masks = adjustment._query(g, xs, ys, zs)
            pruned = proper_backdoor_dag(g, *masks[:2])
            want = deepening_connecting_path(pruned, *masks)
            assert check.witness == want
            connected += want is not None
        assert connected > 100

    @pytest.mark.parametrize(
        "g",
        [complete_graph(12), complete_graph(16), strip(40)],
        ids=["K12", "K16", "strip40"],
    )
    def test_large_graphs_answer_without_max_nodes(self, g):
        last = g.nodes[-1]
        check = is_amenable(g, "V0", last)
        assert not check.ok
        assert check.witness[0] == "V0" and check.witness[-1] == last
        assert adjust_set(g, "V0", last) is None
        verdict = satisfies_b_adjustment(g, "V0", last, ())
        assert not verdict.amenable and verdict.witness == check.witness
        assert list_adjustment_sets(g, "V0", last) == []
        forb = forbidden_set(g, "V0", last)
        assert forb.nodes == set(g.nodes) and forb.on_path == set(g.nodes) - {"V0"}

    def test_large_amenable_graph_answers_without_max_nodes(self):
        g = construct_max_pdag(strip(40), [("V0", "V1"), ("V0", "V2")]).graph
        assert is_amenable(g, "V0", "V39").ok
        assert adjust_set(g, "V0", "V39") == frozenset()
        assert satisfies_b_adjustment(g, "V0", "V39", ()).overall
        assert list_adjustment_sets(g, "V0", "V39") == [frozenset()]


class TestBlockingWalk:
    """The blocking search, d-separation on the kept DAG extension without
    the cut, against the two routes it must agree with, entry for entry:
    the moral-graph test in that extension's proper back-door graph, and
    the path-by-path enumeration on ``g``."""

    @staticmethod
    def check(g, xs, ys, z_mask, enumerate_paths=True):
        x_mask, y_mask, _ = adjustment._query(g, xs, ys)
        want = extension_blocking(g, x_mask, y_mask, z_mask)
        masks = adjustment._backdoor(g, adjustment._conditions(g, x_mask, y_mask)[2])
        got = adjustment._d_separated(*masks, x_mask, y_mask, z_mask)
        assert got == want.ok, (g, xs, ys, z_mask)
        if enumerate_paths:
            assert b_blocking_by_enumeration(g, xs, ys, g._names(z_mask)).ok == want.ok
        return want

    def test_reachability_queries(self):
        """Each amenable query of the reachability sweep, with no
        covariates, with the canonical candidate set and with a seeded
        random part of it; ``check_b_blocking`` also gives the extension
        route's witness."""
        rng = np.random.default_rng(2030)
        verdicts = []
        for g, xs, ys in TestReachabilityRoutes.queries():
            x_mask, y_mask, _ = adjustment._query(g, xs, ys)
            if not adjustment._amenability(g, x_mask, y_mask).ok:
                continue
            taken = x_mask | y_mask | forbidden_nodes(g, x_mask, y_mask)
            canonical = adjustment._forward_reach(g, x_mask | y_mask, g._pa) & ~taken
            part = sum(1 << v for v in adjustment._bits(canonical) if rng.random() < 0.5)
            for z_mask in (0, canonical, part):
                want = self.check(g, xs, ys, z_mask)
                assert check_b_blocking(g, xs, ys, g._names(z_mask)) == want
                verdicts.append(want.ok)
        assert (len(verdicts), verdicts.count(False)) == (1194, 644)

    def test_random_mpdags(self):
        """At least 10,000 amenable queries on random maximal PDAGs of
        4-12 nodes, with one and two treatment and outcome nodes and a
        random candidate set outside the forbidden set; the enumeration
        judges those on at most 8 nodes."""
        rng = np.random.default_rng(2031)
        verdicts = []
        enumerated = 0
        while len(verdicts) < 10_000:
            g, _ = random_mpdag(rng, 12, p_min=4)
            nodes = list(g.nodes)
            for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2)):
                rng.shuffle(nodes)
                xs, ys = nodes[:kx], nodes[kx : kx + ky]
                x_mask, y_mask, _ = adjustment._query(g, xs, ys)
                if not adjustment._amenability(g, x_mask, y_mask).ok:
                    continue
                taken = x_mask | y_mask | forbidden_nodes(g, x_mask, y_mask)
                free = [v for v in range(len(g)) if not taken >> v & 1]
                z_mask = sum(1 << v for v in free if rng.random() < 0.5)
                small = len(g) <= 8
                verdicts.append(self.check(g, xs, ys, z_mask, enumerate_paths=small).ok)
                enumerated += small
        assert (len(verdicts), verdicts.count(False), enumerated) == (10_003, 6_524, 5_386)

    def test_witness_walks_the_extension(self):
        """In ``g`` the edge from ``V5`` to ``V6`` in ``Z`` is undirected,
        so the collider ``V1 -> V5 <- V2`` is closed there and a walk on
        ``g`` would name ``V1, V6, V2``.  The extension orients ``V5 ->
        V6``, which opens it, and ``V1, V5, V2`` is less by node index."""
        edges = [
            "V1 -- V3", "V1 -> V4", "V1 -> V5", "V1 -> V6", "V1 -> V7", "V2 -> V4",
            "V2 -> V5", "V2 -> V6", "V2 -> V7", "V3 -> V4", "V5 -- V6", "V5 -- V7",
        ]  # fmt: skip
        g = parse_graph("\n".join(edges))
        xs, ys, zs = ("V1", "V3"), ("V2", "V4"), ("V6",)
        verdict = satisfies_b_adjustment(g, xs, ys, zs)
        assert (verdict.forbidden_ok, verdict.blocking_ok) == (True, False)
        assert verdict.witness == ("V1", "V5", "V2")
        masks = adjustment._query(g, xs, ys, zs)
        assert verdict.witness == extension_blocking(g, *masks).witness

    def test_cut_drops_an_edge_the_extension_keeps(self):
        """The cut drops ``V1 -> V4``, as ``V1 -> V4 - V7`` is a proper
        b-possibly-causal path into ``Y``.  The kept extension orients
        ``V7 -> V4``, so its proper back-door graph keeps the edge; ``V4``
        is forbidden, so no ``Z`` opens a path through it, and every
        ``Z`` outside the forbidden set passes both routes."""
        edges = [
            "V1 -> V4", "V1 -> V6", "V1 -> V7", "V2 -> V3", "V2 -> V4", "V2 -> V5",
            "V2 -> V6", "V2 -> V7", "V3 -> V4", "V3 -> V5", "V3 -> V7", "V4 -> V5",
            "V4 -> V6", "V4 -- V7", "V5 -> V6",
        ]  # fmt: skip
        g = parse_graph("".join(f"node V{i}\n" for i in range(1, 8)) + "\n".join(edges))
        x_mask, y_mask, _ = adjustment._query(g, "V1", "V7")
        amenable, _, cut = adjustment._conditions(g, x_mask, y_mask)
        v1, v4 = g.node_index("V1"), g.node_index("V4")
        assert amenable and cut == [(v1, 1 << v4 | y_mask)]
        dag = g._extension
        assert dag.is_directed("V7", "V4")
        assert reach_backdoor(dag, x_mask, y_mask)[v1] >> v4 & 1
        assert not adjustment._backdoor(g, cut)[1][v1] >> v4 & 1
        taken = x_mask | y_mask | forbidden_nodes(g, x_mask, y_mask)
        free = [v for v in range(len(g)) if not taken >> v & 1]
        assert g._names(sum(1 << v for v in free)) == {"V2", "V3"}
        for k in range(len(free) + 1):
            for zs in combinations(free, k):
                z_mask = sum(1 << v for v in zs)
                assert extension_blocking(g, x_mask, y_mask, z_mask).ok
                assert satisfies_b_adjustment(g, "V1", "V7", g._names(z_mask)).overall

    def test_a_second_extension_gives_every_verdict(self):
        """The blocking verdict on the kept extension is the one on the
        last DAG that ``enumerate_dags`` lists, for every amenable query
        with one or two treatments and one outcome on random maximal
        PDAGs of 3-8 nodes, and random candidate sets outside the
        forbidden set."""
        rng = np.random.default_rng(2038)
        verdicts, other = [], 0
        for _ in range(150):
            g, _ = random_mpdag(rng, 8, p_min=3)
            last = list(enumerate_dags(g))[-1]
            other += last != consistent_extension(g)
            for kx in (1, 2):
                for xs in combinations(g.nodes, kx):
                    for y in g.nodes:
                        if y in xs:
                            continue
                        x_mask, y_mask, _ = adjustment._query(g, xs, y)
                        amenable, sure, cut = adjustment._conditions(g, x_mask, y_mask)
                        if not amenable:
                            continue
                        taken = x_mask | y_mask | adjustment._forward_reach(g, sure, g._ch)
                        free = [v for v in range(len(g)) if not taken >> v & 1]
                        for _ in range(4):
                            z_mask = sum(1 << v for v in free if rng.random() < 0.5)
                            kept = satisfies_b_adjustment(g, xs, y, g._names(z_mask))
                            masks = adjustment._backdoor(g, cut, last)
                            second = adjustment._d_separated(*masks, x_mask, y_mask, z_mask)
                            assert kept.blocking_ok == second, (g, xs, y, z_mask)
                            verdicts.append(second)
        assert (len(verdicts), verdicts.count(False), other) == (38464, 23881, 45)


class TestOnePassPerQuery:
    @pytest.fixture()
    def enumerations(self, monkeypatch):
        """Calls of the one simple-path enumerator, in every module that binds it."""
        calls = []
        real = causal_paths._simple_paths

        def counting(*args):
            calls.append(args)
            real(*args)

        for module in (causal_paths, adjustment, reference):
            monkeypatch.setattr(module, "_simple_paths", counting)
        return calls

    def test_fixture_counts_the_forbidden_set_enumeration(self, enumerations):
        # The walks bound on_path loosely here, so the paths are walked.
        g = parse_graph("X -- S\nS -- A\nA -- W\nA -- Y")
        forbidden_set(g, "X", "Y")
        assert len(enumerations) == 1

    @pytest.mark.parametrize(
        "query",
        [
            lambda g: adjust_set(g, "X", "Y"),
            lambda g: satisfies_b_adjustment(g, "X", "Y", "V1"),
            lambda g: list_adjustment_sets(g, "X", "Y"),
            lambda g: check_b_blocking(g, "X", "Y", "V1"),
            lambda g: is_amenable(g, "X", "Y"),
            lambda g: forbidden_set(g, "X", "Y"),
        ],
        ids=[
            "adjust_set",
            "satisfies_b_adjustment",
            "list_adjustment_sets",
            "check_b_blocking",
            "is_amenable",
            "forbidden_set",
        ],
    )
    def test_one_path_enumeration(self, fig3_g1, enumerations, query):
        # The query routes decide by reachability, and the walks bound the
        # forbidden set's on_path tightly: no path is enumerated.
        query(fig3_g1)
        assert len(enumerations) == 0

    @pytest.fixture()
    def searches(self, monkeypatch):
        """Calls of the possible-descent reach and of the shortest-walk
        search from the adjustment module, by name."""
        calls = []
        for name in ("_forward_reach", "_least_shortest_path"):

            def counting(*args, real=getattr(adjustment, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(adjustment, name, counting)
        return calls

    @pytest.mark.parametrize(
        "query, reaches, walks",
        [
            (lambda g: adjust_set(g, "X", "Y"), 3, 0),
            (lambda g: list_adjustment_sets(g, "X", "Y"), 2, 0),
            (lambda g: satisfies_b_adjustment(g, "X", "Y", "A"), 2, 0),
            (lambda g: is_amenable(g, "X", "Y"), 1, 0),
            (lambda g: is_amenable(g, "B", "Y"), 1, 1),
        ],
        ids=["adjust_set", "list", "satisfies_passing", "amenable", "not_amenable"],
    )
    def test_one_path_starts_pass_decides_the_conditions(self, searches, query, reaches, walks):
        """One reach from Y per treatment decides amenability, the zero
        effect, the forbidden seeds and the pruning; the shortest-walk
        search runs only to name a non-amenable query's witness."""
        g = parse_graph("A -> X\nA -> Y\nX -> Y\nB -- A")
        query(g)
        assert searches.count("_forward_reach") == reaches
        assert searches.count("_least_shortest_path") == walks

    def test_listing_checks_acyclicity_once_not_per_subset(self, monkeypatch):
        g = parse_graph("A1 -> X\nA2 -> X\nA3 -> X\nA4 -> X\nX -> Y")
        calls = []
        real = PdagGraph.is_dag

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PdagGraph, "is_dag", counting)
        assert list_adjustment_sets(g, "X", "Y", minimal_only=True) == [frozenset()]
        one_candidate = len(calls)
        calls.clear()
        assert len(list_adjustment_sets(g, "X", "Y")) == 16
        assert len(calls) == one_candidate

    @pytest.fixture()
    def dsep_calls(self, monkeypatch):
        """The candidate sets the listing tests, as node masks."""
        calls = []
        real = adjustment._d_separated

        def counting(pa, ch, xs, ys, zs):
            calls.append(zs)
            return real(pa, ch, xs, ys, zs)

        monkeypatch.setattr(adjustment, "_d_separated", counting)
        return calls

    def test_minimal_listing_tests_no_superset_of_a_found_set(self, dsep_calls):
        text = "\n".join(f"A{i} -> X" for i in range(1, 11)) + "\nX -> Y"
        g = parse_graph(text)
        assert list_adjustment_sets(g, "X", "Y", minimal_only=True) == [frozenset()]
        assert dsep_calls == [0]

    def test_minimal_listing_searches_only_ancestors(self, dsep_calls):
        g = parse_graph("A -> X\nA -> B\nB -> Y\nX -> Y\nnode C")
        full = list_adjustment_sets(g, "X", "Y")
        assert len(dsep_calls) == 8 and len(full) == 6
        assert frozenset({"A", "C"}) in full
        dsep_calls.clear()
        minimal = list_adjustment_sets(g, "X", "Y", minimal_only=True)
        assert minimal == [frozenset({"A"}), frozenset({"B"})]
        # {}, {A} and {B}: C is no ancestor of X or Y, and {A, B} holds {A}.
        assert [g._names(z) for z in dsep_calls] == [frozenset(), *minimal]


class TestTheoremLevelAgreement:
    def test_criterion_matches_every_dag_small(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            g, _ = random_mpdag(rng, 5)
            dags = list(enumerate_dags(g))
            nodes = list(g.nodes)
            for x in nodes:
                for y in nodes:
                    if x == y:
                        continue
                    rest = [n for n in nodes if n not in (x, y)]
                    for r in range(len(rest) + 1):
                        for zs in combinations(rest, r):
                            mine = satisfies_b_adjustment(g, x, y, zs).overall
                            oracle = all(
                                dag_adjustment_criterion(d, {x}, {y}, zs)
                                for d in dags
                            )
                            assert mine == oracle, (x, y, zs)

    def test_criterion_matches_every_dag_for_node_sets(self):
        # treatment and outcome sets with more than one member
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 60:
            g, _ = random_mpdag(rng, 6, p_min=4)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            xs = frozenset(nodes[:2])
            ys_size = 2 if len(nodes) >= 5 and rng.random() < 0.5 else 1
            ys = frozenset(nodes[2 : 2 + ys_size])
            rest = nodes[2 + ys_size :]
            dags = list(enumerate_dags(g))
            for r in range(len(rest) + 1):
                for zs in combinations(rest, r):
                    mine = satisfies_b_adjustment(g, xs, ys, zs).overall
                    oracle = all(
                        dag_adjustment_criterion(d, xs, ys, zs) for d in dags
                    )
                    assert mine == oracle, (sorted(xs), sorted(ys), zs)
            exists = any(
                satisfies_b_adjustment(g, xs, ys, zs).overall
                for r in range(len(rest) + 1)
                for zs in combinations(rest, r)
            )
            assert exists == (adjust_set(g, xs, ys) is not None)
            checked += 1


def test_answers_do_not_depend_on_node_declaration_order():
    """Random maximal PDAGs rebuilt with their nodes declared in a drawn
    order give the same answers: possible descendants and ancestors of
    every node, amenability and its witness, the forbidden set, the
    canonical set, both listings as sets, and the verdict's boolean
    fields (and its witness on a non-amenable query, which is least by
    node names, not by declaration order)."""
    rng = np.random.default_rng(2032)

    def fields(verdict):
        named = verdict.witness if not verdict.amenable else None
        return (verdict.amenable, verdict.forbidden_ok, verdict.blocking_ok, verdict.overall,
                verdict.zero_effect, named)  # fmt: skip

    reordered = queries = amenable = overall = 0
    for _ in range(200):
        g, _ = random_mpdag(rng, 8, p_min=4)
        order = [g.nodes[i] for i in rng.permutation(len(g))]
        h = PdagGraph(order, directed=g.directed_edges(), undirected=g.undirected_edges())
        reordered += h.nodes != g.nodes
        for v in g.nodes:
            assert b_possible_descendants(h, v) == b_possible_descendants(g, v)
            assert b_possible_ancestors(h, v) == b_possible_ancestors(g, v)
        nodes = list(g.nodes)
        for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2)):
            rng.shuffle(nodes)
            xs, ys = nodes[:kx], nodes[kx : kx + ky]
            zs = [v for v in nodes[kx + ky :] if rng.random() < 0.5]
            assert is_amenable(h, xs, ys) == is_amenable(g, xs, ys), (g, xs, ys)
            assert forbidden_set(h, xs, ys) == forbidden_set(g, xs, ys), (g, xs, ys)
            assert adjust_set(h, xs, ys) == adjust_set(g, xs, ys), (g, xs, ys)
            for minimal in (False, True):
                want = set(list_adjustment_sets(g, xs, ys, minimal_only=minimal))
                assert set(list_adjustment_sets(h, xs, ys, minimal_only=minimal)) == want
            verdict = satisfies_b_adjustment(g, xs, ys, zs)
            assert fields(satisfies_b_adjustment(h, xs, ys, zs)) == fields(verdict), (g, xs, ys, zs)
            queries += 1
            amenable += verdict.amenable
            overall += verdict.overall
    assert (reordered, queries, amenable, overall) == (195, 800, 534, 175)
