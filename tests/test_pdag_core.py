from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdagkit.pdag_core import (
    GraphParseError,
    PdagGraph,
    _parse_canonical,
    _parse_lines,
    has_directed_cycle,
    parse_graph,
    serialize_graph,
)
from mpdagkit.reference import (
    COLLIDER,
    DEFINITE_NON_COLLIDER,
    ENDPOINT,
    NOT_DEFINITE,
    classify_definite_status,
    classify_path,
)

from conftest import edge_states, same_graph


def random_graph(rng: np.random.Generator, p: int) -> PdagGraph:
    names = [f"N{i}" for i in range(p)]
    directed, undirected = [], []
    for i in range(p):
        for j in range(i + 1, p):
            roll = rng.integers(4)
            if roll == 1:
                undirected.append((names[i], names[j]))
            elif roll == 2:
                directed.append((names[i], names[j]))
            elif roll == 3:
                directed.append((names[j], names[i]))
    return PdagGraph(names, directed=directed, undirected=undirected)


class TestParsing:
    def test_figure_one_skeleton(self, fig1_cpdag):
        assert fig1_cpdag.nodes == ("A", "B", "D", "C")
        assert edge_states(fig1_cpdag) == {
            ("A", "B"): "--",
            ("A", "D"): "--",
            ("B", "C"): "--",
            ("B", "D"): "--",
            ("C", "D"): "--",
        }

    def test_isolated_node_directive(self):
        g = parse_graph("node X")
        assert g.nodes == ("X",)
        assert g.edge_count() == 0

    def test_duplicate_pair_rejected(self):
        with pytest.raises(GraphParseError, match="duplicate edge") as err:
            parse_graph("A -> B\nB -> A")
        assert err.value.line == 2

    def test_duplicate_pair_mixed_kinds(self):
        with pytest.raises(GraphParseError, match="duplicate edge"):
            parse_graph("A -- B\nA -> B")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_graph("A -> A")

    def test_unknown_directive(self):
        with pytest.raises(GraphParseError, match="unknown directive") as err:
            parse_graph("# fine\nnodes X")
        assert err.value.line == 2

    def test_syntax_error_has_line_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("A -- B\n\nA => C")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\nA -- B  # trailing\n\nnode C\n")
        assert g.nodes == ("A", "B", "C")
        assert g.is_undirected("A", "B")

    def test_weight_rejected_on_directed_edges(self):
        with pytest.raises(GraphParseError, match="line 2: too many tokens on edge statement"):
            parse_graph("node A\nA -> B 0.75")

    def test_weight_rejected_on_undirected_edges(self):
        with pytest.raises(GraphParseError, match="line 1: too many tokens on edge statement"):
            parse_graph("A -- B 0.75")

    def test_bad_name_rejected(self):
        with pytest.raises(GraphParseError, match="invalid node name"):
            parse_graph("1up -> B")

    def test_round_trip_fixture(self, fig1_cpdag):
        assert parse_graph(serialize_graph(fig1_cpdag)) == fig1_cpdag

    def test_node_named_node_round_trips(self):
        g = PdagGraph(["x", "node", "y"], directed=[("node", "y")], undirected=[("x", "node")])
        text = serialize_graph(g)
        assert text == "node x\nnode node\nnode y\nnode -- x\nnode -> y\n"
        assert parse_graph(text) == g and _parse_canonical(text) == g
        with pytest.raises(GraphParseError, match="line 1: node directive takes exactly one name"):
            parse_graph("node A B")

    def test_round_trip_random(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            g = random_graph(rng, int(rng.integers(1, 16)))
            assert parse_graph(serialize_graph(g)) == g


# Names for the parse sweep: ``node`` is also the keyword, and the
# last three are not names at all.
SWEEP_NAMES = ("A", "B", "C", "D", "E", "x_1", "node", "1A", "A-B", "\xe9")
# Spellings of a statement that only the per-line parser reads.
RESPELLINGS = (
    lambda line: line.replace(" ", "\t", 1),
    lambda line: " " + line.replace(" ", "  "),
    lambda line: line + "  # note",
    lambda line: line + " 0.5",
    lambda line: line + "\r",
    lambda line: "# note\n\n" + line,
)


@st.composite
def graph_texts(draw):
    """Up to seven statements, mostly canonical ``node NAME``, ``A -- B``
    and ``A -> B`` lines over seven names, ``node`` among them, with each
    edge on a new pair.  About one statement in five is a special case:
    one that only the per-line parser decides, which is a repeat of an
    earlier pair in either order (the most common), a self-loop or a
    statement over the whole pool, bad names too; or an edge from the
    name ``node``, which is canonical as well.  One statement in eight
    is respelled, and one text in six lacks its final newline."""
    names = SWEEP_NAMES[:7]
    lines, pairs = [], []
    for _ in range(draw(st.integers(0, 7))):
        roll = draw(st.integers(0, 31))
        op = draw(st.sampled_from(("->", "--", "->")))
        u = draw(st.sampled_from(names[:-1]))
        fresh = [w for w in names if w != u and (u, w) not in pairs and (w, u) not in pairs]
        v = draw(st.sampled_from(fresh or [w for w in names if w != u]))
        if roll in (27, 28) and pairs:
            u, v = draw(st.sampled_from(pairs))
            u, v = (v, u) if draw(st.booleans()) else (u, v)
        elif roll == 29:
            v = u
        elif roll == 30:
            u = "node"
        elif roll == 31:
            u, v = draw(st.sampled_from(SWEEP_NAMES)), draw(st.sampled_from(SWEEP_NAMES))
        if roll < 20 or roll > 26:
            pairs.append((u, v))
            line = f"{u} {op} {v}"
        else:
            line = f"node {v if roll < 26 else draw(st.sampled_from(SWEEP_NAMES))}"
        if draw(st.integers(0, 7)) == 7:
            line = draw(st.sampled_from(RESPELLINGS))(line)
        lines.append(line)
    end = "" if draw(st.integers(0, 5)) == 5 else "\n"
    return "\n".join(lines) + end if lines else end


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)
    return "graph", g.nodes, g._pa, g._ch, g._und


def test_one_pass_parse_matches_the_per_line_oracle():
    """``parse_graph`` gives the per-line parser's graph (nodes in order
    and masks) or its error text and line, whichever route it takes; the
    one-pass route is taken only on canonical texts it can decide, and
    each route is swept on enough examples."""
    routes = Counter()

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(text=graph_texts())
    def sweep(text):
        want = parse_outcome(_parse_lines, text)
        assert parse_outcome(parse_graph, text) == want
        routes["one pass" if _parse_canonical(text) is not None else want[0]] += 1

    sweep()
    floors = {"one pass": 150, "graph": 100, "error": 150}
    assert all(routes[route] >= floor for route, floor in floors.items()), routes


class TestGraphValue:
    def test_duplicate_node_name(self):
        with pytest.raises(ValueError, match="duplicate node"):
            PdagGraph(["A", "A"])

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="not a declared node"):
            PdagGraph(["A"], directed=[("A", "B")])

    @pytest.mark.parametrize(
        "nodes, directed, undirected, message",
        [
            (["A", "1B"], [], [], "invalid node name: '1B'"),
            (["A"], [("A", "A")], [], "self-loop on 'A'"),
            (["A", "B"], [("B", "A")], [("A", "B")], "duplicate edge between 'A' and 'B'"),
        ],
        ids=["invalid_name", "self_loop", "duplicate_edge"],
    )
    def test_constructor_rejects(self, nodes, directed, undirected, message):
        with pytest.raises(ValueError, match=message):
            PdagGraph(nodes, directed=directed, undirected=undirected)

    def test_edge_queries(self, fig1_mpdag):
        assert fig1_mpdag.edge("D", "B") == "->"
        assert fig1_mpdag.edge("B", "D") == "<-"
        assert fig1_mpdag.edge("A", "B") == "--"
        assert fig1_mpdag.edge("A", "C") is None

    def test_hashable_value_semantics(self, fig1_mpdag):
        twin = PdagGraph(
            fig1_mpdag.nodes,
            directed=fig1_mpdag.directed_edges(),
            undirected=fig1_mpdag.undirected_edges(),
        )
        assert twin == fig1_mpdag
        assert hash(twin) == hash(fig1_mpdag)
        assert len({twin, fig1_mpdag}) == 1


class TestNeighborhood:
    """A node's parents, children and siblings."""

    def test_mpdag_example(self, fig1_mpdag):
        assert fig1_mpdag.parents("B") == {"D"}
        assert fig1_mpdag.children("B") == frozenset()
        assert fig1_mpdag.siblings("B") == {"A", "C"}

    def test_cpdag_example(self, fig1_cpdag):
        assert fig1_cpdag.parents("B") == frozenset()
        assert fig1_cpdag.children("B") == frozenset()
        assert fig1_cpdag.siblings("B") == {"A", "C", "D"}

    def test_isolated_node(self):
        g = parse_graph("node X")
        assert g.parents("X") == g.children("X") == g.siblings("X") == frozenset()

    def test_unknown_node(self, fig1_cpdag):
        for view in (fig1_cpdag.parents, fig1_cpdag.children, fig1_cpdag.siblings):
            with pytest.raises(KeyError, match="unknown node"):
                view("Z")

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng, 8)
            for v in g.nodes:
                parents, children, siblings = g.parents(v), g.children(v), g.siblings(v)
                union = parents | children | siblings
                assert union == g.adjacent(v)
                assert len(parents) + len(children) + len(siblings) == len(union)


class TestDefiniteStatus:
    def test_shielded_mixed_triple_is_not_definite(self, fig1_mpdag):
        labels = classify_definite_status(fig1_mpdag, ("D", "B", "C"))
        assert labels == (ENDPOINT, NOT_DEFINITE, ENDPOINT)

    def test_collider(self):
        g = parse_graph("X -> Z\nY -> Z")
        assert classify_definite_status(g, ("X", "Z", "Y"))[1] == COLLIDER

    def test_unshielded_undirected_triple(self):
        g = parse_graph("A -- B\nB -- C")
        assert (
            classify_definite_status(g, ("A", "B", "C"))[1] == DEFINITE_NON_COLLIDER
        )

    def test_edge_out_is_definite_non_collider(self):
        g = parse_graph("B -> A\nB -> C\nA -- C")
        assert (
            classify_definite_status(g, ("A", "B", "C"))[1] == DEFINITE_NON_COLLIDER
        )

    def test_reversal_preserves_labels(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            g = random_graph(rng, 6)
            path = _random_path(g, rng)
            if path is None:
                continue
            forward = classify_definite_status(g, path)
            backward = classify_definite_status(g, path[::-1])
            assert forward == backward[::-1]


def _random_path(g, rng, max_len=5):
    start = g.nodes[int(rng.integers(len(g.nodes)))]
    path = [start]
    seen = {start}
    while len(path) < max_len:
        options = sorted(g.adjacent(path[-1]) - seen)
        if not options:
            break
        nxt = options[int(rng.integers(len(options)))]
        path.append(nxt)
        seen.add(nxt)
    return tuple(path) if len(path) >= 2 else None


class TestCycles:
    def test_mpdag_has_none(self, fig1_mpdag):
        assert not has_directed_cycle(fig1_mpdag)

    def test_three_cycle(self):
        g = PdagGraph("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])
        assert has_directed_cycle(g)

    def test_undirected_triangle(self):
        g = PdagGraph("ABC", undirected=[("A", "B"), ("B", "C"), ("A", "C")])
        assert not has_directed_cycle(g)

    def test_matches_self_reachability(self):
        def on_cycle(g, v):
            seen, stack = set(), list(g.children(v))
            while stack:
                w = stack.pop()
                if w == v:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.extend(g.children(w))
            return False

        rng = np.random.default_rng(17)
        verdicts = set()
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(1, 8)))
            cyclic = any(on_cycle(g, v) for v in g.nodes)
            assert has_directed_cycle(g) == cyclic
            assert g.is_dag() == (not cyclic and not g.undirected_edges())
            verdicts.add(cyclic)
        assert verdicts == {True, False}


class TestNodePath:
    """The path checks both classifiers run on a node sequence, in order:
    length, repeats, unknown names, adjacency."""

    CLASSIFIERS = (classify_path, classify_definite_status)

    def test_rejects_short_and_repeated(self, fig1_cpdag):
        for classify in self.CLASSIFIERS:
            with pytest.raises(ValueError, match="^a path needs at least two nodes$"):
                classify(fig1_cpdag, ("A",))
            with pytest.raises(ValueError, match=r"^path repeats a node: \('A', 'B', 'A'\)$"):
                classify(fig1_cpdag, ("A", "B", "A"))
            with pytest.raises(ValueError, match="^path repeats a node"):
                classify(fig1_cpdag, ("Q", "Q"))  # before the unknown name

    def test_rejects_non_adjacent_step(self, fig1_cpdag):
        for classify in self.CLASSIFIERS:
            with pytest.raises(ValueError, match="^consecutive path nodes not adjacent: A, C$"):
                classify(fig1_cpdag, ("A", "C"))
            with pytest.raises(KeyError, match="unknown node: 'Q'"):
                classify(fig1_cpdag, ("A", "C", "Q"))  # before the gap
            assert classify(fig1_cpdag, ["A", "B"]) == classify(fig1_cpdag, ("A", "B"))

    def test_bare_string_is_one_node_name(self):
        g = parse_graph("A -- B")
        for classify in self.CLASSIFIERS:
            with pytest.raises(ValueError, match="^a path needs at least two nodes$"):
                classify(g, "AB")


def test_same_graph_helper(fig1_cpdag):
    reordered = PdagGraph(
        sorted(fig1_cpdag.nodes),
        undirected=fig1_cpdag.undirected_edges(),
    )
    assert same_graph(fig1_cpdag, reordered)
    assert reordered != fig1_cpdag
