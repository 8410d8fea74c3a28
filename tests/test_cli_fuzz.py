"""A CLI fuzz that reaches the query paths.

Each example writes a random graph file of one to seven nodes (any mix
of edges, so cyclic and non-closed graphs are included, or a DAG or its
CPDAG), an optional background file, a data file of a drawn size, and runs one subcommand
through ``cli.main`` in process.  It checks the exit-code contract: the
code is 0, 1 or 2 and no exception escapes, and exit 2 prints nothing
on stdout and an ``error: `` message on stderr.  An ``orient`` that
succeeds must print a graph with the input's skeleton.

The check that a non-maximal graph exits 1 on every query subcommand
waits for the maximality gate at the query entry points (ROADMAP item
1): today ``possde`` and ``possan`` answer on a directed cycle.
``simulate`` reads no graph file and has its own tests.
"""

import contextlib
import io
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdagkit import cli
from mpdagkit.meek import cpdag_of
from mpdagkit.pdag_core import parse_graph, serialize_graph

POOL = "ABCDEFG"
UNKNOWN = "Z"


@st.composite
def cli_calls(draw):
    """(subcommand, graph text, flag arguments, background text or None,
    data text).  The graph is any mix of edges, a DAG, or the CPDAG of
    one, so that the query routes see maximal inputs too.  Node lists
    take disjoint runs of a shuffle of the graph's names.  About one
    draw in eight makes a mistake: a node declared by no statement, a
    list that is empty, repeats a name or names an unknown node, a wrong
    mix of ``adjust`` modes, a missing data column or too few rows."""

    def mistake():
        return draw(st.integers(0, 7)) == 7

    names = list(POOL[: 7 - draw(st.integers(0, 6))])  # drawn small values favour 7 nodes
    shape = draw(st.sampled_from(("any", "dag", "cpdag")))
    lines = [f"node {v}" for v in names if not mistake()]
    rank = draw(st.permutations(range(len(names))))  # the DAG's topological order
    for i, j in combinations(range(len(names)), 2):
        a, b = names[i], names[j]
        if shape == "any":
            op = draw(st.sampled_from((None, "->", "<-", "--")))
        else:
            op = draw(st.sampled_from((None, "->" if rank[i] < rank[j] else "<-")))
        if op == "<-":
            lines.append(f"{b} -> {a}")
        elif op is not None:
            lines.append(f"{a} {op} {b}")
    graph = "\n".join(lines) + "\n"
    if shape == "cpdag":
        graph = serialize_graph(cpdag_of(parse_graph(graph)))

    shuffled = draw(st.permutations(names))

    def node_list(min_size=1, max_size=2):
        size = draw(st.integers(min_size, max_size))
        taken = [shuffled.pop() for _ in range(min(size, len(shuffled)))]
        if mistake():
            taken = draw(st.sampled_from(([], taken + taken[:1], taken + [UNKNOWN])))
        return ",".join(taken)

    command = draw(st.sampled_from(("validate", "orient", "possde", "possan", "adjust", "ida")))
    flags, background = [], None
    if command == "orient":
        if not mistake():
            pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
            background = "".join(f"{u} -> {v}\n" for u, v in draw(st.lists(pairs, max_size=3)))
    elif command in ("possde", "possan"):
        flags = ["--x", node_list()]
    elif command == "adjust":
        flags = ["--x", node_list(), "--y", node_list()]
        mode = draw(st.sampled_from((["--find"], ["--list"], ["--list", "--minimal"], ["--z"])))
        if mistake():
            mode = draw(st.sampled_from(([], ["--find", "--list"], ["--find", "--minimal"])))
        for flag in mode:
            flags += [flag, node_list(0)] if flag == "--z" else [flag]
    elif command == "ida":
        y = node_list(max_size=1)  # drawn first: --y takes one node, --x may take two
        flags = ["--x", node_list(), "--y", y]

    columns = draw(st.permutations(names))
    if mistake():
        columns = columns[1:]
    size = len(names) + 1 + draw(st.integers(0, 10))
    if mistake():
        size = draw(st.integers(0, len(names)))
    rows = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((size, len(columns)))
    data = ",".join(columns) + "\n" + "".join(",".join(f"{v:.6f}" for v in r) + "\n" for r in rows)
    return command, graph, flags, background, data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(call=cli_calls())
def test_every_call_keeps_the_exit_code_contract(workdir, call):
    command, graph, flags, background, data = call
    paths = {name: workdir / name for name in ("graph.g", "bg.g", "data.csv")}
    paths["graph.g"].write_text(graph)
    paths["data.csv"].write_text(data)
    argv = [command, str(paths["graph.g"]), *flags]
    if background is not None:
        paths["bg.g"].write_text(background)
        argv += ["--bg", str(paths["bg.g"])]
    if command == "ida":
        argv += ["--data", str(paths["data.csv"])]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)

    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()
    if code == 0 and command == "orient":
        assert parse_graph(out.getvalue()).skeleton() == parse_graph(graph).skeleton()
