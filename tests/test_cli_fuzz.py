"""A CLI fuzz that reaches the query paths.

Each example writes a random graph file of one to seven nodes (any mix
of edges, so cyclic and non-closed graphs are included, a DAG, its
CPDAG, or a maximal PDAG: the CPDAG of a dense DAG with one of the DAG's
orientations merged), an optional background file, a data file of a
drawn size, and runs one subcommand through ``cli.main`` in process.  It
checks the exit-code contract: the code is 0, 1 or 2 and no exception
escapes, and exit 2 prints nothing on stdout and an ``error: `` message
on stderr.  A drawn node-list mistake (a list that is empty, repeats a
name, names an unknown node or one of an earlier list) or ``adjust``
mode mistake must exit 2, with an ``error: --`` line naming the flag
unless a mode mistake or an unknown name is reported first.  An
``orient`` that succeeds must print a graph with the input's skeleton.
On a maximal graph of at most six nodes, a ``possde`` or ``possan`` that
succeeds must print the ``oracle_reach`` set, and a valid ``adjust``
query is run in all four modes against the DAG-level criterion over
every DAG of the class: ``--z``'s verdict for each set of the other
nodes, ``--find``'s set (exit 1 only when no set is valid), and the
``--list`` and ``--list --minimal`` listings.  An ``ida`` that succeeds
on at most six nodes must print one line per distinct parent tuple over
the DAGs of the class, with the effect of an unshared least-squares fit
on the file's data, compared as the printed text.  The draws are
weighted so that about 55 of the 400 examples reach the ``ida`` check,
many on maximal PDAGs whose background orientation makes the parent-set
rule reject a sibling clique, and about 30 the ``adjust`` one; the
statistics (``--hypothesis-show-statistics``) count them and the
mistakes drawn.

The check that a non-maximal graph exits 1 on every query subcommand
waits for the maximality gate at the query entry points (ROADMAP item
1): today ``possde`` and ``possan`` answer on a directed cycle.
``simulate`` reads no graph file and has its own tests.
"""

import contextlib
import io
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mpdagkit import cli
from mpdagkit.causal_paths import ANCESTORS, DESCENDANTS, oracle_reach
from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.ida import _fit_coefficient_matrix
from mpdagkit.meek import construct_max_pdag, cpdag_of, validate_maximal_pdag
from mpdagkit.pdag_core import parse_graph, serialize_graph

from helpers import dag_adjustment_criterion, global_merge_combinations, read_csv_rows

POOL = "ABCDEFG"
UNKNOWN = "Z"
# Repeats weight the draws: ``ida`` is four of ten commands, ``adjust``
# two, and ``mpdag`` three of six shapes, so that many ``ida`` draws reach
# its parent-set rule on graphs with a background orientation and many
# ``adjust`` draws reach the DAG-level oracle.
COMMANDS = (
    "ida", "validate", "orient", "possde", "possan", "adjust", "ida", "ida", "adjust", "ida"
)
SHAPES = ("mpdag", "any", "dag", "cpdag", "mpdag", "mpdag")


@st.composite
def cli_calls(draw):
    """(subcommand, graph text, flag arguments, background text or None,
    data text, the node-list and mode mistakes drawn, and the start of
    the error line they must give, or None).  The graph is any mix of
    edges, a DAG, the CPDAG of one, or that CPDAG with one of the DAG's
    orientations merged (on a DAG drawn with two edges in three), so
    that the query routes see maximal inputs too.  Node lists take
    disjoint runs of a shuffle of the graph's names.  About one draw in
    eight makes a mistake: a node declared by no statement, a list that
    is empty, repeats a name, names an unknown node or one of an earlier
    list, a wrong mix of ``adjust`` modes, a missing data column or too
    few rows."""

    def mistake():
        return draw(st.integers(0, 7)) == 7

    names = list(POOL[: 7 - draw(st.integers(0, 6))])  # drawn small values favour 7 nodes
    shape = draw(st.sampled_from(SHAPES))
    lines = [f"node {v}" for v in names if not mistake()]
    rank = draw(st.permutations(range(len(names))))  # the DAG's topological order
    for i, j in combinations(range(len(names)), 2):
        a, b = names[i], names[j]
        if shape == "any":
            op = draw(st.sampled_from((None, "->", "<-", "--")))
        else:
            forward = "->" if rank[i] < rank[j] else "<-"
            op = draw(st.sampled_from((forward, forward, None) if shape == "mpdag" else (None, forward)))
        if op == "<-":
            lines.append(f"{b} -> {a}")
        elif op is not None:
            lines.append(f"{a} {op} {b}")
    graph = "\n".join(lines) + "\n"
    if shape in ("cpdag", "mpdag"):
        dag = parse_graph(graph)
        g = cpdag_of(dag)
        if shape == "mpdag" and g.undirected_edges():
            a, b = draw(st.sampled_from(g.undirected_edges()))
            g = construct_max_pdag(g, [(a, b) if dag.is_directed(a, b) else (b, a)]).graph
        graph = serialize_graph(g)

    shuffled = draw(st.permutations(names))
    listed, mistakes = [], []  # the names of the lists so far; the mistakes drawn

    def node_list(min_size=1, max_size=2):
        size = draw(st.integers(min_size, max_size))
        taken = [shuffled.pop() for _ in range(min(size, len(shuffled)))]
        if listed and mistake():  # a name of an earlier list
            taken.append(draw(st.sampled_from(listed)))
            mistakes.append("overlap")
        elif mistake():
            kind = draw(st.sampled_from(("empty", "repeat", "unknown")))
            taken = {"empty": [], "repeat": taken + taken[:1], "unknown": taken + [UNKNOWN]}[kind]
            if taken or min_size:  # an empty --z is no mistake
                mistakes.append(kind if taken else "empty")
        listed.extend(taken)
        return ",".join(taken)

    command = draw(st.sampled_from(COMMANDS))
    flags, background = [], None
    if command == "orient":
        if not mistake():
            pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
            background = "".join(f"{u} -> {v}\n" for u, v in draw(st.lists(pairs, max_size=3)))
    elif command in ("possde", "possan"):
        flags = ["--x", node_list()]
    elif command == "adjust":
        mode = draw(st.sampled_from((["--find"], ["--list"], ["--list", "--minimal"], ["--z"])))
        if mistake():
            mode = draw(st.sampled_from(([], ["--find", "--list"], ["--find", "--minimal"])))
            mistakes.append("modes")
        flags = ["--x", node_list(), "--y", node_list()]
        for flag in mode:
            flags += [flag, node_list(0)] if flag == "--z" else [flag]
    elif command == "ida":
        y = node_list(max_size=1)  # drawn first: --y takes one node, --x may take two
        flags = ["--x", node_list(), "--y", y]
        listed.append(y)  # --y is one name, so "A,A" or "" names no node

    columns = draw(st.permutations(names))
    if mistake():
        columns = columns[1:]
    size = len(names) + 1 + draw(st.integers(0, 10))
    if mistake():
        size = draw(st.integers(0, len(names)))
    rows = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((size, len(columns)))
    data = ",".join(columns) + "\n" + "".join(",".join(f"{v:.6f}" for v in r) + "\n" for r in rows)
    # Modes are checked first, then the node-list rule: unknown names
    # before the rule's own errors, which name a flag.
    error = None
    if "modes" in mistakes:
        error = ("error: choose exactly one", "error: --minimal needs --list")
    elif mistakes:
        known = set(parse_graph(graph).nodes)
        unknown = any(name not in known for name in listed)
        error = ("error: unknown node: ",) if unknown else ("error: --",)
    return command, graph, flags, background, data, mistakes, error


def ida_lines(g, xs, y, data, columns) -> set:
    """The lines ``ida`` prints before ``unique=``, one per distinct
    parent tuple of ``xs`` over the DAGs of ``g``'s class.  A single
    effect is the coefficient of ``x`` in one least-squares fit of ``y``
    on ``x`` and the parents; a joint vector is read off the unshared
    fit of the extension of the graph the merge oracle built for it."""
    col = {name: j for j, name in enumerate(columns)}
    tuples = {tuple(frozenset(d.parents(x)) for x in xs) for d in enumerate_dags(g)}

    def text(parents):
        return "{" + ", ".join(sorted(parents, key=g.node_index)) + "}"

    if len(xs) == 1:
        lines = set()
        for (parents,) in tuples:
            value = 0.0
            if y not in parents:
                names = [xs[0]] + sorted(parents, key=g.node_index)
                design = np.column_stack([np.ones(len(data))] + [data[:, col[v]] for v in names])
                solution, _, rank, _ = np.linalg.lstsq(design, data[:, col[y]], rcond=None)
                value = solution[1] if rank == design.shape[1] else math.nan
            lines.add(f"parents={text(parents)} effect={value:.10g}")
        return lines
    merged = {entry.parents: m for entry, m in global_merge_combinations(g, xs)}
    assert set(merged) == tuples
    lines = set()
    for parents in tuples:
        B = _fit_coefficient_matrix(consistent_extension(merged[parents]), data, col)
        if np.isnan(B).any():
            values = [math.nan] * len(xs)
        else:
            totals = np.linalg.inv(np.eye(len(g)) - B)
            values = [totals[g.node_index(x), g.node_index(y)] for x in xs]
        effects = ", ".join(format(v, ".10g") for v in values)
        lines.add(f"parents=({', '.join(map(text, parents))}) effects=({effects})")
    return lines


def set_text(g, names) -> str:
    return "{" + ", ".join(sorted(names, key=g.node_index)) + "}"


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_adjust_modes(g, query):
    """Run ``query`` (``adjust graph --x .. --y ..``) in every mode and
    compare with the DAG-level criterion over the DAGs of ``g``: the
    ``--z`` verdict for each set of the other nodes, ``--find``'s set
    or its exit 1 when no set is valid, and both listings."""
    xs, ys = query[3].split(","), query[5].split(",")
    dags = enumerate_dags(g)
    rest = [v for v in g.nodes if v not in xs and v not in ys]
    valid = []  # by size and node order, as listed
    for size in range(len(rest) + 1):
        for zs in combinations(rest, size):
            code, out, _ = run(query + ["--z", ",".join(zs)])
            assert code == 0
            overall = all(dag_adjustment_criterion(d, xs, ys, zs) for d in dags)
            assert json.loads(out)["overall"] == overall
            if overall:
                valid.append(frozenset(zs))
    code, out, _ = run(query + ["--find"])
    if valid:
        assert code == 0 and out[:-1] in {set_text(g, s) for s in valid}
    else:
        assert code == 1
    minimal = [s for s in valid if not any(other < s for other in valid)]
    for mode, listed in ((["--list"], valid), (["--list", "--minimal"], minimal)):
        assert run(query + mode)[:2] == (0, "".join(set_text(g, s) + "\n" for s in listed))


def is_maximal(g) -> bool:
    report = validate_maximal_pdag(g)
    return report.acyclic and report.closed and report.extendable


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(call=cli_calls())
def test_every_call_keeps_the_exit_code_contract(workdir, call):
    command, graph, flags, background, data, mistakes, error = call
    for kind in mistakes:
        event(f"mistake: {kind}")
    paths = {name: workdir / name for name in ("graph.g", "bg.g", "data.csv")}
    paths["graph.g"].write_text(graph)
    paths["data.csv"].write_text(data)
    argv = [command, str(paths["graph.g"]), *flags]
    if background is not None:
        paths["bg.g"].write_text(background)
        argv += ["--bg", str(paths["bg.g"])]
    if command == "ida":
        argv += ["--data", str(paths["data.csv"])]

    code, out, err = run(argv)

    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert "error: " in err
    if error is not None:
        assert code == 2
        assert err.startswith(error)
    if code == 0 and command == "orient":
        assert parse_graph(out).skeleton() == parse_graph(graph).skeleton()
    if code == 0 and command in ("possde", "possan"):
        g = parse_graph(graph)
        if len(g) <= 6 and is_maximal(g):
            direction = DESCENDANTS if command == "possde" else ANCESTORS
            reached = oracle_reach(g, flags[1].split(","), direction).nodes
            assert out == set_text(g, reached) + "\n"
    if code in (0, 1) and command == "adjust" and len(parse_graph(graph)) <= 6:
        g = parse_graph(graph)
        if is_maximal(g):
            event("adjust oracle")
            check_adjust_modes(g, argv[:6])
    if code == 0 and command == "ida" and len(parse_graph(graph)) <= 6:
        event("ida oracle")
        *printed, unique = out.splitlines()
        assert unique.startswith("unique=")
        xs, y = flags[1].split(","), flags[3]
        data, columns = read_csv_rows(str(paths["data.csv"]))
        expected = ida_lines(parse_graph(graph), xs, y, data, columns)
        assert len(printed) == len(expected) and set(printed) == expected
