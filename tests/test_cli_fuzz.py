"""A CLI fuzz that reaches the query paths.

Each example writes a random graph file of one to seven nodes (any mix
of edges, so cyclic and non-closed graphs are included, a DAG, its
CPDAG, or a maximal PDAG: the CPDAG of a dense DAG with one of the DAG's
orientations merged), an optional background file, a data file of a
drawn size, and runs one subcommand through ``cli.main`` in process.  It
checks the exit-code contract: the code is 0, 1 or 2 and no exception
escapes, and exit 2 prints nothing on stdout and an ``error: `` message
on stderr.  A node-list mistake (a list that is empty, repeats a name,
names an unknown node or one of an earlier list) or ``adjust`` mode
mistake must exit 2, with an ``error: --`` line naming the flag unless a
mode mistake or an unknown name is reported first.  An ``orient`` that
succeeds must print a graph with the input's skeleton.  On a maximal
graph of at most six nodes, a ``possde`` or ``possan`` that succeeds
must print the ``oracle_reach`` set, and a valid ``adjust`` query is
run in all four modes against the DAG-level criterion over every DAG of
the class: ``--z``'s verdict for each set of the other nodes,
``--find``'s set (exit 1 only when no set is valid), and the ``--list``
and ``--list --minimal`` listings.  An ``ida`` that succeeds on at most
six nodes must print one line per distinct parent tuple over the DAGs
of the class, with the effect of an unshared least-squares fit on the
file's data, compared as the printed text.  On a graph that is not a
maximal PDAG, a ``possde``, ``possan``, ``adjust`` or ``ida`` call that
makes no input error must exit 1 and print the first failed maximality
check's message; so must each of them on a valid query of that graph,
``adjust`` in all four modes and ``ida`` on a valid data file.

The examples come from one seeded ``random.Random``, so what they
cover does not move with edits of the test's text.  Every node-list
mistake of :data:`SLIPS` is made :data:`SLIP_TRIES` times, every other
example in turn, so each list of each query command gets each mistake
the CLI reports for it (``ida --y`` also a second node); :data:`FREE`
more examples draw a command, weighted towards ``ida`` and ``adjust``
so that many reach their oracle checks.  The graph file of each example
is written in one of :data:`SPELLINGS` in turn, so the checks run on
both routes of the graph parser: its one pass over the canonical text
and its per-line parser.  Only an ``ida`` call writes its data file.
After the run, each mistake must have been the one the CLI reported on
at least a third of its tries, and each oracle check, the gate check,
each spelling and each parse route must have been reached at least as
often as its floor.

``simulate`` reads no graph file and has its own tests.
"""

import contextlib
import io
import json
import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from mpdagkit import cli
from mpdagkit.causal_paths import ANCESTORS, DESCENDANTS
from mpdagkit.extension import consistent_extension, enumerate_dags
from mpdagkit.meek import construct_max_pdag, cpdag_of, validate_maximal_pdag
from mpdagkit.pdag_core import _parse_canonical, parse_graph, serialize_graph
from mpdagkit.reference import oracle_reach

from conftest import write_fresh
from helpers import (
    dag_adjustment_criterion,
    fit_coefficient_matrix,
    global_merge_combinations,
    maximality_error,
    read_csv_rows,
)

SEED = 2017
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
# The node-list mistakes the CLI reports, per command, as (list, kind)
# with the lists in draw order: an overlap names a node of an earlier
# list, an empty --z is no mistake, and a second node is one for ida's --y.
KINDS = ("empty", "repeat", "unknown")
SLIPS = {
    "possde": [("--x", kind) for kind in KINDS],
    "possan": [("--x", kind) for kind in KINDS],
    "adjust": [("--x", kind) for kind in KINDS]
    + [("--y", kind) for kind in KINDS + ("overlap",)]
    + [("--z", kind) for kind in ("repeat", "unknown", "overlap")],
    "ida": [("--y", kind) for kind in KINDS + ("second",)]
    + [("--x", kind) for kind in KINDS + ("overlap",)],
}
# The subcommands that must refuse a graph that is not a maximal PDAG.
GATED = ("possde", "possan", "adjust", "ida")
ADJUST_MODES = (["--find"], ["--list"], ["--list", "--minimal"], ["--z", ""])
PLAN = [(command, slip) for command, slips in SLIPS.items() for slip in slips]
# Each slip is made SLIP_TRIES times however long the plan is, besides
# the FREE examples that make none.  An earlier mistake (a mode mix, an
# undeclared node) can hide a slip, so each must be reported on at least
# a third of its tries.
SLIP_TRIES = 8
FREE = 300
ORACLE_FLOORS = {
    "reach oracle": 20,
    "adjust oracle": 20,
    "ida oracle": 40,
    "gate": 30,
    "one pass": 50,
    "per-line parse": 80,
}
# Equivalent spellings of a graph file, one per example in turn.  The
# canonical text takes the parser's one pass; a comment line, tabs or a
# missing final newline take the per-line route.  The CLI reads files in
# text mode, which turns CRLF into LF, so a CRLF file takes the one pass.
SPELLINGS = {
    "canonical": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comment": lambda text: "# a graph\n" + text,
    "tab": lambda text: text.replace(" ", "\t"),
    "no final newline": lambda text: text[:-1],
}
SPELLING_FLOOR = 25  # calls per spelling that read the file and ran a query


def schedule(rng: random.Random):
    """The (command, slip) of each example: while slips are left, every
    other example makes the next slip of :data:`PLAN` in turn; the others
    draw a command and make no node-list mistake."""
    slips = PLAN * SLIP_TRIES
    for i in range(FREE + len(slips)):
        if i % 2 == 0 and i // 2 < len(slips):
            yield slips[i // 2]
        else:
            yield rng.choice(COMMANDS), None


def cli_call(rng: random.Random, command: str, slip):
    """(graph text, flag arguments, background text or None, data text,
    the mistakes made, the start of the error line they must give or
    None, and the slip as "command flag kind" if it is the mistake that
    error reports, or None) for one call of ``command`` that makes the
    node-list mistake ``slip``, a (flag, kind) pair, or none.

    The graph is any mix of edges, a DAG, the CPDAG of one, or that
    CPDAG with one of the DAG's orientations merged (on a DAG drawn with
    two edges in three), so that the query routes see maximal inputs
    too.  Node lists take disjoint runs of a shuffle of the graph's
    names.  Other mistakes come about one draw in eight: a node declared
    by no statement, a wrong mix of ``adjust`` modes, a missing data
    column or too few rows."""

    def mistake():
        return rng.randrange(8) == 7

    # A slip needs names left for its list: five cover two lists of two and one more.
    names = list(POOL[: rng.randint(1 if slip is None else 5, len(POOL))])
    shape = rng.choice(SHAPES)
    lines = [f"node {v}" for v in names if not mistake()]
    rank = rng.sample(range(len(names)), len(names))  # the DAG's topological order
    for i, j in combinations(range(len(names)), 2):
        a, b = names[i], names[j]
        if shape == "any":
            op = rng.choice((None, "->", "<-", "--"))
        else:
            forward = "->" if rank[i] < rank[j] else "<-"
            op = rng.choice((forward, forward, None) if shape == "mpdag" else (None, forward))
        if op == "<-":
            lines.append(f"{b} -> {a}")
        elif op is not None:
            lines.append(f"{a} {op} {b}")
    graph = "\n".join(lines) + "\n"
    if shape in ("cpdag", "mpdag"):
        dag = parse_graph(graph)
        g = cpdag_of(dag)
        if shape == "mpdag" and g.undirected_edges():
            a, b = rng.choice(g.undirected_edges())
            g = construct_max_pdag(g, [(a, b) if dag.is_directed(a, b) else (b, a)]).graph
        graph = serialize_graph(g)

    shuffled = rng.sample(names, len(names))
    listed, mistakes = [], []  # the names of the lists so far; the mistakes made

    def node_list(flag, min_size=1, max_size=2):
        kind = slip[1] if slip is not None and slip[0] == flag else None
        size = rng.randint(1 if kind == "repeat" else min_size, max_size)
        taken = [shuffled.pop() for _ in range(min(size, len(shuffled)))]
        if kind == "overlap":
            taken.append(rng.choice(listed))
        elif kind == "second":  # ida's --y takes one node
            taken.append(shuffled.pop())
        elif kind is not None:
            taken = {"empty": [], "repeat": taken + taken[:1], "unknown": taken + [UNKNOWN]}[kind]
            kind = kind if taken else "empty"
        if kind is not None and (taken or min_size):  # an empty --z is no mistake
            mistakes.append(f"{flag} {kind}")
        listed.extend(taken)
        return ",".join(taken)

    flags, background = [], None
    if command == "orient":
        if not mistake():
            background = "".join(
                f"{rng.choice(names)} -> {rng.choice(names)}\n" for _ in range(rng.randint(0, 3))
            )
    elif command in ("possde", "possan"):
        flags = ["--x", node_list("--x")]
    elif command == "adjust":
        mode = rng.choice((["--find"], ["--list"], ["--list", "--minimal"], ["--z"]))
        if slip is not None and slip[0] == "--z":
            mode = ["--z"]
        if mistake():
            mode = rng.choice(([], ["--find", "--list"], ["--find", "--minimal"]))
            mistakes.append("modes")
        flags = ["--x", node_list("--x"), "--y", node_list("--y")]
        for flag in mode:
            flags += [flag, node_list("--z", 0)] if flag == "--z" else [flag]
    elif command == "ida":
        y = node_list("--y", max_size=1)  # drawn first: --y takes one node, --x may take two
        flags = ["--x", node_list("--x"), "--y", y]

    columns = rng.sample(names, len(names))
    if mistake():
        columns = columns[1:]
    size = len(names) + 1 + rng.randint(0, 10)
    if mistake():
        size = rng.randint(0, len(names))
    rows = np.random.default_rng(rng.randrange(2**16)).standard_normal((size, len(columns)))
    data = ",".join(columns) + "\n" + "".join(",".join(f"{v:.6f}" for v in r) + "\n" for r in rows)
    # Modes are checked first, then the node-list rule: unknown names
    # before the rule's own errors, which name a flag.
    error = reported = None
    if "modes" in mistakes:
        error = ("error: choose exactly one", "error: --minimal needs --list")
    elif mistakes:
        known = set(parse_graph(graph).nodes)
        unknown = any(name not in known for name in listed)
        error = ("error: unknown node: ",) if unknown else ("error: --",)
        # The slip is the one mistake; it is what the CLI reports unless
        # an undeclared node comes first.
        if unknown == (slip[1] == "unknown"):
            reported = f"{command} {mistakes[0]}"
    return graph, flags, background, data, mistakes, error, reported

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
        B = fit_coefficient_matrix(consistent_extension(merged[parents]), data, col)
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


def check_gate(workdir, path, refused: str, reached: Counter) -> None:
    """Run each gated subcommand on a valid query of the graph file at
    ``path``, which is not a maximal PDAG: each must exit 1 and print
    ``refused``, the first failed maximality check's message."""
    g = parse_graph(path.read_text())
    x, y = g.nodes[:2]  # a graph of two nodes is maximal
    rows = np.random.default_rng(len(g)).standard_normal((len(g) + 2, len(g)))
    data = workdir / "gate.csv"
    write_fresh(data, ",".join(g.nodes) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    query = ["--x", x, "--y", y]
    calls = [["possde", str(path), "--x", x], ["possan", str(path), "--x", x]]
    calls += [["adjust", str(path), *query, *mode] for mode in ADJUST_MODES]
    calls.append(["ida", str(path), *query, "--data", str(data)])
    for argv in calls:
        assert run(argv) == (1, f"error: {refused}\n", ""), argv
    reached["gate"] += 1


def check_call(workdir, command, call, spelling, reached: Counter) -> None:
    graph, flags, background, data, mistakes, error, reported = call
    if reported is not None:
        reached[reported] += 1
    paths = {name: workdir / name for name in ("graph.g", "bg.g", "data.csv")}
    write_fresh(paths["graph.g"], SPELLINGS[spelling](graph))
    argv = [command, str(paths["graph.g"]), *flags]
    if background is not None:
        write_fresh(paths["bg.g"], background)
        argv += ["--bg", str(paths["bg.g"])]
    if command == "ida":
        write_fresh(paths["data.csv"], data)
        argv += ["--data", str(paths["data.csv"])]

    code, out, err = run(argv)

    assert code in (0, 1, 2)
    if code in (0, 1):  # the file was read and a query ran on it
        reached[f"spelling {spelling}"] += 1
        one_pass = _parse_canonical(paths["graph.g"].read_text()) is not None
        reached["one pass" if one_pass else "per-line parse"] += 1
    if code == 2:
        assert out == ""
        assert "error: " in err
    if error is not None:
        assert code == 2
        assert err.startswith(error)
    if code == 0 and command == "orient":
        assert parse_graph(out).skeleton() == parse_graph(graph).skeleton()
    refused = maximality_error(parse_graph(graph))
    if refused is not None:
        if code != 2 and command in GATED:
            assert (code, out) == (1, f"error: {refused}\n")
        check_gate(workdir, paths["graph.g"], refused, reached)
    if code == 0 and command in ("possde", "possan"):
        g = parse_graph(graph)
        if len(g) <= 6 and is_maximal(g):
            reached["reach oracle"] += 1
            direction = DESCENDANTS if command == "possde" else ANCESTORS
            found = oracle_reach(g, flags[1].split(","), direction).nodes
            assert out == set_text(g, found) + "\n"
    if code in (0, 1) and command == "adjust" and len(parse_graph(graph)) <= 6:
        g = parse_graph(graph)
        if is_maximal(g):
            reached["adjust oracle"] += 1
            check_adjust_modes(g, argv[:6])
    if code == 0 and command == "ida" and len(parse_graph(graph)) <= 6:
        reached["ida oracle"] += 1
        *printed, unique = out.splitlines()
        assert unique.startswith("unique=")
        xs, y = flags[1].split(","), flags[3]
        data, columns = read_csv_rows(str(paths["data.csv"]))
        expected = ida_lines(parse_graph(graph), xs, y, data, columns)
        assert len(printed) == len(expected) and set(printed) == expected


def test_every_call_keeps_the_exit_code_contract(workdir):
    rng = random.Random(SEED)
    reached = Counter()  # the slips the CLI reported and the checks reached
    tries = Counter()  # the examples that made each slip
    spellings = list(SPELLINGS)
    for i, (command, slip) in enumerate(schedule(rng)):
        call = cli_call(rng, command, slip)
        spelling = spellings[i % len(spellings)]
        if slip is not None:
            tries[f"{command} {slip[0]} {slip[1]}"] += 1
        try:
            check_call(workdir, command, call, spelling, reached)
        except AssertionError as exc:
            raise AssertionError(f"example {i}: {command} {spelling} {call}") from exc
    floors = {label: -(-count // 3) for label, count in tries.items()}
    floors.update(ORACLE_FLOORS)
    floors.update({f"spelling {name}": SPELLING_FLOOR for name in SPELLINGS})
    short = {label: reached[label] for label, floor in floors.items() if reached[label] < floor}
    assert not short, f"below their floors: {short}"
