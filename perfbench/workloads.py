"""The benchmark's three workloads.

Each workload is built from the library package and a seed, generates
all of its inputs during set-up, and exposes:

* ``run(i)``: op ``i`` (the timed call, nothing else);
* ``key(i)``: which input op ``i`` uses; ops with one key must give one
  output;
* ``canon(i, out)``: the output as text, for goldens and repeat checks;
* ``verify(i, out)``: an error message when the output is wrong;
* ``digest``: a digest of the generated inputs;
* ``cycle``: a timed run ends on a multiple of this many ops, so that
  every run has the same mix.

The library is only reached through attributes of the package looked
up at call time, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np

import oracles

SMALL_GRAPH = 8  # graphs up to this many nodes are checked against DAG-level oracles


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _set_text(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _numbers(value) -> str:
    values = value if isinstance(value, tuple) else (value,)
    return ",".join(format(v, ".10g") for v in values)


def _parse_set(text: str) -> frozenset[str]:
    inner = text.strip()[1:-1].strip()
    return frozenset(t.strip() for t in inner.split(",")) if inner else frozenset()


def sem_data(dag, rng, samples: int) -> np.ndarray:
    """Samples of a linear SEM on ``dag`` with weights of magnitude 0.1-1.

    Parents are summed in node order, so the values do not depend on
    the interpreter's hash seed (``mpdagkit.sample_data`` sums them in
    set order, which does).  Columns follow the graph's node order.
    """
    col = {v: j for j, v in enumerate(dag.nodes)}
    data = np.empty((samples, len(col)))
    done: set[str] = set()
    while len(done) < len(col):
        for v in dag.nodes:
            if v in done or not dag.parents(v) <= done:
                continue
            total = rng.standard_normal(samples)
            for p in sorted(dag.parents(v), key=col.__getitem__):
                total = total + rng.uniform(0.1, 1.0) * rng.choice([-1, 1]) * data[:, col[p]]
            data[:, col[v]] = total
            done.add(v)
    return data


# -- study ----------------------------------------------------------------


class Study:
    """One op is a one-graph ``run_simulation`` (11 fractions, n=200)."""

    name = "study"
    SETTINGS = ((10, 3.0), (10, 5.0), (20, 3.0), (20, 5.0))
    cycle = len(SETTINGS)
    DIGEST_OPS = 256

    def __init__(self, mk, seed: int, workdir: Path) -> None:
        self.mk = mk
        self.seed = seed
        configs = [self.config(i) for i in range(self.DIGEST_OPS)]
        self.digest = sha(repr(configs))

    def config(self, i: int):
        p, en = self.SETTINGS[i % len(self.SETTINGS)]
        op_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1, np.uint64)[0])
        return self.mk.SimConfig(
            node_counts=(p,), neighborhood_sizes=(en,), graphs_per_setting=1, seed=op_seed
        )

    def key(self, i: int) -> int:
        return i

    def run(self, i: int):
        return self.mk.run_simulation(self.config(i))

    def canon(self, i: int, rows) -> str:
        return "\n".join(
            f"{r.seed},{r.p},{r.en:.10g},{r.fraction:.10g},{r.amenable},{r.identifiable},"
            f"{r.true_effect:.10g},{r.n_tuples},{r.n_unique}"
            for r in rows
        )

    def verify(self, i: int, rows):
        cfg = self.config(i)
        if [r.fraction for r in rows] != list(cfg.fractions):
            return "rows do not cover the configured fractions"
        if any((r.p, r.en) != (cfg.node_counts[0], cfg.neighborhood_sizes[0]) for r in rows):
            return "row setting differs from the config"
        if len({r.true_effect for r in rows}) != 1:
            return "true effect changes with the fraction"
        for a, b in zip(rows, rows[1:]):
            if a.identifiable and not b.identifiable:
                return f"identifiability lost between fractions {a.fraction} and {b.fraction}"
            if b.n_tuples > a.n_tuples:
                return f"parent tuples grew between fractions {a.fraction} and {b.fraction}"
        last = rows[-1]
        if not (last.identifiable and last.n_tuples == 1 and last.n_unique == 1):
            return "full knowledge is not identifiable with one parent tuple"
        return None


# -- cli_mix --------------------------------------------------------------


class _Graph:
    """One corpus graph with its query nodes, files and lazy oracles."""

    def __init__(self, g, dag, x, y, x2, list_pair, path, data_path, data):
        self.g, self.dag = g, dag
        self.x, self.y, self.x2 = x, y, x2
        self.list_pair = list_pair
        self.path, self.data_path, self.data = path, data_path, data
        self._dags = None
        self._valid: dict[tuple[str, str], set[frozenset[str]]] = {}

    def dags(self, mk):
        if self._dags is None:
            self._dags = list(mk.enumerate_dags(self.g))
        return self._dags

    def valid_sets(self, mk, x: str, y: str) -> set[frozenset[str]]:
        if (x, y) not in self._valid:
            oracle = oracles.AdjustmentOracle(self.dags(mk), x, y)
            self._valid[x, y] = set(oracle.valid_sets(self.g.nodes))
        return self._valid[x, y]


class CliMix:
    """One op is one in-process ``mpdagkit.cli.main(argv)`` call on a
    seeded corpus of graph files with data; the op list is a seeded
    shuffle of ten queries per graph, cycled.

    Listing cost doubles with each node of the candidate universe, so a
    corpus's few largest universes would set its cost.  Every corpus
    therefore has the same graph sizes and the same listing-universe
    sizes; the seed draws the structures, data and query nodes.
    """

    name = "cli_mix"
    GRAPHS = 80
    cycle = 1  # the op list is shuffled, so any stretch of it has the same mix
    SAMPLES = 200
    MALFORMED = ("bad_file", "unknown_node", "missing_data", "missing_arg")

    def __init__(self, mk, seed: int, workdir: Path) -> None:
        import mpdagkit.cli

        self.mk = mk
        self.cli = mpdagkit.cli
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 1])
        bad = workdir / "bad.g"
        bad.write_text("V1 -- V2\nV2 -> \n")
        self.graphs: list[_Graph] = []
        self.ops: list[tuple[str, int, list[str]]] = []
        for k in range(self.GRAPHS):
            item = self._make_graph(mk, rng, workdir, k)
            self.graphs.append(item)
            g, x, y = item.g, item.x, item.y
            path = str(item.path)
            nodes = list(g.nodes)
            rest = [v for v in nodes if v not in (x, y)]
            zs = list(rng.choice(rest, size=int(rng.integers(0, 3)), replace=False))
            malformed = self.MALFORMED[k % len(self.MALFORMED)]
            argvs = {
                "validate": ["validate", path],
                "orient": ["orient", path, "--bg", self._background(item, rng)],
                "possde": ["possde", path, "--x", str(rng.choice(nodes))],
                "possan": ["possan", path, "--x", str(rng.choice(nodes))],
                "adjust_z": ["adjust", path, "--x", x, "--y", y, "--z", ",".join(zs)],
                "adjust_find": ["adjust", path, "--x", x, "--y", y, "--find"],
                "adjust_list": [
                    "adjust", path, "--x", item.list_pair[0], "--y", item.list_pair[1],
                    "--list", "--minimal",
                ],
                "ida": ["ida", path, "--x", x, "--y", y, "--data", str(item.data_path)],
                "ida_joint": [
                    "ida", path, "--x", f"{x},{item.x2}", "--y", y, "--data", str(item.data_path),
                ],
                "malformed": {
                    "bad_file": ["validate", str(bad)],
                    "unknown_node": ["possde", path, "--x", "NOPE"],
                    "missing_data": ["ida", path, "--x", x, "--y", y, "--data", path + ".none"],
                    "missing_arg": ["adjust", path, "--x", x],
                }[malformed],
            }
            self.ops.extend((kind, k, argv) for kind, argv in argvs.items())
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[j] for j in order]
        files = sorted(workdir.iterdir())
        listing = [(f.name, f.read_text()) for f in files]
        argv_text = [[a.replace(str(workdir), "") for a in argv] for _, _, argv in self.ops]
        self.digest = sha(repr((listing, argv_text)))

    def _make_graph(self, mk, rng, workdir: Path, k: int) -> _Graph:
        p = 6 + k % 7
        en = (2.0, 3.0)[k // 7 % 2]
        universe = p - 2 - k // 14 % 3  # candidates left after the forbidden set
        while True:
            dag = mk.random_dag(p, en, rng).dag
            g = mk.add_background_fraction(
                mk.cpdag_of(dag), dag, float(rng.choice([0.2, 0.4, 0.6])), rng
            )
            try:
                x, y = mk.choose_xy(dag, rng)
            except ValueError:
                continue  # no valid pair; draw another graph
            list_pair = self._list_pair(mk, g, rng, universe)
            if list_pair is not None:
                break
        x2 = str(rng.choice([v for v in g.nodes if v not in (x, y)]))
        data = sem_data(dag, rng, self.SAMPLES)
        path = workdir / f"g{k:03d}.g"
        path.write_text(mk.serialize_graph(g))
        data_path = workdir / f"g{k:03d}.csv"
        lines = [",".join(dag.nodes)]
        lines += [",".join(format(v, ".10g") for v in row) for row in data]
        data_path.write_text("\n".join(lines) + "\n")
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        return _Graph(g, dag, x, y, x2, list_pair, path, data_path, parsed)

    @staticmethod
    def _list_pair(mk, g, rng, universe: int):
        """A random amenable pair whose candidate universe has
        ``universe`` nodes, or None after 40 draws."""
        for _ in range(40):
            a, b = (str(v) for v in rng.choice(g.nodes, size=2, replace=False))
            if mk.is_amenable(g, a, b).ok and universe == len(
                set(g.nodes) - {a, b} - mk.forbidden_set(g, a, b).nodes
            ):
                return a, b
        return None

    @staticmethod
    def _background(item: _Graph, rng) -> str:
        und = list(item.g.undirected_edges())
        picks = (
            [und[j] for j in rng.choice(len(und), size=min(2, len(und)), replace=False)]
            if und
            else [item.g.directed_edges()[0]]
        )
        reqs = [(a, b) if item.dag.is_directed(a, b) else (b, a) for a, b in picks]
        return ";".join(f"{a} -> {b}" for a, b in reqs)

    def key(self, i: int) -> int:
        return i % len(self.ops)

    def run(self, i: int):
        argv = self.ops[i % len(self.ops)][2]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def canon(self, i: int, out) -> str:
        code, stdout = out
        return f"{code}\n{stdout}"

    def verify(self, i: int, out):
        kind, k, argv = self.ops[i % len(self.ops)]
        code, stdout = out
        expected = {2} if kind == "malformed" else {0, 1} if kind == "adjust_find" else {0}
        if code not in expected:
            return f"{kind}: exit {code}, expected {sorted(expected)}"
        if kind == "malformed":
            return None
        return getattr(self, "_check_" + kind)(self.graphs[k], argv, code, stdout)

    # Semantic checks per subcommand; DAG-level oracles on small graphs.

    def _check_validate(self, item, argv, code, stdout):
        report = json.loads(stdout)
        if report != {"acyclic": True, "closed": True, "extendable": True}:
            return f"validate: {report}"
        return None

    def _check_orient(self, item, argv, code, stdout):
        mk = self.mk
        h = mk.parse_graph(stdout)
        g = item.g
        reqs = [tuple(s.split(" -> ")) for s in argv[3].split(";")]
        if h.skeleton() != g.skeleton():
            return "orient: skeleton changed"
        if not all(h.is_directed(a, b) for a, b in reqs):
            return "orient: a required edge is not oriented"
        if not all(h.is_directed(a, b) for a, b in g.directed_edges()):
            return "orient: a directed edge was lost"
        if len(g) <= SMALL_GRAPH:
            want = {
                d for d in item.dags(mk) if all(d.is_directed(a, b) for a, b in reqs)
            }
            if set(mk.enumerate_dags(h)) != want:
                return "orient: merged graph represents the wrong DAGs"
        return None

    def _check_possde(self, item, argv, code, stdout):
        return self._check_reach(item, argv, stdout, "descendants")

    def _check_possan(self, item, argv, code, stdout):
        return self._check_reach(item, argv, stdout, "ancestors")

    def _check_reach(self, item, argv, stdout, direction):
        want = self.mk.oracle_reach(item.g, argv[3], direction).nodes
        if _parse_set(stdout) != want:
            return f"{argv[0]}: {stdout.strip()} != oracle {_set_text(want)}"
        return None

    def _check_adjust_z(self, item, argv, code, stdout):
        verdict = json.loads(stdout)
        if len(item.g) <= SMALL_GRAPH:
            zs = frozenset(_parse_set("{" + argv[7] + "}"))
            if verdict["overall"] != (zs in item.valid_sets(self.mk, item.x, item.y)):
                return f"adjust --z: overall={verdict['overall']} disagrees with every-DAG oracle"
        return None

    def _check_adjust_find(self, item, argv, code, stdout):
        if len(item.g) > SMALL_GRAPH:
            return None
        valid = item.valid_sets(self.mk, item.x, item.y)
        if code == 1:
            return "adjust --find: exit 1 but a valid set exists" if valid else None
        if _parse_set(stdout) not in valid:
            return "adjust --find: printed set is not valid in every DAG"
        return None

    def _check_adjust_list(self, item, argv, code, stdout):
        if len(item.g) > SMALL_GRAPH:
            return None
        listed = {_parse_set(line) for line in stdout.splitlines()}
        if listed != oracles.minimal(item.valid_sets(self.mk, *item.list_pair)):
            return "adjust --list --minimal: differs from the every-DAG oracle"
        return None

    def _check_ida(self, item, argv, code, stdout):
        lines = stdout.splitlines()
        if not lines or not re.fullmatch(r"unique=\d+", lines[-1]):
            return "ida: missing unique= line"
        pattern = re.compile(r"parents=(\{.*\}) effect=(\S+)")
        entries = [pattern.fullmatch(line) for line in lines[:-1]]
        if not all(entries):
            return "ida: malformed output line"
        col = {name: j for j, name in enumerate(item.dag.nodes)}
        for m in entries:
            parents = _parse_set(m.group(1))
            want = oracles.regression_effect(item.data, col, item.x, item.y, parents)
            if not oracles.close(float(m.group(2)), want):
                return f"ida: effect for parents {m.group(1)} is {m.group(2)}, expected {want}"
        if len(item.g) <= SMALL_GRAPH:
            got = {(_parse_set(m.group(1)),) for m in entries}
            if got != oracles.parent_tuples(item.dags(self.mk), [item.x]):
                return "ida: parent sets differ from the DAG enumeration"
        return None

    def _check_ida_joint(self, item, argv, code, stdout):
        lines = stdout.splitlines()
        pattern = re.compile(r"parents=\((\{.*\}), (\{.*\})\) effects=\((\S+), (\S+)\)")
        entries = [pattern.fullmatch(line) for line in lines[:-1]]
        if not lines or not all(entries) or not lines[-1].startswith("unique="):
            return "ida joint: malformed output"
        if len(item.g) <= SMALL_GRAPH:
            got = {(_parse_set(m.group(1)), _parse_set(m.group(2))) for m in entries}
            if got != oracles.parent_tuples(item.dags(self.mk), [item.x, item.x2]):
                return "ida joint: parent tuples differ from the DAG enumeration"
        return None


# -- dense ----------------------------------------------------------------


def complete_graph(mk, n: int):
    names = [f"V{i}" for i in range(1, n + 1)]
    return mk.PdagGraph(names, undirected=list(combinations(names, 2)))


class Dense:
    """Adversarial queries at the library API, cycled in a fixed order:
    fully undirected K_n, hub and star neighbourhoods, DAG enumeration
    and adjustment-set listing over a wide candidate universe."""

    name = "dense"
    SAMPLES = 200
    WIDE_NODES = 14
    WIDE_UNIVERSE = 12

    def __init__(self, mk, seed: int, workdir: Path) -> None:
        self.mk = mk
        rng = np.random.default_rng([seed, 2])
        K = {n: complete_graph(mk, n) for n in range(5, 11)}
        self.data = {}
        for n in (5, 8):
            order = [f"V{i}" for i in rng.permutation(n) + 1]
            dag = mk.PdagGraph(K[n].nodes, directed=list(combinations(order, 2)))
            self.data[n] = sem_data(dag, rng, self.SAMPLES)
        leaves = [f"L{i}" for i in range(1, 11)]
        star = mk.PdagGraph(["H"] + leaves, undirected=[("H", v) for v in leaves])
        pairs = list(zip(leaves[::2], leaves[1::2]))
        hub = mk.PdagGraph(["H"] + leaves, undirected=[("H", v) for v in leaves] + pairs)
        hub_dag = mk.PdagGraph(hub.nodes, directed=[("H", v) for v in leaves] + pairs)
        self.data["hub"] = sem_data(hub_dag, rng, self.SAMPLES)
        wide, wx, wy = self._wide_graph(mk, rng)

        def pick(n, count):
            return [f"V{i}" for i in rng.choice(n, size=count, replace=False) + 1]

        leaf = str(rng.choice(leaves))
        x5, x5b, y5 = pick(5, 3)
        x8, y8 = pick(8, 2)
        self.ops = []  # (label, graph, call), run in this order
        for n in (6, 7, 8):
            x, y = pick(n, 2)
            self.ops += [
                (f"amenable_K{n}", K[n], lambda g=K[n], x=x, y=y: mk.is_amenable(g, x, y)),
                (f"forbidden_K{n}", K[n], lambda g=K[n], x=x, y=y: mk.forbidden_set(g, x, y)),
                (f"adjust_K{n}", K[n], lambda g=K[n], x=x, y=y: mk.adjust_set(g, x, y)),
            ]
        for n in (8, 9, 10):
            x = pick(n, 1)[0]
            self.ops.append(
                (f"parent_sets_K{n}", K[n], lambda g=K[n], x=x: mk.possible_parent_sets(g, [x]))
            )
        self.ops += [
            ("parent_sets_star10", star, lambda: mk.possible_parent_sets(star, ["H"])),
            ("ida_hub10", hub, lambda: mk.ida_effects(hub, "H", leaf, self.data["hub"])),
            ("ida_K8", K[8], lambda: mk.ida_effects(K[8], x8, y8, self.data[8])),
            ("joint_ida_K5", K[5], lambda: mk.joint_ida_effects(K[5], [x5, x5b], y5, self.data[5])),
            ("enumerate_K5", K[5], lambda: mk.enumerate_dags(K[5])),
            (
                "list_wide",
                wide,
                lambda: mk.list_adjustment_sets(wide, wx, wy, max_nodes=self.WIDE_NODES),
            ),
        ]
        self.args = {
            "ida_hub10": ("H", leaf, "hub"),
            "ida_K8": (x8, y8, 8),
            "joint_ida_K5": ((x5, x5b), y5),
            "list_wide": (wx, wy),
        }
        self.cycle = len(self.ops)
        graphs = [(label, mk.serialize_graph(g)) for label, g, _ in self.ops]
        data = [d.tobytes().hex() for d in self.data.values()]
        self.digest = sha(repr((graphs, sorted(self.args.items()), data)))

    def _wide_graph(self, mk, rng):
        """A DAG and a pair whose candidate universe has exactly
        WIDE_UNIVERSE nodes."""
        while True:
            g = mk.random_dag(self.WIDE_NODES, 3.0, rng).dag
            nodes = list(g.nodes)
            for j in rng.permutation(len(nodes) * len(nodes)):
                x, y = nodes[j // len(nodes)], nodes[j % len(nodes)]
                if x == y or y not in mk.b_possible_descendants(g, x).nodes:
                    continue
                forb = mk.forbidden_set(g, x, y, max_nodes=self.WIDE_NODES).nodes
                if len(set(nodes) - {x, y} - forb) == self.WIDE_UNIVERSE:
                    return g, x, y

    def key(self, i: int) -> int:
        return i % len(self.ops)

    def run(self, i: int):
        return self.ops[i % len(self.ops)][2]()

    def canon(self, i: int, out) -> str:
        label = self.ops[i % len(self.ops)][0]
        kind = label.split("_")[0]
        if kind == "amenable":
            return f"{out.ok} {out.witness}"
        if kind == "forbidden":
            return f"{_set_text(out.nodes)} {_set_text(out.on_path)}"
        if kind == "adjust":
            return "None" if out is None else _set_text(out)
        if kind == "parent":
            return "\n".join(" ".join(_set_text(s) for s in t) for t in out.tuples())
        if kind in ("ida", "joint"):
            return "\n".join(
                " ".join(_set_text(s) for s in t) + " " + _numbers(v)
                for t, v in zip(out.family.tuples(), out.values)
            )
        if kind == "enumerate":
            return f"{out.truncated}\n" + "\n".join(sorted(self.mk.serialize_graph(d) for d in out))
        return "\n".join(_set_text(z) for z in out)

    def verify(self, i: int, out):
        label, g, _ = self.ops[i % len(self.ops)]
        mk = self.mk
        kind = label.split("_")[0]
        if kind == "amenable" and out.ok:
            return f"{label}: a complete undirected graph is never amenable"
        if kind == "forbidden" and out.nodes != frozenset(g.nodes):
            return f"{label}: forbidden set should be every node"
        if kind == "adjust" and out is not None:
            return f"{label}: no adjustment set exists on a complete undirected graph"
        if kind == "parent":
            (x,) = out.interventions
            want = oracles.clique_parent_sets(g, x)
            if {t[0] for t in out.tuples()} != want or len(out) != len(want):
                return f"{label}: parent sets differ from the cliques of the neighbourhood"
        if label in ("ida_hub10", "ida_K8"):
            x, y, key = self.args[label]
            col = {name: j for j, name in enumerate(g.nodes)}
            if {t[0] for t in out.family.tuples()} != oracles.clique_parent_sets(g, x):
                return f"{label}: parent sets differ from the cliques of the neighbourhood"
            for t, value in zip(out.family.tuples(), out.values):
                want = oracles.regression_effect(self.data[key], col, x, y, t[0])
                if not oracles.close(value, want):
                    return f"{label}: effect {value} for parents {_set_text(t[0])}, expected {want}"
        if kind == "joint":
            xs, _y = self.args[label]
            want = oracles.parent_tuples(mk.enumerate_dags(g), xs)
            if set(out.family.tuples()) != want or len(out) != len(want):
                return f"{label}: joint parent sets differ from the DAG enumeration"
            if not all(np.isfinite(v).all() for v in out.values):
                return f"{label}: non-finite joint effect"
        if kind == "enumerate":
            dags, want = list(out), math.factorial(len(g))
            if out.truncated or len(set(dags)) != len(dags) or len(dags) != want:
                return f"{label}: expected {want} distinct DAGs, got {len(dags)}"
            if not all(d.is_dag() and mk.represents(g, d) for d in dags):
                return f"{label}: listed a graph outside the class"
        if kind == "list":
            x, y = self.args[label]
            want = oracles.AdjustmentOracle([g], x, y).valid_sets(g.nodes)
            if set(out) != set(want) or len(out) != len(want):
                return f"{label}: listed sets differ from the DAG-level oracle"
        return None


WORKLOADS = {w.name: w for w in (Study, CliMix, Dense)}
