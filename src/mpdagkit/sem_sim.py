"""Linear-SEM simulation: random models, sampling, oracles, and the
background-knowledge study.

Every run is reproducible from one master seed: per-replicate seeds are
the uint64 stream of ``numpy.random.SeedSequence(master)``, and each
replicate derives separate generators for the model, the data, the
treatment/outcome draw and the background-knowledge order by seeding
``default_rng([replicate_seed, purpose])`` with purpose codes 0-3.  A
replicate orients its undirected CPDAG edges as in the true DAG in one
random order, and each fraction merges only the next edges of that
order into the previous fraction's graph, so every edge is merged once,
the oriented sets are nested, and identifiability improves
monotonically row by row rather than merely on average.  A model with
no edge (so no treatment/outcome pair) is redrawn from its generator.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np

from .adjustment import _adjust_core
from .ida import _effect_data, _ida_core
from .meek import construct_max_pdag, cpdag_of
from .pdag_core import (
    PdagGraph,
    _adjacency,
    _bits,
    _closure,
    _query_masks,
    _topological_order,
)

CSV_HEADER = "seed,p,en,fraction,amenable,identifiable,true_effect,n_tuples,n_unique,ms"

_FEW_NODES = "need at least two nodes"
_BAD_EN = "expected neighbourhood size must be in (0, p-1]"
_MAX_DRAWS = 1000  # models drawn per replicate before a grid with no edges fails


@dataclass
class SemModel:
    """A weighted DAG with per-node noise scales.

    ``coefficients`` maps each directed edge (tail, head) to its weight;
    the support must equal the DAG's edge set.  Models drawn by
    :func:`random_dag` keep weight magnitudes in [0.1, 1], but hand-built
    models may use any finite weights.
    """

    dag: PdagGraph
    coefficients: dict[tuple[str, str], float]
    noise_scales: dict[str, float]

    def __post_init__(self) -> None:
        if not self.dag.is_dag():
            raise ValueError("model graph must be a fully directed DAG")
        edges = set(self.dag.directed_edges())
        if set(self.coefficients) != edges:
            raise ValueError("coefficient support must equal the edge set")
        if set(self.noise_scales) != set(self.dag.nodes):
            raise ValueError("every node needs a noise scale")
        for (tail, head), weight in self.coefficients.items():
            if not math.isfinite(weight):
                raise ValueError(f"edge {tail} -> {head} has non-finite weight {weight}")
        for node, scale in self.noise_scales.items():
            if not 0 < scale < math.inf:  # False for NaN as well
                raise ValueError(f"noise scales must be positive and finite: {node} has {scale}")

    def coefficient_matrix(self) -> np.ndarray:
        idx = self.dag._index
        B = np.zeros((len(idx), len(idx)))
        for (tail, head), w in self.coefficients.items():
            B[idx[tail], idx[head]] = w
        return B


def random_dag(p: int, en: float, rng: np.random.Generator) -> SemModel:
    """Random linear SEM on nodes V1..Vp in topological order.

    Each forward pair carries an edge independently with probability
    ``en / (p - 1)``; weights are uniform on [-1, -0.1] or [0.1, 1] and
    noise is standard normal.
    """
    if p < 2:
        raise ValueError(_FEW_NODES)
    if not 0 < en <= p - 1:
        raise ValueError(_BAD_EN)
    names = [f"V{i}" for i in range(1, p + 1)]
    prob = en / (p - 1)
    directed = []
    coefficients = {}
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < prob:
                weight = rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1)
                directed.append((names[i], names[j]))
                coefficients[(names[i], names[j])] = float(weight)
    dag = PdagGraph(names, directed=directed)
    return SemModel(dag, coefficients, {n: 1.0 for n in names})


def sample_data(m: SemModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` rows; columns follow the model's node order.

    Nodes follow the graph core's topological order and parents are summed
    in node order, so the result depends only on the model, ``n`` and ``rng``.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    names = m.dag.nodes
    data = np.empty((n, len(names)))
    for v in _topological_order(m.dag):
        total = rng.standard_normal(n) * m.noise_scales[names[v]]
        for u in _bits(m.dag._pa[v]):
            total = total + m.coefficients[(names[u], names[v])] * data[:, u]
        data[:, v] = total
    return data


def true_total_effect(m: SemModel, xs: "str | Sequence[str]", y: str) -> np.ndarray:
    """Population total effects of each of ``xs`` on ``y``: entries of the
    inverse of (I - B), i.e. sums of coefficient products over directed
    paths; zero when ``y`` is not a descendant.  ``xs`` (which may be
    empty) and ``y`` pass the one node-list rule under those labels."""
    xs = (xs,) if isinstance(xs, str) else tuple(xs)
    _query_masks(m.dag, {"xs": xs, "y": y}, optional=("xs",))
    idx = m.dag._index
    totals = np.linalg.inv(np.eye(len(idx)) - m.coefficient_matrix())
    return np.array([totals[idx[x], idx[y]] for x in xs])


def _background_requirements(
    cpdag: PdagGraph, true_dag: PdagGraph, rng: np.random.Generator
) -> list[tuple[str, str]]:
    """Every undirected edge of ``cpdag`` oriented as in ``true_dag``, in
    the order of one permutation drawn from ``rng``."""
    if cpdag.skeleton() != true_dag.skeleton():
        raise ValueError("graph and true DAG must share a skeleton")
    undirected = cpdag.undirected_edges()
    chosen = [undirected[i] for i in rng.permutation(len(undirected))]
    return [(a, b) if true_dag.is_directed(a, b) else (b, a) for a, b in chosen]


def _merge_background(graph: PdagGraph, requirements: list[tuple[str, str]]) -> PdagGraph:
    outcome = construct_max_pdag(graph, requirements)
    if not outcome.ok:
        raise ValueError(
            f"background edge {outcome.violation} is inconsistent; the input "
            "graph does not represent the true DAG"
        )
    return outcome.graph


def add_background_fraction(
    cpdag: PdagGraph,
    true_dag: PdagGraph,
    fraction: float,
    rng: np.random.Generator,
) -> PdagGraph:
    """Orient a random fraction of the undirected edges as in ``true_dag``
    and re-close the rules.

    The sample is the prefix of one random permutation, so two calls with
    identically seeded generators and growing fractions produce nested
    orientation sets.  A study replicate merges each edge once, adding
    each fraction's new edges to the previous fraction's graph, which
    gives these graphs.  Fraction 0 returns the input; fraction 1
    recovers the true DAG.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    requirements = _background_requirements(cpdag, true_dag, rng)
    return _merge_background(cpdag, requirements[: int(round(fraction * len(requirements)))])


def choose_xy(true_dag: PdagGraph, rng: np.random.Generator) -> tuple[str, str]:
    """Draw a treatment uniformly, then an outcome uniformly among nodes
    in its skeleton component that are not its parents; redraw the
    treatment when no outcome qualifies."""
    adjacency = _adjacency(true_dag)
    nodes = true_dag.nodes

    def candidates(v: int) -> list[str]:
        banned = true_dag._pa[v] | 1 << v
        return [nodes[w] for w in _bits(_closure(adjacency, 1 << v) & ~banned)]

    # An edge u -> w makes w an outcome for u; with none, no node has one.
    if not any(true_dag._ch):
        raise ValueError("no valid treatment/outcome pair exists in this graph")
    while True:
        v = int(rng.integers(len(nodes)))
        pool = candidates(v)
        if pool:
            return nodes[v], pool[int(rng.integers(len(pool)))]


@dataclass(frozen=True)
class SimConfig:
    """Grid for the simulation study; defaults are the desk-scale grid."""

    node_counts: tuple[int, ...] = (10, 20)
    neighborhood_sizes: tuple[float, ...] = (3.0, 5.0)
    graphs_per_setting: int = 200
    sample_size: int = 200
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        problem = _grid_problem(self)
        if problem is not None:
            raise ValueError(problem[1])


def _grid_problem(cfg) -> Optional[tuple[str, str]]:
    """The first invalid setting of a study grid as (field, reason), or
    None.  ``cfg`` is a :class:`SimConfig` or any object with its fields;
    every (p, en) of the grid must pass :func:`random_dag`'s checks."""
    node_counts, sizes, fractions = cfg.node_counts, cfg.neighborhood_sizes, cfg.fractions
    if not fractions:
        return "fractions", "need at least one fraction"
    if list(fractions) != sorted(fractions):
        return "fractions", "fractions must be sorted"
    if any(not 0 <= f <= 1 for f in fractions):
        return "fractions", "fractions must lie in [0, 1]"
    if not node_counts:
        return "node_counts", "need at least one node count"
    if not sizes:
        return "neighborhood_sizes", "need at least one neighbourhood size"
    if cfg.sample_size <= max(node_counts):
        return "sample_size", "sample size must exceed the largest node count"
    if cfg.graphs_per_setting < 1:
        return "graphs_per_setting", "need at least one graph per setting"
    if min(node_counts) < 2:
        return "node_counts", _FEW_NODES
    if any(not 0 < en <= p - 1 for p, en in product(node_counts, sizes)):
        return "neighborhood_sizes", _BAD_EN
    if cfg.seed < 0:
        return "seed", "seed must be non-negative"
    return None


@dataclass(frozen=True, slots=True)
class SimRow:
    seed: int
    p: int
    en: float
    fraction: float
    amenable: bool
    identifiable: bool
    true_effect: float
    n_tuples: int
    n_unique: int
    ms: float


def _replicate_rows(
    rep_seed: int,
    p: int,
    en: float,
    cfg: SimConfig,
) -> list[SimRow]:
    rng_model = np.random.default_rng([rep_seed, 0])
    rng_data = np.random.default_rng([rep_seed, 1])
    rng_xy = np.random.default_rng([rep_seed, 2])
    rng_bg = np.random.default_rng([rep_seed, 3])

    for _ in range(_MAX_DRAWS):
        model = random_dag(p, en, rng_model)
        if model.coefficients:  # choose_xy needs an edge
            break
    else:
        raise ValueError(f"no DAG with an edge in {_MAX_DRAWS} draws at p={p}, en={en:g}")
    data = sample_data(model, cfg.sample_size, rng_data)
    x, y = choose_xy(model.dag, rng_xy)
    cpdag = cpdag_of(model.dag)
    truth = float(true_total_effect(model, x, y)[0])
    requirements = _background_requirements(cpdag, model.dag, rng_bg)
    # The query and the data are checked once here; every fraction's
    # graph is a maximal PDAG that construct_max_pdag built on cpdag's nodes.
    (x_mask, y_mask), data, col = _effect_data(cpdag, {"x": x, "y": y}, data, None)

    rows = []
    graph, merged = cpdag, 0
    # The parent sets of x only shrink as fractions grow, so most of a
    # row's regressions were fitted by an earlier row on the same data.
    fits: dict = {}
    for fraction in cfg.fractions:
        start = time.perf_counter()
        # Fractions ascend, so this fraction's prefix extends the last one's.
        count = int(round(fraction * len(requirements)))
        graph = _merge_background(graph, requirements[merged:count])
        merged = count
        amen, adjustment_set = _adjust_core(graph, x_mask, y_mask, model.dag)
        identifiable = adjustment_set is not None
        effects = _ida_core(graph, x, y, data, col, fits)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            SimRow(
                seed=rep_seed,
                p=p,
                en=en,
                fraction=fraction,
                amenable=amen,
                identifiable=identifiable,
                true_effect=truth,
                n_tuples=len(effects),
                n_unique=effects.unique_count(),
                ms=elapsed_ms,
            )
        )
    return rows


def run_simulation(cfg: SimConfig) -> list[SimRow]:
    """Run the study grid and return one row per (graph, fraction).

    Row order is deterministic: settings in grid order, replicates in
    seed order, fractions ascending.
    """
    settings = list(product(cfg.node_counts, cfg.neighborhood_sizes))
    total = len(settings) * cfg.graphs_per_setting
    seeds = np.random.SeedSequence(cfg.seed).generate_state(total, dtype=np.uint64)
    rows: list[SimRow] = []
    k = 0
    for p, en in settings:
        for _ in range(cfg.graphs_per_setting):
            rows.extend(_replicate_rows(int(seeds[k]), p, en, cfg))
            k += 1
    return rows


def rows_to_csv(rows: Iterable[SimRow]) -> str:
    """Render rows in the stable CSV schema (10 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(
            [
                row.seed,
                row.p,
                format(row.en, ".10g"),
                format(row.fraction, ".10g"),
                "true" if row.amenable else "false",
                "true" if row.identifiable else "false",
                format(row.true_effect, ".10g"),
                row.n_tuples,
                row.n_unique,
                format(row.ms, ".10g"),
            ]
        )
    return buf.getvalue()
