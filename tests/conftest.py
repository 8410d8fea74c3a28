import numpy as np
import pytest

from mpdagkit.pdag_core import PdagGraph, parse_graph

FIG1_CPDAG_TEXT = "A -- B\nA -- D\nB -- C\nB -- D\nC -- D"

# The ten DAGs of the four-node class, as (directed edge list) tuples.
FIG1B_EDGE_SETS = [
    (("A", "B"), ("B", "C"), ("D", "C"), ("D", "A"), ("D", "B")),
    (("B", "A"), ("B", "C"), ("D", "C"), ("D", "A"), ("D", "B")),
    (("A", "B"), ("B", "C"), ("D", "C"), ("A", "D"), ("D", "B")),
    (("B", "A"), ("C", "B"), ("D", "C"), ("D", "A"), ("D", "B")),
    (("B", "A"), ("C", "B"), ("C", "D"), ("D", "A"), ("D", "B")),
    (("B", "A"), ("C", "B"), ("C", "D"), ("D", "A"), ("B", "D")),
    (("B", "A"), ("B", "C"), ("C", "D"), ("D", "A"), ("B", "D")),
    (("B", "A"), ("B", "C"), ("D", "C"), ("A", "D"), ("B", "D")),
    (("B", "A"), ("B", "C"), ("D", "C"), ("D", "A"), ("B", "D")),
    (("A", "B"), ("B", "C"), ("D", "C"), ("A", "D"), ("B", "D")),
]

FIG3_CPDAG_TEXT = "V1 -- X\nV2 -- X\nX -- Y\nV2 -- Y"
FIG3_G1_TEXT = "V1 -> X\nX -> V2\nX -> Y\nV2 -- Y"
FIG3_G2_TEXT = "Y -> X\nX -> V1\nV2 -- X\nV2 -- Y"


def write_fresh(path, text: str, encoding=None) -> None:
    """Write ``text`` to ``path`` as a new file.  Truncating a non-empty
    file makes ext4 flush it to disk when it is closed (``auto_da_alloc``),
    which costs tens of milliseconds; a sweep that rewrites one file per
    example unlinks it first, and a new file is written in microseconds."""
    path.unlink(missing_ok=True)
    path.write_text(text, encoding=encoding)


@pytest.fixture(scope="session")
def fig1_cpdag():
    return parse_graph(FIG1_CPDAG_TEXT)


@pytest.fixture(scope="session")
def fig1_mpdag(fig1_cpdag):
    return PdagGraph(
        fig1_cpdag.nodes,
        directed=[("D", "B")],
        undirected=[("A", "B"), ("A", "D"), ("B", "C"), ("C", "D")],
    )


@pytest.fixture(scope="session")
def fig1b_dags():
    return [PdagGraph("ABCD", directed=edges) for edges in FIG1B_EDGE_SETS]


@pytest.fixture(scope="session")
def fig1d_dags(fig1b_dags):
    return fig1b_dags[:5]


@pytest.fixture(scope="session")
def fig3_cpdag():
    return parse_graph(FIG3_CPDAG_TEXT)


@pytest.fixture(scope="session")
def fig3_g1():
    return parse_graph(FIG3_G1_TEXT)


@pytest.fixture(scope="session")
def fig3_g2():
    return parse_graph(FIG3_G2_TEXT)


def dag_key(g: PdagGraph):
    """Order-insensitive identity of a fully directed graph."""
    return frozenset(g.nodes), frozenset(g.directed_edges())


def edge_states(g: PdagGraph):
    return {pair: g.edge(*pair) for pair in g.skeleton()}


def same_graph(g: PdagGraph, h: PdagGraph) -> bool:
    """Equality up to node declaration order."""
    return set(g.nodes) == set(h.nodes) and edge_states(g) == edge_states(h)


def complete_graph(n: int) -> PdagGraph:
    """Fully undirected K_n on V0..V(n-1)."""
    names = [f"V{i}" for i in range(n)]
    return PdagGraph(names, undirected=[(a, b) for i, a in enumerate(names) for b in names[i + 1 :]])


def random_mpdag(rng: np.random.Generator, p_max: int, p_min: int = 3):
    """A random maximal PDAG with consistent extra orientations.

    Draws a random linear-SEM DAG, forms its CPDAG and merges a random
    subset of true-DAG orientations; returns (maximal PDAG, true DAG).
    """
    from mpdagkit.meek import construct_max_pdag, cpdag_of
    from mpdagkit.sem_sim import random_dag

    p = int(rng.integers(p_min, p_max + 1))
    en = float(rng.uniform(0.8, p - 1))
    dag = random_dag(p, en, rng).dag
    cpdag = cpdag_of(dag)
    undirected = cpdag.undirected_edges()
    k = int(rng.integers(0, len(undirected) + 1))
    picks = rng.permutation(len(undirected))[:k]
    reqs = []
    for i in picks:
        a, b = undirected[i]
        reqs.append((a, b) if dag.is_directed(a, b) else (b, a))
    outcome = construct_max_pdag(cpdag, reqs)
    assert outcome.ok, "true-DAG orientations are always consistent"
    return outcome.graph, dag
