"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; the whole suite is seeded and deterministic.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from mpdagkit.adjustment import adjust_set, forbidden_set, is_amenable, satisfies_b_adjustment
from mpdagkit.causal_paths import ANCESTORS, b_possible_ancestors, b_possible_descendants
from mpdagkit.extension import enumerate_dags
from mpdagkit.ida import possible_parent_sets
from mpdagkit.meek import construct_max_pdag, cpdag_of
from mpdagkit.reference import oracle_reach
from mpdagkit.sem_sim import (
    SimConfig,
    add_background_fraction,
    choose_xy,
    random_dag,
    run_simulation,
    sample_data,
    true_total_effect,
)

from conftest import dag_key, random_mpdag
from helpers import scan_construct, all_rule_orders


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_01_figure_one_dag_classes(fig1_cpdag, fig1_mpdag, fig1b_dags):
    wide = enumerate_dags(fig1_cpdag)
    narrow = enumerate_dags(fig1_mpdag)
    assert len(wide) == 10
    assert len(narrow) == 5
    assert {dag_key(d) for d in wide} == {dag_key(d) for d in fig1b_dags}
    assert {dag_key(d) for d in narrow} == {dag_key(d) for d in fig1b_dags[:5]}
    report(1, "class sizes 10 and 5, members exactly the listed DAGs")


def test_criterion_02_reachability_examples(fig1_cpdag, fig1_mpdag):
    assert b_possible_descendants(fig1_cpdag, "B").nodes == {"A", "B", "C", "D"}
    assert b_possible_descendants(fig1_mpdag, "B").nodes == {"A", "B", "C"}
    for node in ("A", "C", "D"):
        assert (
            b_possible_descendants(fig1_cpdag, node).nodes
            == b_possible_descendants(fig1_mpdag, node).nodes
        )
    report(2, "possible-descendant sets match the worked example exactly")


def test_criterion_03_adjustment_examples(fig3_cpdag, fig3_g1, fig3_g2):
    assert not is_amenable(fig3_cpdag, "X", "Y").ok
    assert forbidden_set(fig3_g1, "X", "Y").nodes == {"V2", "Y"}
    from mpdagkit.adjustment import list_adjustment_sets

    assert list_adjustment_sets(fig3_g1, "X", "Y") == [frozenset(), frozenset({"V1"})]
    assert adjust_set(fig3_g2, "X", "Y") is None
    verdict = satisfies_b_adjustment(fig3_g2, "X", "Y", ())
    assert not verdict.overall and verdict.zero_effect
    report(3, "amenability, forbidden set, valid sets and zero-effect flag exact")


def test_criterion_04_parent_set_examples(fig1_mpdag):
    single = {t[0] for t in possible_parent_sets(fig1_mpdag, ["C"]).tuples()}
    assert single == {frozenset(), frozenset({"D"}), frozenset({"B", "D"})}
    assert frozenset({"B"}) not in single
    joint = set(possible_parent_sets(fig1_mpdag, ["C", "D"]).tuples())
    assert joint == {
        (frozenset(), frozenset({"C"})),
        (frozenset({"D"}), frozenset()),
        (frozenset({"B", "D"}), frozenset()),
        (frozenset({"B", "D"}), frozenset({"A"})),
    }
    report(4, "single and joint parent-set families exact, local-only set excluded")


@pytest.fixture(scope="module")
def criterion_sweep():
    """Shared instances for the two theorem-level sweeps."""
    rng = np.random.default_rng(20250811)
    instances = []
    for _ in range(300):
        g, _ = random_mpdag(rng, 6)
        dags = list(enumerate_dags(g))
        assert dags
        views = [_dag_view(d) for d in dags]
        per_pair = []
        nodes = list(g.nodes)
        for x in nodes:
            for y in nodes:
                if x == y:
                    continue
                rest = [n for n in nodes if n not in (x, y)]
                oracle_cache = [_dag_condition_cache(view, x, y) for view in views]
                z_results = []
                for r in range(len(rest) + 1):
                    for zs in combinations(rest, r):
                        mine = satisfies_b_adjustment(g, x, y, zs).overall
                        oracle = all(
                            _cached_criterion(cache, frozenset(zs))
                            for cache in oracle_cache
                        )
                        z_results.append((frozenset(zs), mine, oracle))
                per_pair.append((x, y, z_results))
        instances.append((g, per_pair))
    return instances


def _dag_view(d):
    """Name adjacency, directed edges and descendant sets of one DAG,
    built once from its public edge list and shared by all its queries."""
    from helpers import dag_descendants, name_adjacency

    descendants = {v: frozenset(dag_descendants(d, v)) for v in d.nodes}
    return name_adjacency(d), frozenset(d.directed_edges()), descendants


def _dag_condition_cache(view, x, y):
    """Forbidden set and the non-causal paths' blocking data of one DAG
    query, from a single enumeration of its proper paths."""
    from helpers import _proper_paths

    adjacent, directed, descendants = view
    forbidden = set()
    noncausal = []
    for path in _proper_paths(adjacent, frozenset({x}), frozenset({y})):
        if all(step in directed for step in zip(path, path[1:])):
            for w in path[1:]:
                forbidden |= descendants[w]
            continue
        noncolliders = set()
        collider_descendants = []
        for left, mid, right in zip(path, path[1:], path[2:]):
            if (left, mid) in directed and (right, mid) in directed:
                collider_descendants.append(descendants[mid])
            else:
                noncolliders.add(mid)
        noncausal.append((frozenset(noncolliders), tuple(collider_descendants)))
    return forbidden, noncausal


def _cached_criterion(cache, zs):
    forbidden, noncausal = cache
    if zs & forbidden:
        return False
    for noncolliders, collider_descendants in noncausal:
        connecting = not (noncolliders & zs) and all(
            dset & zs for dset in collider_descendants
        )
        if connecting:
            return False
    return True


def test_criterion_05_criterion_equals_every_dag_verdict(criterion_sweep):
    disagreements = 0
    checked = 0
    for _g, per_pair in criterion_sweep:
        for _x, _y, z_results in per_pair:
            for _zs, mine, oracle in z_results:
                checked += 1
                if mine != oracle:
                    disagreements += 1
    assert checked > 10_000
    assert disagreements == 0
    report(5, f"criterion matched the every-DAG verdict on {checked} queries")


def test_criterion_06_constructive_set_completeness(criterion_sweep):
    disagreements = 0
    checked = 0
    for g, per_pair in criterion_sweep:
        for x, y, z_results in per_pair:
            exists = any(mine for _zs, mine, _oracle in z_results)
            constructed = adjust_set(g, x, y) is not None
            checked += 1
            if exists != constructed:
                disagreements += 1
    assert disagreements == 0
    report(6, f"canonical-set success matched set existence on {checked} pairs")


def test_criterion_07_reachability_oracle_sweep():
    rng = np.random.default_rng(20250812)
    disagreements = 0
    for _ in range(500):
        g, _ = random_mpdag(rng, 7)
        for node in g.nodes:
            if b_possible_descendants(g, node).nodes != oracle_reach(g, node).nodes:
                disagreements += 1
            if (
                b_possible_ancestors(g, node).nodes
                != oracle_reach(g, node, ANCESTORS).nodes
            ):
                disagreements += 1
    assert disagreements == 0
    report(7, "search and enumeration oracle agreed on 500 graphs")


def test_criterion_08_orientation_confluence():
    rng = np.random.default_rng(20250813)
    orders = all_rule_orders()
    fails = 0
    for _ in range(200):
        g, dag = random_mpdag(rng, 8)
        reqs = []
        for a, b in g.undirected_edges():
            roll = rng.random()
            if roll < 0.45:
                reqs.append((a, b) if dag.is_directed(a, b) else (b, a))
            elif roll < 0.6:
                # deliberately against the data-generating DAG: may conflict
                reqs.append((a, b) if dag.is_directed(b, a) else (b, a))
        baseline = construct_max_pdag(g, reqs)
        if not baseline.ok:
            fails += 1
        for _ in range(3):
            perm = list(reqs)
            rng.shuffle(perm)
            order = orders[int(rng.integers(len(orders)))]
            reference = scan_construct(g, perm, order)
            if baseline.ok:
                assert reference is not None and reference == baseline.graph
            else:
                assert reference is None
    assert fails > 0, "sweep must exercise the failure branch"
    report(8, f"200 instances order-invariant ({fails} consistent failures)")


def test_criterion_09_adjusted_regression_coverage():
    rng = np.random.default_rng(20250814)
    hits = 0
    trials = 0
    while trials < 100:
        p = int(rng.integers(4, 11))
        en = float(rng.uniform(1.5, min(4.0, p - 1)))
        model = random_dag(p, en, rng)
        try:
            x, y = choose_xy(model.dag, rng)
        except ValueError:
            continue
        cpdag = cpdag_of(model.dag)
        graph = add_background_fraction(cpdag, model.dag, float(rng.uniform(0, 1)), rng)
        zs = adjust_set(graph, x, y)
        if zs is None:
            continue
        trials += 1
        data = sample_data(model, 10_000, rng)
        idx = {name: i for i, name in enumerate(model.dag.nodes)}
        design = np.column_stack(
            [np.ones(10_000), data[:, idx[x]]]
            + [data[:, idx[z]] for z in sorted(zs)]
        )
        response = data[:, idx[y]]
        beta, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
        resid = response - design @ beta
        sigma2 = float(resid @ resid) / (10_000 - design.shape[1])
        se = math.sqrt(sigma2 * np.linalg.inv(design.T @ design)[1, 1])
        truth = float(true_total_effect(model, x, y)[0])
        if abs(float(beta[1]) - truth) <= 3 * se:
            hits += 1
    assert hits >= 95
    report(9, f"adjusted estimate within 3 standard errors in {hits}/100 runs")


def test_criterion_10_simulation_trends():
    cfg = SimConfig(
        node_counts=(10, 20),
        neighborhood_sizes=(3.0, 5.0),
        graphs_per_setting=200,
        sample_size=200,
        seed=1,
    )
    rows = run_simulation(cfg)
    assert len(rows) == 2 * 2 * 200 * 11

    for row in rows:
        if row.fraction == 1.0:
            assert row.identifiable, row
            assert row.n_unique == 1, row

    for p in cfg.node_counts:
        for en in cfg.neighborhood_sizes:
            curve = []
            for fraction in cfg.fractions:
                sel = [
                    r
                    for r in rows
                    if r.p == p and r.en == en and r.fraction == fraction
                ]
                assert len(sel) == 200
                curve.append(sum(r.identifiable for r in sel) / len(sel))
            assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:])), (p, en, curve)
            assert curve[-1] == 1.0

    p20_frac0 = [r for r in rows if r.p == 20 and r.fraction == 0.0]
    share = sum(r.identifiable for r in p20_frac0) / len(p20_frac0)
    assert 0.80 <= share <= 1.00, share
    report(
        10,
        f"curves non-decreasing, full-knowledge rows perfect, p=20 baseline {share:.3f}",
    )
