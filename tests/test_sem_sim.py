import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mpdagkit import sem_sim
from mpdagkit.adjustment import adjust_set, is_amenable
from mpdagkit.extension import represents
from mpdagkit.ida import ida_effects, possible_parent_sets
from mpdagkit.meek import cpdag_of
from mpdagkit.pdag_core import GraphParseError, PdagGraph, parse_graph
from mpdagkit.sem_sim import (
    SemModel,
    SimConfig,
    add_background_fraction,
    choose_xy,
    load_sem_model,
    random_dag,
    rows_to_csv,
    run_simulation,
    sample_data,
    serialize_sem_model,
    true_total_effect,
)

from helpers import name_sample_data


class TestRandomDag:
    def test_two_nodes_always_connected(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_dag(2, 1, rng)
            assert model.dag.is_directed("V1", "V2")

    def test_edge_count_mean(self):
        rng = np.random.default_rng(2)
        p, en = 8, 3.0
        counts = [random_dag(p, en, rng).dag.edge_count() for _ in range(1000)]
        expected = p * en / 2
        assert abs(np.mean(counts) - expected) / expected < 0.05

    def test_weight_law(self):
        rng = np.random.default_rng(3)
        model = random_dag(12, 6, rng)
        assert model.coefficients
        for w in model.coefficients.values():
            assert 0.1 <= abs(w) <= 1.0

    def test_deterministic(self):
        a = random_dag(6, 2, np.random.default_rng(99))
        b = random_dag(6, 2, np.random.default_rng(99))
        assert a.dag == b.dag and a.coefficients == b.coefficients

    def test_parameter_bounds(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            random_dag(1, 1, rng)
        with pytest.raises(ValueError):
            random_dag(5, 0, rng)
        with pytest.raises(ValueError):
            random_dag(5, 5, rng)


class TestSemModel:
    def test_validation(self):
        g = parse_graph("A -> B")
        with pytest.raises(ValueError, match="support"):
            SemModel(g, {}, {"A": 1.0, "B": 1.0})
        with pytest.raises(ValueError, match="noise"):
            SemModel(g, {("A", "B"): 0.5}, {"A": 1.0})
        with pytest.raises(ValueError, match="DAG"):
            SemModel(parse_graph("A -- B"), {}, {"A": 1.0, "B": 1.0})
        with pytest.raises(ValueError, match="noise scales must be positive"):
            SemModel(g, {("A", "B"): 0.5}, {"A": 1.0, "B": 0.0})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A -> B nan\nB -> C 0.5", "edge A -> B has non-finite weight nan"),
            ("A -> B 0.5\nB -> C inf", "edge B -> C has non-finite weight inf"),
            ("A -> B -inf", "edge A -> B has non-finite weight -inf"),
        ],
    )
    def test_load_rejects_non_finite_weights(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_sem_model(text)

    def test_constructor_rejects_non_finite_weights_and_noise(self):
        g = parse_graph("A -> B")
        with pytest.raises(ValueError, match="edge A -> B has non-finite weight nan"):
            SemModel(g, {("A", "B"): math.nan}, {"A": 1.0, "B": 1.0})
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"B has {scale!r}"):
                SemModel(g, {("A", "B"): 0.5}, {"A": 1.0, "B": scale})

    def test_model_text_round_trip(self):
        model = random_dag(6, 2.5, np.random.default_rng(5))
        again = load_sem_model(serialize_sem_model(model))
        assert again.dag == model.dag
        assert again.coefficients == model.coefficients

    def test_load_requires_weights(self):
        with pytest.raises(Exception, match="weight"):
            load_sem_model("A -> B")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A -> B 0.5\nB -> A 0.3", "line 2: duplicate edge"),
            ("A -> A 0.5", "line 1: self-loop"),
            ("A -> B 0.5\nB -- C", "line 2: SEM models allow only directed edges"),
        ],
    )
    def test_load_reports_bad_pairs_with_line(self, text, message):
        with pytest.raises(GraphParseError, match=message):
            load_sem_model(text)


class TestSampling:
    def test_independent_when_disconnected(self):
        g = parse_graph("node A\nnode B")
        model = SemModel(g, {}, {"A": 1.0, "B": 1.0})
        data = sample_data(model, 20_000, np.random.default_rng(6))
        corr = np.corrcoef(data.T)[0, 1]
        assert abs(corr) < 0.02

    def test_slope_recovery(self):
        g = parse_graph("X -> Y")
        model = SemModel(g, {("X", "Y"): 2.0}, {"X": 1.0, "Y": 1.0})
        data = sample_data(model, 100_000, np.random.default_rng(7))
        slope = np.polyfit(data[:, 0], data[:, 1], 1)[0]
        assert abs(slope - 2.0) < 0.02

    def test_deterministic(self):
        model = random_dag(5, 2, np.random.default_rng(8))
        a = sample_data(model, 50, np.random.default_rng(11))
        b = sample_data(model, 50, np.random.default_rng(11))
        assert np.array_equal(a, b)


    def test_random_models_match_the_name_based_sampler(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = int(rng.integers(2, 13))
            model = random_dag(p, float(rng.uniform(0.2, 1.0)) * (p - 1), rng)
            n, seed = int(rng.integers(1, 40)), int(rng.integers(2**32))
            got = sample_data(model, n, np.random.default_rng(seed))
            assert np.array_equal(got, name_sample_data(model, n, np.random.default_rng(seed)))

    def test_shuffled_declarations_match_the_name_based_sampler(self):
        # Declaring a head before its tail puts node order against the
        # topological order the sampler walks.
        models = [load_sem_model("node B\nnode A\nA -> B 0.5")]
        rng = np.random.default_rng(43)
        for _ in range(100):
            model = random_dag(int(rng.integers(3, 10)), 2.0, rng)
            nodes = "".join(f"node {model.dag.nodes[i]}\n" for i in rng.permutation(len(model.dag)))
            edges = "".join(f"{t} -> {h} {w!r}\n" for (t, h), w in model.coefficients.items())
            models.append(load_sem_model(nodes + edges))
        for seed, model in enumerate(models):
            got = sample_data(model, 30, np.random.default_rng(seed))
            assert np.array_equal(got, name_sample_data(model, 30, np.random.default_rng(seed)))

    def test_needs_a_sample(self):
        model = random_dag(4, 2.0, np.random.default_rng(8))
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_data(model, 0, np.random.default_rng(9))


class TestTrueEffect:
    def test_chain(self):
        model = load_sem_model("X -> M 0.5\nM -> Y 0.8")
        assert true_total_effect(model, "X", "Y")[0] == pytest.approx(0.4)

    def test_non_descendant_is_zero(self):
        model = load_sem_model("Y -> X 0.5")
        assert true_total_effect(model, "X", "Y")[0] == 0.0

    def test_two_routes_add(self):
        model = load_sem_model("X -> Y 0.3\nX -> M 0.5\nM -> Y 0.8")
        assert true_total_effect(model, "X", "Y")[0] == pytest.approx(0.3 + 0.4)

    def test_outcome_not_intervention(self):
        model = load_sem_model("X -> Y 0.3")
        with pytest.raises(ValueError):
            true_total_effect(model, "X", "X")


class TestBackgroundFraction:
    def test_fraction_zero_is_identity(self):
        model = random_dag(8, 3, np.random.default_rng(12))
        cpdag = cpdag_of(model.dag)
        out = add_background_fraction(cpdag, model.dag, 0.0, np.random.default_rng(1))
        assert out == cpdag

    def test_fraction_one_recovers_dag(self):
        model = random_dag(8, 3, np.random.default_rng(13))
        cpdag = cpdag_of(model.dag)
        out = add_background_fraction(cpdag, model.dag, 1.0, np.random.default_rng(1))
        assert out == model.dag

    def test_always_represents_truth(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            model = random_dag(7, 2.5, rng)
            cpdag = cpdag_of(model.dag)
            fraction = float(rng.uniform(0, 1))
            out = add_background_fraction(cpdag, model.dag, fraction, rng)
            assert represents(out, model.dag)

    def test_nested_under_shared_seed(self):
        model = random_dag(10, 4, np.random.default_rng(15))
        cpdag = cpdag_of(model.dag)
        previous = set()
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = add_background_fraction(
                cpdag, model.dag, fraction, np.random.default_rng(42)
            )
            current = set(out.directed_edges())
            assert previous <= current
            previous = current

    def test_fraction_bounds(self):
        model = random_dag(4, 2, np.random.default_rng(16))
        cpdag = cpdag_of(model.dag)
        with pytest.raises(ValueError, match="fraction"):
            add_background_fraction(cpdag, model.dag, 1.5, np.random.default_rng(0))

    def test_skeleton_mismatch_rejected(self):
        model = random_dag(4, 2, np.random.default_rng(17))
        other = random_dag(4, 3, np.random.default_rng(18))
        with pytest.raises(ValueError, match="skeleton"):
            add_background_fraction(
                cpdag_of(model.dag), other.dag, 0.5, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("seed, edge", [(0, "('C', 'B')"), (3, "('A', 'B')")])
    def test_true_dag_outside_the_class_rejected(self, seed, edge):
        # Same skeleton, but the true DAG adds a collider the CPDAG lacks;
        # which requirement fails first depends on the drawn order.
        cpdag = cpdag_of(parse_graph("A -> B\nB -> C"))
        message = (
            f"background edge {edge} is inconsistent; the input graph does not "
            "represent the true DAG"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            add_background_fraction(
                cpdag, parse_graph("A -> B\nC -> B"), 1.0, np.random.default_rng(seed)
            )

    def test_skeleton_check_with_other_node_order(self):
        model = random_dag(5, 3, np.random.default_rng(19))
        cpdag = cpdag_of(model.dag)
        shuffled = PdagGraph(
            cpdag.nodes[::-1],
            directed=cpdag.directed_edges(),
            undirected=cpdag.undirected_edges(),
        )
        full = add_background_fraction(shuffled, model.dag, 1.0, np.random.default_rng(0))
        assert set(full.directed_edges()) == set(model.dag.directed_edges())
        other = random_dag(5, 2, np.random.default_rng(20))
        with pytest.raises(ValueError, match="skeleton"):
            add_background_fraction(shuffled, other.dag, 0.5, np.random.default_rng(0))


class TestChooseXY:
    def test_two_node_graph(self):
        dag = parse_graph("V1 -> V2")
        rng = np.random.default_rng(19)
        for _ in range(20):
            x, y = choose_xy(dag, rng)
            assert (x, y) == ("V1", "V2")

    def test_star_into_center_redraws(self):
        dag = parse_graph("L1 -> C\nL2 -> C\nL3 -> C")
        rng = np.random.default_rng(20)
        for _ in range(30):
            x, y = choose_xy(dag, rng)
            assert x != "C"
            assert y not in dag.parents(x)

    def test_deterministic(self):
        dag = random_dag(8, 3, np.random.default_rng(21)).dag
        assert choose_xy(dag, np.random.default_rng(5)) == choose_xy(
            dag, np.random.default_rng(5)
        )

    def test_no_pair_possible(self):
        dag = parse_graph("node A\nnode B")
        with pytest.raises(ValueError, match="no valid"):
            choose_xy(dag, np.random.default_rng(22))


SMOKE_CFG = SimConfig(
    node_counts=(5,),
    neighborhood_sizes=(2.0,),
    graphs_per_setting=4,
    sample_size=60,
    fractions=(0.0, 0.5, 1.0),
    seed=7,
)


class TestSimulation:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            SimConfig(fractions=(0.5, 0.0), sample_size=100)
        with pytest.raises(ValueError, match="sample size"):
            SimConfig(node_counts=(10,), sample_size=10)

    def test_config_needs_a_fraction(self):
        with pytest.raises(ValueError, match="need at least one fraction"):
            SimConfig(fractions=())

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"fractions": (0.0, 1.5)}, r"fractions must lie in \[0, 1\]"),
            ({"neighborhood_sizes": ()}, "need at least one neighbourhood size"),
            ({"seed": -1}, "seed must be non-negative"),
        ],
        ids=["fraction_above_one", "no_neighbourhood_sizes", "negative_seed"],
    )
    def test_config_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**changes)

    def test_replicates_redraw_models_with_no_edge(self):
        # About one DAG in thirteen has no edge at p = 10, en = 0.5; such a
        # replicate takes the next draw with an edge from its model stream.
        cfg = SimConfig(
            node_counts=(10,),
            neighborhood_sizes=(0.5,),
            graphs_per_setting=20,
            sample_size=20,
            fractions=(0.0, 1.0),
            seed=3,
        )
        rows = run_simulation(cfg)
        assert len(rows) == 40
        redrawn = 0
        for row in rows[::2]:
            rng = np.random.default_rng([row.seed, 0])
            model = random_dag(10, 0.5, rng)
            redrawn += not model.coefficients
            while not model.coefficients:
                model = random_dag(10, 0.5, rng)
            x, y = choose_xy(model.dag, np.random.default_rng([row.seed, 2]))
            assert row.true_effect == float(true_total_effect(model, x, y)[0])
        assert redrawn >= 1

    def test_edgeless_grid_fails_after_bounded_draws(self):
        cfg = SimConfig(
            node_counts=(2,),
            neighborhood_sizes=(1e-12,),
            graphs_per_setting=1,
            sample_size=5,
            fractions=(0.0,),
            seed=1,
        )
        with pytest.raises(ValueError, match="no DAG with an edge in 1000 draws at p=2, en=1e-12"):
            run_simulation(cfg)

    def test_smoke_run_shape_and_determinism(self):
        def content(row):
            return (
                row.seed,
                row.p,
                row.en,
                row.fraction,
                row.amenable,
                row.identifiable,
                row.true_effect,
                row.n_tuples,
                row.n_unique,
            )

        rows = run_simulation(SMOKE_CFG)
        assert len(rows) == 4 * 3
        # everything except the wall-time column is reproducible
        assert [content(r) for r in rows] == [
            content(r) for r in run_simulation(SMOKE_CFG)
        ]

    def test_full_background_rows(self):
        for row in run_simulation(SMOKE_CFG):
            if row.fraction == 1.0:
                assert row.identifiable
                assert row.n_unique == 1

    def test_identifiability_monotone_per_replicate(self):
        rows = run_simulation(SMOKE_CFG)
        by_rep = {}
        for row in rows:
            by_rep.setdefault(row.seed, []).append(row)
        for rep_rows in by_rep.values():
            flags = [r.identifiable for r in sorted(rep_rows, key=lambda r: r.fraction)]
            assert flags == sorted(flags)

    def test_unique_counts_monotone_per_replicate(self):
        rows = run_simulation(SMOKE_CFG)
        by_rep = {}
        for row in rows:
            by_rep.setdefault(row.seed, []).append(row)
        for rep_rows in by_rep.values():
            counts = [r.n_unique for r in sorted(rep_rows, key=lambda r: r.fraction)]
            assert counts == sorted(counts, reverse=True)

    def test_csv_schema(self):
        rows = run_simulation(SMOKE_CFG)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "seed,p,en,fraction,amenable,identifiable,true_effect,n_tuples,n_unique,ms"
        )
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert first[1] == "5"
        assert first[4] in ("true", "false")


# Rows of DIGEST_CFG rendered by rows_to_csv with ms set to 0, as the
# study computed them when it re-merged every fraction from the CPDAG.
DIGEST_CFG = SimConfig(
    node_counts=(6, 10),
    neighborhood_sizes=(2.0, 4.0),
    graphs_per_setting=15,
    sample_size=60,
    seed=11,
)
ROWS_DIGEST = "976d07b69cc2be7daca9425c49d6935af9f5fb51dc3f04bda3dca54094fd644b"


class TestStudyRoute:
    def test_rows_match_pinned_digest(self):
        rows = run_simulation(DIGEST_CFG)
        text = rows_to_csv(dataclasses.replace(row, ms=0.0) for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == ROWS_DIGEST

    def test_fraction_graphs_match_add_background_fraction(self, monkeypatch):
        # The study merges each fraction's new edges into the previous
        # graph; every graph it analyses must be the whole-prefix merge.
        # The repeated fraction merges an empty slice.
        seen = []
        adjust_core = sem_sim._adjust_core

        def recording(graph, x_mask, y_mask):
            seen.append(graph)
            return adjust_core(graph, x_mask, y_mask)

        monkeypatch.setattr(sem_sim, "_adjust_core", recording)
        cfg = SimConfig(
            node_counts=(6, 9),
            neighborhood_sizes=(2.0, 3.0),
            graphs_per_setting=75,
            sample_size=40,
            fractions=(0.0, 0.1, 0.3, 0.3, 0.7, 1.0),
            seed=23,
        )
        rows = run_simulation(cfg)
        assert len(rows) == len(seen) == 300 * len(cfg.fractions)
        for row, graph in zip(rows, seen):
            dag = random_dag(row.p, row.en, np.random.default_rng([row.seed, 0])).dag
            want = add_background_fraction(
                cpdag_of(dag), dag, row.fraction, np.random.default_rng([row.seed, 3])
            )
            assert graph == want


TABLE_CFG = SimConfig(
    node_counts=(6, 8),
    neighborhood_sizes=(3.0, 5.0),
    graphs_per_setting=5,
    sample_size=20,
    seed=30,
)


def few_distinct_rows(model, n, rng):
    """``sample_data`` with every row a copy of one of the first four, so
    that a regression on more than three regressors is rank deficient."""
    return sample_data(model, n, rng)[np.arange(n) % 4]


def study_queries(rows, sample):
    """Each row's IDA query rebuilt from its replicate's seeded streams:
    the graph, the treatment, the outcome and the data."""
    for row in rows:
        rng = np.random.default_rng([row.seed, 0])
        model = random_dag(row.p, row.en, rng)
        while not model.coefficients:
            model = random_dag(row.p, row.en, rng)
        data = sample(model, TABLE_CFG.sample_size, np.random.default_rng([row.seed, 1]))
        x, y = choose_xy(model.dag, np.random.default_rng([row.seed, 2]))
        graph = add_background_fraction(
            cpdag_of(model.dag), model.dag, row.fraction, np.random.default_rng([row.seed, 3])
        )
        yield graph, x, y, data


class TestReplicateFitTable:
    """The rows of a replicate share one fit table for its data matrix."""

    def test_rows_equal_ida_without_a_table(self, monkeypatch):
        monkeypatch.setattr(sem_sim, "sample_data", few_distinct_rows)
        effects = []
        study_route = sem_sim._ida_core

        def recording(*args, **kwargs):
            effects.append(study_route(*args, **kwargs))
            return effects[-1]

        monkeypatch.setattr(sem_sim, "_ida_core", recording)
        rows = run_simulation(TABLE_CFG)
        assert len(effects) == len(rows)
        fitted = failed = 0
        for row, got, query in zip(rows, effects, study_queries(rows, few_distinct_rows)):
            want = ida_effects(*query)
            assert (row.n_tuples, row.n_unique) == (len(want), want.unique_count())
            assert got.family == want.family
            assert [math.isnan(v) for v in got.values] == [math.isnan(v) for v in want.values]
            assert [v for v in got.values if not math.isnan(v)] == [
                v for v in want.values if not math.isnan(v)
            ]
            failed += sum(map(math.isnan, want.values))
            fitted += sum(v != 0 and not math.isnan(v) for v in want.values)
        assert failed and fitted  # both outcomes of a fit are read back

    def test_each_replicate_fits_each_regression_once(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        rows = run_simulation(TABLE_CFG)
        fits = len(calls)
        keys = set()
        regressions = 0
        for row, (graph, x, y, _data) in zip(rows, study_queries(rows, sample_data)):
            for (parents,) in possible_parent_sets(graph, x).tuples():
                if y not in parents:
                    keys.add((row.seed, y, x, tuple(sorted(parents, key=graph.node_index))))
                    regressions += 1
        assert fits == len(keys) < regressions


class TestReplicateChecks:
    """A replicate checks its query and data once, then runs the private
    cores on each fraction's graph; its rows still give the public
    entry points' answers."""

    def test_rows_equal_the_public_adjustment_queries(self):
        rows = run_simulation(TABLE_CFG)
        amenable = identifiable = 0
        for row, (graph, x, y, _data) in zip(rows, study_queries(rows, sample_data)):
            assert row.amenable == is_amenable(graph, x, y).ok, (row, graph, x, y)
            assert row.identifiable == (adjust_set(graph, x, y) is not None), (row, graph, x, y)
            amenable += row.amenable
            identifiable += row.identifiable
        assert 0 < amenable < len(rows) and 0 < identifiable < len(rows)


SAMPLE_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from mpdagkit.sem_sim import random_dag, sample_data
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for _ in range(20):
    model = random_dag(9, 4.0, rng)
    digest.update(sample_data(model, 50, rng).tobytes())
print(digest.hexdigest())
"""


class TestSampleDataDeterminism:
    def test_independent_of_hash_seed(self):
        digests = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", SAMPLE_DIGEST_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1
