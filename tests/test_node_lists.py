"""The one node-list rule at every public query entry point.

Each entry point names its node lists by labels (``xs``, ``ys``, ``zs``
for sets, ``x`` and ``y`` for single nodes) and runs them through
``pdag_core._query_masks``: an unknown name is a KeyError, and two lists
sharing a node or one list naming a node twice is a QueryError worded
the same everywhere.  A single-node list cannot repeat a node, and a
query with one list cannot overlap, so those cases are not drawn.
"""

import numpy as np
import pytest

from mpdagkit.adjustment import (
    adjust_set,
    check_b_blocking,
    d_separated,
    forbidden_set,
    is_amenable,
    list_adjustment_sets,
    satisfies_b_adjustment,
)
from mpdagkit.causal_paths import b_possible_ancestors, b_possible_descendants
from mpdagkit.ida import ida_effects, joint_ida_effects, possible_parent_sets
from mpdagkit.pdag_core import QueryError
from mpdagkit.reference import b_blocking_by_enumeration, oracle_reach
from mpdagkit.sem_sim import random_dag, true_total_effect

MODEL = random_dag(4, 2.0, np.random.default_rng(3))
G = MODEL.dag  # a DAG over V1..V4, so every entry point takes it
DATA = np.random.default_rng(4).standard_normal((20, 4))

# Each entry point: the labels of its node lists, and a call with one
# argument per list.
ENTRIES = {
    "forbidden_set": (("xs", "ys"), lambda xs, ys: forbidden_set(G, xs, ys)),
    "is_amenable": (("xs", "ys"), lambda xs, ys: is_amenable(G, xs, ys)),
    "d_separated": (("xs", "ys", "zs"), lambda xs, ys, zs: d_separated(G, xs, ys, zs)),
    "check_b_blocking": (("xs", "ys", "zs"), lambda xs, ys, zs: check_b_blocking(G, xs, ys, zs)),
    "b_blocking_by_enumeration": (
        ("xs", "ys", "zs"),
        lambda xs, ys, zs: b_blocking_by_enumeration(G, xs, ys, zs),
    ),
    "satisfies_b_adjustment": (
        ("xs", "ys", "zs"),
        lambda xs, ys, zs: satisfies_b_adjustment(G, xs, ys, zs),
    ),
    "adjust_set": (("xs", "ys"), lambda xs, ys: adjust_set(G, xs, ys)),
    "list_adjustment_sets": (("xs", "ys"), lambda xs, ys: list_adjustment_sets(G, xs, ys)),
    "b_possible_descendants": (("xs",), lambda xs: b_possible_descendants(G, xs)),
    "b_possible_ancestors": (("xs",), lambda xs: b_possible_ancestors(G, xs)),
    "oracle_reach": (("xs",), lambda xs: oracle_reach(G, xs)),
    "possible_parent_sets": (("xs",), lambda xs: possible_parent_sets(G, xs)),
    "ida_effects": (("x", "y"), lambda x, y: ida_effects(G, x, y, DATA)),
    "joint_ida_effects": (("xs", "y"), lambda xs, y: joint_ida_effects(G, xs, y, DATA)),
    "true_total_effect": (("xs", "y"), lambda xs, y: true_total_effect(MODEL, xs, y)),
}

SINGLE = ("x", "y")  # labels of one-node arguments, passed as a bare name


def arguments(labels, first):
    """One argument per label: ``first`` for the first list, and a
    distinct node (V2, V3, ...) for each other one."""
    lists = [first] + [[f"V{i + 1}"] for i in range(1, len(labels))]
    return [names[0] if label in SINGLE else names for label, names in zip(labels, lists)]


def cases():
    for name, (labels, _) in ENTRIES.items():
        yield name, "unknown"
        if labels[0] not in SINGLE:
            yield name, "repeat"
        if len(labels) > 1:
            yield name, "overlap"


@pytest.mark.parametrize("name, mistake", list(cases()))
def test_one_rule_at_every_entry_point(name, mistake):
    labels, call = ENTRIES[name]
    if mistake == "unknown":
        with pytest.raises(KeyError, match="unknown node: 'Q'"):
            call(*arguments(labels, ["Q"]))
    elif mistake == "repeat":
        with pytest.raises(QueryError, match=f"^{labels[0]} names a node more than once$"):
            call(*arguments(labels, ["V1", "V1"]))
    else:
        args = arguments(labels, ["V1"])
        args[1] = args[0]
        message = rf"^{labels[0]} and {labels[1]} overlap: \{{V1\}}$"
        with pytest.raises(QueryError, match=message):
            call(*args)


def test_query_error_is_a_value_error():
    assert issubclass(QueryError, ValueError)
