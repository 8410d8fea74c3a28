"""Possible (joint) parent sets of intervention nodes and effect multisets.

Instead of listing every DAG in the class, each clique of a node's
undirected neighbours is tried as the node's extra parents (the other
neighbours becoming its children).  The graph is validated once.  For
one intervention node a clique is decided by a local rule on the masks
of the maximal PDAG, with no copy and no closure; for joint
interventions every combination of cliques is merged on its own copy
of the graph, reading the parents off its masks.  Sibling subsets that
are not cliques are never tried: two non-adjacent parents would form an
unshielded collider the class lacks.  Effects are one linear regression
per surviving parent set, or path tracing through a fitted extension
DAG of each merged graph for joint interventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from .extension import consistent_extension
from .meek import _merge_one, _require_maximal
from .pdag_core import PdagGraph, _bits

DEDUP_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PossibleParents:
    """One accepted combination: parent set per intervention node, plus
    the sibling subset that was promoted to parents for each."""

    parents: tuple[frozenset[str], ...]
    chosen_siblings: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class ParentSetFamily:
    """All accepted (joint) parent-set tuples for the intervention nodes."""

    interventions: tuple[str, ...]
    entries: tuple[PossibleParents, ...]

    def tuples(self) -> list[tuple[frozenset[str], ...]]:
        return [entry.parents for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class EffectMultiset:
    """Effect values aligned one-to-one with a parent-set family.

    Values are floats for a single intervention and equal-length tuples
    of floats for joint interventions; failed (rank-deficient) fits are
    NaN.  The dedup view depends only on the values and the tolerance.
    """

    family: ParentSetFamily
    values: tuple
    tolerance: float = DEDUP_TOLERANCE

    def __len__(self) -> int:
        return len(self.values)

    def unique_values(self, tolerance: Optional[float] = None) -> list:
        tol = self.tolerance if tolerance is None else tolerance
        vectors = [
            value if isinstance(value, tuple) else (value,) for value in self.values
        ]
        if not vectors:
            return []
        nan_seen = any(any(math.isnan(c) for c in vec) for vec in vectors)
        clean = [vec for vec in vectors if not any(math.isnan(c) for c in vec)]
        reps: list[tuple] = []
        for vec in sorted(clean):
            if not reps or max(abs(a - b) for a, b in zip(vec, reps[-1])) > tol:
                reps.append(vec)
        out = [rep if len(rep) > 1 else rep[0] for rep in reps]
        if nan_seen:
            out.append(float("nan") if len(vectors[0]) == 1 else (float("nan"),) * len(vectors[0]))
        return out

    def unique_count(self, tolerance: Optional[float] = None) -> int:
        return len(self.unique_values(tolerance))


def _check_interventions(g: PdagGraph, xs: tuple[str, ...]) -> None:
    """Raise unless ``xs`` are distinct nodes of ``g``, at least one,
    and ``g`` is a maximal PDAG (checked in that order)."""
    if not xs:
        raise ValueError("need at least one intervention node")
    if len(set(xs)) != len(xs):
        raise ValueError("intervention nodes must be distinct")
    g.check_nodes(xs)
    _require_maximal(g)


def _cliques(g: PdagGraph, pool: int) -> list[int]:
    """The cliques of ``g`` inside node mask ``pool``, in binary-counter
    order over its nodes: extending every clique found so far by the
    next node, and appending, keeps that order."""
    cliques = [0]
    for v in _bits(pool):
        near = g._pa[v] | g._ch[v] | g._und[v]
        cliques += [m | 1 << v for m in cliques if not m & ~near]
    return cliques


def _accepted_combinations(
    g: PdagGraph, xs: tuple[str, ...]
) -> Iterator[tuple[PossibleParents, PdagGraph]]:
    """Each accepted combination of sibling cliques in counter order,
    with the copy of ``g`` that its orientations (picked siblings into
    the node, the rest out of it) were merged into.  ``xs`` must pass
    ``_check_interventions``."""
    targets = [g._index[x] for x in xs]

    options = []  # per node: (chosen siblings, requirements), counter order
    for i, x in enumerate(targets):
        pool = g._und[x] & ~sum(1 << t for t in targets[:i])
        order = list(_bits(pool))
        options.append(
            [
                (g._names(m), [(v, x) if m >> v & 1 else (x, v) for v in order])
                for m in _cliques(g, pool)
            ]
        )

    for combo in product(*options):
        merged = g._copy()
        if all(_merge_one(merged, a, b) is None for _, reqs in combo for a, b in reqs):
            parents = tuple(g._names(merged._pa[x]) for x in targets)
            yield PossibleParents(parents, tuple(chosen for chosen, _ in combo)), merged


def possible_parent_sets(g: PdagGraph, xs: "str | Sequence[str]") -> ParentSetFamily:
    """All joint parent-set tuples of ``xs`` (a node name or a sequence
    of them) consistent with ``g``.

    Entries follow a binary counter per intervention node over its
    canonically ordered siblings (later nodes excluding earlier
    intervention nodes); only cliques are tried.  For two or more nodes,
    each combination's orientations are merged into a copy of ``g`` and
    the parent sets are read from the merged graph.

    For one node ``x`` nothing is copied or merged: a sibling clique
    ``S`` is accepted iff no ``s`` in ``S`` has a parent in
    ``sib(x) - S``, and its parent set is ``pa(x) | S``.  Orienting
    ``S -> x`` and ``x -> sib(x) - S`` must add no unshielded collider
    and no directed cycle, and then some DAG of the class has these
    parents (Maathuis, Kalisch and Bühlmann, AoS 2009, for CPDAGs; Fang
    and He, UAI 2020, for maximal PDAGs).  As ``g`` is closed under
    Meek's (1995) rules, R1 makes every parent of ``x`` adjacent to
    every sibling, and every parent of a sibling adjacent to ``x``, so
    the only colliders the new orientations could add join two picks,
    which the clique shields; R2 keeps every child of ``x`` out of the
    siblings' parents.  What is left is the cycle ``s -> x -> t -> s``
    with ``t`` unpicked.

    Raises ValueError when ``xs`` is empty or repeats a node, KeyError
    on an unknown node, and ValueError when ``g`` is not a maximal PDAG
    (acyclic, rule-closed and extendable).
    """
    xs = (xs,) if isinstance(xs, str) else tuple(xs)  # a bare string is one node
    _check_interventions(g, xs)
    if len(xs) > 1:
        return ParentSetFamily(xs, tuple(entry for entry, _ in _accepted_combinations(g, xs)))
    x = g._index[xs[0]]
    sib = g._und[x]
    entries = tuple(
        PossibleParents((g._names(g._pa[x] | picked),), (g._names(picked),))
        for picked in _cliques(g, sib)
        if not any(g._pa[s] & sib & ~picked for s in _bits(picked))
    )
    return ParentSetFamily(xs, entries)


def _effect_data(
    g: PdagGraph, xs: tuple[str, ...], y: str, data, columns: Optional[Sequence[str]]
) -> tuple[np.ndarray, dict[str, int]]:
    """The data as a float matrix and each node's column, once the query
    names nodes of ``g`` (a KeyError otherwise) with ``y`` outside ``xs``,
    the columns are its nodes, the samples outnumber them and every
    value is finite."""
    if y in xs:
        raise ValueError("outcome must not be an intervention node")
    g.check_nodes(xs + (y,))
    data = np.asarray(data, dtype=float)
    names = tuple(columns) if columns is not None else g.nodes
    if set(names) != set(g.nodes) or len(names) != len(g.nodes):
        raise ValueError("data columns do not match the graph's nodes")
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ValueError(f"data must be a 2-d matrix with {len(names)} columns, got {data.shape}")
    if data.shape[0] <= len(g.nodes):
        raise ValueError("need more samples than variables")
    if not np.isfinite(data).all():
        raise ValueError("data must be finite (no nan or inf)")
    return data, {name: i for i, name in enumerate(names)}


def _least_squares(
    data: np.ndarray, col: dict[str, int], target: str, regressors: list[str]
) -> np.ndarray:
    """Least-squares coefficients of ``regressors`` (after an intercept)
    for ``target``; all NaN when the design matrix is rank deficient."""
    n = data.shape[0]
    design = np.column_stack(
        [np.ones(n)] + [data[:, col[name]] for name in regressors]
    )
    response = data[:, col[target]]
    solution, _, rank, _ = np.linalg.lstsq(design, response, rcond=None)
    if rank < design.shape[1]:
        return np.full(len(regressors), np.nan)
    return solution[1:]


def ida_effects(
    g: PdagGraph,
    x: str,
    y: str,
    data: np.ndarray,
    columns: Optional[Sequence[str]] = None,
) -> EffectMultiset:
    """Multiset of possible total effects of ``x`` on ``y``.

    One value per possible parent set ``P`` of ``x``: zero when ``y`` is
    in ``P``, otherwise the coefficient of ``x`` when ``y`` is regressed
    on ``x`` and ``P``.
    """
    data, col = _effect_data(g, (x,), y, data, columns)
    family = possible_parent_sets(g, (x,))
    values = []
    for entry in family:
        parents = entry.parents[0]
        if y in parents:
            values.append(0.0)
            continue
        regressors = [x] + sorted(parents, key=g.node_index)
        values.append(float(_least_squares(data, col, y, regressors)[0]))
    return EffectMultiset(family, tuple(values))


def _fit_coefficient_matrix(
    dag: PdagGraph, data: np.ndarray, col: dict[str, int]
) -> np.ndarray:
    """Node-wise least squares on DAG parents; B[i, j] is the fitted
    direct effect of node i on node j (node order of the graph)."""
    names = dag.nodes
    B = np.zeros((len(names), len(names)))
    for v, mask in enumerate(dag._pa):
        parents = list(_bits(mask))
        if not parents:
            continue
        B[parents, v] = _least_squares(data, col, names[v], [names[u] for u in parents])
    return B


def joint_ida_effects(
    g: PdagGraph,
    xs: "str | Sequence[str]",
    y: str,
    data: np.ndarray,
    columns: Optional[Sequence[str]] = None,
) -> EffectMultiset:
    """Multiset of possible joint total effects of ``xs`` on ``y``.

    For each accepted parent-set combination the graph is oriented by
    the combination's required edges, one DAG extension is fitted node
    by node, and the effect vector is read from the inverse of
    (I - B) at the treatment rows and outcome column (the sum over
    directed paths of fitted coefficient products).
    """
    xs = (xs,) if isinstance(xs, str) else tuple(xs)  # a bare string is one node
    data, col = _effect_data(g, xs, y, data, columns)
    _check_interventions(g, xs)
    accepted = list(_accepted_combinations(g, xs))
    family = ParentSetFamily(xs, tuple(entry for entry, _ in accepted))
    idx = g._index

    values = []
    for _, merged in accepted:
        dag = consistent_extension(merged)
        assert dag is not None, "merged graph of an accepted combination extends"
        B = _fit_coefficient_matrix(dag, data, col)
        if np.isnan(B).any():
            values.append((float("nan"),) * len(xs))
            continue
        totals = np.linalg.inv(np.eye(len(idx)) - B)
        values.append(tuple(float(totals[idx[x], idx[y]]) for x in xs))
    return EffectMultiset(family, tuple(values))
