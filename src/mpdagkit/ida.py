"""Possible (joint) parent sets of intervention nodes and effect multisets.

Instead of listing every DAG in the class, each clique of a node's
undirected neighbours is tried as the node's extra parents (the other
neighbours becoming its children).  A query is checked once: its node
lists by the library's one node-list rule, then its data, then the graph
for maximality.  The intervention nodes are decided in order, each by
one local rule on the masks of the maximal PDAG that the earlier nodes'
picks were merged into; one node needs no copy and no merge.  Sibling
subsets that are not cliques are never tried: two non-adjacent parents
would form an unshielded collider the class lacks.  Effects are one
linear regression per surviving parent set, or path tracing through a
fitted extension DAG of each merged graph for joint interventions.  A
joint query fits each distinct (node, parent mask) regression once and
inverts its extensions' I - B in blocks as the search yields them, one
stacked LAPACK call per block; every effect is bit-identical to one
inversion per extension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .meek import _merge_one, _require_maximal
from .pdag_core import PdagGraph, QueryError, _bits, _query_masks, consistent_extension

DEDUP_TOLERANCE = 1e-8
# Extensions whose I - B are inverted in one stacked LAPACK call; this
# bounds a joint query's stacked arrays, whatever the family's size.
_BLOCK = 256


@dataclass(frozen=True)
class PossibleParents:
    """One accepted combination: the parent set of each intervention node."""

    parents: tuple[frozenset[str], ...]


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
    NaN.  The dedup view depends only on the values and DEDUP_TOLERANCE.
    """

    family: ParentSetFamily
    values: tuple

    def __len__(self) -> int:
        return len(self.values)

    def unique_values(self) -> list:
        vectors = [
            value if isinstance(value, tuple) else (value,) for value in self.values
        ]
        if not vectors:
            return []
        nan_seen = any(any(math.isnan(c) for c in vec) for vec in vectors)
        clean = [vec for vec in vectors if not any(math.isnan(c) for c in vec)]
        reps: list[tuple] = []
        for vec in sorted(clean):
            # A vector joins the first representative within the tolerance,
            # not only the last one: two near-equal vectors can sort on
            # either side of a third.  For scalars the last is the nearest.
            if not any(
                max(abs(a - b) for a, b in zip(vec, rep)) <= DEDUP_TOLERANCE for rep in reps
            ):
                reps.append(vec)
        out = [rep if len(rep) > 1 else rep[0] for rep in reps]
        if nan_seen:
            out.append(float("nan") if len(vectors[0]) == 1 else (float("nan"),) * len(vectors[0]))
        return out

    def unique_count(self) -> int:
        return len(self.unique_values())


def _cliques(g: PdagGraph, pool: int) -> list[int]:
    """The cliques of ``g`` inside node mask ``pool``, in binary-counter
    order over its nodes: extending every clique found so far by the
    next node, and appending, keeps that order."""
    cliques = [0]
    for v in _bits(pool):
        near = g._pa[v] | g._ch[v] | g._und[v]
        cliques += [m | 1 << v for m in cliques if not m & ~near]
    return cliques


def _accepted(g: PdagGraph, xs: tuple[str, ...], m: PdagGraph, parents=(), merge=False):
    """Yield each entry for ``xs`` that extends the parent sets
    ``parents`` of its first nodes, the next node decided on ``m``: ``g``
    with those picks merged in.  Each entry comes paired with the graph
    it merges into when ``merge`` is true, and with None otherwise."""
    i = len(parents)
    x = g._index[xs[i]]
    sib, pa = m._und[x], m._pa[x]
    picks = [t for t in _cliques(m, sib) if not any(m._pa[s] & sib & ~t for s in _bits(t))]
    last = i + 1 == len(xs)
    for t in picks:
        step = parents + (g._names(pa | t),)
        if last and not merge:
            yield PossibleParents(step), None
            continue
        merged = m._copy()
        for v in _bits(sib):
            reason = _merge_one(merged, *((v, x) if t >> v & 1 else (x, v)))
            assert reason is None, reason
        if last:
            yield PossibleParents(step), merged
        else:
            yield from _accepted(g, xs, merged, step, merge)


def possible_parent_sets(g: PdagGraph, xs: "str | Sequence[str]") -> ParentSetFamily:
    """All joint parent-set tuples of ``xs`` (a node name or a sequence
    of them) consistent with ``g``.

    The nodes are decided in order, each on the maximal PDAG ``m`` that
    the earlier nodes' picks were merged into (``g`` for the first).  The
    pool of node ``x`` is its siblings in ``g`` minus the earlier nodes.
    A clique ``S`` of the pool is accepted iff it keeps every orientation
    ``m`` has between ``x`` and the pool, and no ``s`` in ``S`` has a
    parent in ``sib_m(x) - S``; the parent set is ``pa_m(x) | S``.
    Entries follow a binary counter per node over its pool in node
    order, earlier nodes outermost.  One node needs no copy or merge.

    Orienting ``S -> x`` and ``x -> sib_m(x) - S`` must add no unshielded
    collider and no directed cycle, and then some DAG of ``m``'s class
    has these parents (Maathuis, Kalisch and Bühlmann, AoS 2009, for
    CPDAGs; Fang and He, UAI 2020, for maximal PDAGs).  As ``m`` is
    closed under Meek's (1995) rules, R1 makes every parent of ``x``
    adjacent to every sibling, and every parent of a sibling adjacent to
    ``x``, so the only colliders the new orientations could add join two
    picks, which the clique shields; R2 keeps every child of ``x`` out of
    the siblings' parents, and every sibling out of the parents' parents.
    What is left is the cycle ``s -> x -> t -> s`` with ``t`` unpicked.
    The pool's parents of ``x`` in ``m`` are pairwise adjacent, as ``m``
    adds no unshielded collider to ``g``, so the accepted ``S`` are they
    plus each clique of ``sib_m(x)`` that passes the test.

    Raises KeyError on an unknown node, QueryError when ``xs`` is empty
    or repeats a node, and then ValueError when ``g`` is not a maximal
    PDAG (acyclic, rule-closed and extendable).
    """
    xs = (xs,) if isinstance(xs, str) else tuple(xs)  # a bare string is one node
    _query_masks(g, {"xs": xs})
    _require_maximal(g)
    return ParentSetFamily(xs, tuple(entry for entry, _ in _accepted(g, xs, g)))


def _effect_data(
    g: PdagGraph, lists: dict, data, columns: Optional[Sequence[str]]
) -> tuple[list[int], np.ndarray, dict[str, int]]:
    """The masks of the query's node ``lists``, the data as a float
    matrix and each node's column, once the lists (treatments, then the
    outcome, by their labels) pass the one node-list rule and the data
    its checks, in order: the columns are the graph's nodes, the matrix
    is 2-d, the samples outnumber the nodes and every value is finite.
    A failed data check is a QueryError, like a broken list."""
    masks = _query_masks(g, lists)
    data = np.asarray(data, dtype=float)
    names = tuple(columns) if columns is not None else g.nodes
    if set(names) != set(g.nodes) or len(names) != len(g.nodes):
        raise QueryError("data columns do not match the graph's nodes")
    if data.ndim != 2 or data.shape[1] != len(names):
        raise QueryError(f"data must be a 2-d matrix with {len(names)} columns, got {data.shape}")
    if data.shape[0] <= len(g.nodes):
        raise QueryError("need more samples than variables")
    if not np.isfinite(data).all():
        raise QueryError("data must be finite (no nan or inf)")
    return masks, data, {name: i for i, name in enumerate(names)}


def _least_squares(
    data: np.ndarray,
    col: dict[str, int],
    target: str,
    regressors: list[str],
    fits: Optional[dict] = None,
) -> np.ndarray:
    """Least-squares coefficients of ``regressors`` (after an intercept)
    for ``target``; all NaN when the design matrix is rank deficient.

    ``fits``, when given, is a table of earlier results for this
    ``data``, keyed by ``(target, regressor tuple)``: a key it holds is
    not fitted again, and a new fit is stored in it.  A table is scoped
    to one data matrix (one study replicate), so a
    read-back result is the one the same ``lstsq`` call on the same
    design matrix gives.  Callers only read the arrays it returns."""
    if fits is not None:
        key = (target, tuple(regressors))
        if key not in fits:
            fits[key] = _least_squares(data, col, target, regressors)
        return fits[key]
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
    on ``x`` and ``P``.  The lists are labelled ``x`` and ``y``.
    """
    _, data, col = _effect_data(g, {"x": x, "y": y}, data, columns)
    _require_maximal(g)
    return _ida_core(g, x, y, data, col)


def _ida_core(
    g: PdagGraph,
    x: str,
    y: str,
    data: np.ndarray,
    col: dict[str, int],
    fits: Optional[dict] = None,
) -> EffectMultiset:
    """:func:`ida_effects` on the maximal ``g``, once its caller has
    checked the query and the data: :func:`ida_effects`, or a study
    replicate, which checks them once for the graphs of all its rows.

    ``fits`` is :func:`_least_squares`'s table for this ``data``, which a
    study replicate shares between its rows so that a regression an
    earlier row fitted is read back, not refitted.  It is scoped to one
    data matrix, and callers only read what it holds.
    """
    family = ParentSetFamily((x,), tuple(entry for entry, _ in _accepted(g, (x,), g)))
    values = []
    for entry in family:
        parents = entry.parents[0]
        if y in parents:
            values.append(0.0)
            continue
        regressors = [x] + sorted(parents, key=g.node_index)
        values.append(float(_least_squares(data, col, y, regressors, fits)[0]))
    return EffectMultiset(family, tuple(values))


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
    directed paths of fitted coefficient products).  The extensions
    share most nodes' parent sets, so each distinct (node, parent mask)
    regression is fitted once per query, with the parents in ascending
    index order, and its coefficients are reused by every extension that
    has it.  The extensions are taken in blocks of ``_BLOCK``: their B
    fill one stacked array, an extension with a rank-deficient fit gets
    a zeroed slice and a NaN vector, and one ``np.linalg.inv`` call
    inverts the block's I - B.  LAPACK inverts each matrix of a stack as
    it inverts it alone, so every effect is bit-identical to one
    inversion per extension.  Each block is filled as the parent-set
    search yields its merged graphs, so a stacked array holds one block
    at most, and so do the merged graphs held at once, not the family's.
    The lists are labelled ``xs`` and ``y``.
    """
    xs = (xs,) if isinstance(xs, str) else tuple(xs)  # a bare string is one node
    _, data, col = _effect_data(g, {"xs": xs, "y": y}, data, columns)
    _require_maximal(g)
    names, p = g.nodes, len(g.nodes)
    rows, out = [g._index[x] for x in xs], g._index[y]
    nan = (float("nan"),) * len(xs)
    fits: dict = {}  # (node, parent mask) -> (parent indices, coefficients)
    entries: list = []
    values: list = []
    pairs = _accepted(g, xs, g, merge=True)
    while block := list(itertools.islice(pairs, _BLOCK)):
        B = np.zeros((len(block), p, p))
        for slot, (entry, merged) in zip(B, block):
            entries.append(entry)
            dag = consistent_extension(merged)
            assert dag is not None, "merged graph of an accepted combination extends"
            for v, mask in enumerate(dag._pa):
                if not mask:
                    continue
                fit = fits.get((v, mask))
                if fit is None:
                    parents = list(_bits(mask))
                    fit = fits[v, mask] = (
                        parents,
                        _least_squares(data, col, names[v], [names[u] for u in parents]),
                    )
                slot[fit[0], v] = fit[1]
        del block  # the next block replaces these graphs, not joins them
        # Zeroing a slice with a rank-deficient fit keeps NaN from LAPACK.
        failed = np.isnan(B).any(axis=(1, 2))
        B[failed] = 0.0
        totals = np.linalg.inv(np.subtract(np.eye(p), B, out=B))
        for bad, effect in zip(failed.tolist(), totals[:, rows, out].tolist()):
            values.append(nan if bad else tuple(effect))
    return EffectMultiset(ParentSetFamily(xs, tuple(entries)), tuple(values))
