"""Reference answers for checking benchmark outputs.

These avoid the library's production routes: adjustment validity is
decided in every DAG of the class by the DAG-level criterion with
d-separation by moralisation, parent sets are read off enumerated DAGs
or off the cliques of an undirected neighbourhood, and effects come
from direct least squares.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def _closure(step: dict[str, set[str]], seeds) -> set[str]:
    out = set(seeds)
    stack = list(out)
    while stack:
        for w in step[stack.pop()]:
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def d_separated(parents: dict[str, set[str]], xs, ys, zs) -> bool:
    """Moralisation test on the ancestral set of ``xs | ys | zs``."""
    keep = _closure(parents, set(xs) | set(ys) | set(zs))
    moral: dict[str, set[str]] = {v: set() for v in keep}
    for v in keep:
        ps = parents[v]
        for p in ps:
            moral[v].add(p)
            moral[p].add(v)
        for a, b in combinations(ps, 2):
            moral[a].add(b)
            moral[b].add(a)
    seen = set(xs)
    stack = list(xs)
    while stack:
        for w in moral[stack.pop()]:
            if w in ys:
                return False
            if w not in seen and w not in zs:
                seen.add(w)
                stack.append(w)
    return True


class AdjustmentOracle:
    """Which sets adjust for (``x``, ``y``) in every DAG of a class.

    In each DAG, a set is valid when it avoids the descendants of the
    proper causal paths' non-treatment nodes and d-separates ``x`` and
    ``y`` once the first edge of every proper causal path is removed.
    """

    def __init__(self, dags, x: str, y: str) -> None:
        self.x, self.y = x, y
        self.cases = []
        for d in dags:
            parents = {v: set(d.parents(v)) for v in d.nodes}
            children = {v: set(d.children(v)) for v in d.nodes}
            on_causal = _closure(children, {x}) & _closure(parents, {y})
            on_causal.discard(x)
            forbidden = _closure(children, on_causal)
            backdoor = {
                v: ps - {x} if v in on_causal else ps for v, ps in parents.items()
            }
            self.cases.append((forbidden, backdoor))

    def valid(self, zs) -> bool:
        zs = frozenset(zs)
        return all(
            not zs & forbidden and d_separated(backdoor, {self.x}, {self.y}, zs)
            for forbidden, backdoor in self.cases
        )

    def valid_sets(self, nodes) -> list[frozenset[str]]:
        rest = [v for v in nodes if v not in (self.x, self.y)]
        return [
            frozenset(zs)
            for size in range(len(rest) + 1)
            for zs in combinations(rest, size)
            if self.valid(zs)
        ]


def minimal(sets) -> set[frozenset[str]]:
    sets = list(sets)
    return {z for z in sets if not any(other < z for other in sets)}


def parent_tuples(dags, xs) -> set[tuple[frozenset[str], ...]]:
    """Distinct (joint) parent sets of ``xs`` over the listed DAGs."""
    return {tuple(frozenset(d.parents(x)) for x in xs) for d in dags}


def clique_parent_sets(g, x: str) -> set[frozenset[str]]:
    """Parent sets of ``x`` when its component is undirected and chordal:
    exactly the cliques among its neighbours (no new unshielded collider)."""
    sibs = sorted(g.siblings(x))
    return {
        frozenset(combo)
        for size in range(len(sibs) + 1)
        for combo in combinations(sibs, size)
        if all(g.has_edge(a, b) for a, b in combinations(combo, 2))
    }


def regression_effect(data: np.ndarray, col: dict[str, int], x: str, y: str, parents) -> float:
    """Coefficient of ``x`` when ``y`` is regressed on ``x`` and ``parents``."""
    if y in parents:
        return 0.0
    names = [x] + sorted(parents)
    design = np.column_stack([np.ones(len(data))] + [data[:, col[v]] for v in names])
    return float(np.linalg.lstsq(design, data[:, col[y]], rcond=None)[0][1])


def close(a: float, b: float) -> bool:
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))
