"""Independent reference implementations used only by the tests.

These deliberately avoid the library's production code paths: the
restart-scan closure re-derives the orientation rules from scratch, the
parent-set oracle runs one full public merge per sibling subset, the
DAG-level adjustment oracle evaluates the criterion by brute-force path
enumeration, the blocking-witness oracle finds its path by iterative
deepening, the back-door oracle decides blocking by separation in the
moral graph of the ancestral set (not the library's d-separation
search) in one DAG extension's proper back-door graph, which it builds
from the public graph methods, and names its witness by that iterative
deepening, the listing oracle tests
every candidate subset by the same moral-graph test and then filters
the minimal ones, the
blocking-enumeration oracle re-classifies
every path it walks by node names, the forbidden-set oracle walks every
proper possibly-causal path to its end, the simple-path oracle is the recursive
enumerator that the library's explicit-stack walk replaced, the
tuple-set reach is the state search that the library's per-node masks
replaced, the back-door and zero-effect reaches are the searches that
the library's one path-starts pass replaced, the
extension oracle restarts its sink scan after every peel, the DAG-class
oracle tries every orientation of the undirected edges, the data-file
oracle parses each cell with ``float``, the topological-order and
sampler oracles work by node names, and the joint-effect oracle fits
each extension on its own, with no table shared between fits.
"""

from itertools import combinations, permutations, product

import numpy as np

from mpdagkit import adjustment
from mpdagkit.causal_paths import _forward_reach, _simple_paths, b_possible_descendants
from mpdagkit.extension import represents
from mpdagkit.ida import PossibleParents
from mpdagkit.meek import construct_max_pdag, validate_maximal_pdag
from mpdagkit.pdag_core import (
    GraphParseError,
    PdagGraph,
    _adjacency,
    _bits,
    _closure,
    _query_masks,
    consistent_extension,
    has_directed_cycle,
)
from mpdagkit.reference import (
    COLLIDER,
    DEFINITE_NON_COLLIDER,
    NOT_DEFINITE,
    classify_definite_status,
    classify_path,
)


class ScanState:
    def __init__(self, g: PdagGraph):
        self.nodes = list(g.nodes)
        self.und = {n: set(g.siblings(n)) for n in g.nodes}
        self.pa = {n: set(g.parents(n)) for n in g.nodes}
        self.ch = {n: set(g.children(n)) for n in g.nodes}

    def adj(self, u, v):
        return v in self.und[u] or v in self.pa[u] or v in self.ch[u]

    def orient(self, u, v):
        assert v in self.und[u]
        self.und[u].discard(v)
        self.und[v].discard(u)
        self.ch[u].add(v)
        self.pa[v].add(u)

    def graph(self) -> PdagGraph:
        directed = [(u, v) for u in self.nodes for v in sorted(self.ch[u])]
        undirected = [
            (u, v) for u in self.nodes for v in sorted(self.und[u]) if u < v
        ]
        return PdagGraph(self.nodes, directed=directed, undirected=undirected)


def _rule1(s: ScanState):
    for a in s.nodes:
        for b in sorted(s.ch[a]):
            for c in sorted(s.und[b]):
                if c != a and not s.adj(a, c):
                    return (b, c)
    return None


def _rule2(s: ScanState):
    for a in s.nodes:
        for b in sorted(s.ch[a]):
            for c in sorted(s.ch[b]):
                if c in s.und[a]:
                    return (a, c)
    return None


def _rule3(s: ScanState):
    for i in s.nodes:
        for b in sorted(s.und[i]):
            parents = sorted(s.pa[b] & s.und[i])
            for x in parents:
                for w in parents:
                    if x < w and not s.adj(x, w):
                        return (i, b)
    return None


def _rule4(s: ScanState):
    # i - j, i - l, i - k, j -> l, l -> k, j and k non-adjacent  =>  i -> k
    for i in s.nodes:
        for k in sorted(s.und[i]):
            for l in sorted(s.pa[k] & s.und[i]):
                for j in sorted(s.pa[l] & s.und[i]):
                    if j != k and not s.adj(j, k):
                        return (i, k)
    return None


_RULES = {"R1": _rule1, "R2": _rule2, "R3": _rule3, "R4": _rule4}


def scan_close(g: PdagGraph, rule_order=("R1", "R2", "R3", "R4")) -> PdagGraph:
    """Reference closure: scan rules in the given order, restart on change."""
    s = ScanState(g)
    changed = True
    while changed:
        changed = False
        for name in rule_order:
            hit = _RULES[name](s)
            if hit is not None:
                s.orient(*hit)
                changed = True
                break
    return s.graph()


def scan_construct(g: PdagGraph, requirements, rule_order=("R1", "R2", "R3", "R4")):
    """Reference merge of required orientations; returns graph or None."""
    s = ScanState(g)
    for x, y in requirements:
        if y in s.ch[x]:
            continue
        if y not in s.und[x]:
            return None
        s.orient(x, y)
        closed = scan_close(s.graph(), rule_order)
        from mpdagkit.pdag_core import has_directed_cycle

        if has_directed_cycle(closed):
            return None
        s = ScanState(closed)
    return s.graph()


def all_rule_orders():
    return list(permutations(("R1", "R2", "R3", "R4")))


# -- parent-set oracle ----------------------------------------------------


def global_merge_parent_sets(g: PdagGraph, xs) -> list:
    """Reference parent-set family: every combination of sibling subsets
    (a binary counter per intervention node over its siblings in node
    order, later nodes excluding earlier intervention nodes) is merged
    into ``g`` with ``construct_max_pdag``; accepted ones are kept in
    counter order."""
    return [entry for entry, _ in global_merge_combinations(g, xs)]


def global_merge_combinations(g: PdagGraph, xs) -> list:
    """Each entry of :func:`global_merge_parent_sets` with the graph its
    orientations were merged into."""
    xs = tuple(xs)
    pools = [
        sorted(g.siblings(x) - set(xs[:i]), key=g.node_index) for i, x in enumerate(xs)
    ]
    entries = []
    for codes in product(*(range(1 << len(pool)) for pool in pools)):
        chosen = tuple(
            frozenset(a for j, a in enumerate(pool) if code >> j & 1)
            for pool, code in zip(pools, codes)
        )
        reqs = [
            (a, x) if a in picked else (x, a)
            for x, pool, picked in zip(xs, pools, chosen)
            for a in pool
        ]
        outcome = construct_max_pdag(g, reqs)
        if outcome.ok:
            parents = tuple(frozenset(outcome.graph.parents(x)) for x in xs)
            entries.append((PossibleParents(parents), outcome.graph))
    return entries


# -- DAG-level adjustment oracle -----------------------------------------


def dag_descendants(d: PdagGraph, node: str) -> set:
    out = {node}
    stack = [node]
    while stack:
        v = stack.pop()
        for c in d.children(v):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def maximality_error(g: PdagGraph):
    """The message a query entry point must raise on ``g``: that of the
    first check of :func:`validate_maximal_pdag` it fails, or None when
    ``g`` is a maximal PDAG."""
    report = validate_maximal_pdag(g)
    if not report.acyclic:
        return "input graph has a directed cycle"
    if not report.closed:
        return "input graph is not closed under the orientation rules"
    if not report.extendable:
        return "graph has no consistent DAG extension"
    return None


def name_adjacency(d: PdagGraph) -> dict:
    """Sorted adjacent node names per node, from the public edge lists."""
    adjacent = {v: [] for v in d.nodes}
    for a, b in d.directed_edges() + d.undirected_edges():
        adjacent[a].append(b)
        adjacent[b].append(a)
    return {v: sorted(ws) for v, ws in adjacent.items()}


def tuple_set_forward_reach(g: PdagGraph, roots: int, out, removed: int = 0) -> int:
    """``causal_paths._forward_reach`` as it was before it kept a mask of
    expanded successors per node: every (previous, current) state it
    enters goes into a set of tuples, and a step into a state in the set
    is skipped."""
    pa, ch, und = g._pa, g._ch, g._und
    step = [(o | u) & ~removed for o, u in zip(out, und)]
    reached = roots & ~removed
    seen = set()
    stack = [(r, step[r]) for r in _bits(reached)]
    while stack:
        cur, allowed = stack.pop()
        reached |= allowed
        for w in _bits(allowed):
            if (cur, w) not in seen:
                seen.add((cur, w))
                stack.append((w, step[w] & ~(pa[cur] | ch[cur] | und[cur] | 1 << cur)))
    return reached


def recursive_simple_paths(starts: int, step, back, targets: int) -> list:
    """The paths ``causal_paths._simple_paths`` reports, in its order,
    from the recursive enumerator it replaced (no step budget)."""
    paths = []

    def extend(path, on_path):
        for w in _bits(step[path[-1]] & ~on_path):
            if back[w] & on_path:
                continue
            path.append(w)
            if targets >> w & 1:
                paths.append(tuple(path))
            extend(path, on_path | 1 << w)
            path.pop()

    for s in _bits(starts):
        extend([s], 1 << s)
    return paths


def proper_possibly_causal_paths(g: PdagGraph, x_mask: int, y_mask: int) -> list:
    """All proper b-possibly-causal simple paths from ``xs`` to ``ys``, as
    node-index tuples.

    Properness means only the first node lies in ``xs``.  Prefixes with a
    backward pair are pruned, as are nodes from which ``ys`` is no longer
    reachable along forward or undirected edges avoiding ``xs``.
    """
    und = g._und
    viable = _closure([(p | u) & ~x_mask for p, u in zip(g._pa, und)], y_mask)
    step = [(c | u) & viable & ~x_mask for c, u in zip(g._ch, und)]
    paths = []
    _simple_paths(x_mask, step, g._ch, y_mask, paths.append)
    return paths


def enumerated_forbidden_set(g: PdagGraph, xs, ys) -> adjustment.ForbiddenSet:
    """Reference for ``adjustment.forbidden_set``: the non-treatment
    nodes of every proper possibly-causal path, each path walked to its
    end, closed under b-possible descent."""
    x_mask, y_mask, _ = adjustment._query(g, xs, ys)
    on_path = 0
    for path in proper_possibly_causal_paths(g, x_mask, y_mask):
        for v in path[1:]:
            on_path |= 1 << v
    return adjustment.ForbiddenSet(
        g._names(_forward_reach(g, on_path, g._ch)), g._names(on_path)
    )


def enumerated_conditions(g: PdagGraph, xs, ys):
    """Amenability witness (None when amenable) and forbidden set, read
    off the enumeration of proper possibly-causal paths."""
    x_mask, y_mask, _ = adjustment._query(g, xs, ys)
    paths = proper_possibly_causal_paths(g, x_mask, y_mask)
    named = [tuple(g.nodes[v] for v in path) for path in paths]
    undirected_start = [p for p in named if g.is_undirected(p[0], p[1])]
    witness = min(undirected_start, key=lambda p: (len(p), p), default=None)
    on_path = frozenset(v for p in named for v in p[1:])
    forbidden = b_possible_descendants(g, on_path).nodes if on_path else on_path
    return witness, forbidden


def _proper_paths(adjacent: dict, xs: frozenset, ys: frozenset):
    """All proper simple paths (any edge directions) from xs to ys, given
    the graph's :func:`name_adjacency`."""
    paths = []

    def extend(path, on_path):
        cur = path[-1]
        for w in adjacent[cur]:
            if w in on_path or w in xs:
                continue
            path.append(w)
            on_path.add(w)
            if w in ys:
                paths.append(tuple(path))
            extend(path, on_path)
            on_path.discard(w)
            path.pop()

    for x in sorted(xs):
        extend([x], {x})
    return paths


def _is_causal(d: PdagGraph, path) -> bool:
    return all(d.is_directed(u, v) for u, v in zip(path, path[1:]))


def _path_blocked(d: PdagGraph, path, zs: frozenset) -> bool:
    for i in range(1, len(path) - 1):
        left, mid, right = path[i - 1], path[i], path[i + 1]
        collider = d.is_directed(left, mid) and d.is_directed(right, mid)
        if collider:
            if not (dag_descendants(d, mid) & zs):
                return True
        elif mid in zs:
            return True
    return False


def dag_forbidden(d: PdagGraph, xs: frozenset, ys: frozenset) -> set:
    on_causal = set()
    for path in _proper_paths(name_adjacency(d), xs, ys):
        if _is_causal(d, path):
            on_causal.update(path[1:])
    forb = set()
    for w in on_causal:
        forb |= dag_descendants(d, w)
    return forb


def dag_adjustment_criterion(d: PdagGraph, xs, ys, zs) -> bool:
    """Sound-and-complete DAG criterion by exhaustive path enumeration."""
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    if zs & dag_forbidden(d, xs, ys):
        return False
    for path in _proper_paths(name_adjacency(d), xs, ys):
        if not _is_causal(d, path) and not _path_blocked(d, path, zs):
            return False
    return True


def subset_listing(g: PdagGraph, xs, ys, minimal_only=False) -> list:
    """Reference adjustment-set listing: one moral-graph separation test
    in the proper back-door DAG per subset of the candidate universe (the
    nodes outside xs, ys and the forbidden set), by size and node order; for
    the minimal sets, every valid set with a valid strict subset is then
    dropped."""
    x_mask, y_mask, _ = adjustment._query(g, xs, ys)
    if not adjustment._amenability(g, x_mask, y_mask).ok:
        return []
    taken = x_mask | y_mask | forbidden_nodes(g, x_mask, y_mask)
    universe = [name for v, name in enumerate(g.nodes) if not taken >> v & 1]
    pruned = proper_backdoor_dag(g, x_mask, y_mask)
    valid = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            z_mask = sum(1 << g.node_index(v) for v in combo)
            if moral_separated(pruned, x_mask, y_mask, z_mask):
                valid.append(frozenset(combo))
    if minimal_only:
        valid = [z for z in valid if not any(other < z for other in valid)]
    return valid


def forbidden_nodes(g: PdagGraph, x_mask: int, y_mask: int) -> int:
    """The forbidden nodes of an amenable query, as the criterion reads
    them: the b-possible descendants of the starts of
    ``adjustment._conditions``."""
    return _forward_reach(g, adjustment._conditions(g, x_mask, y_mask)[1], g._ch)


def reach_backdoor(h: PdagGraph, x_mask: int, y_mask: int) -> list:
    """Reference for ``h``'s child masks without the cut of
    ``adjustment._conditions``, by the reach the library pruned with
    before that pass: ``h``'s child masks without each edge ``x -> c``
    whose ``c`` has a b-possibly-causal path into ``ys`` avoiding
    ``xs``, found by one possible-ancestor walk from ``ys``."""
    leads = _forward_reach(h, y_mask, h._pa, x_mask)
    ch = h._ch[:]
    for x in _bits(x_mask):
        ch[x] &= ~leads
    return ch


def reach_zero_effect(g: PdagGraph, x_mask: int, y_mask: int) -> bool:
    """Reference for the zero-effect flag, by the reach the library ran
    before ``adjustment._conditions``: no node of ``ys`` is a b-possible
    descendant of ``xs``."""
    return not y_mask & _forward_reach(g, x_mask, g._ch)


def name_b_blocking_by_enumeration(g: PdagGraph, xs, ys, zs=()) -> adjustment.ConditionCheck:
    """Reference for ``reference.b_blocking_by_enumeration``: the same
    walk, with every path that reaches ``ys`` turned into names and
    judged by ``classify_path``, ``classify_definite_status`` and a
    per-collider descendant search over ``g.children``."""
    x_mask, y_mask, z_mask = _query_masks(g, {"xs": xs, "ys": ys, "zs": zs}, ("zs",))
    zs = g._names(z_mask)
    step = [(p | c | u) & ~x_mask for p, c, u in zip(g._pa, g._ch, g._und)]
    violations = []

    def descendants(node: str) -> set:
        out = set()
        grown = {node}
        while grown != out:
            out, grown = grown, grown.union(*map(g.children, grown))
        return out

    def d_connecting(path) -> bool:
        labels = classify_definite_status(g, path)
        if NOT_DEFINITE in labels:
            return False
        for node, label in zip(path, labels):
            if label == DEFINITE_NON_COLLIDER and node in zs:
                return False
            if label == COLLIDER and not (descendants(node) & zs):
                return False
        return True

    def check(path) -> None:
        named = tuple(g.nodes[v] for v in path)
        if not classify_path(g, named).is_b_possibly_causal and d_connecting(named):
            violations.append(named)

    _simple_paths(x_mask, step, (0,) * len(g), y_mask, check)
    return adjustment.ConditionCheck(not violations, adjustment._first_witness(violations))


def proper_backdoor_dag(g: PdagGraph, x_mask: int, y_mask: int) -> PdagGraph:
    """The proper back-door graph of ``g``'s DAG extension, built by the
    public constructor: the extension without each edge ``x -> c`` whose
    ``c`` has a directed path into ``ys`` avoiding ``xs`` (or is in
    ``ys``), found by a search over ``parents``."""
    dag = consistent_extension(g)
    xs, onward = g._names(x_mask), set(g._names(y_mask))
    frontier = list(onward)
    while frontier:
        for p in dag.parents(frontier.pop()) - xs - onward:
            onward.add(p)
            frontier.append(p)
    kept = [(u, v) for u, v in dag.directed_edges() if u not in xs or v not in onward]
    return PdagGraph(dag.nodes, directed=kept)


def extension_blocking(g: PdagGraph, x_mask: int, y_mask: int, z_mask: int):
    """Reference for the blocking condition on the maximal ``g``:
    separation in the proper back-door graph of one DAG extension, by
    :func:`moral_separated`, with the iterative-deepening d-connecting
    path there as the witness."""
    pruned = proper_backdoor_dag(g, x_mask, y_mask)
    if moral_separated(pruned, x_mask, y_mask, z_mask):
        return adjustment.ConditionCheck(True)
    return adjustment.ConditionCheck(
        False, deepening_connecting_path(pruned, x_mask, y_mask, z_mask)
    )


def moral_separated(d: PdagGraph, xs: int, ys: int, zs: int) -> bool:
    """Reference d-separation of the node masks ``xs`` and ``ys`` by
    ``zs`` in the DAG ``d``: ``zs`` separates them in the moral graph of
    the ancestral set of ``xs | ys | zs`` (Lauritzen, Dawid, Larsen and
    Leimer 1990), where each node and its parents form a clique."""
    ancestral = frontier = xs | ys | zs
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= d._pa[v]
        frontier = grown & ~ancestral
        ancestral |= frontier
    near = [0] * len(d)
    for v in _bits(ancestral):
        family = d._pa[v] | 1 << v
        for u in _bits(family):
            near[u] |= family
    seen = frontier = xs
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= near[v]
        frontier = grown & ~(seen | zs)
        if frontier & ys:
            return False
        seen |= frontier
    return True


def deepening_connecting_path(d: PdagGraph, xs: int, ys: int, zs: int):
    """Reference blocking witness: a shortest d-connecting simple path
    in the DAG ``d`` (node masks ``xs``, ``ys``, ``zs``), or None.

    Iterative deepening over simple paths whose interior nodes satisfy
    the blocking conditions; the first hit in node-index order is the
    least shortest path by node indices.
    """
    pa, ch = d._pa, d._ch
    anz = _closure(pa, zs)

    def extend(path, on_path, depth):
        cur = path[-1]
        if ys >> cur & 1:
            return tuple(d.nodes[v] for v in path)
        if len(path) > depth:
            return None
        arrived_in = len(path) >= 2 and ch[path[-2]] >> cur & 1
        for w in _bits((pa[cur] | ch[cur]) & ~on_path & ~xs):
            if len(path) >= 2:
                if arrived_in and ch[w] >> cur & 1:
                    if not anz >> cur & 1:
                        continue
                elif zs >> cur & 1:
                    continue
            path.append(w)
            hit = extend(path, on_path | 1 << w, depth)
            path.pop()
            if hit is not None:
                return hit
        return None

    for depth in range(1, len(d.nodes)):
        for x in _bits(xs):
            hit = extend([x], 1 << x, depth)
            if hit is not None:
                return hit
    return None


def brute_force_dags(g: PdagGraph) -> list[PdagGraph]:
    """All acyclic full orientations of g that pass represents()."""
    undirected = g.undirected_edges()
    dags = []
    for flips in product((False, True), repeat=len(undirected)):
        directed = list(g.directed_edges())
        for (a, b), flip in zip(undirected, flips):
            directed.append((b, a) if flip else (a, b))
        candidate = PdagGraph(g.nodes, directed=directed)
        if not has_directed_cycle(candidate) and represents(g, candidate):
            dags.append(candidate)
    return dags


def scan_extension(g: PdagGraph):
    """Reference for ``consistent_extension``: after every peel the scan
    restarts from node 0 and takes the first node with no remaining
    child whose undirected neighbours are adjacent to all of its other
    remaining neighbours, and each edge into it is oriented on a copy of
    ``g`` with ``PdagGraph._orient``, which trusts its caller and checks
    nothing.  None when no node qualifies."""
    dag = g._copy()
    und, ch = dag._und, dag._ch
    adjacent = _adjacency(g)
    remaining = (1 << len(und)) - 1
    while remaining:
        for x in _bits(remaining):
            if ch[x] & remaining:
                continue
            near = adjacent[x] & remaining
            if all(not near & ~(1 << u | adjacent[u]) for u in _bits(und[x] & remaining)):
                break
        else:
            return None
        for u in _bits(und[x] & remaining):
            dag._orient(u, x)
        remaining ^= 1 << x
    return dag


def name_topological_order(g: PdagGraph):
    """Reference for ``pdag_core._topological_order``, by node names:
    Kahn's rule with a first-in first-out list seeded with the
    parentless nodes in node order, each node's children taken in node
    order, and undirected edges ignored.  None when nodes are left over,
    that is, on a directed cycle."""
    indegree = {v: len(g.parents(v)) for v in g.nodes}
    ready = [v for v in g.nodes if indegree[v] == 0]
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for c in sorted(g.children(v), key=g.node_index):
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    return order if len(order) == len(g.nodes) else None


def name_sample_data(m, n: int, rng) -> np.ndarray:
    """Reference for ``sem_sim.sample_data``: nodes in
    :func:`name_topological_order`, each parent's contribution added in
    node order, every value looked up by name."""
    idx = m.dag._index
    data = np.empty((n, len(idx)))
    for v in name_topological_order(m.dag):
        noise = rng.standard_normal(n) * m.noise_scales[v]
        total = noise
        for parent in sorted(m.dag.parents(v), key=idx.__getitem__):
            total = total + m.coefficients[(parent, v)] * data[:, idx[parent]]
        data[:, idx[v]] = total
    return data


def fit_coefficient_matrix(dag: PdagGraph, data: np.ndarray, col: dict) -> np.ndarray:
    """Reference for the coefficients ``joint_ida_effects`` fits for one
    extension: one least-squares fit per node with parents, each built
    here from an intercept column and the parents' columns in ascending
    index order, with no table shared between fits or extensions.
    ``B[i, j]`` is the fitted direct effect of node ``i`` on node ``j``;
    a rank-deficient fit fills its column's parent rows with NaN."""
    names = dag.nodes
    B = np.zeros((len(names), len(names)))
    for v, mask in enumerate(dag._pa):
        parents = list(_bits(mask))
        if not parents:
            continue
        design = np.column_stack([np.ones(len(data))] + [data[:, col[names[u]]] for u in parents])
        solution, _, rank, _ = np.linalg.lstsq(design, data[:, col[names[v]]], rcond=None)
        B[parents, v] = solution[1:] if rank == design.shape[1] else np.nan
    return B


def read_csv_rows(path: str):
    """Reference for the CLI's ``--data`` reader: every row is split and
    parsed cell by cell with ``float``, and the first bad row names its
    line.  Returns the data and the header, as the reader does; a leading
    byte order mark is dropped, as the CLI drops it from every file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise GraphParseError("empty data file")
    header = [token.strip() for token in lines[0][1].split(",")]
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise GraphParseError(f"row has {len(cells)} cells, expected {len(header)}", lineno)
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise GraphParseError("non-numeric cell", lineno) from None
    data = np.array(rows).reshape(len(rows), len(header))
    if not np.isfinite(data).all():
        bad = next(n for (n, _), row in zip(lines[1:], rows) if not np.isfinite(row).all())
        raise GraphParseError("non-finite cell", bad)
    return data, header
