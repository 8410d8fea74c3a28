"""Span recorder for the traced benchmark run.

Wraps the library's public functions from the outside: each call made
while an op is being traced records one span (name, start, end, parent,
note), where the note is a small number read off the result, such as
whether a merge was accepted.  Because modules import each other's
names with ``from .x import y``, every module binding of a wrapped
function is replaced, not only the defining one.  Nothing is installed
unless :meth:`Tracer.install` is called, so the untraced run calls the
library unchanged.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, note read off the result or None).
# A dotted attribute names a method on a class.
TARGETS = (
    ("pdag_core", "parse_graph", "pdag_core.parse", None),
    ("meek", "parse_background", "pdag_core.parse", None),
    ("pdag_core", "serialize_graph", "pdag_core.serialize", None),
    ("pdag_core", "PdagGraph.__init__", "pdag_core.graph_build", None),
    ("meek", "construct_max_pdag", "meek.merge", lambda out: int(out.ok)),
    ("meek", "close_orientations", "meek.close", None),
    ("meek", "cpdag_of", "meek.close", None),
    ("meek", "validate_maximal_pdag", "meek.validate", None),
    ("extension", "consistent_extension", "extension.extend", None),
    ("extension", "enumerate_dags", "extension.enumerate", len),
    ("causal_paths", "b_possible_descendants", "causal_paths.reach", None),
    ("causal_paths", "b_possible_ancestors", "causal_paths.reach", None),
    ("adjustment", "is_amenable", "adjustment.amenable", None),
    ("adjustment", "forbidden_set", "adjustment.forbidden", None),
    ("adjustment", "satisfies_b_adjustment", "adjustment.criterion", None),
    ("adjustment", "adjust_set", "adjustment.find", None),
    ("adjustment", "d_separated", "adjustment.dsep", int),
    ("adjustment", "list_adjustment_sets", "adjustment.list", None),
    ("ida", "possible_parent_sets", "ida.parent_sets", None),
    ("ida", "ida_effects", "ida.effects", None),
    ("ida", "joint_ida_effects", "ida.joint", None),
    ("sem_sim", "random_dag", "sem_sim.model", None),
    ("sem_sim", "sample_data", "sem_sim.model", None),
    ("sem_sim", "choose_xy", "sem_sim.model", None),
    ("sem_sim", "true_total_effect", "sem_sim.model", None),
    ("sem_sim", "add_background_fraction", "sem_sim.background", None),
    ("sem_sim", "run_simulation", "sem_sim.pipeline", None),
    ("cli", "main", "cli.main", None),
)

# Per-layer metrics: (name, unit, better).  Times are self time in ms
# per op, counts are per op.
LAYER_METRICS = (
    ("pdag_core.parse_ms", "ms", "lower"),
    ("pdag_core.serialize_ms", "ms", "lower"),
    ("pdag_core.graph_builds", "count", "lower"),
    ("pdag_core.graph_build_ms", "ms", "lower"),
    ("meek.merge_calls", "count", "lower"),
    ("meek.merge_ms", "ms", "lower"),
    ("meek.close_ms", "ms", "lower"),
    ("meek.validate_ms", "ms", "lower"),
    ("meek.merge_accept_ratio", "ratio", "higher"),
    ("extension.extend_calls", "count", "lower"),
    ("extension.extend_ms", "ms", "lower"),
    ("extension.enumerate_ms", "ms", "lower"),
    ("extension.dags_listed", "count", "lower"),
    ("causal_paths.reach_calls", "count", "lower"),
    ("causal_paths.reach_ms", "ms", "lower"),
    ("adjustment.amenable_ms", "ms", "lower"),
    ("adjustment.forbidden_ms", "ms", "lower"),
    ("adjustment.criterion_calls", "count", "lower"),
    ("adjustment.criterion_ms", "ms", "lower"),
    ("adjustment.find_ms", "ms", "lower"),
    ("adjustment.dsep_calls", "count", "lower"),
    ("adjustment.dsep_ms", "ms", "lower"),
    ("adjustment.list_ms", "ms", "lower"),
    ("adjustment.list_valid_ratio", "ratio", "higher"),
    ("ida.parent_sets_ms", "ms", "lower"),
    ("ida.parent_set_combos", "count", "lower"),
    ("ida.effects_ms", "ms", "lower"),
    ("ida.joint_ms", "ms", "lower"),
    ("ida.regressions", "count", "lower"),
    ("sem_sim.model_ms", "ms", "lower"),
    ("sem_sim.background_ms", "ms", "lower"),
    ("sem_sim.pipeline_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Span names whose self time is reported as "<name>_ms" ("cli.main" is
# reported as "cli.self_ms"), and those whose call count is reported.
_CALL_COUNTS = {
    "pdag_core.graph_build": "pdag_core.graph_builds",
    "meek.merge": "meek.merge_calls",
    "extension.extend": "extension.extend_calls",
    "causal_paths.reach": "causal_paths.reach_calls",
    "adjustment.criterion": "adjustment.criterion_calls",
    "adjustment.dsep": "adjustment.dsep_calls",
}


class Tracer:
    """Collects spans of the op in progress; idle outside :meth:`op`."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent, note]
        self.regressions = 0
        self._stack: list[int] = []
        self._active = False

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def _count_regressions(self, fn):
        def counted(*args, **kwargs):
            if self._active:
                self.regressions += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Replace every binding of each target in the package's modules."""
        prefix = package.__name__ + "."
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(prefix))
        ]
        for module_name, attr, name, note in TARGETS:
            owner = sys.modules.get(prefix + module_name)
            if owner is None:
                continue  # not imported, so the workload never calls it
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), note))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        import numpy.linalg

        numpy.linalg.lstsq = self._count_regressions(numpy.linalg.lstsq)

    @contextmanager
    def op(self):
        """Record spans while the body runs one op."""
        self._active = True
        try:
            yield
        finally:
            self._active = False


def self_times(spans) -> list[float]:
    """Self time in ns of each span: its duration minus its children's."""
    child = [0] * len(spans)
    for name, start, end, parent, _note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def layer_metrics(spans, scales, regressions: int, ops: int) -> dict[str, float]:
    """Aggregate spans of ``ops`` traced ops into per-op layer metrics
    (every metric of :data:`LAYER_METRICS` except the overhead); each
    span's self time is multiplied by its entry in ``scales``."""
    selfs = [own * scale for own, scale in zip(self_times(spans), scales)]
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    merges_under_parent_sets = accepted = 0
    dsep_under_list = dsep_true = dags = 0
    for (name, _s, _e, parent, note), own in zip(spans, selfs):
        ms[name] = ms.get(name, 0.0) + own / 1e6
        calls[name] = calls.get(name, 0) + 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "meek.merge" and parent_name == "ida.parent_sets":
            merges_under_parent_sets += 1
            accepted += note
        elif name == "adjustment.dsep" and parent_name == "adjustment.list":
            dsep_under_list += 1
            dsep_true += note
        elif name == "extension.enumerate":
            dags += note

    out = {}
    for metric, _unit, _better in LAYER_METRICS:
        if metric.endswith("_ms"):
            span = "cli.main" if metric == "cli.self_ms" else metric[: -len("_ms")]
            out[metric] = ms.get(span, 0.0) / ops
    for span, metric in _CALL_COUNTS.items():
        out[metric] = calls.get(span, 0) / ops
    out["meek.merge_accept_ratio"] = (
        accepted / merges_under_parent_sets if merges_under_parent_sets else 0.0
    )
    out["extension.dags_listed"] = dags / ops
    out["adjustment.list_valid_ratio"] = dsep_true / dsep_under_list if dsep_under_list else 0.0
    out["ida.parent_set_combos"] = merges_under_parent_sets / ops
    out["ida.regressions"] = regressions / ops
    return out
