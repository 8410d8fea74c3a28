"""Benchmark for mpdagkit: closed-loop workloads with traced layer timings.

    python3 perfbench/run.py --workload {study,cli_mix,dense,all} \
        --seed N --seconds S --trace {0,1}

One client runs one op at a time in this process.  With ``--trace 0``
the last line of standard output reports the end-to-end metrics; with
``--trace 1`` an untraced pass is followed by a traced pass over the
same ops, and the last line reports per-layer metrics.  Outputs are
checked after the timed loop: against committed golden digests for the
default seed, and against reference oracles for any seed.  ``all`` runs
each workload in a process of its own.  ``--write-golden`` refreshes
the golden digests of the default seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_RUNS = 5
GOLDEN_STUDY_OPS = 128
UNTRACED_SHARE = 0.4  # of --seconds, for the untraced pass of a traced run
NOMINAL_NS = 1_000_000  # calibration time that defines calibrated speed
CALIBRATE_EVERY_NS = 50_000_000
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


_RING = {i: frozenset((i * 7 + k) % 400 for k in (1, 3, 11, 29)) for i in range(400)}


def calibration_ns() -> int:
    """Time of a fixed pure-Python graph search, with the collector off.

    On shared virtual machines CPU speed drifts by tens of percent over
    seconds, so all times are scaled to the speed at which this search
    takes NOMINAL_NS, measured between ops.  The uncalibrated figures go
    to the information line.
    """
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for root in range(0, 400, 100):
            seen = {root}
            stack = [root]
            while stack:
                for w in _RING[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def set_up(name: str, seed: int, workdir: Path):
    """Import the package afresh and build the workload, SETUP_RUNS
    times; returns the last build, the calibrated and raw set-up times
    and the input digests."""
    from workloads import WORKLOADS

    times, raw, digests = [], [], []
    for _ in range(SETUP_RUNS):
        shutil.rmtree(workdir, ignore_errors=True)
        for key in [k for k in sys.modules if k == "mpdagkit" or k.startswith("mpdagkit.")]:
            del sys.modules[key]
        before = calibration_ns()
        start = time.perf_counter()
        mk = importlib.import_module("mpdagkit")
        workload = WORKLOADS[name](mk, seed, workdir)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * 2 * NOMINAL_NS / (before + calibration_ns()))
        digests.append(workload.digest)
    if not str(Path(mk.__file__).resolve()).startswith(str(SRC)):
        raise RuntimeError(f"imported mpdagkit from {mk.__file__}, not from {SRC}")
    return mk, workload, times, raw, digests


@dataclass(slots=True)
class Op:
    index: int
    text: object  # canonical output text, or a _Failure
    latency_ns: int
    spans: tuple[int, int] | None = None  # range in the tracer's span list
    scale: float = 1.0  # latency_ns * scale is the calibrated latency


def measure(workload, seconds: float | None = None, count: int | None = None, tracer=None, kept=None):
    """Run ops 1, 2, ... for ``seconds``, then to the end of the
    workload's cycle (or run ``count`` ops), after an untimed warm-up op
    0, calibrating every CALIBRATE_EVERY_NS; each op is scaled by the
    mean of the calibrations before and after it.
    ``kept`` collects the first output of each input for the checks, so
    repeated outputs are held only as text."""
    clock = time.perf_counter_ns
    kept = {} if kept is None else kept
    ops = [Op(0, _keep(workload, 0, _call(workload, 0), kept), 0)]
    deadline = clock() + int(seconds * 1e9) if seconds is not None else 0

    def more() -> bool:
        if count is not None:
            return i <= count
        return clock() < deadline or (i - 1) % workload.cycle != 0

    pending: list[Op] = []
    before, last = calibration_ns(), clock()
    i = 1
    while more():
        first_span = len(tracer.spans) if tracer else 0
        with tracer.op() if tracer else nullcontext():
            start = clock()
            out = _call(workload, i)
            end = clock()
        spans = (first_span, len(tracer.spans)) if tracer else None
        pending.append(Op(i, _keep(workload, i, out, kept), end - start, spans))
        i += 1
        if clock() - last >= CALIBRATE_EVERY_NS or not more():
            after = calibration_ns()
            for op in pending:
                op.scale = 2 * NOMINAL_NS / (before + after)
            ops += pending
            pending = []
            before, last = after, clock()
    return ops


def _call(workload, i: int):
    try:
        return workload.run(i)
    except Exception as exc:  # a failing op is counted, the run goes on
        return _Failure("".join(traceback.format_exception_only(exc)).strip())


def _keep(workload, i: int, out, kept: dict):
    if isinstance(out, _Failure):
        return out
    kept.setdefault(workload.key(i), (i, out))
    return workload.canon(i, out)


class _Failure:
    def __init__(self, message: str) -> None:
        self.message = message


def check(workload, ops: list[Op], kept: dict, golden: dict) -> list[str | None]:
    """One error message (or None) per op.  The first output of each
    input is verified; every other run of it must reproduce its text."""
    from workloads import sha

    verdicts: dict = {}
    errors = []
    for op in ops:
        if isinstance(op.text, _Failure):
            errors.append(f"op {op.index} raised: {op.text.message}")
            continue
        key = workload.key(op.index)
        if key not in verdicts:
            first, out = kept[key]
            try:
                error = workload.verify(first, out)
            except Exception as exc:  # a malformed output is a failed op
                error = f"op {first}: check raised {exc!r}"
            want = golden.get(str(key))
            first_text = workload.canon(first, out)
            if error is None and want is not None and sha(first_text) != want:
                error = f"op {first}: digest {sha(first_text)} differs from golden {want}"
            verdicts[key] = (first_text, error)
        first_text, error = verdicts[key]
        errors.append(error if op.text == first_text else f"op {op.index}: output changed on repeat")
    return errors


def load_golden(name: str, seed: int) -> dict:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if seed != data.get("seed"):
        return {}
    return data.get("workloads", {}).get(name, {})


def latency_metrics(lat_ms: list[float]) -> dict:
    return {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
    }


def traced_metrics(mk, workload, seconds: float):
    """Untraced pass, then the same ops traced.  Returns the ops of both
    passes, the kept outputs, the layer metrics, the ops whose layer
    self times exceed their wall time, and the share of traced time
    inside wrapped functions."""
    import tracing

    kept: dict = {}
    untraced = measure(workload, seconds=seconds * UNTRACED_SHARE, kept=kept)
    count = len(untraced) - 1
    tracer = tracing.Tracer()
    tracer.install(mk)
    traced = measure(workload, count=count, tracer=tracer, kept=kept)
    scales = [1.0] * len(tracer.spans)
    for op in traced[1:]:
        a, b = op.spans
        scales[a:b] = [op.scale] * (b - a)
    metrics = tracing.layer_metrics(tracer.spans, scales, tracer.regressions, count)
    calibrated = [sum(op.latency_ns * op.scale for op in ops[1:]) for ops in (untraced, traced)]
    metrics["trace.overhead_frac"] = calibrated[1] / calibrated[0] - 1
    selfs = tracing.self_times(tracer.spans)
    over = [op.index for op in traced[1:] if sum(selfs[slice(*op.spans)]) > op.latency_ns]
    share = sum(selfs) / sum(op.latency_ns for op in traced[1:])
    return untraced + traced, kept, metrics, over, share


def run_one(args) -> int:
    import numpy

    import tracing

    workdir = HERE / f".work-{args.workload}-{os.getpid()}"
    try:
        mk, workload, setup_times, raw_setup, digests = set_up(args.workload, args.seed, workdir)
        golden = load_golden(args.workload, args.seed)
        if args.write_golden:
            return write_golden(workload, digests[-1])
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        problems = []
        if len(set(digests)) != 1:
            problems.append(f"corpus digests differ between set-ups: {digests}")
        if golden and golden["corpus"] != digests[-1]:
            problems.append(f"corpus digest {digests[-1]} differs from golden {golden['corpus']}")
        if args.trace:
            ops, kept, metrics, over, share = traced_metrics(mk, workload, args.seconds)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            info["layer_self_share"] = share
            if over:
                problems.append(f"layer self time exceeds op wall time on ops {over[:5]}")
        else:
            kept = {}
            ops = measure(workload, seconds=args.seconds, kept=kept)
            metrics = latency_metrics([op.latency_ns * op.scale / 1e6 for op in ops[1:]])
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
            info["uncalibrated"] = latency_metrics([op.latency_ns / 1e6 for op in ops[1:]])
            info["uncalibrated"]["setup_s"] = statistics.median(raw_setup)
        errors = check(workload, ops, kept, golden.get("ops", {}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed = [e for e, op in zip(errors, ops) if op.index != 0]
    failed = sum(e is not None for e in timed)
    problems += [e for e in errors if e is not None][:5]
    info.update(
        ops=len(timed),
        failed_frac=failed / len(timed),
        calibration_ms=statistics.median(NOMINAL_NS / op.scale / 1e6 for op in ops[1:]),
        setup_runs_s=setup_times,
        corpus_digest=digests[-1],
        golden_checked=bool(golden),
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        problems=problems,
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": not problems,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_golden(workload, corpus_digest: str) -> int:
    """Record digests of every op input once (the first GOLDEN_STUDY_OPS
    ops of the study), after checking each against the oracles."""
    from workloads import sha

    keys = range(GOLDEN_STUDY_OPS if workload.name == "study" else len(workload.ops))
    ops = {}
    for i in keys:
        out = workload.run(i)
        error = workload.verify(i, out)
        if error:
            print(f"op {i}: {error}", file=sys.stderr)
            return 1
        ops[str(workload.key(i))] = sha(workload.canon(i, out))
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if data.get("seed") != DEFAULT_SEED:
        data = {"seed": DEFAULT_SEED, "workloads": {}}
    data["workloads"][workload.name] = {"corpus": corpus_digest, "ops": ops}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ops)} golden digests for {workload.name}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a table, then one JSON line."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return 1
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"{name}: {info['ops']} ops, failed_frac {info['failed_frac']:.4g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:12.5g} {entry['unit']}")
            total["metrics"][f"{name}.{metric}"] = entry
        for problem in info["problems"]:
            print(f"  problem: {problem}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["study", "cli_mix", "dense", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "mpdagkit" / "__init__.py").is_file():
        print(f"perfbench: no mpdagkit sources in {SRC}", file=sys.stderr)
        return 1
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--write-golden needs the default seed {DEFAULT_SEED}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
