"""Command-line frontend.

Subcommands: validate, orient, possde, possan, adjust, ida, simulate.
Exit codes: 0 success, 1 domain failure (inconsistent knowledge, a
graph that is not a maximal PDAG, no adjustment set with --find,
candidate cap exceeded), 2 usage or parse errors.  Every subcommand's
node lists pass the library's one node-list rule
(:func:`~mpdagkit.pdag_core._query_masks`) with their flags as labels:
a list that names an unknown node, overlaps another (--x with --y or
--z), is empty where a node is required or names a node twice exits 2,
and so does a second ``ida --y`` node.  So does an ``ida`` data file
whose header is not the graph's node set or whose rows do not outnumber
the nodes, which the library's data checks report as the same
QueryError; and so do ``simulate`` settings, from --config or the
flags, that are malformed or outside the grid's ranges (an empty --p,
--en or --fractions among them), a --config key that is not a grid
setting, or a grid flag given together with --config (the message names
the key or flag), a ``simulate --out`` that cannot be opened for writing
(a directory, a missing or non-directory parent, a name that is too
long, no permission; checked before the study runs) and an
``MPDAGKIT_UNIVERSE_CAP`` that is not a non-negative integer.
Graph, background and data files are read as UTF-8, and a leading byte
order mark, as Excel and Notepad write, is dropped.  All output is
deterministic for fixed arguments and seeds, and graph output re-parses
through the graph reader.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .adjustment import adjust_set, list_adjustment_sets, satisfies_b_adjustment
from .causal_paths import b_possible_ancestors, b_possible_descendants
from .ida import ida_effects, joint_ida_effects
from .meek import construct_max_pdag, parse_background, validate_maximal_pdag
from .pdag_core import (
    GraphParseError,
    PdagGraph,
    QueryError,
    _query_masks,
    parse_graph,
    serialize_graph,
)
from .sem_sim import SimConfig, _grid_problem, rows_to_csv, run_simulation

UNIVERSE_CAP_ENV = "MPDAGKIT_UNIVERSE_CAP"


class UsageError(Exception):
    """Raised for a malformed CLI-only setting (exit 2): the --z, --find
    and --list modes, --minimal, a second --y node for ida, the universe
    cap variable, a background file or --config.  Node lists and data
    are the library's to check."""


def _load_graph(path: str) -> PdagGraph:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())


def _load_background(spec: str):
    """A path to a knowledge file, or an inline string of '->' statements
    (newline- or semicolon-separated)."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8-sig") as fh:
            return parse_background(fh.read())
    if "->" in spec:
        return parse_background(spec.replace(";", "\n"))
    raise UsageError(f"background file not found: {spec}")


def _split_nodes(arg: str) -> list[str]:
    return [token for token in (t.strip() for t in arg.split(",")) if token]


def _format_set(g: PdagGraph, names) -> str:
    ordered = sorted(names, key=g.node_index)
    return "{" + ", ".join(ordered) + "}"


def _read_csv_matrix(path: str) -> tuple[np.ndarray, list[str]]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise GraphParseError("empty data file")
    header = [token.strip() for token in lines[0][1].split(",")]
    if len(lines) > 1:
        # One numpy parse; it accepts no cell that float() rejects, so any
        # failure, width mismatch or non-finite value falls through to the
        # per-row loop, which reports the line.
        try:
            data = np.loadtxt(
                [line for _, line in lines[1:]], delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            pass
        else:
            if data.shape[1] == len(header) and np.isfinite(data).all():
                return data, header
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise GraphParseError(f"row has {len(cells)} cells, expected {len(header)}", lineno)
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise GraphParseError("non-numeric cell", lineno) from None
    data = np.array(rows).reshape(len(rows), len(header))  # (0, k) for a header alone
    if not np.isfinite(data).all():
        bad = next(n for (n, _), row in zip(lines[1:], rows) if not np.isfinite(row).all())
        raise GraphParseError("non-finite cell", bad)
    return data, header


# -- subcommand handlers -------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_maximal_pdag(_load_graph(args.graph))
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def _cmd_orient(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    outcome = construct_max_pdag(g, _load_background(args.bg))
    if not outcome.ok:
        print(f"FAIL: {outcome.reason}")
        return 1
    sys.stdout.write(serialize_graph(outcome.graph))
    return 0


def _cmd_reach(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    xs = _split_nodes(args.x)
    _query_masks(g, {"--x": xs})
    reach = b_possible_descendants if args.command == "possde" else b_possible_ancestors
    print(_format_set(g, reach(g, xs).nodes))
    return 0


def _cmd_adjust(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    xs = _split_nodes(args.x)
    ys = _split_nodes(args.y)
    modes = sum(1 for flag in (args.z is not None, args.find, args.list) if flag)
    if modes != 1:
        raise UsageError("choose exactly one of --z, --find or --list")
    if args.minimal and not args.list:
        raise UsageError("--minimal needs --list")
    zs = _split_nodes(args.z or "")
    _query_masks(g, {"--x": xs, "--y": ys, "--z": zs}, optional=("--z",))
    if args.z is not None:
        print(json.dumps(dataclasses.asdict(satisfies_b_adjustment(g, xs, ys, zs))))
        return 0
    if args.find:
        result = adjust_set(g, xs, ys)
        if result is None:
            zero_effect = not set(ys) & b_possible_descendants(g, xs).nodes
            zero = " (total effect is zero)" if zero_effect else ""
            raise ValueError(f"no adjustment set exists{zero}")
        print(_format_set(g, result))
        return 0
    raw_cap = os.environ.get(UNIVERSE_CAP_ENV, "20")
    try:
        cap = int(raw_cap)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"{UNIVERSE_CAP_ENV} must be a non-negative integer, got {raw_cap!r}"
        ) from None
    for z in list_adjustment_sets(
        g, xs, ys, minimal_only=args.minimal, universe_cap=cap
    ):
        print(_format_set(g, z))
    return 0


def _cmd_ida(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    xs, ys = _split_nodes(args.x), _split_nodes(args.y)
    _query_masks(g, {"--x": xs, "--y": ys})
    if len(ys) > 1:
        raise UsageError("--y names more than one node")
    data, columns = _read_csv_matrix(args.data)
    if len(xs) == 1:
        effects = ida_effects(g, xs[0], ys[0], data, columns)
        for entry, value in zip(effects.family, effects.values):
            print(f"parents={_format_set(g, entry.parents[0])} effect={value:.10g}")
    else:
        effects = joint_ida_effects(g, xs, ys[0], data, columns)
        for entry, vector in zip(effects.family, effects.values):
            parents = ", ".join(_format_set(g, s) for s in entry.parents)
            values = ", ".join(format(v, ".10g") for v in vector)
            print(f"parents=({parents}) effects=({values})")
    print(f"unique={effects.unique_count()}")
    return 0


# SimConfig field, its flag, the type of its values, and whether it is a
# tuple (a list in --config, a comma list as a flag).
_SIM_SETTINGS = (
    ("node_counts", "--p", int, True),
    ("neighborhood_sizes", "--en", float, True),
    ("graphs_per_setting", "--graphs", int, False),
    ("sample_size", "--n", int, False),
    ("fractions", "--fractions", float, True),
    ("seed", "--seed", int, False),
)


def _sim_config(args: argparse.Namespace) -> SimConfig:
    """The study grid from --config or from the flags, whose defaults are
    SimConfig's; an unknown key, a malformed or invalid setting, or a grid
    flag given with --config, is a usage error naming its key or flag."""
    if args.config:
        for _, flag, _, _ in _SIM_SETTINGS:
            if getattr(args, flag[2:]) is not None:
                raise UsageError(f"{flag} cannot be combined with --config")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"--config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError("--config must hold a JSON object")
        for key in raw:
            if key not in SimConfig.__dataclass_fields__:
                raise UsageError(f"--config key {key!r} is unknown")
    elif args.seed is None:
        raise UsageError("simulate requires --seed (or a --config with one)")
    values, names = {}, {}
    for field, flag, kind, many in _SIM_SETTINGS:
        if args.config:
            name = names[field] = f"--config key {field!r}"
            if field not in raw:
                raise UsageError(f"{name} is missing")
            value = raw[field]
            if many and not isinstance(value, list):
                raise UsageError(f"{name} must be a list")
        else:
            name = names[field] = flag
            value = getattr(args, flag[2:])
            if value is None:
                values[field] = getattr(SimConfig, field)
                continue
            if many:
                value = _split_nodes(value)
        items = []
        for text in map(str, value if many else [value]):
            try:
                items.append(kind(text))
            except ValueError:
                raise UsageError(f"{name}: invalid {kind.__name__} value {text!r}") from None
        values[field] = tuple(items) if many else items[0]
    problem = _grid_problem(argparse.Namespace(**values))
    if problem is not None:
        field, reason = problem
        raise UsageError(f"{names[field]}: {reason}")
    return SimConfig(**values)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _sim_config(args)
    if args.out:
        # open() decides whether --out can be written, before the study
        # runs; the probe appends nothing and removes a file it created.
        existed = os.path.lexists(args.out)
        open(args.out, "a", encoding="utf-8").close()
        if not existed:
            os.remove(args.out)
    rows = run_simulation(config)
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    :func:`main` call; each subcommand's handler is its ``run`` default."""
    parser = argparse.ArgumentParser(
        prog="mpdagkit",
        description="Causal reasoning on maximally oriented partially directed acyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="report acyclic/closed/extendable")
    p_validate.add_argument("graph")
    p_validate.set_defaults(run=_cmd_validate)

    p_orient = sub.add_parser("orient", help="merge required orientations")
    p_orient.add_argument("graph")
    p_orient.add_argument("--bg", required=True, help="knowledge file or inline 'A -> B' text")
    p_orient.set_defaults(run=_cmd_orient)

    for name, helptext in (
        ("possde", "possible descendants of --x"),
        ("possan", "possible ancestors of --x"),
    ):
        p_reach = sub.add_parser(name, help=helptext)
        p_reach.add_argument("graph")
        p_reach.add_argument("--x", required=True, help="comma-separated query nodes")
        p_reach.set_defaults(run=_cmd_reach)

    p_adjust = sub.add_parser("adjust", help="adjustment-set queries")
    p_adjust.add_argument("graph")
    p_adjust.add_argument("--x", required=True)
    p_adjust.add_argument("--y", required=True)
    p_adjust.add_argument("--z", default=None, help="candidate set ('' for the empty set)")
    p_adjust.add_argument("--find", action="store_true", help="print the canonical set")
    p_adjust.add_argument("--list", action="store_true", help="list all valid sets")
    p_adjust.add_argument("--minimal", action="store_true", help="with --list: only minimal sets")
    p_adjust.set_defaults(run=_cmd_adjust)

    p_ida = sub.add_parser("ida", help="possible total effects from data")
    p_ida.add_argument("graph")
    p_ida.add_argument("--x", required=True, help="one node, or a comma list for joint effects")
    p_ida.add_argument("--y", required=True)
    p_ida.add_argument("--data", required=True, help="CSV with a header of node names")
    p_ida.set_defaults(run=_cmd_ida)

    p_sim = sub.add_parser("simulate", help="run the background-knowledge study")
    p_sim.add_argument("--config", help="JSON config file")
    p_sim.add_argument("--p", help="comma list of node counts")
    p_sim.add_argument("--en", help="comma list of neighbourhood sizes")
    p_sim.add_argument("--graphs", type=int)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--fractions")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="CSV output path (default stdout)")
    p_sim.set_defaults(run=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # from argparse: 2 on a usage error, 0 after --help
        return exc.code
    except (GraphParseError, QueryError, UnicodeDecodeError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
