import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdagkit import cli, pdag_core
from mpdagkit.adjustment import is_amenable
from mpdagkit.causal_paths import b_possible_ancestors, b_possible_descendants
from mpdagkit.meek import construct_max_pdag, cpdag_of
from mpdagkit.pdag_core import GraphParseError, PdagGraph, parse_graph
from mpdagkit.sem_sim import SemModel, sample_data

from conftest import FIG1_CPDAG_TEXT, FIG3_CPDAG_TEXT, FIG3_G1_TEXT, FIG3_G2_TEXT, write_fresh
from helpers import read_csv_rows


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "mpdagkit", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


@pytest.fixture()
def graphs(tmp_path):
    paths = {}
    for name, text in (
        ("fig1_cpdag", FIG1_CPDAG_TEXT),
        ("fig3_cpdag", FIG3_CPDAG_TEXT),
        ("fig3_g1", FIG3_G1_TEXT),
        ("fig3_g2", FIG3_G2_TEXT),
    ):
        path = tmp_path / f"{name}.g"
        path.write_text(text + "\n")
        paths[name] = str(path)
    return paths


class TestOrient:
    def test_inline_background(self, graphs, fig1_mpdag):
        result = run_cli("orient", graphs["fig1_cpdag"], "--bg", "D -> B")
        assert result.returncode == 0
        assert parse_graph(result.stdout) == fig1_mpdag

    def test_conflict_message_exact(self, tmp_path, graphs):
        result = run_cli("orient", graphs["fig3_g2"], "--bg", "X -> Y")
        assert result.returncode == 1
        assert result.stdout.strip() == "FAIL: X -> Y conflicts with Y -> X"

    def test_background_file(self, tmp_path, graphs):
        bg = tmp_path / "bg.g"
        bg.write_text("D -> B\n")
        result = run_cli("orient", graphs["fig1_cpdag"], "--bg", str(bg))
        assert result.returncode == 0

    def test_output_reparses(self, graphs):
        result = run_cli("orient", graphs["fig1_cpdag"], "--bg", "D -> B")
        parse_graph(result.stdout)  # must not raise

    def test_byte_identical_runs(self, graphs):
        a = run_cli("orient", graphs["fig1_cpdag"], "--bg", "D -> B")
        b = run_cli("orient", graphs["fig1_cpdag"], "--bg", "D -> B")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize(
        "bg, message",
        [
            ("{tmp}/nofile", "background file not found: {tmp}/nofile"),
            ("A -> A", "line 1: self-loop on 'A'"),
        ],
        ids=["missing_file", "self_loop"],
    )
    def test_bad_background_is_usage_error(self, tmp_path, graphs, capsys, bg, message):
        argv = ["orient", graphs["fig1_cpdag"], "--bg", bg.format(tmp=tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(tmp=tmp_path)}\n")


class TestValidate:
    def test_maximal_pdag(self, graphs):
        result = run_cli("validate", graphs["fig3_g1"])
        assert result.returncode == 0
        assert result.stdout == '{"acyclic": true, "closed": true, "extendable": true}\n'

    def test_four_cycle(self, tmp_path):
        path = tmp_path / "cycle.g"
        path.write_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        report = json.loads(run_cli("validate", str(path)).stdout)
        assert report == {"acyclic": True, "closed": True, "extendable": False}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("node A B", "node directive takes exactly one name"),
            ("node 1A", "invalid node name '1A'"),
            ("A -- B 0.5", "weights are only allowed on directed edges"),
            ("A -> B 0.5 x", "too many tokens on edge statement"),
            ("-> A B", "syntax error near '->'"),
        ],
        ids=["node_two_names", "node_bad_name", "undirected_weight", "too_many_tokens", "syntax"],
    )
    def test_parse_errors_exit_2_with_the_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.g"
        path.write_text(text + "\n")
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: line 1: {message}\n")


class TestReach:
    def test_possde(self, graphs, tmp_path):
        mpdag = tmp_path / "mpdag.g"
        mpdag.write_text(
            run_cli("orient", graphs["fig1_cpdag"], "--bg", "D -> B").stdout
        )
        result = run_cli("possde", str(mpdag), "--x", "B")
        assert result.returncode == 0
        assert result.stdout.strip() == "{A, B, C}"

    def test_possan(self, graphs):
        result = run_cli("possan", graphs["fig3_g1"], "--x", "Y")
        assert result.returncode == 0
        assert set(result.stdout.strip()[1:-1].split(", ")) == {"V1", "X", "V2", "Y"}

    def test_possde_multi_query(self, graphs):
        result = run_cli("possde", graphs["fig3_g1"], "--x", "V1,V2")
        assert result.returncode == 0
        assert set(result.stdout.strip()[1:-1].split(", ")) == {"V1", "X", "V2", "Y"}

    @pytest.mark.parametrize("command", ["possde", "possan"])
    @pytest.mark.parametrize(
        "x, message",
        [
            ("", "--x must name at least one node"),
            (",", "--x must name at least one node"),
            ("X,X", "--x names a node more than once"),
        ],
    )
    def test_malformed_node_lists_are_usage_errors(self, graphs, capsys, command, x, message):
        assert cli.main([command, graphs["fig3_g1"], "--x", x]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestAdjust:
    def test_list_example(self, graphs):
        result = run_cli("adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y", "--list")
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["{}", "{V1}"]

    def test_list_minimal(self, graphs):
        result = run_cli(
            "adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y", "--list", "--minimal"
        )
        assert result.stdout.splitlines() == ["{}"]

    def test_list_empty_for_g2(self, graphs):
        result = run_cli("adjust", graphs["fig3_g2"], "--x", "X", "--y", "Y", "--list")
        assert result.returncode == 0
        assert result.stdout == ""

    def test_find(self, graphs):
        result = run_cli("adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y", "--find")
        assert result.returncode == 0
        assert result.stdout.strip() == "{V1}"

    def test_find_failure_reports_zero_effect(self, graphs):
        result = run_cli("adjust", graphs["fig3_g2"], "--x", "X", "--y", "Y", "--find")
        assert result.returncode == 1
        assert result.stdout == "error: no adjustment set exists (total effect is zero)\n"

    def test_find_failure_without_zero_effect(self, graphs):
        result = run_cli("adjust", graphs["fig3_cpdag"], "--x", "X", "--y", "Y", "--find")
        assert result.returncode == 1
        assert result.stdout == "error: no adjustment set exists\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--x", "X", "--y", "X", "--find"), "--x and --y overlap: {X}"),
            (("--x", "X", "--y", "Y", "--z", "X"), "--x and --z overlap: {X}"),
            (("--x", "X", "--y", "Y", "--z", "V1,Y"), "--y and --z overlap: {Y}"),
            (("--x", "", "--y", "Y", "--find"), "--x must name at least one node"),
            (("--x", "X", "--y", ",", "--list"), "--y must name at least one node"),
            (("--x", "X,X", "--y", "Y", "--find"), "--x names a node more than once"),
            (("--x", "X", "--y", "Y,Y", "--list"), "--y names a node more than once"),
            (("--x", "X", "--y", "Y", "--z", "V1,V1"), "--z names a node more than once"),
            # Empty lists are reported before repeated nodes.
            (("--x", "X,X", "--y", "", "--find"), "--y must name at least one node"),
        ],
    )
    def test_malformed_node_lists_are_usage_errors(self, graphs, capsys, args, message):
        assert cli.main(["adjust", graphs["fig3_g1"], *args]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_verdict_json(self, graphs):
        result = run_cli(
            "adjust", graphs["fig3_g2"], "--x", "X", "--y", "Y", "--z", ""
        )
        assert result.returncode == 0
        verdict = json.loads(result.stdout)
        assert list(verdict) == [
            "amenable",
            "forbidden_ok",
            "blocking_ok",
            "overall",
            "zero_effect",
            "witness",
        ]
        assert verdict["overall"] is False
        assert verdict["zero_effect"] is True
        assert verdict["witness"] == ["X", "Y"]

    def test_verdict_passing_set(self, graphs):
        result = run_cli(
            "adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y", "--z", "V1"
        )
        verdict = json.loads(result.stdout)
        assert verdict["overall"] is True
        assert verdict["witness"] is None

    @pytest.mark.parametrize(
        "mode, stdout",
        [
            (("--find",), "{A, B}\n"),
            (("--z", "A"), '"overall": true'),
            (("--list",), "{}\n{A}\n{B}\n{A, B}\n"),
        ],
    )
    def test_twenty_node_cpdag_answers(self, tmp_path, mode, stdout):
        # X -> Y is oriented by the collider A -> X <- B; the D chain hangs off Y.
        chain = "".join(f"D{i} -> D{i + 1}\n" for i in range(1, 16))
        path = tmp_path / "twenty.g"
        path.write_text("A -> X\nB -> X\nX -> Y\nY -> D1\n" + chain)
        result = run_cli("adjust", str(path), "--x", "X", "--y", "Y", *mode)
        assert result.returncode == 0
        assert stdout in result.stdout and result.stderr == ""

    def test_mode_required(self, graphs):
        result = run_cli("adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y")
        assert result.returncode == 2

    @pytest.mark.parametrize("mode", [("--find",), ("--z", "")])
    def test_minimal_needs_list(self, graphs, capsys, mode):
        argv = ["adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y", *mode, "--minimal"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: --minimal needs --list\n")

    def test_universe_cap_env(self, graphs):
        result = run_cli(
            "adjust",
            graphs["fig3_g1"],
            "--x",
            "X",
            "--y",
            "Y",
            "--list",
            env={"MPDAGKIT_UNIVERSE_CAP": "0"},
        )
        assert result.returncode == 1
        assert "cap of 0" in result.stdout

    def test_non_integer_universe_cap_is_usage_error(self, graphs):
        result = run_cli(
            "adjust",
            graphs["fig3_g1"],
            "--x",
            "X",
            "--y",
            "Y",
            "--list",
            env={"MPDAGKIT_UNIVERSE_CAP": "abc"},
        )
        assert result.returncode == 2
        assert "MPDAGKIT_UNIVERSE_CAP" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("cap", ["abc", "-1"], ids=["non_integer", "negative"])
    def test_rejected_universe_cap_is_usage_error(self, graphs, capsys, monkeypatch, cap):
        monkeypatch.setenv("MPDAGKIT_UNIVERSE_CAP", cap)
        assert cli.main(["adjust", graphs["fig3_g1"], "--x", "X", "--y", "Y", "--list"]) == 2
        message = f"error: MPDAGKIT_UNIVERSE_CAP must be a non-negative integer, got {cap!r}\n"
        assert capsys.readouterr() == ("", message)

    def test_zero_universe_cap_lists_an_empty_universe(self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "edge.g"
        graph.write_text("A -> B\n")
        monkeypatch.setenv("MPDAGKIT_UNIVERSE_CAP", "0")
        assert cli.main(["adjust", str(graph), "--x", "A", "--y", "B", "--list"]) == 0
        assert capsys.readouterr() == ("{}\n", "")


@pytest.fixture()
def peels(monkeypatch):
    """The graphs ``consistent_extension`` is called on, through every
    module binding of it, in call order."""
    calls = []
    peel = pdag_core.consistent_extension

    def counted(g):
        calls.append(g)
        return peel(g)

    bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "mpdagkit"]
    bound = [m for m in bound if getattr(m, "consistent_extension", None) is peel]
    assert len(bound) >= 5  # pdag_core, meek, adjustment, extension, ida (and the package)
    for module in bound:
        monkeypatch.setattr(module, "consistent_extension", counted)
    return calls


class TestOnePeelPerParsedGraph:
    """The maximality check keeps the DAG extension it built on the graph
    it passed, and the adjustment criterion reads it, so one CLI query
    peels its parsed graph once."""

    @pytest.mark.parametrize(
        "mode", [["--find"], ["--z", "V1"], ["--z", ""], ["--list"], ["--list", "--minimal"]]
    )
    @pytest.mark.parametrize("graph", ["fig3_g1", "fig3_g2"])
    def test_adjust_peels_once(self, graphs, peels, capsys, graph, mode):
        assert cli.main(["adjust", graphs[graph], "--x", "X", "--y", "Y", *mode]) in (0, 1)
        assert len(peels) == 1

    @pytest.mark.parametrize("command", ["possde", "possan"])
    def test_reach_peels_once(self, graphs, peels, capsys, command):
        assert cli.main([command, graphs["fig3_g1"], "--x", "X"]) == 0
        assert len(peels) == 1

    def test_library_built_graphs_are_not_peeled_by_the_gate(self, peels):
        dag = parse_graph(FIG3_G1_TEXT.replace("--", "->"))
        cpdag = cpdag_of(dag)
        merged = construct_max_pdag(cpdag, [("V1", "X")]).graph
        assert merged != cpdag and peels == []
        for g in (cpdag, merged):
            b_possible_descendants(g, "X")
            b_possible_ancestors(g, "Y")
            is_amenable(g, "X", "Y")
        assert peels == []

    def test_the_kept_extension_is_a_fresh_peel_and_derived_graphs_have_none(self):
        g = parse_graph(FIG3_G1_TEXT)
        assert g._extension is None
        b_possible_descendants(g, "X")
        assert g._extension == pdag_core.consistent_extension(g)
        derived = (
            g._copy(),
            g.reversed(),
            PdagGraph._from_masks(g.nodes, g._index, g._pa, g._ch, g._und),
        )
        for d in derived:
            assert d._extension is None and not d._maximal


class TestErrors:
    def test_usage_error(self):
        assert run_cli("adjust").returncode == 2

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("A -- B\nA => C\n")
        result = run_cli("validate", str(bad))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_unknown_node(self, graphs):
        result = run_cli("possde", graphs["fig3_g1"], "--x", "Q")
        assert result.returncode == 2

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
    def test_first_unknown_node_is_reported_whatever_the_hash_seed(self, graphs, hash_seed):
        env = {"PYTHONHASHSEED": hash_seed}
        script = (
            "import sys\n"
            "from mpdagkit import is_amenable, parse_graph\n"
            "try:\n"
            "    is_amenable(parse_graph(open(sys.argv[1]).read()), ['Q', 'R', 'S'], 'Y')\n"
            "except KeyError as exc:\n"
            "    print(exc.args[0])\n"
        )
        library = subprocess.run(
            [sys.executable, "-c", script, graphs["fig3_g1"]],
            capture_output=True,
            text=True,
            env={**os.environ, **env},
        )
        assert library.stdout == "unknown node: 'Q'\n"
        result = run_cli("possde", graphs["fig3_g1"], "--x", "Q,R,S", env=env)
        assert (result.returncode, result.stderr) == (2, "error: unknown node: 'Q'\n")

    def test_missing_file(self):
        result = run_cli("validate", "/nonexistent/path.g")
        assert result.returncode == 2


FOUR_CYCLE_TEXT = "A -- B\nB -- C\nC -- D\nD -- A\n"


class TestInputWithNoExtension:
    """The undirected 4-cycle is closed and acyclic but has no DAG
    extension: every command that needs a maximal PDAG refuses it."""

    @pytest.fixture()
    def cycle(self, tmp_path):
        path = tmp_path / "cycle.g"
        path.write_text(FOUR_CYCLE_TEXT)
        csv_path = tmp_path / "data.csv"
        rows = "".join(f"{i},{i % 3},{i % 5},{i % 7}\n" for i in range(9))
        csv_path.write_text("A,B,C,D\n" + rows)
        return str(path), str(csv_path)

    @pytest.mark.parametrize(
        "args",
        [
            ["orient", "{g}", "--bg", "A -> B"],
            ["ida", "{g}", "--x", "A", "--y", "C", "--data", "{data}"],
            ["ida", "{g}", "--x", "A,B", "--y", "C", "--data", "{data}"],
            ["possde", "{g}", "--x", "A"],
            ["possan", "{g}", "--x", "A"],
            ["adjust", "{g}", "--x", "A", "--y", "C", "--find"],
            ["adjust", "{g}", "--x", "A", "--y", "C", "--list"],
            ["adjust", "{g}", "--x", "A", "--y", "C", "--z", "B"],
        ],
        ids=["orient", "ida", "joint_ida", "possde", "possan", "find", "list", "z"],
    )
    def test_refused_with_exit_1(self, cycle, capsys, args):
        g, data = cycle
        assert cli.main([a.format(g=g, data=data) for a in args]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "error: graph has no consistent DAG extension\n",
            "",
        )

    def test_validate_still_reports(self, cycle, capsys):
        assert cli.main(["validate", cycle[0]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"acyclic": True, "closed": True, "extendable": False}


class TestOtherNonMaximalInput:
    """A directed cycle or a graph the orientation rules would change is
    refused too, with the first failed check's message."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A -> B\nB -> C\nC -> A\n", "input graph has a directed cycle"),
            ("A -> B\nB -- C\n", "input graph is not closed under the orientation rules"),
        ],
        ids=["cycle", "not_closed"],
    )
    def test_refused_with_exit_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "g.g"
        path.write_text(text)
        assert cli.main(["possde", str(path), "--x", "A"]) == 1
        assert capsys.readouterr() == (f"error: {message}\n", "")


class TestFileErrors:
    """A path the CLI cannot open, or a file that is not UTF-8, is an
    input error: exit 2 with the message on stderr."""

    SIM = ["simulate", "--p", "4", "--en", "2", "--graphs", "1", "--n", "20", "--fractions", "0"]

    @pytest.fixture()
    def files(self, tmp_path):
        graph = tmp_path / "edge.g"
        graph.write_text("X -> Y\n")
        data = tmp_path / "data.csv"
        data.write_text("X,Y\n" + "".join(f"{i},{i * i % 7}\n" for i in range(6)))
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xffX -> Y\n")
        return {"dir": str(tmp_path), "g": str(graph), "data": str(data), "bad": str(undecodable)}

    def assert_input_error(self, capsys, argv, files, fragment):
        assert cli.main([a.format(**files) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and fragment in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{dir}"],
            ["orient", "{dir}", "--bg", "X -> Y"],
            ["orient", "{g}", "--bg", "{dir}"],
            ["possde", "{dir}", "--x", "X"],
            ["possan", "{dir}", "--x", "X"],
            ["adjust", "{dir}", "--x", "X", "--y", "Y", "--find"],
            ["ida", "{dir}", "--x", "X", "--y", "Y", "--data", "{data}"],
            ["ida", "{g}", "--x", "X", "--y", "Y", "--data", "{dir}"],
            ["simulate", "--config", "{dir}"],
            SIM + ["--seed", "1", "--out", "{dir}"],
        ],
        ids=[
            "validate",
            "orient_graph",
            "orient_bg",
            "possde",
            "possan",
            "adjust",
            "ida_graph",
            "ida_data",
            "simulate_config",
            "simulate_out",
        ],
    )
    def test_directory_path_exits_2(self, capsys, files, argv):
        self.assert_input_error(capsys, argv, files, "directory")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{bad}"],
            ["orient", "{g}", "--bg", "{bad}"],
            ["ida", "{g}", "--x", "X", "--y", "Y", "--data", "{bad}"],
            ["simulate", "--config", "{bad}"],
        ],
        ids=["graph", "knowledge", "data", "config"],
    )
    def test_undecodable_file_exits_2(self, capsys, files, argv):
        self.assert_input_error(capsys, argv, files, "can't decode byte 0xff")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{g}"],
            ["possde", "{g}", "--x", "X"],
            ["orient", "{cpdag}", "--bg", "{bg}"],
            ["ida", "{g}", "--x", "X", "--y", "Y", "--data", "{data}"],
        ],
        ids=["graph", "reach", "knowledge", "data"],
    )
    def test_leading_byte_order_mark_is_dropped(self, capsys, tmp_path, argv):
        """A UTF-8 file that starts with a byte order mark, as Excel and
        Notepad write, answers as the same file without it."""
        texts = {
            "g": "X -> Y\n",
            "cpdag": "X -- Y\n",
            "bg": "X -> Y\n",
            "data": "X,Y\n" + "".join(f"{i},{i * i % 7}\n" for i in range(6)),
        }
        outputs = []
        for mark in ("", "\ufeff"):
            paths = {}
            for key, text in texts.items():
                path = tmp_path / f"{key}{len(mark)}.txt"
                path.write_text(mark + text, encoding="utf-8")
                paths[key] = str(path)
            code = cli.main([a.format(**paths) for a in argv])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1].err == ""

    def test_parse_graph_keeps_a_byte_order_mark_in_a_string(self):
        # Only the file reader drops the mark; in a string it is text.
        with pytest.raises(GraphParseError, match=r"^line 1: invalid node name '\\ufeffX'$"):
            parse_graph("\ufeffX -> Y\n")


class TestIdaCli:
    def test_single_edge(self, tmp_path):
        g = parse_graph("X -> Y")
        graph_path = tmp_path / "edge.g"
        graph_path.write_text("X -> Y\n")
        model = SemModel(g, {("X", "Y"): 2.0}, {"X": 1.0, "Y": 1.0})
        data = sample_data(model, 2000, np.random.default_rng(0))
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(
            "X,Y\n" + "\n".join(f"{a},{b}" for a, b in data) + "\n"
        )
        result = run_cli(
            "ida", str(graph_path), "--x", "X", "--y", "Y", "--data", str(csv_path)
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("parents={} effect=")
        assert abs(float(lines[0].split("=")[-1]) - 2.0) < 0.15
        assert lines[1] == "unique=1"

    def test_joint_interventions(self, tmp_path):
        graph_path = tmp_path / "chain.g"
        graph_path.write_text("X1 -> X2\nX2 -> Y\n")
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal(500)
        x2 = 0.5 * x1 + rng.standard_normal(500)
        y = -0.8 * x2 + rng.standard_normal(500)
        csv_path = tmp_path / "joint.csv"
        csv_path.write_text(
            "X1,X2,Y\n"
            + "\n".join(f"{a},{b},{c}" for a, b, c in zip(x1, x2, y))
            + "\n"
        )
        result = run_cli(
            "ida",
            str(graph_path),
            "--x",
            "X1,X2",
            "--y",
            "Y",
            "--data",
            str(csv_path),
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("parents=({}, {X1}) effects=(")
        assert lines[-1] == "unique=1"
        values = [float(v) for v in lines[0].split("effects=(")[1][:-1].split(", ")]
        assert abs(values[0] - 0.5 * -0.8) < 0.15
        assert abs(values[1] - -0.8) < 0.15

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ("X", "X", "--x and --y overlap: {X}"),
            ("X,Y", "Y", "--x and --y overlap: {Y}"),
            ("", "Y", "--x must name at least one node"),
            ("X,X", "Y", "--x names a node more than once"),
            ("X", "", "--y must name at least one node"),
            ("X", ",", "--y must name at least one node"),
            ("X", "Y,Y", "--y names a node more than once"),
            ("X", "Y,W", "--y names more than one node"),
            ("X", "Y,Q", "unknown node: 'Q'"),
        ],
    )
    def test_malformed_node_lists_are_usage_errors(self, tmp_path, x, y, message):
        """--y is split like every other list, and names one node."""
        graph_path = tmp_path / "edge.g"
        graph_path.write_text("X -> Y\nnode W\n")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("X,Y,W\n" + "".join(f"{i},{2 * i},{i % 3}\n" for i in range(5)))
        result = run_cli(
            "ida", str(graph_path), "--x", x, "--y", y, "--data", str(csv_path)
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X,Z\n1,2\n3,4\n5,6\n", "data columns do not match the graph's nodes"),
            ("X,X\n1,2\n3,4\n5,6\n", "data columns do not match the graph's nodes"),
            ("", "empty data file"),
            ("X,Y\n", "need more samples than variables"),
            ("X,Y\n1,2\n", "need more samples than variables"),
            ("X,Y\n1,2\n\n1,x\n3,4\n5,6\n", "line 4: non-numeric cell"),
            ("X,Y\n1,2\n3,4\nnan,6\n7,8\n", "line 4: non-finite cell"),
            ("X,Y\n1,2\n3,-inf\n5,6\n7,1e999\n", "line 3: non-finite cell"),
            ("X,Y\n1,2\n3#4,5\n5,6\n7,8\n", "line 3: non-numeric cell"),
        ],
        ids=[
            "other_column",
            "repeated_column",
            "empty_file",
            "header_only",
            "one_row",
            "blank_line_before_bad_row",
            "nan_cell",
            "inf_cell",
            "comment_character",
        ],
    )
    def test_malformed_data_is_usage_error(self, tmp_path, text, message):
        graph_path = tmp_path / "edge.g"
        graph_path.write_text("X -> Y\n")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(text)
        result = run_cli(
            "ida", str(graph_path), "--x", "X", "--y", "Y", "--data", str(csv_path)
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""


class TestSimulateCli:
    ARGS = (
        "simulate",
        "--p",
        "5",
        "--en",
        "2",
        "--graphs",
        "3",
        "--n",
        "50",
        "--fractions",
        "0,1",
        "--seed",
        "3",
    )
    CONFIG = {
        "node_counts": [5],
        "neighborhood_sizes": [2],
        "graphs_per_setting": 2,
        "sample_size": 40,
        "fractions": [0, 1],
        "seed": 9,
    }

    @staticmethod
    def strip_ms(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    def test_runs_and_is_deterministic_up_to_timing(self):
        a = run_cli(*self.ARGS)
        b = run_cli(*self.ARGS)
        assert a.returncode == 0
        lines = a.stdout.splitlines()
        assert lines[0].startswith("seed,p,en,fraction")
        assert len(lines) == 1 + 3 * 2
        assert self.strip_ms(a.stdout) == self.strip_ms(b.stdout)

    def test_seed_required(self):
        result = run_cli("simulate", "--p", "5", "--en", "2", "--graphs", "1")
        assert result.returncode == 2
        assert "--seed" in result.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        result = run_cli(*self.ARGS, "--out", str(out))
        assert result.returncode == 0
        assert out.read_text().startswith("seed,p,en,")

    @pytest.mark.parametrize(
        "out",
        ["", "missing/rows.csv", "file.txt/rows.csv", "x" * 300],
        ids=["directory", "missing_parent", "parent_is_a_file", "name_too_long"],
    )
    def test_bad_out_fails_before_the_study(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "file.txt").write_text("")
        out = str(tmp_path / out)
        with pytest.raises(OSError) as opening:
            open(out, "w")
        before = sorted(tmp_path.rglob("*"))

        def study_must_not_run(config):
            raise AssertionError("the study ran before --out was checked")

        monkeypatch.setattr(cli, "run_simulation", study_must_not_run)
        assert cli.main([*self.ARGS, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {opening.value}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_existing_out_keeps_its_bytes_when_the_study_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "rows.csv"
        out.write_bytes(b"earlier rows\n")

        def failing_study(config):
            raise ValueError("study failed")

        monkeypatch.setattr(cli, "run_simulation", failing_study)
        assert cli.main([*self.ARGS, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("error: study failed\n", "")
        assert out.read_bytes() == b"earlier rows\n"

    def test_new_out_holds_the_stdout_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli.main(list(self.ARGS)) == 0
        printed = capsys.readouterr().out
        assert cli.main([*self.ARGS, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert self.strip_ms(out.read_text()) == self.strip_ms(printed)

    def test_sparse_grid_redraws_edgeless_models(self, capsys):
        argv = ["simulate", "--seed", "3", "--graphs", "20", "--p", "10", "--en", "0.5", "--n", "20"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 20 * 11

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        result = run_cli("simulate", "--config", str(cfg))
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 1 + 2 * 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "abc"], "--p: invalid int value 'abc'"),
            (["--p", ""], "--p: need at least one node count"),
            (["--p", "1"], "--p: need at least two nodes"),
            (["--en", "9"], "--en: expected neighbourhood size must be in (0, p-1]"),
            (["--graphs", "0"], "--graphs: need at least one graph per setting"),
            (["--fractions", "0.5,0.2"], "--fractions: fractions must be sorted"),
            (["--fractions", ""], "--fractions: need at least one fraction"),
            (["--seed", "-1"], "--seed: seed must be non-negative"),
        ],
        ids=[
            "p_not_int",
            "p_empty",
            "p_one",
            "en_above_p_minus_1",
            "no_graphs",
            "fractions_unsorted",
            "fractions_empty",
            "seed_negative",
        ],
    )
    def test_invalid_flags_are_usage_errors(self, capsys, flags, message):
        argv = ["simulate", "--p", "5", "--en", "2", "--graphs", "1", "--n", "40", "--seed", "1"]
        assert cli.main(argv + flags) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--p", "7"),
            ("--en", "2"),
            ("--graphs", "3"),
            ("--n", "50"),
            ("--fractions", "0,1"),
            ("--seed", "5"),
        ],
    )
    def test_grid_flag_with_config_is_usage_error(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "rows.csv"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), flag, value]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        message = f"error: {flag} cannot be combined with --config\n"
        assert (captured.out, captured.err) == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "{bad",
                "--config is not valid JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)",
            ),
            (
                json.dumps({**CONFIG, "node_counts": 5}),
                "--config key 'node_counts' must be a list",
            ),
            (
                json.dumps({k: v for k, v in CONFIG.items() if k != "seed"}),
                "--config key 'seed' is missing",
            ),
            (
                json.dumps({**CONFIG, "fractions": []}),
                "--config key 'fractions': need at least one fraction",
            ),
            ("[1, 2]", "--config must hold a JSON object"),
            (
                json.dumps({**CONFIG, "seed": -3}),
                "--config key 'seed': seed must be non-negative",
            ),
            (
                json.dumps({"graphs": 500, **CONFIG, "sample_sizes": 9999}),
                "--config key 'graphs' is unknown",
            ),
        ],
        ids=[
            "malformed_json",
            "node_counts_not_a_list",
            "missing_key",
            "fractions_empty",
            "json_array",
            "seed_negative",
            "unknown_key",
        ],
    )
    def test_invalid_config_is_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


NAMES = ("X", "Y", "V1", "V2")


@pytest.fixture(scope="module")
def rule_files(tmp_path_factory):
    """The closed MPDAG ``FIG3_G1_TEXT`` and a data file over its nodes."""
    root = tmp_path_factory.mktemp("rule")
    graph = root / "g1.g"
    graph.write_text(FIG3_G1_TEXT + "\n")
    rows = np.random.default_rng(0).standard_normal((30, len(NAMES)))
    data = root / "data.csv"
    data.write_text(",".join(NAMES) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return str(graph), str(data)


def breaks_node_list_rule(lists, may_be_empty=""):
    """Reference for the rule: every name known, no name twice across
    all lists (overlap or repeat), and no required list empty."""
    flat = [name for names in lists.values() for name in names]
    if any(name not in NAMES for name in flat) or len(set(flat)) != len(flat):
        return True
    return any(not names and flag != may_be_empty for flag, names in lists.items())


@st.composite
def node_list_queries(draw):
    """A subcommand whose node lists take disjoint runs of a shuffle of
    the graph's names, each with at most one extra name (the unknown Q,
    a repeat or another list's node); a list may end in a stray comma."""
    shuffled = draw(st.permutations(NAMES))

    def node_list():
        names = [shuffled.pop() for _ in range(min(draw(st.integers(0, 2)), len(shuffled)))]
        names += draw(st.lists(st.sampled_from(NAMES + ("Q",)), max_size=1))
        return names, ",".join(names) + ("," if draw(st.booleans()) else "")

    mode = draw(st.sampled_from(["possde", "possan", "--find", "--z", "ida"]))
    xs, x_arg = node_list()
    if mode in ("possde", "possan"):
        return [mode, "--x", x_arg], {"--x": xs}, ""
    if mode == "ida":
        y = draw(st.sampled_from(NAMES + ("Q",)))
        return ["ida", "--x", x_arg, "--y", y], {"--x": xs, "--y": [y]}, ""
    ys, y_arg = node_list()
    argv = ["adjust", "--x", x_arg, "--y", y_arg]
    if mode == "--find":
        return argv + ["--find"], {"--x": xs, "--y": ys}, ""
    zs, z_arg = node_list()
    return argv + ["--z", z_arg], {"--x": xs, "--y": ys, "--z": zs}, "--z"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(query=node_list_queries())
def test_one_node_list_rule_for_every_subcommand(rule_files, query):
    argv, lists, may_be_empty = query
    graph, data = rule_files
    argv = [argv[0], graph, *argv[1:]] + (["--data", data] if argv[0] == "ida" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if breaks_node_list_rule(lists, may_be_empty):
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ")
    else:
        assert code in (0, 1)
        assert err.getvalue() == ""


HELP_GOLDEN = json.loads((Path(__file__).parent / "cli_help.json").read_text())


class TestParserCache:
    """One parser per process: reusing it changes no help text and no
    usage error.  The help goldens were captured at 80 columns from the
    parser before it was cached."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("name", list(HELP_GOLDEN))
    def test_help_matches_golden(self, capsys, name):
        argv = ["--help"] if name == "mpdagkit" else [name, "--help"]
        for _ in range(2):
            assert cli.main(argv) == 0
            assert capsys.readouterr() == (HELP_GOLDEN[name], "")

    def test_one_parser_for_many_calls(self, graphs, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        g = graphs["fig3_g1"]
        for argv in (
            ["validate", g],
            ["possde", g, "--x", "X"],
            ["adjust", g, "--x", "X", "--y", "Y", "--find"],
            ["possan", g, "--x", "Q"],
        ):
            cli.main(argv)
        capsys.readouterr()
        assert len(built) == 8  # the top-level parser and one per subcommand
        assert cli._build_parser.cache_info().misses == 1

    def test_usage_error_is_identical_when_repeated(self, graphs, capsys):
        argv = ["adjust", graphs["fig3_g1"], "--x", "X"]
        fresh = run_cli(*argv)
        assert fresh.returncode == 2 and fresh.stderr.startswith("usage: mpdagkit adjust")
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", fresh.stderr)


# Cells that float() and a C parser may read differently: comment and
# digit-group characters, bare signs and exponents, non-finite words,
# inner whitespace and non-ASCII digits and spaces.
HOSTILE_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "nan", "inf", "-inf", "Infinity", "1_0", "3#4", "#", "1e5", "1e", "e", ".",
         "+.5", "1.", "-0", "1e999", "1e-400", " 7 ", "7 8", "\t2", "\xa03", "\u0661", "0x10"]
    ),
    st.text(alphabet="0123456789.e+-_# ", max_size=4),
)
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)


@st.composite
def csv_texts(draw):
    """A data file of up to five rows under a one- to three-column
    header; rows may have a cell too few or too many or a trailing comma,
    blank lines may follow them, and the cells are either all numbers or
    about one in four hostile."""
    width = draw(st.integers(1, 3))
    hostile = draw(st.booleans())

    def cell():
        if hostile and draw(st.integers(0, 3)) == 0:
            return draw(HOSTILE_CELLS)
        return draw(NUMBER_CELLS)

    lines = [",".join("ABC"[:width])]
    for _ in range(draw(st.integers(0, 5))):
        count = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        lines.append(",".join(cell() for _ in range(count)))
        if draw(st.integers(0, 7)) == 0:
            lines[-1] += ","
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@pytest.fixture(scope="module")
def sweep_file(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


def read_outcome(read, path):
    try:
        data, header = read(path)
    except GraphParseError as exc:
        return str(exc), exc.line
    return data.shape, data.dtype, data.tobytes(), header


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(text=csv_texts())
def test_data_reader_matches_the_per_row_oracle(sweep_file, text):
    write_fresh(sweep_file, text, encoding="utf-8")
    path = str(sweep_file)
    assert read_outcome(cli._read_csv_matrix, path) == read_outcome(read_csv_rows, path)
