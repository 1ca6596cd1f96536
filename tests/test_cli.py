import argparse
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flowmon
from flowmon import cli, generators, hardness, solvers, textio
from flowmon import graph as graph_mod
from flowmon.cli import main
from flowmon.flowsim import measure, random_circulation
from flowmon.graph import Graph
from flowmon.kernel import kernel_graph
from flowmon.reduce import preprocess
from flowmon.textio import format_graph, format_readings, parse_graph
from flowmon.weights import MAX_MICROS, Weight

import oracles


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# runs the command in its arguments with descriptor 1 closed, as `>&-` does
CLOSE_STDOUT_AND_EXEC = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"


def run_module(*argv, close_stdout=False, **kwargs) -> subprocess.CompletedProcess:
    """python -m flowmon argv in a child process that imports this flowmon,
    started with descriptor 1 closed if close_stdout."""
    src = str(Path(flowmon.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    wrapper = [sys.executable, "-c", CLOSE_STDOUT_AND_EXEC] if close_stdout else []
    return subprocess.run(
        [*wrapper, sys.executable, "-m", "flowmon", *argv],
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        **kwargs,
    )


@pytest.fixture()
def fig1_files(tmp_path):
    graph = tmp_path / "fig1.graph"
    readings = tmp_path / "fig1.readings"
    code, _ = run_cli("gen", "fig1", "-o", str(graph), "--readings-out", str(readings))
    assert code == 0
    return graph, readings


def test_gen_writes_parseable_graph(fig1_files):
    graph, _ = fig1_files
    g = parse_graph(graph.read_text())
    assert g.vertex_count == 8 and len(g.edges) == 12


def test_infer_reproduces_worked_flows(fig1_files):
    graph, readings = fig1_files
    code, out = run_cli("infer", "-m", "0,1,2,3", "-r", str(readings), str(graph))
    assert code == 0
    assert out == (
        "F 0 1\nF 1 4\nF 2 2\nF 3 7\nF 4 2\nF 5 2\nF 6 3\nF 7 5\n"
        "U 8\nU 9\nU 10\nU 11\nCONSISTENT yes\n"
    )


def test_infer_inconsistent_exit_code(fig1_files, tmp_path):
    graph, _ = fig1_files
    bad = tmp_path / "bad.readings"
    # all edges monitored with a broken reading on edge 0
    lines = [f"r {e} 0" for e in range(12)]
    lines[0] = "r 0 5"
    bad.write_text("\n".join(lines) + "\n")
    code, out = run_cli("infer", "-m", ",".join(map(str, range(12))), "-r", str(bad), str(graph))
    assert code == 4
    assert out.endswith("CONSISTENT no\n")


def test_solve_output_shape(fig1_files):
    graph, _ = fig1_files
    code, out = run_cli("solve", "--algo", "greedy1", "-k", "2", str(graph))
    assert code == 0
    lines = out.splitlines()
    assert sum(l.startswith("M ") for l in lines) == 2
    assert lines[-1].startswith("GAIN ")


def test_python_dash_m_runs_the_cli(fig1_files):
    graph, _ = fig1_files
    argv = ["solve", str(graph), "--algo", "greedy1", "-k", "2"]
    proc = run_module(*argv, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*argv)[1]


COLD_START_PROBE = """
import json, sys
before = set(sys.modules)
import flowmon.cli
flowmon.cli.build_parser()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cold_start_loads_no_dataclasses_and_every_module():
    # every command pays this import; dataclasses pulls in inspect, ast,
    # dis and tokenize, which nothing else in the import needs
    src = str(Path(flowmon.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{COLD_START_PROBE}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "dataclasses" not in added and "inspect" not in added
    assert {m for m in added if m.startswith("flowmon")} == {
        "flowmon", *(f"flowmon.{m}" for m in (
            "cli", "cutspace", "errors", "flowsim", "generators", "graph", "hardness",
            "kernel", "reduce", "solvers", "textio", "weights"))}


def test_solve_trace_records_steps(fig1_files):
    graph, _ = fig1_files
    code, out = run_cli("solve", "--algo", "greedy:2", "-k", "3", "--trace", str(graph))
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l.startswith("T ")]
    assert len(trace_lines) == 2
    assert trace_lines[0].startswith("T 1 P ")


def test_solve_exact_matches_direct_exact(fig1_files):
    graph, _ = fig1_files
    _, via_pipeline = run_cli("solve", "--algo", "exact", "-k", "2", str(graph))
    _, direct = run_cli("exact", "-k", "2", str(graph))
    pipeline_gain = [l for l in via_pipeline.splitlines() if l.startswith("GAIN")]
    direct_gain = [l for l in direct.splitlines() if l.startswith("GAIN")]
    assert pipeline_gain == direct_gain  # fig1 has no bridges to strip


def test_reduce_emits_graph_and_map(tmp_path, fig1_files):
    graph, _ = fig1_files
    out_graph = tmp_path / "reduced.graph"
    out_map = tmp_path / "reduced.map"
    code, out = run_cli("reduce", str(graph), "-o", str(out_graph), "--map-out", str(out_map))
    assert code == 0 and out == ""
    reduced = parse_graph(out_graph.read_text())
    assert reduced.vertex_count == 7 and len(reduced.edges) == 11
    map_lines = out_map.read_text().splitlines()
    assert "v 7 2" in map_lines
    assert sum(l.startswith("g ") for l in map_lines) == 12
    assert not any(l.startswith("zb") for l in map_lines)


def test_reduce_reports_zero_flow_bridges(tmp_path):
    text = "p flowmon 4 4\ne 0 1 1\ne 1 2 1\ne 0 2 1\ne 2 3 1\n"
    path = tmp_path / "g.graph"
    path.write_text(text)
    code, out = run_cli("reduce", str(path))
    assert code == 0
    assert "zb 3" in out.splitlines()


def test_kernel_output(fig1_files):
    graph, _ = fig1_files
    code, out = run_cli("kernel", "-m", "0,1,2,3", str(graph))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p flowmon 5 8"
    assert sum(l.startswith("K ") for l in lines) == 8


def test_no_command_builds_edge_records(tmp_path, monkeypatch):
    # parsing fills a graph's columns, every pass reads them, and the
    # EdgeRecord view is never built; the graphs kernel and reduce
    # return are only printed, so they never get an adjacency either
    g = generators.gen_random(30, 45, seed=4, weight_lo=1, weight_hi=9)
    path = tmp_path / "g.graph"
    path.write_text(format_graph(g))
    readings = tmp_path / "g.readings"
    readings.write_text(format_readings(measure(random_circulation(g, seed=1), [0, 5, 9])))
    clique = format_graph(generators.random_connected_multigraph(8, 13, seed=2, simple=True))

    def refuse(*columns):
        raise AssertionError("edge records built")

    monkeypatch.setattr(graph_mod, "edge_records", refuse)
    runs = [["solve", "--algo", algo, "-k", "3"] for algo in ("greedy1", "greedy2", "exact")]
    runs += [["reduce"], ["infer", "-m", "0,5,9", "-r", str(readings)], ["kernel", "-m", "0,5,9"]]
    runs += [["exact", "-k", "2"]]
    for argv in runs:
        assert run_cli(*argv, str(path))[0] == 0
    hardness.decide_flow_monitors(hardness.reduce_clique(hardness.CliqueInstance(parse_graph(clique), 4)))
    assert kernel_graph(parse_graph(path.read_text()), [0, 5, 9]).graph._adjacency is None
    assert preprocess(parse_graph(path.read_text()))[0]._adjacency is None


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p flowmon 2 1\ne 0 9 1\n")
    code, _ = run_cli("solve", "--algo", "greedy1", "-k", "1", str(bad))
    assert code == 2


def test_non_integer_endpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p flowmon 2 1\ne x 1 1\n")
    code, out = run_cli("solve", "--algo", "greedy1", "-k", "1", str(bad))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: line 2: non-integer endpoint\n"


def test_size_guard_exit_code(tmp_path):
    path = tmp_path / "big.graph"
    run_cli("gen", "ladder", "-n", "30", "-o", str(path))
    code, _ = run_cli("exact", "-k", "9", str(path))
    assert code == 3


def test_greedy1_budget_refusal_exit_code(tmp_path, monkeypatch, capsys):
    # refused at the same step, with the same text, as the list-step
    # reference of the batch loop
    monkeypatch.setattr(solvers, "GREEDY_DEFAULT_BUDGET", 1200)
    path = tmp_path / "circ.graph"
    path.write_text(format_graph(generators.gen_circulant(250)))
    argv = ("solve", "--algo", "greedy1", "-k", "125", str(path))
    assert run_cli(*argv) == (3, "")
    err = capsys.readouterr().err
    assert "step 3 needs 498 candidate evaluations; budget 1200 exhausted" in err
    monkeypatch.setattr(solvers, "_batches", oracles.batches_by_lists)
    assert run_cli(*argv) == (3, "")
    assert capsys.readouterr().err == err


def test_validation_error_exit_code(tmp_path):
    code, _ = run_cli("gen", "greedy1-tight", "-k", "2")
    assert code == 2


def test_hardness_tables():
    code, out = run_cli("hardness", "--lemma1", "--max-n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "OVERALL PASS"
    code, out = run_cli("hardness", "--verify-star", "--max-n", "4")
    assert code == 0
    assert out.startswith("STAR canonical n=4 ") and " checks=0 " not in out
    # random instances still run when --max-n leaves no canonical graph
    # with a check, and no line reports the 3-vertex graphs, which have none
    for max_n in ("2", "3"):
        code, out = run_cli("hardness", "--verify-star", "--max-n", max_n, "--random-instances", "5")
        assert code == 0
        assert out.splitlines() == [
            "STAR random n in [7, 8] instances=5 checks=11 mismatches=0 PASS",
            "OVERALL PASS",
        ]


def test_deterministic_output_across_runs(tmp_path):
    graph = tmp_path / "r.graph"
    first = run_cli("gen", "random", "-n", "8", "-m", "12", "--seed", "7",
                    "--weights", "1:5", "-o", str(graph))
    second_graph = tmp_path / "r2.graph"
    run_cli("gen", "random", "-n", "8", "-m", "12", "--seed", "7",
            "--weights", "1:5", "-o", str(second_graph))
    assert graph.read_text() == second_graph.read_text()
    runs = [
        run_cli("solve", "--algo", "greedy2", "-k", "3", "--trace", str(graph))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv",
    [("solve", "--algo", "greedy1", "-k", "1"), ("reduce",), ("infer", "-m", "0", "-r", "READINGS")],
)
def test_total_weight_overflow_exits_2(tmp_path, capsys, argv):
    graph = tmp_path / "heavy.graph"
    graph.write_text("p flowmon 2 3\n" + "e 0 1 9000000000000\n" * 3)
    readings = tmp_path / "heavy.readings"
    readings.write_text("r 0 1\n")
    argv = [str(readings) if a == "READINGS" else a for a in argv]
    code, out = run_cli(*argv, str(graph))
    assert code == 2 and out == ""
    assert "line 3: total weight exceeds" in capsys.readouterr().err


def test_hardness_rejects_max_n_below_one(capsys):
    code, _ = run_cli("hardness", "--lemma1", "--max-n", "0")
    assert code == 2
    assert "--max-n must be at least 1" in capsys.readouterr().err


def test_solve_exact_trace_prints_no_step_lines(fig1_files):
    graph, _ = fig1_files
    code, out = run_cli("solve", "--algo", "exact", "-k", "2", "--trace", str(graph))
    assert code == 0
    assert out.splitlines()[-1].startswith("GAIN ")
    assert not [l for l in out.splitlines() if l.startswith("T ")]


def test_vertex_count_over_limit_exits_2(tmp_path, capsys, monkeypatch):
    def no_graph(*args):
        raise AssertionError("Graph built for an over-limit header")

    monkeypatch.setattr(textio, "Graph", no_graph)
    graph = tmp_path / "huge.graph"
    graph.write_text(f"c huge\np flowmon {textio.MAX_VERTICES + 1} 0\n")
    code, out = run_cli("solve", "--algo", "greedy1", "-k", "1", str(graph))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "line 2: vertex count" in err and f"limit {textio.MAX_VERTICES}" in err


def test_hardness_lemma1_size_guard(capsys, monkeypatch):
    def no_check(n, s):
        raise AssertionError("lemma1_check ran past the size guard")

    monkeypatch.setattr(cli, "lemma1_check", no_check)
    for max_n in ("41", str(10**9)):
        code, out = run_cli("hardness", "--lemma1", "--max-n", max_n)
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err == f"error: --lemma1 --max-n {max_n} exceeds the limit {hardness.LEMMA1_MAX_N}\n"
    # 40 is the limit
    monkeypatch.setattr(cli, "lemma1_check", lambda n, s: True)
    code, out = run_cli("hardness", "--lemma1", "--max-n", "40")
    assert code == 0 and out.splitlines()[-1] == "OVERALL PASS"


def test_hardness_lemma1_runs_past_the_composition_count():
    # 2^23 - 1 compositions, but only 5,006 partitions to enumerate
    code, out = run_cli("hardness", "--lemma1", "--max-n", "23")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 23 * 24 // 2 + 1 and lines[-1] == "OVERALL PASS"


def test_non_utf8_graph_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_bytes(b"\xff\xfe")
    code, out = run_cli("reduce", str(graph))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot read {graph}: ")


def test_non_utf8_readings_exit_2(fig1_files, tmp_path, capsys):
    graph, _ = fig1_files
    readings = tmp_path / "bad.readings"
    readings.write_bytes(b"r 0 \xff\n")
    code, out = run_cli("infer", "-m", "0", "-r", str(readings), str(graph))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot read {readings}: ")


@pytest.mark.parametrize(
    "argv, other_before",
    [
        (("reduce", "GRAPH", "-o", "OUT"), None),
        (("reduce", "GRAPH", "--map-out", "OUT"), None),
        (("solve", "GRAPH", "--algo", "greedy1", "-k", "1", "-o", "OUT"), None),
        (("gen", "fig1", "--readings-out", "OUT"), None),
        (("reduce", "GRAPH", "-o", "OTHER", "--map-out", "OUT"), None),
        (("reduce", "GRAPH", "-o", "OTHER", "--map-out", "OUT"), "kept\n"),
        (("gen", "fig1", "--readings-out", "OTHER", "-o", "OUT"), None),
        (("gen", "fig1", "--readings-out", "OTHER", "-o", "OUT"), "kept\n"),
    ],
    ids=["output", "map-out", "solve-output", "readings-out", "output-and-map-out",
         "output-and-map-out-kept", "readings-and-output", "readings-and-output-kept"],
)
def test_unwritable_output_exits_2(fig1_files, tmp_path, capsys, argv, other_before):
    # every output is opened before any is written: the other output is
    # neither created nor truncated, and nothing reaches stdout
    graph, _ = fig1_files
    target = tmp_path / "missing" / "out.txt"
    other = tmp_path / "other.txt"
    if other_before is not None:
        other.write_text(other_before)
    swap = {"GRAPH": str(graph), "OUT": str(target), "OTHER": str(other)}
    code, out = run_cli(*[swap.get(a, a) for a in argv])
    assert code == 2 and out == "" and not target.exists()
    assert (other.read_text() if other.exists() else None) == other_before
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_output_replaces_a_longer_file(tmp_path):
    target = tmp_path / "out.graph"
    target.write_text("c old\n" * 100)
    assert run_cli("gen", "fig1", "-o", str(target)) == (0, "")
    assert target.read_text() == run_cli("gen", "fig1")[1]


def test_output_to_dev_stdout(fig1_files, tmp_path):
    # -o /dev/stdout is a file the command opens, on a pipe here, which
    # cannot be truncated; the graph goes there and the map to stdout
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    graph, _ = fig1_files
    proc = run_module("reduce", str(graph), "-o", "/dev/stdout", capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli("reduce", str(graph))[1]


def test_output_to_dev_stdout_on_a_regular_file(fig1_files, tmp_path):
    # stdout is a regular file that already holds a line, as in
    # `{ echo c; flowmon reduce g -o /dev/stdout; } > f`: the graph must
    # follow that line, not truncate the file or write over it from
    # offset 0, and the map printed to stdout must follow the graph
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    graph, _ = fig1_files
    out = tmp_path / "stdout.txt"
    with open(out, "w", encoding="utf-8") as f:
        f.write("c before\n")
        f.flush()
        proc = run_module("reduce", str(graph), "-o", "/dev/stdout", stdout=f, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "c before\n" + run_cli("reduce", str(graph))[1]


def test_closed_stdout(fig1_files, tmp_path):
    # Python starts with sys.stdout None when descriptor 1 is closed: a
    # command that prints nothing runs, one that would print is refused
    # before it opens a file, and the first file opened takes descriptor
    # 1 without being taken for stdout
    graph, _ = fig1_files
    out, map_out = tmp_path / "out.graph", tmp_path / "out.map"

    def closed(*argv):
        proc = run_module(*argv, close_stdout=True, stderr=subprocess.PIPE)
        return proc.returncode, proc.stderr

    assert closed("gen", "fig1", "-o", str(out)) == (0, "")
    assert out.read_text() == run_cli("gen", "fig1")[1]
    out.unlink()
    assert closed("reduce", str(graph), "-o", str(out)) == (2, "error: cannot write to stdout: it is closed\n")
    assert not out.exists()
    assert closed("reduce", str(graph), "-o", str(out), "--map-out", str(map_out)) == (0, "")
    code, reduced = run_cli("reduce", str(graph), "--map-out", str(tmp_path / "expected.map"))
    assert code == 0 and out.read_text() == reduced
    assert map_out.read_text() == (tmp_path / "expected.map").read_text()


@pytest.mark.parametrize(
    "argv, before",
    [
        (("reduce", "GRAPH", "-o", "X", "--map-out", "X"), None),
        (("reduce", "GRAPH", "-o", "X", "--map-out", "./X"), None),
        (("reduce", "GRAPH", "-o", "X", "--map-out", "./X"), "kept\n"),
        (("gen", "fig1", "-o", "X", "--readings-out", "./X"), None),
        (("gen", "fig1", "-o", "X", "--readings-out", "./X"), "kept\n"),
        (("gen", "fig1", "-o", "LINK", "--readings-out", "X"), "kept\n"),
    ],
    ids=["same-path", "dot-path", "dot-path-kept", "gen-dot-path", "gen-dot-path-kept", "gen-symlink-kept"],
)
def test_two_outputs_naming_one_file_exit_2(fig1_files, tmp_path, monkeypatch, capsys, argv, before):
    # two outputs opening one regular file would leave only the second
    # text there: refused before anything is written, a file this run
    # created is removed and an existing one keeps its bytes
    graph, _ = fig1_files
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "X"
    if before is not None:
        target.write_text(before)
    (tmp_path / "LINK").symlink_to(target)
    code, out = run_cli(*[str(graph) if a == "GRAPH" else a for a in argv])
    assert code == 2 and out == ""
    assert (target.read_text() if target.exists() else None) == before
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.endswith(": another output names the same file\n")


def test_two_outputs_to_dev_null(fig1_files):
    # /dev/null is not a regular file: both outputs may name it
    if not os.path.exists("/dev/null"):
        pytest.skip("no /dev/null")
    graph, _ = fig1_files
    assert run_cli("reduce", str(graph), "-o", "/dev/null", "--map-out", "/dev/null") == (0, "")


# one run of every subcommand, and the exit codes 4 (infer) and 1
# (hardness) that still write their output: GRAPH, READINGS, BAD (every
# edge of GRAPH read, 5 on edge 0 and 0 on the rest, which no circulation
# gives) and SIDE (a second output file) name files
OUTPUT_RUNS = {
    "gen": ["gen", "fig1", "--readings-out", "SIDE"],
    "reduce": ["reduce", "GRAPH", "--map-out", "SIDE"],
    "solve": ["solve", "--algo", "greedy2", "-k", "3", "--trace", "GRAPH"],
    "exact": ["exact", "-k", "3", "GRAPH"],
    "infer": ["infer", "-m", "0,1,2,3", "-r", "READINGS", "GRAPH"],
    "infer-inconsistent": ["infer", "-m", ",".join(map(str, range(12))), "-r", "BAD", "GRAPH"],
    "kernel": ["kernel", "-m", "0,1,2,3", "GRAPH"],
    "hardness-lemma1": ["hardness", "--lemma1", "--max-n", "4"],
    "hardness-fail": ["hardness", "--lemma1", "--max-n", "4"],
}
OUTPUT_CODES = {"infer-inconsistent": 4, "hardness-fail": 1}


def output_run(name, fig1_files, tmp_path, monkeypatch) -> list[str]:
    """OUTPUT_RUNS[name] with its files named; hardness-fail fails lemma1
    on n = 3."""
    graph, readings = fig1_files
    bad = tmp_path / "bad.readings"
    bad.write_text("r 0 5\n" + "".join(f"r {e} 0\n" for e in range(1, 12)))
    if name == "hardness-fail":
        monkeypatch.setattr(cli, "lemma1_check", lambda n, s: n != 3)
    files = {"GRAPH": graph, "READINGS": readings, "BAD": bad, "SIDE": tmp_path / "side.txt"}
    return [str(files.get(a, a)) for a in OUTPUT_RUNS[name]]


@pytest.mark.parametrize("name", OUTPUT_RUNS)
def test_output_file_holds_what_stdout_gets(fig1_files, tmp_path, monkeypatch, name):
    argv = output_run(name, fig1_files, tmp_path, monkeypatch)
    side = tmp_path / "side.txt"
    code, printed = run_cli(*argv)
    assert code == OUTPUT_CODES.get(name, 0) and printed
    side_printed = side.read_bytes() if side.exists() else None
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "-o", str(out)) == (code, "")
    assert out.read_bytes() == printed.encode()
    assert (side.read_bytes() if side.exists() else None) == side_printed


def count_writes(monkeypatch) -> list:
    """Patch cli._write_outputs to record the outputs of each call."""
    calls = []
    write = cli._write_outputs
    monkeypatch.setattr(cli, "_write_outputs", lambda outputs: calls.append(outputs) or write(outputs))
    return calls


@pytest.mark.parametrize("name", OUTPUT_RUNS)
def test_main_writes_every_output_in_one_call(fig1_files, tmp_path, monkeypatch, name):
    calls = count_writes(monkeypatch)
    argv = output_run(name, fig1_files, tmp_path, monkeypatch)
    assert run_cli(*argv)[0] == OUTPUT_CODES.get(name, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["reduce", "EMPTY"],
    ["exact", "-k", "0", "GRAPH"],
    ["exact", "GRAPH"],
], ids=["parse-error", "exact-k-0", "usage"])
def test_a_refused_run_never_writes(fig1_files, tmp_path, monkeypatch, capsys, argv):
    calls = count_writes(monkeypatch)
    (tmp_path / "empty.graph").write_text("")
    files = {"GRAPH": str(fig1_files[0]), "EMPTY": str(tmp_path / "empty.graph")}
    assert run_cli(*[files.get(a, a) for a in argv]) == (2, "")
    assert calls == []


def test_hardness_rejects_negative_random_instances(capsys):
    code, out = run_cli("hardness", "--verify-star", "--random-instances", "-2")
    assert code == 2 and out == ""
    assert "--random-instances must be non-negative" in capsys.readouterr().err


def test_gen_readings_out_needs_fig1(tmp_path, capsys):
    graph, readings = tmp_path / "c.graph", tmp_path / "c.readings"
    code, out = run_cli("gen", "cycle", "-n", "4", "--readings-out", str(readings), "-o", str(graph))
    assert code == 2 and out == ""
    assert not graph.exists() and not readings.exists()
    assert capsys.readouterr().err == "error: --readings-out needs family fig1\n"


def seeded_cli_runs(count: int, seed: int) -> list[list[str]]:
    """Write `count` seeded multigraphs (loops, parallels, fractional
    weights) and monitor readings to the working directory, and return
    the CLI runs over them: reduce with a map, solve --trace with every
    solver at k 1-3, exact, infer (some readings perturbed) and kernel."""
    rng = random.Random(seed)
    runs = []
    for i in range(count):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            base = generators.random_connected_multigraph(n, rng.randint(n - 1, n + 6), rng.randrange(10**6))
        else:
            base = generators.gen_random(n, rng.randint(0, 12), rng.randrange(10**6))
        g = Graph.build(n, [(e.u, e.v, f"{rng.randint(0, 3)}.{rng.randrange(1000):03d}") for e in base.edges])
        name = f"g{i}.graph"
        Path(name).write_text(format_graph(g))
        mon = sorted(rng.sample(range(len(g.edges)), min(len(g.edges), rng.randint(1, 3))))
        readings = measure(random_circulation(g, seed=i), mon)
        if mon and rng.random() < 0.2:
            readings[mon[0]] += 1
        Path(f"g{i}.readings").write_text(format_readings(readings))
        ids = ",".join(map(str, mon))
        runs.append(["reduce", name, "--map-out", f"g{i}.map"])
        for algo in ("greedy1", "greedy2", "greedy:3", "exact"):
            for k in ("1", "2", "3"):
                runs.append(["solve", "--algo", algo, "-k", k, "--trace", name])
        runs.append(["exact", "-k", str(rng.randint(1, 3)), name])
        runs.append(["infer", "-m", ids, "-r", f"g{i}.readings", name])
        runs.append(["kernel", "-m", ids, name])
    return runs


def cli_digest(runs: list[list[str]]) -> str:
    """SHA-256 over each run's argv, exit code, stdout and stderr, and the
    reduction map a reduce run writes."""
    h = hashlib.sha256()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        if "--map-out" in argv:
            h.update(Path(argv[-1]).read_bytes())
    return h.hexdigest()


# the CLI output must stay byte-identical: a new digest here is a
# behaviour change, to be logged with its reason
PINNED_CLI_DIGEST = "163721079327264b1ce2961a50742246eeb507d3e52d1db0b1e764c2b7becbb2"


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digest(seeded_cli_runs(200, seed=0)) == PINNED_CLI_DIGEST


@pytest.mark.parametrize("extra", [(), ("--lemma1",)])
def test_hardness_verify_star_refuses_an_empty_check(capsys, extra):
    # below 3 vertices there is no canonical graph, and on 3 vertices the
    # only clique size leaves l = 0, so the star check would pass having
    # checked nothing
    for max_n in ("2", "3"):
        code, out = run_cli("hardness", "--verify-star", "--max-n", max_n, *extra)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: --verify-star finds its first check on 4 vertices; --max-n {max_n}"
            " leaves none (raise --max-n or add --random-instances)\n"
        )


@pytest.mark.parametrize("option", ["--random-instances", "--seed"])
@pytest.mark.parametrize("value", ["0", "9"])
def test_hardness_refuses_star_options_without_verify_star(tmp_path, capsys, option, value):
    # only --verify-star reads them, so a run must not silently drop them
    target = tmp_path / "out.txt"
    code, out = run_cli("hardness", "--lemma1", "--max-n", "3", option, value, "-o", str(target))
    assert (code, out) == (2, "") and not target.exists()
    assert capsys.readouterr().err == f"error: {option} needs --verify-star\n"


def test_hardness_star_seed_defaults_to_zero():
    star = ("hardness", "--verify-star", "--max-n", "2", "--random-instances", "5")
    assert run_cli(*star) == run_cli(*star, "--seed", "0")
    assert run_cli(*star) != run_cli(*star, "--seed", "9")


def test_gen_refuses_a_total_weight_the_parser_refuses(tmp_path, capsys):
    graph = tmp_path / "heavy.graph"
    code, out = run_cli("gen", "random", "-n", "5", "-m", "10",
                        "--weights", "1000000000000:1000000000000", "-o", str(graph))
    assert code == 2 and out == "" and not graph.exists()
    assert "weight exceeds" in capsys.readouterr().err


def test_whole_parts_past_the_int_digit_limit_exit_2(tmp_path, capsys):
    graph = tmp_path / "big.graph"
    graph.write_text(f"p flowmon 2 1\ne 0 1 {'1' * 5000}\n")
    assert run_cli("kernel", "-m", "0", str(graph)) == (2, "")
    assert capsys.readouterr().err == f"error: line 2: weight exceeds {MAX_MICROS} millionths\n"
    out = tmp_path / "tight.graph"
    code, stdout = run_cli("gen", "greedy1-tight", "-k", "3", "--epsilon", "7" * 5000, "-o", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert capsys.readouterr().err == f"error: weight exceeds {MAX_MICROS} millionths\n"
    graph.write_text(f"p flowmon 2 1\ne 0 1 {'0' * 5000}1.5\n")
    code, stdout = run_cli("kernel", "-m", "0", str(graph))
    assert code == 0 and stdout.startswith("p flowmon 2 1\ne 0 1 1.5\n")


def test_gen_refuses_a_vertex_count_the_parser_refuses(tmp_path, capsys):
    graph = tmp_path / "wide.graph"
    for argv in (["random", "-n", str(textio.MAX_VERTICES + 1), "-m", "1"],
                 ["greedy2-tight", "-k", "1000000000"]):
        code, out = run_cli("gen", *argv, "-o", str(graph))
        assert code == 2 and out == "" and not graph.exists()
        assert "exceeds the limit" in capsys.readouterr().err


def test_solve_refuses_k_below_one_on_an_empty_graph(tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("p flowmon 3 0\n")
    for algo in ("greedy1", "greedy2", "exact"):
        assert run_cli("solve", str(path), "--algo", algo, "-k", "0")[0] == 2
        assert run_cli("solve", str(path), "--algo", algo, "-k", "1") == (0, "GAIN 0\n")


@pytest.mark.parametrize("algo", ["greedy:0", "greedy:-2"])
@pytest.mark.parametrize("k", ["1", "3", "5"])
def test_solve_refuses_sigma_below_one_for_every_k(tmp_path, capsys, algo, k):
    # a triangle: k = 3 and k = 5 reach the k >= m answer without a solver
    path = tmp_path / "t.graph"
    path.write_text("p flowmon 3 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\n")
    assert run_cli("solve", str(path), "--algo", algo, "-k", k) == (2, "")
    assert "batch size sigma must be at least 1" in capsys.readouterr().err


def test_gen_writes_no_readings_for_an_overweight_graph(tmp_path, monkeypatch, capsys):
    # the generator's own Graph.build refuses the graph, before gen writes
    def heavy_fig1():
        heavy = Graph.build(2, [(0, 1, 9_000_000_000_000)] * 2)
        return heavy, frozenset({0}), {0: 1}

    monkeypatch.setattr(generators, "gen_fig1", heavy_fig1)
    graph, readings = tmp_path / "f.graph", tmp_path / "f.readings"
    code, out = run_cli("gen", "fig1", "-o", str(graph), "--readings-out", str(readings))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: weight exceeds {MAX_MICROS} millionths\n"
    assert not graph.exists() and not readings.exists()


def test_bench_is_not_a_subcommand(capsys):
    assert run_cli("bench") == (2, "")
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--algo", "greedy1", "g.graph"], "the following arguments are required: -k"),
    (["solve", "--algo", "greedy1", "-k", "x", "g.graph"], "argument -k: invalid int value: 'x'"),
    (["infer", "-m", "0", "g.graph"], "the following arguments are required: -r/--readings"),
    (["hardness"], "error: choose --verify-star and/or --lemma1\n"),
    (["solve", "--algo", "nosuch", "-k", "1", "GRAPH"], "error: unknown solver 'nosuch'\n"),
    (["solve", "--algo", "greedy:x", "-k", "1", "GRAPH"], "error: bad solver name 'greedy:x'\n"),
    (["exact", "-k", "0", "GRAPH"], "error: monitor budget k must be at least 1\n"),
    (["exact", "-k", "-1", "GRAPH"], "error: monitor budget k must be at least 1\n"),
    (["kernel", "-m=-1", "GRAPH"], "error: negative edge id -1 in list\n"),
])
def test_main_returns_the_usage_exit_code(fig1_files, capsys, argv, message):
    graph, _ = fig1_files
    assert run_cli(*[str(graph) if a == "GRAPH" else a for a in argv]) == (2, "")
    assert message in capsys.readouterr().err


def test_main_returns_0_after_help():
    code, out = run_cli("solve", "--help")
    assert code == 0 and out.startswith("usage: flowmon solve")


@pytest.mark.parametrize("argv, message", [
    (["cycle", "-n", "4", "--weights", "3:1"], "error: --weights needs family random\n"),
    (["fig1", "--weights", "2"], "error: --weights needs family random\n"),
    (["random", "-n", "4", "-m", "5", "--weights", "5:"],
     "error: bad weight range '5:'; expected LO:HI\n"),
    (["random", "-n", "3", "-m", "2", "--weights", "5:1"], "error: need 0 <= weight_lo <= weight_hi\n"),
])
def test_gen_refuses_weights_it_would_not_use(tmp_path, capsys, argv, message):
    graph = tmp_path / "w.graph"
    assert run_cli("gen", *argv, "-o", str(graph)) == (2, "")
    assert not graph.exists()
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("family", ["greedy1-tight", "greedy2-tight"])
def test_gen_refuses_a_zero_epsilon(tmp_path, capsys, family):
    graph = tmp_path / "t.graph"
    assert run_cli("gen", family, "-k", "5", "--epsilon", "0", "-o", str(graph)) == (2, "")
    assert not graph.exists()
    assert capsys.readouterr().err == "error: epsilon must be positive\n"


def test_gen_refuses_a_negative_min_degree(tmp_path, capsys):
    graph = tmp_path / "r.graph"
    code, out = run_cli("gen", "random", "-n", "5", "-m", "4", "--min-degree", "-3", "-o", str(graph))
    assert code == 2 and out == "" and not graph.exists()
    assert capsys.readouterr().err == "error: min_degree must be non-negative\n"


def test_docstring_lists_the_parser_subcommands():
    line = next(l for l in cli.__doc__.splitlines() if l.startswith("Subcommands:"))
    listed = line.removeprefix("Subcommands:").rstrip(".").split(",")
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [s.strip() for s in listed] == list(subparsers.choices)


# every family option of gen, with a value that the families reading it
# refuse wherever there is one: an option a family does not read is
# refused for itself, not for its value
_GEN_UNREAD = {"-k": "1", "-n": "0", "-m": "-1", "--seed": "-1", "--epsilon": "0",
               "--min-degree": "-1", "--simple": None, "--weights": "5:1", "--readings-out": "R"}
_GEN_READERS = {"-k": "greedy1-tight or greedy2-tight", "--epsilon": "greedy1-tight or greedy2-tight",
                "--readings-out": "fig1", "-n": "cycle or ladder or random", "-m": "random",
                "--seed": "random", "--min-degree": "random", "--simple": "random", "--weights": "random"}
# each family with every option it reads
_GEN_FULL = {
    "greedy1-tight": ["-k", "4", "--epsilon", "0.5"],
    "greedy2-tight": ["-k", "4", "--epsilon", "0.5"],
    "fig1": ["--readings-out", "R"],
    "cycle": ["-n", "4"],
    "ladder": ["-n", "6"],
    "random": ["-n", "5", "-m", "4", "--seed", "3", "--min-degree", "1", "--simple", "--weights", "1:2"],
}


@pytest.mark.parametrize("family", cli.GEN_FAMILIES)
def test_gen_refuses_each_option_its_family_does_not_read(tmp_path, monkeypatch, capsys, family):
    monkeypatch.chdir(tmp_path)
    full = _GEN_FULL[family]
    for option, value in _GEN_UNREAD.items():
        if option in full:
            continue
        argv = ["gen", family, *full, option, *([value] if value else []), "-o", "g.graph"]
        assert run_cli(*argv) == (2, "")
        assert not Path("g.graph").exists() and not Path("R").exists()
        assert capsys.readouterr().err == f"error: {option} needs family {_GEN_READERS[option]}\n"
    assert run_cli("gen", family, *full, "-o", "g.graph") == (0, "")
    assert parse_graph(Path("g.graph").read_text()).vertex_count > 0


# each family with its needed options only and with every option it
# reads, and the graph its generator builds from them
_GEN_BUILDS = {
    "greedy1-tight": [(["-k", "5"], lambda: generators.gen_greedy1_tight(5)),
                      (_GEN_FULL["greedy1-tight"], lambda: generators.gen_greedy1_tight(4, Weight.parse("0.5")))],
    "greedy2-tight": [(["-k", "5"], lambda: generators.gen_greedy2_tight(5)),
                      (_GEN_FULL["greedy2-tight"], lambda: generators.gen_greedy2_tight(4, Weight.parse("0.5")))],
    "fig1": [([], lambda: generators.gen_fig1()[0]), (_GEN_FULL["fig1"], lambda: generators.gen_fig1()[0])],
    "cycle": [(["-n", "5"], lambda: generators.gen_cycle(5))],
    "ladder": [(["-n", "8"], lambda: generators.gen_ladder(8))],
    "random": [(["-n", "5", "-m", "7"], lambda: generators.gen_random(5, 7)),
               (_GEN_FULL["random"], lambda: generators.gen_random(5, 4, seed=3, min_degree=1, simple=True,
                                                                  weight_lo=1, weight_hi=2))],
}


@pytest.mark.parametrize("family", cli.GEN_FAMILIES)
def test_gen_writes_what_its_generator_builds(tmp_path, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    for argv, build in _GEN_BUILDS[family]:
        assert run_cli("gen", family, *argv) == (0, format_graph(build()))
    if family == "fig1":
        assert Path("R").read_text() == format_readings(generators.gen_fig1()[2])


@pytest.mark.parametrize("family, argv, missing", [
    ("greedy1-tight", [], "k"),
    # the tight generators refuse epsilon 0, but the missing -k comes first
    ("greedy2-tight", ["--epsilon", "0"], "k"),
    ("cycle", [], "n"),
    ("ladder", [], "n"),
    ("random", [], "n"),
    ("random", ["-m", "3"], "n"),
    ("random", ["-n", "3"], "m"),
])
def test_gen_reports_a_missing_needed_option(tmp_path, capsys, family, argv, missing):
    graph = tmp_path / "g.graph"
    assert run_cli("gen", family, *argv, "-o", str(graph)) == (2, "")
    assert not graph.exists()
    assert capsys.readouterr().err == f"error: family '{family}' needs parameter '{missing}'\n"


LIMIT = textio.MAX_VERTICES
# the last command the vertex guard lets through, the first it refuses,
# and that one's vertex count: the tight families have 2k vertices
_GEN_GUARD = {
    "greedy1-tight": (["-k", str(LIMIT // 2)], ["-k", str(LIMIT // 2 + 1)], LIMIT + 2),
    "greedy2-tight": (["-k", str(LIMIT // 2)], ["-k", str(LIMIT // 2 + 1)], LIMIT + 2),
    "random": (["-n", str(LIMIT), "-m", "1"], ["-n", str(LIMIT + 1), "-m", "1"], LIMIT + 1),
    "cycle": (["-n", str(LIMIT)], ["-n", str(LIMIT + 1)], LIMIT + 1),
    "ladder": (["-n", str(LIMIT)], ["-n", str(LIMIT + 1)], LIMIT + 1),
}


@pytest.mark.parametrize("family", _GEN_GUARD)
def test_gen_vertex_guard_stops_one_past_the_parser_limit(tmp_path, monkeypatch, capsys, family):
    # the generator is replaced, so the command at the limit builds a
    # triangle instead of a million-vertex graph
    calls = []
    triangle = generators.gen_cycle(3)
    monkeypatch.setattr(generators, cli.GEN_FAMILIES[family][0], lambda **kw: calls.append(kw) or triangle)
    at_limit, past, vertices = _GEN_GUARD[family]
    graph = tmp_path / "g.graph"
    assert run_cli("gen", family, *at_limit, "-o", str(graph)) == (0, "")
    assert graph.read_text() == format_graph(triangle)
    assert calls == [{o.lstrip("-"): int(v) for o, v in zip(at_limit[::2], at_limit[1::2])}]
    graph.unlink()
    assert run_cli("gen", family, *past, "-o", str(graph)) == (2, "")
    assert not graph.exists() and len(calls) == 1
    assert capsys.readouterr().err == f"error: vertex count {vertices} exceeds the limit {LIMIT}\n"


def test_gen_edge_guard_refuses_before_drawing(tmp_path, monkeypatch, capsys):
    # the generator is replaced, so the command at the limit builds a
    # triangle instead of two million edges
    calls = []
    triangle = generators.gen_cycle(3)
    monkeypatch.setattr(generators, "gen_random", lambda **kw: calls.append(kw) or triangle)
    graph = tmp_path / "g.graph"
    limit = cli.MAX_EDGES
    assert run_cli("gen", "random", "-n", "2", "-m", str(limit), "-o", str(graph)) == (0, "")
    assert calls == [{"n": 2, "m": limit}]
    graph.unlink()
    assert run_cli("gen", "random", "-n", "2", "-m", str(limit + 1), "-o", str(graph)) == (2, "")
    assert not graph.exists() and len(calls) == 1
    assert capsys.readouterr().err == f"error: edge count {limit + 1} exceeds the limit {limit}\n"


@pytest.mark.parametrize("simple", [[], ["--simple"]])
def test_gen_min_degree_repair_stays_under_the_edge_guard(tmp_path, monkeypatch, capsys, simple):
    # the repair adds edges beyond -m: with the limit at the edge count
    # the run needs it writes the same graph, one lower it is refused
    # before the edge past it is added, and no file is left
    argv = ["gen", "random", "-n", "30", "-m", "5", "--min-degree", "2", *simple]
    code, text = run_cli(*argv)
    edges = len(parse_graph(text).edges)
    assert code == 0 and edges > 5
    graph = tmp_path / "g.graph"
    monkeypatch.setattr(generators, "MAX_EDGES", edges)
    assert run_cli(*argv, "-o", str(graph)) == (0, "")
    assert graph.read_text() == text
    graph.unlink()
    monkeypatch.setattr(generators, "MAX_EDGES", edges - 1)
    assert run_cli(*argv, "-o", str(graph)) == (2, "")
    assert not graph.exists()
    err = capsys.readouterr().err
    assert err == f"error: min_degree needs more than {edges - 1} edges\n"


def test_gen_refuses_an_empty_readings_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli("gen", "fig1", "--readings-out", "", "-o", "g.graph")
    assert (code, out) == (2, "") and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == "error: --readings-out needs a file name\n"


def test_gen_builds_a_graph_at_the_parser_limit():
    code, out = run_cli("gen", "random", "-n", str(LIMIT), "-m", "0")
    assert (code, out) == (0, f"p flowmon {LIMIT} 0\n")


# for each gen option: small values a family reads, values it refuses,
# and values past the vertex guard, which refuses them before building
_GEN_VALUES = {
    "-k": (["4", "5"], ["3", "-2"], [str(LIMIT // 2 + 1)]),
    "-n": (["1", "4", "6", "8"], ["0", "-1", "5"], [str(LIMIT + 1)]),
    "-m": (["0", "3", "7"], ["-1"], [str(cli.MAX_EDGES + 1)]),
    "--seed": (["0", "7", "-3"], [], []),
    "--epsilon": (["0.5", "0.000001"], ["0", "-1", "x", "7" * 30], []),
    "--min-degree": (["0", "1", "2"], ["-1", "9"], []),
    "--simple": ([None], [], []),
    "--weights": (["1:5", "2", "0:0"], ["5:1", "5:", "x", "3000000000000"], []),
    "--readings-out": (["R"], [""], []),
}


@st.composite
def gen_command_lines(draw):
    """A family with most of its own options and at times one more
    option of the table; a value is valid three times in four."""
    family = draw(st.sampled_from(list(cli.GEN_FAMILIES)))
    _, needs, takes = cli.GEN_FAMILIES[family]
    options = [o for o in needs + takes if draw(st.integers(0, 4))]
    options += draw(st.lists(st.sampled_from(list(_GEN_VALUES)), max_size=1))
    argv = ["gen", family]
    for option in draw(st.permutations(list(dict.fromkeys(options)))):
        valid, refused, past = _GEN_VALUES[option]
        bad = refused + past
        value = draw(st.sampled_from(bad if bad and not draw(st.integers(0, 3)) else valid))
        argv += [option] if value is None else [option, value]
    return argv + ["-o", "g.graph"]


def test_gen_contract_draws_every_option_of_the_table():
    assert set(_GEN_VALUES) == {o for _, needs, takes in cli.GEN_FAMILIES.values() for o in needs + takes}


@given(gen_command_lines())
def test_gen_contract(argv):
    # every gen command line drawn from the table's options ends in a
    # documented exit code without a traceback, a refused one writes no
    # file, and the same command writes the same bytes twice
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(Path(tmp, a)) if a in ("g.graph", "R") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(paths)
            written = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
            runs.append((code, out.getvalue(), err.getvalue(), written))
    code, out, err, written = runs[0]
    assert code in (0, 2, 3) and out == "" and "Traceback" not in err
    if code:
        assert written == {} and err.startswith("error: ")
    else:
        assert set(written) == {"g.graph", *(["R"] if "--readings-out" in argv else [])}
        parse_graph(written["g.graph"].decode())
    assert runs[0] == runs[1]


def _readme_cli_lines() -> list[list[list[str]]]:
    """The README CLI block as argv lists, one list per line: a pipe
    gives two argvs, the second reading the first's output."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("check_readme_cli", root / "scripts" / "check_readme_cli.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = script.cli_block((root / "README.md").read_text(encoding="utf-8"))
    return [
        [shlex.split(script.COMMAND.sub("", part.strip())) for part in line.partition("#")[0].split("|")]
        for line in lines
    ]


def test_readme_commands_leave_no_reference_cycles(tmp_path, monkeypatch):
    # cli.main pauses the cyclic collector while a subcommand runs, on the
    # premise that a subcommand leaves nothing for it to free; building
    # the parser does leave cycles, so it is built first
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        for line in lines:
            for argv in line:
                argv = ["piped" if a == "/dev/stdin" else a for a in argv]
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    main(argv)
                Path("piped").write_text(out.getvalue())
                assert (argv, gc.collect()) == (argv, 0)
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["gen", "cycle", "-n", "3"], 0),
    (["gen", "cycle", "-n", "0"], 2),
    (["gen", "nosuch"], 2),
], ids=["ok", "flowmon-error", "usage"])
def test_main_pauses_gc_and_restores_the_callers_setting(monkeypatch, capsys, enabled, argv, code):
    seen = []
    build = generators.gen_cycle
    monkeypatch.setattr(generators, "gen_cycle", lambda n: seen.append(gc.isenabled()) or build(n))
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(*argv)[0] == code
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen == ([] if argv[1] == "nosuch" else [False])
