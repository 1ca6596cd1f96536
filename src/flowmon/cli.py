"""Command-line interface.

Subcommands: gen, reduce, solve, exact, infer, kernel, hardness.
Exit codes: 0 success, 1 verifier mismatch (hardness) or a broken
internal invariant (a plain FlowmonError), 2 parse/validation error
(including an unreadable or non-UTF-8 input file and an unwritable
output path), 3 size-guard refusal, 4 inconsistent measurements. All
output is line-oriented plain text and deterministic for fixed inputs
and seeds. main is the one I/O path: it reads and parses the graph a
command names and writes the outputs its handler returns (a handler
reads no file but infer's readings). It opens every output file before
it writes any and prints to stdout last, so a refused command writes no
file and no stdout; an -o naming stdout's own file goes through stdout,
and two outputs naming one regular file, or text for a stdout closed at
start-up, are refused (exit 2).

One table, GEN_FAMILIES, holds what gen knows of its families: each
family's generator, by name, and the options it needs and may also
take. The parser's family choices and option help come from it, and
gen refuses an option its family does not read, reports a needed one
that is missing, applies the vertex and edge guards and calls the
generator with one keyword per option given, so an option left out
takes the generator's default.

main pauses the cyclic garbage collector while a subcommand runs and
restores the caller's setting afterwards. The premise: a subcommand
leaves no reference cycles, so reference counting frees everything it
builds and a collector pass inside it frees nothing (tests check this
for every command of the README's CLI block); yet at benchmark sizes
such passes cost milliseconds each. Building the parser and argparse's
own error exits do leave cycles, so they run outside the pause.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import stat
import sys
from pathlib import Path

from . import generators
from .errors import FlowmonError, ParseError, SizeGuardError, ValidationError
from .flowsim import infer
from .generators import MAX_EDGES
from .graph import Graph
from .hardness import LEMMA1_MAX_N, lemma1_check, verify_star_canonical, verify_star_random
from .kernel import kernel_graph
from .reduce import preprocess
from .solvers import Solution, exact, solve_pipeline
from .textio import (
    MAX_VERTICES,
    format_graph,
    format_readings,
    format_reduction_map,
    parse_edge_id_list,
    parse_graph,
    parse_readings,
)
from .weights import Weight


# a handler's exit code and its (path, text) outputs; main writes them
Run = tuple[int, list[tuple[str | None, str]]]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _names_stdout(fd: int) -> bool:
    """Whether fd, just opened, is a second descriptor on stdout's file.
    Never when stdout was closed at start-up: descriptor 1 is then free
    for the first file opened here."""
    try:
        return sys.stdout is not None and fd != 1 and os.path.sameopenfile(fd, 1)
    except OSError:  # descriptor 1 is closed
        return False


def _write_outputs(outputs: list[tuple[str | None, str]]) -> None:
    """Write each (path, text), to stdout when no path is given or the
    path opens stdout's own file (a second descriptor there would write
    at offset 0). Every file is opened, without truncating, before any
    is written, and stdout comes last, its texts in argument order: if a
    file cannot be opened or written, or two paths open one regular file
    (X and ./X, say), the files this run created are removed and stdout
    gets nothing. A file is truncated just before it is written, if it
    is a regular file. Text for a stdout closed at start-up (sys.stdout
    is None) is refused before any file is opened."""
    if sys.stdout is None and not all(path for path, _ in outputs):
        raise ValidationError("cannot write to stdout: it is closed")
    opened = []  # (path, created, descriptor, text) of each file opened so far
    printed = []  # the texts for stdout
    files = set()  # (st_dev, st_ino) of each file opened
    try:
        for path, text in outputs:
            if path:
                created = not os.path.lexists(path)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                if not _names_stdout(fd):
                    opened.append((path, created, fd, text))
                    st = os.fstat(fd)
                    if stat.S_ISREG(st.st_mode) and (st.st_dev, st.st_ino) in files:
                        raise OSError("another output names the same file")
                    files.add((st.st_dev, st.st_ino))
                    continue
                os.close(fd)
            printed.append(text)
        for path, _, fd, text in opened:
            with open(fd, "w", encoding="utf-8", closefd=False) as f:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    f.truncate()
                f.write(text)
    except OSError as exc:
        for made, created, _, _ in opened:
            if created:
                os.unlink(made)
        raise ValidationError(f"cannot write {path}: {exc}") from None
    finally:
        for _, _, fd, _ in opened:
            os.close(fd)
    if printed:
        sys.stdout.write("".join(printed))


# gen's one table: each family's generator (a name looked up on
# `generators` when gen runs), the options it needs and the options it
# may also take
GEN_FAMILIES = {
    "greedy1-tight": ("gen_greedy1_tight", ("-k",), ("--epsilon",)),
    "greedy2-tight": ("gen_greedy2_tight", ("-k",), ("--epsilon",)),
    "fig1": ("gen_fig1", (), ("--readings-out",)),
    "cycle": ("gen_cycle", ("-n",), ()),
    "ladder": ("gen_ladder", ("-n",), ()),
    "random": ("gen_random", ("-n", "-m"), ("--seed", "--min-degree", "--simple", "--weights")),
}
_FAMILY_OPTIONS = tuple(dict.fromkeys(o for _, needs, takes in GEN_FAMILIES.values() for o in needs + takes))

# how the parser reads each option; any other one is an int
_GEN_KINDS = {"--epsilon": {}, "--readings-out": {}, "--simple": {"action": "store_true"},
              "--weights": {"metavar": "LO:HI"}}


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def _gen_readers(option: str) -> str:
    return " or ".join(f for f, (_, needs, takes) in GEN_FAMILIES.items() if option in needs + takes)


def _cmd_gen(args) -> Run:
    """Every family option defaults to None, so an option that was given
    and that the family does not read is refused before any option value
    is checked. Then come the values (an empty --readings-out is
    refused), the vertex guard (2k vertices for the tight families), the
    edge guard (MAX_EDGES), the options the family needs and one keyword
    call of its generator."""
    generator, needs, takes = GEN_FAMILIES[args.family]
    given = {}
    for option in _FAMILY_OPTIONS:
        value = getattr(args, _dest(option))
        if value is None:
            continue
        if option not in needs + takes:
            raise ValidationError(f"{option} needs family {_gen_readers(option)}")
        given[_dest(option)] = value
    readings_out = given.pop("readings_out", None)
    if readings_out == "":
        raise ValidationError("--readings-out needs a file name")
    if "epsilon" in given:
        given["epsilon"] = Weight.parse(given["epsilon"])
    if "weights" in given:
        given["weight_lo"], given["weight_hi"] = _parse_weight_range(given.pop("weights"))
    vertices = 2 * given["k"] if "k" in given else given.get("n", 0)
    if vertices > MAX_VERTICES:
        raise ValidationError(f"vertex count {vertices} exceeds the limit {MAX_VERTICES}")
    if given.get("m", 0) > MAX_EDGES:
        raise ValidationError(f"edge count {given['m']} exceeds the limit {MAX_EDGES}")
    for option in needs:
        if _dest(option) not in given:
            raise ValidationError(f"family {args.family!r} needs parameter {_dest(option)!r}")
    # fig1's generator also returns its monitors and readings
    made = getattr(generators, generator)(**given)
    g, _, readings = made if isinstance(made, tuple) else (made, None, None)
    readings_output = [] if readings_out is None else [(readings_out, format_readings(readings))]
    return 0, [(args.output, format_graph(g)), *readings_output]


def _parse_weight_range(text: str) -> tuple[int, int]:
    """LO:HI, or LO alone for LO:LO; an empty HI after the colon is refused."""
    lo, colon, hi = text.partition(":")
    try:
        return int(lo), int(hi if colon else lo)
    except ValueError:
        raise ValidationError(f"bad weight range {text!r}; expected LO:HI") from None


def _cmd_reduce(args, g: Graph) -> Run:
    reduced, rmap = preprocess(g)
    return 0, [(args.output, format_graph(reduced)), (args.map_out, format_reduction_map(rmap))]


def _solution_lines(sol: Solution, trace: bool) -> str:
    lines = [f"M {e}" for e in sorted(sol.monitors)]
    lines += [f"D {e}" for e in sorted(sol.determined_extras)]
    lines += [f"Z {e}" for e in sorted(sol.zero_flow)]
    lines.append(f"GAIN {sol.gain}")
    if trace and sol.trace:
        for i, s in enumerate(sol.trace.steps, start=1):
            p = ",".join(map(str, sorted(s.monitors_placed)))
            y = ",".join(map(str, sorted(s.collected)))
            lines.append(
                f"T {i} P {p} Y {y} G {s.step_gain} C {s.candidates}"
            )
    return "\n".join(lines) + "\n"


def _cmd_solve(args, g: Graph) -> Run:
    return 0, [(args.output, _solution_lines(solve_pipeline(g, args.k, args.algo), args.trace))]


def _cmd_exact(args, g: Graph) -> Run:
    return 0, [(args.output, _solution_lines(exact(g, args.k), trace=False))]


def _cmd_infer(args, g: Graph) -> Run:
    monitors = parse_edge_id_list(args.monitors)
    readings = parse_readings(_read_text(args.readings))
    determined, undetermined, consistent, _ = infer(g, monitors, readings)
    lines = [f"F {e} {determined[e]}" for e in sorted(determined)]
    lines += [f"U {e}" for e in sorted(undetermined)]
    lines.append(f"CONSISTENT {'yes' if consistent else 'no'}")
    return 0 if consistent else 4, [(args.output, "\n".join(lines) + "\n")]


def _cmd_kernel(args, g: Graph) -> Run:
    kg = kernel_graph(g, parse_edge_id_list(args.monitors))
    out = format_graph(kg.graph)
    out += "".join([f"K {i} {orig}\n" for i, orig in enumerate(kg.represents)])
    return 0, [(args.output, out)]


def _cmd_hardness(args) -> Run:
    """--lemma1 checks lemma1 for every 1 <= s <= n <= --max-n, one
    enumeration per partition of n; it is refused (exit 3) from --max-n
    41 (LEMMA1_MAX_N + 1).
    --verify-star checks graphs on 4 to min(--max-n, 7) vertices plus
    --random-instances random ones seeded by --seed, and is refused
    (exit 2) when that leaves nothing to check: below --max-n 4, as the
    one clique size on 3 vertices, q = 3, leaves l = n - q = 0. Both star
    options default to None, so one given without --verify-star is
    refused (exit 2)."""
    star = {"--random-instances": args.random_instances, "--seed": args.seed}
    given = [option for option, value in star.items() if value is not None]
    if given and not args.verify_star:
        raise ValidationError(f"{given[0]} needs --verify-star")
    random_instances, seed = args.random_instances or 0, args.seed or 0
    if args.max_n < 1:
        raise ValidationError("--max-n must be at least 1")
    if random_instances < 0:
        raise ValidationError("--random-instances must be non-negative")
    if args.verify_star and args.max_n < 4 and not random_instances:
        raise ValidationError(
            f"--verify-star finds its first check on 4 vertices; --max-n {args.max_n}"
            " leaves none (raise --max-n or add --random-instances)"
        )
    lines = []
    failed = False
    if args.lemma1:
        if args.max_n > LEMMA1_MAX_N:
            raise SizeGuardError(f"--lemma1 --max-n {args.max_n} exceeds the limit {LEMMA1_MAX_N}")
        for n in range(1, args.max_n + 1):
            for s in range(1, n + 1):
                ok = lemma1_check(n, s)
                failed |= not ok
                lines.append(f"LEMMA1 n={n} s={s} {'PASS' if ok else 'FAIL'}")
    if args.verify_star:
        reports = verify_star_canonical(min(args.max_n, 7))
        if random_instances:
            reports.append(verify_star_random(random_instances, seed=seed))
        for report in reports:
            failed |= not report.ok
            lines.append(
                f"STAR {report.label} instances={report.instances}"
                f" checks={report.checks} mismatches={report.mismatches}"
                f" {'PASS' if report.ok else 'FAIL'}"
            )
    if not lines:
        raise ValidationError("choose --verify-star and/or --lemma1")
    lines.append(f"OVERALL {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0, [(args.output, "\n".join(lines) + "\n")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowmon")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, graph: bool = True) -> argparse.ArgumentParser:
        """A subcommand run by func, with -o and, if graph, the graph file."""
        p = sub.add_parser(name, help=help)
        if graph:
            p.add_argument("graph")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "generate an instance", graph=False)
    p.add_argument("family", choices=GEN_FAMILIES)
    needed = {o for _, needs, _ in GEN_FAMILIES.values() for o in needs}
    for option in _FAMILY_OPTIONS:
        text = ("needed by " if option in needed else "optional for ") + _gen_readers(option)
        p.add_argument(option, default=None, help=text, **_GEN_KINDS.get(option, {"type": int}))

    p = command("reduce", _cmd_reduce, "strip bridges, merge, contract edge groups")
    p.add_argument("--map-out", default=None)

    p = command("solve", _cmd_solve, "preprocess, solve, lift back")
    p.add_argument("--algo", required=True, help="greedy1|greedy2|greedy:<sigma>|exact")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--trace", action="store_true")

    p = command("exact", _cmd_exact, "brute-force optimum on the raw graph")
    p.add_argument("-k", type=int, required=True)

    p = command("infer", _cmd_infer, "determine flows from monitor readings")
    p.add_argument("-m", "--monitors", required=True, help="comma-separated edge ids")
    p.add_argument("-r", "--readings", required=True, help="readings file")

    p = command("kernel", _cmd_kernel, "contract around a monitor set")
    p.add_argument("-m", "--monitors", required=True, help="comma-separated edge ids")

    p = command("hardness", _cmd_hardness, "run the reduction verifiers", graph=False)
    p.add_argument("--verify-star", action="store_true")
    p.add_argument("--lemma1", action="store_true")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--random-instances", type=int, default=None, help="--verify-star; default 0")
    p.add_argument("--seed", type=int, default=None, help="--verify-star; default 0")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse's own exits
    (2 for a bad command line, 0 after --help) are returned too."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    enabled = gc.isenabled()
    gc.disable()
    try:
        graph = [parse_graph(_read_text(args.graph))] if "graph" in args else []
        code, outputs = args.func(args, *graph)
        _write_outputs(outputs)
        return code
    except FlowmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if enabled:
            gc.enable()


def main_entry() -> None:
    sys.exit(main())
