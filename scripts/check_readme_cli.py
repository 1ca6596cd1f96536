"""Run every command of the README's CLI block and check its exit code.

The lines of the first fenced block under "## CLI" run in order, in one
fresh temporary directory, through bash with `flowmon` and
`python -m flowmon` replaced by `<this interpreter> -m flowmon` and this
checkout's src/ on PYTHONPATH, so every command runs under the Python
that runs this script. A line
expects exit 0, or N when its comment starts with "exit N". Prints one
line per command and exits 1 if any exit code differs, or if the block
and the parser (cli.build_parser()) disagree on the subcommands: one
the parser has that no line runs, or one a line runs that the parser
lacks:

    python scripts/check_readme_cli.py
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from flowmon import cli  # noqa: E402

# a flowmon command at the start of a line or after a pipe; group 3 is
# its subcommand
COMMAND = re.compile(r"(^|\| )(python -m )?flowmon (?=(\S+))")


def cli_block(readme: str) -> list[str]:
    section = readme.split("\n## CLI\n", 1)[1]
    return [line for line in section.split("```\n")[1].splitlines() if line.strip()]


def subcommand_drift(lines: list[str]) -> list[str]:
    """One message per subcommand the block and the parser disagree on."""
    named = {m.group(3) for line in lines for m in COMMAND.finditer(line.partition("#")[0].strip())}
    parser = cli.build_parser()
    known = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return ([f"subcommand {s} has no line in the README CLI block" for s in known if s not in named]
            + [f"the README CLI block runs unknown subcommand {s}" for s in sorted(named - set(known))])


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flowmon = f"{shlex.quote(sys.executable)} -m flowmon "
    lines = cli_block((ROOT / "README.md").read_text(encoding="utf-8"))
    drift = subcommand_drift(lines)
    for message in drift:
        print(f"FAIL {message}")
    failed = len(drift)
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines:
            command, _, comment = line.partition("#")
            expected = re.match(r"\s*exit (\d+)", comment)
            want = int(expected.group(1)) if expected else 0
            command = COMMAND.sub(lambda m: m.group(1) + flowmon, command.strip())
            run = subprocess.run(
                ["bash", "-c", command], cwd=tmp, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            ok = run.returncode == want
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} exit {run.returncode} (want {want}): {command}")
            if not ok:
                sys.stdout.write(run.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
