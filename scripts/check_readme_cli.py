"""Run every command of the README's CLI block and check its exit code.

The lines of the first fenced block under "## CLI" run in order, in one
fresh temporary directory, through bash with `flowmon` and
`python -m flowmon` replaced by `<this interpreter> -m flowmon` and this
checkout's src/ on PYTHONPATH, so every command runs under the Python
that runs this script. A line
expects exit 0, or N when its comment starts with "exit N". Prints one
line per command and exits 1 if any exit code differs:

    python scripts/check_readme_cli.py
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cli_block(readme: str) -> list[str]:
    section = readme.split("\n## CLI\n", 1)[1]
    return [line for line in section.split("```\n")[1].splitlines() if line.strip()]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flowmon = f"{shlex.quote(sys.executable)} -m flowmon "
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_block((ROOT / "README.md").read_text(encoding="utf-8")):
            command, _, comment = line.partition("#")
            expected = re.match(r"\s*exit (\d+)", comment)
            want = int(expected.group(1)) if expected else 0
            command = re.sub(r"(^|\| )(python -m )?flowmon ", lambda m: m.group(1) + flowmon, command.strip())
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
