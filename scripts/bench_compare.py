"""Print the per-stage ratios between two files of scripts/bench_ladder.py.

    python scripts/bench_compare.py OLD.json NEW.json

One line per stage of each instance in both files: the old and the new
host-adjusted median and new / old (below 1 is faster). An instance whose digest
differs between the files timed another graph, and is flagged instead.
"""

from __future__ import annotations

import argparse
import json
import sys


def _shown(case) -> str:
    return case if isinstance(case, str) else f"{case['median_s'] * 1e3:.2f} ms"


def compare(old: dict, new: dict) -> list[str]:
    lines = []
    before = {inst["name"]: inst for inst in old["instances"]}
    for inst in new["instances"]:
        was = before.get(inst["name"])
        if was is None:
            continue
        if was["digest"] != inst["digest"]:
            lines.append(f"{inst['name']:12} digests differ; not compared")
            continue
        for stage, case in inst["stages"].items():
            prior = was["stages"].get(stage)
            if prior is None:
                continue
            ratio = "" if isinstance(case, str) or isinstance(prior, str) else (
                f"x{case['median_s'] / prior['median_s']:.3f}")
            lines.append(f"{inst['name']:12} {stage:14} {_shown(prior):>12} {_shown(case):>12} {ratio}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for line in compare(old, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
