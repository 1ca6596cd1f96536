"""Print the per-stage ratios between two files of scripts/bench_ladder.py.

    python scripts/bench_compare.py OLD.json NEW.json

One line per stage of each instance in both files: the old and the new
host-adjusted median and new / old (below 1 is faster). A stage only the
new file times is printed with its new median, marked "new". An instance
whose digest differs between the files timed another graph, and is
flagged instead.

A ratio is marked "within spread" when the two files' host-adjusted runs
overlap: each run is its runs_s scaled by the file's ref_nominal_s over
the reference time taken just before it (refs_s), as bench_ladder.py
adjusts them. Runs of one commit drift from file to file, so a marked
ratio does not tell the two files apart.
"""

from __future__ import annotations

import argparse
import json
import sys


def _shown(case) -> str:
    return case if isinstance(case, str) else f"{case['median_s'] * 1e3:.2f} ms"


def _adjusted(case, nominal: float) -> list[float]:
    return [t * nominal / ref for t, ref in zip(case["runs_s"], case["refs_s"])]


def _overlap(prior, case, old_nominal: float, new_nominal: float) -> bool:
    """Whether the two cases' host-adjusted runs share some range."""
    a, b = _adjusted(prior, old_nominal), _adjusted(case, new_nominal)
    return max(min(a), min(b)) <= min(max(a), max(b))


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
                lines.append(f"{inst['name']:12} {stage:14} {'':>12} {_shown(case):>12} new")
                continue
            ratio = ""
            if not (isinstance(case, str) or isinstance(prior, str)):
                ratio = f"x{case['median_s'] / prior['median_s']:.3f}"
                if _overlap(prior, case, old["ref_nominal_s"], new["ref_nominal_s"]):
                    ratio += " within spread"
            lines.append(f"{inst['name']:12} {stage:14} {_shown(prior):>12} {_shown(case):>12} {ratio}".rstrip())
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
