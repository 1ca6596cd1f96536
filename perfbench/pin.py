"""Write pins.json: answer digests of the pinned solve and reduce inputs.

    python3 perfbench/pin.py      (from the root of a flowmon checkout)

The pins were taken once, at the commit that added this benchmark, and
make the "same answers" rule checkable: every later run compares the
M/D/Z/GAIN lines and the trace's P/Y/G fields of `solve`, and the whole
output of `reduce`, against them. Re-pinning is a change of answers and
must be argued as such.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import check
    import workloads as w

    pins = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, (build, _) in sorted(w.WORKLOADS.items()):
            for op in build(0, w.Builder(Path(tmp)), {}):
                if op.pin is None:
                    continue
                op.pin = None
                result, out = op.run()
                problem = op.check(result, out)
                if problem:
                    sys.exit(f"{name} {op.kind} {op.digest}: {problem}")
                pins[f"{op.kind}:{op.digest}"] = check.pin_digest(out)
    w.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"{len(pins)} pins written to {w.PINS}")
