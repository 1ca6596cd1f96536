import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "scripts" / "bench_compare.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _case(runs, refs):
    adjusted = sorted(t * 0.001 / r for t, r in zip(runs, refs))
    return {"median_s": adjusted[1], "raw_median_s": sorted(runs)[1], "runs_s": runs, "refs_s": refs}


def _file(stages):
    return {"ref_nominal_s": 0.001, "instances": [{"name": "circ-4000", "digest": "d", "stages": stages}]}


def test_marks_a_ratio_whose_adjusted_runs_overlap(tmp_path, capsys, bench_compare):
    # parse: the adjusted runs 2-4 ms and 3.5-5 ms overlap; search: 2-3 ms
    # and 4-5 ms do not; infer: the raw runs are equal, but the host ran
    # at half speed for the new file, so its adjusted runs are half as
    # long and do not overlap; solve: over-cap gets no ratio
    old = _file({
        "parse": _case([0.002, 0.003, 0.004], [0.001] * 3),
        "search": _case([0.002, 0.0025, 0.003], [0.001] * 3),
        "infer": _case([0.002, 0.0021, 0.0022], [0.001] * 3),
        "solve": _case([0.08, 0.08, 0.08], [0.001] * 3),
    })
    new = _file({
        "parse": _case([0.0035, 0.004, 0.005], [0.001] * 3),
        "search": _case([0.004, 0.0045, 0.005], [0.001] * 3),
        "infer": _case([0.002, 0.0021, 0.0022], [0.002] * 3),
        "solve": "over-cap",
    })
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, data in zip(paths, (old, new)):
        path.write_text(json.dumps(data))
    assert bench_compare.main([str(p) for p in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["parse", "search", "infer", "solve"]
    assert lines[0].endswith("x1.333 within spread")
    assert lines[1].endswith("x1.800")
    assert lines[2].endswith("x0.500")
    assert lines[3].endswith("over-cap")


def test_prints_a_stage_only_the_new_file_times_as_new(tmp_path, capsys, bench_compare):
    # a stage added to the ladder has no old median to divide by
    old = _file({"parse": _case([0.002, 0.003, 0.004], [0.001] * 3)})
    new = _file({
        "parse": _case([0.002, 0.003, 0.004], [0.001] * 3),
        "deputies": _case([0.001, 0.0015, 0.002], [0.001] * 3),
    })
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, data in zip(paths, (old, new)):
        path.write_text(json.dumps(data))
    assert bench_compare.main([str(p) for p in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["parse", "deputies"]
    assert lines[0].endswith("x1.000 within spread")
    assert lines[1].split()[2:] == ["1.50", "ms", "new"]
