"""Record semantics. Every flowmon record is a NamedTuple: immutable,
picklable, and equal to the plain tuple of its fields. The validated
records refuse a bad field value however they are built: by position,
by keyword, through `_make` and through `_replace`."""

import pickle

import pytest

from flowmon.errors import ValidationError, WeightOverflowError
from flowmon.flowsim import Circulation, InferenceResult
from flowmon.graph import EdgeRecord, Graph
from flowmon.hardness import CliqueInstance, DecInstance, StarReport
from flowmon.kernel import KernelGraph
from flowmon.reduce import ReductionMap
from flowmon.solvers import GreedyTrace, Solution, SolverConfig, StepRecord
from flowmon.weights import MAX_MICROS, Weight

K4 = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

# (a valid record, a bad field value, the error it raises, its message)
BAD_FIELDS = [
    (Weight(5), {"micros": -1}, ValidationError, "weights are non-negative"),
    (Weight(5), {"micros": MAX_MICROS + 1}, WeightOverflowError, "weight exceeds"),
    (SolverConfig(3, 2), {"k": 0}, ValidationError, "monitor budget k must be at least 1"),
    (SolverConfig(3, 2), {"sigma": 0}, ValidationError, "batch size sigma must be at least 1"),
    (CliqueInstance(K4, 3), {"q": 2}, ValidationError, "clique size q must be at least 3"),
    (CliqueInstance(K4, 3), {"q": 5}, ValidationError, "clique size q exceeds the vertex count"),
    (CliqueInstance(K4, 3), {"graph": Graph.build(3, [(0, 1), (1, 2), (2, 0), (0, 1)])},
     ValidationError, "a simple graph is required"),
    (CliqueInstance(K4, 3), {"graph": Graph.build(3, [(0, 1), (1, 2), (2, 0), (1, 1)])},
     ValidationError, "edge 3 is a loop"),
    (CliqueInstance(K4, 3), {"graph": Graph.build(4, [(0, 1), (1, 2), (2, 0)])},
     ValidationError, "clique instances must be connected"),
    (DecInstance(K4, 2, 1), {"k": -1}, ValidationError, "k and l must be non-negative"),
    (DecInstance(K4, 2, 1), {"l": -1}, ValidationError, "k and l must be non-negative"),
]


@pytest.mark.parametrize("way", ["position", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("valid, bad, error, message", BAD_FIELDS)
def test_validated_records_refuse_bad_fields_however_built(valid, bad, error, message, way):
    cls = type(valid)
    fields = {**valid._asdict(), **bad}
    build = {
        "position": lambda: cls(*fields.values()),
        "keyword": lambda: cls(**fields),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: valid._replace(**bad),
    }[way]
    with pytest.raises(error, match=message):
        build()


def test_replace_keeps_the_type_and_the_other_fields():
    cfg = SolverConfig(3, 2)._replace(k=5)
    assert type(cfg) is SolverConfig and cfg == (5, 2)
    assert type(Weight(5)._make([7])) is Weight


def _records():
    trace = GreedyTrace((StepRecord(frozenset({0}), frozenset({0, 1}), Weight(2), 6),))
    return [
        EdgeRecord(0, 0, 1, Weight(1)),
        Weight(1),
        SolverConfig(3),
        trace.steps[0],
        trace,
        Solution(frozenset({0}), frozenset({1}), Weight(2), trace),
        Circulation((1, -1)),
        InferenceResult({0: 1}, frozenset({1}), True),
        KernelGraph(K4, (0, 0, 0, 0), (0, 1)),
        ReductionMap((0, 0), {0: 0}, (0,), (0,), frozenset({1})),
        CliqueInstance(K4, 3),
        DecInstance(K4, 2, 1),
        StarReport("canonical n=3", 1, 1, 0),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_tuples(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[1 % len(record._fields)]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == tuple(getattr(record, f) for f in record._fields)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_round_trip_through_pickle(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_defaults_and_documented_tuple_semantics():
    assert Weight(1) == (1,) and Weight(1) < Weight(2) and hash(Weight(3)) == hash((3,))
    sol = Solution(frozenset(), frozenset(), Weight(0))
    assert sol.trace is None and sol.zero_flow == frozenset()
    assert InferenceResult({}, frozenset(), True).violations == ()
    assert StarReport("x", 1, 1, 0).ok and not StarReport("x", 1, 1, 1).ok
