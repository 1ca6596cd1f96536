"""Flow edge-monitor toolkit.

Place k monitors on edges of a weighted undirected multigraph so that the
total weight of edges with known flow (the monitored edges plus every
bridge they expose in the rest of the graph) is as large as possible.
The package provides the preprocessing reductions, batched greedy
solvers with an exact brute-force oracle, a circulation simulator with
conservation-based inference, the kernel-graph instrumentation, and
verifiers for the underlying hardness reduction.
"""

from .errors import (
    CandidateBudgetError,
    FlowmonError,
    ParseError,
    SizeGuardError,
    ValidationError,
    WeightOverflowError,
)
from .flowsim import (
    InferenceResult,
    conservation_violations,
    infer,
    measure,
    random_circulation,
)
from .graph import (
    EdgeRecord,
    Graph,
    gain,
    is_c_edge_connected,
    spanning_forest,
)
from .kernel import KernelGraph, check_kernel_bound, kernel_graph
from .reduce import (
    ReductionMap,
    contract_groups,
    edge_groups,
    lift_monitors,
    merge_components,
    preprocess,
    strip_bridges,
)
from .solvers import (
    GreedyTrace,
    Solution,
    SolverConfig,
    StepRecord,
    exact,
    full_determination,
    sigma_greedy,
    solve_pipeline,
)
from .weights import Weight

__version__ = "0.1.0"

__all__ = [
    "CandidateBudgetError",
    "EdgeRecord",
    "FlowmonError",
    "Graph",
    "GreedyTrace",
    "InferenceResult",
    "KernelGraph",
    "ParseError",
    "ReductionMap",
    "SizeGuardError",
    "Solution",
    "SolverConfig",
    "StepRecord",
    "ValidationError",
    "Weight",
    "WeightOverflowError",
    "check_kernel_bound",
    "conservation_violations",
    "contract_groups",
    "edge_groups",
    "exact",
    "full_determination",
    "gain",
    "infer",
    "is_c_edge_connected",
    "kernel_graph",
    "lift_monitors",
    "measure",
    "merge_components",
    "preprocess",
    "random_circulation",
    "sigma_greedy",
    "solve_pipeline",
    "spanning_forest",
    "strip_bridges",
]
