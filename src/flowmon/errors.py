"""Exception types shared across the package.

The CLI maps these onto process exit codes: 1 for a broken internal
invariant (a plain FlowmonError), 2 for parse/validation problems, 3 for
size-guard refusals. Two codes come from the CLI itself, not via an
exception: 1 when a `hardness` verifier finds a mismatch, and
4 for inconsistent measurements.
"""


class FlowmonError(Exception):
    exit_code = 1


class ParseError(FlowmonError):
    exit_code = 2


class ValidationError(FlowmonError):
    exit_code = 2


class WeightOverflowError(ValidationError):
    pass


class SizeGuardError(FlowmonError):
    exit_code = 3


class CandidateBudgetError(SizeGuardError):
    pass
