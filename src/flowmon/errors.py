"""Exception types shared across the package, and the mixin that makes
a record check its fields however it is built.

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


class Checked:
    """Mixin, listed before the fields, for a NamedTuple subclass whose
    `_check` refuses bad field values: every way of building the record
    runs it. namedtuple's own `_make`, which `_replace` calls, would
    skip it by calling `tuple.__new__` directly."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
