"""Exact fixed-point edge weights.

A weight is an integer count of millionths of a unit, so sums and
comparisons in the solvers are exact: greedy ties are real ties and
expected values in tests never drift the way binary floats would.
Values like 1.01 or 1.51 are representable exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Checked, ParseError, ValidationError, WeightOverflowError

SCALE = 10**6
MAX_MICROS = 2**63 - 1
# digits in the largest whole part a weight can have
_WHOLE_DIGITS = len(str(MAX_MICROS // SCALE))


def check_micros(micros: int) -> int:
    """Reject negative or overflowing raw values; never wrap silently."""
    if micros < 0:
        raise ValidationError("weights are non-negative")
    if micros > MAX_MICROS:
        raise WeightOverflowError(f"weight exceeds {MAX_MICROS} millionths")
    return micros


class _Weight(NamedTuple):
    micros: int


class Weight(Checked, _Weight):
    """A one-field record: weights compare, order and hash as (micros,)."""

    __slots__ = ()

    def __new__(cls, micros: int) -> "Weight":
        # built for every parsed weight token and every sum, so it checks
        # its one field itself: the generic Checked constructor costs
        # about three times as much
        return tuple.__new__(cls, (check_micros(micros),))

    @classmethod
    def zero(cls) -> "Weight":
        return cls(0)

    @classmethod
    def from_units(cls, units: int) -> "Weight":
        return cls(units * SCALE)

    @classmethod
    def parse(cls, text: str) -> "Weight":
        whole, dot, frac = text.partition(".")
        if not whole.isdecimal() or dot and not (frac.isdecimal() and len(frac) <= 6):
            raise ParseError(
                f"bad weight {text!r}: expected a non-negative decimal"
                " with at most 6 fractional digits"
            )
        if len(whole) > _WHOLE_DIGITS:
            # int() refuses over 4,300 digits: a nonzero digit in front of
            # the last _WHOLE_DIGITS overflows, and leading zeros of any script go
            lead, whole = whole[:-_WHOLE_DIGITS], whole[-_WHOLE_DIGITS:]
            if any(map(int, lead)):
                raise WeightOverflowError(f"weight exceeds {MAX_MICROS} millionths")
        return cls(int(whole) * SCALE + int(frac.ljust(6, "0")))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.micros + other.micros)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.micros - other.micros)

    def __mul__(self, n: int) -> "Weight":
        return Weight(self.micros * n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        whole, frac = divmod(self.micros, SCALE)
        if frac == 0:
            return str(whole)
        return f"{whole}.{frac:06d}".rstrip("0")

    def __repr__(self) -> str:
        return f"Weight({str(self)!r})"
