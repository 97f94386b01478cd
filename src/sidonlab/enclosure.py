"""Certified rational intervals for measure-theoretic quantities."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# The zero every report row shares: config.write_csv formats each distinct
# value object once, so rows that read 0 should all hold this one.
ZERO = Fraction(0)


@dataclass(frozen=True)
class MeasureEnclosure:
    """[lo, hi] guaranteed to contain the true value; hi - lo is the slack
    left unresolved at finite construction depth."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError(f"bad enclosure [{self.lo}, {self.hi}]")

    @cached_property
    def slack(self) -> Fraction:
        """hi - lo, computed on first use and kept (ZERO when exact)."""
        return ZERO if self.lo == self.hi else self.hi - self.lo

    def is_exact(self) -> bool:
        return self.lo == self.hi
