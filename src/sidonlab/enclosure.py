"""Certified rational intervals for measure-theoretic quantities."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MeasureEnclosure:
    """[lo, hi] guaranteed to contain the true value; hi - lo is the slack
    left unresolved at finite construction depth."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError(f"bad enclosure [{self.lo}, {self.hi}]")

    @property
    def slack(self) -> Fraction:
        return self.hi - self.lo

    def is_exact(self) -> bool:
        return self.lo == self.hi
