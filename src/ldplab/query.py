"""The range query shared by both protocols, the attacks and the harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["RangeQuery"]


@dataclass(frozen=True)
class RangeQuery:
    """Per-attribute half-open intervals over a subset of attributes."""

    attrs: Tuple[int, ...]
    intervals: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.attrs:
            raise ValueError("query must concern at least one attribute")
        if len(self.attrs) != len(self.intervals):
            raise ValueError("attrs and intervals must align")
        for lo, hi in self.intervals:
            if not 0 <= lo < hi:
                raise ValueError(f"invalid interval [{lo}, {hi})")

    def interval_for(self, attr: int) -> Tuple[int, int]:
        return self.intervals[self.attrs.index(attr)]

    def snapped(self, width: int, domain: int) -> "RangeQuery":
        """Every interval snapped outward to multiples of ``width``, capped at ``domain``."""
        intervals = tuple(
            (lo // width * width, min(-(-hi // width) * width, domain)) for lo, hi in self.intervals
        )
        return RangeQuery(self.attrs, intervals)
