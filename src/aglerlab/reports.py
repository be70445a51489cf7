"""Verified-inequality records shared by the transfer, bounds, and harness layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["BoundReport", "Column", "ReportTable"]

Key = tuple[str, tuple[int, ...] | None]  # a column's (theorem tag, alpha)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality instance: LHS <= RHS with provenance tag.

    ``slack = rhs - lhs`` is the quantity campaigns assert on;
    ``ratio = lhs / rhs`` (0 when rhs is 0) measures sharpness.  A report
    carries no flags: whether it is asserted depends on the point it was
    made at (``EvalContext.flags``) and on the campaign, and campaign
    records combine the two.
    """

    theorem_tag: str
    z: tuple[complex, ...]
    alpha: tuple[int, ...] | None
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs != 0.0 else 0.0

    def __str__(self):
        a = "" if self.alpha is None else f" alpha={self.alpha}"
        return (
            f"{self.theorem_tag:<24}{a} lhs={self.lhs:.6e} rhs={self.rhs:.6e} "
            f"slack={self.slack:+.3e} ratio={self.ratio:.4f}"
        )


class Column(NamedTuple):
    """One inequality at every point of a stack: ``lhs[i] <= rhs[i]`` at
    point i, two (m,) arrays.  ``flags``, when set, holds per point the
    flags that the column's records carry besides those of their point."""

    tag: str
    alpha: tuple[int, ...] | None
    lhs: np.ndarray
    rhs: np.ndarray
    flags: Sequence[tuple[str, ...]] | None = None


class ReportTable(NamedTuple):
    """Reports at m points: per column, in record order, its (theorem tag, alpha) key in ``keys`` and any
    flags of its own (per point) in ``own``, and (m, c) ``lhs``, ``rhs``."""

    keys: tuple[Key, ...]
    own: dict[int, Sequence[tuple[str, ...]]]
    lhs: np.ndarray
    rhs: np.ndarray

    @classmethod
    def of(cls, columns: Sequence[Column]) -> ReportTable:
        return cls(tuple((c.tag, c.alpha) for c in columns),
                   {p: c.flags for p, c in enumerate(columns) if c.flags is not None},
                   np.array([c.lhs for c in columns], float).T, np.array([c.rhs for c in columns], float).T)
