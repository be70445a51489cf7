"""Verified-inequality records shared by the transfer, bounds, and harness layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["BoundReport", "Column"]


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

    def report(self, i: int, z: tuple[complex, ...]) -> BoundReport:
        """The column's report at point i, which is ``z``."""
        return BoundReport(self.tag, z, self.alpha, float(self.lhs[i]), float(self.rhs[i]))
