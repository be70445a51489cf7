"""Verified-inequality records shared by the transfer, bounds, and harness layers."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["BoundReport", "Column", "Layout", "ReportTable", "layout"]

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

    def report(self, i: int, z: tuple[complex, ...]) -> BoundReport:
        """The column's report at point i, which is ``z``."""
        return BoundReport(self.tag, z, self.alpha, float(self.lhs[i]), float(self.rhs[i]))


class Layout:
    """The columns of a report table in record order, each a (theorem tag, alpha) key of ``keys``,
    and how they group by tag.  ``tags`` and ``alphas`` hold each distinct tag and alpha in order of
    first use, and ``tag_of`` and ``alpha_of`` each column's index in them; ``groups`` holds per tag
    its columns, ascending, ``order`` those groups one after another and ``starts`` where each begins
    in ``order``.  Made by :func:`layout`, which keeps the layouts of recent key sequences; layouts
    compare by identity."""

    def __init__(self, keys: tuple[Key, ...]):
        groups: dict[str, list[int]] = {}
        for p, (tag, _) in enumerate(keys):
            groups.setdefault(tag, []).append(p)
        alphas = {alpha: a for a, alpha in enumerate(dict.fromkeys(alpha for _, alpha in keys))}
        self.keys, self.tags, self.alphas = keys, tuple(groups), tuple(alphas)
        self.groups = tuple(map(tuple, groups.values()))
        self.tag_of = np.empty(len(keys), dtype=np.intp)
        for t, ps in enumerate(self.groups):
            self.tag_of[list(ps)] = t
        self.alpha_of = np.array([alphas[alpha] for _, alpha in keys], dtype=np.intp)
        self.order = np.array(sum(self.groups, ()), dtype=np.intp)
        self.starts = np.array([0, *itertools.accumulate(map(len, self.groups))][:-1], dtype=np.intp)
        for shared in (self.tag_of, self.alpha_of, self.order, self.starts):  # read by every table of the layout
            shared.flags.writeable = False

    def __len__(self) -> int:
        return len(self.keys)


@functools.lru_cache(maxsize=256)
def layout(keys: tuple[Key, ...]) -> Layout:
    """The :class:`Layout` of ``keys``: one object while it is among the 256 most recently asked for."""
    return Layout(keys)


class ReportTable(NamedTuple):
    """Reports at m points: the columns' :class:`Layout`, per column position any flags of its own
    (per point), and (m, c) ``lhs``, ``rhs``."""

    layout: Layout
    own: dict[int, Sequence[tuple[str, ...]]]
    lhs: np.ndarray
    rhs: np.ndarray

    @classmethod
    def of(cls, columns: Sequence[Column]) -> ReportTable:
        return cls(layout(tuple((c.tag, c.alpha) for c in columns)),
                   {p: c.flags for p, c in enumerate(columns) if c.flags is not None},
                   np.array([c.lhs for c in columns], float).T, np.array([c.rhs for c in columns], float).T)
