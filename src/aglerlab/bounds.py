"""Schwarz-Pick-type derivative bounds and kernel positivity checks.

Each bound is a :class:`Column` of a stack of points: the left-hand sides
(derivative norms, from the realization or a polynomial) and the
right-hand sides of one inequality, exactly as stated, one per point.  A
polynomial's norms come from one stacked :func:`poly_partial` call per
multi-index (:class:`PolynomialStack`).
Checks on a colligation read an :class:`aglerlab.transfer.EvalStack`; the
``bound_*`` functions, ``ball_kernel_subchecks`` and ``knese_report`` read
the :class:`BoundReport` of one point from those columns, and
``bound_polydisk``, ``bound_ball`` and ``wiener_check`` take a colligation
or a polynomial subject and evaluate it themselves.

Writing n = n_1 + ... + n_d and D(z) = 1 - |phi(z)|^2 (for matrix-valued
phi the product of the two defect norms ||I - phi* phi||^(1/2)
||I - phi phi*||^(1/2) takes its place), the checked families are:

polydisk (domain norm s = ||z||_inf):
  first      |d phi/d z_j|  <=  D / (sqrt(1-|z_j|^2) sqrt(1-s^2))
  mixed      (n-2)! D / (1-s)^(n-1) * sum_{p != q} (1-|z_kp|^2)^(-1/2)(1-|z_kq|^2)^(-1/2)
  two_var    d = 2 form of ``mixed`` with similar terms collected
  factorial  n_1! ... n_d! D / ((1-s^2)(1-s)^(n-1))
  weak       n! D / ((1-s^2)(1-s)^(n-1))

ball (domain norm t = ||z||_2, hat norms ||z-hat_j|| with coordinate j
zeroed):
  hat        (n-1)! D / ((1-t^2)(1-t)^(n-1)) * sum_j n_j sqrt(1-||z-hat_j||^2)
  factorial  d^((n-1)/2) n_1! ... n_d! D / ((1-t^2)(1-t)^(n-1))

:data:`VARIANTS` lists these seven, in record order, with the orders and
dimensions where each applies.  Also checked: the structure-free resolvent bound
(``bound_general``), the weighted first-order sum rule on the polydisk
(``knese_residual``), the coefficient bound |c_alpha| <= 1 - |c_0|^2
(``wiener_check``; on the ball times a sphere-average factor), and
positivity of the multiplier kernel Gram matrix on the ball
(``multiplier_gram_psd``).  :func:`report_columns` lists every report at
an evaluated stack in record order, and :func:`point_reports` at one point.
Every power x^k is Python's ``x ** k`` (see ``float_power``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .colligation import Ball, Colligation, DomainStructure, PointGeometry, Polydisk, StackGeometry, admit
from .derivative import MultiIndex, Polynomial, poly_partial
from .errors import DegenerateGramWarning
from .matrixcore import float_power
from .reports import BoundReport, Column
from .transfer import EvalContext, EvalStack, evaluate, lnorm_column, resolvent_columns

__all__ = [
    "PointGeometry",
    "BoundReport",
    "Column",
    "PolynomialStack",
    "Variant",
    "VARIANTS",
    "applicable_variants",
    "general_column",
    "bound_general",
    "bound_polydisk",
    "bound_ball",
    "ball_kernel_columns",
    "ball_kernel_subchecks",
    "wiener_columns",
    "wiener_check",
    "knese_column",
    "knese_residual",
    "knese_report",
    "report_columns",
    "point_reports",
    "multiplier_gram_psd",
]

Subject = Union[Colligation, Polynomial]
Orders = Sequence[Union[MultiIndex, Sequence[int]]]


class PolynomialStack:
    """A polynomial subject at the points of an (m, d) stack (or at one point
    of shape (d,)) of ``structure``'s domain, admitted as ``evaluate`` admits
    them, and read like an :class:`EvalStack`: ``zs``, per-point ``flags``,
    the ``defect`` and ``geometry`` columns, and ``norms``.  The defect takes
    one stacked :func:`poly_partial` call, and so does each multi-index."""

    def __init__(self, poly: Polynomial, structure: DomainStructure, zs):
        pts = np.asarray(zs, dtype=np.complex128)
        near = admit(structure, pts)
        self.zs = pts.reshape(-1, structure.d)
        self.flags = [admit(structure, z) for z in self.zs] if near else [()] * len(self.zs)
        self.poly = poly
        self.geometry = StackGeometry(self.zs)
        self._norms: dict[tuple[int, ...], np.ndarray] = {}
        self.defect = 1.0 - float_power(self.norms([MultiIndex.of((0,) * poly.dimension)])[0], 2)

    def norms(self, mis: Sequence[MultiIndex]) -> list[np.ndarray]:
        """Per multi-index of ``mis``, |d^n p / dz^mi| at every point (rounded
        as ``abs()`` of a Python complex)."""
        for mi in mis:
            if mi.counts not in self._norms:
                values = poly_partial(self.poly, self.zs, mi)
                self._norms[mi.counts] = np.hypot(values.real, values.imag)
        return [self._norms[mi.counts] for mi in mis]


def general_column(ev: EvalStack, alpha: Union[MultiIndex, Sequence[int]]) -> Column:
    """Structure-free resolvent bound on a mixed partial at every point of a stack.

    First order compares against defect / sqrt(1 - ||Z||^2) times the
    smaller projected Gram factor; order n >= 2 against

        (n-2)! defect / (1 - ||Z||)^(n-1)
            * sum_{p != q} a(k_p) b(k_q)

    with a, b the projected resolvent Gram factors per coordinate and
    (k_1, ..., k_n) the index list of ``alpha``; the sum does not depend on
    the order of that list.
    """
    mi = MultiIndex.of(alpha)
    if mi.order < 1:
        raise ValueError("bound_general needs order >= 1")
    ks = mi.canonical_klist()
    a, b = ev.gram[:, 0], ev.gram[:, 1]
    if mi.order == 1:
        j = ks[0] - 1
        rhs = ev.defect / np.sqrt(1.0 - float_power(ev.znorm, 2)) * np.minimum(a[:, j], b[:, j])
        tag = "general.first_order"
    else:
        sum_a = sum(a[:, k - 1] for k in ks)
        sum_b = sum(b[:, k - 1] for k in ks)
        diag = sum(a[:, k - 1] * b[:, k - 1] for k in ks)
        rhs = (math.factorial(mi.order - 2) * ev.defect / float_power(1.0 - ev.znorm, mi.order - 1)
               * (sum_a * sum_b - diag))
        tag = "general.higher_order"
    return Column(tag, mi.counts, ev.norms([mi])[0], rhs)


def bound_general(ctx: EvalContext, alpha: Union[MultiIndex, Sequence[int]]) -> BoundReport:
    """The :func:`general_column` report at an evaluated point."""
    return general_column(ctx.stack, alpha).report(ctx.i, ctx.z)


# --- the derivative-bound variants ---------------------------------------------
#
# Right-hand sides as stated in the module docstring, one per point of a
# stack: (defect column, StackGeometry, mi) -> (m,) values.


def _polydisk_factorial(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    return mi.factorial_product * defect / ((1.0 - g.sup2) * float_power(1.0 - g.sup, mi.order - 1))


def _polydisk_weak(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    return math.factorial(mi.order) * defect / ((1.0 - g.sup2) * float_power(1.0 - g.sup, mi.order - 1))


def _polydisk_first(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    j = mi.counts.index(1)
    return defect / (np.sqrt(1.0 - g.zabs2[:, j]) * np.sqrt(1.0 - g.sup2))


def _polydisk_mixed(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    w = [1.0 / np.sqrt(1.0 - g.zabs2[:, k - 1]) for k in mi.canonical_klist()]
    pair_sum = float_power(sum(w), 2) - sum(v * v for v in w)
    return math.factorial(mi.order - 2) * defect / float_power(1.0 - g.sup, mi.order - 1) * pair_sum


def _polydisk_two_var(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    n1, n2 = mi.counts
    d1, d2 = 1.0 - g.zabs2[:, 0], 1.0 - g.zabs2[:, 1]
    bracket = (n1 * n1 - n1) / d1 + 2.0 * n1 * n2 / np.sqrt(d1 * d2) + (n2 * n2 - n2) / d2
    return math.factorial(mi.order - 2) * defect / float_power(1.0 - g.sup, mi.order - 1) * bracket


def _ball_base(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    return defect / ((1.0 - g.eucl2) * float_power(1.0 - g.eucl, mi.order - 1))


def _ball_hat(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    hat_sum = sum(nj * np.sqrt(np.maximum(1.0 - g.hat2[:, j], 0.0)) for j, nj in enumerate(mi.counts))
    return math.factorial(mi.order - 1) * _ball_base(defect, g, mi) * hat_sum


def _ball_factorial(defect: np.ndarray, g: StackGeometry, mi: MultiIndex) -> np.ndarray:
    return mi.d ** ((mi.order - 1) / 2.0) * mi.factorial_product * _ball_base(defect, g, mi)


@dataclass(frozen=True)
class Variant:
    """One derivative bound: tag, domain, right-hand side, and where it
    applies: order >= ``min_order``, order == ``order`` and d == ``d`` when set."""

    tag: str
    domain: type
    rhs: Callable[[np.ndarray, StackGeometry, MultiIndex], np.ndarray]
    min_order: int = 1
    order: int | None = None
    d: int | None = None

    def unmet(self, mi: MultiIndex) -> str | None:
        """Why the bound does not apply at ``mi``; None when it does."""
        n = mi.order
        if self.d is not None and mi.d != self.d:
            return f"needs d = {self.d}, got d = {mi.d}"
        if self.order is not None and n != self.order:
            return f"needs order {self.order}, got {n}"
        if n < self.min_order:
            return f"needs order >= {self.min_order}, got {n}"
        return None

    def column(self, points: EvalStack | PolynomialStack, mi: MultiIndex) -> Column:
        """The bound at every point of an evaluated or polynomial stack."""
        return Column(self.tag, mi.counts, points.norms([mi])[0], self.rhs(points.defect, points.geometry, mi))

    def at(self, points: EvalStack | PolynomialStack, mi: MultiIndex) -> BoundReport:
        """The bound at the first point of an evaluated or polynomial stack."""
        return self.column(points, mi).report(0, tuple(points.zs[0].tolist()))


# Record order: campaigns and the CLI report the rows that apply in this order.
VARIANTS = (
    Variant("polydisk.factorial", Polydisk, _polydisk_factorial),
    Variant("polydisk.weak", Polydisk, _polydisk_weak),
    Variant("polydisk.first", Polydisk, _polydisk_first, order=1),
    Variant("polydisk.mixed", Polydisk, _polydisk_mixed, min_order=2),
    Variant("polydisk.two_var", Polydisk, _polydisk_two_var, min_order=2, d=2),
    Variant("ball.hat", Ball, _ball_hat),
    Variant("ball.factorial", Ball, _ball_factorial),
)


def applicable_variants(domain: type, mi: MultiIndex) -> list[Variant]:
    """The rows of :data:`VARIANTS` on ``domain`` that apply at ``mi``, in order."""
    return [v for v in VARIANTS if v.domain is domain and v.unmet(mi) is None]


_BY_NAME = {(v.domain, v.tag.partition(".")[2]): v for v in VARIANTS}


def _variant(domain: type, name: str, mi: MultiIndex) -> Variant:
    """The named row on ``domain``; ValueError if unknown or inapplicable at ``mi``."""
    row = _BY_NAME.get((domain, name))
    if row is None:
        known = tuple(n for dom, n in _BY_NAME if dom is domain)
        raise ValueError(f"unknown {domain.__name__.lower()} variant {name!r}; known: {known}")
    reason = row.unmet(mi)
    if reason is not None:
        raise ValueError(f"variant {name!r} {reason}")
    return row


def polydisk_rhs(defect: float, geom: PointGeometry, mi: MultiIndex, variant: str) -> float:
    """Right-hand side of the named polydisk inequality at one point (no evaluation)."""
    return float(_variant(Polydisk, variant, mi).rhs(np.array([defect]), StackGeometry(np.array([geom.z])), mi)[0])


def ball_rhs(defect: float, geom: PointGeometry, mi: MultiIndex, variant: str) -> float:
    """Right-hand side of the named ball inequality at one point (no evaluation)."""
    return float(_variant(Ball, variant, mi).rhs(np.array([defect]), StackGeometry(np.array([geom.z])), mi)[0])


def bound_polydisk(
    subject: Subject,
    z: Sequence[complex],
    alpha: Union[MultiIndex, Sequence[int]],
    variant: str,
) -> BoundReport:
    """Polydisk derivative bound for a colligation or polynomial subject."""
    return _bound(Polydisk, subject, z, MultiIndex.of(alpha), variant)


def bound_ball(
    subject: Subject,
    z: Sequence[complex],
    alpha: Union[MultiIndex, Sequence[int]],
    variant: str,
) -> BoundReport:
    """Ball derivative bound for a colligation or polynomial subject."""
    return _bound(Ball, subject, z, MultiIndex.of(alpha), variant)


def _bound(domain: type, subject: Subject, z: Sequence[complex], mi: MultiIndex, variant: str) -> BoundReport:
    row = _variant(domain, variant, mi)
    if not isinstance(subject, Colligation):
        return row.at(PolynomialStack(subject, domain.scalar(subject.dimension), z), mi)
    if not isinstance(subject.structure, domain):
        name = domain.__name__.lower()
        raise ValueError(f"{name} bounds need a {name} colligation")
    return row.at(evaluate(subject, z).stack, mi)


def ball_kernel_columns(ev: EvalStack) -> list[Column]:
    """Closed forms of the projected resolvent Gram norms on the ball, at
    every point of a stack.

    For the stacked structure, ||E_j* (I - ZZ*)^{-1} E_j|| equals
    1 / (1 - ||z||^2) and ||E_j (I - Z*Z)^{-1} E_j*|| equals
    (1 - ||z-hat_j||^2) / (1 - ||z||^2); both are equalities, so the
    reports should sit at ratio one.
    """
    if not isinstance(ev.col.structure, Ball):
        raise ValueError("kernel subchecks need a ball colligation")
    g = ev.geometry
    a2, b2 = float_power(ev.gram[:, 0], 2), float_power(ev.gram[:, 1], 2)
    out = []
    for j in range(ev.col.d):
        out.append(Column("ball.gram_left", (j + 1,), b2[:, j], 1.0 / (1.0 - g.eucl2)))
        out.append(Column("ball.gram_right", (j + 1,), a2[:, j], (1.0 - g.hat2[:, j]) / (1.0 - g.eucl2)))
    return out


def ball_kernel_subchecks(ctx: EvalContext) -> list[BoundReport]:
    """The :func:`ball_kernel_columns` reports at an evaluated point."""
    return [column.report(ctx.i, ctx.z) for column in ball_kernel_columns(ctx.stack)]


def wiener_columns(subject: Subject, orders: Orders) -> list[Column]:
    """Taylor coefficient bound ||c_alpha|| <= defect(c_0) for alpha != 0,
    as columns of one point, the origin.

    Coefficients are the partials at the origin divided by alpha!, from the
    realization or the polynomial.  For scalar subjects the defect is the
    classical 1 - |c_0|^2.  For a ball colligation the right-hand side is
    the defect times a sphere-average factor (see ``_sphere_factor``),
    which is 1 in one variable.
    """
    if isinstance(subject, Colligation):
        origin = evaluate(subject, np.zeros(subject.d)).stack
        on_ball = isinstance(subject.structure, Ball)
    else:
        structure = Polydisk.scalar(subject.dimension)
        origin, on_ball = PolynomialStack(subject, structure, np.zeros(structure.d)), False
    mis = [mi for mi in map(MultiIndex.of, orders) if mi.order > 0]
    return [
        Column("wiener.coefficient", mi.counts, norm / mi.factorial_product,
               origin.defect * _sphere_factor(mi) if on_ball else origin.defect)
        for mi, norm in zip(mis, origin.norms(mis))
    ]


def wiener_check(subject: Subject, orders: Orders) -> list[BoundReport]:
    """The :func:`wiener_columns` reports."""
    d = subject.d if isinstance(subject, Colligation) else subject.dimension
    return [column.report(0, (0j,) * d) for column in wiener_columns(subject, orders)]


def _sphere_factor(mi: MultiIndex) -> float:
    """prod_j Gamma(n_j/2 + 1) (d - 1 + n)! / (Gamma(n/2 + d) n_1! ... n_d!).

    The one-variable bound on each slice lambda -> phi(lambda zeta), |zeta| = 1,
    gives ||sum_{|alpha| = n} c_alpha zeta^alpha|| <= defect; pairing with
    conj(zeta)^alpha over the sphere bounds ||c_alpha|| by the defect times
    this ratio of the sphere integrals of |zeta^alpha| and |zeta^alpha|^2.
    """
    n, d = mi.order, mi.d
    gammas = math.prod(math.gamma(c / 2.0 + 1.0) for c in mi.counts)
    return gammas * math.factorial(d - 1 + n) / (math.gamma(n / 2.0 + d) * mi.factorial_product)


def knese_column(ev: EvalStack) -> Column:
    """Weighted first-order sum rule on the polydisk at every point of a
    stack: lhs sum_j (1 - |z_j|^2) |d phi / d z_j|, rhs the defect
    1 - |phi(z)|^2.

    It holds (up to rounding) for every scalar polydisk transfer function,
    with equality at every point for the symmetric extremal realizations
    with one-dimensional blocks.
    """
    col = ev.col
    if not isinstance(col.structure, Polydisk):
        raise ValueError("the sum rule applies to polydisk colligations")
    if col.dim_f != 1 or col.dim_g != 1:
        raise ValueError(
            f"the sum rule needs scalar phi, got dim_g x dim_f = {col.dim_g} x {col.dim_f}"
        )
    total = np.zeros(len(ev))
    for j in range(col.d):
        e_j = MultiIndex(tuple(int(k == j) for k in range(col.d)))
        total = total + (1.0 - ev.geometry.zabs2[:, j]) * ev.norms([e_j])[0]
    phi = ev.phi[:, 0, 0]
    rhs = 1.0 - float_power(np.hypot(phi.real, phi.imag), 2)
    return Column("knese.sum_rule", None, rhs + (total - rhs), rhs)


def knese_residual(ctx: EvalContext) -> float:
    """Signed residual lhs - rhs of the sum rule at an evaluated point;
    nonpositive up to rounding, zero at the extremal realizations."""
    rep = knese_report(ctx)
    return rep.lhs - rep.rhs


def knese_report(ctx: EvalContext) -> BoundReport:
    """The :func:`knese_column` report at an evaluated point."""
    return knese_column(ctx.stack).report(ctx.i, ctx.z)


def report_columns(
    ev: EvalStack, checks: Sequence[tuple[MultiIndex, Sequence[Variant]]]
) -> list[Column]:
    """Every report at each point of an evaluated stack, in record order: the
    resolvent estimates, the L bound, then the sum rule (scalar polydisk) or
    the ball kernel subchecks, then for each ``(mi, variants)`` of ``checks``
    the general bound, at order n >= 2 the K-operator bound
    ||K|| <= ||L||^(n-1) (times d^((n-1)/2) on the ball), and the
    ``variants`` at ``mi``."""
    col = ev.col
    on_ball = isinstance(col.structure, Ball)
    mis = [mi for mi, _ in checks]
    ev.norms(mis)  # every norm below is read from these two stacked SVDs
    ev.norms([mi for mi in mis if mi.order >= 2], kop=True)
    columns = resolvent_columns(ev) + [lnorm_column(ev)]
    if on_ball:
        columns += ball_kernel_columns(ev)
    elif col.dim_f == col.dim_g == 1:
        columns.append(knese_column(ev))
    for mi, variants in checks:
        columns.append(general_column(ev, mi))
        if mi.order >= 2:
            columns.append(Column(
                "koperator.ball" if on_ball else "koperator.polydisk", mi.counts, ev.norms([mi], kop=True)[0],
                (col.d ** ((mi.order - 1) / 2.0) if on_ball else 1) * float_power(ev.lnorm, mi.order - 1),
            ))
        columns.extend(variant.column(ev, mi) for variant in variants)
    return columns


def point_reports(
    ctx: EvalContext, checks: Sequence[tuple[MultiIndex, Sequence[Variant]]]
) -> Iterator[BoundReport]:
    """The :func:`report_columns` reports at an evaluated point, in record order."""
    for column in report_columns(ctx.stack, checks):
        yield column.report(ctx.i, ctx.z)


def multiplier_gram_psd(f, points: Sequence[Sequence[complex]]) -> float:
    """Minimum eigenvalue of the multiplier kernel Gram matrix on the ball.

    Entry (k, j) is (1 - f(z_k) conj(f(z_j))) / (1 - <z_k, z_j>) with the
    Euclidean inner product.  Nonnegative spectra characterize contractive
    multipliers of the kernel 1 / (1 - <z, w>); a negative eigenvalue
    certifies non-membership.  Points within 1e-12 of each other trigger a
    warning since they force the matrix toward degeneracy.  The points must
    have equal length; a :class:`Polynomial` ``f`` is evaluated at all of
    them in one stacked call, any other callable point by point.
    """
    pts = [tuple(complex(v) for v in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    for k, p in enumerate(pts):
        if len(p) != len(pts[0]):
            raise ValueError(f"points 0 and {k} have {len(pts[0])} and {len(p)} coordinates")
    zs = np.array(pts, dtype=np.complex128)
    admit(Ball.scalar(zs.shape[1]), zs)
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            if max(abs(a - b) for a, b in zip(pts[i], pts[k])) < 1e-12:
                warnings.warn(
                    f"points {i} and {k} coincide to 1e-12; Gram matrix is degenerate",
                    DegenerateGramWarning,
                    stacklevel=2,
                )
    if isinstance(f, Polynomial):
        values = poly_partial(f, zs, (0,) * f.dimension).tolist()
    else:
        values = [complex(f(p)) for p in pts]
    n = len(pts)
    gram = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            inner = sum(zk * np.conj(zj) for zk, zj in zip(pts[k], pts[j]))
            gram[k, j] = (1.0 - values[k] * np.conj(values[j])) / (1.0 - inner)
    gram = (gram + gram.conj().T) / 2.0
    return float(np.linalg.eigvalsh(gram)[0])
