"""Schwarz-Pick-type derivative bounds and kernel positivity checks.

Each ``bound_*`` function evaluates the right-hand side of one inequality
exactly as stated, computes the left-hand side (a derivative norm) from the
realization or a polynomial, and returns a :class:`BoundReport` carrying
lhs, rhs, slack, and sharpness ratio.  Checks on a colligation take the
point it was evaluated at (an :class:`EvalContext` from ``evaluate``);
``bound_polydisk``, ``bound_ball`` and ``wiener_check`` take the subject, a
colligation or a polynomial, and evaluate it themselves.

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
(``multiplier_gram_psd``).  :func:`point_reports` lists every report at an
evaluated point, with the rows that apply, for campaigns and the CLI alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .colligation import Ball, Colligation, DomainStructure, PointGeometry, Polydisk, admit
from .derivative import MultiIndex, Polynomial, poly_partial
from .errors import DegenerateGramWarning
from .reports import BoundReport
from .transfer import EvalContext, evaluate, lnorm_bound_check, resolvent_norm_estimates

__all__ = [
    "PointGeometry",
    "BoundReport",
    "PolynomialPoint",
    "Variant",
    "VARIANTS",
    "applicable_variants",
    "bound_general",
    "bound_polydisk",
    "bound_ball",
    "ball_kernel_subchecks",
    "wiener_check",
    "knese_residual",
    "knese_report",
    "point_reports",
    "multiplier_gram_psd",
]

Subject = Union[Colligation, Polynomial]
Orders = Sequence[Union[MultiIndex, Sequence[int]]]


class PolynomialPoint:
    """A polynomial subject at one point of ``structure``'s domain, admitted
    as ``evaluate`` admits one, and read like an :class:`EvalContext`."""

    def __init__(self, poly: Polynomial, structure: DomainStructure, z: Sequence[complex]):
        self.flags = admit(structure, z)
        self.poly = poly
        self.geometry = PointGeometry.from_point(z)
        self.z = self.geometry.z
        self.defect = 1.0 - abs(poly(self.geometry.z)) ** 2
        self._norms: dict[tuple[int, ...], float] = {}

    def norm(self, mi: MultiIndex) -> float:
        v = self._norms.get(mi.counts)
        if v is None:
            v = self._norms[mi.counts] = abs(poly_partial(self.poly, self.z, mi))
        return v

    def norms(self, mis: Sequence[MultiIndex]) -> list[float]:
        return [self.norm(mi) for mi in mis]


Point = Union[EvalContext, PolynomialPoint]


def bound_general(ctx: EvalContext, alpha: Union[MultiIndex, Sequence[int]]) -> BoundReport:
    """Structure-free resolvent bound on a mixed partial at an evaluated point.

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
    lhs = ctx.norm(mi)
    defect = ctx.defect
    a, b = ctx.gram
    znorm = ctx.znorm
    if mi.order == 1:
        j = ks[0]
        rhs = defect / math.sqrt(1.0 - znorm**2) * min(a[j - 1], b[j - 1])
        tag = "general.first_order"
    else:
        sum_a = sum(a[k - 1] for k in ks)
        sum_b = sum(b[k - 1] for k in ks)
        diag = sum(a[k - 1] * b[k - 1] for k in ks)
        pair_sum = sum_a * sum_b - diag
        rhs = (
            math.factorial(mi.order - 2)
            * defect
            / (1.0 - znorm) ** (mi.order - 1)
            * pair_sum
        )
        tag = "general.higher_order"
    return BoundReport(theorem_tag=tag, z=ctx.z, alpha=mi.counts, lhs=lhs, rhs=rhs)


# --- the derivative-bound variants ---------------------------------------------
#
# Right-hand sides as stated in the module docstring: (defect, geometry, mi).


def _polydisk_factorial(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    s = geom.sup_norm
    return mi.factorial_product * defect / ((1.0 - s**2) * (1.0 - s) ** (mi.order - 1))


def _polydisk_weak(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    s = geom.sup_norm
    return math.factorial(mi.order) * defect / ((1.0 - s**2) * (1.0 - s) ** (mi.order - 1))


def _polydisk_first(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    j = mi.counts.index(1)
    return defect / (math.sqrt(1.0 - abs(geom.z[j]) ** 2) * math.sqrt(1.0 - geom.sup_norm**2))


def _polydisk_mixed(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    w = [1.0 / math.sqrt(1.0 - abs(geom.z[k - 1]) ** 2) for k in mi.canonical_klist()]
    pair_sum = sum(w) ** 2 - sum(v * v for v in w)
    return math.factorial(mi.order - 2) * defect / (1.0 - geom.sup_norm) ** (mi.order - 1) * pair_sum


def _polydisk_two_var(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    n1, n2 = mi.counts
    d1 = 1.0 - abs(geom.z[0]) ** 2
    d2 = 1.0 - abs(geom.z[1]) ** 2
    bracket = (n1 * n1 - n1) / d1 + 2.0 * n1 * n2 / math.sqrt(d1 * d2) + (n2 * n2 - n2) / d2
    return math.factorial(mi.order - 2) * defect / (1.0 - geom.sup_norm) ** (mi.order - 1) * bracket


def _ball_base(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    t = geom.eucl_norm
    return defect / ((1.0 - t**2) * (1.0 - t) ** (mi.order - 1))


def _ball_hat(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    hat_sum = sum(
        nj * math.sqrt(max(1.0 - geom.hat_norms[j] ** 2, 0.0))
        for j, nj in enumerate(mi.counts)
    )
    return math.factorial(mi.order - 1) * _ball_base(defect, geom, mi) * hat_sum


def _ball_factorial(defect: float, geom: PointGeometry, mi: MultiIndex) -> float:
    return mi.d ** ((mi.order - 1) / 2.0) * mi.factorial_product * _ball_base(defect, geom, mi)


@dataclass(frozen=True)
class Variant:
    """One derivative bound: tag, domain, right-hand side, and where it
    applies: order >= ``min_order``, order == ``order`` and d == ``d`` when set."""

    tag: str
    domain: type
    rhs: Callable[[float, PointGeometry, MultiIndex], float]
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

    def applies(self, mi: MultiIndex) -> bool:
        return self.unmet(mi) is None

    def at(self, point: Point, mi: MultiIndex) -> BoundReport:
        """The bound at an evaluated point, or at a polynomial read the same way."""
        rhs_of = polydisk_rhs if self.domain is Polydisk else ball_rhs
        rhs = rhs_of(point.defect, point.geometry, mi, self.tag.partition(".")[2])
        return BoundReport(
            theorem_tag=self.tag, z=point.z, alpha=mi.counts,
            lhs=point.norm(mi), rhs=rhs,
        )


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
    return [v for v in VARIANTS if v.domain is domain and v.applies(mi)]


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
    """Right-hand side of the named polydisk inequality (no evaluation)."""
    return _variant(Polydisk, variant, mi).rhs(defect, geom, mi)


def ball_rhs(defect: float, geom: PointGeometry, mi: MultiIndex, variant: str) -> float:
    """Right-hand side of the named ball inequality (no evaluation)."""
    return _variant(Ball, variant, mi).rhs(defect, geom, mi)


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
        return row.at(PolynomialPoint(subject, domain.scalar(subject.dimension), z), mi)
    if not isinstance(subject.structure, domain):
        name = domain.__name__.lower()
        raise ValueError(f"{name} bounds need a {name} colligation")
    return row.at(evaluate(subject, z), mi)


def ball_kernel_subchecks(ctx: EvalContext) -> list[BoundReport]:
    """Closed forms of the projected resolvent Gram norms on the ball.

    For the stacked structure, ||E_j* (I - ZZ*)^{-1} E_j|| equals
    1 / (1 - ||z||^2) and ||E_j (I - Z*Z)^{-1} E_j*|| equals
    (1 - ||z-hat_j||^2) / (1 - ||z||^2); both are equalities, so the
    reports should sit at ratio one.
    """
    if not isinstance(ctx.col.structure, Ball):
        raise ValueError("kernel subchecks need a ball colligation")
    geom = ctx.geometry
    a, b = ctx.gram
    t2 = geom.eucl_norm**2
    out = []
    for j in range(ctx.col.d):
        out.append(BoundReport(
            theorem_tag="ball.gram_left",
            z=ctx.z, alpha=(j + 1,),
            lhs=b[j] ** 2,
            rhs=1.0 / (1.0 - t2),
        ))
        out.append(BoundReport(
            theorem_tag="ball.gram_right",
            z=ctx.z, alpha=(j + 1,),
            lhs=a[j] ** 2,
            rhs=(1.0 - geom.hat_norms[j] ** 2) / (1.0 - t2),
        ))
    return out


def wiener_check(subject: Subject, orders: Orders) -> list[BoundReport]:
    """Taylor coefficient bound ||c_alpha|| <= defect(c_0) for alpha != 0.

    Coefficients are the partials at the origin divided by alpha!, from the
    realization or the polynomial.  For scalar subjects the defect is the
    classical 1 - |c_0|^2.  For a ball colligation the right-hand side is
    the defect times a sphere-average factor (see ``_sphere_factor``),
    which is 1 in one variable.
    """
    if isinstance(subject, Colligation):
        point = evaluate(subject, (0.0,) * subject.d)
        on_ball = isinstance(subject.structure, Ball)
    else:
        structure = Polydisk.scalar(subject.dimension)
        point, on_ball = PolynomialPoint(subject, structure, (0.0,) * structure.d), False
    mis = [mi for mi in map(MultiIndex.of, orders) if mi.order > 0]
    return [
        BoundReport(
            theorem_tag="wiener.coefficient", z=point.z, alpha=mi.counts,
            lhs=norm / mi.factorial_product,
            rhs=point.defect * _sphere_factor(mi) if on_ball else point.defect,
        )
        for mi, norm in zip(mis, point.norms(mis))
    ]


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


def knese_residual(ctx: EvalContext) -> float:
    """Signed residual of the weighted first-order sum rule on the polydisk:

        sum_j (1 - |z_j|^2) |d phi / d z_j|  -  (1 - |phi(z)|^2).

    Nonpositive (up to rounding) for every scalar polydisk transfer
    function; zero at every point exactly for the symmetric extremal
    realizations with one-dimensional blocks.
    """
    col = ctx.col
    if not isinstance(col.structure, Polydisk):
        raise ValueError("the sum rule applies to polydisk colligations")
    if col.dim_f != 1 or col.dim_g != 1:
        raise ValueError(
            f"the sum rule needs scalar phi, got dim_g x dim_f = {col.dim_g} x {col.dim_f}"
        )
    total = 0.0
    for j in range(col.d):
        e_j = MultiIndex(tuple(int(k == j) for k in range(col.d)))
        total += (1.0 - abs(ctx.z[j]) ** 2) * ctx.norm(e_j)
    return total - (1.0 - abs(ctx.phi[0, 0]) ** 2)


def knese_report(ctx: EvalContext) -> BoundReport:
    """Sum-rule inequality as a report: lhs the weighted derivative sum,
    rhs the defect 1 - |phi|^2."""
    residual = knese_residual(ctx)
    rhs = 1.0 - abs(ctx.phi[0, 0]) ** 2
    return BoundReport(
        theorem_tag="knese.sum_rule", z=ctx.z, alpha=None,
        lhs=rhs + residual, rhs=rhs,
    )


def point_reports(
    ctx: EvalContext, checks: Sequence[tuple[MultiIndex, Sequence[Variant]]]
) -> Iterator[BoundReport]:
    """Every report at an evaluated point, in record order: the resolvent
    estimates, the L bound, then the sum rule (scalar polydisk) or the ball
    kernel subchecks, then for each ``(mi, variants)`` of ``checks`` the
    general bound, at order n >= 2 the K-operator bound ||K|| <= ||L||^(n-1)
    (times d^((n-1)/2) on the ball), and the ``variants`` at ``mi``."""
    col = ctx.col
    on_ball = isinstance(col.structure, Ball)
    mis = [mi for mi, _ in checks]
    ctx.norms(mis)  # every norm below is read from these two stacked SVDs
    ctx.norms([mi for mi in mis if mi.order >= 2], kop=True)
    yield from resolvent_norm_estimates(ctx)
    yield lnorm_bound_check(ctx)
    if on_ball:
        yield from ball_kernel_subchecks(ctx)
    elif col.dim_f == col.dim_g == 1:
        yield knese_report(ctx)
    for mi, variants in checks:
        yield bound_general(ctx, mi)
        if mi.order >= 2:
            yield BoundReport(
                theorem_tag="koperator.ball" if on_ball else "koperator.polydisk",
                z=ctx.z, alpha=mi.counts, lhs=ctx.norm(mi, kop=True),
                rhs=(col.d ** ((mi.order - 1) / 2.0) if on_ball else 1) * ctx.lnorm ** (mi.order - 1),
            )
        for variant in variants:
            yield variant.at(ctx, mi)


def multiplier_gram_psd(f, points: Sequence[Sequence[complex]]) -> float:
    """Minimum eigenvalue of the multiplier kernel Gram matrix on the ball.

    Entry (k, j) is (1 - f(z_k) conj(f(z_j))) / (1 - <z_k, z_j>) with the
    Euclidean inner product.  Nonnegative spectra characterize contractive
    multipliers of the kernel 1 / (1 - <z, w>); a negative eigenvalue
    certifies non-membership.  Points within 1e-12 of each other trigger a
    warning since they force the matrix toward degeneracy.
    """
    pts = [tuple(complex(v) for v in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    for p in pts:
        admit(Ball.scalar(len(p)), p)
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            if max(abs(a - b) for a, b in zip(pts[i], pts[k])) < 1e-12:
                warnings.warn(
                    f"points {i} and {k} coincide to 1e-12; Gram matrix is degenerate",
                    DegenerateGramWarning,
                    stacklevel=2,
                )
    values = [complex(f(p)) for p in pts]
    n = len(pts)
    gram = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            inner = sum(zk * np.conj(zj) for zk, zj in zip(pts[k], pts[j]))
            gram[k, j] = (1.0 - values[k] * np.conj(values[j])) / (1.0 - inner)
    gram = (gram + gram.conj().T) / 2.0
    return float(np.linalg.eigvalsh(gram)[0])
