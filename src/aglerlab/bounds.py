"""Schwarz-Pick-type derivative bounds and kernel positivity checks.

A check at a stack of points has the left-hand sides (derivative norms, from
the realization or a polynomial) and the right-hand sides of one inequality,
exactly as stated, one per point.  A derivative bound at k multi-indices is
one (m, k) block of each from one call, written into a :class:`ReportTable`
at its columns; the other checks are a :class:`Column` each.  A table's
columns are its ``keys``, the (tag, alpha) of each in record order.
A polynomial's norms take one stacked :func:`poly_partial` call per multi-index (:class:`PolynomialStack`).
Each check is one function of a stack: an :class:`aglerlab.transfer.EvalStack`
(``bound_general``, ``ball_kernel_subchecks``, ``knese_report``) or a stack
at the origin (``wiener_check``); at one point, pass ``ctx.stack`` and read
row ``ctx.i``.  ``bound_polydisk`` and ``bound_ball`` take a colligation or a
polynomial subject and one point of shape (d,), and return its :class:`BoundReport`:
the named variant's column of :func:`report_columns`, bit for bit a campaign's.

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
dimensions where each applies; no other module reads the table.  Also
checked: the structure-free resolvent bound (``bound_general``), the
weighted first-order sum rule on the polydisk (``knese_residual``), the
coefficient bound |c_alpha| <= 1 - |c_0|^2 (``wiener_check``, at a stack of
subjects' origins; on the ball times a sphere-average factor), and
positivity of the multiplier kernel Gram matrix on the ball
(``multiplier_gram_psd``, of one set of points or of a stack of sets).
:func:`report_columns` is the table of every report at a stack in record
order, and the stack decides which families apply: the rows of
:data:`VARIANTS` that apply at each multi-index on any stack, and the checks
that need the blocks A, B, C (resolvent, L, sum rule or kernel subchecks,
general and K-operator bounds) on an evaluated stack alone.
:func:`point_reports` is its row at one point.  Every power x^k is
``np.float_power(x, k)``, numpy's loop over libm ``pow``, the call Python's
``x ** k`` makes, so it has the bits of a one-point computation;
``np.power`` takes a vectorized path that can differ in the last bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .colligation import Ball, Colligation, DomainStructure, Polydisk, StackGeometry, admit
from .derivative import MultiIndex, Polynomial, _times, poly_partial
from .errors import DegenerateGramWarning
from .matrixcore import spectral_norm
from .reports import BoundReport, Column, ReportTable
from .transfer import EvalContext, EvalStack, _refuse, evaluate, lnorm_bound_check, resolvent_norm_estimates

__all__ = [
    "BoundReport",
    "Column",
    "PolynomialStack",
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
    "report_columns",
    "point_reports",
    "multiplier_gram_psd",
]

Subject = Union[Colligation, Polynomial]
Alpha = Union[MultiIndex, Sequence[int]]
_GENERAL, _KOPERATOR = "general", "koperator"  # the report families besides the VARIANTS rows


class PolynomialStack:
    """A polynomial subject at the points of an (m, d) stack (or at one point
    of shape (d,)) of ``structure``'s domain, admitted as ``evaluate`` admits
    them, and read like an :class:`EvalStack`: ``structure``, the ``geometry``
    that admission returns, its (m, d) points ``zs`` and per-point ``flags``, the
    ``defect`` column, and ``norms``.  The defect takes one stacked :func:`poly_partial`
    call, and so does each multi-index.  A defect or a norm that overflows is a
    domain violation naming its point, as on an :class:`EvalStack`."""

    def __init__(self, poly: Polynomial, structure: DomainStructure, zs):
        self.geometry = admit(structure, zs)
        self.poly, self.structure, self.zs, self.flags = poly, structure, self.geometry.zs, self.geometry.flags
        with np.errstate(over="ignore"):
            self.defect = 1.0 - np.float_power(self.norms([MultiIndex.of((0,) * poly.dimension)])[0], 2)
        _refuse(self.zs, ~np.isfinite(self.defect), "the defect of p is not finite")

    def norms(self, mis: Sequence[MultiIndex]) -> list[np.ndarray]:
        """Per multi-index of ``mis``, |d^n p / dz^mi| at every point (rounded
        as ``abs()`` of a Python complex)."""
        out = []
        for mi in mis:
            with np.errstate(over="ignore", invalid="ignore"):
                v = poly_partial(self.poly, self.zs, mi)
                out.append(np.hypot(v.real, v.imag))
            _refuse(self.zs, ~np.isfinite(out[-1]), f"partial d^{mi.order} p / dz^{list(mi.counts)} is not finite")
        return out


def bound_general(ev: EvalStack, mis: Sequence[MultiIndex]) -> np.ndarray:
    """Right-hand sides of the structure-free resolvent bound on the mixed
    partials of ``mis``, at every point of a stack: an (m, k) array.

    First order compares against defect / sqrt(1 - ||Z||^2) times the
    smaller projected Gram factor; order n >= 2 against

        (n-2)! defect / (1 - ||Z||)^(n-1)
            * sum_{p != q} a(k_p) b(k_q)

    with a, b the projected resolvent Gram factors per coordinate and
    (k_1, ..., k_n) the index list of the multi-index; the sum does not
    depend on the order of that list.
    """
    if any(mi.order < 1 for mi in mis):
        raise ValueError("bound_general needs order >= 1")
    a, b = ev.gram[:, 0], ev.gram[:, 1]
    first = [c for c, mi in enumerate(mis) if mi.order == 1]
    high = [c for c, mi in enumerate(mis) if mi.order > 1]
    js, his = [mis[c].counts.index(1) for c in first], [mis[c] for c in high]
    rhs = np.empty((len(ev), len(mis)))
    rhs[:, first] = (ev.defect / np.sqrt(1.0 - np.float_power(ev.znorm, 2)))[:, None] * np.minimum(a[:, js], b[:, js])
    sum_a, sum_b, diag = _klist_sums(his, a, b, a * b)
    rhs[:, high] = _pair_scale(ev.defect, ev.znorm, his) * (sum_a * sum_b - diag)
    return rhs


def _koperator_rhs(ev: EvalStack, mis: Sequence[MultiIndex]) -> np.ndarray:
    """(m, k) right-hand sides of ||K|| <= ||L||^(n-1), times d^((n-1)/2) on the ball."""
    d = ev.structure.d if isinstance(ev.structure, Ball) else 1
    powers = [mi.order - 1 for mi in mis]
    return np.array([d ** (n / 2.0) for n in powers]) * np.float_power(ev.lnorm[:, None], powers)


# --- the derivative-bound variants ---------------------------------------------
#
# Right-hand sides as stated in the module docstring: (defect column, StackGeometry,
# k multi-indices) -> (m, k) values, each by the float operations of one point and one mi.


def _klist_sums(mis: Sequence[MultiIndex], *values: np.ndarray) -> list[np.ndarray]:
    """Per (m, d) array v of ``values``, the (m, k) sums of v[:, k - 1] over each klist of ``mis``, added
    from the left with one rounding per term; + 0.0 pads a shorter klist, exact as every term is >= 0.
    ``index[p, c]`` is entry p of the klist of mis[c], minus 1, or d (a zero column) past its end."""
    m, d = values[0].shape
    ends = np.cumsum(np.array([mi.counts for mi in mis], dtype=int).reshape(len(mis), d), axis=1)
    index = (ends <= np.arange(max((mi.order for mi in mis), default=0))[:, None, None]).sum(axis=2)
    return [sum(np.concatenate([v, np.zeros((m, 1))], axis=1)[:, index].transpose(1, 0, 2), np.zeros((m, len(mis))))
            for v in values]


def _power_base(g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:  # (1 - s^2)(1 - s)^(n-1), s the norm
    return (1.0 - g.norm2)[:, None] * np.float_power(1.0 - g.norm[:, None], [mi.order - 1 for mi in mis])


def _pair_scale(defect: np.ndarray, s: np.ndarray, mis: Sequence[MultiIndex]) -> np.ndarray:
    """(n-2)! D / (1 - s)^(n-1) per point and multi-index, for a norm column s."""
    scale = np.array([math.factorial(mi.order - 2) for mi in mis], float) * defect[:, None]
    return scale / np.float_power(1.0 - s[:, None], [mi.order - 1 for mi in mis])


def _polydisk_factorial(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    return np.array([mi.factorial_product for mi in mis], float) * defect[:, None] / _power_base(g, mis)


def _polydisk_weak(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    return np.array([math.factorial(mi.order) for mi in mis], float) * defect[:, None] / _power_base(g, mis)


def _polydisk_first(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    js = [mi.counts.index(1) for mi in mis]
    return defect[:, None] / (np.sqrt(1.0 - g.zabs2[:, js]) * np.sqrt(1.0 - g.norm2)[:, None])


def _polydisk_mixed(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    w = 1.0 / np.sqrt(1.0 - g.zabs2)
    w_sum, w2_sum = _klist_sums(mis, w, w * w)
    return _pair_scale(defect, g.norm, mis) * (np.float_power(w_sum, 2) - w2_sum)


def _polydisk_two_var(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    n1, n2 = np.array([mi.counts for mi in mis], float).reshape(len(mis), 2).T
    d1, d2 = 1.0 - g.zabs2[:, :1], 1.0 - g.zabs2[:, 1:]
    bracket = (n1 * n1 - n1) / d1 + 2.0 * n1 * n2 / np.sqrt(d1 * d2) + (n2 * n2 - n2) / d2
    return _pair_scale(defect, g.norm, mis) * bracket


def _ball_hat(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    roots = np.sqrt(np.maximum(1.0 - g.hat2, 0.0))
    counts = np.array([mi.counts for mi in mis], float).reshape(len(mis), roots.shape[1])
    hat_sum = sum((counts[:, j] * roots[:, j:j + 1] for j in range(roots.shape[1])), np.zeros((len(defect), len(mis))))
    base = defect[:, None] / _power_base(g, mis)
    return np.array([math.factorial(mi.order - 1) for mi in mis], float) * base * hat_sum


def _ball_factorial(defect: np.ndarray, g: StackGeometry, mis: Sequence[MultiIndex]) -> np.ndarray:
    scale = np.array([mi.d ** ((mi.order - 1) / 2.0) * mi.factorial_product for mi in mis])
    return scale * (defect[:, None] / _power_base(g, mis))


@dataclass(frozen=True, eq=False)
class Variant:
    """One derivative bound: tag, domain, right-hand side, and where it
    applies: order >= ``min_order``, order == ``order`` and d == ``d`` when set.
    Rows compare and hash by identity."""

    tag: str
    domain: type
    rhs: Callable[[np.ndarray, StackGeometry, Sequence[MultiIndex]], np.ndarray]
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


def _rhs(domain: type, defect: float, z: Sequence[complex], mi: MultiIndex, variant: str) -> float:
    """The named row's rhs at one point, which ``admit`` measures; refuses a multi-index of another length."""
    if mi.d != len(z):
        raise ValueError(f"multi-index has d={mi.d}, point has d={len(z)}")
    if not math.isfinite(defect):
        raise ValueError(f"defect must be finite, got {defect!r}")
    return float(_variant(domain, variant, mi).rhs(np.array([defect]), admit(domain.scalar(len(z)), z), [mi])[0, 0])


def polydisk_rhs(defect: float, z: Sequence[complex], mi: MultiIndex, variant: str) -> float:
    """Right-hand side of the named polydisk inequality at the admitted point ``z``, a finite defect given."""
    return _rhs(Polydisk, defect, z, mi, variant)


def ball_rhs(defect: float, z: Sequence[complex], mi: MultiIndex, variant: str) -> float:
    """Right-hand side of the named ball inequality at the admitted point ``z``, a finite defect given."""
    return _rhs(Ball, defect, z, mi, variant)


def bound_polydisk(subject: Subject, z: Sequence[complex], alpha: Alpha, variant: str) -> BoundReport:
    """Polydisk derivative bound for a colligation or polynomial subject at one point of shape (d,)."""
    return _bound(Polydisk, subject, z, MultiIndex.of(alpha), variant)


def bound_ball(subject: Subject, z: Sequence[complex], alpha: Alpha, variant: str) -> BoundReport:
    """Ball derivative bound for a colligation or polynomial subject at one point of shape (d,)."""
    return _bound(Ball, subject, z, MultiIndex.of(alpha), variant)


def _bound(domain: type, subject: Subject, z: Sequence[complex], mi: MultiIndex, variant: str) -> BoundReport:
    row = _variant(domain, variant, mi)
    if np.ndim(z) != 1:
        raise ValueError(f"a bound takes one point of shape (d,), got an array of shape {np.shape(z)}")
    if not isinstance(subject, Colligation):
        points = PolynomialStack(subject, domain.scalar(subject.dimension), z)
    elif isinstance(subject.structure, domain):
        points = evaluate(subject, z).stack
    else:
        name = domain.__name__.lower()
        raise ValueError(f"{name} bounds need a {name} colligation")
    return next(_row(points, 0, [mi], row.tag))


def ball_kernel_subchecks(ev: EvalStack) -> list[Column]:
    """Closed forms of the projected resolvent Gram norms on the ball, at
    every point of a stack.

    For the stacked structure, ||E_j* (I - ZZ*)^{-1} E_j|| equals
    1 / (1 - ||z||^2) and ||E_j (I - Z*Z)^{-1} E_j*|| equals
    (1 - ||z-hat_j||^2) / (1 - ||z||^2); both are equalities, so the
    reports should sit at ratio one.
    """
    if not isinstance(ev.structure, Ball):
        raise ValueError("kernel subchecks need a ball colligation")
    g = ev.geometry
    a2, b2 = np.float_power(ev.gram[:, 0], 2), np.float_power(ev.gram[:, 1], 2)
    out = []
    for j in range(ev.structure.d):
        out.append(Column("ball.gram_left", (j + 1,), b2[:, j], 1.0 / (1.0 - g.norm2)))
        out.append(Column("ball.gram_right", (j + 1,), a2[:, j], (1.0 - g.hat2[:, j]) / (1.0 - g.norm2)))
    return out


def wiener_check(origin: EvalStack | PolynomialStack, orders: Sequence[Alpha]) -> list[Column]:
    """Taylor coefficient bound ||c_alpha|| <= defect(c_0) for alpha != 0,
    at each row of a stack evaluated at the origin, one row per subject.

    Coefficients are the partials at the origin divided by alpha!, from the
    realization or the polynomial.  For scalar subjects the defect is the
    classical 1 - |c_0|^2.  For a ball colligation the right-hand side is
    the defect times a sphere-average factor (see ``_sphere_factor``),
    which is 1 in one variable.
    """
    on_ball = isinstance(origin.structure, Ball)
    mis = [mi for mi in map(MultiIndex.of, orders) if mi.order > 0]
    if not mis:
        return []
    lhs = np.stack(origin.norms(mis), axis=1) / np.array([mi.factorial_product for mi in mis], float)
    rhs = origin.defect[:, None] * np.array([_sphere_factor(mi) if on_ball else 1 for mi in mis], float)
    return [Column("wiener.coefficient", mi.counts, lhs[:, c], rhs[:, c]) for c, mi in enumerate(mis)]


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


def knese_report(ev: EvalStack) -> Column:
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
    units = [MultiIndex(tuple(int(k == j) for k in range(col.d))) for j in range(col.d)]
    total = sum(((1.0 - ev.geometry.zabs2[:, j]) * norm for j, norm in enumerate(ev.norms(units))), np.zeros(len(ev)))
    phi = ev.phi[:, 0, 0]
    rhs = 1.0 - np.float_power(np.hypot(phi.real, phi.imag), 2)
    return Column("knese.sum_rule", None, rhs + (total - rhs), rhs)


def knese_residual(ctx: EvalContext) -> float:
    """Signed residual lhs - rhs of the sum rule at an evaluated point;
    nonpositive up to rounding, zero at the extremal realizations."""
    column = knese_report(ctx.stack)
    return float(column.lhs[ctx.i]) - float(column.rhs[ctx.i])


def report_columns(points: EvalStack | PolynomialStack, mis: Sequence[MultiIndex],
                   lead: Sequence[Column] = ()) -> ReportTable:
    """The table of every report at each point of an evaluated or polynomial stack, in record order: the
    ``lead`` columns (a fuzz campaign's identity pair); on an evaluated stack the resolvent estimates, the L
    bound, then the sum rule (scalar polydisk) or the ball kernel subchecks; then for each multi-index of
    ``mis``, on an evaluated stack the general bound and at order n >= 2 the K-operator bound
    ||K|| <= ||L||^(n-1) (times d^((n-1)/2) on the ball), and on either stack the rows of :data:`VARIANTS`
    that apply at it.  Each family (either bound, each row) is one (m, k) lhs and rhs block from one call."""
    realized, domain = isinstance(points, EvalStack), type(points.structure)
    small = list(lead)
    if realized:
        small += [*resolvent_norm_estimates(points), lnorm_bound_check(points)]
        if domain is Ball:
            small += ball_kernel_subchecks(points)
        elif points.col.dim_f == points.col.dim_g == 1:
            small.append(knese_report(points))
    keys, families, at = [(c.tag, c.alpha) for c in small], {}, {}  # at: per (order, d), its families and tags
    for c, mi in enumerate(mis):
        if (members := at.get((mi.order, mi.d))) is None:  # what applies depends on the order and d alone
            members = at[mi.order, mi.d] = []
            if realized:
                members.append((_GENERAL, "general.first_order" if mi.order == 1 else "general.higher_order"))
                if mi.order >= 2:
                    members.append((_KOPERATOR, f"koperator.{points.structure.kind}"))
            members += [(v, v.tag) for v in applicable_variants(domain, mi)]
        for family, tag in members:  # per family: its multi-indices, their places in mis, and its columns
            sub, take, put = families.setdefault(family, ([], [], []))
            sub.append(mi)
            take.append(c)
            put.append(len(keys))
            keys.append((tag, mi.counts))
    lhs, rhs = np.empty((len(points.zs), len(keys))), np.empty((len(points.zs), len(keys)))
    for p, column in enumerate(small):
        lhs[:, p], rhs[:, p] = column.lhs, column.rhs
    norms = np.array(points.norms(mis), dtype=float).reshape(len(mis), len(points.zs)).T
    for family, (sub, take, put) in families.items():
        if family is _KOPERATOR:  # ||K|| <= ||L||^(n-1)
            lhs[:, put], rhs[:, put] = spectral_norm(points.kops(sub)), _koperator_rhs(points, sub)
        else:
            lhs[:, put] = norms[:, take]
            rhs[:, put] = (bound_general(points, sub) if family is _GENERAL
                           else family.rhs(points.defect, points.geometry, sub))
    return ReportTable(tuple(keys), {p: c.flags for p, c in enumerate(small) if c.flags is not None}, lhs, rhs)


def _row(points: EvalStack | PolynomialStack, i: int, mis: Sequence[MultiIndex], tag=None) -> Iterator[BoundReport]:
    """Row ``i`` of the :func:`report_columns` table at ``points`` as reports in record order, or those of
    ``tag``: the one reader of a point's reports, behind ``point_reports``, ``bound_polydisk`` and ``bound_ball``."""
    table, z = report_columns(points, mis), tuple(points.zs[i].tolist())
    for (key, alpha), lhs, rhs in zip(table.keys, table.lhs[i].tolist(), table.rhs[i].tolist()):
        if tag in (None, key):
            yield BoundReport(key, z, alpha, lhs, rhs)


def point_reports(ctx: EvalContext, mis: Sequence[MultiIndex]) -> Iterator[BoundReport]:
    """The :func:`report_columns` reports at an evaluated point, in record order: its row of the table."""
    return _row(ctx.stack, ctx.i, mis)


def multiplier_gram_psd(f, points) -> float | np.ndarray:
    """Minimum eigenvalue of the multiplier kernel Gram matrix on the ball, of
    an (m, d) set of points, or per set of an (n, m, d) stack of n sets.

    Entry (k, j) is (1 - f(z_k) conj(f(z_j))) / (1 - <z_k, z_j>) with the
    Euclidean inner product.  Nonnegative spectra characterize contractive
    multipliers of the kernel 1 / (1 - <z, w>); a negative eigenvalue
    certifies non-membership.  Points of a set within 1e-12 of each other
    trigger a warning since they force the matrix toward degeneracy.  A set
    is an array or list of points of equal length, a stack one of sets.  A
    :class:`Polynomial` ``f`` takes one :func:`poly_partial` call for the
    stack, any other callable one call per point, and the n matrices one
    ``eigvalsh`` call; each set's value has the bits of its own call.
    """
    if not isinstance(points, np.ndarray) and all(np.ndim(p) == 1 for p in points):  # a list of points: one set
        points = [tuple(complex(v) for v in p) for p in points]
        for k, p in enumerate(points):
            if len(p) != len(points[0]):
                raise ValueError(f"points 0 and {k} have {len(points[0])} and {len(p)} coordinates")
    sets = np.array(points, dtype=np.complex128)
    sets = sets[None] if (single := sets.ndim == 2) else sets
    if sets.ndim != 3 or not sets.size:
        raise ValueError(f"need an (m, d) set or an (n, m, d) stack of points, m >= 1; got shape {sets.shape}")
    flat = admit(Ball.scalar(sets.shape[-1]), sets).zs
    diff = sets[:, :, None] - sets[:, None]
    for s, i, k in zip(*np.nonzero(np.triu(np.hypot(diff.real, diff.imag).max(axis=-1) < 1e-12, 1))):
        where = "" if single else f"point set {s}: "
        warnings.warn(f"{where}points {i} and {k} coincide to 1e-12; Gram matrix is degenerate",
                      DegenerateGramWarning, stacklevel=2)
    values = (poly_partial(f, flat, (0,) * f.dimension) if isinstance(f, Polynomial)
              else np.array([complex(f(tuple(p))) for p in flat.tolist()])).reshape(sets.shape[:2])
    re, im = sets.real, sets.imag  # products by parts, as Python's complex *; numpy's array * can round apart
    inner = (0.0, 0.0)
    for c in range(sets.shape[-1]):
        term = _times((re[:, :, None, c], im[:, :, None, c]), (re[:, None, :, c], -im[:, None, :, c]))
        inner = (inner[0] + term[0], inner[1] + term[1])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below: f not finite, or too large to square
        ff = _times((values.real[:, :, None], values.imag[:, :, None]), (values.real[:, None], -values.imag[:, None]))
        gram, den = np.empty((2,) + ff[0].shape, dtype=np.complex128)
        gram.real, gram.imag, den.real, den.imag = 1.0 - ff[0], 0.0 - ff[1], 1.0 - inner[0], 0.0 - inner[1]
        gram /= den
    bad = np.flatnonzero(~np.isfinite(gram).all(axis=(1, 2)))
    if bad.size:
        where = "" if single else f" of point set {bad[0]}"
        raise ValueError(f"the Gram matrix{where} is not finite: f = {values[bad[0]].tolist()} at its points")
    low = np.linalg.eigvalsh((gram + gram.conj().swapaxes(-1, -2)) / 2.0)[:, 0]
    return float(low[0]) if single else low
