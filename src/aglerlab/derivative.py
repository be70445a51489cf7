"""Exact higher-order partial derivatives from the realization.

For a unitary colligation with linear pencil Z(z), first-order partials of
the transfer function are

    d phi / d z_j = C (I - ZA)^{-1} E_j (I - AZ)^{-1} B,

and an order-n mixed partial with per-coordinate multiplicities
(n_1, ..., n_d) equals

    n_1! ... n_d! * C (I - ZA)^{-1} K (I - AZ)^{-1} B,

where K sums the alternating products E_{j_1} L E_{j_2} L ... L E_{j_n}
over all distinct arrangements (j_1, ..., j_n) of the multiset holding
each coordinate symbol j with multiplicity n_j, and L = A (I - ZA)^{-1}.
Every K at a point comes from the same L, so an evaluated stack of points
(:class:`aglerlab.transfer.EvalStack`) builds them all in one sweep of the
recursion over sub-multisets and reuses its resolvents for every partial;
:func:`partial` and :func:`partial_at` read from it.  Direct
enumeration of the arrangements (:func:`koperator`) and the raw sum over
all n! permutations of an index list (:func:`partial_permsum`) are kept
only as oracles for that sweep (both are exponentially more expensive).

Two independent differentiation oracles close the loop: iterated Cauchy
coefficient extraction by trapezoid quadrature on circles (exponentially
accurate for analytic functions), and exact symbolic differentiation of
polynomials.  The symbolic partial :func:`poly_partial` is also how the
bounds differentiate a polynomial subject: it takes one point or an (m, d)
stack, and on a stack gives every point the bits of the scalar loop.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .colligation import Colligation, DomainStructure, _dimensions, admit, projections
from .errors import ComplexityError
from .tolerances import ADMISSIBILITY_MARGIN
from .transfer import EvalContext, evaluate

__all__ = [
    "MultiIndex",
    "Polynomial",
    "arrangements",
    "koperator",
    "partial",
    "partial_at",
    "partial_permsum",
    "cauchy_partial",
    "cauchy_coefficient_table",
    "default_radii",
    "check_samples",
    "poly_partial",
    "kaijser_varopoulos",
    "alpay_kaptanoglu",
]

PERMSUM_TERM_LIMIT = 10**7
# Largest Cauchy-oracle grid, samples**d points (about 300 MB of peak memory).
CAUCHY_GRID_LIMIT = 2**20
# Largest truncation order of alpay_kaptanoglu.  At the default campaign size an exploration took 1.0 s at
# m = 1000 and 4.7 s at m = 2000 on a 2-vCPU VM; m = 10^8 would build 10^8 coefficients before its first draw.
SERIES_ORDER_LIMIT = 1000


@dataclass(frozen=True)
class MultiIndex:
    """Per-coordinate derivative multiplicities (n_1, ..., n_d), each an
    integer (a float or a bool is refused).  Its ``order`` n_1 + ... + n_d is
    fixed when it is made, and ``factorial_product`` n_1! ... n_d! on first
    use; ``counts`` is its one field."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _dimensions(self.counts, "multi-index entries")
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"multi-index entries must be >= 0, got {counts}")
        object.__setattr__(self, "order", sum(counts))

    @functools.cached_property
    def factorial_product(self) -> int:
        return math.prod(map(math.factorial, self.counts))

    @classmethod
    def of(cls, alpha: Union["MultiIndex", Sequence[int]]) -> "MultiIndex":
        return alpha if isinstance(alpha, MultiIndex) else cls(tuple(alpha))

    @classmethod
    def from_klist(cls, klist: Sequence[int], d: int) -> "MultiIndex":
        """Multiplicities of the 1-based coordinate symbols in ``klist``."""
        ks = _dimensions(klist, "index list symbols")
        if any(not 1 <= k <= d for k in ks):
            raise ValueError(f"index list {ks} has symbols outside 1..{d}")
        return cls(tuple(ks.count(j) for j in range(1, d + 1)))

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def multinomial(self) -> int:
        return math.factorial(self.order) // self.factorial_product

    def canonical_klist(self) -> tuple[int, ...]:
        """(1, ..., 1, 2, ..., 2, ...) with symbol j repeated counts[j-1] times."""
        out: list[int] = []
        for j, c in enumerate(self.counts, start=1):
            out.extend([j] * c)
        return tuple(out)


def arrangements(alpha: Union[MultiIndex, Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """All distinct arrangements of the multiset behind ``alpha``.

    Symbol j (1-based) appears exactly alpha[j-1] times in each tuple; the
    tuples come out in lexicographic order and there are exactly
    multinomial(n; n_1, ..., n_d) of them.  The zero multi-index yields an
    empty sequence.
    """
    mi = MultiIndex.of(alpha)
    remaining = list(mi.counts)
    prefix: list[int] = []
    out: list[tuple[int, ...]] = []

    def descend():
        if len(prefix) == mi.order:
            out.append(tuple(prefix))
            return
        for j in range(mi.d):
            if remaining[j]:
                remaining[j] -= 1
                prefix.append(j + 1)
                descend()
                prefix.pop()
                remaining[j] += 1

    if mi.order:
        descend()
    return tuple(out)


def _chain_product(es: Sequence[np.ndarray], lmat: np.ndarray, arrangement: Sequence[int]) -> np.ndarray:
    """E_{j_1} L E_{j_2} L ... L E_{j_n} for one arrangement."""
    prod = es[arrangement[-1] - 1]
    for j in reversed(arrangement[:-1]):
        prod = es[j - 1] @ (lmat @ prod)
    return prod


def koperator(ctx: EvalContext, alpha: Union[MultiIndex, Sequence[int]]) -> np.ndarray:
    """Arrangement sum K = sum E_{j_1} L E_{j_2} L ... L E_{j_n} at ``ctx``,
    by direct enumeration of the distinct arrangements.

    Needs order n >= 2; the output maps K -> H (shape dim_h x dim_k).  This
    is the oracle for ``EvalStack.kops``, which gets the same sum from the
    sub-multiset recursion, one stacked product per order and coordinate.
    """
    mi = MultiIndex.of(alpha)
    if mi.order < 2:
        raise ValueError(f"koperator needs order >= 2, got {mi.order}")
    if mi.d != ctx.col.d:
        raise ValueError(f"multi-index has d={mi.d}, colligation has d={ctx.col.d}")
    total = np.zeros((ctx.col.dim_h, ctx.col.dim_k), dtype=np.complex128)
    for arrangement in arrangements(mi):
        total += _chain_product(projections(ctx.col.structure), ctx.lmat, arrangement)
    return total


def partial_at(ctx: EvalContext, alpha: Union[MultiIndex, Sequence[int]]) -> np.ndarray:
    """Mixed partial of phi at an already evaluated context."""
    return ctx.partial(MultiIndex.of(alpha))


def partial(col: Colligation, z: Sequence[complex], alpha: Union[MultiIndex, Sequence[int]]) -> np.ndarray:
    """Exact mixed partial d^n phi / dz^alpha at ``z`` from the realization.

    Order 0 returns phi(z) itself; the output always has shape
    (dim_g x dim_f).
    """
    return partial_at(evaluate(col, z), alpha)


def partial_permsum(col: Colligation, z: Sequence[complex], klist: Sequence[int]) -> np.ndarray:
    """Mixed partial via the full n!-term permutation sum (cross-check path).

    ``klist`` holds 1-based coordinate symbols; it is canonicalized to
    sorted order first (the sum is order-invariant).  Index lists whose
    factorial exceeds the term budget are refused.
    """
    ks = tuple(sorted(_dimensions(klist, "index list symbols")))
    n = len(ks)
    if n < 2:
        raise ValueError(f"permutation sum needs order >= 2, got {n}")
    if math.factorial(n) > PERMSUM_TERM_LIMIT:
        raise ComplexityError(
            f"{n}! = {math.factorial(n)} terms exceeds the budget of {PERMSUM_TERM_LIMIT}"
        )
    MultiIndex.from_klist(ks, col.d)  # validates the symbols
    ctx = evaluate(col, z)
    total = np.zeros((col.dim_h, col.dim_k), dtype=np.complex128)
    for sigma in itertools.permutations(range(n)):
        total += _chain_product(projections(ctx.col.structure), ctx.lmat, [ks[i] for i in sigma])
    return col.C @ ctx.r_ha @ total @ ctx.r_ka @ col.B


# --- polynomials and the symbolic oracle -------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in d >= 1 complex variables, stored as multi-index ->
    coefficient.  Every coefficient must be finite; a call evaluates it at a
    point or at each point of an (m, d) stack (see :func:`poly_partial`)."""

    dimension: int
    coeffs: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        object.__setattr__(self, "dimension", _dimensions((self.dimension,), "dimension")[0])
        if self.dimension < 1:
            raise ValueError(f"a polynomial needs dimension >= 1, got {self.dimension}")
        clean = {}
        for key, val in self.coeffs.items():
            k = _dimensions(key, "exponents")
            if len(k) != self.dimension or any(e < 0 for e in k):
                raise ValueError(f"bad exponent tuple {key} for dimension {self.dimension}")
            val = complex(val)
            if not cmath.isfinite(val):
                raise ValueError(f"coefficient of {k} is not finite: {val!r}")
            if val != 0:
                clean[k] = val
        object.__setattr__(self, "coeffs", clean)

    def __call__(self, z):
        return poly_partial(self, z, (0,) * self.dimension)

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over points of shape (m, d)."""
        pts = np.asarray(points, dtype=np.complex128)
        out = np.zeros(pts.shape[0], dtype=np.complex128)
        for exps, coeff in self.coeffs.items():
            term = np.full(pts.shape[0], coeff, dtype=np.complex128)
            for j, e in enumerate(exps):
                if e:
                    term = term * pts[:, j] ** e
            out += term
        return out


def _times(a: tuple, b: tuple) -> tuple:
    """(a_re + i a_im)(b_re + i b_im) from float64 parts (arrays or floats),
    as CPython forms a complex product; numpy's complex ``*`` may round
    differently (vectorized loops)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def poly_partial(p: Polynomial, z, alpha: Union[MultiIndex, Sequence[int]]):
    """Exact symbolic mixed partial of a polynomial at the point ``z`` (a
    complex), or at each point of an (m, d) stack ``z`` (an (m,) complex array).

    One loop over the coefficients serves the whole stack.  Each value is
    formed from float64 real and imaginary parts in the order of the scalar
    loop over Python complexes, so it has the same bits: per coefficient c
    with exponents e, ``term = c``, then per coordinate ``term *=
    e_j!/(e_j - a_j)!`` and ``term *= z_j ** (e_j - a_j)``, where Python's
    ``**`` is binary powering from 1 (``x**3 = (1 x) (x x)``); then ``total +=
    term``.
    """
    mi = MultiIndex.of(alpha)
    if mi.d != p.dimension:
        raise ValueError(f"multi-index has d={mi.d}, polynomial has d={p.dimension}")
    zs = np.asarray(z, dtype=np.complex128)
    if zs.ndim not in (1, 2):
        raise ValueError(f"need a point or an (m, d) stack of points, got shape {zs.shape}")
    if zs.shape[-1] != p.dimension:
        raise ValueError(f"point has {zs.shape[-1]} coordinates, polynomial has {p.dimension}")
    stack = zs.reshape(-1, p.dimension)
    squares = [[(stack[:, j].real, stack[:, j].imag)] for j in range(p.dimension)]
    powers: dict[tuple[int, int], tuple] = {}

    def power(j: int, k: int) -> tuple:
        """z_j ** k as CPython's complex power: the product, from 1, of the
        squarings z_j^(2^b) at the set bits b of k, low bit first (for k up to
        100; above that CPython takes the polar form, so Python's ``**`` is used)."""
        if (j, k) not in powers and k > 100:
            v = np.array([x ** k for x in stack[:, j].tolist()], dtype=np.complex128)
            powers[j, k] = (v.real, v.imag)
        if (j, k) not in powers:
            sq, acc = squares[j], (1.0, 0.0)
            while len(sq) < k.bit_length():
                sq.append(_times(sq[-1], sq[-1]))
            for b in range(k.bit_length()):
                if k >> b & 1:
                    acc = _times(acc, sq[b])
            powers[j, k] = acc
        return powers[j, k]

    total = (np.zeros(len(stack)), np.zeros(len(stack)))
    for exps, coeff in p.coeffs.items():
        if any(e < a for e, a in zip(exps, mi.counts)):
            continue
        term = (coeff.real, coeff.imag)
        for j, (e, a) in enumerate(zip(exps, mi.counts)):
            term = _times(term, (float(math.factorial(e) // math.factorial(e - a)), 0.0))
            term = _times(term, power(j, e - a))
        total = (total[0] + term[0], total[1] + term[1])
    out = np.empty(len(stack), dtype=np.complex128)
    out.real, out.imag = total
    return complex(out[0]) if zs.ndim == 1 else out


def kaijser_varopoulos() -> Polynomial:
    """Degree-2 polynomial in 3 variables, bounded by one on the tridisk
    but outside the Schur-Agler class there:
    (z1^2 + z2^2 + z3^2 - 2 z1 z2 - 2 z1 z3 - 2 z2 z3) / 5.
    """
    c = 1.0 / 5.0
    return Polynomial(3, {
        (2, 0, 0): c, (0, 2, 0): c, (0, 0, 2): c,
        (1, 1, 0): -2 * c, (1, 0, 1): -2 * c, (0, 1, 1): -2 * c,
    })


def alpay_kaptanoglu(m: int) -> Polynomial:
    """z1 + c_1 z2^2 + ... + c_m z2^(2m) on the two-variable ball, with the
    c_k taken from the series 1 - sqrt(1 - t) = sum c_k t^k.

    Schur class on the ball for every m >= 1, but not a contractive
    multiplier of the Arveson space.
    """
    (m,) = _dimensions((m,), "truncation order")
    if not 1 <= m <= SERIES_ORDER_LIMIT:
        raise ValueError(f"truncation order must be in 1..{SERIES_ORDER_LIMIT}, got {m}")
    coeffs: dict[tuple[int, ...], complex] = {(1, 0): 1.0}
    c = 0.5
    for k in range(1, m + 1):
        coeffs[(0, 2 * k)] = c
        c *= (2 * k - 1) / (2 * k + 2)
    return Polynomial(2, coeffs)


# --- Cauchy quadrature oracle -------------------------------------------------


def default_radii(structure: DomainStructure, z: Sequence[complex]) -> tuple[float, ...]:
    """Circle radii for the Cauchy oracle at the admissible point ``z``: per
    axis, min(0.1, half of how far |z_j| may grow before the domain norm
    reaches one), read from the moduli and norm of the geometry that
    :func:`aglerlab.colligation.admit` returns, as every bound reads them.

    On the ball that torus can still leave the ball for d >= 3; then the
    radii shrink by one common factor until its outermost point
    (|z_j| + r_j)_j lies halfway between z and the sphere in norm.
    """
    geometry = admit(structure, z)
    (moduli,), (norm,) = geometry.moduli, geometry.norm.tolist()  # one point: a stack fails to unpack
    radii = np.minimum(0.1, structure.room(moduli, norm) / 2.0)
    if structure.norm(moduli + radii) >= 1.0 - ADMISSIBILITY_MARGIN:
        # solve ||moduli + t radii||_2 = target for the positive root t < 1
        target = (1.0 + norm) / 2.0
        a, b, c = radii @ radii, moduli @ radii, norm**2 - target**2
        radii = radii * (-b + math.sqrt(b * b - a * c)) / a
    return tuple(float(r) for r in radii)


def _radii(f, z: Sequence[complex], radius) -> tuple[float, ...]:
    """``radius`` (one for all axes or one per axis) if given, else the
    default for a colligation and 0.5 for a polynomial; a point with a non-finite coordinate, and a radius
    that is not positive and finite (NaN included), are refused."""
    if not all(map(cmath.isfinite, z)):
        raise ValueError(f"point {list(z)} has a non-finite coordinate")
    if radius is None:
        if isinstance(f, Colligation):
            return default_radii(f.structure, z)
        if isinstance(f, Polynomial):
            return (0.5,) * f.dimension
        raise ValueError("a bare callable needs an explicit radius")
    radii = (float(radius),) * len(z) if np.isscalar(radius) else tuple(float(r) for r in radius)
    if len(radii) != len(z) or any(r <= 0 for r in radii):
        raise ValueError(f"need {len(z)} positive radii, got {radius!r}")
    if not all(map(math.isfinite, radii)):
        raise ValueError(f"radii must be finite, got {radius!r}")
    return radii


def check_samples(samples: int, max_axis_order: int, d: int) -> None:
    """Reject a quadrature sample count that cannot resolve axis orders up to
    ``max_axis_order``, or whose grid over d axes exceeds the budget."""
    if samples < 4 * (max_axis_order + 1) or samples & (samples - 1):
        raise ValueError(
            f"samples must be a power of 2 and >= {4 * (max_axis_order + 1)}, got {samples}"
        )
    if samples**d > CAUCHY_GRID_LIMIT:
        raise ComplexityError(
            f"{samples}**{d} = {samples**d} grid points exceeds the budget of {CAUCHY_GRID_LIMIT}"
        )


def _sample_torus(f, z: Sequence[complex], radii: tuple[float, ...], samples: int) -> np.ndarray:
    """Values of f on the product of circles z_j + r_j e^(i theta); shape
    (samples,)*d (+ output shape for matrix-valued f)."""
    d = len(radii)
    theta = 2.0 * np.pi * np.arange(samples) / samples
    rings = [complex(z[j]) + radii[j] * np.exp(1j * theta) for j in range(d)]
    grids = np.meshgrid(*rings, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)  # (samples^d, d)
    if isinstance(f, Colligation):
        vals = evaluate(f, pts).phi
    elif isinstance(f, Polynomial):
        vals = f.eval_points(pts)
    else:
        vals = np.array([f(tuple(p)) for p in pts])
    return vals.reshape((samples,) * d + vals.shape[1:])


def _as_output(value: np.ndarray, scalar: bool):
    return complex(value) if scalar else np.asarray(value)


def cauchy_partial(
    f,
    z: Sequence[complex],
    alpha: Union[MultiIndex, Sequence[int]],
    radius=None,
    samples: int = 64,
):
    """Mixed partial of an analytic function by Cauchy coefficient extraction.

    ``f`` may be a Colligation (its transfer function is differentiated; the
    evaluation grid is vectorized), a Polynomial, or any callable taking a
    point.  Iterated trapezoid quadrature on the circles |zeta_j - z_j| =
    radius_j extracts the Taylor coefficient, and the alpha! rescaling turns
    it into the derivative.  The quadrature error decays exponentially in
    ``samples`` as long as the closed polydisc of the radii stays inside the
    domain of analyticity; the closed polydisc must lie in the admissible
    set (grid evaluation rejects it otherwise).

    Returns a complex scalar for scalar-valued f, else a complex matrix.
    """
    mi = MultiIndex.of(alpha)
    if mi.d != len(z):
        raise ValueError(f"multi-index has d={mi.d}, point has d={len(z)}")
    radii = _radii(f, z, radius)
    check_samples(samples, max(mi.counts), len(radii))
    grid = _sample_torus(f, z, radii, samples)
    scalar = grid.ndim == mi.d
    theta = 2.0 * np.pi * np.arange(samples) / samples
    out = grid
    # One axis at a time: multiply by e^(-i n_j theta) and average.
    for axis, n_j in enumerate(mi.counts):
        weight = np.exp(-1j * n_j * theta)
        shape = [1] * out.ndim
        shape[axis] = samples
        out = out * weight.reshape(shape)
    for _ in range(mi.d):
        out = out.mean(axis=0)
    scale = mi.factorial_product
    for r, n_j in zip(radii, mi.counts):
        scale /= r**n_j
    return _as_output(scale * out, scalar)


def cauchy_coefficient_table(
    f,
    z: Sequence[complex],
    max_axis_order: int,
    radius=None,
    samples: int = 64,
) -> dict[tuple[int, ...], np.ndarray]:
    """All mixed partials with every axis order <= ``max_axis_order``, from a
    single sampled grid via the FFT (the same trapezoid sums, batched).

    Returns {multi-index: derivative}, with values shaped like
    :func:`cauchy_partial` output.
    """
    (max_axis_order,) = _dimensions((max_axis_order,), "max_axis_order")
    if max_axis_order < 0:
        raise ValueError(f"max_axis_order must be >= 0, got {max_axis_order}")
    radii = _radii(f, z, radius)
    d = len(radii)
    check_samples(samples, max_axis_order, d)
    grid = _sample_torus(f, z, radii, samples)
    scalar = grid.ndim == d
    coeffs = np.fft.fftn(grid, axes=tuple(range(d))) / samples**d
    table: dict[tuple[int, ...], np.ndarray] = {}
    for alpha in itertools.product(range(max_axis_order + 1), repeat=d):
        mi = MultiIndex(alpha)
        scale = mi.factorial_product
        for r, n_j in zip(radii, alpha):
            scale /= r**n_j
        table[alpha] = _as_output(scale * coeffs[alpha], scalar)
    return table
