"""Derivative machinery: arrangements, the K operator, and both oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerlab import (
    Ball,
    ComplexityError,
    DomainViolationError,
    MultiIndex,
    Polydisk,
    Polynomial,
    alpay_kaptanoglu,
    arrangements,
    blaschke,
    kaijser_varopoulos,
    koperator,
    monomial,
    partial,
    partial_permsum,
    poly_partial,
    random_colligation,
    spectral_norm,
)
from aglerlab import derivative
from aglerlab.colligation import projections
from aglerlab.derivative import (
    cauchy_coefficient_table,
    cauchy_partial,
    check_samples,
    default_radii,
    partial_at,
)
from aglerlab.tolerances import ADMISSIBILITY_MARGIN, ORACLE_TOL
from aglerlab.transfer import evaluate
from conftest import interior_point

# ten distinct arrangements of the multiset {1,1,1,2,2}, lexicographic
ARRANGEMENTS_32 = [
    (1, 1, 1, 2, 2), (1, 1, 2, 1, 2), (1, 1, 2, 2, 1), (1, 2, 1, 1, 2),
    (1, 2, 1, 2, 1), (1, 2, 2, 1, 1), (2, 1, 1, 1, 2), (2, 1, 1, 2, 1),
    (2, 1, 2, 1, 1), (2, 2, 1, 1, 1),
]


class TestMultiIndex:
    def test_bookkeeping(self):
        mi = MultiIndex((3, 2))
        assert mi.order == 5
        assert mi.multinomial == 10
        assert mi.factorial_product == 12
        assert mi.canonical_klist() == (1, 1, 1, 2, 2)

    def test_from_klist(self):
        assert MultiIndex.from_klist((2, 1, 2), 3).counts == (1, 2, 0)
        with pytest.raises(ValueError):
            MultiIndex.from_klist((0,), 2)
        with pytest.raises(ValueError):
            MultiIndex.from_klist((3,), 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))


    @pytest.mark.parametrize("make", [
        lambda: MultiIndex((1.5,)),
        lambda: MultiIndex((True, 1)),
        lambda: MultiIndex.from_klist((1.0, 2), 2),
        lambda: Polynomial(1, {(1.7,): 1.0}),
        lambda: Polynomial(2, {(1, False): 1.0}),
        lambda: monomial((1.5, 1)),
        lambda: partial_permsum(monomial((1, 1)), (0.2, 0.5), [1.9, 2]),
    ], ids=["multi-index", "bool-entry", "klist", "exponent", "bool-exponent", "monomial", "permsum"])
    def test_a_float_or_bool_index_is_refused(self, make):
        # each was truncated by int() into another index: (1.5,) read as (1,)
        with pytest.raises(TypeError, match="must be integers"):
            make()

    @pytest.mark.parametrize("dimension", [1.0, True, "1"])
    def test_a_polynomial_dimension_is_an_integer(self, dimension):
        # a float or a bool constructed, then failed when called: (0,) * 1.0 is a TypeError
        with pytest.raises(TypeError, match="^dimension must be integers"):
            Polynomial(dimension, {(1,): 1})
        poly = Polynomial(np.int64(1), {(1,): 1})
        assert type(poly.dimension) is int and poly((0.5,)) == 0.5

    def test_numpy_integers_are_indices(self):
        mi = MultiIndex(np.array([2, 1]))
        assert mi.counts == (2, 1) and all(type(c) is int for c in mi.counts)
        assert MultiIndex.from_klist(np.array([2, 1, 2]), 3).counts == (1, 2, 0)
        assert Polynomial(2, {(np.int64(1), np.int32(0)): 2.0}).coeffs == {(1, 0): 2.0}
        assert monomial(np.array([1, 1])).structure == Polydisk((1, 1))

    def test_factorial_product_is_computed_on_first_use(self, monkeypatch):
        calls = []

        def factorial(n):
            assert n < 100, "a huge factorial"
            calls.append(n)
            return math.prod(range(1, n + 1))

        monkeypatch.setattr(math, "factorial", factorial)
        huge = MultiIndex((3_000_000,))
        assert huge.order == 3_000_000 and huge == MultiIndex((3_000_000,)) and calls == []
        mi = MultiIndex((3, 2))
        assert calls == [] and mi.factorial_product == mi.factorial_product == 12
        assert calls == [3, 2]


class TestArrangements:
    def test_single_symbol(self):
        assert arrangements((2, 0)) == ((1, 1),)

    def test_two_symbols(self):
        assert arrangements((1, 1)) == ((1, 2), (2, 1))

    def test_three_two_case(self):
        assert list(arrangements((3, 2))) == ARRANGEMENTS_32

    def test_zero_index_is_empty(self):
        assert arrangements((0, 0)) == ()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_count_and_content(self, alpha):
        mi = MultiIndex(tuple(alpha))
        if mi.order > 8:
            alpha = [min(a, 2) for a in alpha]
            mi = MultiIndex(tuple(alpha))
        arrs = arrangements(mi)
        if mi.order == 0:
            assert arrs == ()
            return
        assert len(arrs) == mi.multinomial
        assert len(set(arrs)) == len(arrs)
        assert list(arrs) == sorted(arrs)
        for arr in arrs:
            assert all(arr.count(j + 1) == nj for j, nj in enumerate(mi.counts))


class TestKOperator:
    def test_two_term_sum_by_hand(self):
        col = random_colligation(Polydisk((1, 1)), dim_g=1, seed=21)
        ctx = evaluate(col, (0.3, -0.4j))
        e1, e2 = projections(col.structure)
        expected = e1 @ ctx.lmat @ e2 + e2 @ ctx.lmat @ e1
        np.testing.assert_allclose(ctx.stack.kops([MultiIndex.of((1, 1))])[ctx.i, 0], expected, atol=1e-14)

    def test_rejects_low_order(self):
        col = blaschke(0.2)
        ctx = evaluate(col, (0.1,))
        with pytest.raises(ValueError, match="order"):
            koperator(ctx, (1,))

    @pytest.mark.parametrize("counts", [(2,), (1, 1, 0)])
    def test_rejects_a_multi_index_of_the_wrong_length(self, counts):
        ctx = evaluate(random_colligation(Polydisk((2, 1)), 1, 3), (0.3, 0.2j))
        mi = MultiIndex(counts)
        message = f"multi-index has d={len(counts)}, colligation has d=2"
        for read in (lambda mi: ctx.stack.kops([mi]), lambda mi: spectral_norm(ctx.stack.kops([mi])), ctx.partial,
                     lambda mi: ctx.norms([mi]), lambda mi: koperator(ctx, mi)):
            with pytest.raises(ValueError, match=message):
                read(mi)

    def test_dp_matches_enumeration(self):
        rng = np.random.default_rng(9)
        col = random_colligation(Polydisk((2, 1, 2)), dim_g=1, seed=22)
        for alpha in [(2, 0, 0), (1, 1, 1), (2, 2, 1), (3, 0, 2)]:
            ctx = evaluate(col, interior_point(col.structure, rng, scale=0.8))
            a = koperator(ctx, alpha)
            b = ctx.stack.kops([MultiIndex.of(alpha)])[ctx.i, 0]
            assert spectral_norm(a - b) <= 1e-12

    def test_polydisk_norm_bound(self):
        rng = np.random.default_rng(10)
        col = random_colligation(Polydisk((2, 2)), dim_g=1, seed=23)
        for _ in range(20):
            ctx = evaluate(col, interior_point(col.structure, rng, scale=0.9))
            lnorm = spectral_norm(ctx.lmat)
            for alpha in [(2, 0), (1, 1), (2, 3), (4, 1)]:
                k = ctx.stack.kops([MultiIndex.of(alpha)])[ctx.i, 0]
                n = sum(alpha)
                assert spectral_norm(k) <= lnorm ** (n - 1) + 1e-10

    def test_ball_norm_bound(self):
        rng = np.random.default_rng(11)
        col = random_colligation(Ball(2, 3), dim_g=1, seed=24)
        d = 3
        for _ in range(20):
            ctx = evaluate(col, interior_point(col.structure, rng, scale=0.9))
            lnorm = spectral_norm(ctx.lmat)
            for alpha in [(2, 0, 0), (1, 1, 1), (2, 1, 2)]:
                k = ctx.stack.kops([MultiIndex.of(alpha)])[ctx.i, 0]
                n = sum(alpha)
                assert spectral_norm(k) <= d ** ((n - 1) / 2) * lnorm ** (n - 1) + 1e-10


class TestPartial:
    def test_monomial_mixed_second(self):
        col = monomial((1, 1))
        for z in [(0.0, 0.0), (0.3, 0.4), (-0.2j, 0.6)]:
            np.testing.assert_allclose(partial(col, z, (1, 1)), [[1.0]], atol=1e-12)

    def test_blaschke_first_derivative(self):
        for a in (0.0, 0.5, 0.3 - 0.6j):
            col = blaschke(a)
            got = partial(col, (0.0,), (1,))[0, 0]
            np.testing.assert_allclose(got, 1 - abs(a) ** 2, atol=1e-14)

    def test_derivative_past_degree_vanishes(self):
        col = monomial((2, 1))
        assert spectral_norm(partial(col, (0.2, 0.1), (3, 1))) <= 1e-12
        assert spectral_norm(partial(col, (0.2, 0.1), (0, 2))) <= 1e-12

    def test_order_zero_returns_phi(self):
        col = blaschke(0.4)
        np.testing.assert_array_equal(partial(col, (0.2,), (0,)), evaluate(col, (0.2,)).phi)

    def test_monomial_exact_formula(self):
        # d^alpha z^alpha has the closed form alpha! at every point of the domain
        col = monomial((2, 3))
        got = partial(col, (0.1, -0.3j), (2, 3))
        np.testing.assert_allclose(got, [[12.0]], atol=1e-10)


class TestPermutationSum:
    def test_mixed_pair(self):
        np.testing.assert_allclose(
            partial_permsum(monomial((1, 1)), (0.2, 0.5), (1, 2)), [[1.0]], atol=1e-12
        )

    def test_repeated_symbol_doubles_single_arrangement(self):
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=25)
        z = (0.3, 0.1 - 0.2j)
        ctx = evaluate(col, z)
        e1 = projections(col.structure)[0]
        single = col.C @ ctx.r_ha @ (e1 @ ctx.lmat @ e1) @ ctx.r_ka @ col.B
        np.testing.assert_allclose(partial_permsum(col, z, (1, 1)), 2 * single, atol=1e-13)

    def test_agrees_with_arrangement_form(self):
        rng = np.random.default_rng(12)
        col = random_colligation(Polydisk((1, 2)), dim_g=1, seed=26)
        for klist in [(1, 2), (2, 2), (1, 1, 2), (1, 2, 2, 1), (2, 1, 2, 1, 1)]:
            z = interior_point(col.structure, rng, scale=0.6)
            mi = MultiIndex.from_klist(klist, col.d)
            diff = partial_permsum(col, z, klist) - partial(col, z, mi)
            assert spectral_norm(diff) <= 1e-12

    def test_order_invariance(self):
        col = random_colligation(Polydisk((1, 1)), dim_g=1, seed=27)
        z = (0.4, -0.3)
        a = partial_permsum(col, z, (1, 2, 1))
        b = partial_permsum(col, z, (2, 1, 1))
        np.testing.assert_array_equal(a, b)  # canonicalized before dispatch

    def test_refuses_excessive_order(self):
        col = blaschke(0.1)
        with pytest.raises(ComplexityError):
            partial_permsum(col, (0.0,), (1,) * 11)

    def test_rejects_first_order(self):
        with pytest.raises(ValueError):
            partial_permsum(blaschke(0.1), (0.0,), (1,))

    def test_term_count_bookkeeping(self):
        for alpha in [(2, 1), (3, 2), (1, 1, 2)]:
            mi = MultiIndex(alpha)
            assert math.factorial(mi.order) == mi.multinomial * mi.factorial_product


class TestPolynomials:
    def test_eval_and_vectorized_agree(self):
        p = Polynomial(2, {(1, 0): 1.0, (0, 2): -2.0j, (2, 1): 0.5})
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        batch = p.eval_points(pts)
        for k in range(6):
            np.testing.assert_allclose(batch[k], p(tuple(pts[k])), atol=1e-14)

    def test_poly_partial_examples(self):
        kv = kaijser_varopoulos()
        assert poly_partial(kv, (0, 0, 0), (2, 0, 0)) == pytest.approx(2 / 5)
        assert poly_partial(kv, (0, 0, 0), (1, 1, 0)) == pytest.approx(-2 / 5)
        p = Polynomial(3, {(1, 0, 0): 1.0})
        assert poly_partial(p, (0.3, 0.1, 0.9), (0, 1, 0)) == 0
        assert poly_partial(Polynomial(1, {(0,): 0.7}), (0.2,), (0,)) == pytest.approx(0.7)

    @pytest.mark.parametrize("z, message", [
        pytest.param((0.5,), "point has 1 coordinates", id="short"),
        pytest.param((0.5, 0.2, 9.0), "point has 3 coordinates", id="long"),
        pytest.param([(0.5, 0.2, 9.0)] * 4, "point has 3 coordinates", id="stack-long"),
        pytest.param(np.zeros((2, 3, 2)), "point or an \\(m, d\\) stack", id="3-d"),
        pytest.param(0.5, "point or an \\(m, d\\) stack", id="0-d"),
    ])
    def test_poly_partial_rejects_point_of_wrong_length(self, z, message):
        # zip would drop the missing or extra coordinates and return 1 or 0.2
        p = Polynomial(2, {(1, 1): 1.0, (0, 2): 1.0})
        with pytest.raises(ValueError, match=message):
            poly_partial(p, z, (1, 0))
        with pytest.raises(ValueError, match=message):
            p(z)

    def test_polynomial_rejects_an_exponent_tuple_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=re.escape("bad exponent tuple (1,) for dimension 2")):
            Polynomial(2, {(1, 1): 1.0, (1,): 0.5})

    def test_poly_partial_rejects_a_multi_index_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^multi-index has d=3, polynomial has d=2$"):
            poly_partial(Polynomial(2, {(1, 1): 1.0}), (0.1, 0.2), (1, 0, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.3, -math.inf), complex(math.nan, 0.0)])
    def test_polynomial_rejects_non_finite_coefficients(self, value):
        # a NaN coefficient made every report at every point NaN, lhs, rhs and slack alike
        with pytest.raises(ValueError, match="coefficient of \\(1, 0\\) is not finite"):
            Polynomial(2, {(1, 0): value, (0, 1): 0.3})

    def test_kaijser_varopoulos_values(self):
        kv = kaijser_varopoulos()
        assert kv((0, 0, 0)) == 0
        assert kv((1, 1, 1)) == pytest.approx((3 - 6) / 5)

    def test_alpay_kaptanoglu_series(self):
        p = alpay_kaptanoglu(4)
        assert p.coeffs[(1, 0)] == 1.0
        assert p.coeffs[(0, 2)] == pytest.approx(1 / 2)
        assert p.coeffs[(0, 4)] == pytest.approx(1 / 8)
        assert p.coeffs[(0, 6)] == pytest.approx(1 / 16)
        assert p.coeffs[(0, 8)] == pytest.approx(5 / 128)
        # series sums to 1 - sqrt(1 - t) up to the truncation error
        t = 0.2
        tail = sum(p.coeffs[(0, 2 * k)] * t**k for k in range(1, 5))
        assert abs(tail - (1 - math.sqrt(1 - t))) <= 2e-5

    def test_alpay_kaptanoglu_rejects_zero(self):
        with pytest.raises(ValueError):
            alpay_kaptanoglu(0)

    def test_alpay_kaptanoglu_order_is_capped(self):
        # m = 10^8 once built 10^8 coefficients before a campaign's first draw
        assert len(alpay_kaptanoglu(derivative.SERIES_ORDER_LIMIT).coeffs) == derivative.SERIES_ORDER_LIMIT + 1
        for m in (derivative.SERIES_ORDER_LIMIT + 1, 10**8):
            with pytest.raises(ValueError, match=r"truncation order must be in 1\.\.1000, got"):
                alpay_kaptanoglu(m)


def scalar_poly_partial(p, z, alpha):
    """The scalar reference: one point, one Python complex per term, in the
    order ``poly_partial`` keeps for every point of a stack."""
    mi = MultiIndex.of(alpha)
    total = 0j
    for exps, coeff in p.coeffs.items():
        if any(e < a for e, a in zip(exps, mi.counts)):
            continue
        term = coeff
        for zj, e, a in zip((complex(v) for v in z), exps, mi.counts):
            term *= math.factorial(e) // math.factorial(e - a)
            term *= zj ** (e - a)
        total += term
    return total


def _bits(values):
    return [(float.__repr__(v.real), float.__repr__(v.imag)) for v in values]


def _test_stack(rng, m, d):
    """m points of the polydisk of radius 0.97 in d variables, some near its
    boundary, with zero coordinates of both signs and zero real or imaginary parts."""
    zs = rng.uniform(-0.7, 0.7, (m, d)) + 1j * rng.uniform(-0.7, 0.7, (m, d))
    near = rng.random((m, d)) < 0.2
    zs[near] = 0.97 * np.exp(1j * rng.uniform(0, 2 * np.pi, near.sum()))
    specials = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.4), complex(0.3, -0.0)]
    pick = rng.random((m, d)) < 0.3
    zs[pick] = rng.choice(specials, pick.sum())
    return zs


class TestStackedPolyPartial:
    """``poly_partial`` on a stack has, at every point, the bits of the scalar loop."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_polynomials_match_the_scalar_loop(self, d):
        rng = np.random.default_rng(400 + d)
        for _ in range(12):
            coeffs = {tuple(rng.integers(0, 9, d).tolist()): complex(*rng.standard_normal(2))
                      for _ in range(int(rng.integers(1, 9)))}
            p = Polynomial(d, coeffs)
            for m in (1, 7):
                zs = _test_stack(rng, m, d)
                for alpha in itertools.product(range(4), repeat=d):
                    expected = _bits(scalar_poly_partial(p, z, alpha) for z in zs.tolist())
                    assert _bits(poly_partial(p, zs, alpha)) == expected, (coeffs, alpha)
                    assert _bits(poly_partial(p, z, alpha) for z in zs) == expected

    @pytest.mark.parametrize("p", [kaijser_varopoulos(), alpay_kaptanoglu(3)], ids=["kv", "ak"])
    def test_explore_targets_match_at_every_multi_index_to_order_four(self, p):
        zs = _test_stack(np.random.default_rng(410 + p.dimension), 40, p.dimension)
        for alpha in itertools.product(range(5), repeat=p.dimension):
            if sum(alpha) <= 4:
                expected = _bits(scalar_poly_partial(p, z, alpha) for z in zs.tolist())
                assert _bits(poly_partial(p, zs, alpha)) == expected, alpha

    def test_exponents_above_one_hundred_match_the_scalar_loop(self):
        # CPython powers a complex by repeated squaring only up to exponent 100
        p = Polynomial(2, {(120, 3): 0.3 + 0.2j, (101, 0): -1.1j, (100, 7): 0.5, (5, 150): 1.0})
        zs = _test_stack(np.random.default_rng(420), 9, 2)
        for alpha in [(0, 0), (1, 0), (19, 2), (0, 49), (20, 1)]:
            expected = _bits(scalar_poly_partial(p, z, alpha) for z in zs.tolist())
            assert _bits(poly_partial(p, zs, alpha)) == expected, alpha

    def test_a_point_gives_a_complex_and_a_stack_an_array(self):
        p = Polynomial(2, {(1, 2): 0.5 - 1j, (0, 0): 0.25})
        assert type(poly_partial(p, (0.3, 0.1j), (1, 0))) is complex
        got = poly_partial(p, np.zeros((3, 2)), (0, 0))
        assert got.shape == (3,) and got.dtype == np.complex128
        assert poly_partial(p, np.zeros((0, 2)), (1, 0)).shape == (0,)


class TestCauchyOracle:
    def test_exact_on_monomial_polynomial(self):
        p = Polynomial(2, {(1, 1): 1.0})
        got = cauchy_partial(p, (0.0, 0.0), (1, 1), radius=0.5, samples=16)
        assert abs(got - 1.0) <= 1e-12

    def test_constant_has_zero_derivative(self):
        p = Polynomial(2, {(0, 0): 0.3 + 0.1j})
        assert abs(cauchy_partial(p, (0.1, 0.2), (1, 0), radius=0.3, samples=16)) <= 1e-12

    def test_blaschke_third_derivative(self):
        col = blaschke(0.5)
        got = cauchy_partial(col, (0.2,), (3,))
        exact = partial(col, (0.2,), (3,))
        assert spectral_norm(np.atleast_2d(got) - exact) <= 1e-8

    def test_refuses_a_multi_index_of_another_length(self):
        # (1, 0, 0) dropped its third entry and returned d phi/dz_1; (1,) returned unreduced grid values
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=3)
        for alpha in ((1, 0, 0), (1,)):
            with pytest.raises(ValueError, match=f"multi-index has d={len(alpha)}, point has d=2"):
                cauchy_partial(col, (0.1, 0.2), alpha)

    def test_refuses_a_point_with_a_non_finite_coordinate(self):
        # a polynomial subject is never admitted: its NaN point gave nan+nanj
        cases = [(kaijser_varopoulos(), (math.nan, 0.0, 0.0), None), (blaschke(0.5), (complex(0.0, math.inf),), None),
                 (lambda z: z[0], (math.nan,), 0.1)]
        for f, z, radius in cases:
            with pytest.raises(ValueError, match="has a non-finite coordinate"):
                cauchy_partial(f, z, (1,) + (0,) * (len(z) - 1), radius=radius)
            with pytest.raises(ValueError, match="has a non-finite coordinate"):
                cauchy_coefficient_table(f, z, 1, radius=radius)

    def test_default_radii(self):
        got = default_radii(Polydisk((1, 1)), (0.9, 0.0))
        assert got == pytest.approx((0.05, 0.1))
        r = default_radii(Ball(1, 2), (0.6, 0.0))
        assert r[0] == pytest.approx(min(0.1, (1 - 0.6) / 2))
        assert r[1] == pytest.approx(0.1)
        with pytest.raises(ValueError):
            default_radii(Polydisk((1,)), (1.0,))
        for structure, z in ((Polydisk((1,)), (1.0 - 1e-13,)), (Ball(1, 2), (0.0, 1.0 - 1e-13))):
            with pytest.raises(DomainViolationError, match="inadmissible"):  # the rule of evaluate
                default_radii(structure, z)

    def test_default_radii_keep_the_torus_inside_the_ball(self):
        col = random_colligation(Ball(1, 3), dim_g=1, seed=1)
        z = (0.95 / math.sqrt(3),) * 3
        radii = default_radii(col.structure, z)
        outer = math.sqrt(sum((abs(v) + r) ** 2 for v, r in zip(z, radii)))
        assert outer < 1.0 - ADMISSIBILITY_MARGIN
        for alpha in [(1, 0, 0), (1, 1, 1), (0, 0, 3)]:
            exact = partial(col, z, alpha)
            oracle = np.atleast_2d(cauchy_partial(col, z, alpha))
            assert spectral_norm(exact - oracle) <= ORACLE_TOL * max(1.0, spectral_norm(exact)), alpha

    def test_bare_callable_needs_radius(self):
        with pytest.raises(ValueError, match="radius"):
            cauchy_partial(lambda z: z[0], (0.0,), (1,))

    def test_a_polynomial_takes_radius_one_half_by_default(self):
        p = Polynomial(2, {(2, 1): 1.0, (0, 1): 0.3})
        got = cauchy_partial(p, (0.1, 0.2), (1, 1))
        assert got == cauchy_partial(p, (0.1, 0.2), (1, 1), radius=0.5)
        assert abs(got - poly_partial(p, (0.1, 0.2), (1, 1))) <= 1e-12

    @pytest.mark.parametrize("radius", [0.0, -0.1, (0.1, -0.1), (0.1, 0.0), (0.1,)], ids=str)
    def test_radii_must_be_positive_and_one_per_axis(self, radius):
        with pytest.raises(ValueError, match=f"^need 2 positive radii, got {re.escape(repr(radius))}$"):
            cauchy_partial(Polynomial(2, {(1, 1): 1.0}), (0.0, 0.0), (1, 1), radius=radius, samples=16)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, (0.1, math.nan), (math.inf, 0.1)], ids=str)
    @pytest.mark.parametrize("f", [Polynomial(2, {(1, 1): 1.0}), lambda z: z[0] * z[1]], ids=["polynomial", "callable"])
    def test_radii_must_be_finite(self, f, radius):
        # a NaN or infinite radius passed the positivity test and gave a NaN partial
        with pytest.raises(ValueError, match=f"^radii must be finite, got {re.escape(repr(radius))}$"):
            cauchy_partial(f, (0.1, 0.0), (1, 1), radius=radius, samples=16)

    def test_bare_callable_path(self):
        got = cauchy_partial(lambda z: z[0] ** 2, (0.1,), (2,), radius=0.2, samples=16)
        assert abs(got - 2.0) <= 1e-12

    def test_sample_count_validation(self):
        p = Polynomial(1, {(1,): 1.0})
        with pytest.raises(ValueError, match="samples"):
            cauchy_partial(p, (0.0,), (1,), radius=0.1, samples=24)  # not a power of 2
        with pytest.raises(ValueError, match="samples"):
            cauchy_partial(p, (0.0,), (3,), radius=0.1, samples=8)  # too few

    def test_grid_budget_refuses_before_sampling(self, monkeypatch):
        # 64**4 = 2**24 grid points would need about 8 GB
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a grid over the budget")

        monkeypatch.setattr(derivative, "_sample_torus", refuse)
        col = random_colligation(Polydisk((1, 1, 1, 1)), dim_g=1, seed=3)
        with pytest.raises(ComplexityError, match="16777216"):
            cauchy_partial(col, (0.1, 0.0, 0.0, 0.2), (1, 0, 0, 1), samples=64)
        with pytest.raises(ComplexityError):
            cauchy_coefficient_table(col, (0.1, 0.0, 0.0, 0.2), 1, samples=64)
        check_samples(64, 1, 3)  # 2**18 points, the largest existing caller
        check_samples(1024, 1, 2)  # 2**20 points, the budget itself

    def test_table_matches_single_extractions(self):
        col = random_colligation(Polydisk((1, 1)), dim_g=1, seed=28)
        z = (0.2, -0.1j)
        table = cauchy_coefficient_table(col, z, max_axis_order=2, samples=32)
        for alpha in [(0, 0), (1, 0), (2, 1), (2, 2)]:
            single = cauchy_partial(col, z, alpha, samples=32)
            np.testing.assert_allclose(table[alpha], np.atleast_2d(single), atol=1e-12)

    def test_oracle_vs_realization_across_orders(self):
        rng = np.random.default_rng(14)
        col = random_colligation(Ball(1, 2), dim_g=1, seed=29)
        z = interior_point(col.structure, rng, scale=0.4)
        ctx = evaluate(col, z)
        table = cauchy_coefficient_table(col, z, max_axis_order=5, samples=32)
        for alpha, oracle in table.items():
            if sum(alpha) > 5:
                continue
            exact = partial_at(ctx, alpha)
            err = spectral_norm(exact - np.atleast_2d(oracle))
            assert err <= 1e-6 * max(1.0, spectral_norm(exact))

    def test_mixed_partial_symmetry(self):
        # analyticity: any differentiation order gives the same mixed partial
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=30)
        z = (0.25, 0.4j)
        a = partial_permsum(col, z, (1, 1, 2))
        b = partial_permsum(col, z, (2, 1, 1))
        c = partial(col, z, (2, 1))
        assert spectral_norm(a - b) <= 1e-12
        assert spectral_norm(a - c) <= 1e-12
