"""Derivative bounds, equality witnesses, sum rule, and kernel positivity."""

import dataclasses
import functools
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerlab import (
    Ball,
    DomainViolationError,
    MultiIndex,
    Polydisk,
    Polynomial,
    alpay_kaptanoglu,
    blaschke,
    bound_ball,
    bound_general,
    bound_polydisk,
    evaluate,
    kaijser_varopoulos,
    knese_residual,
    monomial,
    multiplier_gram_psd,
    poly_partial,
    random_colligation,
    symmetric_extremal,
    wiener_check,
)
from aglerlab import bounds
from aglerlab.bounds import ball_kernel_subchecks, knese_report, point_reports
from aglerlab.colligation import StackGeometry, structure_norm
from aglerlab.harness import MAX_ORDER, multi_indices, sample_point
from aglerlab.matrixcore import spectral_norm
from aglerlab.errors import DegenerateGramWarning
from aglerlab.reports import BoundReport, Column
from aglerlab.transfer import resolvent_norm_estimates
from conftest import MIXED_STRUCTURES, admissible_point, interior_point, reports_at


class TestStackGeometry:
    def test_example(self):
        zs = np.array([(0.3, 0.4j)])
        sup, eucl = StackGeometry(Polydisk.scalar(2), zs), StackGeometry(Ball.scalar(2), zs)
        assert sup.norm[0] == pytest.approx(0.4)
        assert sup.hat[0] == pytest.approx((0.4, 0.3))
        assert eucl.norm[0] == pytest.approx(0.5)
        assert eucl.hat[0] == pytest.approx((0.4, 0.3))
        for g in (sup, eucl):
            assert g.zabs2[0] == pytest.approx((0.09, 0.16))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_invariants(self, seed, d):
        rng = np.random.default_rng(seed)
        z = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        on_polydisk, on_ball = (StackGeometry(domain.scalar(d), np.array([z])) for domain in (Polydisk, Ball))
        sup, eucl = float(on_polydisk.norm[0]), float(on_ball.norm[0])
        assert sup == structure_norm(Polydisk.scalar(d), z) and eucl == structure_norm(Ball.scalar(d), z)
        for j in range(d):
            assert abs(on_ball.hat[0, j] ** 2 - (eucl**2 - abs(z[j]) ** 2)) <= 1e-12
            assert on_polydisk.hat[0, j] == max((abs(v) for k, v in enumerate(z) if k != j), default=0.0)
        assert sup <= eucl + 1e-14
        assert eucl <= math.sqrt(d) * sup + 1e-14

    @pytest.mark.parametrize("structure", [Polydisk((2, 1)), Polydisk((1, 1, 1)), Ball(1, 2), Ball(2, 3)], ids=str)
    def test_only_the_balls_table_makes_hat(self, structure):
        """``hat`` and ``hat2`` are made on first use, and only the ball's bounds use them: a polydisk's
        report tables leave them unmade, a ball's make them with the bits of the formula (the ball
        goldens pin the records they give)."""
        zs = sample_point(structure, np.random.default_rng(6), m=4)
        mis = [MultiIndex(a) for a in multi_indices(structure.d, 3)]
        poly = Polynomial(structure.d, {(1,) * structure.d: 0.5})
        ev = evaluate(random_colligation(structure, seed=5), zs)
        for points in (ev, bounds.PolynomialStack(poly, structure, zs)):
            bounds.report_columns(points, mis)
            made = {"hat", "hat2"} & set(vars(points.geometry))
            assert made == ({"hat", "hat2"} if structure.kind == "ball" else set()), type(points)
            hat = structure.norm(np.hypot(zs.real, zs.imag)[:, None, :] * (1.0 - np.eye(structure.d)))
            assert _bits(points.geometry.hat.ravel()) == _bits(hat.ravel())
            assert _bits(points.geometry.hat2.ravel()) == _bits(np.float_power(hat, 2).ravel())

    def test_evaluate_makes_only_moduli_and_norm(self):
        """Admission reads only ``moduli`` and ``norm``: ``evaluate`` of a polydisk grid, as the Cauchy
        oracle makes one, leaves ``flags``, ``norm2`` and ``zabs2`` unmade, and on first use each has
        the value of its formula."""
        circle = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        zs = np.stack(np.meshgrid(circle, 0.9 * circle, 0.2 + 0 * circle, indexing="ij"), axis=-1).reshape(-1, 3)
        g = evaluate(random_colligation(Polydisk((1, 1, 1)), seed=2), zs).geometry
        assert {"flags", "norm2", "zabs2"} & set(vars(g)) == set()
        assert _bits(g.norm2) == _bits(np.float_power(g.norm, 2))
        assert _bits(g.zabs2.ravel()) == _bits(np.float_power(np.hypot(zs.real, zs.imag), 2).ravel())
        assert g.flags == [()] * len(zs)


class TestBoundReport:
    def test_ratio_zero_when_rhs_zero(self):
        rep = BoundReport("t", (0j,), None, lhs=0.0, rhs=0.0)
        assert rep.ratio == 0.0
        assert rep.slack == 0.0


class TestBoundGeneral:
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9j])
    def test_blaschke_origin_is_sharp(self, a):
        ctx = evaluate(blaschke(a), (0.0,))
        (rep,) = [r for r in point_reports(ctx, [MultiIndex((1,))]) if r.theorem_tag.startswith("general.")]
        assert rep.lhs == pytest.approx(1 - abs(a) ** 2, abs=1e-12)
        assert rep.rhs == pytest.approx(1 - abs(a) ** 2, abs=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_monomial_pair_ratio_half(self):
        ctx = evaluate(monomial((1, 1)), (0.0, 0.0))
        (rep,) = [r for r in point_reports(ctx, [MultiIndex((1, 1))]) if r.theorem_tag.startswith("general.")]
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.ratio == pytest.approx(0.5, abs=1e-12)

    def test_rejects_order_zero(self):
        ctx = evaluate(blaschke(0.2), (0.0,))
        with pytest.raises(ValueError, match="order >= 1"):
            bound_general(ctx.stack, [MultiIndex((0,))])

    def test_fuzz_slack(self):
        rng = np.random.default_rng(15)
        structures = [Polydisk((2, 1)), Polydisk((1, 1, 1)), Ball(1, 2), Ball(2, 2)]
        for i, s in enumerate(structures):
            col = random_colligation(s, dim_g=1, seed=90 + i)
            mis = [MultiIndex(a) for a in np.ndindex(*(4,) * s.d) if 1 <= sum(a) <= 4]
            for _ in range(6):
                reports = point_reports(evaluate(col, admissible_point(s, rng)), mis)
                general = [rep for rep in reports if rep.theorem_tag.startswith("general.")]
                assert len(general) == len(mis)
                for rep in general:
                    assert rep.slack >= -1e-9, rep


class TestBoundPolydisk:
    def test_monomial_factorial_equality_at_origin(self):
        for alpha in [(1,), (3,), (2, 1), (1, 1, 2), (0, 4)]:
            col = monomial(alpha)
            rep = bound_polydisk(col, (0.0,) * len(alpha), alpha, "factorial")
            assert rep.lhs == pytest.approx(MultiIndex(alpha).factorial_product, rel=1e-12)
            assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_weak_over_factorial_is_multinomial(self):
        rng = np.random.default_rng(16)
        col = random_colligation(Polydisk((1, 1)), dim_g=1, seed=33)
        z = admissible_point(col.structure, rng)
        for alpha in [(2, 1), (3, 2), (1, 1)]:
            weak = bound_polydisk(col, z, alpha, "weak")
            fact = bound_polydisk(col, z, alpha, "factorial")
            assert weak.rhs / fact.rhs == pytest.approx(MultiIndex(alpha).multinomial, rel=1e-12)

    def test_two_var_equals_mixed_after_collection(self):
        rng = np.random.default_rng(17)
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=34)
        for alpha in [(2, 0), (1, 1), (2, 3), (0, 2)]:
            z = admissible_point(col.structure, rng)
            mixed = bound_polydisk(col, z, alpha, "mixed")
            two = bound_polydisk(col, z, alpha, "two_var")
            assert mixed.rhs == pytest.approx(two.rhs, rel=1e-12)

    def test_first_variant_equals_classical_schwarz_pick_in_d1(self):
        col = blaschke(0.5)
        rng = np.random.default_rng(18)
        for _ in range(10):
            z = interior_point(col.structure, rng, scale=0.9)
            rep = bound_polydisk(col, z, (1,), "first")
            assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_variant_preconditions(self):
        col = monomial((1, 1))
        with pytest.raises(ValueError, match="order 1"):
            bound_polydisk(col, (0.0, 0.0), (1, 1), "first")
        with pytest.raises(ValueError, match="order >= 2"):
            bound_polydisk(col, (0.0, 0.0), (1, 0), "mixed")
        with pytest.raises(ValueError, match="d = 2"):
            bound_polydisk(monomial((1, 1, 1)), (0.0,) * 3, (1, 1, 1), "two_var")
        with pytest.raises(ValueError, match="unknown polydisk variant"):
            bound_polydisk(col, (0.0, 0.0), (1, 1), "sharp")

    def test_rejects_ball_colligation_and_boundary_point(self):
        ball_col = random_colligation(Ball(1, 2), dim_g=1, seed=35)
        with pytest.raises(ValueError, match="polydisk"):
            bound_polydisk(ball_col, (0.1, 0.1), (1, 0), "factorial")
        with pytest.raises(DomainViolationError):
            bound_polydisk(monomial((1, 1)), (1.0, 0.2), (1, 1), "factorial")
        with pytest.raises(DomainViolationError, match="inadmissible"):  # the rule of evaluate
            bound_polydisk(kaijser_varopoulos(), (1.0 - 1e-13, 0.0, 0.0), (1, 0, 0), "factorial")

    def test_rejects_a_nan_point(self):
        # a NaN norm passed admission, and the report's NaN slack was never counted as a violation
        with pytest.raises(DomainViolationError, match="z = nan .*inadmissible$"):
            bound_polydisk(kaijser_varopoulos(), (math.nan, 0.0, 0.0), (1, 0, 0), "factorial")
        with pytest.raises(DomainViolationError, match="z = nan .*inadmissible$"):
            bound_ball(alpay_kaptanoglu(2), (math.nan, 0.0), (1, 0), "hat")

    def test_a_polynomial_subject_that_overflows_is_a_domain_violation(self):
        # these gave lhs = inf, rhs = -inf and ratio = nan, with overflow warnings
        with pytest.raises(DomainViolationError, match=r"^the defect of p is not finite at z = \[\(0\.9\+0j\)\]$"):
            bound_polydisk(Polynomial(1, {(2,): 1e308}), (0.9,), (1,), "factorial")
        with pytest.raises(DomainViolationError, match=r"^the defect of p is not finite at z = \[\(0\.9\+0j\)\]"):
            bounds.PolynomialStack(Polynomial(1, {(1,): 1e308}), Polydisk((1,)), [[0.9]])
        stack = bounds.PolynomialStack(Polynomial(1, {(1000,): 1e300}), Polydisk((1,)), [[0.1], [0.5]])
        assert np.isfinite(stack.defect).all()
        with pytest.raises(DomainViolationError, match=r"^partial d\^8 p / dz\^\[8\] is not finite at z = "
                                                       r"\[\(0\.1\+0j\)\] \(point 0 of 2\)$"):
            stack.norms([MultiIndex.of((8,))])

    def test_polynomial_subject(self):
        kv = kaijser_varopoulos()
        rep = bound_polydisk(kv, (0.0, 0.0, 0.0), (2, 0, 0), "factorial")
        assert rep.lhs == pytest.approx(2 / 5, rel=1e-12)
        assert rep.rhs == pytest.approx(2.0, rel=1e-12)

    def test_fuzz_scalar_and_matrix_valued(self):
        rng = np.random.default_rng(19)
        for dim_g, seed in [(1, 36), (2, 37)]:
            col = random_colligation(Polydisk((2, 1)), dim_g=dim_g, seed=seed)
            alphas = [a for a in np.ndindex(4, 4) if 1 <= sum(a) <= 4]
            for _ in range(6):
                z = admissible_point(col.structure, rng)
                for alpha in alphas:
                    alpha = tuple(int(v) for v in alpha)
                    for variant in ("factorial", "weak"):
                        assert bound_polydisk(col, z, alpha, variant).slack >= -1e-9
                    if sum(alpha) >= 2:
                        assert bound_polydisk(col, z, alpha, "mixed").slack >= -1e-9
                        assert bound_polydisk(col, z, alpha, "two_var").slack >= -1e-9
                    else:
                        assert bound_polydisk(col, z, alpha, "first").slack >= -1e-9


class TestBoundBall:
    def test_coordinate_function_equality_at_origin(self):
        for d in (1, 2, 3):
            for j in range(d):
                coeffs = {tuple(int(k == j) for k in range(d)): 1.0}
                p = Polynomial(d, coeffs)
                alpha = tuple(int(k == j) for k in range(d))
                rep = bound_ball(p, (0.0,) * d, alpha, "hat")
                assert rep.lhs == pytest.approx(1.0, abs=1e-12)
                assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_origin_rhs_closed_forms(self):
        # at z = 0 every hat factor is 1 and the defect comes from D alone
        col = random_colligation(Ball(1, 2), dim_g=1, seed=38)
        d_blk = col.D
        defect = math.sqrt(
            np.linalg.norm(np.eye(col.dim_f) - d_blk.conj().T @ d_blk, 2)
        ) * math.sqrt(np.linalg.norm(np.eye(col.dim_g) - d_blk @ d_blk.conj().T, 2))
        for alpha in [(1, 0), (2, 1), (2, 2)]:
            n = sum(alpha)
            hat = bound_ball(col, (0.0, 0.0), alpha, "hat")
            assert hat.rhs == pytest.approx(math.factorial(n - 1) * n * defect, rel=1e-12)
            fact = bound_ball(col, (0.0, 0.0), alpha, "factorial")
            assert fact.rhs == pytest.approx(
                2 ** ((n - 1) / 2) * MultiIndex(alpha).factorial_product * defect,
                rel=1e-12,
            )

    def test_fuzz_matrix_valued(self):
        rng = np.random.default_rng(20)
        for s, seed in [(Ball(1, 2), 39), (Ball(2, 3), 40)]:
            col = random_colligation(s, dim_g=1, seed=seed)
            alphas = [a for a in np.ndindex(*(4,) * s.d) if 1 <= sum(a) <= 3]
            for _ in range(5):
                z = admissible_point(s, rng)
                for alpha in alphas:
                    alpha = tuple(int(v) for v in alpha)
                    for variant in ("hat", "factorial"):
                        rep = bound_ball(col, z, alpha, variant)
                        assert rep.slack >= -1e-9, rep

    def test_kernel_subchecks_are_equalities(self):
        rng = np.random.default_rng(21)
        col = random_colligation(Ball(2, 3), dim_g=1, seed=41)
        for _ in range(10):
            z = admissible_point(col.structure, rng)
            ev = evaluate(col, [z])
            for rep in reports_at(ev, ball_kernel_subchecks(ev)):
                assert abs(rep.slack) <= 1e-9 * max(1.0, rep.rhs), rep

    def test_kernel_subchecks_refuse_a_polydisk_stack(self):
        ev = evaluate(random_colligation(Polydisk((1, 1)), seed=3), [(0.1, 0.2)])
        with pytest.raises(ValueError, match="^kernel subchecks need a ball colligation$"):
            ball_kernel_subchecks(ev)

    def test_rejects_polydisk_subject(self):
        with pytest.raises(ValueError, match="ball"):
            bound_ball(monomial((1, 1)), (0.1, 0.1), (1, 0), "hat")
        with pytest.raises(ValueError, match="unknown ball variant"):
            bound_ball(alpay_kaptanoglu(1), (0.1, 0.1), (1, 0), "sup")
        with pytest.raises(DomainViolationError):
            bound_ball(alpay_kaptanoglu(1), (0.8, 0.7), (1, 0), "hat")


def _defect(phi):
    """||I - phi* phi||^(1/2) ||I - phi phi*||^(1/2) of one matrix, from numpy's matrix 2-norm."""
    dim_g, dim_f = phi.shape
    return math.sqrt(np.linalg.norm(np.eye(dim_f) - phi.conj().T @ phi, 2)) * math.sqrt(
        np.linalg.norm(np.eye(dim_g) - phi @ phi.conj().T, 2))


class TestWiener:
    def test_blaschke_is_sharp_at_first_coefficient(self):
        a = 0.5
        origin = evaluate(blaschke(a), [(0.0,)])
        reports = reports_at(origin, wiener_check(origin, [(1,), (2,), (3,)]))
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(1,)].lhs == pytest.approx(1 - a**2, abs=1e-12)
        assert by_alpha[(1,)].rhs == pytest.approx(1 - a**2, abs=1e-12)
        assert abs(by_alpha[(1,)].slack) <= 1e-12
        for rep in reports:
            assert rep.slack >= -1e-12

    def test_pure_square_monomial(self):
        origin = evaluate(monomial((2,)), [(0.0,)])
        reports = reports_at(origin, wiener_check(origin, [(1,), (2,), (3,), (4,)]))
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(2,)].lhs == pytest.approx(1.0, abs=1e-12)
        assert by_alpha[(2,)].rhs == pytest.approx(1.0, abs=1e-12)
        for rep in reports:
            assert rep.slack >= -1e-10

    def test_polynomial_subject_reads_coefficients(self):
        kv = kaijser_varopoulos()
        origin = bounds.PolynomialStack(kv, Polydisk.scalar(3), np.zeros(3))
        reports = reports_at(origin, wiener_check(origin, [(2, 0, 0), (1, 1, 0), (0, 0, 0)]))
        assert len(reports) == 2  # order zero skipped
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(2, 0, 0)].lhs == pytest.approx(1 / 5)
        assert by_alpha[(1, 1, 0)].lhs == pytest.approx(2 / 5)
        assert all(rep.rhs == pytest.approx(1.0) for rep in reports)

    def test_random_colligations(self):
        alphas = [a for a in np.ndindex(5, 5) if 1 <= sum(a) <= 4]
        for seed in range(42, 47):
            col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=seed)
            origin = evaluate(col, np.zeros((1, 2)))
            for rep in reports_at(origin, wiener_check(origin, [tuple(int(v) for v in a) for a in alphas])):
                assert rep.slack >= -1e-9, rep

    def test_ball_uses_the_sphere_average_bound(self):
        col = random_colligation(Ball(1, 3), dim_g=1, seed=53)
        defect = _defect(col.D)
        origin = evaluate(col, np.zeros((1, 3)))
        reports = reports_at(origin, wiener_check(origin, [(1, 0, 0), (1, 0, 1), (2, 0, 0)]))
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(1, 0, 1)].rhs == pytest.approx(math.pi * defect, rel=1e-12)
        # Gamma(n/2 + 1) (d - 1 + n)! / (Gamma(n/2 + d) n!) for a pure power z_1^n
        assert by_alpha[(1, 0, 0)].rhs == pytest.approx(1.6 * defect, rel=1e-12)
        assert by_alpha[(2, 0, 0)].rhs == pytest.approx(2.0 * defect, rel=1e-12)
        # in one variable the ball is the disk: the classical bound
        one_var = random_colligation(Ball(2, 1), dim_g=1, seed=54)
        origin = evaluate(one_var, [(0.0,)])
        for rep in reports_at(origin, wiener_check(origin, [(1,), (2,), (3,)])):
            assert rep.rhs == pytest.approx(_defect(one_var.D), rel=1e-12)


    @pytest.mark.parametrize("orders", [[(0, 0, 0)], []], ids=["order-zero", "none"])
    def test_no_order_above_zero_gives_no_column(self, orders):
        col = random_colligation(Polydisk((1, 1, 1)), dim_g=1, seed=42)
        assert wiener_check(evaluate(col, np.zeros((1, 3))), orders) == []
        origin = bounds.PolynomialStack(kaijser_varopoulos(), Polydisk.scalar(3), np.zeros(3))
        assert wiener_check(origin, orders) == []


class TestKneseSumRule:
    def test_symmetric_extremal_attains_equality(self):
        rng = np.random.default_rng(22)
        for d, seed in [(2, 1), (3, 5)]:
            col = symmetric_extremal(d, seed)
            for _ in range(50):
                z = admissible_point(col.structure, rng)
                assert abs(knese_residual(evaluate(col, z))) <= 1e-9

    def test_single_coordinate_monomial_is_exact(self):
        col = monomial((1, 0))
        for z in [(0.3, 0.5), (0.2 - 0.4j, -0.6j), (0.0, 0.9)]:
            assert abs(knese_residual(evaluate(col, z))) <= 1e-12

    def test_random_colligations_satisfy_inequality(self):
        rng = np.random.default_rng(23)
        for seed in (48, 49, 50):
            col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=seed)
            for _ in range(20):
                z = admissible_point(col.structure, rng)
                assert knese_residual(evaluate(col, z)) <= 1e-12

    def test_report_form(self):
        col = symmetric_extremal(2, 3)
        ev = evaluate(col, [(0.3, 0.1j)])
        (rep,) = reports_at(ev, [knese_report(ev)])
        assert rep.theorem_tag == "knese.sum_rule"
        assert abs(rep.slack) <= 1e-10

    def test_preconditions(self):
        with pytest.raises(ValueError, match="scalar"):
            knese_residual(evaluate(random_colligation(Polydisk((1, 1)), dim_g=2, seed=51), (0.1, 0.1)))
        with pytest.raises(ValueError, match="polydisk"):
            knese_residual(evaluate(random_colligation(Ball(1, 2), dim_g=1, seed=52), (0.1, 0.1)))


class TestMultiplierGram:
    def test_constant_multiplier_is_positive(self):
        rng = np.random.default_rng(24)
        pts = [interior_point(Ball(1, 2), rng, scale=0.8) for _ in range(6)]
        assert multiplier_gram_psd(lambda z: 0.3 + 0.2j, pts) > 0

    def test_coordinate_function_is_contractive_multiplier(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            pts = [interior_point(Ball(1, 3), rng, scale=0.9) for _ in range(8)]
            assert multiplier_gram_psd(lambda z: z[0], pts) >= -1e-10

    def test_duplicate_points_warn(self):
        z = (0.1, 0.2)
        with pytest.warns(DegenerateGramWarning):
            multiplier_gram_psd(lambda z: z[0], [z, z])

    @pytest.mark.parametrize("f", [lambda z: math.inf, lambda z: complex(0.5, math.nan),
                                   Polynomial(2, {(1, 0): 1e308})],
                             ids=["callable-inf", "callable-nan", "polynomial-overflow"])
    def test_refuses_a_multiplier_whose_gram_matrix_is_not_finite(self, f):
        # these gave a NaN minimum eigenvalue, or an overflow warning, instead of an error
        with pytest.raises(ValueError, match="^the Gram matrix is not finite"):
            multiplier_gram_psd(f, [(0.9, 0.2), (0.3, 0.1)])

    def test_names_the_point_set_whose_gram_matrix_is_not_finite(self):
        stack = [[(0.0, 0.0), (0.0, 0.1)], [(0.9, 0.2), (0.3, 0.1)]]  # f is 0 on the first set
        with pytest.raises(ValueError, match=r"^the Gram matrix of point set 1 is not finite: f = \[\(9e\+307"):
            multiplier_gram_psd(Polynomial(2, {(1, 0): 1e308}), stack)

    def test_rejects_points_outside_ball(self):
        with pytest.raises(DomainViolationError):
            multiplier_gram_psd(lambda z: z[0], [(0.9, 0.9)])
        with pytest.raises(DomainViolationError, match="inadmissible"):  # the rule of evaluate
            multiplier_gram_psd(lambda z: z[0], [(0.1, 0.2), (1.0 - 1e-13, 0.0)])

    def test_rejects_a_nan_point(self):
        # the NaN passed admission and gave a NaN eigenvalue with a RuntimeWarning
        with pytest.raises(DomainViolationError, match="z = nan .*inadmissible"):
            multiplier_gram_psd(alpay_kaptanoglu(2), [(math.nan, 0.0)])

    @pytest.mark.parametrize("points", [[(0.1, 0.2), (0.3,)], [(0.1, 0.2), (0.2, 0.1), (0.3, 0.0, 0.1)]],
                             ids=["short", "long"])
    def test_rejects_points_of_unequal_length(self, points):
        # zip truncated the inner product <z_k, z_j> to the shorter point
        k = len(points) - 1
        with pytest.raises(ValueError, match=f"points 0 and {k} have 2 and {len(points[k])} coordinates"):
            multiplier_gram_psd(lambda z: 0.5 * z[0], points)

    def test_a_stack_of_lists_is_the_stack_of_arrays(self):
        sets = sample_point(Ball(1, 2), np.random.default_rng(30), m=12).reshape(3, 4, 2)
        nested = [[tuple(p) for p in pts] for pts in sets.tolist()]
        want = multiplier_gram_psd(lambda z: z[0], sets)
        assert np.array_equal(multiplier_gram_psd(lambda z: z[0], nested).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("points", [
        [0.1, 0.2],  # one point without its set
        [[(0.1, 0.2), (0.2, 0.1)], [(0.1, 0.2)]],  # sets of unequal size
        [[(0.1, 0.2)], [(0.1, 0.2, 0.3)]],  # sets of unequal dimension
        [(0.1, [0.2])],  # a coordinate that is a list
        [[[(0.1, 0.2)]]],  # a stack of stacks
    ], ids=["flat", "ragged-sets", "ragged-points", "nested-coordinate", "four-axes"])
    def test_other_shapes_raise_value_error(self, points):
        with pytest.raises(ValueError):
            multiplier_gram_psd(lambda z: z[0], points)

    def test_polynomial_values_come_from_one_stacked_call(self, monkeypatch):
        p, rng = alpay_kaptanoglu(2), np.random.default_rng(27)
        pts = [interior_point(Ball(1, 2), rng, scale=0.9) for _ in range(8)]
        calls = []

        def counted(f, z, alpha):
            calls.append(np.shape(z))
            return poly_partial(f, z, alpha)

        monkeypatch.setattr(bounds, "poly_partial", counted)
        got = multiplier_gram_psd(p, pts)
        assert calls == [(8, 2)]
        assert got == multiplier_gram_psd(lambda z: p(z), pts)

    def test_stack_of_sets_takes_one_stacked_call(self, monkeypatch):
        p, sets = alpay_kaptanoglu(2), sample_point(Ball(1, 2), np.random.default_rng(28), m=24).reshape(3, 8, 2)
        calls = []

        def counted(f, z, alpha):
            calls.append(np.shape(z))
            return poly_partial(f, z, alpha)

        monkeypatch.setattr(bounds, "poly_partial", counted)
        got = multiplier_gram_psd(p, sets)
        assert calls == [(24, 2)] and got.shape == (3,)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sampler", ["uniform", "boundary-biased"])
    def test_stacks_keep_the_bits_of_the_double_loop(self, d, sampler):
        polys = {2: alpay_kaptanoglu(3), 3: Polynomial(3, {(0, 0, 0): 0.1 + 0.2j, (1, 1, 0): 0.4, (0, 2, 1): -0.3j})}
        subjects = [polys[d], lambda z: 0.6 * z[0] - 0.3j * z[-1] * z[-1]]
        for seed in range(8):
            rng = np.random.default_rng(seed)
            for m in (1, 2, 5, 8):
                sets = sample_point(Ball(1, d), rng, sampler, m=4 * m).reshape(4, m, d)
                for f in subjects:
                    want = [double_loop_gram(f, pts) for pts in sets]
                    assert [multiplier_gram_psd(f, pts) for pts in sets] == want
                    assert np.array_equal(multiplier_gram_psd(f, sets).view(np.int64), np.array(want).view(np.int64))

    def test_stack_warns_at_the_coinciding_points_of_each_set(self):
        sets = sample_point(Ball(1, 2), np.random.default_rng(29), m=12).reshape(3, 4, 2)
        sets[1, 2], sets[2, 3] = sets[1, 0], sets[2, 1] + 1e-13
        with warnings.catch_warnings(record=True) as stacked:
            warnings.simplefilter("always")
            multiplier_gram_psd(lambda z: z[0], sets)
        expected = []
        for s, pts in enumerate(sets):
            with warnings.catch_warnings(record=True) as own:
                warnings.simplefilter("always")
                multiplier_gram_psd(lambda z: z[0], pts)
            expected += [f"point set {s}: {w.message}" for w in own]
        assert expected == ["point set 1: points 0 and 2 coincide to 1e-12; Gram matrix is degenerate",
                            "point set 2: points 1 and 3 coincide to 1e-12; Gram matrix is degenerate"]
        assert [str(w.message) for w in stacked] == expected
        assert all(w.category is DegenerateGramWarning for w in stacked)

    def test_alpay_kaptanoglu_is_observational(self):
        # sign is reported, not asserted; just exercise the path
        p = alpay_kaptanoglu(2)
        rng = np.random.default_rng(26)
        pts = [interior_point(Ball(1, 2), rng, scale=0.95) for _ in range(10)]
        assert isinstance(multiplier_gram_psd(p, pts), float)


def double_loop_gram(f, points):
    """The Gram check as it was before it took stacks, entry by entry: the bit-identity reference."""
    pts = [tuple(complex(v) for v in p) for p in points]
    if isinstance(f, Polynomial):
        values = poly_partial(f, np.array(pts, dtype=np.complex128), (0,) * f.dimension).tolist()
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


# --- the multi-index axis: one call per bound, every value with the bits of one multi-index ---


def _add(values):
    """Floats added from the left, one rounding per term, as the stacked code adds them (Python 3.12's ``sum``
    compensates, so it is not that oracle)."""
    return functools.reduce(operator.add, values, 0)


def _scalar_rhs(tag, defect, g, i, mi):
    """A VARIANTS right-hand side at point i, as stated, in Python floats."""
    n, fp, zabs2 = mi.order, mi.factorial_product, g.zabs2[i].tolist()
    s, s2 = float(g.norm[i]), float(g.norm2[i])  # the domain norm: ||z||_inf on the polydisk, ||z||_2 on the ball
    if tag == "polydisk.factorial":
        return fp * defect / ((1.0 - s2) * (1.0 - s) ** (n - 1))
    if tag == "polydisk.weak":
        return math.factorial(n) * defect / ((1.0 - s2) * (1.0 - s) ** (n - 1))
    if tag == "polydisk.first":
        return defect / (math.sqrt(1.0 - zabs2[mi.counts.index(1)]) * math.sqrt(1.0 - s2))
    if tag == "polydisk.mixed":
        w = [1.0 / math.sqrt(1.0 - zabs2[k - 1]) for k in mi.canonical_klist()]
        return math.factorial(n - 2) * defect / (1.0 - s) ** (n - 1) * (_add(w) ** 2 - _add(v * v for v in w))
    if tag == "polydisk.two_var":
        (n1, n2), (d1, d2) = mi.counts, (1.0 - zabs2[0], 1.0 - zabs2[1])
        bracket = (n1 * n1 - n1) / d1 + 2.0 * n1 * n2 / math.sqrt(d1 * d2) + (n2 * n2 - n2) / d2
        return math.factorial(n - 2) * defect / (1.0 - s) ** (n - 1) * bracket
    base = defect / ((1.0 - s2) * (1.0 - s) ** (n - 1))
    if tag == "ball.hat":
        hat_sum = _add(nj * math.sqrt(max(1.0 - float(g.hat2[i, j]), 0.0)) for j, nj in enumerate(mi.counts))
        return math.factorial(n - 1) * base * hat_sum
    assert tag == "ball.factorial"
    return mi.d ** ((n - 1) / 2.0) * fp * base


def _scalar_general(ctx, mi):
    """The structure-free resolvent bound at one point, as stated, in Python floats."""
    a, b, ks = ctx.gram[0].tolist(), ctx.gram[1].tolist(), mi.canonical_klist()
    defect, znorm = float(ctx.defect), float(ctx.znorm)
    if mi.order == 1:
        return defect / math.sqrt(1.0 - znorm ** 2) * min(a[ks[0] - 1], b[ks[0] - 1])
    sum_a, sum_b = _add(a[k - 1] for k in ks), _add(b[k - 1] for k in ks)
    diag = _add(a[k - 1] * b[k - 1] for k in ks)
    return math.factorial(mi.order - 2) * defect / (1.0 - znorm) ** (mi.order - 1) * (sum_a * sum_b - diag)


def _bits(values):
    return [float.__repr__(float(v)) for v in values]


class TestReportLayout:
    @pytest.mark.parametrize("dim_g", [1, 2])
    @pytest.mark.parametrize("structure", MIXED_STRUCTURES, ids=str)
    def test_the_table_is_the_plain_loop_over_the_checks(self, structure, dim_g):
        rng = np.random.default_rng(40 + 3 * structure.d + dim_g)
        col = random_colligation(structure, dim_g=dim_g, seed=50 + structure.d + dim_g)
        ev = evaluate(col, [admissible_point(structure, rng) for _ in range(3)])
        mis = [MultiIndex(a) for a in multi_indices(structure.d, MAX_ORDER)]
        lead = [Column("identity.kernel_input", None, np.arange(3.0), np.ones(3), [("near-boundary",), (), ()])]
        table = bounds.report_columns(ev, mis, lead)
        on_ball = isinstance(structure, Ball)
        expected = [("identity.kernel_input", None)] + [(c.tag, c.alpha) for c in resolvent_norm_estimates(ev)]
        expected.append(("lmatrix.geometric", None))
        if on_ball:
            expected += [(c.tag, c.alpha) for c in ball_kernel_subchecks(ev)]
        elif col.dim_f == col.dim_g == 1:
            expected.append(("knese.sum_rule", None))
        for mi in mis:
            expected.append(("general.first_order" if mi.order == 1 else "general.higher_order", mi.counts))
            if mi.order >= 2:
                expected.append(("koperator.ball" if on_ball else "koperator.polydisk", mi.counts))
            expected += [(v.tag, mi.counts) for v in bounds.applicable_variants(type(structure), mi)]
        assert list(table.keys) == expected
        assert table.own == {0: lead[0].flags} and table.lhs.shape == table.rhs.shape == (3, len(expected))
        # each column has the bits of the table of its multi-index alone
        checked = set()
        for mi in mis:
            one = bounds.report_columns(ev, [mi], lead)
            for q, key in enumerate(one.keys):
                p = expected.index(key)
                for got, alone in ((table.lhs[:, p], one.lhs[:, q]), (table.rhs[:, p], one.rhs[:, q])):
                    assert np.array_equal(got.view(np.int64), alone.view(np.int64)), key
                checked.add(p)
        assert checked == set(range(len(expected)))

    @pytest.mark.parametrize("structure", MIXED_STRUCTURES, ids=str)
    def test_a_one_point_bound_is_its_campaign_column(self, structure):
        domain, d = type(structure), structure.d
        rng = np.random.default_rng(60 + d)
        z = admissible_point(structure, rng)
        col = random_colligation(structure, dim_g=1, seed=70 + d)
        poly = Polynomial(d, {a: 0.2 * complex(*rng.standard_normal(2)) for a in [(0,) * d, *multi_indices(d, 2)]})
        bound = bound_ball if domain is Ball else bound_polydisk
        for subject, points in ((col, evaluate(col, [z])), (poly, bounds.PolynomialStack(poly, domain.scalar(d), [z]))):
            for mi in map(MultiIndex, multi_indices(d, 3)):
                table = bounds.report_columns(points, [mi])
                for v in bounds.applicable_variants(domain, mi):
                    rep = bound(subject, z, mi.counts, v.tag.partition(".")[2])
                    p = table.keys.index((v.tag, mi.counts))
                    assert (rep.theorem_tag, rep.z, rep.alpha) == (v.tag, z, mi.counts)
                    assert _bits([rep.lhs, rep.rhs]) == _bits([table.lhs[0, p], table.rhs[0, p]]), (v.tag, mi)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("subject", ["colligation", "polynomial"])
    @pytest.mark.parametrize("domain", [Polydisk, Ball], ids=lambda domain: domain.__name__)
    def test_a_one_point_bound_refuses_an_array_of_points_by_its_shape(self, domain, subject, m):
        # a polynomial subject used to report at the first point and drop the rest, a colligation to end
        # in an AttributeError; one point of shape (d,) is still the one accepted
        poly = Polynomial(2, {(1, 0): 0.5})
        target = random_colligation(domain.scalar(2), seed=3) if subject == "colligation" else poly
        bound, zs = bound_ball if domain is Ball else bound_polydisk, [[0.1, 0.2], [0.3, 0.4]][:m]
        with pytest.raises(ValueError, match=re.escape(f"one point of shape (d,), got an array of shape ({m}, 2)")):
            bound(target, zs, (1, 0), "factorial")
        assert bound(target, zs[0], (1, 0), "factorial").z == (0.1, 0.2)


BATCH_STRUCTURES = [Polydisk((1,)), Polydisk((2, 1)), Polydisk((1, 1, 1)), Ball(2, 1), Ball(1, 2), Ball(2, 3)]


class TestMultiIndexAxis:
    @pytest.fixture(params=BATCH_STRUCTURES, ids=str)
    def structure(self, request):
        return request.param

    @staticmethod
    def stack(structure, m, seed):
        """A seeded stack of m points of ``structure``'s domain; the last one
        sits 1e-7 inside the boundary, where the bounds are flagged."""
        rng = np.random.default_rng(seed)
        col = random_colligation(structure, dim_g=1 + seed % 2, seed=seed)
        zs = [admissible_point(structure, rng) for _ in range(m - 1)]
        edge = np.array(admissible_point(structure, rng))
        zs.append(tuple(edge * (1.0 - 1e-7) / structure_norm(structure, edge)))
        return evaluate(col, zs)

    @pytest.mark.parametrize("m", [1, 7])
    def test_every_rhs_has_the_bits_of_one_multi_index(self, structure, m):
        ev = self.stack(structure, m, seed=60 + m + structure.d)
        assert "near-boundary" in ev[m - 1].flags
        mis = [MultiIndex(a) for a in multi_indices(structure.d, MAX_ORDER)]
        defect, g = ev.defect, ev.geometry
        for row in (v for v in bounds.VARIANTS if v.domain is type(structure)):
            at = [mi for mi in mis if row.unmet(mi) is None]
            if not at:
                continue
            batched = row.rhs(defect, g, at)
            assert batched.shape == (m, len(at))
            for c, mi in enumerate(at):
                one = row.rhs(defect, g, [mi])[:, 0]
                stated = [_scalar_rhs(row.tag, float(defect[i]), g, i, mi) for i in range(m)]
                assert _bits(batched[:, c]) == _bits(one) == _bits(stated), (row.tag, mi)
        general = bounds.bound_general(ev, mis)
        high = [mi for mi in mis if mi.order >= 2]
        kbound = bounds._koperator_rhs(ev, high)
        scale = structure.d if isinstance(structure, Ball) else 1
        for c, mi in enumerate(mis):
            stated = [_scalar_general(ev[i], mi) for i in range(m)]
            assert _bits(general[:, c]) == _bits(bounds.bound_general(ev, [mi])[:, 0]) == _bits(stated), mi
        for c, mi in enumerate(high):
            stated = [scale ** ((mi.order - 1) / 2.0) * float(ev.lnorm[i]) ** (mi.order - 1) for i in range(m)]
            assert _bits(kbound[:, c]) == _bits(bounds._koperator_rhs(ev, [mi])[:, 0]) == _bits(stated), mi

    def test_norms_have_the_bits_of_one_multi_index(self, structure):
        ev = self.stack(structure, 7, seed=70 + structure.d)
        mis = [MultiIndex(a) for a in multi_indices(structure.d, MAX_ORDER)]
        partials, kops = ev.norms(mis), spectral_norm(ev.kops(mis)).T
        for mi, norm, knorm in zip(mis, partials, kops):
            one = evaluate(ev.col, ev.zs)
            assert _bits(norm) == _bits(one.norms([mi])[0]), mi
            assert _bits(knorm) == _bits(spectral_norm(one.kops([mi]))[:, 0]), mi
            assert _bits(norm) == _bits(spectral_norm(ev.partials([mi])[i, 0]) for i in range(7)), mi

    @pytest.mark.parametrize("structure", [Polydisk((2, 1)), Polydisk((1, 1, 1)), Ball(1, 2)], ids=str)
    def test_report_columns_pick_the_rows_that_apply(self, structure, monkeypatch):
        # a polynomial stack's table is its VARIANTS columns alone; an evaluated stack's has them among the rest
        calls = []

        def counted(row):
            def rhs(defect, g, mis):
                calls.append(row.tag)
                return row.rhs(defect, g, mis)
            return dataclasses.replace(row, rhs=rhs)

        ev = self.stack(structure, 3, seed=90 + structure.d)
        poly = Polynomial(structure.d, {(1,) * structure.d: 0.5, (2,) + (0,) * (structure.d - 1): 0.25})
        mis = [MultiIndex(a) for a in multi_indices(structure.d, 3)]
        table = bounds.VARIANTS
        for points in (ev, bounds.PolynomialStack(poly, structure, ev.zs)):
            monkeypatch.setattr(bounds, "VARIANTS", tuple(map(counted, table)))
            got = bounds.report_columns(points, mis)
            monkeypatch.setattr(bounds, "VARIANTS", table)
            rows = [p for p, (tag, _) in enumerate(got.keys) if tag in {v.tag for v in table}]
            only_rows = isinstance(points, bounds.PolynomialStack)
            assert (rows == list(range(len(got.keys)))) is only_rows
            per_mi = [[p for p in rows if got.keys[p][1] == mi.counts] for mi in mis]
            assert sum(per_mi, []) == rows  # the rows of each mi in turn
            for mi, columns, norm in zip(mis, per_mi, points.norms(mis)):
                tags = [got.keys[p][0] for p in columns]
                assert tags == [v.tag for v in bounds.applicable_variants(type(structure), mi)], mi
                assert tags == sorted(tags, key=[v.tag for v in table].index) and tags, mi
                for p, tag in zip(columns, tags):
                    row = next(v for v in table if v.tag == tag)
                    assert _bits(got.lhs[:, p]) == _bits(norm)
                    assert _bits(got.rhs[:, p]) == _bits(row.rhs(points.defect, points.geometry, [mi])[:, 0])
            assert sorted(calls) == sorted({got.keys[p][0] for p in rows})  # one call per row
            calls.clear()

    def test_lead_columns_come_first_on_a_polynomial_stack(self, structure):
        ev = self.stack(structure, 3, seed=95 + structure.d)
        points = bounds.PolynomialStack(Polynomial(structure.d, {(1,) * structure.d: 0.5}), structure, ev.zs)
        mis = [MultiIndex(a) for a in multi_indices(structure.d, 2)]
        lead = [Column("identity.kernel_input", None, np.arange(3.0), np.ones(3), [("near-boundary",), (), ()]),
                Column("identity.kernel_output", None, np.ones(3), np.full(3, 2.0))]
        plain, got = bounds.report_columns(points, mis), bounds.report_columns(points, mis, lead)
        assert got.keys == tuple((c.tag, c.alpha) for c in lead) + plain.keys
        assert got.own == {0: lead[0].flags} and plain.own == {}
        for p, column in enumerate(lead):
            assert _bits(got.lhs[:, p]) == _bits(column.lhs) and _bits(got.rhs[:, p]) == _bits(column.rhs)
        assert np.array_equal(got.lhs[:, 2:].view(np.int64), plain.lhs.view(np.int64))
        assert np.array_equal(got.rhs[:, 2:].view(np.int64), plain.rhs.view(np.int64))

    def test_wiener_has_the_bits_of_one_multi_index(self, structure):
        col = random_colligation(structure, dim_g=2, seed=80 + structure.d)
        orders = multi_indices(structure.d, MAX_ORDER)

        def origins():  # a fresh stack at the origin, none of its norms known yet
            return evaluate(col, np.zeros((1, structure.d)))

        batched = bounds.wiener_check(origins(), orders)
        assert [c.alpha for c in batched] == orders
        origin = evaluate(col, np.zeros(structure.d))
        for column in batched:
            (one,) = bounds.wiener_check(origins(), [column.alpha])
            mi = MultiIndex(column.alpha)
            assert _bits(column.lhs) == _bits(one.lhs) == _bits([origin.norms([mi])[0] / mi.factorial_product])
            assert _bits(column.rhs) == _bits(one.rhs)


class TestRuscheweyhReduction:
    """In one variable the factorial, weak and mixed polydisk bounds are all
    St. Ruscheweyh's n! (1 + |z|)^(n-1) D / (1 - |z|^2)^n ("Two remarks on
    bounded analytic functions", 1985), a closed form independent of how the
    right-hand sides are computed."""

    @staticmethod
    def closed_form(n, r, defect):
        return math.factorial(n) * (1.0 + r) ** (n - 1) * defect / (1.0 - r * r) ** n

    @pytest.mark.parametrize("tag, lowest", [("polydisk.factorial", 1), ("polydisk.weak", 1), ("polydisk.mixed", 2)])
    def test_one_variable_bounds_are_ruscheweyhs(self, tag, lowest):
        rng = np.random.default_rng(91)
        r = 0.99 * rng.random(50)
        zs = r * np.exp(2j * np.pi * rng.random(50))
        defect = rng.random(50)
        row = next(v for v in bounds.VARIANTS if v.tag == tag)
        mis = [MultiIndex((n,)) for n in range(lowest, MAX_ORDER + 1)]
        got = row.rhs(defect, bounds.StackGeometry(Polydisk((1,)), zs[:, None]), mis)
        for c, mi in enumerate(mis):
            closed = [self.closed_form(mi.order, abs(z), d) for z, d in zip(zs.tolist(), defect.tolist())]
            np.testing.assert_allclose(got[:, c], closed, rtol=1e-13, atol=0)
            z, d = complex(zs[c]), float(defect[c])
            one = bounds.polydisk_rhs(d, (z,), mi, tag.partition(".")[2])
            assert one == pytest.approx(self.closed_form(mi.order, abs(z), d), rel=1e-13, abs=0)
