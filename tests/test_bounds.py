"""Derivative bounds, equality witnesses, sum rule, and kernel positivity."""

import math

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
from aglerlab.bounds import PointGeometry, ball_kernel_subchecks, knese_report
from aglerlab.errors import DegenerateGramWarning
from aglerlab.reports import BoundReport
from aglerlab.transfer import defect_norms
from conftest import admissible_point, interior_point


class TestPointGeometry:
    def test_example(self):
        g = PointGeometry.from_point((0.3, 0.4j))
        assert g.sup_norm == pytest.approx(0.4)
        assert g.eucl_norm == pytest.approx(0.5)
        assert g.hat_norms == pytest.approx((0.4, 0.3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_invariants(self, seed, d):
        rng = np.random.default_rng(seed)
        z = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        g = PointGeometry.from_point(z)
        for j in range(d):
            assert abs(g.hat_norms[j] ** 2 - (g.eucl_norm**2 - abs(z[j]) ** 2)) <= 1e-12
        assert g.sup_norm <= g.eucl_norm + 1e-14
        assert g.eucl_norm <= math.sqrt(d) * g.sup_norm + 1e-14


class TestBoundReport:
    def test_ratio_zero_when_rhs_zero(self):
        rep = BoundReport("t", (0j,), None, lhs=0.0, rhs=0.0)
        assert rep.ratio == 0.0
        assert rep.slack == 0.0


class TestBoundGeneral:
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9j])
    def test_blaschke_origin_is_sharp(self, a):
        rep = bound_general(evaluate(blaschke(a), (0.0,)), alpha=(1,))
        assert rep.lhs == pytest.approx(1 - abs(a) ** 2, abs=1e-12)
        assert rep.rhs == pytest.approx(1 - abs(a) ** 2, abs=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_monomial_pair_ratio_half(self):
        rep = bound_general(evaluate(monomial((1, 1)), (0.0, 0.0)), alpha=(1, 1))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.ratio == pytest.approx(0.5, abs=1e-12)

    def test_rejects_order_zero(self):
        ctx = evaluate(blaschke(0.2), (0.0,))
        with pytest.raises(ValueError, match="order >= 1"):
            bound_general(ctx, (0,))

    def test_fuzz_slack(self):
        rng = np.random.default_rng(15)
        structures = [Polydisk((2, 1)), Polydisk((1, 1, 1)), Ball(1, 2), Ball(2, 2)]
        for i, s in enumerate(structures):
            col = random_colligation(s, dim_g=1, seed=90 + i)
            alphas = [a for a in np.ndindex(*(4,) * s.d) if 1 <= sum(a) <= 4]
            for _ in range(6):
                z = admissible_point(s, rng)
                for alpha in alphas:
                    rep = bound_general(evaluate(col, z), alpha=tuple(int(v) for v in alpha))
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
            for rep in ball_kernel_subchecks(evaluate(col, z)):
                assert abs(rep.slack) <= 1e-9 * max(1.0, rep.rhs), rep

    def test_rejects_polydisk_subject(self):
        with pytest.raises(ValueError, match="ball"):
            bound_ball(monomial((1, 1)), (0.1, 0.1), (1, 0), "hat")
        with pytest.raises(ValueError, match="unknown ball variant"):
            bound_ball(alpay_kaptanoglu(1), (0.1, 0.1), (1, 0), "sup")
        with pytest.raises(DomainViolationError):
            bound_ball(alpay_kaptanoglu(1), (0.8, 0.7), (1, 0), "hat")


class TestWiener:
    def test_blaschke_is_sharp_at_first_coefficient(self):
        a = 0.5
        reports = wiener_check(blaschke(a), [(1,), (2,), (3,)])
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(1,)].lhs == pytest.approx(1 - a**2, abs=1e-12)
        assert by_alpha[(1,)].rhs == pytest.approx(1 - a**2, abs=1e-12)
        assert abs(by_alpha[(1,)].slack) <= 1e-12
        for rep in reports:
            assert rep.slack >= -1e-12

    def test_pure_square_monomial(self):
        reports = wiener_check(monomial((2,)), [(1,), (2,), (3,), (4,)])
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(2,)].lhs == pytest.approx(1.0, abs=1e-12)
        assert by_alpha[(2,)].rhs == pytest.approx(1.0, abs=1e-12)
        for rep in reports:
            assert rep.slack >= -1e-10

    def test_polynomial_subject_reads_coefficients(self):
        kv = kaijser_varopoulos()
        reports = wiener_check(kv, [(2, 0, 0), (1, 1, 0), (0, 0, 0)])
        assert len(reports) == 2  # order zero skipped
        by_alpha = {rep.alpha: rep for rep in reports}
        assert by_alpha[(2, 0, 0)].lhs == pytest.approx(1 / 5)
        assert by_alpha[(1, 1, 0)].lhs == pytest.approx(2 / 5)
        assert all(rep.rhs == pytest.approx(1.0) for rep in reports)

    def test_random_colligations(self):
        alphas = [a for a in np.ndindex(5, 5) if 1 <= sum(a) <= 4]
        for seed in range(42, 47):
            col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=seed)
            for rep in wiener_check(col, [tuple(int(v) for v in a) for a in alphas]):
                assert rep.slack >= -1e-9, rep

    def test_ball_uses_the_sphere_average_bound(self):
        col = random_colligation(Ball(1, 3), dim_g=1, seed=53)
        defect = math.prod(defect_norms(col.D))
        by_alpha = {rep.alpha: rep for rep in wiener_check(col, [(1, 0, 0), (1, 0, 1), (2, 0, 0)])}
        assert by_alpha[(1, 0, 1)].rhs == pytest.approx(math.pi * defect, rel=1e-12)
        # Gamma(n/2 + 1) (d - 1 + n)! / (Gamma(n/2 + d) n!) for a pure power z_1^n
        assert by_alpha[(1, 0, 0)].rhs == pytest.approx(1.6 * defect, rel=1e-12)
        assert by_alpha[(2, 0, 0)].rhs == pytest.approx(2.0 * defect, rel=1e-12)
        # in one variable the ball is the disk: the classical bound
        one_var = random_colligation(Ball(2, 1), dim_g=1, seed=54)
        for rep in wiener_check(one_var, [(1,), (2,), (3,)]):
            assert rep.rhs == pytest.approx(math.prod(defect_norms(one_var.D)), rel=1e-12)


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
        rep = knese_report(evaluate(col, (0.3, 0.1j)))
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

    def test_rejects_points_outside_ball(self):
        with pytest.raises(DomainViolationError):
            multiplier_gram_psd(lambda z: z[0], [(0.9, 0.9)])
        with pytest.raises(DomainViolationError, match="inadmissible"):  # the rule of evaluate
            multiplier_gram_psd(lambda z: z[0], [(0.1, 0.2), (1.0 - 1e-13, 0.0)])

    @pytest.mark.parametrize("points", [[(0.1, 0.2), (0.3,)], [(0.1, 0.2), (0.2, 0.1), (0.3, 0.0, 0.1)]],
                             ids=["short", "long"])
    def test_rejects_points_of_unequal_length(self, points):
        # zip truncated the inner product <z_k, z_j> to the shorter point
        k = len(points) - 1
        with pytest.raises(ValueError, match=f"points 0 and {k} have 2 and {len(points[k])} coordinates"):
            multiplier_gram_psd(lambda z: 0.5 * z[0], points)

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

    def test_alpay_kaptanoglu_is_observational(self):
        # sign is reported, not asserted; just exercise the path
        p = alpay_kaptanoglu(2)
        rng = np.random.default_rng(26)
        pts = [interior_point(Ball(1, 2), rng, scale=0.95) for _ in range(10)]
        assert isinstance(multiplier_gram_psd(p, pts), float)
