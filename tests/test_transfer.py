"""Evaluation contexts, kernel identities, and resolvent norm estimates."""

import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerlab import (
    Ball,
    Colligation,
    DomainViolationError,
    Polydisk,
    Polynomial,
    blaschke,
    monomial,
    random_colligation,
    spectral_norm,
)
from aglerlab.transfer import (
    evaluate,
    identity_residuals,
    lnorm_bound_check,
    resolvent_norm_estimates,
)
from aglerlab import transfer
from aglerlab.bounds import PolynomialStack, point_reports
from aglerlab.colligation import admit, structure_norm, zmatrix
from aglerlab.derivative import MultiIndex, partial_at
from aglerlab.harness import multi_indices
from conftest import MIXED_STRUCTURES, admissible_point, reports_at


def neumann_resolvent(col, z, terms=200):
    """Independent oracle for (I - AZ)^{-1}: partial geometric sum."""
    zm = zmatrix(col.structure, z)
    acc = np.eye(col.dim_k, dtype=np.complex128)
    power = np.eye(col.dim_k, dtype=np.complex128)
    for _ in range(terms):
        power = power @ (col.A @ zm)
        acc += power
    return acc


class TestEvaluate:
    def test_blaschke_at_origin(self):
        ctx = evaluate(blaschke(0.5), (0.0,))
        np.testing.assert_allclose(ctx.phi, [[-0.5]], atol=1e-15)

    def test_monomial_product(self):
        ctx = evaluate(monomial((1, 1)), (0.3, 0.4))
        np.testing.assert_allclose(ctx.phi, [[0.12]], atol=1e-15)

    def test_origin_returns_d_block(self):
        col = random_colligation(Ball(2, 2), dim_g=2, seed=8)
        ctx = evaluate(col, (0.0, 0.0))
        np.testing.assert_array_equal(ctx.phi, col.D)

    def test_rejects_boundary_point(self):
        col = blaschke(0.5)
        with pytest.raises(DomainViolationError, match="inadmissible"):
            evaluate(col, (1.0,))
        with pytest.raises(DomainViolationError):
            evaluate(col, (1.0 - 1e-14,))

    def test_rejects_a_nan_point(self):
        # a NaN norm passed admission, and the point was refused only later, as "phi is not finite"
        with pytest.raises(DomainViolationError, match="z = nan .*inadmissible$"):
            evaluate(blaschke(0.5), (np.nan,))
        with pytest.raises(DomainViolationError, match=r"inadmissible \(1 of 2 points, first at index 1\)"):
            evaluate(blaschke(0.5), [(0.1,), (complex(0.0, np.nan),)])

    def test_rejects_point_outside_domain_behind_empty_block(self):
        with pytest.raises(DomainViolationError, match="inadmissible"):
            evaluate(monomial((1, 0)), (0.3, 1.5))

    def test_znorm_is_the_pencil_norm(self):
        rng = np.random.default_rng(6)
        structures = MIXED_STRUCTURES + [Polydisk((2, 0, 1))]
        for i, s in enumerate(structures):
            col = random_colligation(s, dim_g=1, seed=60 + i)
            z = admissible_point(s, rng)
            ctx = evaluate(col, z)
            assert abs(ctx.znorm - spectral_norm(ctx.zmat)) <= 1e-15

    def test_alternate_form_agreement(self):
        rng = np.random.default_rng(0)
        for i, s in enumerate(MIXED_STRUCTURES):
            col = random_colligation(s, dim_g=1, seed=20 + i)
            z = admissible_point(s, rng)
            ctx = evaluate(col, z)
            alt = col.D + col.C @ ctx.r_ha @ ctx.zmat @ col.B
            assert spectral_norm(ctx.phi - alt) <= 1e-10

    def test_context_invariants(self):
        rng = np.random.default_rng(1)
        col = random_colligation(Polydisk((2, 1)), dim_g=2, seed=4)
        z = admissible_point(col.structure, rng)
        ctx = evaluate(col, z)
        eye_k = np.eye(col.dim_k)
        assert spectral_norm(ctx.r_ka @ (eye_k - col.A @ ctx.zmat) - eye_k) <= 1e-10
        # the two expressions for L agree
        assert spectral_norm(col.A @ ctx.r_ha - ctx.r_ka @ col.A) <= 1e-10

    def test_neumann_oracle_for_small_pencil(self):
        rng = np.random.default_rng(2)
        col = random_colligation(Ball(1, 3), dim_g=1, seed=14)
        z = admissible_point(col.structure, rng, scale=0.3)
        ctx = evaluate(col, z)
        assert spectral_norm(ctx.r_ka - neumann_resolvent(col, z)) <= 1e-12

    def test_repeat_evaluation_is_bit_identical(self):
        col = random_colligation(Polydisk((2, 2)), dim_g=1, seed=77)
        z = (0.31 - 0.2j, 0.55j)
        a = evaluate(col, z)
        b = evaluate(col, z)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.r_ka, b.r_ka)

    def test_conditioning_flag_on_defective_input(self):
        # non-unitary colligation whose pencil nearly hits a unit eigenvalue
        a = np.diag([2.0, 0.1]).astype(complex)
        col = Colligation(Polydisk((1, 1)), A=a, B=np.zeros((2, 1)),
                          C=np.zeros((1, 2)), D=[[1.0]])
        ctx = evaluate(col, (0.5 - 1e-16, 0.0))
        assert ctx.cond > 1e14
        assert "ill-conditioned" in ctx.flags

    def test_singular_pencil_is_a_domain_violation(self):
        # non-unitary colligation with I - AZ(z) exactly singular at z = 0.5
        col = Colligation(Polydisk((1,)), A=[[2.0]], B=[[0.0]], C=[[0.0]], D=[[1.0]])
        with pytest.raises(DomainViolationError, match="singular"):
            evaluate(col, (0.5,))
        with pytest.raises(DomainViolationError, match=r"singular at z = \[\(0.5\+0j\)\] \(point 2 of 3\)"):
            evaluate(col, np.array([[0.1], [-0.2], [0.5]]))

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_phi_is_a_domain_violation(self):
        # non-unitary colligation whose phi(z) = 10^600 z overflows at every z but 0
        col = Colligation(Polydisk((1,)), A=[[0.0]], B=[[1e300]], C=[[1e300]], D=[[0.0]])
        with pytest.raises(DomainViolationError, match=r"^phi is not finite at z = \[\(0.5\+0j\)\]$"):
            evaluate(col, (0.5,))
        with pytest.raises(DomainViolationError, match=r"not finite at z = \[\(-0.5\+0j\)\] \(point 1 of 3\)"):
            evaluate(col, np.array([[0.0], [-0.5], [0.5]]))
        with pytest.raises(DomainViolationError, match=r"\(point 3 of 4\)"):
            evaluate([blaschke(0.1), col], np.array([[[0.1], [0.2]], [[0.0], [0.3]]]))
        assert evaluate(col, (0.0,)).phi.tolist() == [[0j]]

    def test_stack_phi_matches_pointwise(self):
        rng = np.random.default_rng(3)
        for s in (Polydisk((2, 1)), Ball(2, 2)):
            col = random_colligation(s, dim_g=1, seed=31)
            pts = np.array([admissible_point(s, rng) for _ in range(12)])
            batch = evaluate(col, pts).phi
            for k, z in enumerate(pts):
                np.testing.assert_allclose(batch[k], evaluate(col, z).phi, atol=1e-13)

    def test_stack_rejects_bad_points(self):
        col = blaschke(0.1)
        with pytest.raises(DomainViolationError, match="1 of 2 points, first at index 1"):
            evaluate(col, np.array([[0.2], [1.0]]))
        with pytest.raises(ValueError, match="shape"):
            evaluate(col, np.zeros((2, 1, 1)))


class TestStack:
    def test_flags_are_set_per_point(self):
        col = random_colligation(Ball(1, 2), dim_g=1, seed=4)
        pts = np.array([[0.1, 0.2j], [0.0, 1.0 - 1e-7], [0.3, 0.0]])
        assert admit(col.structure, pts).flags == [(), ("near-boundary",), ()]
        ev = evaluate(col, pts)
        assert [ev[i].flags for i in range(3)] == [(), ("near-boundary",), ()]
        assert [ev[i].flags for i in range(3)] == [evaluate(col, z).flags for z in pts]
        # non-unitary colligation whose pencil nearly hits a unit eigenvalue at the first point
        a = np.diag([2.0, 0.1]).astype(complex)
        col = Colligation(Polydisk((1, 1)), A=a, B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=[[1.0]])
        ev = evaluate(col, [(0.5 - 1e-16, 0.0), (0.1, 0.1)])
        assert [ev[i].flags for i in range(2)] == [("ill-conditioned",), ()]

    @settings(max_examples=40, deadline=None)
    @given(case=st.data())
    def test_one_admission_flags_each_point_as_its_own_would(self, case):
        structure = case.draw(st.sampled_from(MIXED_STRUCTURES), label="structure")
        rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1), label="seed"))
        zs = np.array([admissible_point(structure, rng) for _ in range(case.draw(st.integers(1, 6), label="m"))])
        for i in case.draw(st.lists(st.integers(0, len(zs) - 1), max_size=len(zs)), label="pushed"):
            k = case.draw(st.integers(5, 8), label="k")  # to norm 1 - 10^-k, either side of the flag distance
            zs[i] *= (1.0 - 10.0**-k) / structure_norm(structure, zs[i])
        flags = admit(structure, zs).flags
        assert flags == [admit(structure, z).flags[0] for z in zs]
        col = random_colligation(structure, dim_g=1, seed=int(rng.integers(1000)))
        ev = evaluate(col, zs)
        assert ev.flags == [evaluate(col, z).flags for z in zs]
        assert [f[:1] for f in ev.flags] == flags  # near-boundary first, then any ill-conditioned
        for a in range(len(zs)):
            for b in range(a + 1, len(zs) + 1):
                assert ev[a:b].flags == ev.flags[a:b]
        assert ev[::2].flags == ev.flags[::2]
        poly = Polynomial(structure.d, {(1,) + (0,) * (structure.d - 1): 0.5})
        assert PolynomialStack(poly, structure, zs).flags == flags

    @pytest.mark.parametrize("structure, dim_g", [(Polydisk((2, 1)), 1), (Ball(2, 2), 1), (Polydisk((2, 1)), 2)])
    def test_stack_agrees_with_one_point_evaluations(self, structure, dim_g):
        rng = np.random.default_rng(15)
        col = random_colligation(structure, dim_g=dim_g, seed=16)
        mis = list(map(MultiIndex, [(1, 0), (0, 1), (2, 1), (1, 3)]))
        ev = evaluate(col, [admissible_point(structure, rng) for _ in range(5)])
        assert len(ev) == 5
        for i in range(5):
            ctx, one = ev[i], evaluate(col, ev.zs[i])
            assert ctx.z == one.z
            np.testing.assert_allclose(ctx.phi, one.phi, rtol=1e-12, atol=0)
            np.testing.assert_allclose(ctx.norms(mis), one.norms(mis), rtol=1e-12, atol=0)
            np.testing.assert_allclose(spectral_norm(ev.kops(mis[2:]))[i], spectral_norm(one.stack.kops(mis[2:]))[0],
                                       rtol=1e-12, atol=0)
            stacked, single = list(point_reports(ctx, mis)), list(point_reports(one, mis))
            assert [r.theorem_tag for r in stacked] == [r.theorem_tag for r in single]
            for a, b in zip(stacked, single):
                assert a.lhs == pytest.approx(b.lhs, rel=1e-12, abs=0), a
                assert a.rhs == pytest.approx(b.rhs, rel=1e-12, abs=0), a
        r1, r2 = identity_residuals(ev[:2], ev[3:])
        assert r1.shape == r2.shape == (2,)
        for i in range(2):
            assert (r1[i], r2[i]) == pytest.approx(identity_residuals(ev[i], ev[3 + i]), abs=1e-15)


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


class TestColligationStack:
    """n colligations evaluated together: each row has the bits of its colligation's own stack."""

    @pytest.mark.parametrize("structure, dim_g", [(Polydisk((2, 1)), 1), (Polydisk((1, 1, 1)), 1), (Ball(2, 3), 1),
                                                  (Polydisk((2, 1)), 2)])
    def test_rows_have_the_bits_of_each_colligation(self, structure, dim_g):
        rng = np.random.default_rng(40)
        cols = [random_colligation(structure, dim_g=dim_g, seed=41 + k) for k in range(4)]
        zs = np.array([[admissible_point(structure, rng) for _ in range(3)] for _ in cols])
        mis = [MultiIndex(counts) for counts in multi_indices(structure.d, 6)]
        ev = evaluate(cols, zs)
        assert len(ev) == 12 and ev.A.shape[0] == 12
        norms, knorms = ev.norms(mis), spectral_norm(ev.kops(mis))
        for k, col in enumerate(cols):
            one, rows = evaluate(col, zs[k]), slice(3 * k, 3 * k + 3)
            for name in ("phi", "r_ka", "r_ha", "lmat", "defects", "gram"):
                assert _bits(getattr(ev, name)[rows]) == _bits(getattr(one, name)), name
            assert ev.cond[rows] == one.cond and ev.flags[rows] == one.flags
            assert [_bits(n[rows]) for n in norms] == [_bits(n) for n in one.norms(mis)]
            assert [_bits(n[rows]) for n in knorms.T] == [_bits(n) for n in spectral_norm(one.kops(mis)).T]
            pairs = ev[3 * k:3 * k + 2], ev[3 * k + 1:3 * k + 3]
            assert _bits(identity_residuals(*pairs)) == _bits(identity_residuals(one[:2], one[1:]))
        # a view reads its own row's colligation
        view, mi = ev[4], MultiIndex((2,) + (1,) * (structure.d - 1))
        assert view.col is cols[1] and view.stack.col is cols[0]
        assert _bits(partial_at(view, mi)) == _bits(partial_at(evaluate(cols[1], zs[1, 1]), mi))

    def test_one_colligation_keeps_one_copy_of_its_blocks(self):
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=5)
        ev = evaluate(col, np.zeros((4, 2)))
        assert all(block.strides[0] == 0 and np.shares_memory(block[0], block[3]) for block in (ev.A, ev.B, ev.C))

    def test_shapes_and_structures_are_checked(self):
        cols = [random_colligation(Polydisk((2, 1)), dim_g=1, seed=k) for k in range(2)]
        with pytest.raises(ValueError, match="shape"):
            evaluate(cols, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            evaluate(cols, np.zeros((3, 1, 2)))
        with pytest.raises(ValueError, match="shape"):
            evaluate(cols[0], np.zeros((2, 1, 2)))
        with pytest.raises(ValueError, match="share their structure"):
            evaluate([cols[0], random_colligation(Polydisk((1, 2)), dim_g=1, seed=3)], np.zeros((2, 1, 2)))

    @pytest.mark.parametrize("n, shape", [(None, (0, 2)), (2, (2, 0, 2)), (0, (0, 1, 2))],
                             ids=["no-point", "no-point-per-colligation", "no-colligation"])
    def test_an_empty_stack_is_refused_by_its_shape(self, n, shape):
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=6)
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            evaluate(col if n is None else [col] * n, np.zeros(shape))


def _same_bits(a, b) -> bool:
    return type(a) is type(b) and _bits(a) == _bits(b)


@pytest.mark.parametrize("dim_g", [1, 2])
@pytest.mark.parametrize("structure", MIXED_STRUCTURES, ids=str)
class TestStackReaders:
    """What a stack and its views read, with nothing kept between calls but the jet and first-read rows."""

    @staticmethod
    def stack(structure, dim_g):
        rng = np.random.default_rng(90 + structure.d)
        col = random_colligation(structure, dim_g=dim_g, seed=91 + structure.d)
        return evaluate(col, [admissible_point(structure, rng) for _ in range(4)])

    def test_a_jet_rebuilt_for_a_higher_order_has_the_bits_of_one_built_at_once(self, structure, dim_g):
        mis = [MultiIndex(counts) for counts in [(0,) * structure.d] + multi_indices(structure.d, 5)]
        ev, once = self.stack(structure, dim_g), self.stack(structure, dim_g)
        whole = once.kops(mis)
        for top in (1, 3, 2, 5, 4):  # grows, falls back, grows past what was built
            wanted = [c for c, mi in enumerate(mis) if mi.order <= top]
            assert _bits(ev.kops([mis[c] for c in wanted])) == _bits(whole[:, wanted]), top
        assert not whole[:, 0].any()

    def test_norms_of_a_concatenation_are_the_concatenated_norms(self, structure, dim_g):
        mis = [MultiIndex(counts) for counts in [(0,) * structure.d] + multi_indices(structure.d, 4)]
        a, b = mis[::2], mis[1::2]
        whole, left, right = (self.stack(structure, dim_g).norms(part) for part in (a + b, a, b))
        assert [_bits(n) for n in whole] == [_bits(n) for n in left + right]
        twice = self.stack(structure, dim_g)
        assert [_bits(n) for n in twice.norms(a)] == [_bits(n) for n in twice.norms(a)] == [_bits(n) for n in left]

    def test_a_view_reads_its_row_of_each_attribute(self, structure, dim_g):
        ev = self.stack(structure, dim_g)
        for i in range(len(ev)):
            view = ev[i]
            for name in sorted(transfer._ROWS):
                assert _same_bits(getattr(view, name), getattr(ev, name)[i]), (i, name)
                assert name in vars(view) and getattr(view, name) is vars(view)[name]  # read once, then kept

    def test_an_unknown_name_is_no_row_and_a_copy_reads_the_same_rows(self, structure, dim_g):
        ev = self.stack(structure, dim_g)
        view = ev[2]
        with pytest.raises(AttributeError, match="'EvalContext' object has no attribute 'x'"):
            view.x
        assert not hasattr(view, "x")
        read = view.phi  # a copy made after one row was read, and one made before any
        for twin in (copy.copy(view), copy.copy(ev[2])):
            assert twin.stack is ev and twin.i == 2 and twin.z == view.z
            for name in sorted(transfer._ROWS):
                assert _same_bits(getattr(twin, name), getattr(ev, name)[2]), name
        assert view.phi is read


class TestIdentityResiduals:
    def test_random_colligations(self):
        rng = np.random.default_rng(5)
        for i, s in enumerate(MIXED_STRUCTURES):
            col = random_colligation(s, dim_g=1, seed=40 + i)
            for _ in range(3):
                r1, r2 = identity_residuals(evaluate(col, admissible_point(s, rng)), evaluate(col, admissible_point(s, rng)))
                assert r1 <= 1e-10
                assert r2 <= 1e-10

    def test_origin_reduces_to_block_unitarity(self):
        col = random_colligation(Ball(2, 2), dim_g=1, seed=9)
        r1, r2 = identity_residuals(evaluate(col, (0.0, 0.0)), evaluate(col, (0.0, 0.0)))
        eye_f = np.eye(col.dim_f)
        eye_g = np.eye(col.dim_g)
        assert spectral_norm(eye_f - col.D.conj().T @ col.D - col.B.conj().T @ col.B) <= 1e-12
        assert spectral_norm(eye_g - col.D @ col.D.conj().T - col.C @ col.C.conj().T) <= 1e-12
        assert max(r1, r2) <= 1e-12

    def test_blaschke_scalar_identity(self):
        a, z = 0.5, 0.2
        col = blaschke(a)
        r1, r2 = identity_residuals(evaluate(col, (z,)), evaluate(col, (z,)))
        assert max(r1, r2) <= 1e-12
        phi = evaluate(col, (z,)).phi[0, 0]
        expected = (1 - abs(z) ** 2) * (1 - abs(a) ** 2) / abs(1 - np.conj(a) * z) ** 2
        assert abs((1 - abs(phi) ** 2) - expected) <= 1e-14

    def test_defect_kernel_is_psd_on_diagonal(self):
        rng = np.random.default_rng(6)
        col = random_colligation(Polydisk((2, 1)), dim_g=2, seed=55)
        for _ in range(5):
            z = admissible_point(col.structure, rng)
            phi = evaluate(col, z).phi
            gram = np.eye(col.dim_f) - phi.conj().T @ phi
            assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() >= -1e-10


class TestResolventEstimates:
    def test_blaschke_full_bound_is_tight_at_origin(self):
        a = 0.5
        ev = evaluate(blaschke(a), [(0.0,)])
        reports = reports_at(ev, resolvent_norm_estimates(ev))
        by_tag = {r.theorem_tag: r for r in reports}
        right = by_tag["resolvent.right_full"]
        assert abs(right.lhs - np.sqrt(1 - a**2)) <= 1e-14
        assert abs(right.slack) <= 1e-14

    def test_origin_collapses_projected_bounds(self):
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=2)
        ev = evaluate(col, [(0.0, 0.0)])
        for rep in reports_at(ev, resolvent_norm_estimates(ev)):
            assert rep.slack >= -1e-12

    def test_fuzz_slack_nonnegative(self):
        rng = np.random.default_rng(7)
        for i, s in enumerate(MIXED_STRUCTURES[:6]):
            col = random_colligation(s, dim_g=1, seed=60 + i)
            for _ in range(15):
                ev = evaluate(col, [admissible_point(s, rng)])
                for rep in reports_at(ev, resolvent_norm_estimates(ev)):
                    assert rep.slack >= -1e-10, rep


class TestLNormBound:
    def test_origin_reduces_to_contraction(self):
        col = random_colligation(Polydisk((1, 1, 1)), dim_g=1, seed=13)
        ev = evaluate(col, [(0.0, 0.0, 0.0)])
        (rep,) = reports_at(ev, [lnorm_bound_check(ev)])
        assert abs(rep.lhs - spectral_norm(col.A)) <= 1e-14
        assert rep.lhs <= 1.0 + 1e-12
        assert rep.rhs == 1.0

    def test_blaschke_scalar_value(self):
        ev = evaluate(blaschke(0.5), [(0.9,)])
        (rep,) = reports_at(ev, [lnorm_bound_check(ev)])
        assert abs(rep.lhs - 0.5 / 0.55) <= 1e-12
        assert abs(rep.rhs - 10.0) <= 1e-12
        assert rep.slack >= 0

    def test_fuzz_slack_nonnegative(self):
        rng = np.random.default_rng(8)
        for i, s in enumerate(MIXED_STRUCTURES):
            col = random_colligation(s, dim_g=1, seed=80 + i)
            for _ in range(10):
                ev = evaluate(col, [admissible_point(s, rng)])
                (rep,) = reports_at(ev, [lnorm_bound_check(ev)])
                assert rep.slack >= -1e-12
