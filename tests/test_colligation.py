"""Realization data model: structures, validation, catalog, JSON round trip."""

import hashlib
import json
import math
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
    StructureError,
    blaschke,
    colligation_hash,
    monomial,
    random_colligation,
    spectral_norm,
    symmetric_extremal,
    validate,
    zmatrix,
)
from aglerlab.colligation import (
    admit,
    from_json_dict,
    load_colligation,
    projection,
    projections,
    save_colligation,
    structure_norm,
    to_json_dict,
)
from aglerlab.transfer import evaluate
from conftest import MIXED_STRUCTURES, admissible_point


class TestStructures:
    def test_polydisk_dims(self):
        s = Polydisk((2, 1, 3))
        assert (s.d, s.dim_h, s.dim_k) == (3, 6, 6)

    def test_ball_dims(self):
        s = Ball(fiber_dim=2, copies=3)
        assert (s.d, s.dim_h, s.dim_k) == (3, 2, 6)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Polydisk(())
        with pytest.raises(ValueError):
            Polydisk((0, 0))
        with pytest.raises(ValueError):
            Polydisk((1, -1))
        with pytest.raises(ValueError):
            Ball(0, 2)
        with pytest.raises(ValueError):
            Ball(1, 0)

    @pytest.mark.parametrize("make", [lambda: Polydisk("11"), lambda: Polydisk((1.9, True)), lambda: Polydisk(2),
                                      lambda: Polydisk((1.0, 1)), lambda: Ball(1.5, 2), lambda: Ball(True, 2),
                                      lambda: Ball(1, "2")], ids=["string", "float-and-bool", "int", "whole-float",
                                                                 "ball-float", "ball-bool", "ball-string"])
    def test_a_dimension_is_an_integer(self, make):
        # Polydisk((1.9, True)) was (1, 1), and Ball(1.5, 2) had dim_k = 3.0
        with pytest.raises(TypeError, match="must be integers"):
            make()

    def test_numpy_integer_dimensions_become_ints(self):
        assert Polydisk((np.int64(2), 1)) == Polydisk((2, 1)) and type(Polydisk((np.int64(2),)).block_dims[0]) is int
        assert Ball(np.int64(1), np.int32(2)) == Ball(1, 2) and type(Ball(np.int64(1), 2).fiber_dim) is int

    def test_zero_block_is_allowed(self):
        # needed so monomials in fewer effective variables keep their arity
        s = Polydisk((1, 0))
        assert s.dim_h == 1
        np.testing.assert_array_equal(projection(s, 2), np.zeros((1, 1)))


class TestProjections:
    def test_polydisk_example(self):
        np.testing.assert_array_equal(projection(Polydisk((1, 1)), 1), np.diag([1.0, 0.0]))

    def test_ball_selector_example(self):
        e2 = projection(Ball(2, 2), 2)
        np.testing.assert_array_equal(e2, np.hstack([np.zeros((2, 2)), np.eye(2)]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            projection(Polydisk((1, 1)), 0)
        with pytest.raises(ValueError):
            projection(Polydisk((1, 1)), 3)

    def test_polydisk_resolution_of_identity(self):
        s = Polydisk((2, 1, 3))
        total = sum(e.conj().T @ e for e in projections(s))
        np.testing.assert_array_equal(total, np.eye(s.dim_k))

    def test_polydisk_orthogonality(self):
        s = Polydisk((2, 3))
        e1, e2 = projections(s)
        np.testing.assert_array_equal(e1 @ e2.conj().T, np.zeros((5, 5)))
        np.testing.assert_array_equal(e1 @ e1.conj().T, np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))

    def test_ball_orthogonality(self):
        s = Ball(2, 3)
        es = projections(s)
        for j, ej in enumerate(es):
            for k, ek in enumerate(es):
                expected = np.eye(2) if j == k else np.zeros((2, 2))
                np.testing.assert_array_equal(ej @ ek.conj().T, expected)

    @pytest.mark.parametrize("s", [Polydisk((2, 0, 1)), Ball(2, 3)])
    def test_stack_is_built_once_and_read_only(self, s):
        es = projections(s)
        assert projections(s) is es
        assert projections(type(s)(*vars(s).values())) is es  # an equal structure shares it
        assert es.shape == (s.d, s.dim_h, s.dim_k)
        for j in range(s.d):
            np.testing.assert_array_equal(es[j], projection(s, j + 1))
        with pytest.raises(ValueError, match="read-only"):
            es[0, 0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            es[-1] += 1.0
        np.testing.assert_array_equal(projections(s)[0], projection(s, 1))


def _hand_built_map(structure, j):
    """E_j as built before the domain classes owned their maps: a zero matrix with one identity block."""
    if isinstance(structure, Polydisk):
        e = np.zeros((structure.dim_h, structure.dim_k), dtype=np.complex128)
        start = sum(structure.block_dims[: j - 1])
        stop = start + structure.block_dims[j - 1]
        e[start:stop, start:stop] = np.eye(stop - start)
        return e
    m = structure.fiber_dim
    e = np.zeros((m, structure.dim_k), dtype=np.complex128)
    e[:, (j - 1) * m : j * m] = np.eye(m)
    return e


class TestDomainClasses:
    @pytest.mark.parametrize("s", MIXED_STRUCTURES + [Polydisk((1, 0)), Polydisk((0, 2, 1))], ids=repr)
    def test_members_keep_the_hand_built_maps_and_formulas(self, s):
        es = s.maps()
        oracle = np.stack([_hand_built_map(s, j) for j in range(1, s.d + 1)])
        assert (es.dtype, es.shape) == (oracle.dtype, oracle.shape)
        assert es.tobytes() == oracle.tobytes()  # bit for bit, signed zeros included
        moduli = np.random.default_rng(s.d + s.dim_k).random((7, s.d)) * (0.99 / math.sqrt(s.d))  # in both domains
        polydisk = isinstance(s, Polydisk)
        norm = moduli.max(axis=-1) if polydisk else np.sqrt((moduli * moduli).sum(axis=-1))
        assert s.norm(moduli).tobytes() == norm.tobytes()
        for moduli_row, norm_row in zip(moduli, norm):
            room = 1.0 - moduli_row if polydisk else np.sqrt(1.0 - (norm_row**2 - moduli_row**2)) - moduli_row
            assert s.room(moduli_row, norm_row).tobytes() == room.tobytes()

    @pytest.mark.parametrize("s", [Polydisk((2, 0, 1)), Ball(2, 3)], ids=repr)
    def test_kind_names_the_file_form(self, s):
        data = to_json_dict(random_colligation(s, seed=5))
        assert data["kind"] == s.kind and from_json_dict(data).structure == s
        assert set(data) == {"kind", *vars(s), "dimF", "dimG", "A", "B", "C", "D"}


class TestZMatrix:
    def test_polydisk_block_diagonal(self):
        z = zmatrix(Polydisk((1, 1)), (0.3, 0.5j))
        np.testing.assert_array_equal(z, np.diag([0.3, 0.5j]))

    def test_ball_row(self):
        z = zmatrix(Ball(1, 2), (0.6, 0.8 * 0.99))
        np.testing.assert_array_equal(z, np.array([[0.6, 0.792]]))
        assert spectral_norm(z) < 1.0

    def test_zero_point(self):
        z = zmatrix(Ball(2, 2), (0.0, 0.0))
        assert spectral_norm(z) == 0.0

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            zmatrix(Polydisk((1, 1)), (0.3,))

    def test_stack_matches_point_by_point(self):
        rng = np.random.default_rng(6)
        for s in (Polydisk((2, 0, 1)), Ball(2, 3)):
            pts = rng.standard_normal((2, 4, s.d)) + 1j * rng.standard_normal((2, 4, s.d))
            stacked = zmatrix(s, pts)
            assert stacked.shape == (2, 4, s.dim_h, s.dim_k)
            for idx in np.ndindex(2, 4):
                np.testing.assert_array_equal(stacked[idx], zmatrix(s, tuple(pts[idx])))
        with pytest.raises(ValueError, match="point has 3 coordinates, structure has d=2"):
            zmatrix(Ball(2, 2), np.zeros((4, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_linearity_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        s = Polydisk((2, 1)) if seed % 2 else Ball(2, 2)
        z = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        w = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        a, b = complex(rng.standard_normal()), complex(rng.standard_normal())
        combo = tuple(a * zj + b * wj for zj, wj in zip(z, w))
        np.testing.assert_array_equal(zmatrix(s, combo), a * zmatrix(s, z) + b * zmatrix(s, w))

    def test_norm_matches_structure_norm(self):
        rng = np.random.default_rng(3)
        for s in (Polydisk((2, 1)), Ball(2, 3)):
            z = admissible_point(s, rng)
            assert abs(spectral_norm(zmatrix(s, z)) - structure_norm(s, z)) <= 1e-12

    def test_structure_norm_is_the_domain_norm(self):
        # an empty block drops z_2 from the pencil but not from the domain
        assert structure_norm(Polydisk((1, 0)), (0.3, 1.5j)) == 1.5
        assert spectral_norm(zmatrix(Polydisk((1, 0)), (0.3, 1.5j))) == pytest.approx(0.3)
        assert structure_norm(Ball(2, 2), (0.3, 0.4j)) == pytest.approx(0.5)
        rng = np.random.default_rng(4)
        for s in MIXED_STRUCTURES:
            pts = rng.standard_normal((2, 5, s.d)) + 1j * rng.standard_normal((2, 5, s.d))
            norms = structure_norm(s, pts)
            assert norms.shape == (2, 5)
            for idx in np.ndindex(2, 5):
                assert norms[idx] == structure_norm(s, tuple(pts[idx]))
        with pytest.raises(ValueError):
            structure_norm(Ball(1, 2), np.zeros((4, 3)))


class TestAdmit:
    def test_flags_and_rejects_by_domain_norm(self):
        s = Polydisk((1, 0))
        assert admit(s, (0.5, 0.0)).flags == [()]  # one point is one row
        assert admit(s, (0.0, 1.0 - 1e-7)).flags == [("near-boundary",)]  # empty block still counts
        with pytest.raises(DomainViolationError, match="inadmissible"):
            admit(s, (0.0, 1.0 - 1e-13))
        assert admit(Ball(1, 2), (0.6, 0.8j - 1e-7j)).flags == [("near-boundary",)]

    def test_refuses_a_nan_point(self):
        # NaN fails every comparison, so a rule written as norm >= limit would let it through
        with pytest.raises(DomainViolationError, match="z = nan is not < 1 - 1e-12; point inadmissible$"):
            admit(Polydisk((1, 0)), (math.nan, 0.0))
        with pytest.raises(DomainViolationError, match="z = nan .* inadmissible$"):
            admit(Ball(1, 2), (0.1, complex(0.0, math.nan)))

    def test_stack(self):
        s = Ball(2, 2)
        pts = np.array([[0.1, 0.2], [0.0, 0.5j]])
        assert admit(s, pts).flags == [(), ()]
        np.testing.assert_array_equal(admit(s, pts).norm, structure_norm(s, pts))
        pts[0] = (0.0, 1.0 - 1e-7)
        assert admit(s, pts).flags == [("near-boundary",), ()]
        assert admit(s, pts[None]).flags == [("near-boundary",), ()]  # (..., d): a row per point
        pts[1, 1] = 2.0
        with pytest.raises(DomainViolationError, match="1 of 2 points, first at index 1"):
            admit(s, pts)
        pts[1, 1] = math.nan
        with pytest.raises(DomainViolationError, match=r"z = nan .*\(1 of 2 points, first at index 1\)"):
            admit(s, pts)


class TestValidate:
    def test_permutation_colligation_passes(self):
        p = np.eye(3)[[1, 2, 0]]
        col = Colligation(Polydisk((1, 1)), A=p[:2, :2], B=p[:2, 2:], C=p[2:, :2], D=p[2:, 2:])
        report = validate(col)
        assert report.passed
        assert report.residuals["unitarity"] <= 1e-15

    def test_scaled_identity_fails_with_residual(self):
        u = 0.9 * np.eye(3)
        col = Colligation(Polydisk((1, 1)), A=u[:2, :2], B=u[:2, 2:], C=u[2:, :2], D=u[2:, 2:])
        report = validate(col)
        assert not report.passed
        # ||U*U - I|| = 1 - 0.81
        assert abs(report.residuals["unitarity"] - 0.19) <= 1e-12

    def test_random_ball_colligation_passes(self):
        col = random_colligation(Ball(1, 2), dim_g=1, seed=5)
        assert (col.dim_f, col.dim_g) == (2, 1)
        assert validate(col).passed

    def test_structural_error_names_block(self):
        with pytest.raises(StructureError, match="block A"):
            Colligation(Polydisk((1, 1)), A=np.eye(3), B=np.zeros((2, 1)),
                        C=np.zeros((1, 2)), D=np.zeros((1, 1)))
        with pytest.raises(StructureError, match="block D"):
            Colligation(Polydisk((1, 1)), A=np.eye(2), B=np.zeros((2, 1)),
                        C=np.zeros((1, 2)), D=np.zeros((2, 2)))
        with pytest.raises(StructureError, match="not square"):
            Colligation(Ball(1, 2), A=np.zeros((2, 1)), B=np.zeros((2, 1)),
                        C=np.zeros((1, 1)), D=np.zeros((1, 1)))

    @pytest.mark.parametrize("structure, dim_f", [(Polydisk((1,)), 0), (Ball(1, 2), 1)], ids=str)
    def test_phi_needs_an_input_and_an_output(self, structure, dim_f):
        # a unitary U with dim_g = 0 was accepted and validated, then evaluate failed in a numpy reshape
        dim_h, dim_k = structure.dim_h, structure.dim_k
        u = np.eye(dim_h + dim_f)
        with pytest.raises(StructureError, match=f"dim_f={dim_f}, dim_g=0"):
            Colligation(structure, A=u[:dim_k, :dim_h], B=u[:dim_k, dim_h:], C=u[dim_k:, :dim_h], D=u[dim_k:, dim_h:])


    def test_b_and_c_must_fit_the_state_spaces(self):
        with pytest.raises(StructureError, match=re.escape("block B has 1 rows, expected dim_k=2")):
            Colligation(Polydisk((1, 1)), A=np.eye(2), B=np.zeros((1, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)))
        with pytest.raises(StructureError, match=re.escape("block C has 3 columns, expected dim_h=2")):
            Colligation(Polydisk((1, 1)), A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 3)), D=np.zeros((1, 1)))

    def test_a_colligation_is_immutable(self):
        col = blaschke(0.5)
        with pytest.raises(AttributeError, match="^Colligation is immutable$"):
            col.A = np.zeros((1, 1))
        assert col.A[0, 0] == 0.5

    def test_repr_names_the_structure_and_the_io_dimensions(self):
        assert repr(blaschke(0.5)) == "Colligation(Polydisk(block_dims=(1,)), dim_f=1, dim_g=1)"
        col = random_colligation(Ball(2, 2), dim_g=1, seed=0)
        assert repr(col) == "Colligation(Ball(fiber_dim=2, copies=2), dim_f=3, dim_g=1)"


class TestRandomColligation:
    def test_polydisk_shapes(self):
        col = random_colligation(Polydisk((2, 1)), dim_g=1, seed=3)
        assert col.umatrix.shape == (4, 4)
        assert col.A.shape == (3, 3)
        assert col.B.shape == (3, 1)
        assert col.C.shape == (1, 3)
        assert col.D.shape == (1, 1)

    def test_ball_dimension_identity(self):
        col = random_colligation(Ball(2, 3), dim_g=1, seed=0)
        assert col.dim_f == 5
        assert col.umatrix.shape == (7, 7)

    def test_every_output_validates(self):
        for i, s in enumerate(MIXED_STRUCTURES):
            assert validate(random_colligation(s, dim_g=1 + i % 2, seed=i)).passed

    def test_rejects_no_output(self):
        with pytest.raises(ValueError, match="^dim_g must be >= 1, got 0$"):
            random_colligation(Polydisk((1,)), dim_g=0)

    @pytest.mark.parametrize("dim_g", [True, 1.0, "1"])
    def test_rejects_a_dim_g_that_is_not_an_integer(self, dim_g):
        # True was read as 1
        with pytest.raises(TypeError, match="^dim_g must be integers"):
            random_colligation(Polydisk((1,)), dim_g=dim_g)

    def test_transfer_is_contractive(self):
        # core soundness: ||phi(z)|| <= 1 wherever ||Z(z)|| < 1
        rng = np.random.default_rng(11)
        for i, s in enumerate(MIXED_STRUCTURES):
            col = random_colligation(s, dim_g=1, seed=100 + i)
            for _ in range(5):
                ctx = evaluate(col, admissible_point(s, rng))
                assert spectral_norm(ctx.phi) <= 1.0 + 1e-10


class TestCatalog:
    def test_blaschke_at_zero_is_shift(self):
        col = blaschke(0.0)
        np.testing.assert_array_equal(col.umatrix, np.array([[0, 1], [1, 0]], dtype=complex))
        z = 0.37 - 0.2j
        np.testing.assert_allclose(evaluate(col, (z,)).phi, [[z]], atol=1e-15)

    def test_blaschke_general(self):
        a = 0.5 - 0.3j
        col = blaschke(a)
        assert validate(col).passed
        for z in (0.0, 0.2 + 0.4j, -0.7):
            expected = (z - a) / (1 - np.conj(a) * z)
            np.testing.assert_allclose(evaluate(col, (z,)).phi, [[expected]], atol=1e-14)

    def test_blaschke_rejects_modulus_one(self):
        with pytest.raises(ValueError):
            blaschke(1.0)
        with pytest.raises(ValueError):
            blaschke(1.2j)
        for a in (math.nan, complex(math.nan, 0.3)):
            with pytest.raises(ValueError, match=r"\|a\| < 1"):
                blaschke(a)

    def test_monomial_example_blocks(self):
        col = monomial((1, 1))
        np.testing.assert_array_equal(col.A, [[0, 0], [1, 0]])
        np.testing.assert_array_equal(col.B, [[1], [0]])
        np.testing.assert_array_equal(col.C, [[0, 1]])
        np.testing.assert_array_equal(col.D, [[0]])
        np.testing.assert_allclose(evaluate(col, (0.3, 0.4)).phi, [[0.12]], atol=1e-15)

    def test_monomial_matches_power_product(self):
        rng = np.random.default_rng(7)
        for alpha in [(1,), (3,), (1, 1), (2, 3), (1, 0), (2, 0, 1)]:
            col = monomial(alpha)
            assert validate(col).passed
            for _ in range(3):
                z = admissible_point(col.structure, rng)
                expected = np.prod([zj**aj for zj, aj in zip(z, alpha)])
                np.testing.assert_allclose(evaluate(col, z).phi[0, 0], expected, atol=1e-12)

    def test_monomial_rejects_zero_index(self):
        with pytest.raises(ValueError):
            monomial((0, 0))

    def test_monomial_rejects_a_negative_entry(self):
        with pytest.raises(ValueError, match=re.escape("multi-index entries must be >= 0, got (2, -1)")):
            monomial((2, -1))

    def test_symmetric_extremal_rejects_zero_variables(self):
        with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
            symmetric_extremal(0, 0)

    @pytest.mark.parametrize("d", [True, 2.0])
    def test_symmetric_extremal_rejects_a_d_that_is_not_an_integer(self, d):
        # True was read as 1
        with pytest.raises(TypeError, match="^d must be integers"):
            symmetric_extremal(d, 1)

    def test_symmetric_extremal_is_symmetric_unitary(self):
        for d, seed in [(2, 0), (2, 9), (3, 4)]:
            col = symmetric_extremal(d, seed)
            u = col.umatrix
            assert spectral_norm(u - u.T) <= 1e-12
            assert validate(col).passed
            assert col.structure == Polydisk((1,) * d)


class TestJsonRoundTrip:
    def test_round_trip_preserves_blocks(self):
        col = random_colligation(Ball(2, 2), dim_g=2, seed=12)
        again = from_json_dict(json.loads(json.dumps(to_json_dict(col))))
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(col, name), getattr(again, name))
        assert again.structure == col.structure
        assert colligation_hash(col) == colligation_hash(again)

    def test_file_round_trip(self, tmp_path):
        col = blaschke(0.5)
        path = tmp_path / "b.json"
        save_colligation(col, path)
        again = load_colligation(path)
        np.testing.assert_array_equal(col.umatrix, again.umatrix)

    @pytest.mark.parametrize("dim_g", [1, 2])
    @pytest.mark.parametrize("structure", MIXED_STRUCTURES, ids=str)
    def test_hash_is_the_sha256_of_the_canonical_json(self, structure, dim_g):
        """``hashlib`` is the oracle: the hash is the first 16 hex digits of the SHA-256 of the sorted,
        compact JSON form."""
        col = random_colligation(structure, dim_g=dim_g, seed=40 + dim_g)
        canonical = json.dumps(to_json_dict(col), sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert colligation_hash(col) == hashlib.sha256(canonical).hexdigest()[:16]

    def test_hash_is_pinned(self):
        assert colligation_hash(monomial((1, 1))) == "c96a82ffd982fe88", \
            "the subject hash of a catalog colligation changed: every record's colligation_hash would change"

    def test_hash_distinguishes(self):
        a = random_colligation(Polydisk((1, 1)), seed=1)
        b = random_colligation(Polydisk((1, 1)), seed=2)
        assert colligation_hash(a) != colligation_hash(b)

    def test_schema_errors(self):
        good = to_json_dict(blaschke(0.2))
        for missing in ("kind", "dimF", "A"):
            bad = {k: v for k, v in good.items() if k != missing}
            with pytest.raises(ValueError, match=missing):
                from_json_dict(bad)
        bad = dict(good)
        bad["kind"] = "annulus"
        with pytest.raises(ValueError, match="unknown structure kind"):
            from_json_dict(bad)
        bad = dict(good)
        bad["A"] = [[[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValueError, match="'A'"):
            from_json_dict(bad)
        bad["A"] = [[1.0]]
        with pytest.raises(ValueError, match=re.escape("field 'A' must be a nested array of [re, im] pairs")):
            from_json_dict(bad)
