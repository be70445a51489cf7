"""Matrix layer: spectral norm, Haar sampling, unitarity diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerlab.matrixcore import as_matrix, float_power, haar_unitary, spectral_norm, unitarity_residual


def power_iteration_norm(m, iters=2000, seed=0):
    """Independent oracle: largest singular value via power iteration on M*M."""
    m = np.asarray(m, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    gram = m.conj().T @ m
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam = np.linalg.norm(w)
        v = w / lam
    return float(np.sqrt(lam))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert spectral_norm(np.diag([0.5, 0.25])) == 0.5

    def test_zero_iff_zero_matrix(self):
        assert spectral_norm(np.zeros((2, 3))) == 0.0
        assert spectral_norm([[0.0, 1e-300]]) > 0.0

    def test_against_power_iteration(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert abs(spectral_norm(m) - power_iteration_norm(m, seed=1)) <= 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm([[np.inf + 0j]])

    def test_one_by_one_is_the_modulus(self):
        rng = np.random.default_rng(43)
        for v in rng.standard_normal(50) + 1j * rng.standard_normal(50):
            assert abs(spectral_norm([[v]]) - np.linalg.norm([[v]], 2)) <= 1e-15 * abs(v)
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm([[complex(np.nan, 1.0)]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2, 2)))
        for below_a_matrix in (np.float64(1.0), np.zeros(3)):
            with pytest.raises(ValueError, match="2-dimensional"):
                spectral_norm(below_a_matrix)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (2, 3), (3, 3)])
    def test_any_leading_shape_matches_one_by_one_bit_for_bit(self, shape):
        rng = np.random.default_rng(45)
        mats = rng.standard_normal((4, 5, *shape)) + 1j * rng.standard_normal((4, 5, *shape))
        mats *= 10.0 ** rng.uniform(-6, 6, (4, 5, 1, 1))
        norms = spectral_norm(mats)
        assert norms.shape == (4, 5)
        assert norms.tolist() == [[spectral_norm(m) for m in row] for row in mats]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 3), (2, 3), (3, 3)])
    def test_stack_matches_one_by_one_bit_for_bit(self, shape):
        rng = np.random.default_rng(44)
        stack = rng.standard_normal((40, *shape)) + 1j * rng.standard_normal((40, *shape))
        stack *= 10.0 ** rng.uniform(-6, 6, (40, 1, 1))
        norms = spectral_norm(stack)
        assert norms.shape == (40,)
        assert norms.tolist() == [spectral_norm(m) for m in stack]

    def test_stack_rejects_a_nonfinite_member(self):
        stack = np.ones((3, 2, 2), dtype=np.complex128)
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            for k in range(3):
                members = stack.copy()
                members[k, 1, 0] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    spectral_norm(members)

    @pytest.mark.parametrize("shape", [(4, 0, 3), (4, 3, 0), (0, 2, 2)])
    def test_stack_of_empty_members_is_zero(self, shape):
        norms = spectral_norm(np.zeros(shape))
        assert norms.shape == (shape[0],) and not norms.any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_submultiplicative(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-10


class TestHaarUnitary:
    def test_scalar_case_has_unit_modulus(self):
        for seed in range(5):
            u = haar_unitary(1, seed)
            assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_unitary_within_tolerance(self):
        assert unitarity_residual(haar_unitary(4, 7)) <= 1e-12

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(haar_unitary(4, 7), haar_unitary(4, 7))
        assert not np.array_equal(haar_unitary(4, 7), haar_unitary(4, 8))

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            haar_unitary(0, 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_composition_with_adjoint_is_identity(self, seed, n):
        u = haar_unitary(n, seed)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_isometry_preserves_spectral_norm(self, seed, n, m):
        rng = np.random.default_rng(seed)
        u = haar_unitary(n, seed)
        mat = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        assert abs(spectral_norm(u @ mat) - spectral_norm(mat)) <= 1e-10


class TestUnitarityResidual:
    def test_identity_is_exact(self):
        assert unitarity_residual(np.eye(4)) == 0.0

    def test_hand_computed_diagonal(self):
        # U*U - I = diag(0, -0.75), so the residual is 0.75 exactly.
        assert abs(unitarity_residual([[1.0, 0.0], [0.0, 0.5]]) - 0.75) <= 1e-15

    def test_permutation_matrix(self):
        p = np.eye(3)[[2, 0, 1]]
        assert unitarity_residual(p) <= 1e-15

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            unitarity_residual(np.zeros((2, 3)))


class TestFloatPower:
    @pytest.mark.parametrize("k", [2, 3])
    def test_a_numpy_integer_exponent_is_pythons_power(self, k):
        # a numpy integer must not hand the power to numpy, which differs from
        # Python's ``**`` in the last bit on some of these inputs
        x = np.random.default_rng(31).random(200_000)
        expected = np.array([v ** k for v in x.tolist()])
        assert not np.array_equal(np.power(x, k), expected)
        for exponent in (k, np.int64(k), np.int32(k)):
            assert np.array_equal(float_power(x, exponent), expected)

    def test_one_exponent_per_column(self):
        x = np.random.default_rng(32).random(50)
        exponents = np.array([0, 1, 2, 3, 7, 3], dtype=np.int64)
        got = float_power(x, exponents)
        assert got.shape == (50, 6)
        for c, k in enumerate(exponents.tolist()):
            assert list(map(float.__repr__, got[:, c].tolist())) == [repr(v ** k) for v in x.tolist()]
        assert float_power(x, []).shape == (50, 0)
        assert float_power(np.zeros(0), [1, 2]).shape == (0, 2)

    def test_repeated_exponents_take_each_value_through_pythons_power(self):
        # one list of powers per distinct exponent, picked per column: the bits of ``v ** k`` per value
        x = np.random.default_rng(33).random(40) * 1.9
        exponents = [2, 5, 2, 0, 5, 5, 2, -1, 2]
        got = float_power(x, exponents)
        assert got.shape == (40, 9)
        assert [[repr(v) for v in row] for row in got.tolist()] == [[repr(v ** k) for k in exponents] for v in x.tolist()]
        assert list(map(float.__repr__, float_power(x, 5).tolist())) == [repr(v ** 5) for v in x.tolist()]
        grid = x.reshape(5, 8)
        assert [repr(v) for v in float_power(grid, 3).ravel().tolist()] == [repr(v ** 3) for v in x.tolist()]
        for k in (2, [2, 2, 3]):
            empty = float_power(np.zeros(0), k)
            assert empty.shape == (0,) + np.shape(k) and empty.dtype == np.float64

    def test_keeps_the_shape_of_a_scalar_exponent(self):
        x = np.full((2, 3), 0.5)
        assert float_power(x, 2).shape == (2, 3)
        assert float_power(0.5, 3) == 0.125

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), [1, 2.5]])
    def test_rejects_a_non_integer_exponent(self, k):
        with pytest.raises(TypeError):
            float_power(np.ones(3), k)
