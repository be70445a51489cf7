"""Matrix layer: spectral norm, Haar sampling, unitarity diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerlab.matrixcore import as_matrix, haar_unitary, spectral_norm, unitarity_residual


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

    def test_as_matrix_rejects_a_nan_entry(self):
        with pytest.raises(ValueError, match="^B has non-finite entries$"):
            as_matrix([[1.0, np.nan]], "B")

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u", [[[1e200, 0.0], [0.0, 0.0]], [[1e200 + 1e200j, 1.0], [1.0, 1e200j]]],
                             ids=["real", "complex"])
    def test_overflow_is_an_infinite_residual(self, u):
        # finite entries whose U*U overflows, with no warning
        assert unitarity_residual(u) == np.inf


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _bases() -> np.ndarray:
    """240k seeded bases: uniform in [0, 2), subnormals, values near 1e12, and 0.0, 1.0 and the
    smallest subnormal."""
    rng = np.random.default_rng(34)
    return np.concatenate([rng.random(200_000) * 2.0, rng.random(20_000) * 2.0 ** -1022,
                           1e12 * (1.0 + rng.random(20_000) * 1e-3), [0.0, 1.0, 5e-324]])


class TestFloatPower:
    """The code takes every power by ``np.float_power``, numpy's loop over libm ``pow``, so each value
    has the bits of Python's ``**`` (which calls the same ``pow``) in every form the code uses."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_numpy_power_differs_from_pythons_power(self, k):
        x = np.random.default_rng(31).random(200_000)
        assert not np.array_equal(np.power(x, k), np.array([v ** k for v in x.tolist()]))

    @pytest.mark.parametrize("k", range(9))
    def test_an_integer_exponent_is_pythons_power(self, k):
        x = _bases()
        expected = _bits([v ** k for v in x.tolist()])
        for exponent in (k, np.int64(k), np.int32(k)):
            got = np.float_power(x, exponent)
            assert got.dtype == np.float64 and np.array_equal(_bits(got), expected)

    def test_one_exponent_per_column_is_pythons_power(self):
        x = _bases()
        exponents = [0, 1, 2, 3, 7, 3, 8, 5, 2]
        got = np.float_power(x[:, None], exponents)
        assert got.shape == (len(x), len(exponents))
        assert np.array_equal(_bits(got), _bits([[v ** k for k in exponents] for v in x.tolist()]))
        assert np.float_power(x[:, None], []).shape == (len(x), 0)
        assert np.float_power(np.zeros(0)[:, None], [1, 2]).shape == (0, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_the_ball_radius_exponent_is_pythons_power(self, d):
        u = np.concatenate([np.random.default_rng(35 + d).random((200_000, 2)), [[0.0, 0.5], [5e-324, 0.5]]])
        got = np.float_power(u[:, :1], 1.0 / (2 * d))  # a strided column, as the ball sampler reads it
        assert np.array_equal(_bits(got[:, 0]), _bits([x ** (1.0 / (2 * d)) for x in u[:, 0].tolist()]))

    def test_the_boundary_biased_target_is_pythons_power(self):
        u = np.concatenate([np.random.default_rng(39).random(200_000), [0.0]])
        got = 1.0 - np.float_power(10.0, -(1.0 + 5.0 * u))
        assert np.array_equal(_bits(got), _bits([1.0 - 10.0 ** -(1.0 + 5.0 * x) for x in u.tolist()]))
