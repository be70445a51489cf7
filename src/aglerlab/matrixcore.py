"""Dense complex matrix arithmetic at small dimension.

Matrices are plain numpy arrays of dtype complex128.  This module supplies
the spectral norm, unitarity diagnostics, and Haar-distributed unitary
sampling that the realization layers build on, and Python's ``**`` on
arrays.  Everything is pure; randomness enters only through explicit seeds.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["as_matrix", "spectral_norm", "haar_unitary", "unitarity_residual", "float_power"]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-d complex128 array.

    Raises ValueError if the input is not 2-dimensional or contains
    NaN/Inf entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def spectral_norm(m):
    """Largest singular value of ``m`` (a float), or of each matrix of an
    array of matrices of any leading shape (an array of that shape, from one
    SVD call).

    Computed by full SVD; at the dimensions used here (well under 200)
    exactness wins over speed.  A 1x1 input is its own singular value up
    to modulus, so the SVD is skipped there.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"matrix must be 2-dimensional or an array of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    elif a.shape[-2:] == (1, 1):
        norms = np.hypot(a.real, a.imag)[..., 0, 0]  # rounds exactly as abs() of a complex
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary, deterministic in ``seed``.

    Draws a complex Ginibre matrix, takes its QR factorization, and
    absorbs the phases of R's diagonal into Q so the distribution is
    exactly Haar rather than merely unitary.
    """
    if n < 1:
        raise ValueError(f"unitary size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unitarity_residual(u) -> float:
    """``max(||U*U - I||, ||UU* - I||)`` in spectral norm.

    Zero exactly when U is unitary; the input must be square.
    """
    a = as_matrix(u, "U")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"U must be square, got shape {a.shape}")
    eye = np.eye(a.shape[0])
    return float(spectral_norm(np.stack([a.conj().T @ a - eye, a @ a.conj().T - eye])).max())


def float_power(x, k) -> np.ndarray:
    """``x ** k`` for each entry of the array ``x``, by Python's float power (libm ``pow``); numpy's
    vectorized power can differ from it in the last bit.  ``k`` is an int, or one per column of the
    (m, k) result for an (m,) ``x``, each taken as a Python int by ``operator.index``."""
    x, ks = np.asarray(x), [operator.index(e) for e in np.atleast_1d(k)]
    exponents = {e: i for i, e in enumerate(dict.fromkeys(ks))}  # one list of powers per distinct exponent
    powers = np.array([[v ** e for v in x.ravel().tolist()] for e in exponents]).reshape(len(exponents), x.size)
    return powers[[exponents[e] for e in ks]].T.reshape(x.shape + (() if np.ndim(k) == 0 else (len(ks),)))
