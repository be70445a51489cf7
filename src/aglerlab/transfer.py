"""Transfer-function evaluation with cached resolvents.

``evaluate`` produces an immutable :class:`EvalContext` holding Z(z), the
two resolvents (I - AZ)^{-1} and (I - ZA)^{-1}, the derived operator
L = A (I - ZA)^{-1}, and phi(z).  It is the only per-point object: the
derivative jet (every K operator, partial and partial norm), the defect and
the point geometry live on it and are computed on first use, so every check
at the point reads the same evaluation.  The remaining functions check, at
an evaluated point, the operator identities and resolvent norm estimates
that every unitary realization satisfies:

* kernel identities for I - phi(z)* phi(w) and I - phi(w) phi(z)*,
* norm bounds on (projected) resolvent factors such as
  ||E_j (I - AZ)^{-1} B|| and ||C (I - ZA)^{-1}||,
* the geometric-series bound ||L|| <= 1 / (1 - ||Z||).

Resolvents are computed by LU solves against the identity; Neumann sums
appear only in tests as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .colligation import Colligation, PointGeometry, admit, projections, zmatrix
from .errors import DomainViolationError
from .matrixcore import spectral_norm
from .reports import BoundReport
from .tolerances import CONDITION_LIMIT

__all__ = [
    "EvalContext",
    "evaluate",
    "phi_grid",
    "defect_norms",
    "identity_residuals",
    "resolvent_gram_factors",
    "resolvent_norm_estimates",
    "lnorm_bound_check",
]


@dataclass(frozen=True)
class EvalContext:
    """Everything checked at one evaluated point.

    ``r_ka`` is (I_K - A Z)^{-1}, ``r_ha`` is (I_H - Z A)^{-1}, and
    ``lmat = A r_ha = r_ka A``.  ``cond`` estimates the conditioning of
    I - AZ.  ``flags`` are the point's: ``near-boundary`` from
    :func:`aglerlab.colligation.admit`, and ``ill-conditioned`` past the
    conditioning limit; every record made at the point carries them.

    The context also holds the derivative jet of phi at the point.
    ``kop(mi)`` is the arrangement sum K for ``mi``, taken from the
    recursion over sub-multisets g[c] = sum_j E_j L g[c - e_j] with
    g[e_j] = E_j.  Each g[c] depends only on c, so K does not depend on
    which multi-indices were asked for first.  ``partial(mi)`` is
    mi! C (I - ZA)^{-1} K (I - AZ)^{-1} B (phi itself at order 0) and
    ``norm(mi)`` its spectral norm; ``norms(mis)`` takes many from one
    stacked SVD (``kop=True``: the norms of K).  ``mi`` is a
    :class:`aglerlab.derivative.MultiIndex` (only its ``counts``, ``order``,
    ``d`` and ``factorial_product`` are read).  Each of these, and each
    norm below, is computed on first use and kept, so every check at the
    point shares them.
    """

    col: Colligation
    z: tuple[complex, ...]
    zmat: np.ndarray
    r_ka: np.ndarray
    r_ha: np.ndarray
    lmat: np.ndarray
    phi: np.ndarray
    cond: float
    flags: tuple[str, ...]
    _kops: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _partials: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _knorms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def znorm(self) -> float:
        """||Z(z)||, the largest row norm of Z since Z Z* is diagonal; below
        the domain norm only where an empty polydisk block drops a coordinate."""
        moduli = np.hypot(self.zmat.real, self.zmat.imag)
        return float(np.sqrt((moduli * moduli).sum(axis=1).max()))

    @cached_property
    def lnorm(self) -> float:
        """||L||."""
        return spectral_norm(self.lmat)

    @cached_property
    def defects(self) -> tuple[float, float]:
        """Input and output defect norms of phi(z); see :func:`defect_norms`."""
        return defect_norms(self.phi)

    @cached_property
    def defect(self) -> float:
        """Product of the two defect norms of phi(z)."""
        d_in, d_out = self.defects
        return d_in * d_out

    @cached_property
    def geometry(self) -> PointGeometry:
        """Norm data of z read by bound right-hand sides."""
        return PointGeometry.from_point(self.z)

    @cached_property
    def projections(self) -> np.ndarray:
        """The read-only (d, dim_h, dim_k) stack of coefficient maps E_1, ..., E_d."""
        return projections(self.col.structure)

    @cached_property
    def gram(self) -> tuple[list[float], list[float]]:
        """Projected resolvent Gram factors; see :func:`resolvent_gram_factors`."""
        return resolvent_gram_factors(self)

    @cached_property
    def _c_rha(self) -> np.ndarray:
        return self.col.C @ self.r_ha

    def _k(self, counts: tuple[int, ...]) -> np.ndarray:
        k = self._kops.get(counts)
        if k is None:
            es = self.projections
            if sum(counts) == 1:
                k = es[counts.index(1)]
            else:
                k = np.zeros((self.col.dim_h, self.col.dim_k), dtype=np.complex128)
                for j, c in enumerate(counts):
                    if c:
                        prev = counts[:j] + (c - 1,) + counts[j + 1:]
                        k += es[j] @ (self.lmat @ self._k(prev))
            self._kops[counts] = k
        return k

    def kop(self, mi) -> np.ndarray:
        """Arrangement sum K for ``mi`` (order >= 1)."""
        return self._k(mi.counts)

    def assemble(self, mi, k: np.ndarray) -> np.ndarray:
        """mi! C (I - ZA)^{-1} k (I - AZ)^{-1} B."""
        return mi.factorial_product * (self._c_rha @ k @ self.r_ka @ self.col.B)

    def partial(self, mi) -> np.ndarray:
        """Mixed partial d^n phi / dz^mi at the point."""
        p = self._partials.get(mi.counts)
        if p is None:
            if mi.d != self.col.d:
                raise ValueError(f"multi-index has d={mi.d}, colligation has d={self.col.d}")
            p = self.phi if mi.order == 0 else self.assemble(mi, self.kop(mi))
            self._partials[mi.counts] = p
        return p

    def norms(self, mis, kop: bool = False) -> list[float]:
        """Spectral norms of :meth:`partial` (of :meth:`kop` when ``kop``) at
        each of ``mis``; those not yet known come from one stacked SVD."""
        known = self._knorms if kop else self._norms
        todo = {mi.counts: mi for mi in mis if mi.counts not in known}
        if todo:
            mats = [self.kop(mi) if kop else self.partial(mi) for mi in todo.values()]
            known.update(zip(todo, spectral_norm(np.stack(mats)).tolist()))
        return [known[mi.counts] for mi in mis]

    def norm(self, mi, kop: bool = False) -> float:
        """One of :meth:`norms`."""
        return self.norms([mi], kop)[0]


def evaluate(col: Colligation, z: Sequence[complex]) -> EvalContext:
    """Evaluate the transfer function and cache the resolvents at ``z``.

    An inadmissible point is rejected (see :func:`aglerlab.colligation.admit`),
    not extrapolated, and so is a point where I - AZ(z) is singular (possible
    only for a non-unitary colligation); a point near the boundary is flagged.
    """
    zt = tuple(complex(v) for v in z)
    flags = admit(col.structure, zt)
    zm = zmatrix(col.structure, zt)
    eye_k = np.eye(col.dim_k)
    eye_h = np.eye(col.dim_h)
    i_az = eye_k - col.A @ zm
    try:
        r_ka = np.linalg.solve(i_az, eye_k)
        r_ha = np.linalg.solve(eye_h - zm @ col.A, eye_h)
    except np.linalg.LinAlgError:
        raise DomainViolationError(f"I - AZ(z) is singular at z = {list(zt)}") from None
    lmat = col.A @ r_ha
    phi = col.D + col.C @ zm @ r_ka @ col.B
    cond = float(np.linalg.cond(i_az))
    return EvalContext(
        col=col, z=zt, zmat=zm, r_ka=r_ka, r_ha=r_ha, lmat=lmat, phi=phi, cond=cond,
        flags=flags + (("ill-conditioned",) if cond > CONDITION_LIMIT else ()),
    )


def phi_grid(col: Colligation, points: np.ndarray) -> np.ndarray:
    """Vectorized phi over ``points`` of shape (m, d); returns (m, dim_g, dim_f).

    Stacked LU solves keep quadrature oracles at desk speed.  Every point
    must be admissible, with I - AZ(z) nonsingular.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != col.d:
        raise ValueError(f"points must have shape (m, {col.d}), got {pts.shape}")
    admit(col.structure, pts)
    zs = zmatrix(col.structure, pts)  # (m, dim_h, dim_k)
    i_az = np.eye(col.dim_k) - col.A @ zs
    rhs = np.broadcast_to(col.B, (len(pts),) + col.B.shape)
    try:
        x = np.linalg.solve(i_az, rhs)  # (m, dim_k, dim_f)
    except np.linalg.LinAlgError:
        raise DomainViolationError(f"I - AZ(z) is singular at one of {len(pts)} points") from None
    return col.D + col.C @ zs @ x


def identity_residuals(cw: EvalContext, cz: EvalContext) -> tuple[float, float]:
    """Residuals of the two defect kernel identities at the pair (w, z),
    from the contexts evaluated at w and z.

    r1 checks I_F - phi(z)* phi(w) against
    B* (I - Z(z)* A*)^{-1} (I - Z(z)* Z(w)) (I - A Z(w))^{-1} B, and r2 the
    mirrored identity for I_G - phi(w) phi(z)*.  Both vanish for exactly
    unitary colligations.
    """
    col = cz.col
    eye_f = np.eye(col.dim_f)
    eye_g = np.eye(col.dim_g)
    eye_k = np.eye(col.dim_k)
    eye_h = np.eye(col.dim_h)
    # (I - Z(z)* A*)^{-1} is the adjoint of r_ka at z; same for the H side.
    lhs1 = eye_f - cz.phi.conj().T @ cw.phi
    rhs1 = (
        col.B.conj().T
        @ cz.r_ka.conj().T
        @ (eye_k - cz.zmat.conj().T @ cw.zmat)
        @ cw.r_ka
        @ col.B
    )
    lhs2 = eye_g - cw.phi @ cz.phi.conj().T
    rhs2 = (
        col.C
        @ cw.r_ha
        @ (eye_h - cw.zmat @ cz.zmat.conj().T)
        @ cz.r_ha.conj().T
        @ col.C.conj().T
    )
    return spectral_norm(lhs1 - rhs1), spectral_norm(lhs2 - rhs2)


def resolvent_gram_factors(ctx: EvalContext) -> tuple[list[float], list[float]]:
    """Per-coordinate factors entering the projected resolvent estimates.

    Returns (a, b) with a[j-1] = ||E_j (I - Z*Z)^{-1} E_j*||^(1/2) on the
    K side and b[j-1] = ||E_j* (I - ZZ*)^{-1} E_j||^(1/2) on the H side.
    """
    z = ctx.zmat
    eye_k = np.eye(ctx.col.dim_k)
    eye_h = np.eye(ctx.col.dim_h)
    inv_k = np.linalg.solve(eye_k - z.conj().T @ z, eye_k)
    inv_h = np.linalg.solve(eye_h - z @ z.conj().T, eye_h)
    es = ctx.projections
    a = np.sqrt(spectral_norm(np.stack([e @ inv_k @ e.conj().T for e in es])))
    b = np.sqrt(spectral_norm(np.stack([e.conj().T @ inv_h @ e for e in es])))
    return list(a), list(b)


def defect_norms(phi: np.ndarray) -> tuple[float, float]:
    """(||I - phi* phi||^(1/2), ||I - phi phi*||^(1/2)).

    Their product is the defect D on bound right-hand sides; for scalar phi
    it equals 1 - |phi|^2.
    """
    eye_f = np.eye(phi.shape[1])
    eye_g = np.eye(phi.shape[0])
    return (
        math.sqrt(spectral_norm(eye_f - phi.conj().T @ phi)),
        math.sqrt(spectral_norm(eye_g - phi @ phi.conj().T)),
    )


def resolvent_norm_estimates(ctx: EvalContext) -> list[BoundReport]:
    """Norm bounds on the four resolvent factors at an evaluated point.

    Per coordinate j: ||E_j (I - AZ)^{-1} B|| against the input defect times
    the projected Gram factor, and ||C (I - ZA)^{-1} E_j|| against the
    output defect times its Gram factor.  Unprojected: ||(I - AZ)^{-1} B||
    and ||C (I - ZA)^{-1}|| against defect / sqrt(1 - ||Z||^2).
    """
    col, z = ctx.col, ctx.z
    d_in, d_out = ctx.defects
    a, b = ctx.gram
    es = ctx.projections
    right = spectral_norm(np.stack([e @ ctx.r_ka @ col.B for e in es])).tolist()
    left = spectral_norm(np.stack([col.C @ ctx.r_ha @ e for e in es])).tolist()
    reports = []
    for j in range(len(es)):
        reports.append(BoundReport("resolvent.right_block", z, (j + 1,), lhs=right[j], rhs=d_in * a[j]))
        reports.append(BoundReport("resolvent.left_block", z, (j + 1,), lhs=left[j], rhs=d_out * b[j]))
    scale = 1.0 / np.sqrt(1.0 - ctx.znorm**2)
    reports.append(BoundReport("resolvent.right_full", z, None, lhs=spectral_norm(ctx.r_ka @ col.B), rhs=d_in * scale))
    reports.append(BoundReport("resolvent.left_full", z, None, lhs=spectral_norm(col.C @ ctx.r_ha), rhs=d_out * scale))
    return reports


def lnorm_bound_check(ctx: EvalContext) -> BoundReport:
    """Geometric-series bound ||L|| <= 1 / (1 - ||Z||)."""
    return BoundReport(
        theorem_tag="lmatrix.geometric",
        z=ctx.z,
        alpha=None,
        lhs=ctx.lnorm,
        rhs=1.0 / (1.0 - ctx.znorm),
    )
