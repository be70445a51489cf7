"""Transfer-function evaluation over a stack of points, with cached resolvents.

``evaluate(col, zs)`` evaluates phi at an (m, d) stack of points as one
:class:`EvalStack`, whose every quantity (resolvents, the derivative jet read
through ``kops``, ``partials`` and ``norms``, defects, flags) comes from one
numpy call for all its points, every array of norms from one ``spectral_norm``
call; so does ``evaluate(cols, zs)`` for n colligations of one structure at
(n, m, d) points, each row with its colligation's blocks.  Each point is read
through its view, an :class:`EvalContext`; at one point of shape (d,),
``evaluate`` returns the view of a stack of one.  The remaining functions check the identities and
norm estimates that every unitary realization satisfies: the kernel identities
for I - phi(z)* phi(w) and I - phi(w) phi(z)*, and, as the columns of a whole
stack (``resolvent_norm_estimates``, ``lnorm_bound_check``), norm bounds on
(projected) resolvent factors such as ||E_j (I - AZ)^{-1} B|| and
||C (I - ZA)^{-1}||, and ||L|| <= 1 / (1 - ||Z||); at one point, pass
``ctx.stack`` and read row ``ctx.i``.  Resolvents are LU solves against the
identity; Neumann sums appear only in tests, as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

import numpy as np

from .colligation import Colligation, StackGeometry, admit, projections, zmatrix
from .errors import DomainViolationError
from .matrixcore import spectral_norm
from .reports import Column
from .tolerances import CONDITION_LIMIT

__all__ = [
    "EvalStack", "EvalContext", "evaluate", "identity_residuals", "resolvent_gram_factors",
    "resolvent_norm_estimates", "lnorm_bound_check",
]


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


@cache
def _jet_order(d: int, n: int) -> tuple[dict[tuple[int, ...], int], list[tuple[list[int], list[int]]]]:
    """Positions of the order-n multi-indices c over d axes in their K stack, and per axis j those
    of the c with c_j > 0 and of their c - e_j in the stack one order below."""
    counts = [tuple(axes.count(j) for j in range(d)) for axes in itertools.combinations_with_replacement(range(d), n)]
    below = _jet_order(d, n - 1)[0] if n else {}
    return {c: i for i, c in enumerate(counts)}, [
        ([i for i, c in enumerate(counts) if c[j]], [below[c[:j] + (c[j] - 1,) + c[j + 1:]] for c in counts if c[j]])
        for j in range(d)]


def _jet_start(d: int, n: int) -> int:
    """Where order n starts in the jet: after the comb(n - 1 + d, d) multi-indices over d axes of the orders below."""
    return math.comb(n - 1 + d, d)


def _refuse(zs: np.ndarray, bad: np.ndarray, what: str) -> None:
    """A domain violation naming the first point of ``zs`` where ``bad`` holds, if any."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        at = f" (point {i} of {len(zs)})" if len(zs) > 1 else ""
        raise DomainViolationError(f"{what} at z = {zs[i].tolist()}{at}") from None


def _inverse(mats: np.ndarray, zs: np.ndarray, name: str) -> np.ndarray:
    """Inverses of ``name``, one matrix per point of ``zs``; a singular one is a domain violation."""
    try:
        return np.linalg.solve(mats, np.eye(mats.shape[-1]))
    except np.linalg.LinAlgError:
        _refuse(zs, np.linalg.slogdet(mats)[1] == -np.inf, f"{name} is singular")
        raise


class EvalStack:
    """The transfer function of ``cols[i]`` evaluated at row i of the (m, d) points ``zs``.

    All share ``structure`` and the block shapes of ``col`` = cols[0].  ``A``, ``B``, ``C``
    (stride-0 views for one colligation), ``zmat``, ``r_ka`` = (I_K - A Z)^{-1}, ``phi``: a row per point.
    ``geometry``, the :class:`aglerlab.colligation.StackGeometry` of ``zs`` that
    :func:`aglerlab.colligation.admit` returned (a slice measures its own rows).
    The rest is computed for every point on first use and kept: ``r_ha`` =
    (I_H - Z A)^{-1}, ``lmat`` = A r_ha, the lists ``cond`` (of I - AZ) and
    ``flags`` (the geometry's ``near-boundary``, then ``ill-conditioned`` past the
    conditioning limit), and the columns ``znorm``, ``lnorm``, ``defects`` (m, 2) the input and
    output defect norms, ``defect`` (their product, the D of every bound) and ``gram`` (m, 2, d).  The
    jet, one reader per quantity, each stacking a list of multi-indices on axis 1: ``kops(mis)``,
    the arrangement sums K, from the recursion g[c] = sum_j E_j L g[c - e_j], g[e_j] = E_j, one order
    at a time for every multi-index of that order, so they do not depend on which came first; one pass builds
    orders 0..top into one kept array read with one take, and a request above them rebuilds it; ``partials(mis)``,
    mi! C (I - ZA)^{-1} K (I - AZ)^{-1} B (phi at order 0), made on each call; ``norms(mis)``,
    per multi-index the (m,) norms of its partial, from ``partials(mis)`` and one SVD call.
    ``stack[i]`` is the view of point i, ``stack[a:b]`` a new stack."""

    def __init__(self, cols: list[Colligation], blocks, zs, zmat, r_ka, phi, geometry: StackGeometry):
        self.cols, self.col, self.structure, self.geometry = cols, cols[0], cols[0].structure, geometry
        (self.A, self.B, self.C), self.zs, self.zmat, self.r_ka, self.phi = blocks, zs, zmat, r_ka, phi
        self.es = projections(self.structure)  # the read-only (d, dim_h, dim_k) stack of the E_j
        self._jet = np.empty((0, 0))  # the jet, its orders side by side on axis 1; none built yet

    def __len__(self) -> int:
        return len(self.zs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EvalStack(self.cols[i], (self.A[i], self.B[i], self.C[i]), self.zs[i], self.zmat[i], self.r_ka[i],
                             self.phi[i], StackGeometry(self.structure, self.zs[i]))
        return EvalContext(self, range(len(self))[i])

    @cached_property
    def r_ha(self) -> np.ndarray:
        return _inverse(np.eye(self.col.dim_h) - self.zmat @ self.A, self.zs, "I - ZA(z)")

    @cached_property
    def lmat(self) -> np.ndarray:
        return self.A @ self.r_ha

    @cached_property
    def cond(self) -> list[float]:
        return np.linalg.cond(np.eye(self.col.dim_k) - self.A @ self.zmat).tolist()

    @cached_property
    def flags(self) -> list[tuple[str, ...]]:
        ill = [("ill-conditioned",) if c > CONDITION_LIMIT else () for c in self.cond]
        return [f + g for f, g in zip(self.geometry.flags, ill)]

    @cached_property
    def znorm(self) -> np.ndarray:
        """||Z(z)||, the largest row norm of Z since Z Z* is diagonal; below
        the domain norm only where an empty polydisk block drops a coordinate."""
        moduli = np.hypot(self.zmat.real, self.zmat.imag)
        return np.sqrt((moduli * moduli).sum(axis=-1).max(axis=-1))

    @cached_property
    def lnorm(self) -> np.ndarray:
        return spectral_norm(self.lmat)

    @cached_property
    def defects(self) -> np.ndarray:
        """Input and output defect norms ||I - phi* phi||^(1/2), ||I - phi phi*||^(1/2) of phi(z); a point
        where either overflows (possible only for a non-unitary colligation) is a domain violation."""
        phi, phi_h = self.phi, _adjoint(self.phi)
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.eye(self.col.dim_f) - phi_h @ phi, np.eye(self.col.dim_g) - phi @ phi_h
        bad = ~np.isfinite(gaps[0]).all(axis=(1, 2)) | ~np.isfinite(gaps[1]).all(axis=(1, 2))
        _refuse(self.zs, bad, "the defect of phi is not finite")
        return np.stack([np.sqrt(spectral_norm(g)) for g in gaps], axis=1)

    @cached_property
    def defect(self) -> np.ndarray:
        """The product of the two defect norms: the defect D on every bound; 1 - |phi|^2 for scalar phi."""
        return self.defects[:, 0] * self.defects[:, 1]

    @cached_property
    def gram(self) -> np.ndarray:
        """Projected resolvent Gram factors a, b; see :func:`resolvent_gram_factors`."""
        return np.stack(resolvent_gram_factors(self), axis=1)

    @cached_property
    def _c_rha(self) -> np.ndarray:
        return self.C @ self.r_ha

    def kops(self, mis) -> np.ndarray:
        """The (m, k, dim_h, dim_k) arrangement sums K of ``mis`` (zero at order 0), in one take from the jet."""
        d = self.col.d
        for mi in mis:
            if mi.d != d:
                raise ValueError(f"multi-index has d={mi.d}, colligation has d={d}")
        top = max([1, *(mi.order for mi in mis)])  # order 1, the E_j, is always built
        if _jet_start(d, top + 1) > self._jet.shape[1]:  # one pass: orders 0..top, each a view made from the one below
            self._jet = np.zeros((len(self), _jet_start(d, top + 1)) + self.zmat.shape[1:], dtype=np.complex128)
            orders = [self._jet[:, _jet_start(d, n):_jet_start(d, n + 1)] for n in range(top + 1)]
            orders[1][:] = self.es
            for n in range(2, top + 1):  # g[c] = sum_j E_j L g[c - e_j], over the j with c_j > 0 in turn
                below = self.lmat[:, None] @ orders[n - 1]
                for e_j, (rows, prev) in zip(self.es, _jet_order(d, n)[1]):
                    orders[n][:, rows] += e_j @ below[:, prev]
        return self._jet[:, [_jet_start(d, mi.order) + _jet_order(d, mi.order)[0][mi.counts] for mi in mis]]

    def partials(self, mis) -> np.ndarray:
        """The (m, k, dim_g, dim_f) partials of ``mis`` from one stacked chain (phi at order 0); one that
        overflows is a domain violation naming its point."""
        fp = np.array([mi.factorial_product for mi in mis], dtype=float)[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            chain = fp * (self._c_rha[:, None] @ self.kops(mis) @ self.r_ka[:, None] @ self.B[:, None])
        bad = ~np.isfinite(chain).all(axis=(2, 3))  # possible only for a non-unitary colligation
        if bad.any():
            k = np.argwhere(bad)[0, 1]  # the first non-finite partial at the first point with one
            _refuse(self.zs, bad[:, k], f"partial d^{mis[k].order} phi / dz^{list(mis[k].counts)} is not finite")
        return np.where(np.array([mi.order == 0 for mi in mis])[:, None, None], self.phi[:, None], chain)

    def norms(self, mis) -> list[np.ndarray]:
        """Per multi-index of ``mis``, its partial's norm at every point, from one SVD call."""
        return list(spectral_norm(self.partials(mis)).T)


_ROWS = frozenset("zmat r_ka r_ha lmat phi cond flags A B C znorm lnorm defects defect gram".split())  # a view's rows


class EvalContext:
    """Everything checked at one evaluated point, ``z``, row ``i`` of ``stack``, of
    colligation ``col``: its rows of the stack's attributes (each read on first use and kept)
    and of its jet (``partial(mi)``, ``norms(mis)``).  Every record made at the point carries its ``flags``.
    """

    def __init__(self, stack: EvalStack, i: int):
        self.stack, self.i, self.col = stack, i, stack.cols[i]
        self.z: tuple[complex, ...] = tuple(stack.zs[i].tolist())

    def __getattr__(self, name):
        if name not in _ROWS:  # before self.stack, which a copy that is not yet filled in lacks
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault(name, getattr(self.stack, name)[self.i])  # kept: read once

    def partial(self, mi) -> np.ndarray:
        """Mixed partial d^n phi / dz^mi at the point."""
        return self.stack.partials([mi])[self.i, 0]

    def norms(self, mis) -> list[float]:
        """Spectral norms of :meth:`partial` at each of ``mis``."""
        return [float(row[self.i]) for row in self.stack.norms(mis)]


def evaluate(col: Colligation | list[Colligation], zs) -> EvalStack | EvalContext:
    """Evaluate the transfer function at the points of an (m, d) stack ``zs``, or at one
    point of shape (d,); or n colligations of one structure, each at its row of (n, m, d)
    ``zs``, as one stack.  An inadmissible point is rejected (see :func:`aglerlab.colligation.admit`),
    not extrapolated, and so is a point where I - AZ(z) is singular or phi is not finite (each
    possible only for a non-unitary colligation); a point near the boundary is flagged."""
    cols = [col] if isinstance(col, Colligation) else list(col)
    pts = np.asarray(zs, dtype=np.complex128)
    if (pts.ndim not in ((1, 2) if isinstance(col, Colligation) else (3,)) or pts.ndim == 3 and len(pts) != len(cols)
            or not pts.size):
        raise ValueError(f"points must have shape (d,) or (m, d) for a colligation, (n, m, d) for n, "
                         f"with m, n >= 1; got {pts.shape}")
    structure = cols[0].structure
    if any(c.structure != structure for c in cols):
        raise ValueError("colligations evaluated together must share their structure")
    geometry = admit(structure, pts)
    stack = pts.reshape(-1, structure.d)
    rows = (len(cols), len(stack) // len(cols))  # the reshape copies only for n > 1
    A, B, C, D = (np.broadcast_to(np.stack(bs)[:, None], rows + bs[0].shape).reshape((-1,) + bs[0].shape)
                  for bs in zip(*((c.A, c.B, c.C, c.D) for c in cols)))
    zm = zmatrix(structure, stack)
    r_ka = _inverse(np.eye(structure.dim_k) - A @ zm, stack, "I - AZ(z)")
    with np.errstate(over="ignore", invalid="ignore"):
        phi = D + C @ zm @ r_ka @ B
    _refuse(stack, ~np.isfinite(phi).all(axis=(1, 2)), "phi is not finite")
    ev = EvalStack([c for c in cols for _ in range(rows[1])], (A, B, C), stack, zm, r_ka, phi, geometry)
    return ev[0] if pts.ndim == 1 else ev


def identity_residuals(cw, cz):
    """Residuals of the two defect kernel identities at the pair (w, z), from
    the views at w and z, or as two arrays from two stacks whose rows pair up.

    r1 checks I_F - phi(z)* phi(w) against
    B* (I - Z(z)* A*)^{-1} (I - Z(z)* Z(w)) (I - A Z(w))^{-1} B, and r2 the
    mirrored identity for I_G - phi(w) phi(z)*.  Both vanish for exactly
    unitary colligations.
    """
    col, b, c = cz.col, cz.B, cz.C
    # (I - Z(z)* A*)^{-1} is the adjoint of r_ka at z; same for the H side.
    lhs1 = np.eye(col.dim_f) - _adjoint(cz.phi) @ cw.phi
    rhs1 = _adjoint(b) @ _adjoint(cz.r_ka) @ (np.eye(col.dim_k) - _adjoint(cz.zmat) @ cw.zmat) @ cw.r_ka @ b
    lhs2 = np.eye(col.dim_g) - cw.phi @ _adjoint(cz.phi)
    rhs2 = c @ cw.r_ha @ (np.eye(col.dim_h) - cw.zmat @ _adjoint(cz.zmat)) @ _adjoint(cz.r_ha) @ _adjoint(c)
    return spectral_norm(lhs1 - rhs1), spectral_norm(lhs2 - rhs2)


def resolvent_gram_factors(ev: EvalStack) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate factors entering the projected resolvent estimates.

    Returns (a, b) of shape (m, d) with a[i, j-1] =
    ||E_j (I - Z*Z)^{-1} E_j*||^(1/2) on the K side and b[i, j-1] =
    ||E_j* (I - ZZ*)^{-1} E_j||^(1/2) on the H side, at point i.
    """
    z, es = ev.zmat, ev.es
    inv_k = _inverse(np.eye(ev.col.dim_k) - _adjoint(z) @ z, ev.zs, "I - Z*Z")[:, None]
    inv_h = _inverse(np.eye(ev.col.dim_h) - z @ _adjoint(z), ev.zs, "I - ZZ*")[:, None]
    return np.sqrt(spectral_norm(es @ inv_k @ _adjoint(es))), np.sqrt(spectral_norm(_adjoint(es) @ inv_h @ es))


def resolvent_norm_estimates(ev: EvalStack) -> list[Column]:
    """Norm bounds on the four resolvent factors at every point of a stack.

    Per coordinate j: ||E_j (I - AZ)^{-1} B|| against the input defect times
    the projected Gram factor, and ||C (I - ZA)^{-1} E_j|| against the
    output defect times its Gram factor.  Unprojected: ||(I - AZ)^{-1} B||
    and ||C (I - ZA)^{-1}|| against defect / sqrt(1 - ||Z||^2).
    """
    right = spectral_norm(ev.es @ ev.r_ka[:, None] @ ev.B[:, None])
    left = spectral_norm(ev._c_rha[:, None] @ ev.es)
    d_in, d_out = ev.defects.T
    a, b = ev.gram[:, 0], ev.gram[:, 1]
    columns = []
    for j in range(ev.col.d):
        columns.append(Column("resolvent.right_block", (j + 1,), right[:, j], d_in * a[:, j]))
        columns.append(Column("resolvent.left_block", (j + 1,), left[:, j], d_out * b[:, j]))
    scale = 1.0 / np.sqrt(1.0 - np.float_power(ev.znorm, 2))
    columns.append(Column("resolvent.right_full", None, spectral_norm(ev.r_ka @ ev.B), d_in * scale))
    columns.append(Column("resolvent.left_full", None, spectral_norm(ev._c_rha), d_out * scale))
    return columns


def lnorm_bound_check(ev: EvalStack) -> Column:
    """Geometric-series bound ||L|| <= 1 / (1 - ||Z||) at every point of a stack."""
    return Column("lmatrix.geometric", None, ev.lnorm, 1.0 / (1.0 - ev.znorm))
