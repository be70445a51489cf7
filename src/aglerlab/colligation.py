"""Realization data model: domain structures, colligations, and generators.

A colligation is a block operator matrix

    U = [[A, B],     U : H (+) F  ->  K (+) G
         [C, D]]

together with a domain structure that fixes the coefficient maps E_j of the
linear pencil Z(z) = z_1 E_1 + ... + z_d E_d (a map K -> H).  When U is
unitary and ||Z(z)|| < 1, the transfer function

    phi(z) = D + C Z(z) (I_K - A Z(z))^{-1} B

is analytic on the domain with ||phi(z)|| <= 1.

Two structures are supported:

* ``Polydisk``: K = H splits into d orthogonal blocks and E_j is the
  orthogonal projection onto block j.  The transfer functions are exactly
  the Schur-Agler class on the polydisk.
* ``Ball``: K stacks d copies of the fiber H and E_j selects copy j.  The
  transfer functions are the contractive multipliers of the Arveson space
  (the Schur-Agler class on the unit ball).

Block dimensions of a polydisk structure may be zero: the corresponding
projection is the zero map, which keeps catalog entries such as pure
monomials in fewer effective variables inside the model.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainViolationError, StructureError
from .matrixcore import as_matrix, float_power, haar_unitary, unitarity_residual
from .tolerances import ADMISSIBILITY_MARGIN, BOUNDARY_FLAG_DISTANCE, CONSTRUCTION_TOL

__all__ = [
    "Polydisk",
    "Ball",
    "DomainStructure",
    "Colligation",
    "ValidationReport",
    "validate",
    "projection",
    "projections",
    "zmatrix",
    "structure_norm",
    "admit",
    "PointGeometry",
    "StackGeometry",
    "random_colligation",
    "blaschke",
    "monomial",
    "symmetric_extremal",
    "catalog",
    "to_json_dict",
    "from_json_dict",
    "save_colligation",
    "load_colligation",
    "colligation_hash",
]


@dataclass(frozen=True)
class Polydisk:
    """H = K = block_dims[0] (+) ... (+) block_dims[d-1]."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(b) for b in self.block_dims)
        object.__setattr__(self, "block_dims", dims)
        if len(dims) < 1:
            raise ValueError("polydisk structure needs at least one block")
        if any(b < 0 for b in dims):
            raise ValueError(f"block dimensions must be >= 0, got {dims}")
        if sum(dims) < 1:
            raise ValueError("total state dimension must be >= 1")

    @property
    def d(self) -> int:
        return len(self.block_dims)

    @property
    def dim_h(self) -> int:
        return sum(self.block_dims)

    @property
    def dim_k(self) -> int:
        return sum(self.block_dims)

    @classmethod
    def scalar(cls, d: int) -> "Polydisk":
        """The polydisk in d variables with one-dimensional blocks."""
        return cls((1,) * d)


@dataclass(frozen=True)
class Ball:
    """H = C^fiber_dim, K = H (+) ... (+) H with ``copies`` summands."""

    fiber_dim: int
    copies: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError(f"fiber dimension must be >= 1, got {self.fiber_dim}")
        if self.copies < 1:
            raise ValueError(f"number of copies must be >= 1, got {self.copies}")

    @property
    def d(self) -> int:
        return self.copies

    @property
    def dim_h(self) -> int:
        return self.fiber_dim

    @property
    def dim_k(self) -> int:
        return self.fiber_dim * self.copies

    @classmethod
    def scalar(cls, d: int) -> "Ball":
        """The ball in d variables with a one-dimensional fiber."""
        return cls(1, d)


DomainStructure = Union[Polydisk, Ball]


def projection(structure: DomainStructure, j: int) -> np.ndarray:
    """Coefficient map E_j of the pencil, as a (dim_h x dim_k) matrix.

    ``j`` is 1-based.  For the polydisk this is the orthogonal projection
    onto block j; for the ball it is the selector [0 ... I ... 0] with the
    identity in position j.
    """
    if not 1 <= j <= structure.d:
        raise ValueError(f"coordinate index {j} out of range 1..{structure.d}")
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


@functools.cache
def projections(structure: DomainStructure) -> np.ndarray:
    """All coefficient maps E_1, ..., E_d as one read-only (d, dim_h, dim_k)
    stack, built once per structure (structures are frozen and hashable)."""
    es = np.stack([projection(structure, j) for j in range(1, structure.d + 1)])
    es.flags.writeable = False
    return es


def zmatrix(structure: DomainStructure, z) -> np.ndarray:
    """Pencil Z(z) = z_1 E_1 + ... + z_d E_d as a (dim_h x dim_k) matrix; ``z``
    may be one point or an array of shape (..., d), giving (..., dim_h, dim_k)."""
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if zs.shape[-1] != structure.d:
        raise ValueError(f"point has {zs.shape[-1]} coordinates, structure has d={structure.d}")
    return np.tensordot(zs, projections(structure), axes=(-1, 0))


def structure_norm(structure: DomainStructure, z) -> Union[float, np.ndarray]:
    """Domain norm of ``z``: the point lies in the domain iff it is < 1.

    Polydisk: max_j |z_j| over every coordinate, those of zero-dimension
    blocks included.  Ball: the Euclidean norm of z.  ``z`` may be one point
    or an array of shape (..., d); an array gives one norm per point.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if zs.shape[-1] != structure.d:
        raise ValueError(f"point has {zs.shape[-1]} coordinates, structure has d={structure.d}")
    # hypot rounds |z_j| exactly as abs() on a Python complex does
    moduli = np.hypot(zs.real, zs.imag)
    if isinstance(structure, Polydisk):
        norm = moduli.max(axis=-1)
    else:
        norm = np.sqrt((moduli * moduli).sum(axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def admit(structure: DomainStructure, z) -> tuple[str, ...]:
    """The one admission rule, for a point or an array of shape (..., d).
    Raise DomainViolationError at a domain norm >= 1 - ADMISSIBILITY_MARGIN;
    return ("near-boundary",) at one within BOUNDARY_FLAG_DISTANCE of 1, else ()."""
    norms = np.atleast_1d(structure_norm(structure, z)).ravel()
    bad = np.flatnonzero(norms >= 1.0 - ADMISSIBILITY_MARGIN)
    if bad.size:
        at = f" ({bad.size} of {norms.size} points, first at index {bad[0]})" if np.ndim(z) > 1 else ""
        raise DomainViolationError(
            f"domain norm of z = {norms[bad[0]]:.17g} is not < 1 - {ADMISSIBILITY_MARGIN:g}; point inadmissible{at}"
        )
    return ("near-boundary",) if (1.0 - norms < BOUNDARY_FLAG_DISTANCE).any() else ()


class StackGeometry:
    """Norm data of an (m, d) stack of points, a row per point, as bound
    right-hand sides read it: the domain norms ``sup`` (polydisk) and ``eucl``
    (ball), ``hat`` (m, d) the ball norms with coordinate j zeroed, and by
    Python's ``**`` the squares ``sup2``, ``eucl2``, ``hat2`` and ``zabs2`` = |z_j|^2."""

    def __init__(self, zs: np.ndarray):
        d = zs.shape[-1]
        ball = Ball.scalar(d)
        self.sup = structure_norm(Polydisk.scalar(d), zs)
        self.eucl = structure_norm(ball, zs)
        self.hat = structure_norm(ball, zs[:, None, :] * (1.0 - np.eye(d)))  # [i, j]: z_i with z_ij zeroed
        self.sup2, self.eucl2, self.hat2 = (float_power(v, 2) for v in (self.sup, self.eucl, self.hat))
        self.zabs2 = float_power(np.hypot(zs.real, zs.imag), 2)


@dataclass(frozen=True)
class PointGeometry:
    """Norm data of one evaluation point: its domain norms on the polydisk
    and on the ball, and the ball norms of z with coordinate j zeroed."""

    z: tuple[complex, ...]
    sup_norm: float
    eucl_norm: float
    hat_norms: tuple[float, ...]

    @classmethod
    def from_point(cls, z: Sequence[complex]) -> "PointGeometry":
        zt = tuple(complex(v) for v in z)
        g = StackGeometry(np.array([zt]))
        return cls(z=zt, sup_norm=float(g.sup[0]), eucl_norm=float(g.eucl[0]), hat_norms=tuple(g.hat[0].tolist()))


class Colligation:
    """Immutable colligation: structure plus the four blocks of U.

    Construction checks only shape conformability (so that defective data
    can still be loaded and reported on); unitarity is the job of
    :func:`validate`.
    """

    __slots__ = ("structure", "A", "B", "C", "D")

    def __init__(self, structure: DomainStructure, A, B, C, D):
        A = as_matrix(A, "A")
        B = as_matrix(B, "B")
        C = as_matrix(C, "C")
        D = as_matrix(D, "D")
        dim_k, dim_h = structure.dim_k, structure.dim_h
        if A.shape != (dim_k, dim_h):
            raise StructureError(
                f"block A has shape {A.shape}, structure requires {(dim_k, dim_h)}"
            )
        if B.shape[0] != dim_k:
            raise StructureError(f"block B has {B.shape[0]} rows, expected dim_k={dim_k}")
        if C.shape[1] != dim_h:
            raise StructureError(f"block C has {C.shape[1]} columns, expected dim_h={dim_h}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise StructureError(
                f"block D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        if dim_h + B.shape[1] != dim_k + C.shape[0]:
            raise StructureError(
                f"U is not square: dim_h + dim_f = {dim_h + B.shape[1]}, "
                f"dim_k + dim_g = {dim_k + C.shape[0]}"
            )
        for name, block in (("structure", structure), ("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, block)

    def __setattr__(self, name, value):
        raise AttributeError("Colligation is immutable")

    @property
    def d(self) -> int:
        return self.structure.d

    @property
    def dim_h(self) -> int:
        return self.structure.dim_h

    @property
    def dim_k(self) -> int:
        return self.structure.dim_k

    @property
    def dim_f(self) -> int:
        return self.B.shape[1]

    @property
    def dim_g(self) -> int:
        return self.C.shape[0]

    @property
    def umatrix(self) -> np.ndarray:
        """The assembled block matrix U = [[A, B], [C, D]]."""
        return np.block([[self.A, self.B], [self.C, self.D]])

    def __repr__(self):
        return (
            f"Colligation({self.structure!r}, dim_f={self.dim_f}, dim_g={self.dim_g})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Named residuals and consistency flags for one colligation."""

    residuals: dict[str, float]
    checks: dict[str, bool]
    tol: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values()) and all(
            r <= self.tol for r in self.residuals.values()
        )

    def lines(self) -> list[str]:
        out = [f"tolerance        {self.tol:.3e}"]
        for name, value in self.residuals.items():
            mark = "ok" if value <= self.tol else "FAIL"
            out.append(f"{name:<16} {value:.3e}  {mark}")
        for name, value in self.checks.items():
            out.append(f"{name:<16} {'ok' if value else 'FAIL'}")
        out.append(f"result           {'pass' if self.passed else 'fail'}")
        return out


def validate(col: Colligation, tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    """Check that the assembled U is unitary and the dimensions consistent."""
    structure = col.structure
    checks = {
        "square": col.dim_h + col.dim_f == col.dim_k + col.dim_g,
    }
    if isinstance(structure, Polydisk):
        checks["io_dims"] = col.dim_f == col.dim_g
    else:
        checks["io_dims"] = col.dim_f == (structure.copies - 1) * structure.fiber_dim + col.dim_g
    residuals = {"unitarity": unitarity_residual(col.umatrix)}
    return ValidationReport(residuals=residuals, checks=checks, tol=tol)


def random_colligation(structure: DomainStructure, dim_g: int = 1, seed: int = 0) -> Colligation:
    """Haar-random unitary colligation over ``structure``.

    ``dim_f`` is forced by squareness: dim_f = dim_g on the polydisk and
    dim_f = (d - 1) * fiber_dim + dim_g on the ball.
    """
    if dim_g < 1:
        raise ValueError(f"dim_g must be >= 1, got {dim_g}")
    dim_h, dim_k = structure.dim_h, structure.dim_k
    dim_f = dim_k + dim_g - dim_h
    u = haar_unitary(dim_h + dim_f, seed)
    return _split(structure, u, dim_h, dim_k)


def _split(structure: DomainStructure, u: np.ndarray, dim_h: int, dim_k: int) -> Colligation:
    return Colligation(
        structure,
        A=u[:dim_k, :dim_h],
        B=u[:dim_k, dim_h:],
        C=u[dim_k:, :dim_h],
        D=u[dim_k:, dim_h:],
    )


def blaschke(a: complex) -> Colligation:
    """Single-variable Blaschke factor (z - a) / (1 - conj(a) z), |a| < 1.

    The 2x2 realization [[conj(a), s], [s, -a]] with s = sqrt(1 - |a|^2)
    is unitary and symmetric; it attains the classical Schwarz-Pick bound
    with equality at every point of the disk.
    """
    a = complex(a)
    if not abs(a) < 1:  # NaN fails this too
        raise ValueError(f"Blaschke parameter must satisfy |a| < 1, got |a| = {abs(a)}")
    s = np.sqrt(1.0 - abs(a) ** 2)
    return Colligation(
        Polydisk((1,)),
        A=[[np.conj(a)]],
        B=[[s]],
        C=[[s]],
        D=[[-a]],
    )


def monomial(alpha: Sequence[int]) -> Colligation:
    """Shift realization of the monomial z_1^a_1 ... z_d^a_d.

    The state space chains the coordinates: block j has dimension alpha[j],
    A is the one-step shift along the chain, the input feeds the first
    state and the output reads the last.  The assembled U is the cyclic
    permutation of size (sum alpha) + 1, hence exactly unitary, and the
    transfer function is exactly the monomial.
    """
    counts = tuple(int(a) for a in alpha)
    if any(a < 0 for a in counts):
        raise ValueError(f"multi-index entries must be >= 0, got {counts}")
    n = sum(counts)
    if n == 0:
        raise ValueError("monomial needs a nonzero multi-index")
    a_mat = np.zeros((n, n), dtype=np.complex128)
    for k in range(n - 1):
        a_mat[k + 1, k] = 1.0
    b_mat = np.zeros((n, 1), dtype=np.complex128)
    b_mat[0, 0] = 1.0
    c_mat = np.zeros((1, n), dtype=np.complex128)
    c_mat[0, n - 1] = 1.0
    return Colligation(Polydisk(counts), A=a_mat, B=b_mat, C=c_mat, D=[[0.0]])


def symmetric_extremal(d: int, seed: int) -> Colligation:
    """Random symmetric unitary colligation with H = K = C^d, scalar I/O.

    U = W W^T for Haar W is unitary and equal to its transpose.  Transfer
    functions of such colligations saturate the weighted sum rule

        sum_j (1 - |z_j|^2) |d phi / d z_j| = 1 - |phi(z)|^2

    at every point of the polydisk.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    w = haar_unitary(d + 1, seed)
    u = w @ w.T
    return _split(Polydisk((1,) * d), u, d, d)


_CATALOG = {
    "blaschke": blaschke,
    "monomial": monomial,
    "symmetric_extremal": symmetric_extremal,
}


def catalog(name: str, **params) -> Colligation:
    """Dispatch to a named exact catalog entry.

    Known names: ``blaschke(a)``, ``monomial(alpha)``,
    ``symmetric_extremal(d, seed)``.
    """
    key = name.replace("-", "_")
    if key not in _CATALOG:
        raise ValueError(f"unknown catalog entry {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[key](**params)


# --- JSON serialization -----------------------------------------------------
#
# Schema: {"kind": "polydisk"|"ball", "block_dims": [...] | "fiber_dim": m,
# "copies": d, "dimF": f, "dimG": g, "A"/"B"/"C"/"D": nested arrays of
# [re, im] pairs, row-major}.


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]


def _decode_matrix(data, name: str, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"field {name!r} must be a nested array of [re, im] pairs")
    if arr.shape[:2] != shape:
        raise ValueError(f"field {name!r} has shape {arr.shape[:2]}, expected {shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def to_json_dict(col: Colligation) -> dict:
    out: dict = {}
    if isinstance(col.structure, Polydisk):
        out["kind"] = "polydisk"
        out["block_dims"] = list(col.structure.block_dims)
    else:
        out["kind"] = "ball"
        out["fiber_dim"] = col.structure.fiber_dim
        out["copies"] = col.structure.copies
    out["dimF"] = col.dim_f
    out["dimG"] = col.dim_g
    for name in ("A", "B", "C", "D"):
        out[name] = _encode_matrix(getattr(col, name))
    return out


def from_json_dict(data: dict) -> Colligation:
    try:
        kind = data["kind"]
    except KeyError:
        raise ValueError("missing field 'kind'") from None
    if kind == "polydisk":
        structure: DomainStructure = Polydisk(tuple(data["block_dims"]))
    elif kind == "ball":
        structure = Ball(int(data["fiber_dim"]), int(data["copies"]))
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    try:
        dim_f = int(data["dimF"])
        dim_g = int(data["dimG"])
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    shapes = {
        "A": (structure.dim_k, structure.dim_h),
        "B": (structure.dim_k, dim_f),
        "C": (dim_g, structure.dim_h),
        "D": (dim_g, dim_f),
    }
    blocks = {}
    for name, shape in shapes.items():
        if name not in data:
            raise ValueError(f"missing field {name!r}")
        blocks[name] = _decode_matrix(data[name], name, shape)
    return Colligation(structure, **blocks)


def save_colligation(col: Colligation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(col), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_colligation(path) -> Colligation:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def colligation_hash(col: Colligation) -> str:
    """Stable short hash of the canonical JSON form, for report provenance."""
    canonical = json.dumps(to_json_dict(col), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
