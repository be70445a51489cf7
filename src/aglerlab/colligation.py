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

A structure class owns all of its domain's geometry: its ``kind`` (the
name in a colligation file, whose other structure keys are its dataclass
fields), its maps E_1..E_d (``maps``), its norm of the moduli |z_j|
(``norm``), its uniform sampler (``draw``) and how far each |z_j| may grow
before that norm reaches one (``room``).  Everything else reads these
members instead of testing a structure's class.  ``draw(rng, count, biased)``
reads ``rng`` only through ``random`` and ``standard_normal``: campaigns pass
an :class:`aglerlab.stream.Stream`, which imports no ``numpy.random``, and a
numpy ``Generator`` of the same seed draws the same points.

A record's subject hash, :func:`colligation_hash`, is the first 16 hex digits
of the SHA-256 of the canonical JSON (:func:`to_json_dict`, keys sorted, no
spaces); :func:`subject_hash` is its one definition, which ``harness`` also
uses for polynomials.  It takes SHA-256 from CPython's builtin module, the
digest ``hashlib`` gives, so a campaign never loads OpenSSL's libcrypto.

Block dimensions of a polydisk structure may be zero: the corresponding
projection is the zero map, which keeps catalog entries such as pure
monomials in fewer effective variables inside the model.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import asdict, dataclass, fields
from typing import Sequence, Union, get_args

import numpy as np

from .errors import DomainViolationError, StructureError
from .matrixcore import as_matrix, haar_unitary, unitarity_residual
from .stream import Stream
from .tolerances import ADMISSIBILITY_MARGIN, BOUNDARY_FLAG_DISTANCE, CONSTRUCTION_TOL

try:  # SHA-256 (FIPS 180-4) from CPython's builtin module, so that no campaign maps OpenSSL's libcrypto
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

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
    "StackGeometry",
    "random_colligation",
    "blaschke",
    "monomial",
    "symmetric_extremal",
    "to_json_dict",
    "from_json_dict",
    "save_colligation",
    "load_colligation",
    "colligation_hash",
    "subject_hash",
]


def _dimensions(values, what: str) -> tuple[int, ...]:
    """``values`` as dimensions, each an integer by ``operator.index``: a string, a float or a bool is
    refused, not read as another dimension."""
    if not isinstance(values, str):
        try:
            dims = tuple(values)
            if not any(isinstance(v, bool) for v in dims):
                return tuple(map(operator.index, dims))
        except TypeError:
            pass
    raise TypeError(f"{what} must be integers, got {values!r}")


@dataclass(frozen=True)
class Polydisk:
    """H = K = block_dims[0] (+) ... (+) block_dims[d-1]."""

    block_dims: tuple[int, ...]
    kind = "polydisk"

    def __post_init__(self):
        dims = _dimensions(self.block_dims, "block dimensions")
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

    def maps(self) -> np.ndarray:
        return np.eye(self.dim_k, dtype=np.complex128) * np.repeat(np.eye(self.d), self.block_dims, axis=1)[:, None]

    @staticmethod
    def norm(moduli: np.ndarray) -> np.ndarray:
        return moduli.max(axis=-1)

    def draw(self, rng: Stream | np.random.Generator, count: int, biased: bool) -> tuple[np.ndarray, np.ndarray]:
        d, u = self.d, rng.random((count, 2 * self.d + biased))  # per point: d radii, d angles, then the bias u
        return 0.99 * np.sqrt(u[:, :d]) * np.exp(1j * (2.0 * np.pi * u[:, d:2 * d])), u[:, 2 * d:]

    @staticmethod
    def room(moduli: np.ndarray, norm: float) -> np.ndarray:
        return 1.0 - moduli


@dataclass(frozen=True)
class Ball:
    """H = C^fiber_dim, K = H (+) ... (+) H with ``copies`` summands."""

    fiber_dim: int
    copies: int
    kind = "ball"

    def __post_init__(self):
        fiber_dim, copies = _dimensions((self.fiber_dim, self.copies), "fiber_dim and copies")
        object.__setattr__(self, "fiber_dim", fiber_dim)
        object.__setattr__(self, "copies", copies)
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

    def maps(self) -> np.ndarray:
        return np.eye(self.dim_k, dtype=np.complex128).reshape(self.d, self.fiber_dim, self.dim_k)

    @staticmethod
    def norm(moduli: np.ndarray) -> np.ndarray:
        return np.sqrt((moduli * moduli).sum(axis=-1))

    def draw(self, rng: Stream | np.random.Generator, count: int, biased: bool) -> tuple[np.ndarray, np.ndarray]:
        d = self.d  # per point: 2d normals (real parts, then imaginary), the radius u, then the bias u
        g, u = np.empty((count, 2 * d)), np.empty((count, 1 + biased))  # too many points fail here, undrawn
        for k in range(count):
            g[k], u[k] = rng.standard_normal(2 * d), rng.random(1 + biased)
        v = g[:, :d] + 1j * g[:, d:]  # normed by row @ column: the BLAS dot of np.linalg.norm, in numpy 1.x too
        v /= np.sqrt(v.real[:, None] @ v.real[..., None] + v.imag[:, None] @ v.imag[..., None])[:, 0]
        return 0.99 * np.float_power(u[:, :1], 1.0 / (2 * d)) * v, u[:, 1:]  # radius u^(1/(2d)), libm pow

    @staticmethod
    def room(moduli: np.ndarray, norm: float) -> np.ndarray:
        return np.sqrt(1.0 - (norm**2 - moduli**2)) - moduli


DomainStructure = Union[Polydisk, Ball]


def projection(structure: DomainStructure, j: int) -> np.ndarray:
    """Coefficient map E_j of the pencil, as a (dim_h x dim_k) matrix.

    ``j`` is 1-based.  For the polydisk this is the orthogonal projection
    onto block j; for the ball it is the selector [0 ... I ... 0] with the
    identity in position j.
    """
    if not 1 <= j <= structure.d:
        raise ValueError(f"coordinate index {j} out of range 1..{structure.d}")
    return structure.maps()[j - 1]


@functools.cache
def projections(structure: DomainStructure) -> np.ndarray:
    """All coefficient maps E_1, ..., E_d as one read-only (d, dim_h, dim_k)
    stack: ``structure.maps()``, built by one call per structure (structures are frozen and hashable)."""
    es = structure.maps()
    es.flags.writeable = False
    return es


def _points(structure: DomainStructure, z) -> np.ndarray:
    """``z``, one point or an array of shape (..., d), as a complex array of at least one axis: the one
    conversion of points, and the one check that each has the structure's d coordinates."""
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if zs.shape[-1] != structure.d:
        raise ValueError(f"point has {zs.shape[-1]} coordinates, structure has d={structure.d}")
    return zs


def zmatrix(structure: DomainStructure, z) -> np.ndarray:
    """Pencil Z(z) = z_1 E_1 + ... + z_d E_d as a (dim_h x dim_k) matrix; ``z``
    may be one point or an array of shape (..., d), giving (..., dim_h, dim_k)."""
    return np.tensordot(_points(structure, z), projections(structure), axes=(-1, 0))


def structure_norm(structure: DomainStructure, z) -> Union[float, np.ndarray]:
    """Domain norm of ``z``, admitted or not: the point lies in the domain iff it is < 1.

    Polydisk: max_j |z_j| over every coordinate, those of zero-dimension blocks included.  Ball: the
    Euclidean norm of z.  One point gives a float, an array of shape (..., d) one norm per point: the
    ``norm`` of the points' :class:`StackGeometry`.
    """
    zs = _points(structure, z)
    norm = StackGeometry(structure, zs).norm.reshape(zs.shape[:-1])
    return float(norm) if norm.ndim == 0 else norm


def admit(structure: DomainStructure, z) -> StackGeometry:
    """The one admission rule, for one point of shape (d,) or an array of shape (..., d): raise DomainViolationError
    at a domain norm that is not < 1 - ADMISSIBILITY_MARGIN (NaN included), else return the :class:`StackGeometry`
    of the points, an (m, d) stack (one row for one point) that ``evaluate`` and ``PolynomialStack`` read."""
    zs = _points(structure, z)
    geometry = StackGeometry(structure, zs)
    bad = np.flatnonzero(~(geometry.norm < 1.0 - ADMISSIBILITY_MARGIN))  # a NaN norm fails < too
    if bad.size:
        at = f" ({bad.size} of {len(geometry.norm)} points, first at index {bad[0]})" if zs.ndim > 1 else ""
        raise DomainViolationError(f"domain norm of z = {geometry.norm[bad[0]]:.17g} is not < 1 - "
                                   f"{ADMISSIBILITY_MARGIN:g}; point inadmissible{at}")
    return geometry


class StackGeometry:
    """Norm data of points of ``structure``'s domain, given as an array of shape (..., d) and kept as the
    (m, d) stack ``zs``, a row per point, as admission and bound right-hand sides read it: ``moduli``
    (m, d) the |z_j|, rounded as ``abs()`` of a Python complex rounds them, and ``norm`` the domain norm
    (s = ||z||_inf on the polydisk, t = ||z||_2 on the ball), which admission and :func:`structure_norm`
    read.  Campaigns also read ``flags`` per point, ("near-boundary",) at a norm within
    BOUNDARY_FLAG_DISTANCE of 1, else (), and by ``np.float_power(v, 2)`` the squares ``norm2`` and
    ``zabs2`` = |z_j|^2; only the ball's bounds read ``hat`` (m, d), the domain norms with coordinate j
    zeroed, and its square ``hat2``.  Each of these is computed on first use, so the Cauchy oracle's
    grid, which reads none, makes none."""

    def __init__(self, structure: DomainStructure, zs: np.ndarray):
        self.structure, self.zs = structure, zs.reshape(-1, structure.d)
        self.moduli = np.hypot(self.zs.real, self.zs.imag)
        self.norm = structure.norm(self.moduli)

    @functools.cached_property
    def flags(self) -> list[tuple[str, ...]]:
        return [("near-boundary",) * near for near in (1.0 - self.norm < BOUNDARY_FLAG_DISTANCE).tolist()]

    @functools.cached_property
    def norm2(self) -> np.ndarray:
        return np.float_power(self.norm, 2)

    @functools.cached_property
    def zabs2(self) -> np.ndarray:
        return np.float_power(self.moduli, 2)

    @functools.cached_property
    def hat(self) -> np.ndarray:  # [i, j]: the norm of z_i with z_ij zeroed
        return self.structure.norm(self.moduli[:, None, :] * (1.0 - np.eye(self.moduli.shape[-1])))

    @functools.cached_property
    def hat2(self) -> np.ndarray:
        return np.float_power(self.hat, 2)


class Colligation:
    """Immutable colligation: structure plus the four blocks of U.

    Construction checks only shape conformability and that phi has an input
    and an output, dim_f, dim_g >= 1 (so that defective data can still be
    loaded and reported on); unitarity is the job of :func:`validate`.
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
        if B.shape[1] < 1 or C.shape[0] < 1:
            raise StructureError(f"phi needs an input and an output: dim_f={B.shape[1]}, dim_g={C.shape[0]}")
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
    """Named residuals of one colligation, each passing at most ``tol``."""

    residuals: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def lines(self) -> list[str]:
        out = [f"tolerance        {self.tol:.3e}"]
        for name, value in self.residuals.items():
            out.append(f"{name:<16} {value:.3e}  {'ok' if value <= self.tol else 'FAIL'}")
        out.append(f"result           {'pass' if self.passed else 'fail'}")
        return out


def validate(col: Colligation, tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    """Check that the assembled U is unitary; construction already made U square, so dim_f fits the structure."""
    return ValidationReport(residuals={"unitarity": unitarity_residual(col.umatrix)}, tol=tol)


def random_colligation(structure: DomainStructure, dim_g: int = 1, seed: int = 0) -> Colligation:
    """Haar-random unitary colligation over ``structure``.

    ``dim_f`` is forced by squareness: dim_f = dim_g on the polydisk and
    dim_f = (d - 1) * fiber_dim + dim_g on the ball.
    """
    (dim_g,) = _dimensions((dim_g,), "dim_g")
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
    counts = _dimensions(alpha, "multi-index entries")
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
    (d,) = _dimensions((d,), "d")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    w = haar_unitary(d + 1, seed)
    u = w @ w.T
    return _split(Polydisk((1,) * d), u, d, d)


# --- JSON serialization -----------------------------------------------------
#
# Schema: {"kind": "polydisk"|"ball" (the structure's ``kind``), the
# structure's dataclass fields ("block_dims": [...] | "fiber_dim": m,
# "copies": d), "dimF": f, "dimG": g, "A"/"B"/"C"/"D": nested arrays of
# [re, im] pairs, row-major}.


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]


def _decode_matrix(data, name: str, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    bad = [v for v in np.asarray(data, dtype=object).flat if isinstance(v, (str, bool))]  # float64 reads "0.5", true
    if bad:
        raise ValueError(f"field {name!r} entries must be numbers, got {bad[0]!r}")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"field {name!r} must be a nested array of [re, im] pairs")
    if arr.shape[:2] != shape:
        raise ValueError(f"field {name!r} has shape {arr.shape[:2]}, expected {shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def to_json_dict(col: Colligation) -> dict:
    return {"kind": col.structure.kind, **asdict(col.structure), "dimF": col.dim_f, "dimG": col.dim_g,
            **{name: _encode_matrix(getattr(col, name)) for name in "ABCD"}}


def from_json_dict(data: dict) -> Colligation:
    if not isinstance(data, dict):
        raise ValueError(f"a colligation is a JSON object, got {type(data).__name__}")
    try:
        domain = next((c for c in get_args(DomainStructure) if c.kind == data["kind"]), None)
        if domain is None:
            raise ValueError(f"unknown structure kind {data['kind']!r}")
        names = [f.name for f in fields(domain)]
        if unknown := [key for key in data if key not in {"kind", *names, "dimF", "dimG", *"ABCD"}]:
            raise ValueError(f"unknown colligation field {unknown[0]!r}")  # the first in file order
        structure: DomainStructure = domain(*(data[name] for name in names))
        dim_f, dim_g = _dimensions((data["dimF"], data["dimG"]), "dimF and dimG")
        for name, dim in (("dimF", dim_f), ("dimG", dim_g)):
            if dim < 1:
                raise ValueError(f"field {name!r} must be >= 1, got {dim}")
        shapes = {
            "A": (structure.dim_k, structure.dim_h),
            "B": (structure.dim_k, dim_f),
            "C": (dim_g, structure.dim_h),
            "D": (dim_g, dim_f),
        }
        blocks = {name: _decode_matrix(data[name], name, shape) for name, shape in shapes.items()}
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    return Colligation(structure, **blocks)


def save_colligation(col: Colligation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(col), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_colligation(path) -> Colligation:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def subject_hash(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``text`` in UTF-8: a record's subject hash."""
    return _sha256(text.encode("utf-8")).hexdigest()[:16]


def colligation_hash(col: Colligation) -> str:
    """Stable short hash of the canonical JSON form, for report provenance."""
    return subject_hash(json.dumps(to_json_dict(col), sort_keys=True, separators=(",", ":")))
