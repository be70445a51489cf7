"""Command-line front end: colligation I/O, fuzz campaigns, exploration.

Subcommands:

* ``validate``  check a colligation file; residual table on stdout
* ``eval``      evaluate the transfer function at a point
* ``deriv``     exact mixed partial plus quadrature-oracle deviation
* ``bounds``    every report a campaign makes at one point, for one alpha
* ``catalog``   write a named exact colligation to JSON
* ``fuzz``      seeded campaign over random colligations; JSONL reports
* ``explore``   observational campaigns for the named special functions

Exit codes: 0 clean, 1 assertion/domain violation, 2 usage or parse error;
a stdout that cannot be written (closed, its reader gone, a full disk) is a usage
error, also for ``--help``.
Campaign output is JSON Lines: a header record, one record per checked
inequality, and a trailing summary record, written in batches of 200 lines;
the lines made before a failure are written before it propagates.  A campaign
yields chunks: its :class:`Stack` of points per kind (a fuzz chunk's
origins and points, an exploration's points or Gram point sets), each row with
its subject hash, z and flags, and its record order as row segments of those
(one per colligation's origin or points, or per ``--points`` explored points).
A stack's reports are one table whose columns are its ``keys``, the (tag,
alpha) of each in record order.  ``summarize`` checks and folds each stack as
arrays, per tag as it groups the stack's keys, makes the stack's texts once
per alpha and per tag, then per segment encodes each distinct float once and
writes each report's line from one fixed template, the one statement of the
record format.  Identical configuration and seed produce byte-identical
output.  A campaign draws from :class:`aglerlab.stream.Stream` (seed), bit for
bit ``np.random.default_rng(seed)`` for the draws it makes, and imports no
``numpy.random``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import errno
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _str
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bounds import (
    PolynomialStack,
    multiplier_gram_psd,
    point_reports,
    report_columns,
    wiener_check,
)
from .colligation import (
    Ball,
    DomainStructure,
    Polydisk,
    admit,
    blaschke,
    colligation_hash,
    load_colligation,
    monomial,
    random_colligation,
    save_colligation,
    structure_norm,
    subject_hash,
    symmetric_extremal,
    to_json_dict,
    validate,
)
from .derivative import (
    MultiIndex,
    Polynomial,
    alpay_kaptanoglu,
    cauchy_partial,
    check_samples,
    default_radii,
    kaijser_varopoulos,
)
from .errors import DomainViolationError
from .matrixcore import spectral_norm
from .reports import Column, ReportTable
from .stream import Stream
from .tolerances import CONSTRUCTION_TOL, IDENTITY_TOL, SLACK_TOL
from .transfer import _jet_order, evaluate, identity_residuals

__all__ = [
    "CampaignConfig",
    "parse_structure",
    "parse_point",
    "parse_alpha",
    "sample_point",
    "multi_indices",
    "run_fuzz",
    "run_explore",
    "main",
]

SCHEMA_VERSION = 1
# Largest derivative order that campaigns and the CLI check; every right-hand
# side stays a finite float at every admissible point up to it.
MAX_ORDER = 8
EXPLORE_NAMES = ("kaijser-varopoulos", "alpay-kaptanoglu")
COLLIGATIONS_PER_STACK = 16  # per fuzz stack; bounds its arrays and how far the records lag behind the draws
SAMPLERS = ("uniform", "boundary-biased")


# --- parsing helpers ----------------------------------------------------------


def parse_structure(spec: str) -> DomainStructure:
    """Parse a structure spec string: ``polydisk:2,1`` or ``ball:m=2,d=3``."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "polydisk":
        try:
            dims = tuple(int(p) for p in rest.split(","))  # int("") rejects an empty entry
        except ValueError:
            raise ValueError(f"bad polydisk block dims in {spec!r}") from None
        return Polydisk(dims)
    if kind == "ball":
        pairs = [part.partition("=")[::2] for part in rest.split(",")]
        try:
            fields = {key.strip(): int(val) for key, val in pairs}
        except ValueError:
            fields = {}
        if len(pairs) != 2 or set(fields) != {"m", "d"}:  # each key exactly once
            raise ValueError(f"ball spec needs m=<int>,d=<int>, got {spec!r}")
        return Ball(fiber_dim=fields["m"], copies=fields["d"])
    raise ValueError(f"unknown structure kind in {spec!r}; use polydisk:... or ball:...")


def parse_point(text: str) -> tuple[complex, ...]:
    """Comma-separated finite complex coordinates, e.g. ``0.3,0.4+0.1j``."""
    try:
        point = tuple(complex(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}") from None
    if not all(map(cmath.isfinite, point)):
        raise ValueError(f"point {text!r} has a non-finite coordinate")
    return point


def parse_alpha(text: str) -> tuple[int, ...]:
    """Comma-separated nonnegative integers, e.g. ``2,0,1``."""
    try:
        counts = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse multi-index {text!r}") from None
    return MultiIndex(counts).counts


# --- campaign configuration ---------------------------------------------------


@dataclass
class CampaignConfig:
    """Everything a fuzz or explore campaign needs to be reproducible."""

    seed: int = 1
    n_colligations: int = 10
    structure: str = "polydisk:1,1"
    dim_g: int = 1
    max_order: int = 3
    points_per_colligation: int = 5
    sampler: str = "uniform"
    slack_tol: float = SLACK_TOL
    identity_tol: float = IDENTITY_TOL
    out: str | None = None

    def __post_init__(self):
        # checked here, since a campaign streams its header before it draws
        for name in ("seed", "n_colligations", "dim_g", "max_order", "points_per_colligation"):
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an int, got {getattr(self, name)!r}")
        if any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in (self.slack_tol, self.identity_tol)):
            raise TypeError(f"tolerances must be numbers, got {self.slack_tol!r} and {self.identity_tol!r}")
        if not (isinstance(self.structure, str) and isinstance(self.sampler, str)
                and isinstance(self.out, (str, type(None)))):
            raise TypeError(f"structure and sampler must be strings and out a string or null, got "
                            f"{self.structure!r}, {self.sampler!r} and {self.out!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dim_g < 1:
            raise ValueError(f"dim_g must be >= 1, got {self.dim_g}")
        if self.n_colligations < 1 or self.points_per_colligation < 1:
            raise ValueError("counts must be >= 1")
        if not 1 <= self.max_order <= MAX_ORDER:
            raise ValueError(f"max_order must be in 1..{MAX_ORDER}")
        if not (0 <= self.slack_tol < math.inf and 0 <= self.identity_tol < math.inf):
            raise ValueError(
                f"tolerances must be finite and >= 0, got slack_tol={self.slack_tol}, "
                f"identity_tol={self.identity_tol}"
            )
        # records write every value as a float, an integer tolerance included, and -0.0 as 0.0
        self.slack_tol, self.identity_tol = float(self.slack_tol) + 0.0, float(self.identity_tol) + 0.0
        parse_structure(self.structure)
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; use one of {SAMPLERS}")

    @property
    def sampler_flags(self) -> tuple[str, ...]:
        # boundary-biased draws are exploratory by construction; asserting on
        # them would turn resolvent conditioning into false violations
        return ("boundary-biased",) if self.sampler == "boundary-biased" else ()

    def to_json_dict(self) -> dict:
        # the output path is not campaign semantics; leaving it out keeps
        # equal configurations byte-identical on disk
        out = dataclasses.asdict(self)
        del out["out"]
        return out


def sample_point(structure: DomainStructure, rng: Stream | np.random.Generator, sampler: str = "uniform",
                 m: int | None = None) -> tuple[complex, ...] | np.ndarray:
    """Draw one admissible point for ``structure``, or with ``m`` an (m, d)
    array of m points: the bits, and the end state of ``rng``, of m one-point
    draws in turn.  ``rng`` is read only through ``random`` and
    ``standard_normal``: campaigns pass a :class:`aglerlab.stream.Stream`, which
    draws what ``np.random.default_rng`` of its seed draws without importing
    ``numpy.random``, and a numpy ``Generator`` gives the same bits.

    ``uniform`` draws from the structure's own domain: on the polydisk each
    coordinate uniformly in the disk of radius 0.99, on the ball a uniform
    direction with the radius correction u^(1/(2d)), capped at 0.99.
    ``boundary-biased`` rescales a uniform draw to domain norm 1 - 10^(-u),
    u uniform in [1, 6].  An ``m`` too large for numpy to allocate is a
    ``MemoryError``, raised before anything is drawn.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; use one of {SAMPLERS}")
    biased = sampler == "boundary-biased"
    try:
        zs, u = structure.draw(rng, 1 if m is None else m, biased)
    except ValueError as exc:  # numpy refuses the shape of m >= 0 points, undrawn, only when it is too large
        if m < 0:
            raise
        raise MemoryError(f"cannot draw {m} points: {exc}") from None
    if biased:
        norm = structure_norm(structure, zs)
        target = 1.0 - np.float_power(10.0, -(1.0 + 5.0 * u[:, -1]))  # exponent rng.uniform(1.0, 6.0); libm pow
        zs = zs * np.divide(target, norm, out=np.zeros_like(norm), where=norm > 0)[:, None]
    return tuple(zs[0]) if m is None else zs


def multi_indices(d: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices over d axes of orders 1..max_order, by order, then ascending: the jet's orders reversed."""
    return [c for n in range(1, max_order + 1) for c in reversed(_jet_order(d, n)[0])]


# --- JSONL records ------------------------------------------------------------


def polynomial_hash(p: Polynomial) -> str:
    return subject_hash(json.dumps({str(k): [v.real, v.imag] for k, v in sorted(p.coeffs.items())}, sort_keys=True))


class Stack(NamedTuple):
    """Reports at m points: per row its subject hash, z and flags, and the points' :class:`ReportTable`."""

    subjects: Sequence[str]
    zs: np.ndarray
    flags: Sequence[tuple[str, ...]]
    table: ReportTable


# A chunk of records: its stacks, which share no theorem tag, and its record order as
# (stack index, start, stop) row segments, which cover each stack's rows once, in row order.
Chunk = tuple[Sequence[Stack], Sequence[tuple[int, int, int]]]


def summarize(header: dict, chunks: Iterable[Chunk], slack_tol: float, **extra) -> Iterator[str]:
    """Yield a campaign's JSONL lines: ``header``, then for each chunk of
    ``chunks`` the line of each of its reports, segment by segment and point by
    point, and last the summary: per-theorem slack and ratio statistics, plus
    the ``extra`` fields.

    The report template below is the one statement of the record format.  It
    writes the bytes of ``json.dumps(record, sort_keys=True, allow_nan=False)``,
    so a chunk with a non-finite lhs, rhs, slack, ratio or z coordinate raises
    that ``ValueError`` before any of its lines or the summary is made.  Rows
    with flags (near-boundary, observational, boundary-biased,
    ill-conditioned) are counted but contribute no slack violations.
    """
    yield json.dumps(header, sort_keys=True, allow_nan=False) + "\n"
    version_seed = f'"schema_version": {SCHEMA_VERSION!r}, "seed": {header["seed"]!r}'
    flag_texts: dict[tuple[str, ...], str] = {}

    def encode_flags(f: tuple[str, ...]) -> str:
        if f not in flag_texts:
            flag_texts[f] = f'[{", ".join(map(_str, sorted(set(f))))}]'
        return flag_texts[f]

    theorems: dict[str, tuple] = {}  # tag -> (count, min slack, min ratio, max ratio, sum of ratios, that / 2^64)
    violations = flagged = 0
    for stacks, segments in chunks:
        prepared = []  # per stack: its lhs, ratio, rhs and slack bits, and its columns' texts
        for subjects, zs, flags, (keys, own, lhs, rhs) in stacks:
            slack = rhs - lhs
            ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs != 0.0)
            if not all(np.isfinite(a).all() for a in (slack, ratio, zs)):
                raise ValueError("Out of range float values are not JSON compliant")
            marked = np.repeat(np.array([bool(f) for f in flags])[:, None], len(keys), axis=1)
            for p, col_flags in own.items():  # a record carries its point's flags and its column's own
                marked[:, p] |= [bool(f) for f in col_flags]
            flagged += int(marked.sum())
            violations += int(np.count_nonzero((slack < -slack_tol) & ~marked))
            groups: dict[str, list[int]] = {}  # per tag, its columns
            for p, (tag, _) in enumerate(keys):
                groups.setdefault(tag, []).append(p)
            for tag, ps in groups.items():  # the chunk's records of a tag are in this stack, row by row in record order
                ratios = ratio[:, ps].ravel()
                count, min_slack, min_ratio, max_ratio, total, small = theorems.get(
                    tag, (0, math.inf, math.inf, -math.inf, 0.0, 0.0))
                with np.errstate(over="ignore"):  # both ratio sums: one + per record in record order, as lines come
                    total = float(np.add.accumulate(np.concatenate(([total], ratios)))[-1])
                    small = float(np.add.accumulate(np.concatenate(([small], ratios * 2.0 ** -64)))[-1])
                theorems[tag] = (count + len(ratios), min(min_slack, float(slack[:, ps].min())),
                                 min(min_ratio, float(ratios.min())), max(max_ratio, float(ratios.max())), total, small)
            # a record's text up to its hash once per alpha, from its tag once per tag
            opens = {a: '{"alpha": ' + ("null" if a is None else f'[{", ".join(map(int.__repr__, a))}]')
                     + ', "colligation_hash": ' for a in {a for _, a in keys}}
            closes = {tag: f'"theorem_tag": {_str(tag)}, "z": ' for tag in groups}
            prepared.append((np.stack((lhs, ratio, rhs, slack), axis=-1).view(np.int64),
                             [opens[a] for _, a in keys], [closes[tag] for tag, _ in keys]))
        for s, start, stop in segments:
            (subjects, zs, flags, (keys, own, _, _)), (bits, opens, closes) = stacks[s], prepared[s]
            # one text per distinct bit pattern (-0.0 apart from 0.0); per record, its lhs, ratio, rhs and slack
            distinct, inverse = np.unique(bits[start:stop], return_inverse=True)
            cell = iter(np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)[
                inverse.ravel()].tolist())  # ravel: numpy 1.x and 2.x shape the inverse differently
            for i, z in enumerate(zs[start:stop].tolist(), start):
                subject = f'{_str(subjects[i])}, "flags": '
                z_text = "[" + ", ".join(f"[{v.real!r}, {v.imag!r}]" for v in z) + "]}\n"
                points = [subject + encode_flags(flags[i])] * len(keys)  # the point's hash and flags
                for p, col_flags in own.items():
                    points[p] = subject + encode_flags(flags[i] + col_flags[i])
                # {"alpha": A, "colligation_hash": H, "flags": F, "kind": "report", "lhs": L, "ratio": Q, "rhs": R,
                #  "schema_version": 1, "seed": S, "slack": D, "theorem_tag": T, "z": Z}, A from opens, H and F
                # from points, T from closes
                for open_, point, lhs_text, ratio_text, rhs_text, slack_text, close in zip(
                    opens, points, cell, cell, cell, cell, closes
                ):
                    yield (
                        f'{open_}{point}, "kind": "report", "lhs": {lhs_text}, "ratio": {ratio_text}, '
                        f'"rhs": {rhs_text}, {version_seed}, "slack": {slack_text}, {close}{z_text}'
                    )
    yield json.dumps({
        "schema_version": SCHEMA_VERSION,
        "kind": "summary",
        "reports": sum(stats[0] for stats in theorems.values()),
        "violations": violations,
        "flagged": flagged,
        "slack_tol": slack_tol,
        "theorems": {
            # + 0.0 makes a zero extreme 0.0 whichever sign its records and the reductions' order gave it
            tag: {"count": count, "min_slack": min_slack + 0.0, "min_ratio": min_ratio + 0.0,
                  "max_ratio": max_ratio + 0.0,
                  "mean_ratio": total / count if math.isfinite(total) else small / count * 2.0 ** 64}
            for tag, (count, min_slack, min_ratio, max_ratio, total, small) in sorted(theorems.items())
        },
        **extra,
    }, sort_keys=True, allow_nan=False) + "\n"


def _header(campaign: str, config: CampaignConfig, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "header", "campaign": campaign,
            "seed": config.seed, "config": config.to_json_dict(), **fields}


# --- fuzz campaign ------------------------------------------------------------


def fuzz_records(config: CampaignConfig) -> Iterator[Chunk]:
    """Yield the chunks of a fuzz campaign.  Each chunk of up to ``COLLIGATIONS_PER_STACK`` colligations,
    drawn with their points one by one, is one stack at their origins and one at their pairs; its record
    order is per colligation the Wiener bounds at the origin, then the reports of its points."""
    structure = parse_structure(config.structure)
    rng = Stream(config.seed)
    mis = list(map(MultiIndex, multi_indices(structure.d, config.max_order)))
    wiener_alphas = [mi for mi in mis if mi.order <= 4]
    size = config.points_per_colligation
    for start in range(0, config.n_colligations, COLLIGATIONS_PER_STACK):
        cols, points = [], []
        for _ in range(min(COLLIGATIONS_PER_STACK, config.n_colligations - start)):
            cols.append(random_colligation(structure, config.dim_g, int(rng.integers(0, 2**62))))
            points.append(sample_point(structure, rng, config.sampler, m=2 * size))  # z, w of each pair
        origin = evaluate(cols, np.zeros((len(cols), 1, structure.d)))
        ev = evaluate(cols, points)
        cz, cw = ev[0::2], ev[1::2]
        tol = np.full(len(cz), config.identity_tol)
        identity = [Column(tag, None, resid, tol, cw.flags)  # a pair's records carry the flags at w too
                    for tag, resid in zip(("identity.kernel_input", "identity.kernel_output"),
                                          identity_residuals(cw, cz))]
        hashes = list(map(colligation_hash, cols))
        yield ([Stack(hashes, origin.zs, [()] * len(cols), ReportTable.of(wiener_check(origin, wiener_alphas))),
                Stack([h for h in hashes for _ in range(size)], cz.zs, [config.sampler_flags + f for f in cz.flags],
                      report_columns(cz, mis, identity))],
               [seg for k in range(len(cols)) for seg in ((0, k, k + 1), (1, k * size, (k + 1) * size))])


def run_fuzz(config: CampaignConfig) -> Iterator[str]:
    """The JSONL lines of a fuzz campaign: header, reports, then summary."""
    return summarize(_header("fuzz", config), fuzz_records(config), config.slack_tol, seed=config.seed)


# --- exploration campaigns ----------------------------------------------------


def run_explore(name: str, config: CampaignConfig, m: int = 1) -> Iterator[str]:
    """The JSONL lines of an observational campaign for a named special
    function: header, reports, then summary.  It asserts nothing.

    ``name`` fixes the domain, so ``config.structure`` and ``dim_g`` must
    keep their defaults, and so must ``m`` for a target without a truncation
    order; bad arguments raise here, before any line is made.  Every
    record carries the ``observational`` flag, so the summary counts no
    violations regardless of sign.
    """
    if name == "kaijser-varopoulos":
        if m != 1:
            raise ValueError(f"explore {name} has no truncation order; m must keep its default 1, got {m}")
        poly, structure = kaijser_varopoulos(), Polydisk((1, 1, 1))
    elif name == "alpay-kaptanoglu":
        poly, structure = alpay_kaptanoglu(m), Ball(1, 2)
    else:
        raise ValueError(f"unknown exploration target {name!r}; known: {EXPLORE_NAMES}")
    if (config.structure, config.dim_g) != (CampaignConfig.structure, CampaignConfig.dim_g):
        raise ValueError(f"explore {name} fixes its domain; structure and dim_g must keep their defaults")
    header = _header("explore", config, target=name)
    header["config"]["m"] = m
    rows = explore_records(poly, structure, config)
    return summarize(header, rows, config.slack_tol, seed=config.seed, target=name)


def explore_records(poly: Polynomial, structure: DomainStructure, config: CampaignConfig) -> Iterator[Chunk]:
    """Yield the chunks of an exploration campaign: its points, in segments of ``points_per_colligation``
    rows, then on the ball its Gram point sets.

    All its points are one draw and one stack, so each column is computed once.  The Gram point sets
    are one more draw and stack, and one segment."""
    phash = polynomial_hash(poly)
    rng = Stream(config.seed)
    mis = list(map(MultiIndex, multi_indices(structure.d, config.max_order)))
    marks = ("observational",) + config.sampler_flags
    size, m = config.points_per_colligation, config.n_colligations * config.points_per_colligation
    points = PolynomialStack(poly, structure, sample_point(structure, rng, config.sampler, m=m))
    yield ([Stack([phash] * m, points.zs, [marks + f for f in points.flags],
                  report_columns(points, mis))],
           [(0, start, start + size) for start in range(0, m, size)])
    if isinstance(structure, Ball):  # the Drury-Arveson kernel's Gram check: a set of 8 points per segment
        sets = sample_point(structure, rng, config.sampler, m=8 * config.n_colligations).reshape(-1, 8, structure.d)
        gram = Column("gram.arveson_min_eig", None, multiplier_gram_psd(poly, sets), np.zeros(len(sets)))
        near = admit(structure, sets).flags  # a set carries the flags of its points
        yield ([Stack([phash] * len(sets), sets[:, 0], [sum(near[k:k + 8], marks) for k in range(0, len(near), 8)],
                      ReportTable.of([gram]))], [(0, 0, len(sets))])


# --- CLI ----------------------------------------------------------------------


class _UsageError(Exception):
    """An input the command cannot use; ``main`` prints it and exits 2."""


def _load(path: str):
    """Load and decode a colligation file."""
    try:
        return load_colligation(path)
    except OSError as exc:  # missing, a directory, unreadable
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise _invalid_json(path, exc) from None
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _invalid_json(path: str, exc: json.JSONDecodeError) -> _UsageError:
    return _UsageError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _parse_arg(text: str, parse, d: int, what: str):
    """Parse a --z or --alpha value for a colligation in d variables."""
    try:
        value = parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if len(value) != d:
        raise _UsageError(f"{what} has {len(value)} entries, the colligation has d={d}")
    return value


def _parse_order(text: str, d: int, min_order: int) -> MultiIndex:
    """Parse --alpha, of order min_order..MAX_ORDER."""
    mi = MultiIndex(_parse_arg(text, parse_alpha, d, "multi-index"))
    if not min_order <= mi.order <= MAX_ORDER:
        raise _UsageError(f"multi-index order must be in {min_order}..{MAX_ORDER}, got {mi.order}")
    return mi


def _finite_tol(tol: float) -> float:
    """The --tol of validate and bounds; a non-finite one decides nothing, a negative one fails exact inputs."""
    if not 0 <= tol < math.inf:
        raise _UsageError(f"--tol must be finite and >= 0, got {tol}")
    return tol


def cmd_validate(args) -> int:
    report = validate(_load(args.file), tol=_finite_tol(args.tol))
    print(*report.lines(), sep="\n")
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    col = _load(args.file)
    ctx = evaluate(col, _parse_arg(args.z, parse_point, col.d, "point"))
    print(f"z         = {list(ctx.z)}")
    print(f"phi(z)    = {np.array2string(ctx.phi, precision=12)}")
    print(f"||phi||   = {spectral_norm(ctx.phi):.12f}")
    print(f"||Z(z)||  = {ctx.znorm:.12f}")
    print(f"cond(I-AZ)= {ctx.cond:.3e}")
    if ctx.flags:
        print(f"flags     = {list(ctx.flags)}")
    return 0


def cmd_deriv(args) -> int:
    col = _load(args.file)
    z = _parse_arg(args.z, parse_point, col.d, "point")
    mi = _parse_order(args.alpha, col.d, min_order=0)
    try:
        check_samples(args.samples, max(mi.counts), col.d if mi.order else 0)  # order 0 samples no grid
    except ValueError as exc:
        raise _UsageError(f"--samples: {exc}") from None
    ctx = evaluate(col, z)
    exact = ctx.partial(mi)
    radii = default_radii(col.structure, z) if mi.order else None
    oracle = cauchy_partial(col, z, mi, radius=radii, samples=args.samples) if mi.order else None
    print(f"partial d^{mi.order} phi / dz^{list(mi.counts)} at {list(z)}:")
    print(np.array2string(exact, precision=12))
    if ctx.flags:
        print(f"flags     = {list(ctx.flags)}")
    if oracle is not None:
        # the oracle's error grows like roundoff / r^order as its radii shrink near the boundary
        print(f"oracle radii = [{', '.join(f'{r:.3e}' for r in radii)}]")
        print(f"oracle deviation = {spectral_norm(exact - np.atleast_2d(oracle)):.3e}")
    return 0


def cmd_bounds(args) -> int:
    tol = _finite_tol(args.tol)
    col = _load(args.file)
    z = _parse_arg(args.z, parse_point, col.d, "point")
    mis = [] if args.alpha is None else [_parse_order(args.alpha, col.d, min_order=1)]
    ctx = evaluate(col, z)
    reports = list(point_reports(ctx, mis))
    for rep in reports:
        print(rep)
    if ctx.flags:
        print(f"flags     = {list(ctx.flags)}")
    worst = min(r.slack for r in reports)
    print(f"min slack = {worst:+.3e}")
    return 0 if ctx.flags or worst >= -tol else 1


def cmd_catalog(args) -> int:
    needed = {"blaschke": "a", "monomial": "alpha", "symmetric-extremal": "d"}[args.name]
    if getattr(args, needed) is None:
        raise _UsageError(f"{args.name} needs --{needed}")
    try:
        if args.name == "blaschke":
            col = blaschke(complex(args.a))
        elif args.name == "monomial":
            col = monomial(parse_alpha(args.alpha))
        else:
            col = symmetric_extremal(args.d, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    except MemoryError as exc:  # a monomial of huge order, such as --alpha 3000000
        raise _UsageError(f"{args.name} does not fit in memory: {exc}") from None
    if args.out:
        try:
            save_colligation(col, args.out)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"wrote {args.out}")
    else:
        print(json.dumps(to_json_dict(col), indent=2, sort_keys=True))
    return 0


def _config_from_args(args) -> CampaignConfig:
    """The fields of --config, overridden by the flags given, each flag's ``dest`` its field's name."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(CampaignConfig)}
    try:
        base = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
            if not isinstance(base, dict):
                raise _UsageError(f"{args.config}: a campaign config is a JSON object, got {type(base).__name__}")
            if unknown := [key for key in base if key not in given]:  # the first in file order
                raise _UsageError(f"{args.config}: unknown campaign field {unknown[0]!r}")
        return CampaignConfig(**{**base, **{k: v for k, v in given.items() if v is not None}})
    except OSError as exc:  # missing, a directory, unreadable
        raise _UsageError(f"cannot read {args.config}: {exc.strerror}") from None
    except TypeError as exc:  # a value of the wrong type, which only the file can give: argparse types every flag
        raise _UsageError(f"{args.config}: {exc}") from None
    except json.JSONDecodeError as exc:  # a ValueError, so caught first
        raise _invalid_json(args.config, exc) from None
    except UnicodeDecodeError as exc:  # not UTF-8; a ValueError too
        raise _UsageError(f"{args.config}: {exc}") from None
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# Lines per sink write, about 80 KB of records.  On the explore-polynomial benchmark (about 400
# bytes a line, a shared 2-vCPU VM, 4 runs each) 200 ran 2% faster than 100, 4% faster than 50,
# 7% faster than 400, and 10% faster than 16, which was no faster than one write per line.
WRITE_BATCH = 200


def _write(lines: Iterable[str], out: str | None) -> dict:
    """Write the lines to ``out`` (else stdout) in batches of 200 lines; the lines made before a
    failure are written before it propagates.  Return the last line, the summary, parsed.  ``out``
    is opened once the first record is made, so a campaign that fails on its first draw leaves it
    as it was.  A failing sink (disk full, pipe closed) or a campaign too large for memory is a
    usage error."""
    lines = iter(lines)
    try:
        batch = list(itertools.islice(lines, 2))  # the header and the first record
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            while batch:
                fh.write("".join(batch))
                last, batch = batch[-1], []
                try:
                    batch.extend(itertools.islice(lines, WRITE_BATCH))  # keeps the lines made before a raise
                except BaseException:
                    fh.write("".join(batch))
                    raise
            fh.flush()
    except OSError as exc:
        raise (_UsageError(f"cannot write {out}: {exc.strerror}") if out else _stdout_error(exc)) from None
    except MemoryError as exc:  # a campaign too large to draw, such as fuzz --dim-g 100000000
        raise _UsageError(f"campaign does not fit in memory: {exc}") from None
    return json.loads(last)


def _to_null(stream) -> None:
    """Point the file descriptor of a stream that failed a write, if it has one, at the null device, so
    that the interpreter's last flush of what is still buffered cannot fail again (it would exit 120);
    the stream object is left as it is."""
    with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor: an in-process caller's sink
        fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _stdout_error(exc: OSError) -> _UsageError:
    """The usage error of a failed write to stdout, whose descriptor goes to the null device."""
    _to_null(sys.stdout)
    return _UsageError(f"cannot write stdout: {exc.strerror}")


def _note(line: str) -> None:
    """Print a diagnostic line on stderr, best effort: without a stderr (``2>&-``) or on one that
    cannot be written, the line is lost, and no exit code or stdout changes."""
    if sys.stderr is not None:  # None: print would fall back to stdout
        try:
            print(line, file=sys.stderr)
        except OSError:
            _to_null(sys.stderr)


def cmd_fuzz(args) -> int:
    config = _config_from_args(args)
    summary = _write(run_fuzz(config), config.out)
    _note(f"fuzz: {summary['reports']} reports, {summary['violations']} violations, "
          f"{summary['flagged']} flagged (seed {config.seed})")
    return 0 if summary["violations"] == 0 else 1


def cmd_explore(args) -> int:
    config = _config_from_args(args)
    try:
        records = run_explore(args.name, config, m=args.m)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    summary = _write(records, config.out)
    _note(f"explore {args.name}: {summary['reports']} observational reports (seed {config.seed})")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors print through :func:`_note`: argparse would print the usage line on
    stdout without a stderr, and on an unwritable one leave it buffered for the last flush (exit 120)."""

    def error(self, message):
        _note(self.format_usage().rstrip("\n"))
        _note(f"{self.prog}: error: {message}")
        sys.exit(2)

    def print_help(self, file=None):
        """Write and flush the help; a failed write raises to ``main``, where argparse would swallow it."""
        stream = file or sys.stdout
        stream.write(self.format_help())
        stream.flush()


class _ClosedStdout(io.TextIOBase):
    """The stdout of a process started without one (``>&-``), where Python leaves ``sys.stdout`` None and
    ``print`` drops its text: each write fails as one to a closed descriptor, and a flush does nothing."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@functools.cache  # once per process: argparse does not change a parser as it parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aglerlab",
        description="Numerical laboratory for unitary colligations and their transfer functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a colligation JSON file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=CONSTRUCTION_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate the transfer function at a point")
    p.add_argument("file")
    p.add_argument("--z", required=True, help="comma-separated complex coordinates")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("deriv", help="exact mixed partial plus oracle deviation")
    p.add_argument("file")
    p.add_argument("--z", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated multi-index")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("bounds", help="bound reports at one point")
    p.add_argument("file")
    p.add_argument("--z", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--tol", type=float, default=SLACK_TOL)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("catalog", help="write a named exact colligation")
    p.add_argument("name", choices=["blaschke", "monomial", "symmetric-extremal"])
    p.add_argument("--a", default=None, help="Blaschke parameter (complex, |a| < 1)")
    p.add_argument("--alpha", default=None, help="monomial multi-index")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    for name, helptext in (
        ("fuzz", "seeded campaign over random colligations"),
        ("explore", "observational campaign for a named special function"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "explore":
            p.add_argument("name", help=f"one of {EXPLORE_NAMES}")
            p.add_argument("--m", type=int, default=1, help="series truncation order")
        p.add_argument("--config", default=None, help="JSON file with campaign fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", dest="n_colligations", metavar="N", type=int, default=None, help="number of colligations")
        p.add_argument("--points", dest="points_per_colligation", metavar="POINTS", type=int, default=None,
                       help="points per colligation")
        p.add_argument("--structure", default=None, help='fuzz only; e.g. "polydisk:2,1" or "ball:m=2,d=3"')
        p.add_argument("--dim-g", dest="dim_g", type=int, default=None)
        p.add_argument("--max-order", dest="max_order", type=int, default=None)
        p.add_argument("--sampler", default=None, help=f"one of {SAMPLERS}")
        p.add_argument("--tol", dest="slack_tol", metavar="TOL", type=float, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_fuzz if name == "fuzz" else cmd_explore)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            with contextlib.redirect_stdout(sys.stdout or _ClosedStdout()):
                args = build_parser().parse_args(argv)  # --help writes stdout too
                code = args.func(args)
                sys.stdout.flush()  # a reader that has gone fails here, not in the interpreter's last flush
        except OSError as exc:  # stdout's; every other OSError is already a usage error
            raise _stdout_error(exc) from None
        return code
    except (_UsageError, DomainViolationError) as exc:
        _note(f"error: {exc}")
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
