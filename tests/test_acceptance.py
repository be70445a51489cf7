"""Acceptance suite: one test per exit criterion.

Each test prints ``ACCEPTANCE <n> (<label>): PASS`` or ``FAIL`` (run pytest
with ``-s`` to see the lines as they happen).  Every tolerance and runtime
budget is pinned here; nothing is deferred to later calibration.
"""

import contextlib
import filecmp
import itertools
import time

import numpy as np
import pytest

from aglerlab import (
    Ball,
    MultiIndex,
    Polydisk,
    Polynomial,
    arrangements,
    blaschke,
    bound_ball,
    bound_polydisk,
    identity_residuals,
    knese_residual,
    monomial,
    partial_permsum,
    random_colligation,
    spectral_norm,
    symmetric_extremal,
)
from aglerlab.bounds import VARIANTS
from aglerlab.derivative import cauchy_coefficient_table, partial_at
from aglerlab.harness import CampaignConfig, main, run_explore, run_fuzz, sample_point
from aglerlab.transfer import evaluate
from conftest import records

IDENTITY_TOL = 1e-10
PERMSUM_TOL = 1e-12
ORACLE_REL_TOL = 1e-6
SLACK_TOL = 1e-9
EQUALITY_TOL = 1e-9


@contextlib.contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS  [{time.perf_counter() - started:.1f}s]")


POLYDISK_POOL = [
    (1,), (2,), (3,), (1, 1), (2, 1), (3, 3), (2, 2), (1, 3),
    (1, 1, 1), (2, 1, 3), (3, 2, 1), (2, 2, 2),
]
BALL_POOL = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)]


def identity_corpus(n_total=200, seed=500):
    structures = [Polydisk(dims) for dims in POLYDISK_POOL]
    structures += [Ball(m, d) for m, d in BALL_POOL]
    out = []
    for i in range(n_total):
        s = structures[i % len(structures)]
        out.append(random_colligation(s, dim_g=1, seed=seed + i))
    return out


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite"):
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        worst = 0.0
        for col in identity_corpus():
            s = col.structure
            for _ in range(20):
                w = sample_point(s, rng)
                z = sample_point(s, rng)
                r1, r2 = identity_residuals(evaluate(col, w), evaluate(col, z))
                worst = max(worst, r1, r2)
        assert worst <= IDENTITY_TOL, worst
        assert time.perf_counter() - started < 30.0


DERIVATIVE_CORPUS = [
    lambda: blaschke(0.3 - 0.4j),
    lambda: monomial((2, 1)),
    lambda: random_colligation(Polydisk((1, 1)), dim_g=1, seed=601),
    lambda: random_colligation(Polydisk((2, 1)), dim_g=1, seed=602),
    lambda: random_colligation(Polydisk((1, 1, 1)), dim_g=1, seed=603),
    lambda: random_colligation(Ball(1, 2), dim_g=1, seed=604),
    lambda: random_colligation(Ball(2, 3), dim_g=1, seed=605),
]


def _interior(structure, rng, scale=0.45):
    d = structure.d
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= max(np.abs(v).max(), np.linalg.norm(v))
    return tuple(v * scale * rng.random())


def test_criterion_2_derivative_oracles():
    with criterion(2, "derivative oracle suite"):
        started = time.perf_counter()
        rng = np.random.default_rng(78)
        for build in DERIVATIVE_CORPUS:
            col = build()
            d = col.d
            for _ in range(10):
                z = _interior(col.structure, rng)
                ctx = evaluate(col, z)
                table = cauchy_coefficient_table(col, z, max_axis_order=4, samples=32)
                for alpha in itertools.product(range(5), repeat=d):
                    if not 1 <= sum(alpha) <= 4:
                        continue
                    exact = partial_at(ctx, alpha)
                    oracle = np.atleast_2d(table[alpha])
                    err = spectral_norm(exact - oracle)
                    assert err <= ORACLE_REL_TOL * max(1.0, spectral_norm(exact)), (alpha, err)
            for _ in range(2):
                z = _interior(col.structure, rng)
                ctx = evaluate(col, z)
                for alpha in itertools.product(range(6), repeat=d):
                    if not 2 <= sum(alpha) <= 5:
                        continue
                    mi = MultiIndex(alpha)
                    diff = partial_permsum(col, z, mi.canonical_klist()) - partial_at(ctx, mi)
                    assert spectral_norm(diff) <= PERMSUM_TOL, (alpha, spectral_norm(diff))
        assert time.perf_counter() - started < 120.0


FUZZ_CONFIGS = [
    CampaignConfig(seed=101, n_colligations=20, structure="polydisk:1,1",
                   max_order=4, points_per_colligation=6),
    CampaignConfig(seed=102, n_colligations=5, structure="polydisk:2,1,1",
                   max_order=3, points_per_colligation=4),
    CampaignConfig(seed=103, n_colligations=10, structure="ball:m=1,d=2",
                   max_order=4, points_per_colligation=5),
    CampaignConfig(seed=104, n_colligations=4, structure="ball:m=2,d=3",
                   max_order=3, points_per_colligation=4),
]

REQUIRED_TAGS = {
    "general.first_order", "general.higher_order",
    "polydisk.first", "polydisk.mixed", "polydisk.two_var",
    "polydisk.factorial", "polydisk.weak",
    "ball.hat", "ball.factorial",
    "resolvent.right_block", "resolvent.left_block",
    "resolvent.right_full", "resolvent.left_full",
    "lmatrix.geometric", "koperator.polydisk", "koperator.ball",
}


def test_required_tags_cover_variant_table():
    # a derivative bound added to the table must also be required of the corpus
    assert {variant.tag for variant in VARIANTS} <= REQUIRED_TAGS


@pytest.fixture(scope="module")
def fuzz_corpus_records():
    corpus = []
    elapsed = 0.0
    for config in FUZZ_CONFIGS:
        started = time.perf_counter()
        recs = records(run_fuzz(config))
        summary = recs[-1]
        elapsed += time.perf_counter() - started
        assert summary["violations"] == 0, summary
        corpus.extend(recs)
    return corpus, elapsed


def test_criterion_3_bound_suite(fuzz_corpus_records):
    with criterion(3, "bound suite over fuzz corpus"):
        records, elapsed = fuzz_corpus_records
        body = [r for r in records if r.get("kind") == "report"]
        assert len(body) >= 10_000, len(body)
        tags = {r["theorem_tag"] for r in body}
        assert REQUIRED_TAGS <= tags, REQUIRED_TAGS - tags
        worst = min(r["slack"] for r in body if not r["flags"])
        assert worst >= -SLACK_TOL, worst
        assert elapsed < 300.0


def test_criterion_4_equality_witnesses():
    with criterion(4, "equality witnesses"):
        rng = np.random.default_rng(79)
        # classical single-variable bound is attained by Blaschke factors
        for a in (0.0, 0.5, 0.9j):
            col = blaschke(a)
            for _ in range(10):
                z = (0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()),)
                rep = bound_polydisk(col, z, (1,), "first")
                assert abs(rep.ratio - 1.0) <= EQUALITY_TOL, (a, z, rep)
        # monomials attain the factorial polydisk bound at the origin
        for d in (1, 2, 3):
            for alpha in itertools.product(range(6), repeat=d):
                if not 1 <= sum(alpha) <= 5:
                    continue
                rep = bound_polydisk(monomial(alpha), (0.0,) * d, alpha, "factorial")
                assert abs(rep.ratio - 1.0) <= EQUALITY_TOL, (alpha, rep)
        # coordinate functions attain the hat-norm ball bound at the origin
        for d in (1, 2, 3):
            for j in range(d):
                alpha = tuple(int(k == j) for k in range(d))
                p = Polynomial(d, {alpha: 1.0})
                rep = bound_ball(p, (0.0,) * d, alpha, "hat")
                assert abs(rep.ratio - 1.0) <= EQUALITY_TOL, (d, j, rep)
        # symmetric extremal realizations attain the weighted sum rule
        for d, seed in ((2, 11), (3, 12)):
            col = symmetric_extremal(d, seed)
            for _ in range(50):
                z = sample_point(col.structure, rng)
                assert abs(knese_residual(evaluate(col, z))) <= EQUALITY_TOL, (d, z)


def test_criterion_5_wiener_suite(fuzz_corpus_records):
    with criterion(5, "Wiener coefficient suite"):
        records, _ = fuzz_corpus_records
        wiener = [
            r for r in records
            if r.get("kind") == "report" and r["theorem_tag"] == "wiener.coefficient"
        ]
        # seeds 101/102 are the polydisk campaigns
        polydisk_wiener = [r for r in wiener if r["seed"] in (101, 102)]
        assert len(polydisk_wiener) >= 300
        assert all(sum(r["alpha"]) <= 4 for r in wiener)
        worst = min(r["slack"] for r in wiener if not r["flags"])
        assert worst >= -SLACK_TOL, worst


def test_criterion_6_combinatorics():
    with criterion(6, "arrangement combinatorics"):
        expected = [
            (1, 1, 1, 2, 2), (1, 1, 2, 1, 2), (1, 1, 2, 2, 1), (1, 2, 1, 1, 2),
            (1, 2, 1, 2, 1), (1, 2, 2, 1, 1), (2, 1, 1, 1, 2), (2, 1, 1, 2, 1),
            (2, 1, 2, 1, 1), (2, 2, 1, 1, 1),
        ]
        assert list(arrangements((3, 2))) == expected
        for d in (1, 2, 3, 4):
            for alpha in itertools.product(range(9), repeat=d):
                if not 1 <= sum(alpha) <= 8:
                    continue
                mi = MultiIndex(alpha)
                assert len(arrangements(mi)) == mi.multinomial, alpha


def test_criterion_7_exploration_outputs():
    with criterion(7, "exploration campaigns"):
        cfg = CampaignConfig(seed=105, n_colligations=3, max_order=3,
                             points_per_colligation=5)
        for name, m in (("kaijser-varopoulos", 1), ("alpay-kaptanoglu", 3)):
            first = records(run_explore(name, cfg, m=m))
            summary = first[-1]
            second = records(run_explore(name, cfg, m=m))
            assert first == second  # deterministic
            body = [r for r in first if r.get("kind") == "report"]
            assert body
            for rec in body:
                assert rec["schema_version"] == 1
                assert "observational" in rec["flags"]
                assert isinstance(rec["lhs"], float) and isinstance(rec["rhs"], float)
            # nothing is asserted about the inequalities themselves
            assert summary["violations"] == 0
            assert first[0]["kind"] == "header"


def test_criterion_8_fuzz_determinism(tmp_path, capsys):
    with criterion(8, "campaign determinism"):
        args = ["fuzz", "--seed", "42", "--n", "4", "--points", "3",
                "--structure", "polydisk:2,1", "--max-order", "3"]
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(out_a, out_b, shallow=False)
        assert out_a.read_bytes() == out_b.read_bytes()
