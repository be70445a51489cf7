"""CLI surface, point samplers, campaign records, and exit-code contract."""

import argparse
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aglerlab import (
    Ball,
    BoundReport,
    Colligation,
    MultiIndex,
    Polydisk,
    alpay_kaptanoglu,
    blaschke,
    colligation_hash,
    kaijser_varopoulos,
    koperator,
    monomial,
    partial_permsum,
    projection,
    random_colligation,
    spectral_norm,
)
from aglerlab import bounds, derivative, harness, reports, transfer
from aglerlab.colligation import save_colligation, structure_norm, to_json_dict
from aglerlab.reports import Column, ReportTable
from aglerlab.harness import (
    CampaignConfig,
    main,
    multi_indices,
    parse_alpha,
    parse_point,
    parse_structure,
    polynomial_hash,
    run_explore,
    run_fuzz,
    sample_point,
    summarize,
)
from conftest import MIXED_STRUCTURES, records

REPORT_KEYS = {
    "schema_version", "kind", "seed", "theorem_tag", "colligation_hash",
    "z", "alpha", "lhs", "rhs", "slack", "ratio", "flags",
}
HEADER = {"schema_version": 1, "kind": "header", "seed": 7}


def chunk(subject, zs, flags, *columns, cuts=()):
    """A campaign chunk of one stack of handmade columns (tag, alpha, lhs, rhs[, flags]), its rows
    in one segment, or in segments split at the rows ``cuts``."""
    table = ReportTable.of([Column(tag, alpha, np.array(lhs, dtype=float), np.array(rhs, dtype=float), *rest)
                            for tag, alpha, lhs, rhs, *rest in columns])
    bounds = [0, *cuts, len(zs)]
    return ([harness.Stack([subject] * len(zs), np.array(zs, dtype=np.complex128), list(flags), table)],
            [(0, a, b) for a, b in zip(bounds, bounds[1:])])


def chunk_rows(chk):
    """The (report, subject hash, flags) of each record of a chunk, in record order."""
    stacks, segments = chk
    rows = []
    for s, a, b in segments:
        subjects, zs, flags, (keys, own, lhs, rhs) = stacks[s]
        rows += [(BoundReport(tag, tuple(complex(v) for v in zs[i]), alpha, lhs[i, p], rhs[i, p]), subjects[i],
                  flags[i] + (own[p][i] if p in own else ()))
                 for i in range(a, b) for p, (tag, alpha) in enumerate(keys)]
    return rows


def report_record(rep, subject_hash, flags, seed):
    """The record a report line must encode, built independently of the line template."""
    return {
        "schema_version": 1, "kind": "report", "seed": seed, "theorem_tag": rep.theorem_tag,
        "colligation_hash": subject_hash, "z": [[v.real, v.imag] for v in rep.z],
        "alpha": None if rep.alpha is None else list(rep.alpha),
        "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack, "ratio": rep.ratio, "flags": sorted(set(flags)),
    }


class TestParsers:
    def test_structure_specs(self):
        assert parse_structure("polydisk:2,1") == Polydisk((2, 1))
        assert parse_structure("ball:m=2,d=3") == Ball(2, 3)
        for bad in ("disk:1", "polydisk:a,b", "ball:m=2", "ball:2,3"):
            with pytest.raises(ValueError):
                parse_structure(bad)

    def test_polydisk_spec_has_no_empty_entry(self):
        assert parse_structure("polydisk: 2 , 0,1") == Polydisk((2, 0, 1))
        for bad in ("polydisk:2,,1", "polydisk:,2", "polydisk:2,1,", "polydisk:"):
            with pytest.raises(ValueError, match="bad polydisk block dims"):
                parse_structure(bad)

    def test_ball_spec_takes_m_and_d_once_each(self):
        assert parse_structure("ball: d = 3 , m=2") == Ball(2, 3)
        for bad in ("ball:m=2,d=3,q=9", "ball:m=2,d=3,m=4", "ball:m=2,m=3", "ball:m=2,d=3,", "ball:m=2,d=3=4"):
            with pytest.raises(ValueError, match="ball spec needs m=<int>,d=<int>"):
                parse_structure(bad)
        # the domain's own range checks come through unchanged
        with pytest.raises(ValueError, match="^number of copies must be >= 1, got 0$"):
            parse_structure("ball:m=2,d=0")
        with pytest.raises(ValueError, match="^fiber dimension must be >= 1, got 0$"):
            parse_structure("ball:m=0,d=2")

    def test_point_and_alpha(self):
        assert parse_point("0.3,0.4+0.1j") == (0.3 + 0j, 0.4 + 0.1j)
        assert parse_alpha("1,0,2") == (1, 0, 2)
        with pytest.raises(ValueError):
            parse_point("0.3,oops")
        with pytest.raises(ValueError):
            parse_alpha("1,x")


class TestSamplers:
    def test_uniform_polydisk_stays_in_disk(self):
        rng = np.random.default_rng(0)
        s = Polydisk((2, 1))
        for _ in range(200):
            z = sample_point(s, rng)
            assert max(abs(v) for v in z) <= 0.99 + 1e-12

    def test_uniform_ball_stays_in_ball(self):
        rng = np.random.default_rng(1)
        s = Ball(1, 3)
        for _ in range(200):
            z = sample_point(s, rng)
            assert structure_norm(s, z) <= 0.99 + 1e-12

    def test_boundary_biased_norm_range(self):
        rng = np.random.default_rng(2)
        s = Polydisk((1, 1))
        for _ in range(100):
            z = sample_point(s, rng, "boundary-biased")
            norm = max(abs(v) for v in z)
            assert 0.9 - 1e-9 <= norm < 1.0

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            sample_point(Polydisk((1,)), np.random.default_rng(0), "sobol")
        with pytest.raises(ValueError):
            sample_point(Polydisk((1,)), np.random.default_rng(0), "sobol", m=3)

    @pytest.mark.parametrize("sampler", harness.SAMPLERS)
    @pytest.mark.parametrize("spec", ["polydisk:1", "polydisk:2,1", "polydisk:0,1", "polydisk:1,1,1",
                                      "polydisk:1,1,1,1,1", "ball:m=1,d=1", "ball:m=1,d=2", "ball:m=2,d=3",
                                      "ball:m=1,d=5"])
    def test_stacked_draws_keep_the_bits_and_stream_of_one_point_draws(self, spec, sampler):
        structure = parse_structure(spec)
        for seed in range(12):
            ms = [1, 2, 7, 1, 33, 3][seed % 3:]  # ragged, and at a different phase of the stream per seed
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = np.concatenate([sample_point(structure, rng, sampler, m=m) for m in ms])
            ref = np.array([one_point_draw(structure, ref_rng, sampler) for _ in range(sum(ms))])
            assert got.shape == (sum(ms), structure.d)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            one = sample_point(structure, rng, sampler)  # and the one-point form continues the same stream
            want = np.array(one_point_draw(structure, ref_rng, sampler))
            assert type(one) is tuple and np.array_equal(np.array(one).view(np.int64), want.view(np.int64))


def one_point_draw(structure, rng, sampler="uniform"):
    """The one-point sampler as it was before draws were stacked: the bit-identity reference."""
    if sampler == "boundary-biased":
        base = one_point_draw(structure, rng)
        target = 1.0 - 10.0 ** (-rng.uniform(1.0, 6.0))
        norm = structure_norm(structure, base)
        scale = target / norm if norm > 0 else 0.0
        return tuple(v * scale for v in base)
    d = structure.d
    if isinstance(structure, Polydisk):
        radii = 0.99 * np.sqrt(rng.random(d))
        angles = 2.0 * np.pi * rng.random(d)
        return tuple(radii * np.exp(1j * angles))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    radius = 0.99 * rng.random() ** (1.0 / (2 * d))
    return tuple(radius * v)


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(max_order=9)
        with pytest.raises(ValueError):
            CampaignConfig(n_colligations=0)
        with pytest.raises(ValueError):
            CampaignConfig(structure="torus:1")
        with pytest.raises(ValueError):
            CampaignConfig(sampler="sobol")

    def test_multi_indices_count(self):
        assert len(multi_indices(2, 4)) == 14
        assert multi_indices(1, 2) == [(1,), (2,)]

    def test_multi_indices_match_brute_force(self):
        for d in range(1, 5):
            for max_order in range(1, 6):
                brute = [a for a in itertools.product(range(max_order + 1), repeat=d)
                         if 1 <= sum(a) <= max_order]
                assert multi_indices(d, max_order) == sorted(brute, key=lambda a: (sum(a), a))
        assert len(multi_indices(10, 4)) == math.comb(14, 4) - 1


class TestFuzzCampaign:
    def test_records_schema_and_summary(self):
        cfg = CampaignConfig(seed=3, n_colligations=2, structure="polydisk:1,1",
                             max_order=3, points_per_colligation=2)
        recs = records(run_fuzz(cfg))
        summary = recs[-1]
        assert recs[0]["kind"] == "header"
        assert recs[-1]["kind"] == "summary"
        body = [r for r in recs if r["kind"] == "report"]
        assert len(body) == summary["reports"]
        for rec in body:
            assert set(rec) == REPORT_KEYS
            assert rec["schema_version"] == 1
            assert rec["seed"] == 3
        assert summary["violations"] == 0
        # every family of checks shows up
        tags = {r["theorem_tag"] for r in body}
        for expected in (
            "identity.kernel_input", "identity.kernel_output",
            "resolvent.right_block", "resolvent.left_block",
            "resolvent.right_full", "resolvent.left_full",
            "lmatrix.geometric", "knese.sum_rule", "koperator.polydisk",
            "general.first_order", "general.higher_order",
            "polydisk.first", "polydisk.mixed", "polydisk.two_var",
            "polydisk.factorial", "polydisk.weak", "wiener.coefficient",
        ):
            assert expected in tags, expected

    def test_ball_campaign_tags(self):
        cfg = CampaignConfig(seed=4, n_colligations=1, structure="ball:m=1,d=2",
                             max_order=2, points_per_colligation=2)
        recs = records(run_fuzz(cfg))
        summary = recs[-1]
        tags = {r["theorem_tag"] for r in recs if r["kind"] == "report"}
        for expected in ("ball.hat", "ball.factorial", "ball.gram_left",
                         "ball.gram_right", "koperator.ball"):
            assert expected in tags, expected
        assert summary["violations"] == 0

    def test_deterministic_records(self):
        cfg = CampaignConfig(seed=5, n_colligations=2, structure="polydisk:2,1",
                             max_order=2, points_per_colligation=2)
        a = list(run_fuzz(cfg))
        b = list(run_fuzz(cfg))
        assert a == b

    def test_max_ratio_stays_below_one(self):
        cfg = CampaignConfig(seed=10, n_colligations=4, structure="polydisk:2,1",
                             max_order=3, points_per_colligation=4)
        summary = records(run_fuzz(cfg))[-1]
        worst = max(stats["max_ratio"] for stats in summary["theorems"].values())
        assert worst <= 1.0 + 1e-9

    def test_boundary_bias_produces_flags(self):
        cfg = CampaignConfig(seed=6, n_colligations=2, structure="polydisk:1,1",
                             max_order=1, points_per_colligation=6,
                             sampler="boundary-biased")
        summary = records(run_fuzz(cfg))[-1]
        assert summary["flagged"] > 0
        assert summary["violations"] == 0

    def test_summarize_counts_violations(self):
        # slack -1.0, ratio 2.0 at both points; the second point is flagged
        chk = chunk("h", [[0j], [0j]], [(), ("near-boundary",)], ("x", None, [2.0, 2.0], [1.0, 1.0]))
        *_, summary = records(summarize(HEADER, [chk], slack_tol=1e-9))
        assert summary["violations"] == 1
        assert summary["flagged"] == 1
        assert summary["theorems"]["x"]["count"] == 2
        assert summary["theorems"]["x"]["min_slack"] == -1.0


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` made through any aglerlab module binding or
    class attribute (a method's calls count with ``self`` as first argument)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "aglerlab" or name.startswith("aglerlab."):
            owners = [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__.startswith("aglerlab")]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        monkeypatch.setattr(owner, attr, counted)
    return calls


CAMPAIGN_STRUCTURES = ["polydisk:2,1", "ball:m=1,d=2"]


class TestCampaignWork:
    @pytest.mark.parametrize("structure", CAMPAIGN_STRUCTURES)
    def test_one_evaluation_per_point(self, monkeypatch, structure):
        evaluations = count_calls(monkeypatch, transfer.evaluate)
        enumerations = count_calls(monkeypatch, derivative.arrangements)
        size, points = harness.COLLIGATIONS_PER_STACK, 2
        list(run_fuzz(CampaignConfig(seed=13, n_colligations=size + 1, structure=structure,
                                     max_order=4, points_per_colligation=points)))
        # per chunk of colligations: one stack of their origins, then one of the z and w of every pair
        assert [len(cols) for cols, _ in evaluations] == [size, size, 1, 1]
        assert [np.shape(zs) for _, zs in evaluations] == [(size, 1, 2), (size, 2 * points, 2),
                                                           (1, 1, 2), (1, 2 * points, 2)]
        assert not enumerations

    @pytest.mark.parametrize("campaign", CAMPAIGN_STRUCTURES + list(harness.EXPLORE_NAMES))
    def test_no_call_per_report(self, monkeypatch, campaign):
        # a campaign computes each bound as a column of all its points: it makes no view of one point and no report
        made = [count_calls(monkeypatch, fn) for fn in (transfer.EvalContext.__init__, BoundReport.__init__,
                                                         bounds.polydisk_rhs, bounds.ball_rhs)]
        size = dict(n_colligations=2, max_order=4, points_per_colligation=6)
        lines = (run_explore(campaign, CampaignConfig(seed=13, **size)) if campaign in harness.EXPLORE_NAMES
                 else run_fuzz(CampaignConfig(seed=13, structure=campaign, **size)))
        *_, summary = records(lines)
        assert summary["reports"] > 300
        assert made == [[], [], [], []]
        # while a call through the library is counted
        bounds.bound_polydisk(monomial((2, 1)), (0.1, 0.2), (2, 1), "factorial")
        bounds.polydisk_rhs(0.5, (0.1, 0.2), MultiIndex((2, 1)), "weak")
        bounds.ball_rhs(0.5, (0.1, 0.2), MultiIndex((2, 1)), "factorial")
        assert [len(calls) for calls in made] == [1, 1, 1, 1]

    def test_each_bound_takes_one_call_per_stack(self, monkeypatch):
        # polydisk:1,1,1 at order 6 checks 83 multi-indices at each point; each
        # right-hand side takes them all, at every point of the campaign's one stack, in one call
        calls = {}

        def counted(row):
            def rhs(*args):
                calls[row.tag] = calls.get(row.tag, 0) + 1
                return row.rhs(*args)
            return dataclasses.replace(row, rhs=rhs)

        monkeypatch.setattr(bounds, "VARIANTS", tuple(map(counted, bounds.VARIANTS)))
        general = count_calls(monkeypatch, bounds.bound_general)
        kbound = count_calls(monkeypatch, bounds._koperator_rhs)
        n = 2
        *_, summary = records(run_fuzz(CampaignConfig(seed=18, n_colligations=n, structure="polydisk:1,1,1",
                                                      max_order=6, points_per_colligation=3)))
        assert summary["reports"] == n * 1306
        assert calls == {"polydisk.factorial": 1, "polydisk.weak": 1, "polydisk.first": 1, "polydisk.mixed": 1}
        assert len(general) == len(kbound) == 1

    @pytest.mark.parametrize("structure", CAMPAIGN_STRUCTURES)
    def test_norm_calls_do_not_grow_with_the_order(self, monkeypatch, structure):
        # each point takes the norms of all its multi-indices, and of all their
        # K, from one stacked SVD each, so more multi-indices add no call
        calls = count_calls(monkeypatch, spectral_norm)
        counts = []
        for max_order in (2, 4):
            before = len(calls)
            list(run_fuzz(CampaignConfig(seed=13, n_colligations=2, structure=structure,
                                         max_order=max_order, points_per_colligation=2)))
            counts.append(len(calls) - before)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("structure", CAMPAIGN_STRUCTURES)
    def test_campaign_matches_arrangement_oracles(self, monkeypatch, structure):
        cols = {}

        def keep(*args, **kwargs):
            col = random_colligation(*args, **kwargs)
            cols[colligation_hash(col)] = col
            return col

        monkeypatch.setattr(harness, "random_colligation", keep)
        recs = records(run_fuzz(CampaignConfig(seed=14, n_colligations=2, structure=structure,
                                               max_order=4, points_per_colligation=2)))
        checked = 0
        for rec in recs:
            family = rec.get("theorem_tag", "").split(".")[0]
            if family not in ("koperator", "general", "polydisk", "ball") or "gram" in rec["theorem_tag"]:
                continue
            col = cols[rec["colligation_hash"]]
            z = tuple(complex(re, im) for re, im in rec["z"])
            mi = MultiIndex(rec["alpha"])
            ctx = transfer.evaluate(col, z)
            if family == "koperator":
                oracle = koperator(ctx, mi)
            elif mi.order == 1:
                e_j = projection(col.structure, mi.counts.index(1) + 1)
                oracle = col.C @ ctx.r_ha @ e_j @ ctx.r_ka @ col.B
            else:
                oracle = partial_permsum(col, z, mi.canonical_klist())
            expected = spectral_norm(oracle)
            assert abs(rec["lhs"] - expected) <= 1e-12 * expected, rec
            checked += 1
        assert checked >= 100


def structure_spec(structure):
    """The ``--structure`` text of a domain structure."""
    if isinstance(structure, Polydisk):
        return "polydisk:" + ",".join(map(str, structure.block_dims))
    return f"ball:m={structure.fiber_dim},d={structure.copies}"


def assert_chunk_layout(chunks):
    """What ``summarize`` folds by stack relies on: a chunk's stacks share no theorem tag, and each
    stack's segments are nonempty and cover its rows once, in row order."""
    chunks = list(chunks)
    assert chunks
    for stacks, segments in chunks:
        tags = [{tag for tag, _ in stack.table.keys} for stack in stacks]
        assert sum(map(len, tags)) == len(set().union(*tags))
        assert all(a < b for _, a, b in segments)
        for s, (subjects, zs, flags, table) in enumerate(stacks):
            assert len(subjects) == len(zs) == len(flags) == len(table.lhs) == len(table.rhs)
            assert [i for t, a, b in segments if t == s for i in range(a, b)] == list(range(len(zs)))


class TestChunkLayout:
    @pytest.mark.parametrize("sampler", harness.SAMPLERS)
    @pytest.mark.parametrize("spec, dim_g", [(structure_spec(s), 1) for s in MIXED_STRUCTURES] + [("ball:m=2,d=3", 2)])
    def test_fuzz_chunks(self, monkeypatch, spec, dim_g, sampler):
        monkeypatch.setattr(harness, "COLLIGATIONS_PER_STACK", 2)  # two chunks, the second of one colligation
        config = CampaignConfig(seed=8, n_colligations=3, structure=spec, dim_g=dim_g, max_order=2,
                                points_per_colligation=2, sampler=sampler)
        assert_chunk_layout(harness.fuzz_records(config))

    @pytest.mark.parametrize("sampler", harness.SAMPLERS)
    @pytest.mark.parametrize("poly, structure", [(derivative.kaijser_varopoulos(), Polydisk((1, 1, 1))),
                                                 (derivative.alpay_kaptanoglu(3), Ball(1, 2))],
                             ids=harness.EXPLORE_NAMES)
    def test_explore_chunks(self, poly, structure, sampler):
        config = CampaignConfig(seed=8, n_colligations=3, max_order=2, points_per_colligation=4, sampler=sampler)
        assert_chunk_layout(harness.explore_records(poly, structure, config))


class TestExploreCampaign:
    @pytest.mark.parametrize("poly", [kaijser_varopoulos(), alpay_kaptanoglu(2), alpay_kaptanoglu(3)],
                             ids=["kaijser-varopoulos", "alpay-kaptanoglu-2", "alpay-kaptanoglu-3"])
    def test_polynomial_hash_is_the_sha256_of_its_coefficients(self, poly):
        """``hashlib`` is the oracle for both targets' subject hash: the first 16 hex digits of the
        SHA-256 of the coefficients' JSON."""
        blob = json.dumps({str(k): [v.real, v.imag] for k, v in sorted(poly.coeffs.items())}, sort_keys=True)
        assert polynomial_hash(poly) == hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def test_polynomial_hash_is_pinned(self):
        assert polynomial_hash(kaijser_varopoulos()) == "16f6e7a475df32dc", \
            "the subject hash of kaijser_varopoulos() changed: every explore record's colligation_hash would change"

    def test_kaijser_varopoulos_records(self):
        cfg = CampaignConfig(seed=7, n_colligations=1, max_order=2,
                             points_per_colligation=4)
        recs = records(run_explore("kaijser-varopoulos", cfg))
        summary = recs[-1]
        assert recs[0]["target"] == "kaijser-varopoulos"
        body = [r for r in recs if r["kind"] == "report"]
        assert body and all("observational" in r["flags"] for r in body)
        assert summary["violations"] == 0  # observational records are never asserted

    def test_alpay_kaptanoglu_includes_gram(self):
        cfg = CampaignConfig(seed=8, n_colligations=2, max_order=2,
                             points_per_colligation=2)
        recs = records(run_explore("alpay-kaptanoglu", cfg, m=2))
        tags = {r["theorem_tag"] for r in recs if r["kind"] == "report"}
        assert "gram.arveson_min_eig" in tags
        assert "ball.hat" in tags

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_explore("lemniscate", CampaignConfig())

    @pytest.mark.parametrize("field", [{"structure": "ball:m=1,d=2"}, {"dim_g": 2}], ids=["structure", "dim-g"])
    def test_a_library_caller_cannot_move_the_explore_domain(self, field):
        # the explore command has no --structure or --dim-g; a config file or a library caller is refused here
        with pytest.raises(ValueError, match="fixes its domain"):
            run_explore("kaijser-varopoulos", CampaignConfig(**field))

    def test_records_do_not_depend_on_the_chunk_size(self, tmp_path, capsys):
        # the same 20 points, drawn in the same order, as 2 chunks of 10 or 4 of 5;
        # alpay-kaptanoglu is left out, as it writes one Gram record per chunk
        def lines(n, points):
            out = tmp_path / f"kv-{n}.jsonl"
            assert main(["explore", "kaijser-varopoulos", "--seed", "21", "--n", n, "--points", points,
                         "--out", str(out)]) == 0
            capsys.readouterr()
            return out.read_text(encoding="utf-8").splitlines()

        two, four = lines("2", "10"), lines("4", "5")
        assert len(two) > 1000 and two[1:] == four[1:]
        header_two, header_four = json.loads(two[0]), json.loads(four[0])
        assert header_two.pop("config") != header_four.pop("config")
        assert header_two == header_four

    @pytest.mark.parametrize("name, m, grams", [("kaijser-varopoulos", 1, 0), ("alpay-kaptanoglu", 3, 3)])
    def test_one_poly_partial_call_per_multi_index(self, monkeypatch, name, m, grams):
        # one stacked call for the defect, one per multi-index, one for all the Gram matrices
        calls = count_calls(monkeypatch, derivative.poly_partial)
        cfg = CampaignConfig(seed=22, n_colligations=3, max_order=4, points_per_colligation=4)
        list(run_explore(name, cfg, m=m))
        d = 3 if name == "kaijser-varopoulos" else 2
        orders = [mi for mi in itertools.product(range(5), repeat=d) if 1 <= sum(mi) <= 4]
        assert len(calls) == 1 + len(orders) + (grams > 0)
        assert [np.shape(z) for _, z, _ in calls] == [(12, d)] * (1 + len(orders)) + [(8 * grams, d)] * (grams > 0)

    def test_gram_records_carry_the_campaign_and_point_flags(self, monkeypatch):
        def gram_flags(sampler):
            cfg = CampaignConfig(seed=8, n_colligations=2, max_order=1, points_per_colligation=1, sampler=sampler)
            recs = records(run_explore("alpay-kaptanoglu", cfg))
            return [r["flags"] for r in recs if r.get("theorem_tag") == "gram.arveson_min_eig"]

        assert gram_flags("boundary-biased") == [["boundary-biased", "observational"]] * 2
        calls = []

        def near_sphere_at_point_4_of_gram_2(structure, rng, sampler="uniform", m=None):
            # call 1 draws the 2 variant points, call 2 the 2 x 8 points of the two Gram matrices
            calls.append(sample_point(structure, rng, sampler, m))
            if len(calls) == 2:
                calls[-1][8 + 3] = (0.0, 1.0 - 1e-7)
            return calls[-1]

        monkeypatch.setattr(harness, "sample_point", near_sphere_at_point_4_of_gram_2)
        assert gram_flags("uniform") == [["observational"], ["near-boundary", "observational"]]
        assert [np.shape(zs) for zs in calls] == [(2, 2), (16, 2)]


class TestCli:
    def test_validate_roundtrip_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.5), path)
        assert main(["validate", str(path)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_validate_non_unitary_exit_one(self, tmp_path, capsys):
        u = 0.9 * np.eye(3)
        col = Colligation(Polydisk((1, 1)), A=u[:2, :2], B=u[:2, 2:], C=u[2:, :2], D=u[2:, 2:])
        path = tmp_path / "bad.json"
        save_colligation(col, path)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "unitarity" in out and "FAIL" in out

    @pytest.mark.parametrize("subject, table, code", [
        ("blaschke", [r"tolerance        1\.000e-12", r"unitarity        \d\.\d{3}e[-+]\d\d  ok",
                      "result           pass"], 0),
        ("scaled-identity", [r"tolerance        1\.000e-12", r"unitarity        1\.900e-01  FAIL",
                             "result           fail"], 1),
        # U*U overflows from finite entries: an infinite residual, not a traceback
        ("overflow", [r"tolerance        1\.000e-12", "unitarity        inf  FAIL", "result           fail"], 1),
    ], ids=["blaschke", "scaled-identity", "overflow"])
    @pytest.mark.filterwarnings("error")
    def test_validate_prints_its_table(self, tmp_path, capsys, subject, table, code):
        path = tmp_path / "c.json"
        if subject == "blaschke":
            assert main(["catalog", "blaschke", "--a", "0.5", "--out", str(path)]) == 0
            capsys.readouterr()
        else:
            u = 0.9 * np.eye(3) if subject == "scaled-identity" else np.diag([1e200, 0.0, 0.0])
            save_colligation(Colligation(Polydisk((1, 1)), A=u[:2, :2], B=u[:2, 2:], C=u[2:, :2], D=u[2:, 2:]), path)
        assert main(["validate", str(path)]) == code
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == len(table) and err == ""
        assert all(re.fullmatch(pattern, line) for pattern, line in zip(table, out.splitlines())), out

    @pytest.mark.parametrize("argv, entry, z, what", [
        # phi(0.5) = 0.5 * 10^600 overflows
        (["eval"], 1e300, "0.5", "phi"),
        (["bounds", "--alpha", "1"], 1e300, "0.5", "phi"),
        (["deriv", "--alpha", "1"], 1e300, "0.5", "phi"),
        # phi = 10^320 z is finite, but phi* phi at z = 1e-13, or the partial 10^320 at either point, is not
        (["bounds", "--alpha", "1"], 1e160, "1e-13", "the defect of phi"),
        (["bounds", "--alpha", "1"], 1e160, "1e-200", "partial d^1 phi / dz^[1]"),
        (["deriv", "--alpha", "1"], 1e160, "1e-13", "partial d^1 phi / dz^[1]"),
        (["deriv", "--alpha", "1"], 1e160, "1e-200", "partial d^1 phi / dz^[1]"),
    ], ids=["eval", "bounds", "deriv", "bounds-defect", "bounds-partial", "deriv-partial-13", "deriv-partial-200"])
    @pytest.mark.filterwarnings("error")
    def test_a_nonfinite_phi_exits_one(self, tmp_path, capsys, argv, entry, z, what):
        # a non-unitary colligation: one error line naming the given point, no traceback and no warning
        path = tmp_path / "big.json"
        save_colligation(Colligation(Polydisk((1,)), A=[[0.0]], B=[[entry]], C=[[entry]], D=[[0.0]]), path)
        assert main([argv[0], str(path), "--z", z, *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {what} is not finite at z = [({z}+0j)]\n")

    def test_validate_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_validate_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        data = to_json_dict(blaschke(0.1))
        del data["A"]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "'A'" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["validate", "{}"], ["eval", "{}", "--z", "0.1"],
                                      ["deriv", "{}", "--z", "0.1", "--alpha", "1"], ["bounds", "{}", "--z", "0.1"],
                                      ["fuzz", "--config", "{}"], ["explore", "kaijser-varopoulos", "--config", "{}"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target, code", [("", errno.EISDIR), ("missing.json", errno.ENOENT)],
                             ids=["directory", "missing"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, argv, target, code):
        # a directory raised IsADirectoryError, with a traceback and exit 1
        path = tmp_path / target
        assert main([arg.format(path) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}: {os.strerror(code)}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("block_dims", "11", "block dimensions must be integers, got '11'"),
        ("block_dims", [1.9, 1.2], "block dimensions must be integers, got [1.9, 1.2]"),
        ("block_dims", [True, 1], "block dimensions must be integers, got [True, 1]"),
        ("dimF", 1.9, "dimF and dimG must be integers, got (1.9, 1)"),
        ("dimG", True, "dimF and dimG must be integers, got (1, True)"),
        ("block_dims", None, "missing field 'block_dims'"),
        (None, [], "a colligation is a JSON object, got list"),
        ("dim_f", 5, "unknown colligation field 'dim_f'"),
        ("D", [[["0.5", True]]], "field 'D' entries must be numbers, got '0.5'"),
        ("D", [[[0.5, True]]], "field 'D' entries must be numbers, got True"),
        ("D", [[[0.5, "0"]]], "field 'D' entries must be numbers, got '0'"),
    ], ids=["string-dims", "float-dims", "bool-dim", "float-dim-f", "bool-dim-g", "no-dims", "top-level-list",
            "unknown-key", "string-entry", "bool-entry", "string-imaginary-part"])
    def test_a_malformed_colligation_file_exits_two(self, tmp_path, capsys, field, value, message):
        # each but the last two was read as another colligation, and validated as "pass"
        data = to_json_dict(random_colligation(Polydisk((1, 1)), dim_g=1, seed=3))
        if field is None:
            data = value
        elif value is None:
            del data[field]
        else:
            data[field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("field, value", [("dimF", 0), ("dimG", 0), ("dimG", -1)])
    @pytest.mark.parametrize("argv", [["validate"], ["eval", "--z", "0.5"]], ids=lambda argv: argv[0])
    def test_a_colligation_file_without_an_input_or_output_exits_two(self, tmp_path, capsys, field, value, argv):
        # "dimF": 0 was refused as "field 'B' must be a nested array of [re, im] pairs"
        data = to_json_dict(blaschke(0.5))
        data[field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: field {field!r} must be >= 1, got {value}\n")

    def test_integer_matrix_entries_are_valid(self, tmp_path, capsys):
        data = to_json_dict(monomial((1, 1)))  # a permutation matrix: every entry 0 or 1
        for name in "ABCD":
            data[name] = [[[int(part) for part in pair] for pair in row] for row in data[name]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()

    def test_eval_and_boundary(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.5), path)
        assert main(["eval", str(path), "--z", "0"]) == 0
        assert "phi(z)" in capsys.readouterr().out
        assert main(["eval", str(path), "--z", "1"]) == 1
        assert "inadmissible" in capsys.readouterr().err

    def test_deriv_matches_oracle(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_colligation(monomial((1, 1)), path)
        assert main(["deriv", str(path), "--z", "0.3,0.4", "--alpha", "1,1"]) == 0
        out = capsys.readouterr().out
        deviation = float(out.strip().splitlines()[-1].split("=")[1])
        assert deviation <= 1e-10
        assert main(["deriv", str(path), "--z", "1,0", "--alpha", "1,1"]) == 1
        capsys.readouterr()
        assert main(["deriv", str(path), "--z", "0.3,0.4", "--alpha", "0,0"]) == 0
        capsys.readouterr()

    def test_deriv_prints_the_point_flags(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.5), path)
        for command in (["eval"], ["deriv", "--alpha", "1"]):
            assert main([command[0], str(path), "--z", "0.9999995", *command[1:]]) == 0
            assert "flags     = ['near-boundary']" in capsys.readouterr().out.splitlines()
        assert main(["deriv", str(path), "--z", "0.5", "--alpha", "1"]) == 0
        assert "flags" not in capsys.readouterr().out

    def test_deriv_prints_the_oracle_radii(self, tmp_path, capsys):
        # radii of a few 1e-6 near the sphere: the deviation is roundoff / r^3, and the radii say so
        path = tmp_path / "c.json"
        save_colligation(random_colligation(Ball(2, 2), 1, 5), path)
        assert main(["deriv", str(path), "--z", "0.6,0.79999", "--alpha", "1,2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == "oracle radii = [6.667e-06, 5.000e-06]"
        assert lines[-1].startswith("oracle deviation = ")
        assert main(["deriv", str(path), "--z", "0.1,0.2", "--alpha", "0,0"]) == 0
        assert "oracle" not in capsys.readouterr().out  # order 0 has no oracle

    def test_bounds_flags_near_boundary_point_and_asserts_nothing(self, tmp_path, capsys):
        # 1 - ||z|| = 1e-7: roundoff leaves the resolvent.left_* equalities
        # at slack -1.1e-9, past the default tolerance
        path = tmp_path / "c.json"
        save_colligation(random_colligation(Ball(1, 2), dim_g=1, seed=4), path)
        z = "--z=-0.34079858275173874+0.8699025386955168j,-0.09135350390728549+0.34464508771977675j"
        assert main(["bounds", str(path), z]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "flags     = ['near-boundary']" in out
        assert float(out[-1].split("=")[1]) < -1e-9  # the true minimum, not one over unflagged reports
        assert main(["eval", str(path), z]) == 0
        assert "flags     = ['near-boundary']" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("structure", ["polydisk:2,1", "ball:m=1,d=2"])
    def test_bounds_prints_the_campaign_reports_at_its_point(self, tmp_path, capsys, structure):
        config = CampaignConfig(seed=5, n_colligations=1, structure=structure,
                                max_order=3, points_per_colligation=1)
        recs = [r for r in records(run_fuzz(config)) if r["kind"] == "report"]
        col_seed = int(np.random.default_rng(config.seed).integers(0, 2**62))  # as fuzz draws it
        col = random_colligation(parse_structure(structure), config.dim_g, col_seed)
        assert colligation_hash(col) == recs[0]["colligation_hash"]
        path = tmp_path / "c.json"
        save_colligation(col, path)
        z = recs[-1]["z"]
        alpha = [2, 1]
        # the point's records after the identity pair: those of every alpha,
        # then from the first general bound on, those of this alpha
        at_z = [r for r in recs if r["z"] == z and not r["theorem_tag"].startswith("identity.")]
        first = next(i for i, r in enumerate(at_z) if r["theorem_tag"].startswith("general."))
        expected = at_z[:first] + [r for r in at_z[first:] if r["alpha"] == alpha]
        zarg = ",".join(repr(complex(re, im)) for re, im in z)
        assert main(["bounds", str(path), f"--z={zarg}", "--alpha", "2,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("min slack")
        printed = [(line.split()[0], line.split("lhs=")[1].split()[0], line.split("rhs=")[1].split()[0])
                   for line in lines[:-1]]
        assert printed == [(r["theorem_tag"], f"{r['lhs']:.6e}", f"{r['rhs']:.6e}") for r in expected]
        assert {"koperator.polydisk", "koperator.ball"} & {tag for tag, _, _ in printed}
        # and the library's reports at the point are the campaign's, bit for bit
        ctx = transfer.evaluate(col, tuple(complex(re, im) for re, im in z))
        assert [(r.theorem_tag, repr(r.lhs), repr(r.rhs)) for r in bounds.point_reports(ctx, [MultiIndex(alpha)])] == [
            (r["theorem_tag"], repr(r["lhs"]), repr(r["rhs"])) for r in expected]

    def test_bounds_command(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.3), path)
        assert main(["bounds", str(path), "--z", "0.2", "--alpha", "2"]) == 0
        out = capsys.readouterr().out
        assert "polydisk.factorial" in out
        assert "min slack" in out

    @pytest.mark.parametrize("argv", [
        ["eval", "--z", "0.1,0.2"],
        ["deriv", "--z", "0.1", "--alpha", "1,1"],
        ["bounds", "--z", "0.1,0.2", "--alpha", "1"],
    ], ids=["eval", "deriv", "bounds"])
    def test_arity_mismatch_exits_two(self, tmp_path, capsys, argv):
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.3), path)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d=1" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--z", "0.3,1.5"],
        ["deriv", "--z", "0.3,1.5", "--alpha", "1,0"],
        ["bounds", "--z", "0.3,1.5", "--alpha", "1,0"],
    ], ids=["eval", "deriv", "bounds"])
    def test_point_outside_domain_behind_empty_block_exits_one(self, tmp_path, capsys, argv):
        # monomial z_1 has an empty second block; z_2 = 1.5 is still outside D^2
        path = tmp_path / "m.json"
        assert main(["catalog", "monomial", "--alpha", "1,0", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
        assert "polydisk." not in captured.out

    @pytest.mark.parametrize("argv", [
        ["eval", "--z", "0.5"],
        ["deriv", "--z", "0.5", "--alpha", "1"],
        ["bounds", "--z", "0.5", "--alpha", "1"],
    ], ids=["eval", "deriv", "bounds"])
    def test_singular_pencil_exits_one(self, tmp_path, capsys, argv):
        # non-unitary file: I - AZ(z) is exactly singular at the admissible z = 0.5
        path = tmp_path / "s.json"
        save_colligation(Colligation(Polydisk((1,)), A=[[2.0]], B=[[0.0]], C=[[0.0]], D=[[1.0]]), path)
        assert main([argv[0], str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "singular" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("samples", ["10", "0"])
    def test_deriv_bad_samples_exit_two_before_computing(self, tmp_path, capsys, monkeypatch, samples):
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.3), path)

        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking --samples")

        monkeypatch.setattr(harness, "evaluate", refuse)
        monkeypatch.setattr(harness, "cauchy_partial", refuse)
        assert main(["deriv", str(path), "--z", "0.2", "--alpha", "1", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1

    def test_deriv_grid_over_budget_exits_two_before_computing(self, tmp_path, capsys, monkeypatch):
        # 64 samples on each of 4 axes is 2**24 grid points, about 8 GB
        path = tmp_path / "s4.json"
        assert main(["catalog", "symmetric-extremal", "--d", "4", "--out", str(path)]) == 0
        assert main(["deriv", str(path), "--z", "0.1,0.2,0.1,0.2", "--alpha", "0,0,0,0"]) == 0  # no oracle
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking --samples")

        monkeypatch.setattr(harness, "evaluate", refuse)
        monkeypatch.setattr(harness, "cauchy_partial", refuse)
        assert main(["deriv", str(path), "--z", "0.1,0.2,0.1,0.2", "--alpha", "1,0,0,1"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and "grid points" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_deriv_oracle_domain_violation_exits_one(self, tmp_path, capsys):
        # phi is defined at z, but the Cauchy circle around it crosses |z| = 1 - margin
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.5), path)
        assert main(["deriv", str(path), "--z", "0.9999999999985", "--alpha", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1

    def test_bounds_prints_applicable_variants_in_table_order(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_colligation(random_colligation(Polydisk((1, 1)), dim_g=1, seed=5), path)
        for alpha, expected in (
            ("1,0", ["factorial", "weak", "first"]),
            ("2,1", ["factorial", "weak", "mixed", "two_var"]),
        ):
            assert main(["bounds", str(path), "--z", "0.3,0.2j", "--alpha", alpha]) == 0
            out = capsys.readouterr().out
            variants = [line.split()[0].split(".")[1] for line in out.splitlines()
                        if line.startswith("polydisk.")]
            assert variants == expected

    def test_catalog_command(self, tmp_path, capsys):
        out_file = tmp_path / "cat.json"
        assert main(["catalog", "blaschke", "--a", "0.5", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["catalog", "monomial", "--alpha", "1,1"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["kind"] == "polydisk"
        assert main(["catalog", "symmetric-extremal", "--d", "2", "--seed", "4",
                     "--out", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        assert main(["catalog", "blaschke"]) == 2  # missing --a
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:  # argparse's choices reject an unknown entry
            main(["catalog", "nonsense"])
        assert exc.value.code == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err

    @pytest.fixture
    def no_huge_factorial(self, monkeypatch):
        """Fail, rather than run for minutes, where a command would compute a huge factorial."""
        real_factorial = math.factorial

        def factorial(n):
            assert n <= 100, "a huge factorial"
            return real_factorial(n)

        monkeypatch.setattr(math, "factorial", factorial)

    @pytest.mark.usefixtures("no_huge_factorial")
    def test_catalog_monomial_too_large_for_memory_exits_two(self, capsys, monkeypatch):
        message = "Unable to allocate 131. TiB for an array with shape (3000000, 3000000) and data type complex128"
        real_zeros = np.zeros

        def zeros(shape, *args, **kwargs):  # what numpy raises past this size, without the allocation
            if np.prod(shape, dtype=float) > 1e9:
                raise MemoryError(message)
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        assert main(["catalog", "monomial", "--alpha", "3000000"]) == 2
        assert capsys.readouterr() == ("", f"error: monomial does not fit in memory: {message}\n")

    @pytest.mark.usefixtures("no_huge_factorial")
    @pytest.mark.parametrize("command, low", [("deriv", 0), ("bounds", 1)])
    def test_a_huge_alpha_exits_two_at_once(self, tmp_path, capsys, command, low):
        # n_1! ... n_d! was computed before the order check: --alpha 3000000 ran for minutes
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.5), path)
        start = time.perf_counter()
        assert main([command, str(path), "--z", "0.1", "--alpha", "3000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: multi-index order must be in {low}..8, got 3000000\n")

    def test_catalog_out_into_a_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cat.json"
        assert main(["catalog", "blaschke", "--a", "0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.parent.exists()
        assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"

    def test_catalog_names_a_negative_seed(self, capsys):
        # the stream's refusal read "expected non-negative integer", numpy's wording, and named no seed
        assert main(["catalog", "symmetric-extremal", "--d", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("a", ["nan", "nan+0.3j", "0.3-nanj", "1", "inf"])
    def test_catalog_blaschke_rejects_parameter_outside_the_disk(self, capsys, a):
        # a NaN parameter used to fail later, as "A has non-finite entries"
        assert main(["catalog", "blaschke", f"--a={a}"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: Blaschke parameter must satisfy |a| < 1")
        assert len(captured.err.strip().splitlines()) == 1

    def test_fuzz_cli_writes_stream_and_summary(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        code = main(["fuzz", "--seed", "9", "--n", "2", "--points", "2",
                     "--structure", "polydisk:1,1", "--max-order", "2",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        head = json.loads(lines[0])
        tail = json.loads(lines[-1])
        assert head["kind"] == "header"
        assert tail["kind"] == "summary"
        assert all(json.loads(line, parse_constant=reject_constant) for line in lines)

    def test_fuzz_ball_wiener_bound_holds(self, tmp_path, capsys):
        # the one-variable coefficient bound fails here at alpha (1, 0, 1)
        out = tmp_path / "ball.jsonl"
        assert main(["fuzz", "--structure", "ball:m=2,d=3", "--dim-g", "1", "--max-order", "4",
                     "--n", "5", "--points", "5", "--seed", "657082194", "--out", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--tol", "nan"],
        ["fuzz", "--tol", "inf"],
        ["explore", "kaijser-varopoulos", "--tol", "nan"],
    ], ids=["fuzz-nan", "fuzz-inf", "explore-nan"])
    def test_nonfinite_tolerance_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "r.jsonl"
        assert main([*argv, "--n", "1", "--points", "1", "--max-order", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "bounds"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_point_tolerance_exits_two(self, tmp_path, capsys, command, tol):
        # a non-unitary file: with --tol inf both commands used to pass it
        path = tmp_path / "nu.json"
        save_colligation(Colligation(Polydisk((1,)), A=[[0.9]], B=[[0.9]], C=[[0.9]], D=[[0.9]]), path)
        extra = ["--z", "0.5", "--alpha", "2"] if command == "bounds" else []
        assert main([command, str(path), *extra, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_nonfinite_tolerance_in_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"n_colligations": 1, "identity_tol": NaN}', encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["fuzz", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "identity_tol=nan" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--n", "1", "--points", "1", "--max-order", "1", "--tol", "-1"],
        ["fuzz", "--config", "CFG"],
        ["explore", "kaijser-varopoulos", "--n", "1", "--points", "1", "--tol", "-1"],
        ["validate", "FILE", "--tol", "-1"],
        ["bounds", "FILE", "--z", "0.5", "--alpha", "1", "--tol", "-1"],
    ], ids=["fuzz", "fuzz-config", "explore", "validate", "bounds"])
    def test_negative_tolerance_exits_two(self, tmp_path, capsys, argv):
        # each used to fail a clean input: 7 violations on a clean campaign, and
        # "result fail" for an exact Blaschke factor
        path, cfg, out = tmp_path / "b.json", tmp_path / "cfg.json", tmp_path / "r.jsonl"
        save_colligation(blaschke(0.3), path)
        cfg.write_text('{"n_colligations": 1, "max_order": 1, "identity_tol": -1}', encoding="utf-8")
        argv = [{"FILE": str(path), "CFG": str(cfg)}.get(a, a) for a in argv]
        if argv[0] in ("fuzz", "explore"):
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and ">= 0" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()

    def test_zero_tolerance_is_valid(self, tmp_path, capsys):
        CampaignConfig(slack_tol=0.0, identity_tol=0.0)
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.3), path)
        assert main(["validate", str(path), "--tol", "0"]) != 2
        assert main(["bounds", str(path), "--z", "0.5", "--tol", "0"]) != 2
        assert "error" not in capsys.readouterr().err

    def test_negative_zero_tolerances_are_written_as_zero(self, tmp_path, capsys):
        # --tol -0 is the tolerance of --tol 0, so both campaigns write the same bytes
        config = CampaignConfig(slack_tol=-0.0, identity_tol=-0)
        assert [math.copysign(1.0, t) for t in (config.slack_tol, config.identity_tol)] == [1.0, 1.0]
        written = []
        for tol in ("0", "-0"):
            out = tmp_path / f"tol{tol}.jsonl"
            assert main(["fuzz", "--n", "1", "--points", "2", "--tol", tol, "--out", str(out)]) in (0, 1)
            written.append(out.read_bytes())
        capsys.readouterr()
        assert written[0] == written[1]
        assert b'"slack_tol": 0.0,' in written[0].splitlines()[0] and b'"slack_tol": 0.0,' in written[0].splitlines()[-1]

    def test_integer_tolerances_are_written_as_floats(self, tmp_path, capsys):
        # every record value is a float, so CampaignConfig makes an integer tolerance one
        config = CampaignConfig(slack_tol=1, identity_tol=0)
        assert (config.slack_tol, config.identity_tol) == (1.0, 0.0)
        assert type(config.slack_tol) is type(config.identity_tol) is float
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"identity_tol": 0, "slack_tol": 1}', encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["fuzz", "--config", str(cfg_path), "--n", "1", "--points", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert '"identity_tol": 0.0,' in lines[0] and '"slack_tol": 1.0,' in lines[0]
        identity = [line for line in lines if '"theorem_tag": "identity.' in line]
        assert len(identity) == 4 and all('"rhs": 0.0,' in line for line in identity)
        assert '"slack_tol": 1.0,' in lines[-1]

    @pytest.mark.parametrize("fields", ['{"bogus": 1}', '{"slack_tol": "x"}', '{"seed": 1.5}',
                                        '{"slack_tol": true}', '{"identity_tol": false}',
                                        '{"structure": 5}', '{"structure": null}', '{"sampler": 3}',
                                        '{"out": 1}'],
                             ids=["key", "type", "float-seed", "bool-slack-tol", "bool-identity-tol",
                                  "int-structure", "null-structure", "int-sampler", "int-out"])
    def test_bad_config_field_exits_two(self, tmp_path, capsys, fields):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(fields, encoding="utf-8")
        for command in (["fuzz"], ["explore", "kaijser-varopoulos"]):
            assert main([*command, "--config", str(cfg_path), "--n", "1"]) == 2
            captured = capsys.readouterr()
            assert not captured.out  # an int out once opened, wrote to and closed that descriptor
            assert captured.err.startswith(f"error: {cfg_path}: ") and len(captured.err.strip().splitlines()) == 1
            assert "__init__" not in captured.err

    @pytest.mark.parametrize("command", [["fuzz"], ["explore", "kaijser-varopoulos"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("data, message", [
        (b"nope", "invalid JSON at line 1 column 1: Expecting value"),
        (b'{"seed": 1,', "invalid JSON at line 1 column 12: Expecting property name enclosed in double quotes"),
        (b'\xff\xfe{"seed": 1}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[]", "a campaign config is a JSON object, got list"),
        (b"null", "a campaign config is a JSON object, got NoneType"),
    ], ids=["word", "unclosed", "not-utf-8", "list", "null"])
    def test_a_config_file_that_is_not_json_names_the_file(self, tmp_path, capsys, command, data, message):
        # the lines named no file: "error: Expecting value: line 1 column 1 (char 0)", "error: 'utf-8' codec
        # can't decode ...", "error: bad campaign config: 'list' object is not a mapping"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(data)
        assert main([*command, "--config", str(cfg_path), "--n", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg_path}: {message}\n")

    def test_fuzz_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 11, "n_colligations": 1, "structure": "polydisk:1,1",
            "max_order": 1, "points_per_colligation": 1,
        }), encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["fuzz", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        head = json.loads(out.read_text().splitlines()[0])
        assert head["seed"] == 11

    def test_explore_cli(self, tmp_path, capsys):
        out = tmp_path / "kv.jsonl"
        assert main(["explore", "kaijser-varopoulos", "--seed", "12", "--n", "1",
                     "--points", "2", "--max-order", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
        assert main(["explore", "does-not-exist"]) == 2
        capsys.readouterr()


    @pytest.mark.parametrize("argv", [
        ["fuzz", "--dim-g", "0"],
        ["fuzz", "--seed", "-1"],
        ["explore", "kaijser-varopoulos", "--seed", "-1"],
        ["explore", "does-not-exist"],
        ["explore", "alpay-kaptanoglu", "--m", "0"],
        ["explore", "alpay-kaptanoglu", "--m", "1001"],
        ["explore", "alpay-kaptanoglu", "--config", "{cfg}"],
        ["fuzz", "--structure", "ball:m=1,d=2", "--sampler", "uniform-polydisk"],
        ["explore", "kaijser-varopoulos", "--sampler", "uniform-ball"],
        ["explore", "kaijser-varopoulos", "--m", "-3"],
        ["fuzz", "--out", "{missing}"],
        ["explore", "alpay-kaptanoglu", "--out", "{missing}"],
        ["fuzz", "--structure", "ball:m=2,d=3,q=9"],
        ["fuzz", "--structure", "ball:m=2,d=3,m=4"],
        ["fuzz", "--structure", "ball:m=2,d=0"],
        ["fuzz", "--structure", "polydisk:2,,1"],
        ["fuzz", "--structure", "polydisk:,2"],
    ], ids=["fuzz-dim-g", "fuzz-seed", "explore-seed", "explore-target", "explore-m", "explore-m-too-large",
            "explore-config-dim-g", "fuzz-sampler",
            "explore-sampler", "explore-ignored-m", "fuzz-out-dir", "explore-out-dir",
            "ball-extra-key", "ball-repeated-key", "ball-no-copies",
            "polydisk-empty-entry", "polydisk-empty-first-entry"])
    def test_campaign_input_error_exits_two_before_writing(self, tmp_path, capsys, argv):
        # a campaign streams its records, so every input is checked before
        # the output file is opened
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"dim_g": 2}', encoding="utf-8")
        out = tmp_path / "r.jsonl"
        argv = [arg.format(cfg=cfg_path, missing=tmp_path / "missing" / "r.jsonl") for arg in argv]
        # the default --out goes first, so an --out in argv takes precedence
        head = ["--out", str(out), "--n", "1", "--points", "1", "--max-order", "1"]
        assert main([argv[0], *head, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["explore", "kaijser-varopoulos", "--structure", "ball:m=3,d=5"],
        ["explore", "kaijser-varopoulos", "--dim-g", "4"],
        ["catalog", "blaschke", "--a", "0.5", "--alpha", "1"],
        ["catalog", "monomial", "--alpha", "1,1", "--seed", "7"],
        ["catalog", "monomial", "--alpha", "1,1", "--d", "9"],
        ["catalog", "symmetric-extremal", "--d", "2", "--a", "0.3"],
    ], ids=["explore-structure", "explore-dim-g", "blaschke-alpha", "monomial-seed", "monomial-d",
            "symmetric-extremal-a"])
    def test_a_flag_its_command_does_not_read_exits_two(self, tmp_path, capsys, argv):
        # each was accepted and ignored: explore fixes its own domain, and a catalog entry reads only its own
        # parameters; argparse now refuses them, as it refuses an unknown catalog entry
        out = tmp_path / "r.jsonl"
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--out", str(out), *argv[1:]] if argv[0] == "explore" else [*argv, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_each_subcommand_offers_only_the_flags_it_reads(self):
        def options(parser):
            return [action.option_strings for action in parser._actions if action.option_strings]

        def commands(parser):
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return sub.choices

        top = commands(harness.build_parser())
        found = {name: options(p) for name, p in top.items() if name != "catalog"}
        found.update({f"catalog {entry}": options(p) for entry, p in commands(top["catalog"]).items()})
        campaign = [["--config"], ["--seed"], ["--n"], ["--points"]]
        common = [["--max-order"], ["--sampler"], ["--tol"], ["--out"]]
        assert found == {name: [["-h", "--help"], *flags] for name, flags in {
            "validate": [["--tol"]],
            "eval": [["--z"]],
            "deriv": [["--z"], ["--alpha"], ["--samples"]],
            "bounds": [["--z"], ["--alpha"], ["--tol"]],
            "catalog blaschke": [["--a"], ["--out"]],
            "catalog monomial": [["--alpha"], ["--out"]],
            "catalog symmetric-extremal": [["--d"], ["--seed"], ["--out"]],
            "fuzz": [*campaign, ["--structure"], ["--dim-g"], *common],
            "explore": [["--m"], *campaign, *common],
        }.items()}
        assert len(found["explore"]) == 10  # --help included
        assert sum(len(flags) - 1 for name, flags in found.items() if name.startswith("catalog ")) == 7
        assert [f.name for f in dataclasses.fields(CampaignConfig)] == [
            "seed", "n_colligations", "structure", "dim_g", "max_order", "points_per_colligation", "sampler",
            "slack_tol", "identity_tol", "out"]


FUZZ_SMALL = ["fuzz", "--n", "1", "--points", "1", "--max-order", "2", "--seed", "4"]


def _child_env(unbuffered: bool) -> dict:
    """The current environment for ``python -m aglerlab``, with the package importable and stdout buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(pathlib.Path(harness.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


class FailingSink:
    """A text sink whose second write raises ``error``, as a full disk or a closed pipe does."""

    def __init__(self, error: OSError):
        self.error, self.lines = error, []

    def write(self, text):
        if len(self.lines) == 1:
            raise self.error
        self.lines.append(text)

    def flush(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class TestCampaignStream:
    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main([*FUZZ_SMALL, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(FUZZ_SMALL) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_records_reach_the_file_before_the_campaign_ends(self, tmp_path, capsys, monkeypatch):
        size = harness.COLLIGATIONS_PER_STACK
        argv = ["fuzz", "--n", str(size + 1), "--points", "1", "--max-order", "2", "--seed", "4"]
        full = tmp_path / "full.jsonl"
        assert main([*argv, "--out", str(full)]) == 0
        calls = []

        def fail_in_second_chunk(*args, **kwargs):
            calls.append(args)
            if len(calls) == size + 1:  # the points of the second chunk's first colligation
                raise RuntimeError("interrupted")
            return sample_point(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_point", fail_in_second_chunk)
        cut = tmp_path / "cut.jsonl"
        with pytest.raises(RuntimeError, match="interrupted"):
            main([*argv, "--out", str(cut)])
        capsys.readouterr()
        written = cut.read_text(encoding="utf-8").splitlines()
        kinds = [json.loads(line)["kind"] for line in written]
        assert kinds[0] == "header" and kinds.count("report") == len(kinds) - 1
        # every record of the first chunk's colligations is on disk, and none of the second's
        hashes = list(dict.fromkeys(json.loads(line)["colligation_hash"] for line in written[1:]))
        assert len(hashes) == size
        expected = full.read_text(encoding="utf-8").splitlines()
        assert written == [line for line in expected[:-1] if '"kind": "report"' not in line
                           or json.loads(line)["colligation_hash"] in hashes]
        assert written == expected[:len(written)]

    @staticmethod
    def _stream(count: int, fail: BaseException | None = None):
        """A campaign of ``count`` lines, the last its summary; with ``fail``, raised in its place."""
        yield '{"kind": "header"}\n'
        for i in range(count - 2):
            yield f'{{"kind": "report", "i": {i}}}\n'
        if fail is not None:
            raise fail
        yield f'{{"kind": "summary", "reports": {count - 2}, "violations": 0, "flagged": 0}}\n'

    @pytest.mark.parametrize("count", [2, 201, 202, 402])
    def test_out_file_and_stdout_hold_the_whole_stream(self, tmp_path, capsys, monkeypatch, count):
        # one line either side of a whole number of batches after the header and first record
        expected = "".join(self._stream(count))
        monkeypatch.setattr(harness, "run_fuzz", lambda config: self._stream(count))
        out = tmp_path / "r.jsonl"
        assert main(["fuzz", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "" and out.read_text(encoding="utf-8") == expected
        assert main(["fuzz"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("error", [RuntimeError("interrupted"), KeyboardInterrupt()],
                             ids=["error", "ctrl-c"])
    def test_a_campaign_that_fails_within_a_batch_leaves_every_line_made(self, tmp_path, capsys, monkeypatch,
                                                                        error):
        count = 2 + harness.WRITE_BATCH + 57  # fails 56 lines into the second batch
        made = "".join(itertools.islice(self._stream(count), count - 1))
        monkeypatch.setattr(harness, "run_fuzz", lambda config: self._stream(count, error))
        out = tmp_path / "cut.jsonl"
        with pytest.raises(type(error)):
            main(["fuzz", "--out", str(out)])
        assert out.read_text(encoding="utf-8") == made
        with pytest.raises(type(error)):
            main(["fuzz"])
        assert capsys.readouterr().out == made

    def test_a_campaign_writes_in_batches(self, capsys, monkeypatch):
        class CountingSink:
            def __init__(self):
                self.texts = []

            def write(self, text):
                self.texts.append(text)

            def flush(self):
                pass

        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["explore", "kaijser-varopoulos", "--n", "10", "--points", "20", "--max-order", "4"]
        assert main(argv) == 0
        capsys.readouterr()
        assert "".join(sink.texts).count("\n") == 20_402
        # the header with the first record, then the other 20,400 lines in whole batches
        assert len(sink.texts) <= 1 + math.ceil(20_400 / harness.WRITE_BATCH)

    def test_a_full_out_file_exits_two(self, capsys, monkeypatch):
        sink = FailingSink(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        monkeypatch.setattr(harness, "open", lambda *args, **kwargs: sink, raising=False)
        assert main([*FUZZ_SMALL, "--out", "r.jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write r.jsonl: {os.strerror(errno.ENOSPC)}\n"
        assert "".join(sink.lines).count("\n") == 2 and not captured.out  # the header and the first record

    def test_a_closed_stdout_exits_nonzero_without_a_traceback(self, capsys, monkeypatch):
        sink = FailingSink(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(FUZZ_SMALL) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        assert "".join(sink.lines).count("\n") == 2  # the header and the first record

    @pytest.mark.parametrize("argv, draw", [
        (["fuzz", "--dim-g", "100000000"], "random_colligation"),  # a Haar unitary of about 1.6e17 bytes
        (["explore", "kaijser-varopoulos", "--n", "100000000", "--points", "1000"], "sample_point"),
    ], ids=["fuzz-dim-g", "explore-n"])
    def test_a_campaign_too_large_for_memory_exits_two(self, tmp_path, capsys, monkeypatch, argv, draw):
        def too_large(*args, **kwargs):  # what numpy raises, without the allocation
            raise MemoryError("Unable to allocate 149. PiB for an array with shape (100000001, 100000001)")

        monkeypatch.setattr(harness, draw, too_large)
        assert main([*argv, "--max-order", "2", "--out", str(tmp_path / "r.jsonl")]) == 2
        assert capsys.readouterr().err == ("error: campaign does not fit in memory: Unable to allocate 149. PiB "
                                           "for an array with shape (100000001, 100000001)\n")

    @pytest.mark.parametrize("argv, draw", [
        (["fuzz"], "random_colligation"),
        (["explore", "kaijser-varopoulos"], "sample_point"),
    ], ids=["fuzz", "explore"])
    @pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
    def test_a_campaign_that_fails_on_its_first_draw_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                                          argv, draw, existing):
        def too_large(*args, **kwargs):  # what numpy raises, without the allocation
            raise MemoryError("Unable to allocate 149. PiB for an array with shape (100000001, 100000001)")

        monkeypatch.setattr(harness, draw, too_large)
        out = tmp_path / "keep.jsonl"
        if existing:
            out.write_text("kept\n", encoding="utf-8")
        assert main([*argv, "--n", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: campaign does not fit in memory: ")
        assert out.read_text(encoding="utf-8") == "kept\n" if existing else not out.exists()

    def test_a_ball_campaign_too_large_for_memory_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 2.91 TiB for an array with shape (100000000000, 4) and data type float64"
        real_empty = np.empty

        def empty(shape, *args, **kwargs):  # what numpy raises past this size, without the allocation
            if np.prod(shape, dtype=float) > 1e9:
                raise MemoryError(message)
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(MemoryError):
            sample_point(Ball(1, 2), rng, "boundary-biased", m=10**11)
        assert rng.bit_generator.state == state
        argv = ["explore", "alpay-kaptanoglu", "--n", "100000000", "--points", "1000", "--max-order", "2"]
        assert main([*argv, "--out", str(tmp_path / "r.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: campaign does not fit in memory: {message}\n"

    @pytest.mark.parametrize("argv, shown", [
        (["fuzz", "--points", "1000000000000000000"], "2000000000000000000 points: array is too big"),
        (["explore", "kaijser-varopoulos", "--n", "1000000000", "--points", "1000000000"],
         "1000000000000000000 points: array is too big"),
        (["fuzz", "--points", "100000000000000000000"], "200000000000000000000 points: Maximum allowed dimension"),
        (["explore", "alpay-kaptanoglu", "--n", "1000000000", "--points", "1000000000"],
         "1000000000000000000 points: array is too big"),
    ], ids=["fuzz-too-big", "explore-polydisk-too-big", "fuzz-past-the-largest-dimension", "explore-ball-too-big"])
    def test_a_campaign_whose_shape_numpy_refuses_exits_two(self, tmp_path, capsys, argv, shown):
        # numpy refuses these shapes with a ValueError before it allocates or anything is drawn
        out = tmp_path / "r.jsonl"
        assert main([*argv, "--max-order", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: campaign does not fit in memory: cannot draw {shown}") and err.count("\n") == 1
        assert not out.exists()

    def test_sample_point_keeps_numpys_refusal_of_a_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            sample_point(Polydisk((1, 1)), np.random.default_rng(0), m=-1)

    def test_main_builds_the_parser_once_per_process(self, capsys):
        parser = harness.build_parser()
        misses = harness.build_parser.cache_info().misses
        assert main(FUZZ_SMALL) == 0 and main(["catalog", "blaschke", "--a", "0.5"]) == 0
        assert harness.build_parser.cache_info().misses == misses and harness.build_parser() is parser
        capsys.readouterr()

    def test_a_reader_that_leaves_early_gets_no_traceback(self):
        # a real pipe, read for 300 bytes of a stream far longer than the pipe's buffer
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(pathlib.Path(harness.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        argv = ["fuzz", "--n", "3", "--points", "6", "--max-order", "4", "--structure", "polydisk:2,1"]
        child = subprocess.Popen([sys.executable, "-m", "aglerlab", *argv], stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, env=env)
        assert len(child.stdout.read(300)) == 300
        child.stdout.close()
        with child.stderr:
            err = child.stderr.read().decode()
        assert child.wait() != 0
        assert err.startswith("error: cannot write stdout:") and len(err.strip().splitlines()) == 1, err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["validate", "{file}"],
        ["eval", "{file}", "--z", "0.1"],
        ["deriv", "{file}", "--z", "0.1", "--alpha", "1"],
        ["bounds", "{file}", "--z", "0.1"],
        ["catalog", "blaschke", "--a", "0.5"],
        ["--help"],
        ["fuzz", "--help"],
    ], ids=["validate", "eval", "deriv", "bounds", "catalog", "help", "fuzz-help"])
    def test_a_printing_command_whose_reader_is_gone_exits_two(self, tmp_path, argv, unbuffered):
        # buffered, the failing write is the interpreter's last flush unless main flushes first; argparse's
        # help printer swallows a failed write, so unbuffered the help was lost with exit 0
        path = tmp_path / "b.json"
        save_colligation(blaschke(0.5), path)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "aglerlab", *(a.format(file=path) for a in argv)],
                                  stdout=write, stderr=subprocess.PIPE, env=_child_env(unbuffered), timeout=120)
        finally:
            os.close(write)
        assert done.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        assert done.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    @pytest.mark.parametrize("argv", [["catalog", "blaschke", "--a", "0.5"], ["--help"], ["fuzz", "--help"]],
                             ids=["catalog", "help", "fuzz-help"])
    def test_a_printing_command_on_a_full_disk_exits_two(self, argv):
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "aglerlab", *argv],
                                  stdout=full, stderr=subprocess.PIPE, env=_child_env(False), timeout=120)
        assert done.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert done.returncode == 2

    def test_an_in_process_call_leaves_the_callers_stdout_usable(self, capsys, monkeypatch):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert main(["catalog", "blaschke", "--a", "0.5"]) == 2
            print("more", file=sink, flush=True)  # its descriptor now discards what it is given
            monkeypatch.undo()
        assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        print("after")
        assert capsys.readouterr().out == "after\n"

    @pytest.mark.skipif(shutil.which("sh") is None, reason="closes or reopens the child's stderr through sh")
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    def test_a_missing_or_unwritable_stderr_loses_only_its_lines(self, tmp_path, redirect):
        # without a stderr, print and argparse's usage line fell back to stdout; on a read-only one, print's
        # OSError became exit 1, and argparse's buffered lines exit 120 at the interpreter's last flush
        def run(*argv):
            return subprocess.run(["sh", "-c", f'exec "$0" -m aglerlab "$@" {redirect}', sys.executable, *argv],
                                  stdout=subprocess.PIPE, env=_child_env(False), cwd=tmp_path, timeout=120)

        normal = subprocess.run([sys.executable, "-m", "aglerlab", *FUZZ_SMALL], capture_output=True,
                                env=_child_env(False), timeout=120)
        assert normal.returncode == 0 and normal.stderr.startswith(b"fuzz: ")
        done = run(*FUZZ_SMALL)
        assert (done.returncode, done.stdout) == (0, normal.stdout)
        done = run(*FUZZ_SMALL, "--out", "r.jsonl")
        assert (done.returncode, done.stdout) == (0, b"")
        assert (tmp_path / "r.jsonl").read_bytes() == normal.stdout
        done = run("explore", "kaijser-varopoulos", "--n", "1", "--points", "1", "--out", "kv.jsonl")
        assert (done.returncode, done.stdout) == (0, b"")
        for argv in (["fuzz", "--n", "0"], ["validate", "missing.json"], ["fuzz", "--bogus"]):
            done = run(*argv)
            assert (done.returncode, done.stdout) == (2, b""), argv

    @pytest.mark.skipif(shutil.which("sh") is None, reason="closes the child's stdout through sh")
    def test_a_closed_stdout_fails_only_the_commands_that_write_it(self, tmp_path):
        # without a stdout Python sets sys.stdout to None: print dropped its text, main's flush and a
        # campaign's write raised AttributeError (exit 1), and argparse printed the help on stderr (exit 0)
        def run(*argv):
            return subprocess.run(["sh", "-c", 'exec "$0" -m aglerlab "$@" >&-', sys.executable, *argv],
                                  stderr=subprocess.PIPE, env=_child_env(False), cwd=tmp_path, timeout=120)

        save_colligation(blaschke(0.5), tmp_path / "b.json")
        closed = f"error: cannot write stdout: {os.strerror(errno.EBADF)}\n".encode()
        for argv in (["validate", "b.json"], ["eval", "b.json", "--z", "0.1"], ["catalog", "blaschke", "--a", "0.5"],
                     FUZZ_SMALL, ["explore", "kaijser-varopoulos", "--n", "1", "--points", "1"],
                     ["--help"], ["fuzz", "--help"]):
            done = run(*argv)
            assert (done.returncode, done.stderr) == (2, closed), argv
        normal = subprocess.run([sys.executable, "-m", "aglerlab", *FUZZ_SMALL], capture_output=True,
                                env=_child_env(False), timeout=120)
        done = run(*FUZZ_SMALL, "--out", "r.jsonl")
        assert (done.returncode, done.stderr) == (0, normal.stderr)
        assert (tmp_path / "r.jsonl").read_bytes() == normal.stdout
        done = run("explore", "kaijser-varopoulos", "--n", "1", "--points", "1", "--out", "kv.jsonl")
        assert done.returncode == 0 and done.stderr.startswith(b"explore kaijser-varopoulos: ")
        for argv in (["fuzz", "--n", "0"], ["validate", "missing.json"]):
            done = run(*argv)
            assert done.returncode == 2 and done.stderr.startswith(b"error: ") and done.stderr != closed, argv

    def test_campaign_holds_no_record_list(self, tmp_path, capsys):
        argv = ["explore", "kaijser-varopoulos", "--max-order", "3", "--out"]
        # a small run first, so that imports made on first use are not counted
        assert main([*argv, str(tmp_path / "warm.jsonl"), "--n", "1", "--points", "1"]) == 0
        out = tmp_path / "kv.jsonl"
        tracemalloc.start()
        try:
            assert main([*argv, str(out), "--n", "5", "--points", "10"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert len(out.read_text(encoding="utf-8").splitlines()) > 2000
        assert peak < 1_000_000, peak

    def test_module_entry_point(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main([*FUZZ_SMALL, "--out", str(out)]) == 0
        capsys.readouterr()
        package_root = str(pathlib.Path(harness.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "aglerlab", *FUZZ_SMALL],
                              capture_output=True, env=env, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout == out.read_bytes()


def _small(**fields):
    return CampaignConfig(**{"seed": 3, "n_colligations": 2, "max_order": 3,
                             "points_per_colligation": 3, **fields})


# a small pool, so that values repeat within and across a chunk's lhs, rhs, slack and ratio
_POOL = [-0.0, 0.0, 5e-324, 1e-300, 2.2250738585072014e-308, 1e16, 1.0, 0.5, -2.5,
         0.30000000000000004, 1.0000000000000002, 0.6666666666666666]


@st.composite
def _handmade_chunk(draw):
    """(zs, flags, lhs arrays, columns, cuts): columns are (tag, alpha, index of their lhs, rhs); the
    rows split into segments at ``cuts``."""
    m = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(_POOL), min_size=m, max_size=m)
    zs = draw(st.lists(st.lists(st.builds(complex, st.sampled_from(_POOL), st.sampled_from(_POOL)),
                                min_size=2, max_size=2), min_size=m, max_size=m))
    flags = draw(st.lists(st.sampled_from([(), ("near-boundary",)]), min_size=m, max_size=m))
    lhs = draw(st.lists(row, min_size=1, max_size=3))
    columns = draw(st.lists(st.tuples(st.sampled_from(["x.a", "x.b"]), st.sampled_from([None, (1,), (0, 2)]),
                                      st.integers(0, len(lhs) - 1), row), min_size=1, max_size=5))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1)))) if m > 1 else []
    return zs, flags, lhs, columns, cuts


class TestReportEncoding:
    """Report lines come from one fixed template; each must be the bytes that
    ``json.dumps(record, sort_keys=True, allow_nan=False)`` gives of its record."""

    @staticmethod
    def written(tmp_path, lines) -> list[str]:
        out = tmp_path / "r.jsonl"
        harness._write(lines, str(out))
        return out.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("make", [
        lambda: run_fuzz(_small(structure="polydisk:2,1", max_order=4)),
        lambda: run_fuzz(_small(structure="ball:m=1,d=2", sampler="boundary-biased")),
        lambda: run_fuzz(_small(structure="polydisk:2,1", dim_g=2)),
        lambda: run_explore("kaijser-varopoulos", _small()),
        lambda: run_explore("alpay-kaptanoglu", _small(), m=3),
    ], ids=["polydisk", "ball-boundary-biased", "dim-g-2", "kaijser-varopoulos", "alpay-kaptanoglu"])
    def test_campaign_lines_are_json_dumps(self, tmp_path, make):
        lines = list(make())
        assert all(line.endswith("\n") and "\n" not in line[:-1] for line in lines)
        expected = [json.dumps(json.loads(line), sort_keys=True, allow_nan=False) for line in lines]
        assert sum('"kind": "report"' in line for line in expected) > 50
        assert self.written(tmp_path, make()) == expected

    def test_handmade_reports(self, tmp_path):
        z = (complex(-0.0, 5e-324), complex(1e16, -1e-300))
        same_values = (complex(0.0, 5e-324), complex(1e16, -1e-300))  # == z, but +0.0
        flags = ("near-boundary", "boundary-biased", "near-boundary")
        chunks = [
            chunk("0123abcd", [z, same_values], [flags, ()],
                  ("x.first", None, [-0.0, 0.25], [5e-324, 1.0]),
                  ("x.second", (0, 3), [1e16, 3.0], [0.1 + 0.2, 3.0]),
                  ("x.third", (1,), [np.float64(2.0) / 3.0, 0.5], [1, 0.0], [("ill-conditioned",)] * 2),
                  ("x.fourth", None, [0.5, 1e-300], [0.0, 1e300])),
            chunk("h", [z], [()], ("x.first", None, [-0.0], [5e-324])),
        ]
        lines = self.written(tmp_path, summarize(HEADER, chunks, slack_tol=1e-9))[1:-1]
        assert lines == [json.dumps(report_record(*row, seed=7), sort_keys=True, allow_nan=False)
                         for chk in chunks for row in chunk_rows(chk)]
        assert lines == [json.dumps(json.loads(line), sort_keys=True, allow_nan=False) for line in lines]
        assert '"z": [[-0.0, 5e-324], [1e+16, -1e-300]]' in lines[0]
        assert '"z": [[0.0, 5e-324], [1e+16, -1e-300]]' in lines[4]
        assert '"z": [[-0.0, 5e-324], [1e+16, -1e-300]]' in lines[8]
        # every column is a float array: an int rhs is written as a float
        assert '"alpha": null' in lines[0] and '"rhs": 1.0,' in lines[2]
        assert '"flags": ["boundary-biased", "near-boundary"]' in lines[0] and '"flags": []' in lines[8]
        assert '"flags": ["boundary-biased", "ill-conditioned", "near-boundary"]' in lines[2]
        assert '"flags": ["ill-conditioned"]' in lines[6] and '"flags": []' in lines[4]

    @settings(max_examples=60, deadline=None)
    @given(drawn=st.lists(_handmade_chunk(), min_size=1, max_size=2))
    def test_lines_of_random_chunks_are_json_dumps(self, drawn):
        assume(all(r == 0.0 or math.isfinite(lhs[k][i] / r)
                   for _, _, lhs, columns, _ in drawn for _, _, k, rhs in columns for i, r in enumerate(rhs)))

        def chunks(share: bool):
            # a column holds its lhs array itself, as producers share one per multi-index, or an equal copy
            out = []
            for zs, flags, lhs, columns, cuts in drawn:
                arrays = [np.array(values) for values in lhs]
                out.append(chunk("h", zs, flags, *[(tag, alpha, arrays[k] if share else arrays[k].copy(), rhs)
                                                   for tag, alpha, k, rhs in columns], cuts=cuts))
            return out

        lines = list(summarize(HEADER, chunks(share=True), slack_tol=1e-9))
        assert [line[:-1] for line in lines[1:-1]] == [
            json.dumps(report_record(*row, seed=7), sort_keys=True, allow_nan=False)
            for chk in chunks(share=True) for row in chunk_rows(chk)]
        assert list(summarize(HEADER, chunks(share=False), slack_tol=1e-9)) == lines

    def test_summary_folds_chunks_in_record_order(self):
        # ratios 1.0 and then twenty times 1e-16 sum to 1.0 one record at a time, as a
        # line-by-line fold adds them, but not pairwise (np.sum) or compensated (fsum)
        chunks = [chunk("h", [[0j]] * 20, [()] * 20, ("x", None, [1.0] + [1e-16] * 19, [1.0] * 20), cuts=(1, 7)),
                  chunk("h", [[0j]], [("near-boundary",)], ("x", None, [1e-16], [1.0]), ("y", None, [0.0], [0.0]))]
        *_, summary = records(summarize(HEADER, chunks, slack_tol=1e-9))
        assert summary["theorems"]["x"] == {"count": 21, "min_slack": 0.0, "min_ratio": 1e-16, "max_ratio": 1.0,
                                            "mean_ratio": 1.0 / 21}
        assert summary["theorems"]["y"]["count"] == 1 and summary["flagged"] == 2 and summary["reports"] == 22

    def test_zero_extremes_do_not_depend_on_how_records_split(self):
        # tag x's least slack and its every ratio are zeros of both signs: -0.0 - 0.0 is a slack of -0.0,
        # -0.0 / 1.0 a ratio of -0.0, and a zero rhs gives the ratio 0.0; numpy's reductions and a
        # first-wins fold pick a zero's sign by where the records fall, so the summary writes 0.0
        lhs = [0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
        rhs = [0.0, -0.0, 1.0, 2.0, 3.0, -0.0]
        columns = [("x", (1,), lhs, rhs), ("x", (2,), lhs[1:] + lhs[:1], rhs[1:] + rhs[:1]),
                   ("y", None, [0.5] * 6, [1.0] * 6)]
        zs, flags = [[0.1j * k] for k in range(6)], [()] * 6

        def split(*rows_and_cuts):
            """Chunks of the rows [a, b), each cut into segments at the rows listed with it."""
            return [chunk("h", zs[a:b], flags[a:b], *[(t, al, l[a:b], r[a:b]) for t, al, l, r in columns],
                          cuts=[c - a for c in cuts]) for a, b, cuts in rows_and_cuts]

        splits = [split((0, 6, ())), split((0, 6, (1, 2, 3, 4, 5))), split((0, 3, (1,)), (3, 6, (5,))),
                  split(*[(k, k + 1, ()) for k in range(6)]), split((0, 1, ()), (1, 6, (2, 4))),
                  split((0, 2, ()), (2, 6, ()))]
        outputs = [list(summarize(HEADER, chunks, slack_tol=1e-9)) for chunks in splits]
        assert all(out == outputs[0] for out in outputs[1:])
        x = json.loads(outputs[0][-1])["theorems"]["x"]
        assert x == {"count": 12, "min_slack": 0.0, "min_ratio": 0.0, "max_ratio": 0.0, "mean_ratio": 0.0}
        assert all(math.copysign(1.0, x[k]) == 1.0 for k in ("min_slack", "min_ratio", "max_ratio"))

    def test_summary_mean_of_ratios_whose_sum_overflows(self):
        # two finite ratios of 2^1023 add up past the float range; their mean is 2^1023
        chunks = [chunk("h", [[0j]] * 2, [()] * 2, ("x", None, [2.0 ** 1023] * 2, [1.0] * 2))]
        *_, summary = records(summarize(HEADER, chunks, slack_tol=1e-9))
        assert summary["theorems"]["x"]["mean_ratio"] == 2.0 ** 1023
        # past the overflow, the mean comes from the ratios times 2^-64, added one record at a time in
        # record order: 2^959 + 2^959 = 2^960 absorbs each 2^906 that follows, so the mean is 2^1019
        # however the records split into segments (a pairwise sum per segment kept some of them)
        ratios = [2.0 ** 1023] * 2 + [2.0 ** 970] * 30
        for cuts in [(), tuple(range(1, 32)), (2, 17)]:
            chunks = [chunk("h", [[0j]] * 32, [()] * 32, ("x", None, ratios, [1.0] * 32), cuts=cuts)]
            *_, summary = records(summarize(HEADER, chunks, slack_tol=1e-9))
            assert summary["theorems"]["x"]["mean_ratio"] == 2.0 ** 1019 == 5.617791046444737e306, cuts

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lhs", "rhs", "z"])
    def test_nonfinite_value_raises(self, tmp_path, field, bad):
        # a record with a non-finite value checked nothing, flagged or not: the
        # stream stops at its chunk, so no summary can count it
        values = {"lhs": 0.5, "rhs": 1.0, "z": (0.1j, 0.2 + 0j)}
        values[field] = (0.1j, complex(0.2, bad)) if field == "z" else bad
        for flags in ((), ("near-boundary",)):
            bad_chunk = chunk("h", [values["z"]], [flags], ("x", None, [values["lhs"]], [values["rhs"]]))
            fine = chunk("h", [(0.1j, 0.2 + 0j)], [flags], ("x", None, [0.5], [1.0]))
            (rep, *_), = chunk_rows(bad_chunk)
            with pytest.raises(ValueError):
                json.dumps(report_record(rep, "h", flags, seed=7), sort_keys=True, allow_nan=False)
            lines = []
            with pytest.raises(ValueError, match="not JSON compliant"):
                lines.extend(summarize(HEADER, [fine, bad_chunk], slack_tol=1e-9))
            assert [rec["kind"] for rec in records(lines)] == ["header", "report"]
            with pytest.raises(ValueError, match="not JSON compliant"):
                self.written(tmp_path, summarize(HEADER, [bad_chunk], slack_tol=1e-9))

    def test_a_nonfinite_value_in_the_last_colligation_stops_its_chunk_before_any_line(self, monkeypatch):
        # the chunk's stacks are checked whole, before the first colligation's records are written
        def last_point_nonfinite(ev, mis, lead):
            table = report_columns(ev, mis, lead)
            table.lhs[-1, 0] = math.nan
            return table

        report_columns = harness.report_columns
        monkeypatch.setattr(harness, "report_columns", last_point_nonfinite)
        lines = []
        with pytest.raises(ValueError, match="not JSON compliant"):
            lines.extend(run_fuzz(_small(n_colligations=3)))
        assert [rec["kind"] for rec in records(lines)] == ["header"]


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


CLI_FILES = {
    "polydisk": lambda: random_colligation(Polydisk((2, 1)), dim_g=1, seed=70),
    "empty-block": lambda: monomial((1, 0)),
    "ball": lambda: random_colligation(Ball(1, 2), dim_g=1, seed=71),
}

# Arbitrary text, plus well-formed values of the files' arity d = 2 and of
# other arities, so that every stage of each command is reached.
_coordinate = st.one_of(
    st.floats(-1.2, 1.2).map(repr),
    st.complex_numbers(max_magnitude=1.2).map(repr),
    st.sampled_from(["nan", "inf", "-infj", "1e400", "0", "1", "-1j"]),
)
_point_text = st.one_of(
    st.text(max_size=12),
    st.lists(_coordinate, min_size=2, max_size=2).map(",".join),
    st.lists(_coordinate, max_size=3).map(",".join),
)
_alpha_text = st.one_of(
    st.text(max_size=8),
    st.lists(st.integers(0, 10).map(str), min_size=2, max_size=2).map(",".join),
    st.lists(st.integers(-2, 12).map(str), max_size=3).map(",".join),
)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, build in CLI_FILES.items():
        paths[name] = str(root / f"{name}.json")
        save_colligation(build(), paths[name])
    return paths


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["eval", "deriv", "bounds"]),
    subject=st.sampled_from(sorted(CLI_FILES)),
    z=_point_text,
    alpha=_alpha_text,
    samples=st.integers(1, 256),
)
def test_cli_exits_with_a_contract_code(cli_files, command, subject, z, alpha, samples):
    # every subject file has d = 2, so the oracle grid has at most 256^2 points
    argv = [command, cli_files[subject], f"--z={z}"]
    if command != "eval":
        argv.append(f"--alpha={alpha}")
    if command == "deriv":
        argv.append(f"--samples={samples}")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejecting the argv itself
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)
