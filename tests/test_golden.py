"""Campaign and ``bounds`` output stays byte-identical to committed golden files.

Each case runs the CLI entry point and compares its output, byte for byte,
with ``tests/data/golden-<name>.*.gz``, or, for the full-size campaigns of
``DIGESTS``, with the SHA-256 digest of that output in ``tests/data/digests.json``.
The golden files were written by an earlier implementation of the record path,
so a change to how reports are computed or encoded must reproduce every bit of
every line.  To see what a change does to them, writing nothing, run

    PYTHONPATH=src python tests/test_golden.py --check

It prints, per golden campaign and per benchmark reference (``perfbench/reference/``,
replayed at its seed) and per theorem tag, the records added, removed and
byte-changed, how many changed ones the benchmark's ``records_agree`` refuses,
and the largest relative deviation of lhs, rhs, slack and ratio; and whether
each digest and ``bounds`` golden changed.  It exits 1 if a golden, digest or
``bounds`` golden changed or a reference record is refused.  To rewrite the
goldens and the digests (only when the records are meant to change), run

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from aglerlab import Ball, Polydisk, random_colligation
from aglerlab.colligation import save_colligation
from aglerlab.harness import main
from conftest import perfbench_run

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
DIGEST_FILE = DATA / "digests.json"

CAMPAIGNS = {
    "fuzz-polydisk-2-1": ["fuzz", "--structure", "polydisk:2,1", "--max-order", "4",
                          "--n", "3", "--points", "4", "--seed", "11"],
    "fuzz-polydisk-1-1-1": ["fuzz", "--structure", "polydisk:1,1,1", "--max-order", "6",
                            "--n", "1", "--points", "2", "--seed", "12"],
    "fuzz-ball-2-3": ["fuzz", "--structure", "ball:m=2,d=3", "--max-order", "4",
                      "--n", "2", "--points", "3", "--seed", "13"],
    "fuzz-ball-1-2-boundary": ["fuzz", "--structure", "ball:m=1,d=2", "--sampler", "boundary-biased",
                               "--max-order", "3", "--n", "3", "--points", "4", "--seed", "14"],
    "fuzz-polydisk-2-1-dim-g-2": ["fuzz", "--structure", "polydisk:2,1", "--dim-g", "2",
                                  "--max-order", "3", "--n", "2", "--points", "3", "--seed", "15"],
    "explore-kaijser-varopoulos": ["explore", "kaijser-varopoulos", "--max-order", "4",
                                   "--n", "2", "--points", "5", "--seed", "16"],
    "explore-alpay-kaptanoglu": ["explore", "alpay-kaptanoglu", "--m", "3", "--max-order", "4",
                                "--n", "2", "--points", "5", "--seed", "17"],
    # MAX_ORDER = 8: pins the klists of length 7 and 8
    "fuzz-ball-1-3-order-8": ["fuzz", "--structure", "ball:m=1,d=3", "--max-order", "8",
                              "--n", "1", "--points", "1", "--seed", "18"],
    "fuzz-polydisk-1-1-order-8": ["fuzz", "--structure", "polydisk:1,1", "--max-order", "8",
                                  "--n", "1", "--points", "2", "--seed", "19"],
}

# full-size campaigns, each the shape of a benchmark workload or of a path the small goldens miss,
# checked by the SHA-256 of their output in DIGEST_FILE
DIGESTS = {
    "fuzz-polydisk-scalar": ["fuzz", "--structure", "polydisk:2,1", "--max-order", "4",
                             "--n", "5", "--points", "6", "--seed", "31"],
    "fuzz-polydisk-highorder": ["fuzz", "--structure", "polydisk:1,1,1", "--max-order", "6",
                                "--n", "1", "--points", "3", "--seed", "32"],
    "explore-kaijser-varopoulos-full": ["explore", "kaijser-varopoulos", "--max-order", "4",
                                        "--n", "10", "--points", "20", "--seed", "33"],
    "explore-alpay-kaptanoglu-full": ["explore", "alpay-kaptanoglu", "--m", "3", "--max-order", "4",
                                      "--n", "10", "--points", "20", "--seed", "34"],
    # the boundary-biased sampler on both explore targets: its extra draw per point and the Gram point sets
    "explore-kaijser-varopoulos-boundary": ["explore", "kaijser-varopoulos", "--sampler", "boundary-biased",
                                            "--max-order", "4", "--n", "10", "--points", "20", "--seed", "37"],
    "explore-alpay-kaptanoglu-boundary": ["explore", "alpay-kaptanoglu", "--m", "3", "--sampler", "boundary-biased",
                                          "--max-order", "4", "--n", "10", "--points", "20", "--seed", "38"],
    # campaigns of more than 16 colligations: the README example, a ragged last
    # chunk with matrix phi, and per-row flags
    "fuzz-readme-example": ["fuzz", "--seed", "1", "--n", "100", "--structure", "polydisk:2,1",
                            "--max-order", "4", "--points", "6"],
    "fuzz-ball-2-3-ragged-chunk": ["fuzz", "--structure", "ball:m=2,d=3", "--dim-g", "1", "--max-order", "4",
                                   "--n", "17", "--points", "3", "--seed", "35"],
    "fuzz-polydisk-2-1-dim-g-2-boundary": ["fuzz", "--structure", "polydisk:2,1", "--dim-g", "2",
                                           "--sampler", "boundary-biased", "--max-order", "3",
                                           "--n", "17", "--points", "2", "--seed", "36"],
}

# (colligation, --z, --alpha) for the ``bounds`` command
BOUNDS = {
    "bounds-polydisk": (lambda: random_colligation(Polydisk((2, 1)), dim_g=1, seed=21),
                        "0.3-0.2j,-0.1+0.5j", "2,1"),
    "bounds-ball": (lambda: random_colligation(Ball(1, 2), dim_g=1, seed=22),
                    "0.2+0.4j,-0.5+0.1j", "1,2"),
}


def campaign_output(name: str, tmp_path: Path, args: list[str] | None = None) -> bytes:
    out = tmp_path / f"{name}.jsonl"
    assert main([*(args or CAMPAIGNS[name]), "--out", str(out)]) == 0
    return out.read_bytes()


def digest(name: str, tmp_path: Path) -> str:
    return hashlib.sha256(campaign_output(name, tmp_path, DIGESTS[name])).hexdigest()


def bounds_output(name: str, tmp_path: Path) -> bytes:
    build, z, alpha = BOUNDS[name]
    path = tmp_path / f"{name}.json"
    save_colligation(build(), path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["bounds", str(path), f"--z={z}", "--alpha", alpha]) == 0
    return out.getvalue().encode("utf-8")


def golden(name: str, suffix: str) -> bytes:
    return gzip.decompress((DATA / f"golden-{name}.{suffix}.gz").read_bytes())


FIELDS = ("lhs", "rhs", "slack", "ratio")


def _deviation(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two record values: 0 if they are equal, inf if they are not numbers."""
    if a == b:
        return 0.0
    try:
        return abs(a - b) / max(abs(a), abs(b))
    except TypeError:
        return float("inf")


def record_changes(old: bytes, new: bytes) -> dict[str, dict]:
    """Per theorem tag of the JSONL records ``old`` (``<header>`` and ``<summary>`` for the others), in order of
    first appearance, what ``new`` changes: of its ``records`` in ``old``, how many ``new`` has ``added`` and
    ``removed`` at the end, how many of the paired records (the k-th of the tag in each) are ``changed`` in their
    bytes, how many of those (summaries aside) the benchmark's ``records_agree`` refuses (``outside``), and per
    field of FIELDS the largest relative deviation over the pairs."""
    agree = perfbench_run().records_agree

    def by_tag(blob: bytes) -> dict[str, list]:
        groups: dict[str, list] = {}
        for line in blob.splitlines():
            rec = json.loads(line)
            groups.setdefault(rec.get("theorem_tag") or f"<{rec['kind']}>", []).append((line, rec))
        return groups

    before, after = by_tag(old), by_tag(new)
    rows = {}
    for tag in {**before, **after}:
        was, now = before.get(tag, []), after.get(tag, [])
        row = rows[tag] = {"records": len(was), "added": max(len(now) - len(was), 0),
                           "removed": max(len(was) - len(now), 0), "changed": 0, "outside": 0,
                           **dict.fromkeys(FIELDS, 0.0)}
        for (old_line, old_rec), (new_line, new_rec) in zip(was, now):
            if old_line != new_line:
                row["changed"] += 1
                # a summary folds the reports, which are judged one by one
                row["outside"] += old_rec["kind"] != "summary" and not agree(new_rec, old_rec)
                for field in FIELDS:
                    row[field] = max(row[field], _deviation(old_rec.get(field), new_rec.get(field)))
    return rows


TABLE_HEAD = ("| campaign | tag | records | added | removed | byte-changed | outside tolerance "
              "| lhs dev. | rhs dev. | slack dev. | ratio dev. |\n|---|---|---|---|---|---|---|---|---|---|---|")


def table_rows(campaign: str, rows: dict[str, dict]) -> list[str]:
    """The markdown rows of :func:`record_changes` of one campaign, one per tag."""
    return [f"| {campaign} | {tag} | {row['records']} | {row['added']} | {row['removed']} | {row['changed']} "
            f"| {row['outside']} | " + " | ".join(f"{row[field]:.1e}" for field in FIELDS) + " |"
            for tag, row in rows.items()]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden(name, tmp_path, capsys):
    assert campaign_output(name, tmp_path) == golden(name, "jsonl")
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_full_size_campaign_matches_digest(name, tmp_path, capsys):
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(DIGESTS)  # a campaign without a digest, or a digest without a campaign
    assert digest(name, tmp_path) == recorded[name]
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds_matches_golden(name, tmp_path):
    assert bounds_output(name, tmp_path) == golden(name, "txt")


def reference_outputs(tmp_path: Path) -> dict[str, tuple[bytes, bytes]]:
    """Per benchmarked workload, its committed reference and its small campaign replayed at the reference seed."""
    run = perfbench_run()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = {}
    for name in names:
        workload = run.WORKLOADS[name]
        replay = b"".join(campaign_output(f"{name}-{i}", tmp_path, [*argv, "--seed", str(run.REFERENCE_SEED)])
                          for i, argv in enumerate(workload.ref_argvs))
        out[name] = run.load_reference(workload), replay
    return out


def check(tmp_path: Path) -> bool:
    """Print what the records of this tree change in the committed data, rewriting none of it; True if no
    golden, digest or ``bounds`` golden changed and every reference record agrees."""
    same = True
    goldens = {name: (golden(name, "jsonl"), campaign_output(name, tmp_path)) for name in CAMPAIGNS}
    # a golden must keep its bytes, a reference only agree with them
    for title, pairs, exact in [("Golden campaigns", goldens, True),
                                ("Benchmark references", reference_outputs(tmp_path), False)]:
        print(f"{title}\n\n{TABLE_HEAD}")
        for name, (old, new) in pairs.items():
            rows = record_changes(old, new)
            print(*table_rows(name, rows), sep="\n")
            refused = any(row["added"] or row["removed"] or row["outside"] for row in rows.values())
            same = same and not refused and not (exact and old != new)
        print()
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    verdicts = [("digest", name, recorded.get(name) == digest(name, tmp_path)) for name in DIGESTS]
    verdicts += [("bounds golden", name, golden(name, "txt") == bounds_output(name, tmp_path)) for name in BOUNDS]
    print("| data | campaign | status |\n|---|---|---|")
    for kind, name, unchanged in verdicts:
        print(f"| {kind} | {name} | {'unchanged' if unchanged else 'changed'} |")
    return same and all(unchanged for *_, unchanged in verdicts)


def write(tmp_path: Path) -> None:
    """Rewrite the goldens and the digests from this tree's records."""
    blobs = {f"{name}.jsonl": campaign_output(name, tmp_path) for name in CAMPAIGNS}
    blobs.update({f"{name}.txt": bounds_output(name, tmp_path) for name in BOUNDS})
    digests = {name: digest(name, tmp_path) for name in DIGESTS}
    DATA.mkdir(exist_ok=True)
    for name, blob in blobs.items():
        (DATA / f"golden-{name}.gz").write_bytes(gzip.compress(blob, mtime=0))
        print(f"wrote golden-{name}.gz ({len(blob)} bytes)")
    DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_FILE.name} ({len(digests)} digests)")


def test_the_comparator_reads_a_moved_rhs_by_its_size():
    blob = golden("fuzz-polydisk-1-1-order-8", "jsonl")
    rows = record_changes(blob, blob)
    assert len(rows) > 5 and all(row == {"records": row["records"], "added": 0, "removed": 0, "changed": 0,
                                         "outside": 0, **dict.fromkeys(FIELDS, 0.0)} for row in rows.values())
    lines = blob.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if b'"polydisk.mixed"' in line)
    for scale, outside in [(1e-13, 0), (1e-9, 1)]:  # REL_TOL 1e-12 lies between
        moved = json.loads(lines[k])
        moved["rhs"] *= 1.0 + scale
        rows = record_changes(blob, b"".join([*lines[:k], json.dumps(moved, sort_keys=True).encode() + b"\n",
                                              *lines[k + 1:]]))
        assert [tag for tag, row in rows.items() if row["changed"]] == ["polydisk.mixed"]
        row = rows["polydisk.mixed"]
        assert (row["added"], row["removed"], row["changed"], row["outside"]) == (0, 0, 1, outside)
        assert row["rhs"] == pytest.approx(scale, rel=1e-2) and row["lhs"] == row["slack"] == row["ratio"] == 0.0
    (line,) = [line for line in table_rows("order-8", rows) if "polydisk.mixed" in line]
    assert line.startswith("| order-8 | polydisk.mixed |") and "| 1 | 1 | 0.0e+00 | 1.0e-09 | 0.0e+00 |" in line


def test_check_finds_every_committed_record_unchanged(tmp_path, capsys):
    assert check(tmp_path)
    table = capsys.readouterr().out
    assert "| changed |" not in table and table.count("| unchanged |") == len(DIGESTS) + len(BOUNDS)
    assert all(f"| {name} | polydisk.factorial |" in table for name in ("fuzz-polydisk-2-1", "explore-polynomial"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the goldens and digests, or compare with them.")
    parser.add_argument("--check", action="store_true", help="print what would change and write nothing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.check:
            sys.exit(0 if check(Path(tmp)) else 1)
        write(Path(tmp))
