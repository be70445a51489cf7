"""Campaign and ``bounds`` output stays byte-identical to committed golden files.

Each case runs the CLI entry point and compares its output, byte for byte,
with ``tests/data/golden-<name>.*.gz``, or, for the full-size campaigns of the
benchmark workloads, with the SHA-256 digest of that output in ``DIGESTS``.  The golden files were written by an
earlier implementation of the record path, so a change to how reports are
computed or encoded must reproduce every bit of every line.  To rewrite them
(only when the records are meant to change), run

    PYTHONPATH=src python tests/test_golden.py

which also prints the digests to paste into ``DIGESTS``.
"""

import contextlib
import gzip
import hashlib
import io
from pathlib import Path

import pytest

from aglerlab import Ball, Polydisk, random_colligation
from aglerlab.colligation import save_colligation
from aglerlab.harness import main

DATA = Path(__file__).resolve().parent / "data"

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

# each benchmark workload's campaign shape at full size, by the SHA-256 of its output
DIGESTS = {
    "fuzz-polydisk-scalar": (["fuzz", "--structure", "polydisk:2,1", "--max-order", "4",
                              "--n", "5", "--points", "6", "--seed", "31"],
                             "1095945bc2ab85f65b21919eabdf67512a015b6b3bf3511a5dc0c483101c61ca"),
    "fuzz-polydisk-highorder": (["fuzz", "--structure", "polydisk:1,1,1", "--max-order", "6",
                                 "--n", "1", "--points", "3", "--seed", "32"],
                                "9c9c4a5758cb4b68430dfc5ebebf24e4e23456dfc15e8e156f20bf24c6a991bc"),
    "explore-kaijser-varopoulos-full": (["explore", "kaijser-varopoulos", "--max-order", "4",
                                         "--n", "10", "--points", "20", "--seed", "33"],
                                        "8595c5f8524cac19ba4f5418543ade082484b68d6f5ac3f0d73a558454dbc0ab"),
    "explore-alpay-kaptanoglu-full": (["explore", "alpay-kaptanoglu", "--m", "3", "--max-order", "4",
                                       "--n", "10", "--points", "20", "--seed", "34"],
                                      "26420418f4bebda9989e7666944d9fef20ca97c5c299731893eece36c1436006"),
    # the boundary-biased sampler on both explore targets: its extra draw per point and the Gram point sets
    "explore-kaijser-varopoulos-boundary": (["explore", "kaijser-varopoulos", "--sampler", "boundary-biased",
                                             "--max-order", "4", "--n", "10", "--points", "20", "--seed", "37"],
                                            "2bd8d9f6651228f6812607f8f71be9c885265aaf77e883c7600fc45a1b19b7f5"),
    "explore-alpay-kaptanoglu-boundary": (["explore", "alpay-kaptanoglu", "--m", "3", "--sampler", "boundary-biased",
                                           "--max-order", "4", "--n", "10", "--points", "20", "--seed", "38"],
                                          "b04a35137d3c32122f2544eac8b5f5d5c8bb231f5058b6e9f379280aae20b1ff"),
    # campaigns of more than 16 colligations: the README example, a ragged last
    # chunk with matrix phi, and per-row flags
    "fuzz-readme-example": (["fuzz", "--seed", "1", "--n", "100", "--structure", "polydisk:2,1",
                             "--max-order", "4", "--points", "6"],
                            "746e2d549f2ed28305f63fe1110df8c679762e8a8cbf34b754e5f9b7fa590c6b"),
    "fuzz-ball-2-3-ragged-chunk": (["fuzz", "--structure", "ball:m=2,d=3", "--dim-g", "1", "--max-order", "4",
                                    "--n", "17", "--points", "3", "--seed", "35"],
                                   "d4db5e41c7477e17a8122e02f42243ba7d41f1b62704e2e1eed2d16cc5061f3b"),
    "fuzz-polydisk-2-1-dim-g-2-boundary": (["fuzz", "--structure", "polydisk:2,1", "--dim-g", "2",
                                            "--sampler", "boundary-biased", "--max-order", "3",
                                            "--n", "17", "--points", "2", "--seed", "36"],
                                           "6962a7a8a5728af3bc407ecf302ce1b17a32eb902223dff354d279359253963f"),
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
    return hashlib.sha256(campaign_output(name, tmp_path, DIGESTS[name][0])).hexdigest()


def bounds_output(name: str, tmp_path: Path) -> bytes:
    build, z, alpha = BOUNDS[name]
    path = tmp_path / f"{name}.json"
    save_colligation(build(), path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["bounds", str(path), f"--z={z}", "--alpha", alpha]) == 0
    return out.getvalue().encode("utf-8")


def golden(name: str, suffix: str) -> bytes:
    return gzip.decompress((DATA / f"golden-{name}.{suffix}.gz").read_bytes())


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden(name, tmp_path, capsys):
    assert campaign_output(name, tmp_path) == golden(name, "jsonl")
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_full_size_campaign_matches_digest(name, tmp_path, capsys):
    assert digest(name, tmp_path) == DIGESTS[name][1]
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds_matches_golden(name, tmp_path):
    assert bounds_output(name, tmp_path) == golden(name, "txt")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        blobs = {f"{name}.jsonl": campaign_output(name, Path(tmp)) for name in CAMPAIGNS}
        blobs.update({f"{name}.txt": bounds_output(name, Path(tmp)) for name in BOUNDS})
        digests = {name: digest(name, Path(tmp)) for name in DIGESTS}
    DATA.mkdir(exist_ok=True)
    for name, blob in blobs.items():
        (DATA / f"golden-{name}.gz").write_bytes(gzip.compress(blob, mtime=0))
        print(f"wrote golden-{name}.gz ({len(blob)} bytes)")
    for name, value in digests.items():
        print(f"digest {name}: {value}")
