"""Regenerate the committed reference outputs in ``reference/``.

    python3 perfbench/make_reference.py

Each workload's small reference campaign is run at the reference seed and
its output files are stored concatenated and gzip-compressed.  Every
benchmark run compares its own replay against these files, so regenerate
them only in a change whose purpose is to alter the records.
"""

import gzip
import sys

import run


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in run.WORKLOADS.values():
        result, outputs, error = run.run_child(
            workload.ref_argvs, run.REFERENCE_SEED, False, f"{workload.name}-ref"
        )
        if result is None:
            print(f"{workload.name}: {error}", file=sys.stderr)
            return 1
        path = run.REFERENCE / f"{workload.name}.jsonl.gz"
        path.write_bytes(gzip.compress(b"".join(outputs), mtime=0))
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
