"""Campaign records still match the benchmark's committed reference output.

Each benchmarked workload's small campaign is replayed at the reference seed
and compared with ``perfbench/reference/`` by the benchmark's own check
(``perfbench/run.py``), so the comparison rule is not written twice.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from aglerlab.harness import main

ROOT = Path(__file__).resolve().parents[1]


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclass looks its module up by name
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved_path  # run.py puts perfbench/ on the path to import spans
    return run


run = _load_run()
BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_reference_campaign_matches(name, tmp_path, capsys):
    workload = run.WORKLOADS[name]
    outputs = []
    for i, argv in enumerate(workload.ref_argvs):
        out = tmp_path / f"{i}.jsonl"
        assert main([*argv, "--seed", str(run.REFERENCE_SEED), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    reference = [json.loads(line) for line in run.load_reference(workload).splitlines()]
    expected = sum(r["kind"] == "report" for r in reference)
    written, failed = run.check_campaign(outputs, expected, reference)
    assert (written, failed) == (expected, 0)
