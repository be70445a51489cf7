"""Campaign records still match the benchmark's committed reference output.

Each benchmarked workload's small campaign is replayed at the reference seed
and compared with ``perfbench/reference/`` by the benchmark's own check
(``perfbench/run.py``), so the comparison rule is not written twice.
"""

import json
from pathlib import Path

import pytest

from aglerlab.harness import main
from conftest import perfbench_run

ROOT = Path(__file__).resolve().parents[1]
run = perfbench_run()
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
