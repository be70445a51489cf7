"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench

Runs every workload once at the size of its reference campaign, untraced and
traced, and checks that the emitted metric names match ``BENCHMARK.json``,
that the outputs pass their checks, and that each layer has spans on the
workload where the layer map in ``README.md`` predicts it works.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Span -> workloads on which it must be called (README layer map).
WORKS_ON = {
    "transfer.evaluate": ("fuzz-polydisk-scalar", "fuzz-ball-matrix"),
    "matrixcore.spectral_norm": ("fuzz-polydisk-scalar", "fuzz-ball-matrix"),
    "colligation.projection": ("fuzz-polydisk-highorder", "fuzz-ball-matrix"),
    "derivative.koperator": ("fuzz-polydisk-highorder",),
    "derivative.arrangements": ("fuzz-polydisk-highorder",),
    "derivative.partial_at": ("fuzz-polydisk-highorder",),
    "bounds.polydisk_rhs": ("explore-polynomial",),
    "bounds.ball_rhs": ("explore-polynomial",),
    "derivative.poly_partial": ("explore-polynomial",),
    "harness.main": ("explore-polynomial", "fuzz-polydisk-scalar"),
    "harness.summarize": ("explore-polynomial", "fuzz-polydisk-scalar"),
    "harness.run_explore": ("explore-polynomial",),
    "harness.run_fuzz": ("fuzz-polydisk-scalar",),
    "colligation.random_colligation": ("fuzz-polydisk-scalar",),
    "colligation.colligation_hash": ("fuzz-polydisk-scalar",),
    "matrixcore.haar_unitary": ("fuzz-polydisk-scalar",),
}
# Modules predicted to do no work on a workload.
IDLE_ON = {"explore-polynomial": ("transfer", "matrixcore")}


def tiny(workload: run.Workload) -> run.Workload:
    """The workload with its reference campaign as the timed campaign."""
    records = [json.loads(line) for line in run.load_reference(workload).splitlines()]
    return dataclasses.replace(
        workload, argvs=workload.ref_argvs,
        reports=sum(r["kind"] == "report" for r in records),
    )


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run.run_workload(tiny(workload), seed=5, seconds=0, trace=trace)
        for name, workload in run.WORKLOADS.items()
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.benchmarked()


@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(results, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    for name in run.WORKLOADS:
        result = results[name, trace]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] is not None for v in result["metrics"].values()), name


def test_outputs_pass_checks(results):
    for (name, trace), result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, trace)
        assert result["attempted"] > 0


def test_layers_have_spans_where_predicted(results):
    for span, workloads in WORKS_ON.items():
        for name in workloads:
            assert results[name, True]["metrics"][f"{span}.calls"]["value"] > 0, (span, name)
    for name, modules in IDLE_ON.items():
        metrics = results[name, True]["metrics"]
        for module in modules:
            for fn in spans.LAYER_FUNCTIONS[module]:
                assert metrics[f"{module}.{fn}.calls"]["value"] == 0, (module, fn, name)


def test_missing_function_is_reported_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(spans, "LAYER_FUNCTIONS", {
        "matrixcore": ("no_such_function",), "no_such_module": ("f",),
    })
    missing = spans.Recorder().install()
    assert missing == ["matrixcore.no_such_function", "no_such_module.f"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fuzz-polydisk-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
