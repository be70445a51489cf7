"""Outside-in campaign benchmark for aglerlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table each

A closed loop runs one campaign at a time, each in a fresh single-threaded
child interpreter (BLAS threads pinned to 1) that imports ``aglerlab`` from
``src/`` and calls the public CLI entry point ``aglerlab.harness.main``
in-process with ``--out FILE``.  Campaign seeds are drawn from ``--seed``.
Every campaign's records are checked here, independently of the campaign's
own summary, and each run also replays a small campaign at the reference
seed and compares it with the committed output in ``reference/``.

``--trace 0`` reports the end-to-end metrics (medians over the run's
campaigns).  ``--trace 1`` alternates untraced and traced campaigns and
reports the per-layer metrics from the span recorder in ``spans.py``, plus
the tracing overhead.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full results
file with an environment block goes to ``perfbench/out/``.  A run that
printed its result exits 0 (failed output checks show in ``correct`` and
``failed``); ``--workload all`` prints the tables only and exits 1 if any
output check failed.  The exit code is 2 if the program cannot be found.
A workload with a ``known_defect`` is runnable and part of ``all`` but not
listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from spans import LAYER_FUNCTIONS, SPAN_NAMES  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REFERENCE_SEED = 1
REL_TOL = 1e-12
# identity.* lhs values are rounding noise near 1e-16; compare them against a
# floor three orders below IDENTITY_TOL (1e-10) instead of relatively.
IDENTITY_FLOOR = 1e-13
CHILD_TIMEOUT_S = 120.0
# Nominal seconds of the calibration kernel in child.py (about its median on
# a shared 2-vCPU Intel Xeon VM); see host_factor.
CALIBRATION_S = 0.14


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    argvs: tuple[tuple[str, ...], ...]
    """One campaign: CLI argv per ``main`` call; ``--seed``/``--out`` are appended."""
    reports: int
    """Report records one campaign writes (independent of the seed)."""
    ref_argvs: tuple[tuple[str, ...], ...]
    """The same shape at small size, replayed at REFERENCE_SEED every run."""
    known_defect: str = ""
    """Why some campaigns of this workload fail their output checks, if they do.

    Such a workload stays runnable here, so the failure keeps showing, but is
    left out of BENCHMARK.json, whose workloads must run without a failure.
    """


def _fuzz(structure: str, max_order: int, n: int, points: int, *extra: str) -> tuple[str, ...]:
    return ("fuzz", "--structure", structure, *extra, "--max-order", str(max_order),
            "--n", str(n), "--points", str(points))


def _explore(n: int, points: int) -> tuple[tuple[str, ...], ...]:
    size = ("--max-order", "4", "--n", str(n), "--points", str(points))
    return (("explore", "kaijser-varopoulos", *size),
            ("explore", "alpay-kaptanoglu", "--m", "3", *size))


WORKLOADS = {w.name: w for w in (
    Workload(
        "fuzz-polydisk-scalar",
        (_fuzz("polydisk:2,1", 4, 5, 6),), 2770,
        (_fuzz("polydisk:2,1", 4, 1, 2),),
    ),
    Workload(
        "fuzz-polydisk-highorder",
        (_fuzz("polydisk:1,1,1", 6, 1, 3),), 1306,
        (_fuzz("polydisk:1,1,1", 6, 1, 1),),
    ),
    Workload(
        "fuzz-ball-matrix",
        (_fuzz("ball:m=2,d=3", 4, 3, 5, "--dim-g", "1"),), 2352,
        (_fuzz("ball:m=2,d=3", 4, 1, 1, "--dim-g", "1"),),
        known_defect=(
            "bounds.wiener_check applies the one-variable bound 1 - |c_0|^2 to ball "
            "subjects; about 1 random colligation in 300 gets an unflagged "
            "wiener.coefficient record with negative slack"
        ),
    ),
    Workload(
        "explore-polynomial",
        _explore(10, 20), 26010,
        _explore(1, 2),
    ),
)}


def benchmarked() -> list[str]:
    """Workloads listed in BENCHMARK.json: those without a known defect."""
    return [name for name, w in WORKLOADS.items() if not w.known_defect]


def points_per_campaign(argvs) -> int:
    """Sample points a campaign visits: sum of n * points over its main calls."""
    total = 0
    for argv in argvs:
        total += int(argv[argv.index("--n") + 1]) * int(argv[argv.index("--points") + 1])
    return total


def end_to_end_units() -> dict[str, str]:
    return {"reports_per_s": "reports/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in LAYER_FUNCTIONS:
        units[f"{module}.self_s"] = "s"
    units["transfer.evaluate.calls_per_point"] = "calls/point"
    units["colligation.projection.calls_per_point"] = "calls/point"
    units["derivative.koperator.calls_per_point"] = "calls/point"
    units["matrixcore.spectral_norm.scalar_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


# --- environment ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads_in_campaigns": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# --- one campaign ---------------------------------------------------------------


def run_child(argvs, seed: int, trace: bool, tag: str) -> tuple[dict | None, list[bytes], str]:
    """Run one campaign in a fresh interpreter.

    Returns (child result or None on crash, output file contents, error text).
    """
    outs = [OUT / f"{tag}-{os.getpid()}-{i}.jsonl" for i in range(len(argvs))]
    spec = {
        "src": str(SRC),
        "argvs": [list(argv) + ["--seed", str(seed), "--out", str(path)]
                  for argv, path in zip(argvs, outs)],
        "trace": trace,
        "spans_out": str(OUT / f"{tag}.spans.json") if trace else None,
    }
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            env={**os.environ, **THREAD_ENV}, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    outputs = []
    for path in outs:
        if path.exists():
            outputs.append(path.read_bytes())
            path.unlink()
    if proc is None:
        return None, outputs, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or len(outputs) != len(outs):
        return None, outputs, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, outputs, f"no result line: {proc.stdout[-2000:]!r}"
    result["setup_s"] = result["ready"] - spawned
    return result, outputs, ""


# --- output checks --------------------------------------------------------------


def parse_records(outputs: list[bytes]) -> list[dict] | None:
    """All records of a campaign's outputs, or None if any file is malformed.

    Each file must be a header, report records, and a summary whose report
    count matches.
    """
    records = []
    for data in outputs:
        try:
            recs = [json.loads(line) for line in data.splitlines()]
        except json.JSONDecodeError:
            return None
        if len(recs) < 2 or recs[0].get("kind") != "header" or recs[-1].get("kind") != "summary":
            return None
        body = recs[1:-1]
        if any(r.get("kind") != "report" for r in body) or recs[-1].get("reports") != len(body):
            return None
        records.extend(recs)
    return records


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def report_failed(rec: dict, slack_tol: float) -> bool:
    """Non-finite lhs/rhs/slack, or an unflagged slack below -slack_tol."""
    if not all(_finite(rec.get(key)) for key in ("lhs", "rhs", "slack")):
        return True
    return not rec["flags"] and rec["slack"] < -slack_tol


def _close(a, b, floor: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not (_finite(a) and _finite(b)):
            return (a == b) or (a != a and b != b)  # equal infinities, or both NaN
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + floor
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, floor) for x, y in zip(a, b))
    return a == b


def records_agree(got: dict, ref: dict) -> bool:
    """Equal fields; floats within REL_TOL relative (identity.* with a floor)."""
    if got.keys() != ref.keys():
        return False
    identity = str(ref.get("theorem_tag", "")).startswith("identity.")
    for key, ref_value in ref.items():
        floor = 0.0
        if identity and key in ("lhs", "slack"):
            floor = IDENTITY_FLOOR
        elif identity and key == "ratio" and ref.get("rhs"):
            floor = IDENTITY_FLOOR / abs(ref["rhs"])
        if not _close(got[key], ref_value, floor):
            return False
    return True


def check_campaign(outputs: list[bytes], expected: int, reference: list[dict] | None = None) -> tuple[int, int]:
    """(Reports written, failed reports out of ``expected``) for one campaign.

    A report fails if ``report_failed`` says so or, given a reference, if it
    disagrees with the reference record in the same position.  Missing or
    extra reports fail; a malformed output fails every expected report.
    """
    records = parse_records(outputs)
    if records is None:
        return 0, expected
    if reference is not None:
        headers = [r for r in records if r["kind"] == "header"]
        if headers != [r for r in reference if r["kind"] == "header"]:
            return 0, expected
        ref_reports = [r for r in reference if r["kind"] == "report"]
    failed = 0
    reports = []
    slack_tol = 0.0
    for rec in records:
        if rec["kind"] == "header":
            slack_tol = rec["config"]["slack_tol"]
        elif rec["kind"] == "report":
            reports.append(rec)
            bad = report_failed(rec, slack_tol)
            if reference is not None and len(reports) <= len(ref_reports):
                bad = bad or not records_agree(rec, ref_reports[len(reports) - 1])
            failed += bad
    failed += abs(len(reports) - expected)
    return len(reports), min(failed, expected)


def load_reference(workload: Workload) -> bytes:
    return gzip.decompress((REFERENCE / f"{workload.name}.jsonl.gz").read_bytes())


def reference_check(workload: Workload) -> dict:
    """Replay the small campaign at REFERENCE_SEED and compare with the committed output."""
    ref_bytes = load_reference(workload)
    ref_records = [json.loads(line) for line in ref_bytes.splitlines()]
    expected = sum(r["kind"] == "report" for r in ref_records)
    result, outputs, error = run_child(workload.ref_argvs, REFERENCE_SEED, False, f"{workload.name}-ref")
    failed = expected if result is None else check_campaign(outputs, expected, ref_records)[1]
    return {
        "attempted": expected,
        "failed": failed,
        "byte_identical": result is not None and b"".join(outputs) == ref_bytes,
        "error": error,
    }


# --- the run --------------------------------------------------------------------


def host_factor(calibration_s: list[float]) -> float:
    """How much slower than nominal the host ran this campaign's process.

    On a shared host the speed a process gets drifts by tens of percent over
    minutes.  The calibration kernel, timed just before and just after the
    campaign in the same process, tracks that drift; timings are divided by
    this factor so that they read as on the host at nominal speed.
    """
    return statistics.mean(calibration_s) / CALIBRATION_S


def run_campaigns(workload: Workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop for ``seconds``; with ``trace`` alternate untraced and traced campaigns."""
    seeds = random.Random(seed)
    samples = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(samples) % 2 == 1
        campaign_seed = seeds.randrange(1, 2**31)
        result, outputs, error = run_child(workload.argvs, campaign_seed, traced, workload.name)
        sample = {"seed": campaign_seed, "traced": traced, "attempted": workload.reports}
        if result is None:
            sample.update(failed=workload.reports, error=error)
        else:
            written, sample["failed"] = check_campaign(outputs, workload.reports)
            factor = host_factor(result["calibration_s"])
            sample.update(
                wall_s=result["wall_s"],
                host_factor=factor,
                raw_reports_per_s=written / result["wall_s"],
                raw_setup_s=result["setup_s"],
                reports_per_s=written / result["wall_s"] * factor,
                setup_s=result["setup_s"] / factor,
                peak_rss_mb=result["peak_rss_kb"] / 1024.0,
            )
            for key in ("layers", "scalar_norm_calls", "missing"):
                if key in result:
                    sample[key] = result[key]
        samples.append(sample)
        paired = not trace or any(s["traced"] for s in samples)
        if paired and time.monotonic() >= deadline:
            return samples


def _stat(samples: list[dict], key: str) -> dict | None:
    """Median, quartiles and count of ``key`` over the samples that have it."""
    values = [s[key] for s in samples if key in s]
    if not values:
        return None
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# As measured, before host_factor; in the results file and table only.
UNCORRECTED = ("raw_reports_per_s", "raw_setup_s", "host_factor")


def per_layer_metrics(workload: Workload, samples: list[dict]) -> tuple[dict, dict]:
    """(metric -> value or None if missing, notes) from the traced campaigns."""
    traced = [s for s in samples if s["traced"] and "layers" in s]
    untraced = [s for s in samples if not s["traced"] and "reports_per_s" in s]
    values: dict[str, float | int | None] = dict.fromkeys(per_layer_units())
    notes = {"missing": [], "calls_vary": []}
    if not traced:
        return values, notes
    missing = set(traced[0]["missing"])
    notes["missing"] = sorted(missing)
    for name in SPAN_NAMES:
        if name in missing:
            continue
        calls = [s["layers"][name]["calls"] for s in traced]
        if len(set(calls)) > 1:
            notes["calls_vary"].append(name)
        values[f"{name}.calls"] = calls[0]
        values[f"{name}.self_s"] = statistics.median(s["layers"][name]["self_s"] for s in traced)
    for module, functions in LAYER_FUNCTIONS.items():
        present = [f"{module}.{fn}" for fn in functions if f"{module}.{fn}" not in missing]
        values[f"{module}.self_s"] = statistics.median(
            sum(s["layers"][name]["self_s"] for name in present) for s in traced
        )
    points = points_per_campaign(workload.argvs)
    for name in ("transfer.evaluate", "colligation.projection", "derivative.koperator"):
        if values[f"{name}.calls"] is not None:
            values[f"{name}.calls_per_point"] = values[f"{name}.calls"] / points
    norm_calls = values["matrixcore.spectral_norm.calls"]
    if norm_calls is not None:
        scalar = traced[0]["scalar_norm_calls"]
        values["matrixcore.spectral_norm.scalar_share"] = scalar / norm_calls if norm_calls else 0.0
    if untraced:
        traced_rate = statistics.median(s["reports_per_s"] for s in traced)
        untraced_rate = statistics.median(s["reports_per_s"] for s in untraced)
        values["trace.overhead"] = 1.0 - traced_rate / untraced_rate
    return values, notes


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    reference = reference_check(workload)
    samples = run_campaigns(workload, seed, seconds, trace)
    env["loadavg_end"] = os.getloadavg()

    attempted = reference["attempted"] + sum(s["attempted"] for s in samples)
    failed = reference["failed"] + sum(s["failed"] for s in samples)
    if trace:
        units = per_layer_units()
        values, notes = per_layer_metrics(workload, samples)
        stats = {}
    else:
        units = end_to_end_units()
        stats = {name: _stat(samples, name) for name in units}
        values = {name: (st["median"] if st else None) for name, st in stats.items()}
        notes = {"uncorrected": {key: _stat(samples, key) for key in UNCORRECTED}}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    results_file = OUT / f"results-{workload.name}-seed{seed}-trace{int(trace)}.json"
    results_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "failed_share": failed / attempted,
        "reference": reference,
        "statistics": stats,
        "notes": notes,
        "campaigns": samples,
        "result": result,
    }, indent=1) + "\n")
    _print_table(workload, result, stats, reference, notes, env)
    return result


def _print_table(workload, result, stats, reference, notes, env) -> None:
    print(f"== {workload.name}  (python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f})")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if value is None:
            shown = "missing" if any(name.startswith(m + ".") for m in notes.get("missing", ())) else "n/a"
            print(f"  {name:<48} {shown}")
            continue
        line = f"  {name:<48} {value:>14.6g} {metric['unit']}"
        st = stats.get(name)
        if st:
            line += f"   (q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})"
        print(line)
    for name, st in notes.get("uncorrected", {}).items():
        if st:
            print(f"  {name:<48} {st['median']:>14.6g}     (q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, "
                  f"n={st['n']}; not corrected for host speed)")
    print(f"  {'failed_share':<48} {result['failed'] / result['attempted']:>14.6g} ratio"
          f"   ({result['failed']} of {result['attempted']} reports)")
    print(f"  reference records byte-identical: {reference['byte_identical']}")
    if workload.known_defect:
        print(f"  known defect (not in BENCHMARK.json): {workload.known_defect}")
    if reference["error"]:
        print(f"  reference campaign error: {reference['error']}")
    for name in notes.get("calls_vary", ()):
        print(f"  warning: {name} call count differs between traced campaigns")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aglerlab" / "harness.py").is_file():
        print(f"error: aglerlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                      bool(args.trace))))
        return 0
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS.values()]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
