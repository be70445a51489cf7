"""One benchmark campaign in a fresh interpreter.

Run by ``run.py`` as ``python child.py SPEC`` where SPEC is a JSON object:

    {"src": "<dir holding the aglerlab package>",
     "argvs": [[...CLI argv...], ...],   # one aglerlab.harness.main call each
     "trace": false,
     "spans_out": "<file>" or null}

Imports ``aglerlab``, parses every argv (the end of set-up), then calls
``aglerlab.harness.main`` once per argv and prints one JSON line with the
set-up instant (``time.monotonic``, comparable across processes), the wall
time of the ``main`` calls, their exit codes, the peak resident set, and
the run time of a fixed calibration kernel measured just before and just
after the campaign.
With ``trace`` on, the per-function span summary is added and the spans are
written to ``spans_out``.  The process exits with the first nonzero exit
code of the ``main`` calls, or 0.
"""

import json
import math
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed job that uses no aglerlab code.

    It mixes what campaigns spend their time on: small complex numpy linear
    algebra (SVD norm, solve, matmul) and building report-like dicts and
    encoding them as JSON.  On a shared host its time tracks the speed the
    host gives this process, so the benchmark can correct campaign timings
    for that speed.
    """
    import numpy as np

    def job(rounds: int) -> None:
        m = np.array([[0.3, 0.2j, -0.1], [0.1, -0.4, 0.25j], [0.2j, 0.05, 0.35]])
        eye = np.eye(3)
        for _ in range(rounds):
            np.linalg.norm(m, 2)
            np.linalg.solve(eye - m, m)
            m @ m
        lines = []
        for i in range(4 * rounds):
            z = complex(math.cos(i), math.sin(i)) * 0.5
            lines.append(json.dumps({
                "kind": "report", "seed": i, "z": [[z.real, z.imag]], "lhs": abs(z) ** 3,
                "rhs": math.factorial(i % 7) / (1.0 - abs(z)), "flags": sorted({"b", "a"}),
            }, sort_keys=True))

    job(20)  # first calls pay one-off initialisation; keep it out of the timing
    started = time.perf_counter()
    job(1500)
    return time.perf_counter() - started


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    Not ``ru_maxrss``: Linux carries the high-water mark of the address space
    a process replaces at exec into it, and a child spawned by vfork replaces
    the benchmark's own, so ``ru_maxrss`` would report the benchmark's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from aglerlab import harness

    recorder = None
    missing: list[str] = []
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        missing = recorder.install()
    parser = harness.build_parser()
    for argv in spec["argvs"]:
        parser.parse_args(argv)
    ready = time.monotonic()
    calibration = [calibrate()]

    codes = []
    wall = 0.0
    for argv in spec["argvs"]:
        started = time.perf_counter()
        codes.append(harness.main(argv))
        wall += time.perf_counter() - started
    calibration.append(calibrate())

    result = {
        "ready": ready,
        "wall_s": wall,
        "codes": codes,
        "peak_rss_kb": peak_rss_kb(),
        "calibration_s": calibration,
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
        result["scalar_norm_calls"] = recorder.scalar_norm_calls
        result["missing"] = missing
        if spec.get("spans_out"):
            recorder.dump(spec["spans_out"])
    return result


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    sys.exit(next((code for code in result["codes"] if code), 0))
