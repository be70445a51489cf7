"""Span recorder for the benchmark's traced runs.

Wraps the public functions of each ``aglerlab`` module at every module
binding that refers to them (``harness`` and ``bounds`` import names with
``from .x import y``, so patching only the defining module would miss most
calls).  Spans are kept in memory as parallel lists of name, start, end and
parent, and are written out once the campaign is over.

Nothing under ``src/`` is changed: the wrappers live in the benchmark
process only.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps

# (module, function) pairs whose spans make up the per-layer metrics.
LAYER_FUNCTIONS = {
    "matrixcore": ("spectral_norm", "haar_unitary"),
    "colligation": (
        "projection", "projections", "zmatrix", "structure_norm",
        "random_colligation", "colligation_hash",
    ),
    "transfer": (
        "evaluate", "identity_residuals", "resolvent_norm_estimates",
        "resolvent_gram_factors", "lnorm_bound_check",
    ),
    "derivative": ("partial_at", "koperator", "arrangements", "poly_partial"),
    "bounds": (
        "bound_general", "bound_polydisk", "bound_ball", "ball_kernel_subchecks",
        "wiener_check", "knese_report", "knese_residual", "polydisk_rhs",
        "ball_rhs", "multiplier_gram_psd",
    ),
    "harness": ("main", "run_fuzz", "run_explore", "summarize", "sample_point"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)


# Calls of this span on a 1x1 matrix are also counted (scalar_norm_calls).
SCALAR_NORM = "matrixcore.spectral_norm"


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.scalar_norm_calls = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        count_scalar = name == SCALAR_NORM
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if count_scalar and getattr(args[0], "shape", None) == (1, 1):
                self.scalar_norm_calls += 1
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed function at every ``aglerlab`` binding.

        Returns the names of listed functions that no longer exist, so a
        refactor that removes one shows as missing rather than as zero calls.
        """
        missing = []
        for mod_name, fn_names in LAYER_FUNCTIONS.items():
            try:
                module = importlib.import_module(f"aglerlab.{mod_name}")
            except ModuleNotFoundError:
                missing.extend(f"{mod_name}.{fn}" for fn in fn_names)
                continue
            for fn_name in fn_names:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name != "aglerlab" and not loaded_name.startswith("aglerlab."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapped)
        return missing

    def summary(self) -> dict[str, dict]:
        """Calls and self time (span minus its child spans) per span name."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_ns = [0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += durations[idx]
        out = {name: {"calls": 0, "self_ns": 0} for name in SPAN_NAMES}
        for name, dur, child in zip(self.names, durations, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["self_ns"] += dur - child
        return {
            name: {"calls": e["calls"], "self_s": e["self_ns"] * 1e-9}
            for name, e in out.items()
        }

    def dump(self, path) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent_index]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": list(zip(self.names, self.starts, self.ends, self.parents)),
            }, fh, separators=(",", ":"))
