"""Every function the benchmark traces still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in spans.LAYER_FUNCTIONS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"aglerlab.{mod}"), fn, None))
    ]
    assert not missing, f"traced names missing from aglerlab: {missing}"
