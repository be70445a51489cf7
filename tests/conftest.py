"""Shared corpus builders for the test suite.

Everything here is deterministic: colligations come from fixed seeds and
points from seeded generators, so failures reproduce exactly.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from aglerlab import Ball, BoundReport, Polydisk, random_colligation
from aglerlab.colligation import structure_norm

MIXED_STRUCTURES = [
    Polydisk((1,)),
    Polydisk((2,)),
    Polydisk((1, 1)),
    Polydisk((2, 1)),
    Polydisk((3, 2)),
    Polydisk((1, 1, 1)),
    Polydisk((2, 1, 3)),
    Ball(1, 2),
    Ball(2, 2),
    Ball(1, 3),
    Ball(2, 3),
]


def interior_point(structure, rng, scale=0.45):
    """Random point with domain norm at most ``scale``."""
    d = structure.d
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if isinstance(structure, Polydisk):
        moduli = np.abs(v)
        moduli[moduli == 0] = 1.0
        v = v / moduli * rng.random(d)
    else:
        v = v / np.linalg.norm(v) * rng.random() ** (1.0 / (2 * d))
    z = tuple(v * scale)
    assert structure_norm(structure, z) <= scale + 1e-12
    return z


def admissible_point(structure, rng, scale=0.95):
    """Random point with domain norm strictly below ``scale``."""
    return interior_point(structure, rng, scale=scale)


def mixed_corpus(n_per_structure=2, seed=2024):
    """Deterministic list of valid random colligations over MIXED_STRUCTURES."""
    out = []
    for i, structure in enumerate(MIXED_STRUCTURES):
        for k in range(n_per_structure):
            out.append(random_colligation(structure, dim_g=1, seed=seed + 37 * i + k))
    return out


def records(lines):
    """The records of a campaign's JSONL lines, parsed one line at a time."""
    return [json.loads(line) for line in lines]


def reports_at(points, columns, i=0):
    """The reports at row ``i`` of a stack of ``points`` of ``columns`` computed on it."""
    z = tuple(points.zs[i].tolist())
    return [BoundReport(c.tag, z, c.alpha, float(c.lhs[i]), float(c.rhs[i])) for c in columns]


@functools.cache
def perfbench_run():
    """``perfbench/run.py`` loaded as a module, once, so tests judge records by the benchmark's own rule."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclass looks its module up by name
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved_path  # run.py puts perfbench/ on the path to import spans
    return run
