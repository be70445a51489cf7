"""``aglerlab.stream.Stream`` draws the bits of ``np.random.default_rng(seed)``, the reference here, for the
calls campaigns make, in any order, and leaves the same state; it refuses the seeds numpy refuses and any
other range of integers.  ``haar_unitary`` and ``sample_point`` draw the same bits from either generator.
The PCG64 output step is written once in the package."""

import ast
from pathlib import Path

import numpy as np
import pytest

import aglerlab
from aglerlab import Ball, Polydisk
from aglerlab.harness import SAMPLERS, sample_point
from aglerlab.matrixcore import haar_unitary
from aglerlab.stream import Stream
from conftest import MIXED_STRUCTURES

# SeedSequence hashes a seed as uint32 words into a pool of 4: 2**64 + 5 and 2**100 + 7 have 3 and 4 words,
# and the last two seeds more words than the pool holds
SEEDS = [*range(100), 2**32 - 1, 2**32, 2**62 - 1, 2**64 + 5, 2**100 + 7, 2**128 + 9, 2**200 + 11]
TAIL_START = 3.6541528853610087963519472518  # r, where the ziggurat's tail begins
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).reshape(-1).view(np.uint64).tolist()


def _campaign_draws(rng) -> list:
    """One of each call a campaign makes, scalar and shaped, interleaved as a campaign interleaves them."""
    return [rng.integers(0, 2**62), _bits(rng.random((2, 5))), _bits(rng.standard_normal(6)),
            _bits(rng.random(2)), _bits(rng.standard_normal((3, 3))), _bits(rng.random()),
            _bits(rng.standard_normal()), rng.integers(0, 2**62), _bits(rng.random(0))]


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_draws_match_numpy_bit_for_bit(seed):
    ours, numpys = Stream(seed), np.random.default_rng(seed)
    assert _campaign_draws(ours) == _campaign_draws(numpys)
    assert _campaign_draws(ours) == _campaign_draws(numpys)  # and the states stayed equal


def test_shapes_and_scalar_types_match_numpy():
    ours, numpys = Stream(3), np.random.default_rng(3)
    for size in [None, 0, 4, (2, 3), (1, 2, 2), (0, 5)]:
        for a, b in [(ours.random(size), numpys.random(size)),
                     (ours.standard_normal(size), numpys.standard_normal(size))]:
            assert type(a) is type(b) and np.shape(a) == np.shape(b) and _bits(a) == _bits(b)
    assert int(ours.integers(0, 2**62)) == int(numpys.integers(0, 2**62))


def test_a_long_normal_stream_takes_the_tail_and_the_wedges():
    ours, numpys = Stream(2024), np.random.default_rng(2024)
    x = ours.standard_normal(200_000)
    assert _bits(x) == _bits(numpys.standard_normal(200_000))
    assert np.abs(x).max() > TAIL_START
    assert _bits(ours.random(3)) == _bits(numpys.random(3))  # the rejection draws left the same state


def _outputs_drawn(before: dict, after: dict) -> int:
    """How many PCG64 outputs numpy's bit generator drew from state ``before`` to state ``after``."""
    bits, n = np.random.PCG64(), 0
    bits.state = before
    while bits.state != after:
        bits.random_raw()
        n += 1
    return n


def _between_normals(rng, k: int) -> list:
    return [_bits(rng.random()), _bits(rng.standard_normal(1 + k % 3)), rng.integers(0, 2**62), _bits(rng.random(2))]


@pytest.mark.parametrize("seed", [30, 77])  # in 100 rounds, a tail and a wedge test each settle a one-value call
def test_short_normal_calls_between_uniform_and_integer_draws_match_numpy(seed):
    ours, numpys, settled = Stream(seed), np.random.default_rng(seed), set()
    for k in range(100):
        before, v = numpys.bit_generator.state, numpys.standard_normal()
        assert _bits(ours.standard_normal()) == _bits(v)
        if _outputs_drawn(before, numpys.bit_generator.state) > 1:  # the call ended after a rejection draw
            settled.add("tail" if abs(v) > TAIL_START else "wedge")
        assert _between_normals(ours, k) == _between_normals(numpys, k)
    assert settled == {"tail", "wedge"}


def _pcg_steps(node, scope: str):
    """(scope, part) for each part of a PCG64 output step under ``node``: the LCG advance, a product with
    PCG's multiplier by name or value, and the XSL-RR rotation by the state's top 6 bits, ``>> 122``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
            if any(getattr(side, "id", None) == "_MULT" or getattr(side, "value", None) == PCG_MULTIPLIER
                   for side in (child.left, child.right)):
                yield scope, "advance"
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.RShift):
            if getattr(child.right, "value", None) == 122:
                yield scope, "rotation"
        yield from _pcg_steps(child, getattr(child, "name", scope))


def test_the_pcg64_output_step_is_written_once():
    found = [(path.name, *step) for path in sorted(Path(aglerlab.__file__).parent.glob("*.py"))
             for step in _pcg_steps(ast.parse(path.read_text(encoding="utf-8")), "<module>")]
    assert found == [("stream.py", "_pcg64", "advance"), ("stream.py", "_pcg64", "rotation")]
    inline = "def f(s):\n    s = (s * _MULT + inc) & M\n    return s >> 122, 0x2360ED051FC65DA44385DF649FCCF645 * s"
    assert list(_pcg_steps(ast.parse(inline), "<module>")) == [("f", "advance"), ("f", "rotation"), ("f", "advance")]


@pytest.mark.parametrize("seed", [-1, -(2**64), 1.5, 2.0, "1", None, [1, 2]])
def test_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises((TypeError, ValueError)) as ours:
        Stream(seed)
    if seed is not None and not isinstance(seed, list):  # numpy takes None (fresh entropy) and sequences
        with pytest.raises((TypeError, ValueError)) as numpys:
            np.random.default_rng(seed)
        assert ours.type is numpys.type


def test_refuses_other_integer_ranges_and_negative_sizes():
    rng = Stream(0)
    for low, high in [(0, 2**62 - 1), (1, 2**62), (0, 2**63), (0, 10)]:
        with pytest.raises(ValueError, match=r"\[0, 2\*\*62\)"):
            rng.integers(low, high)
    for draw in (rng.random, rng.standard_normal):
        with pytest.raises(ValueError):
            draw((2, -1))
        with pytest.raises(TypeError):
            draw(2.0)
    assert not hasattr(rng, "uniform") and not hasattr(rng, "normal")
    assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)  # refusals drew nothing


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_haar_unitary_draws_numpys_ginibre_matrix(n):
    for seed in (0, 5, 2**62 - 1):
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        expected = q * (d / np.abs(d))
        assert _bits(haar_unitary(n, seed).view(np.float64)) == _bits(expected.view(np.float64))


@pytest.mark.parametrize("structure", MIXED_STRUCTURES + [Polydisk((0, 2)), Ball(3, 1)], ids=repr)
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sample_point_draws_the_same_bits_from_either_generator(structure, sampler):
    ours, numpys = Stream(77), np.random.default_rng(77)
    for m in (None, 1, 5):
        a, b = sample_point(structure, ours, sampler, m=m), sample_point(structure, numpys, sampler, m=m)
        assert _bits(np.array(a).view(np.float64)) == _bits(np.array(b).view(np.float64))
    assert _bits(ours.random()) == _bits(numpys.random())
