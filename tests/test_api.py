"""The public surface: every exported name resolves, once, the README's Python runs and its commands parse and run;
only ``bounds`` reads its table of variants, and only it and the ball's Gram check test a structure's class;
neither importing the CLI nor running a campaign loads ``numpy.random``, ``hashlib`` or ``_hashlib``, and the
benchmark's campaigns load nothing past ``aglerlab`` and a baseline of numpy, json, argparse and a short allowlist."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import aglerlab
from aglerlab.harness import CampaignConfig, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
VARIANT_TABLE = {"VARIANTS", "Variant", "applicable_variants"}
DOMAIN_CLASSES = {"Polydisk", "Ball", "DomainStructure"}
MODULES = ["aglerlab"] + [f"aglerlab.{m.name}" for m in pkgutil.iter_modules(aglerlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == [], name
    assert sorted({e for e in exported if exported.count(e) > 1}) == [], name


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    """Every ``aglerlab`` line of the README's shell blocks parses, and each campaign flag it gives
    sets a ``CampaignConfig`` field of the flag's ``dest``; then the lines run in order in an empty
    directory, each exits 0, and the fuzz campaign's ``reports.jsonl`` reports no violation."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("aglerlab ")]
    assert commands
    fields = {f.name for f in dataclasses.fields(CampaignConfig)}
    for command in commands:
        try:
            args = build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
        if args.command in ("fuzz", "explore"):
            given = {dest for dest, value in vars(args).items() if value is not None}
            assert given - {"command", "func", "config", "name", "m"} <= fields, command
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command, comments=True)[1:]) == 0, command
    capsys.readouterr()
    summary = json.loads((tmp_path / "reports.jsonl").read_text(encoding="utf-8").splitlines()[-1])
    assert (summary["kind"], summary["violations"]) == ("summary", 0)


def test_only_bounds_reads_the_variant_table():
    """Which variants apply is decided in ``bounds``; no other module imports or names its table."""
    found = []
    for path in sorted(Path(aglerlab.__file__).parent.glob("*.py")):
        if path.name == "bounds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]  # a Name or an Attribute
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in VARIANT_TABLE]
    assert found == []


def _names(node) -> set:
    """The names a Name, an Attribute or a tuple of them gives."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return {getattr(node, "id", None), getattr(node, "attr", None)} - {None}


def _class_test(node) -> bool:
    """``isinstance(x, Polydisk)`` (or ``Ball``, or a tuple of them), ``type(<...structure>)``, or an
    ``is``/``is not`` comparison with ``Polydisk`` or ``Ball``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "isinstance" and len(node.args) == 2:
            return bool(_names(node.args[1]) & DOMAIN_CLASSES)
        if node.func.id == "type" and len(node.args) == 1:
            return ast.unparse(node.args[0]).endswith("structure")
    if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
        return bool(set().union(*map(_names, [node.left, *node.comparators])) & DOMAIN_CLASSES)
    return False


def test_only_bounds_and_the_gram_check_test_a_structures_class():
    """A domain's geometry is read from its class's members; ``bounds`` picks inequalities by domain, and
    ``harness.explore_records`` adds the ball's Gram check.  No other code tests a structure's class."""
    found = []
    for path in sorted(Path(aglerlab.__file__).parent.glob("*.py")):
        if path.name == "bounds.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {line for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                   and (path.name, node.name) == ("harness.py", "explore_records")
                   for line in range(node.lineno, node.end_lineno + 1)}
        found += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                  if _class_test(node) and node.lineno not in allowed]
    assert found == []


def test_the_class_test_guard_sees_each_form():
    tests = ["isinstance(s, Polydisk)", "isinstance(col.structure, (Ball, int))", "type(ev.structure)",
             "domain is Ball", "Polydisk is not domain"]
    others = ["isinstance(s, int)", "type(points)", "domain is None", "s == Ball(1, 2)"]
    assert [_class_test(ast.parse(t, mode="eval").body) for t in tests + others] == [True] * 5 + [False] * 4


NUMPY_RANDOM, HASHLIB = ("numpy.random",), ("hashlib", "_hashlib")
IMPORT_CLI = "import sys, aglerlab.harness"
CAMPAIGNS = ("import os, sys; from aglerlab.harness import main; "
             "assert main(['fuzz', '--seed', '2', '--n', '2', '--structure', 'ball:m=1,d=2', '--max-order', '2', "
             "'--points', '2', '--sampler', 'boundary-biased', '--out', os.devnull]) == 0; "
             "assert main(['explore', 'alpay-kaptanoglu', '--m', '2', '--seed', '2', '--n', '1', '--points', '2', "
             "'--max-order', '2', '--out', os.devnull]) == 0")
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
# The campaigns of the benchmark's three workloads, at small sizes: two fuzz shapes and both explore targets.
BENCHMARK_SHAPES = "import os, sys; from aglerlab.harness import main; " + "; ".join(
    f"assert main({argv!r} + ['--seed', '1', '--out', os.devnull]) == 0" for argv in (
        ["fuzz", "--structure", "polydisk:2,1", "--max-order", "4", "--n", "1", "--points", "2"],
        ["fuzz", "--structure", "polydisk:1,1,1", "--max-order", "6", "--n", "1", "--points", "1"],
        ["explore", "kaijser-varopoulos", "--max-order", "4", "--n", "1", "--points", "2"],
        ["explore", "alpay-kaptanoglu", "--m", "3", "--max-order", "4", "--n", "1", "--points", "2"]))
# What a campaign may load besides aglerlab and what ``import numpy, json, argparse`` loads; importing these in
# the baseline admits each Python version's own dependencies of them.
STDLIB_ALLOWED = ("dataclasses", "copy", "cmath", "gettext", "locale", "__future__", "_sha2", "_sha256")


@functools.cache
def _modules_after(code: str) -> frozenset[str]:
    """The modules loaded in a fresh interpreter after it runs ``code``."""
    src = str(Path(aglerlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += "; print(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return frozenset(ast.literal_eval(done.stdout.strip().splitlines()[-1]))


def _loaded(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """The modules whose names start with one of ``prefixes`` loaded after ``code`` runs."""
    return sorted(m for m in _modules_after(code) if m.startswith(prefixes))


def _numpy_own(prefixes: tuple[str, ...]) -> list[str]:
    """What ``import numpy`` loads by itself: numpy 2 loads ``numpy.random`` on first use, and with it
    ``hashlib`` and ``_hashlib`` (by ``secrets``); numpy 1.x imports it eagerly, and then these checks
    hold trivially."""
    return _loaded("import sys, numpy", prefixes)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """``numpy.random`` (several ms to import) is not loaded by ``import aglerlab.harness``."""
    assert _loaded(IMPORT_CLI, NUMPY_RANDOM) == _numpy_own(NUMPY_RANDOM)


def test_campaigns_leave_numpy_random_unloaded():
    """Campaigns draw from ``aglerlab.stream.Stream``, so a fuzz and an explore campaign, and with them
    ``random_colligation`` and ``sample_point``, load no ``numpy.random``."""
    assert _loaded(CAMPAIGNS, NUMPY_RANDOM) == _numpy_own(NUMPY_RANDOM)


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no builtin _sha2 or _sha256 module in this build")
@pytest.mark.parametrize("code", [IMPORT_CLI, CAMPAIGNS], ids=["import", "campaigns"])
def test_subject_hashes_leave_openssl_unloaded(code):
    """Subject hashes take SHA-256 from CPython's builtin module, so neither importing the CLI nor a fuzz
    and an explore campaign loads ``hashlib`` or ``_hashlib``, which maps OpenSSL's libcrypto."""
    assert _loaded(code, HASHLIB) == _numpy_own(HASHLIB)


def test_campaigns_load_only_aglerlab_past_the_baseline():
    """The benchmark-shaped campaigns load no module besides ``aglerlab.*`` that a process running ``import numpy,
    json, argparse`` and the short stdlib allowlist does not load too: each new import on the campaign path costs
    set-up time and resident memory, so it fails here by name until the allowlist takes it in."""
    allowed = [name for name in STDLIB_ALLOWED if importlib.util.find_spec(name)]
    baseline = _modules_after(f"import sys, numpy, json, argparse, {', '.join(allowed)}")
    assert sorted(m for m in _modules_after(BENCHMARK_SHAPES) - baseline if m.partition(".")[0] != "aglerlab") == []
