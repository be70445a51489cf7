"""The public surface: every exported name resolves, once, the README's Python runs and its commands parse;
only ``bounds`` reads its table of variants; importing the CLI draws in no random generator."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import aglerlab
from aglerlab.harness import CampaignConfig, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
VARIANT_TABLE = {"VARIANTS", "Variant", "applicable_variants"}
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


def test_readme_commands_parse():
    """Every ``aglerlab`` line of the README's shell blocks parses, and each campaign flag it gives
    sets a ``CampaignConfig`` field of the flag's ``dest``; no campaign runs."""
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


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """``numpy.random`` (several ms to import) is loaded by the first campaign that draws, not by
    ``import aglerlab.harness``: ``validate``, ``eval`` and ``deriv`` draw nothing."""
    src = str(Path(aglerlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, aglerlab.harness; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
