"""The public surface: every exported name resolves, once, and the README's Python runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import aglerlab

README = Path(__file__).resolve().parents[1] / "README.md"
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
