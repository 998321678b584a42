"""Tests for the package size counter and its unreferenced-name scan
(``benchmarks/code_lines.py``), and the gate that runs the scan on the
package.

The script is stdlib-only and not part of the installed package, so it
is loaded straight from its file.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    assigned is code"""
    return (x +
            1)
'''


@pytest.fixture(scope="module")
def counter():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(counter):
    # import, def, the two lines of the assigned string, the two of the return
    assert counter.code_lines(SOURCE) == 6


def test_count_package_groups_by_subpackage(counter, tmp_path):
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text('"""Top."""\n')
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "mod.py").write_text(SOURCE)
    assert counter.count_package(root) == {
        "pkg": (1, 1, 0),
        "pkg.sub": (2, len(SOURCE.splitlines()), 6),
    }


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_unreferenced_names_reads_uses_outside_tests(counter, tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": (
            "from repro.mod import exported, used\n"
            '__all__ = ["exported", "used"]\n'
            '_EXPORTS = {"lazy": "repro.mod"}\n'
        ),
        "src/repro/mod.py": (
            "def used(): pass\n"
            "def exported(): pass\n"
            "def lazy(): pass\n"
            "def tested(): pass\n"
            "@register_thing('x')\n"
            "def plugin(): pass\n"
            "class Thing:\n"
            "    def __init__(self): pass\n"
            "    def called(self): pass\n"
            "    def patched(self): pass\n"
            "    @property\n"
            "    def shown(self): pass\n"
            "    @staticmethod\n"
            "    def helper(): pass\n"
        ),
        "examples/use.py": "from repro.mod import used\nused().called()\nThing.helper\n",
        "perfbench/patch.py": 'PATCHES = [("repro.mod.Thing", "patched")]\n',
        "tests/test_mod.py": "from repro.mod import tested, lazy\ntested(); lazy(); Thing().shown\n",
    })
    assert counter.unreferenced_names(root) == [
        "repro.mod.Thing.shown",
        "repro.mod.exported",
        "repro.mod.lazy",
        "repro.mod.tested",
    ]


def test_every_unreferenced_name_of_the_package_is_allowlisted(counter):
    """The gate: a name only tests use is deleted, or allowlisted with a reason."""
    unreferenced = set(counter.unreferenced_names())
    assert sorted(unreferenced - set(counter.ALLOWLIST)) == []
    # An entry whose name is now used, or gone, leaves the allowlist.
    assert sorted(set(counter.ALLOWLIST) - unreferenced) == []
    assert all(reason.strip() for reason in counter.ALLOWLIST.values())
