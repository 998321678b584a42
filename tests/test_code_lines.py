"""Tests for the package size counter (``benchmarks/code_lines.py``).

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
