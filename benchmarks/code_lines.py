#!/usr/bin/env python
"""Count the lines of the ``repro`` package, per subpackage.

Two counts per subpackage (and a total):

* ``physical`` — every line of every ``.py`` file,
* ``code`` — the lines that hold a token other than a comment, a
  docstring or layout, found with :mod:`tokenize`.  Blank lines,
  comment-only lines and docstring lines do not count; a line of a
  multi-line statement or string literal does.

    python benchmarks/code_lines.py             # src/repro
    python benchmarks/code_lines.py PACKAGE_DIR

A size claim ("``src/repro`` shrank by N lines") quotes this script.
Stdlib only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

_DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
#: Tokens that never make a line a code line.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
#: What may precede a string that stands alone as a statement.
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code.

    A string literal that is a statement of its own (a module, class or
    function docstring, or any other bare string) is not code.
    """
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for index, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING:
            before = tokens[index - 1].type if index else None
            after = tokens[index + 1].type if index + 1 < len(tokens) else None
            if before in _STATEMENT_START and after in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count_package(root: Path) -> Dict[str, Tuple[int, int, int]]:
    """``{subpackage: (files, physical, code)}`` for every ``.py`` under ``root``.

    Modules directly under ``root`` count under ``root``'s own name.
    """
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = root.name if len(parts) == 1 else f"{root.name}.{parts[0]}"
        source = path.read_text(encoding="utf-8")
        entry = totals[package]
        entry[0] += 1
        entry[1] += len(source.splitlines())
        entry[2] += code_lines(source)
    return {name: tuple(values) for name, values in sorted(totals.items())}


def main(argv: List[str]) -> int:
    root = Path(argv[0]) if argv else _DEFAULT_ROOT
    counts = count_package(root)
    width = max(len("total"), *(len(name) for name in counts))
    print(f"{'package':<{width}}  {'files':>5}  {'physical':>8}  {'code':>6}")
    for name, (files, physical, code) in counts.items():
        print(f"{name:<{width}}  {files:>5}  {physical:>8}  {code:>6}")
    files, physical, code = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':<{width}}  {files:>5}  {physical:>8}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
