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

Run without an argument, the script then lists the names of
``src/repro`` that nothing uses (:func:`unreferenced_names`) and are not
on :data:`ALLOWLIST`.  ``tests/test_code_lines.py`` fails while that
list is not empty, and while an allowlist entry is used or gone.
Stdlib only.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

_REPO = Path(__file__).resolve().parent.parent
_DEFAULT_ROOT = _REPO / "src" / "repro"
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


#: The directories whose ``.py`` files may use a name of ``src/repro``.
#: ``tests/`` is not one: a name only a test calls is not used.
REFERENCE_DIRS = ("src", "examples", "benchmarks", "perfbench")

_HTTP_HOOK = "http.server hook: BaseHTTPRequestHandler calls it by name."
_LISTING = "Plugin API: each registry lists its names through an available_* function."
_THEOREM_8 = (
    "Eq. (27)-(29) of Theorem 8: the per-strategy reference that tests "
    "compare concavity_threshold against."
)
_PARETO_CDF = "Eq. (2)'s distribution function; tests check sampling against it."
_SOCKETSERVER_HOOK = "socketserver hook: the server calls it by name."
_STOP_CONDITION = "Stop condition for a sweep's stop= option, documented in the README."

#: Unreferenced names that stay, each with the reason.
ALLOWLIST: Dict[str, str] = {
    "repro.adaptive.objectives.available_objectives": _LISTING,
    "repro.api.registry.available_strategies": _LISTING,
    "repro.api.registry.register_strategy": (
        "Plugin API: user code adds a strategy through it (README, ARCHITECTURE)."
    ),
    "repro.api.registry.register_workload": (
        "Plugin API: user code adds a workload through it (README, ARCHITECTURE)."
    ),
    "repro.api.sweep.Sweep.stream": (
        "The streaming form of Sweep.run that the README's live-progress example uses."
    ),
    "repro.api.sweep.first_deadline_miss": _STOP_CONDITION,
    "repro.api.sweep.max_failures": _STOP_CONDITION,
    "repro.api.registry.register_estimator": (
        "Plugin API: user code adds an estimator through it (README, ARCHITECTURE)."
    ),
    "repro.cluster.scheduling.register_cluster_scheduler": (
        "Plugin API: user code adds a cluster scheduler through it (ARCHITECTURE)."
    ),
    "repro.api.registry.Registry.unregister": (
        "Plugin API: the inverse of register, for code that registers a throwaway plugin."
    ),
    "repro.api.facade.clear_template_cache": (
        "Empties the facade's per-process build cache (README); golden-parity "
        "tests need cold runs."
    ),
    "repro.core.comparison.dominance_report": (
        "Theorem 7, kept for the paper-claims item (ROADMAP item 8)."
    ),
    "repro.core.cost.expected_cost": (
        "Closed form: the expected VM cost of Theorems 2, 4 and 6 at a unit price."
    ),
    "repro.core.utility.concavity_threshold_clone": _THEOREM_8,
    "repro.core.utility.concavity_threshold_restart": _THEOREM_8,
    "repro.core.utility.concavity_threshold_resume": _THEOREM_8,
    "repro.distributions.base.Distribution.cdf": _PARETO_CDF,
    "repro.distributions.pareto.ParetoDistribution.cdf": _PARETO_CDF,
    "repro.distributions.pareto.ParetoDistribution.expected_min_of": (
        "Lemma 1: the exact-cost oracle of tests/test_conformance.py (ROADMAP item 2)."
    ),
    "repro.distributions.pareto.ParetoDistribution.min_of": (
        "Lemma 1: the minimum of n attempts is Pareto(tmin, n * beta)."
    ),
    "repro.hadoop.config.HadoopConfig.instantaneous": (
        "The regime tests/test_conformance.py checks Theorems 1-6 in."
    ),
    "repro.hadoop.resource_manager.ResourceManager.containers_in_use": (
        "The occupancy reading README and ARCHITECTURE name."
    ),
    "repro.service.server.ServiceHTTPServer.handle_error": _SOCKETSERVER_HOOK,
    "repro.service.server.ServiceHTTPServer.process_request": _SOCKETSERVER_HOOK,
    "repro.service.server.ServiceHTTPServer.shutdown_request": _SOCKETSERVER_HOOK,
    "repro.service.server.ServiceRequestHandler.do_GET": _HTTP_HOOK,
    "repro.service.server.ServiceRequestHandler.do_POST": _HTTP_HOOK,
    "repro.service.server.ServiceRequestHandler.log_message": _HTTP_HOOK,
}


def _definitions(tree: ast.Module, prefix: str) -> Iterator[Tuple[str, str, bool]]:
    """``(qualified name, name, is a method)`` of each def and class.

    Covers module-level definitions and, recursively, class bodies;
    functions nested in functions are local and not listed.  Dunder
    methods (called by the language) and definitions with a
    registration decorator (``@register_workload(...)``,
    ``@WORKLOADS.register``: called through their registry) are left
    out.
    """

    def walk(body, prefix: str, in_class: bool) -> Iterator[Tuple[str, str, bool]]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualified = f"{prefix}.{node.name}"
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not any(_registers(decorator) for decorator in node.decorator_list):
                yield qualified, node.name, in_class
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, qualified, True)

    return walk(tree.body, prefix, False)


def _registers(decorator: ast.expr) -> bool:
    """Whether a decorator's name starts with ``register`` (see :func:`_definitions`)."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name.startswith("register")


def _reference_text(path: Path) -> str:
    """The part of a file in which a use of a name counts.

    Comments, docstrings and an override's own ``super().name`` call are
    blanked out.  So, in an ``__init__.py``, are its import statements
    and string literals: a re-export, an ``__all__`` entry or a lazy
    export does not use the name it lists.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    chars = [list(line) for line in lines]

    def blank(start: Tuple[int, int], end: Tuple[int, int]) -> None:
        for row in range(start[0], end[0] + 1):
            line = chars[row - 1]
            first = start[1] if row == start[0] else 0
            last = end[1] if row == end[0] else len(line)
            for column in range(first, last):
                if line[column] not in "\r\n":
                    line[column] = " "

    init = path.name == "__init__.py"
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type != tokenize.NL
    ]
    in_import = False
    for index, token in enumerate(tokens):
        before = tokens[index - 1].type if index else None
        after = tokens[index + 1].type if index + 1 < len(tokens) else None
        if before in _STATEMENT_START:
            in_import = init and token.type == tokenize.NAME and token.string in ("import", "from")
        docstring = (
            token.type == tokenize.STRING
            and before in _STATEMENT_START
            and after in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if (
            token.type == tokenize.COMMENT
            or docstring
            or (init and (in_import or token.type == tokenize.STRING))
        ):
            blank(token.start, token.end)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr == node.name
                and isinstance(inner.value, ast.Call)
                and getattr(inner.value.func, "id", None) == "super"
            ):
                # AST columns count UTF-8 bytes; the rows hold characters.
                row = inner.end_lineno
                column = len(lines[row - 1].encode("utf-8")[: inner.end_col_offset].decode("utf-8"))
                blank((row, column - len(inner.attr)), (row, column))
    return "".join("".join(line) for line in chars)


def unreferenced_names(root: Path = _REPO) -> List[str]:
    """Qualified names of the defs and classes of ``src/repro`` nothing uses.

    A name counts as used when a ``.py`` file under one of
    :data:`REFERENCE_DIRS` of ``root`` (this script aside) mentions it
    outside its own definition: a module-level name as the word
    ``name``, a method (or a class nested in a class) as ``.name`` or
    as the quoted string ``"name"`` (a ``getattr`` target, a patch
    list).  Comments, docstrings and an override's own ``super().name``
    call are not uses (:func:`_reference_text`).  Otherwise the match is
    textual, so a use of another definition of the same name counts:
    the scan under-reports, never over-reports.
    """
    package = root / "src" / "repro"
    words: Counter = Counter()
    attributes: Counter = Counter()
    definitions: Counter = Counter()
    for directory in REFERENCE_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            text = _reference_text(path)
            words.update(re.findall(r"\w+", text))
            definitions.update(re.findall(r"\b(?:def|class)\s+(\w+)", text))
            attributes.update(re.findall(r"\.(\w+)", text))
            attributes.update(re.findall(r"[\"'](\w+)[\"']", text))
    unused = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name, is_method in _definitions(tree, module.removesuffix(".__init__")):
            used = attributes[name] if is_method else words[name] - definitions[name]
            if not used:
                unused.append(qualified)
    return sorted(unused)


def main(argv: List[str]) -> int:
    root = Path(argv[0]) if argv else _DEFAULT_ROOT
    counts = count_package(root)
    width = max(len("total"), *(len(name) for name in counts))
    print(f"{'package':<{width}}  {'files':>5}  {'physical':>8}  {'code':>6}")
    for name, (files, physical, code) in counts.items():
        print(f"{name:<{width}}  {files:>5}  {physical:>8}  {code:>6}")
    files, physical, code = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':<{width}}  {files:>5}  {physical:>8}  {code:>6}")
    if not argv:
        unused = [name for name in unreferenced_names() if name not in ALLOWLIST]
        print(f"\nunreferenced names ({len(ALLOWLIST)} more allowlisted): {len(unused)}")
        for name in unused:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
