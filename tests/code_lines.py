"""Count the lines of ``src/attainbench`` that hold code, per module and in total.

A line holds code when it carries a token other than a comment, a newline or an
indent, outside a module, class or function docstring; a token that spans lines,
such as a string, holds every line it spans. Beside each count go the module's
plain line count, as ``wc -l`` gives it, and the ``tracemalloc`` peak of compiling
it in KiB, the least of three compiles: a process that imports the package with no
bytecode cached pays that peak, which shows in its peak RSS. Last come the modules
that importing ``attainbench.cli`` adds to those ``numpy`` loads, as a fresh
interpreter imports them: each is held by every process that runs the package.

Run from the repository root: ``python3 tests/code_lines.py [PATH ...]``.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def compile_peak(source: str, name: str = "<source>") -> int:
    """Least ``tracemalloc`` peak, in bytes, of three compiles of ``source``."""
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            compile(source, name, "exec")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


#: Prints the modules that importing ``attainbench.cli`` adds to those ``numpy`` loads.
_ADDED_IMPORTS = ("import sys, numpy; loaded = set(sys.modules); import attainbench.cli; "
                  "print(*sorted(set(sys.modules) - loaded))")


def added_imports(src: Path) -> list:
    """Modules that a fresh interpreter loads to import ``attainbench.cli`` from ``src``
    beyond those it loads to import ``numpy``, sorted."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _ADDED_IMPORTS], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return done.stdout.split()


def main(paths) -> None:
    total_code = total_lines = 0
    print("  code  lines  compile KiB")
    for path in paths:
        source = path.read_text(encoding="utf-8")
        code, lines = code_lines(source), source.count("\n")
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{code:6d} {lines:6d} {compile_peak(source, str(path)) // 1024:12d}  {path.name}")
    print(f"{total_code:6d} {total_lines:6d} {'':12s}  total")


if __name__ == "__main__":
    package = Path(__file__).resolve().parent.parent / "src" / "attainbench"
    main([Path(p) for p in sys.argv[1:]] or sorted(package.glob("*.py")))
    added = added_imports(package.parent)
    print(f"\nimporting attainbench.cli adds {len(added)} modules to numpy's:", *added)
