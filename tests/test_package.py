"""The package's public surface, what running it loads, and the README's examples."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import attainbench
from attainbench.attainment import TrajectoryLogger
from attainbench.problems import ContinuousSuite, Sphere

import code_lines

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(attainbench.__file__).parent


def test_every_public_name_resolves_and_is_listed_once():
    names = attainbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(attainbench, name)]
    assert missing == []


def test_every_top_level_name_is_read_or_imported():
    """A module's top-level import or assignment, or private function or class, is dead
    when the module never reads it, lists it in ``__all__`` or is imported from for it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    dead = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        listed = {name for node in tree.body if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "__all__"
                  for name in ast.literal_eval(node.value)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                kind = " (import)"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names, kind = [t.id for t in targets if isinstance(t, ast.Name)], ""
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                names, kind = [node.name], ""
            else:
                continue
            dead += [f"{module}.{name}{kind}" for name in names
                     if not (name.startswith("__") or name in read or name in listed
                             or (module, name) in imported)]
    assert dead == []


def test_no_raise_quotes_a_value_by_repr():
    """A raised message quotes an input through ``properties._quoted``, which bounds the
    text and never fails: no ``raise`` formats a value with ``!r`` or ``%r`` or calls
    ``repr``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                    isinstance(part, ast.FormattedValue) and part.conversion == ord("r")
                    or isinstance(part, ast.Constant) and "%r" in str(part.value)
                    or isinstance(part, ast.Call) and ast.unparse(part.func) == "repr"
                    for part in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_readme_python_examples_run_in_order(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL))
    assert blocks
    namespace = {}
    for block in blocks:
        # Pad with blank lines so a traceback gives the README's own line numbers.
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)


def test_lines_that_hold_code_leave_out_docstrings_comments_and_blank_lines():
    source = ('"""Module docstring,\n'
              'on two lines."""\n'
              '\n'
              '# A comment.\n'
              'def f(a,\n'
              '      b):  # a statement on two lines\n'
              '    """Function docstring."""\n'
              '    text = """a string\n'
              'that is not a docstring"""\n'
              '    return a + b\n')
    assert code_lines.code_lines(source) == 5


def test_only_properties_reads_the_finite_real_rule():
    """``properties._real`` is the one finite-real test: no other module reads
    ``numbers.Real`` or ``math.isfinite``, as an attribute or by import."""
    rule = {"numbers.Real", "math.isfinite"}
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names}
            else:
                continue
            readers |= {(name, path.name) for name in names & rule}
    assert readers == {(name, "properties.py") for name in rule}


def test_only_the_logger_gate_asks_the_trigger_and_selects_the_fired_rows():
    """``Logger._gate`` is the one gate of a batch: no other code calls ``compress``, as
    a name or an attribute, or a logger's ``self.trigger``."""
    callers = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and (
                    ast.unparse(child.func) in ("compress", "self.trigger")
                    or isinstance(child.func, ast.Attribute) and child.func.attr == "compress"):
                callers.add((module, where))
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    assert callers == {("loggers.py", "Logger._gate")}


def test_only_the_watchers_writer_and_its_three_views_read_its_record():
    """A watcher's record, ``Watcher._cells``, is read by ``_on_call``, which writes it,
    and by ``cells``, ``runs`` and ``recorded``; every other reader goes through
    ``recorded``, and no other module reads ``_cells`` at all."""
    readers = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "_cells"
                    and isinstance(child.ctx, ast.Load)):
                readers.add((module, where))
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    assert readers == {("loggers.py", f"Watcher.{name}")
                       for name in ("_on_call", "cells", "runs", "recorded")}


#: Imports the package and its front end in a fresh interpreter, runs a small benchmark
#: with every logger, then ``bench eaf``, ``stats`` and ``eah`` on the trajectory file
#: it wrote, and prints whether ``logging`` was loaded on the way.
_RUN_AND_ANALYZE = """
import sys
from pathlib import Path
import attainbench
from attainbench import cli
out = Path(sys.argv[1])
cli.run_benchmark(cli.RunConfig(problems=(1,), dimensions=(2,), runs=3, budget=30,
                                loggers=("eaf", "eah", "flatfile"), out_dir=out))
traj = str(out / "continuous_f1_d2_i1_traj.csv")
for command in (["eaf", "--levels", "0,2", "--out", str(out / "levels.json")],
                ["stats", "--levels", "0,2"], ["eah", "--out", str(out / "eah.csv")]):
    assert cli.main([command[0], "--in", traj, *command[1:]]) == 0
print("logging" in sys.modules)
"""


def test_running_and_analyzing_a_benchmark_never_imports_logging(tmp_path):
    done = subprocess.run([sys.executable, "-c", _RUN_AND_ANALYZE, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "continuous_f1_d2_i1.csv", "continuous_f1_d2_i1_eah.csv", "continuous_f1_d2_i1_traj.csv",
        "eah.csv", "levels.json"]
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("make, where", [
    (lambda: Sphere(1, 1, 2), "MetaData(suite_name='adhoc', problem_id=1, instance=1, "
                              "dimension=2, direction=<Direction.MINIMIZATION: 'min'>)"),
    (lambda: ContinuousSuite([1], [1], [2]), "suite continuous"),
], ids=["problem", "suite"])
def test_a_double_attach_emits_one_warning_of_the_problems_logger(caplog, make, where):
    owner, logger = make(), TrajectoryLogger()
    owner.attach_logger(logger)
    with caplog.at_level("WARNING", logger="attainbench.problems"):
        owner.attach_logger(logger)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("attainbench.problems", "WARNING",
         f"logger {logger!r} already attached to {where}; ignoring")]
