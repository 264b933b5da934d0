"""The package's public surface and the README's examples."""

import re
from pathlib import Path

import attainbench

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves_and_is_listed_once():
    names = attainbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(attainbench, name)]
    assert missing == []


def test_the_readme_python_examples_run_in_order(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL))
    assert blocks
    namespace = {}
    for block in blocks:
        # Pad with blank lines so a traceback gives the README's own line numbers.
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
