"""The package's public names: every exported name exists, once, and the
README's library example runs on them.  Library code reports through
logging: only the CLI writes to the terminal."""

import ast
import contextlib
import io
import os
import re

import finslerpde

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_exported_name_resolves():
    missing = [name for name in finslerpde.__all__ if not hasattr(finslerpde, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    names = finslerpde.__all__
    assert len(names) == len(set(names))


def test_readme_library_example_runs():
    # the first python block after the "Library entry points" heading; it
    # prints the largest deviation of the P1 solve from the lifted radial
    # profile (4.5e-5 at h = 0.05)
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library entry points"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert float(out.getvalue()) < 1e-3


def test_library_code_neither_prints_nor_warns():
    # every module but cli.py: no print() and no warnings.warn()
    package = os.path.dirname(os.path.abspath(finslerpde.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "cli.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        found += [f"{name}:{node.lineno} {ast.unparse(node.func)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in ("print", "warn", "warnings.warn")]
    assert found == []
