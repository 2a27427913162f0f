"""Print the size of ``src/`` — ROADMAP aim 2's tracked number.

Two counts over ``src/**/*.py``: physical lines, and ``ast.stmt`` nodes
with docstrings excluded (so documentation never counts as code).
Usage: ``python3 tools/src_size.py [ROOT]`` (default: ``src``).
"""

import ast
import pathlib
import sys


def count(root: str = "src") -> tuple[int, int]:
    lines = statements = 0
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.stmt):
                statements += 1
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                statements -= 1
    return lines, statements


if __name__ == "__main__":
    print("src size: %d physical lines, %d statements" % count(*sys.argv[1:2]))
