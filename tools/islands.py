"""Print the ``src/repro`` modules that no ``python -m repro.*`` entry point
(``__main__.py``) nor ``benchmarks/account/*.py`` reaches by imports; a name
imported from a package follows its ``__init__`` re-export to the defining
module. Reports, never fails. Usage: ``python3 tools/islands.py`` (repo root)."""

import ast
import pathlib

SRC = pathlib.Path("src")


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


PATHS = {module_name(p): p for p in sorted(SRC.rglob("*.py"))}
TREES = {name: ast.parse(path.read_text(encoding="utf-8"))
         for name, path in PATHS.items()}


def imports(tree: ast.Module):
    """The ``(module, name or None)`` pairs *tree* imports, lazy ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((node.module, alias.name) for alias in node.names)


def visit(module: str, name, reached: set) -> None:
    if module not in PATHS:
        return  # stdlib or third party
    if name is not None and f"{module}.{name}" in PATHS:
        return visit(f"{module}.{name}", None, reached)
    if name is not None and PATHS[module].stem == "__init__":
        for node in TREES[module].body:  # follow a re-export by name
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return visit(node.module, alias.name, reached)
    if module not in reached:
        reached.add(module)
        for target in imports(TREES[module]):
            visit(*target, reached)


if __name__ == "__main__":
    reached: set = set()
    roots = [(n, None) for n in PATHS if n.endswith(".__main__")]
    for path in pathlib.Path("benchmarks/account").glob("*.py"):
        roots += imports(ast.parse(path.read_text(encoding="utf-8")))
    for target in roots:
        visit(*target, reached)
    islands = [(n, len(p.read_text(encoding="utf-8").splitlines()))
               for n, p in PATHS.items()
               if n not in reached and p.stem != "__init__"]
    for name, lines in islands:
        print(f"{name:40s} {lines:5d}")
    print(f"{len(islands)} modules, {sum(n for _, n in islands)} lines")
