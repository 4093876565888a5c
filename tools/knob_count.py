#!/usr/bin/env python3
"""Count the settable values of a package: the knobs a caller could turn.

    python3 tools/knob_count.py SRC

SRC is a package directory, one with an ``__init__.py`` (for example
``src/cstarlab``); any other directory exits 2.  For each module, and in
total, the script lists every parameter that has a default value in a ``def``
(positional and keyword-only, nested functions included), every annotated
field with a default in a ``@dataclass`` class, and every module-level
``ContextVar(...)``, a run-level setting such as ``certs.TRACK``.  A value that no
caller ever sets to a second value is a constant in disguise; the count shows
how many such places a reader has to check.
"""

import ast
import sys
from pathlib import Path


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_context_var(stmt: ast.stmt) -> bool:
    call = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
    if not isinstance(call, ast.Call):
        return False
    f = call.func
    return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")) == "ContextVar"


def knobs(tree: ast.Module) -> list[str]:
    """Names "owner(parameter)" of the defaulted parameters, "Class.field" of
    the defaulted dataclass fields and the names of the module-level context
    variables in a module's syntax tree."""
    out = []
    for stmt in filter(_is_context_var, tree.body):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        out += [t.id for t in targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out += [f"{node.name}({a.arg})" for a in defaulted]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)]
    return out


def main(src: str) -> None:
    if not (Path(src) / "__init__.py").is_file():
        print(f"knob_count.py: {src} is not a package directory with an __init__.py "
              "(for example src/cstarlab)", file=sys.stderr)
        sys.exit(2)
    total = 0
    for path in sorted(Path(src).glob("*.py")):
        found = knobs(ast.parse(path.read_text(), filename=str(path)))
        total += len(found)
        print(f"{path.stem}: {len(found)}" + (f"  {' '.join(found)}" if found else ""))
    print(f"total: {total}")


if __name__ == "__main__":
    main(sys.argv[1])
