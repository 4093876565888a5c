#!/usr/bin/env python3
"""Count the settable values of a package: the knobs a caller could turn.

    python3 tools/knob_count.py SRC

SRC is a package directory (for example ``src/cstarlab``).  For each module,
and in total, the script lists every parameter that has a default value in a
``def`` (positional and keyword-only, nested functions included) and every
annotated field with a default in a ``@dataclass`` class.  A value that no
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


def knobs(tree: ast.AST) -> list[str]:
    """Names "owner(parameter)" of the defaulted parameters and the
    defaulted dataclass fields in a module's syntax tree."""
    out = []
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
    if not Path(src).is_dir():
        sys.exit(f"{src} is not a directory")
    total = 0
    for path in sorted(Path(src).glob("*.py")):
        found = knobs(ast.parse(path.read_text(), filename=str(path)))
        total += len(found)
        print(f"{path.stem}: {len(found)}" + (f"  {' '.join(found)}" if found else ""))
    print(f"total: {total}")


if __name__ == "__main__":
    main(sys.argv[1])
