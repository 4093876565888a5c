#!/usr/bin/env python3
"""List the definitions of a package that no run path reaches.

    python3 tools/reach.py SRC

SRC is a package directory (for example ``src/cstarlab``).  The script reads
every module's syntax tree, builds a call graph and walks it from the run
paths: ``pipelines.run_pipeline``, the CLI (``cli.main`` and its commands),
the selftest (``acceptance.run_all`` and its criteria) and the persistence
entry points ``serialize.dumps``/``loads``/``save``/``load``.  It prints, one
per line and sorted, every top-level function, class and method that the walk
never reaches, as ``module.name`` or ``module.Class.method``.

The graph is built without running anything, and it errs toward "reached":
- a name read in a definition (not in an annotation) links to the module's
  definition of that name, through ``from .m import name`` chains;
- ``module.name`` links to that definition when ``module`` is imported from
  the package;
- ``x.name`` links to the method or property ``name`` of every class the walk
  has reached, since the type of ``x`` is not known;
- a reached class reaches its body and its dunder methods;
- module-level statements other than imports and assignments are run at
  import, so they are roots.
"""

import ast
import sys
from pathlib import Path

ROOTS = ("pipelines.run_pipeline", "cli.main", "acceptance.run_all",
         "serialize.dumps", "serialize.loads", "serialize.save", "serialize.load")


class _Refs(ast.NodeVisitor):
    """The names a node reads: bare names, and (base, attribute) pairs with
    base the bare name an attribute is read from, or None."""

    def __init__(self):
        self.names, self.attrs = set(), set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        self.attrs.add((base, node.attr))
        self.generic_visit(node)

    # annotations read types and run nothing: of a definition's signature
    # only the decorators and the defaults are read
    def visit_FunctionDef(self, node):
        for child in node.decorator_list + [node.args] + node.body:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_arguments(self, node):
        for default in node.defaults + [d for d in node.kw_defaults if d is not None]:
            self.visit(default)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _refs(nodes) -> _Refs:
    refs = _Refs()
    for node in nodes:
        refs.visit(node)
    return refs


class _Module:
    """One module's definitions, their references and its import table."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs = {}      # "f", "C", "C.m" or an assigned name -> _Refs
        self.reported = []  # the keys of defs that are functions, classes or methods
        self.classes = {}   # class name -> the names of its methods
        self.roots = []     # _Refs of statements run at import
        self.imports = {}   # local name -> (module, name), or (module, None) for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = ((node.module, alias.name) if node.module
                                           else (alias.name, None))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._define(node.name, [node], report=True)
            elif isinstance(node, ast.ClassDef):
                meths = [n for n in node.body
                         if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                body = [n for n in node.body if n not in meths]
                self._define(node.name, node.decorator_list + node.bases + body, report=True)
                self.classes[node.name] = [m.name for m in meths]
                for meth in meths:
                    self._define(f"{node.name}.{meth.name}", [meth], report=True)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            self._define(t.id, [node], report=False)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                self.roots.append(_refs([node]))  # run at import; docstrings are not

    def _define(self, key, nodes, report):
        self.defs[key] = _refs(nodes)
        if report:
            self.reported.append(key)


def unreached(src: str) -> list[str]:
    """The sorted dotted names of the functions, classes and methods of the
    package at src that no root reaches."""
    modules = {}
    for path in sorted(Path(src).glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = _Module(path.stem, ast.parse(path.read_text(), str(path)))

    def resolve(mod, name, seen=()):
        """The (module, key) a name read in mod refers to, or None."""
        m = modules[mod]
        if name in m.defs:
            return mod, name
        if name in m.imports and (mod, name) not in seen:
            target, attr = m.imports[name]
            if attr is not None and target in modules:
                return resolve(target, attr, seen + ((mod, name),))
        return None

    reached, todo, attrs = set(), [], set()

    def reach(node):
        if node is not None and node not in reached:
            reached.add(node)
            todo.append(node)

    def follow(mod, refs):
        for name in refs.names:
            reach(resolve(mod, name))
        for base, attr in refs.attrs:
            imported = modules[mod].imports.get(base)
            if imported and imported[1] is None and imported[0] in modules:
                reach(resolve(imported[0], attr))  # module.name
            if attr not in attrs:
                attrs.add(attr)
                for m in modules.values():  # x.name on the classes reached so far
                    for cls, meths in m.classes.items():
                        if attr in meths and (m.name, cls) in reached:
                            reach((m.name, f"{cls}.{attr}"))

    for root in ROOTS:
        mod, name = root.split(".")
        reach((mod, name))
    for m in modules.values():
        for refs in m.roots:
            follow(m.name, refs)
    while todo:
        mod, key = todo.pop()
        m = modules[mod]
        follow(mod, m.defs[key])
        # a class reaches its dunders and the attributes read so far
        for meth in m.classes.get(key, ()):
            if meth in attrs or meth.startswith("__") and meth.endswith("__"):
                reach((mod, f"{key}.{meth}"))
    return sorted(f"{m.name}.{key}" for m in modules.values()
                  for key in m.reported if (m.name, key) not in reached)


def main(src: str) -> None:
    if not Path(src).is_dir():
        sys.exit(f"{src} is not a directory")
    for name in unreached(src):
        print(name)


if __name__ == "__main__":
    main(sys.argv[1])
