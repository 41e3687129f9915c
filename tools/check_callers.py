"""List every definition in ``src/`` that nothing outside ``tests/`` calls.

A stdlib-``ast`` pass over the repository.  It collects every function,


class and method defined in ``src/`` (dunders excluded; functions nested
inside a function body are the enclosing function's business) and every
reference made by the ``.py`` files under ``src/``, ``bench/``,
``benchmarks/``, ``examples/`` and ``tools/``.  A reference is

- an ``ast.Name`` or an ``ast.Attribute`` with the definition's name,
  also inside a string annotation (``size_of: "_Sizer"``),
- an import alias of that name, or
- a string constant passed as the name to ``getattr``/``hasattr``.

A class member is reached through an object, so a bare ``ast.Name``
outside a string annotation (the builtin ``iter(...)``, a local
variable) does not count for it: only an attribute, a
``getattr``/``hasattr`` string or a string annotation does.  Two more
kinds of reference do not count: one inside the definition's own body
(recursion is not a caller), and the re-exports of
``src/repro/**/__init__.py`` (its imports; its ``__all__`` strings are
not references anyway).  Matching is by name, so the pass may miss
dead code but never flags live code.

Exit status 0 when every definition has a caller or is on ``ALLOWED``
and every ``ALLOWED`` name is still defined; 1 otherwise, with one
``path:line module:qualname`` line per definition without a caller.
Run from anywhere::

    python tools/check_callers.py [ROOT]
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass

#: Definitions that are live although no scanned file names them:
#: ``module:qualname`` -> why.
ALLOWED: dict[str, str] = {
    "repro.net.server:_SoapHttpHandler.do_POST":
        "http.server dispatches POST requests to it by name",
    "repro.net.server:_SoapHttpHandler.log_message":
        "http.server calls it for every request; overridden to stay quiet",
    "repro.core.delta:VersionLog.stamp_rows":
        "reference: the whole-document delta oracle stamps its scan with it",
}

CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "tools")


@dataclass(frozen=True)
class Definition:
    path: str
    line: int
    module: str
    qualname: str
    end_line: int

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(root: str, path: str) -> str:
    relative = os.path.relpath(path, os.path.join(root, "src"))
    parts = relative[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _python_files(top: str):
    for directory, subdirs, files in os.walk(top):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def definitions(root: str, path: str, tree: ast.Module) -> list[Definition]:
    """Module-level functions and classes, and (nested) class members."""
    module = _module_name(root, path)
    found: list[Definition] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            qualname = prefix + node.name
            if not _is_dunder(node.name):
                found.append(Definition(
                    path, node.lineno, module, qualname, node.end_lineno,
                ))
            if isinstance(node, ast.ClassDef):
                visit(node.body, qualname + ".")

    visit(tree.body, "")
    return found


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.Module
                             ) -> list[tuple[str, int, bool]]:
    """Names and attributes written inside string annotations."""
    found: list[tuple[str, int, bool]] = []
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    found.append((inner.id, node.lineno, False))
                elif isinstance(inner, ast.Attribute):
                    found.append((inner.attr, node.lineno, False))
    return found


def references(tree: ast.Module, reexports: bool
               ) -> list[tuple[str, int, bool]]:
    """``(name, line, bare)`` for every reference in ``tree``; ``bare``
    marks an ``ast.Name`` or an import alias, which reaches no class
    member.

    ``reexports`` marks a package ``__init__`` under ``src/``: its
    import aliases are re-exports and are skipped.
    """
    found = _string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno, False))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
            for alias in node.names:
                found.append(
                    (alias.name.rsplit(".", 1)[-1], node.lineno, True)
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            found.append((node.args[1].value, node.lineno, False))
    return found


def check(root: str, allowed: dict[str, str] = ALLOWED
          ) -> tuple[list[Definition], list[str]]:
    """``(definitions with no counted reference and not allowed,
    allowed names that define nothing)`` for the tree at ``root``."""
    defs: list[Definition] = []
    # name -> [(path, line, bare)] of every counted reference
    refs: dict[str, list[tuple[str, int, bool]]] = {}
    for top in CALLER_DIRS:
        directory = os.path.join(root, top)
        if not os.path.isdir(directory):
            continue
        for path in _python_files(directory):
            tree = _parse(path)
            in_src = top == "src"
            if in_src:
                defs.extend(definitions(root, path, tree))
            reexports = in_src and os.path.basename(path) == "__init__.py"
            for name, line, bare in references(tree, reexports):
                refs.setdefault(name, []).append((path, line, bare))

    def called(definition: Definition) -> bool:
        member = "." in definition.qualname
        return any(
            not (member and bare) and (
                path != definition.path
                or not definition.line <= line <= definition.end_line
            )
            for path, line, bare in refs.get(definition.name, ())
        )

    uncalled = [d for d in defs if d.key not in allowed and not called(d)]
    defined = {d.key for d in defs}
    stale = sorted(key for key in allowed if key not in defined)
    return uncalled, stale


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = os.path.abspath(
        args[0] if args else os.path.dirname(os.path.dirname(__file__))
    )
    uncalled, stale = check(root)
    for d in uncalled:
        print(f"{os.path.relpath(d.path, root)}:{d.line} {d.key}")
    for key in stale:
        print(f"allow-listed but not defined: {key}")
    if uncalled:
        print(
            f"{len(uncalled)} definition(s) in src/ have no caller "
            "outside tests/",
            file=sys.stderr,
        )
    return 1 if uncalled or stale else 0


if __name__ == "__main__":
    sys.exit(main())
