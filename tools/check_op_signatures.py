#!/usr/bin/env python
"""Guard the OperatingPoint currency: no loose scalar-triple signatures.

Walks every Python file under ``src/`` and fails if any function signature
threads the ``(temperature_k, vdd_v, vth_v)`` parameter triple. Model
entry points take one ``op: OperatingPoint``; a signature that names all
three scalars re-introduces the pre-refactor style and is rejected.
:meth:`repro.tech.operating_point.OperatingPoint.at` takes the triple by
design, so its module is exempt, as is the batch module, whose array
columns carry the same names.

Usage: ``python tools/check_op_signatures.py [root]`` -- exits non-zero
with a listing of offending definitions. ``tests/test_check_op_signatures.py``
runs the same check over ``src/`` in the test suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: The parameter names whose co-occurrence marks a legacy signature.
TRIPLE = frozenset({"temperature_k", "vdd_v", "vth_v"})

#: ``OperatingPoint.at`` builds a point from the triple, on purpose; the
#: batch module names the same triple as its *array columns* -- the
#: sanctioned plural currency, not a loose scalar signature.
EXEMPT_FILES = ("repro/tech/operating_point.py", "repro/tech/batch.py")


def _argument_names(node: ast.FunctionDef) -> List[str]:
    args = node.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return [a.arg for a in every]


def _walk_functions(
    tree: ast.AST,
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, node)`` for every function definition."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def find_violations(root: Path) -> List[str]:
    """Legacy scalar-triple signatures under ``root``, as report lines."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.endswith(EXEMPT_FILES):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualname, node in _walk_functions(tree):
            if not TRIPLE.issubset(_argument_names(node)):
                continue
            violations.append(
                f"{relative}:{node.lineno}: {qualname} threads the legacy "
                "(temperature_k, vdd_v, vth_v) scalar triple -- take an "
                "OperatingPoint instead (repro.tech.operating_point)"
            )
    return violations


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    violations = find_violations(root)
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} operating-point policy violation(s) found")
        return 1
    print(f"operating-point signatures clean under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
