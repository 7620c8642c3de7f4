"""Print the package's tracked design numbers, read from the syntax tree.

    python tools/design_metrics.py [src/osgood]

For each module of the package: its lines (as `wc -l` counts them), its
settable options and its public top-level names, then the totals.

- A settable option is a parameter with a default value in a `def`,
  nested ones included (a lambda's defaults are not counted).
- A public top-level name is a module-level function, class or assigned
  name that does not start with an underscore.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "osgood"


def settable_options(tree: ast.AST) -> int:
    """Parameters with a default, over every def in the tree."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def public_names(tree: ast.Module) -> list[str]:
    """Module-level defs, classes and assigned names not starting with '_'."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n for n in names if not n.startswith("_")]


def module_metrics(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return {
        "lines": text.count("\n"),
        "options": settable_options(tree),
        "public": len(public_names(tree)),
    }


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else DEFAULT_PACKAGE
    rows = {p.name: module_metrics(p) for p in sorted(package.glob("*.py"))}
    totals = {k: sum(r[k] for r in rows.values()) for k in ("lines", "options", "public")}
    print(f"{'module':<16}{'lines':>7}{'options':>9}{'public':>8}")
    for name, r in [*rows.items(), ("total", totals)]:
        print(f"{name:<16}{r['lines']:>7}{r['options']:>9}{r['public']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
