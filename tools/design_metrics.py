"""Print the package's tracked design numbers, read from the syntax tree.

    python tools/design_metrics.py [src/osgood]

For each module of the package: its lines (as `wc -l` counts them), its
settable options, its public names, its `np.errstate` blocks and its
test-only names, then the totals, and under the table the settable options
by name (`module.def.param`, `module.Class.field`, nested defs and methods
under their enclosing names), the public methods, the test-only names and
the write-only fields.

- A settable option is a parameter with a default value in a `def`,
  nested ones included (a lambda's defaults are not counted), or a field
  with a default in a `@dataclass` class body: an annotated assignment
  with a value, `field(default_factory=...)` included.
- A public name is a module-level function, class or assigned name that
  does not start with an underscore, or a public method: a method, property
  or static constructor of a public module-level class whose name does not
  start with an underscore (dunders and private methods are not counted),
  named `module.Class.name`.
- An errstate block is a `with` statement one of whose items calls an
  attribute named `errstate` (`with np.errstate(...)`).
- A test-only name is a public name that no code outside its own
  definition references, in the package or in `perfbench/` next to it.  Only
  the tests reach it.  A top-level name is referenced as a name, an
  attribute, an imported name or a string constant (`perfbench` lists the
  functions it traces by name).  A method is reached only as an attribute
  (`x.name`) or a string constant, so a bare name never counts for it: a
  local or a field of the same name does not reach a method, and neither
  does a dict key.
- A write-only field is a field of a public module-level dataclass that no
  attribute read (`x.name` in load context) reaches, in the package, in
  `perfbench/` or in `tests/` next to it, named `module.Class.field`.  Only
  attributes count: a keyword argument, an assignment `x.name = ...`, a
  string or a bare name of the same spelling does not read the field.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "osgood"
COLUMNS = ("lines", "options", "public", "errstate", "test-only")


def is_dataclass(node: ast.ClassDef) -> bool:
    """The class is decorated with `dataclass`, `dataclasses.dataclass` or a
    call of either."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(t, "attr", getattr(t, "id", None)) == "dataclass" for t in targets)


def settable_options(tree: ast.AST, path: str) -> list[str]:
    """`path.def.param` for each parameter with a default, over every def in
    the tree, and `path.Class.field` for each field with a default, over
    every dataclass; a nested def or class extends the path by its name."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += settable_options(node, path)
            continue
        name = f"{path}.{node.name}"
        if isinstance(node, ast.ClassDef):
            own = [ast.unparse(s.target) for s in node.body
                   if isinstance(s, ast.AnnAssign) and s.value is not None] if is_dataclass(node) else []
        else:
            a = node.args
            positional = a.posonlyargs + a.args
            own = [p.arg for p in positional[len(positional) - len(a.defaults):]]
            own += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out += [f"{name}.{o}" for o in own] + settable_options(node, name)
    return out


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def, a class, or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def public_names(tree: ast.Module) -> list[str]:
    """Module-level defs, classes and assigned names not starting with '_'."""
    return [n for node in tree.body for n in defined_names(node) if not n.startswith("_")]


def public_methods(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """(`Class.name`, def) for each method, property or static constructor
    not starting with '_' of each module-level class not starting with '_'."""
    return [(f"{node.name}.{m.name}", m) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")]


def dataclass_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(`Class.field`, field) for each annotated field of each public
    module-level dataclass."""
    return [(f"{node.name}.{s.target.id}", s.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and is_dataclass(node)
            for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def loaded_attributes(tree: ast.AST) -> set[str]:
    """The attribute names the tree reads (`x.name` in load context)."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def errstate_blocks(tree: ast.AST) -> int:
    """`with` statements that enter an `....errstate(...)` call."""
    return sum(
        any(
            isinstance(item.context_expr, ast.Call)
            and isinstance(item.context_expr.func, ast.Attribute)
            and item.context_expr.func.attr == "errstate"
            for item in node.items
        )
        for node in ast.walk(tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
    )


def referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier the tree reads or imports, and its string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def attribute_reads(tree: ast.AST) -> Counter:
    """How often each attribute name and each string constant occurs in the
    tree: the only ways code reaches a method.  A string that is a dict key
    or a subscript (`{"ratios": r}`, `o["ratios"]`) names data, not code, and
    is left out."""
    keys = {id(k) for node in ast.walk(tree) for k in (
        node.keys if isinstance(node, ast.Dict) else [node.slice] if isinstance(node, ast.Subscript) else [])}
    return Counter(
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys)
    )


def parse(path: Path) -> tuple[str, ast.Module]:
    text = path.read_text(encoding="utf-8")
    return text, ast.parse(text, filename=str(path))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else DEFAULT_PACKAGE
    modules = {p.name: parse(p) for p in sorted(package.glob("*.py"))}
    root = package.parent.parent
    bench = [parse(p)[1] for p in sorted((root / "perfbench").glob("*.py"))]
    tests = [parse(p)[1] for p in sorted((root / "tests").glob("*.py"))]
    trees = [tree for _, tree in modules.values()] + bench + tests
    loaded = set().union(*map(loaded_attributes, trees))
    # references of each top-level statement, keyed by (module, position)
    refs = {(name, i): referenced_names(node)
            for name, (_, tree) in modules.items() for i, node in enumerate(tree.body)}
    refs.update({("perfbench", i): referenced_names(tree) for i, tree in enumerate(bench)})
    # a method is reached where its name is read more often than in its own def
    reads = sum((attribute_reads(tree) for _, tree in modules.values()), Counter())
    reads += sum((attribute_reads(tree) for tree in bench), Counter())
    rows, options, methods, test_only, write_only = {}, [], [], [], []
    for name, (text, tree) in modules.items():
        unused = [n for i, node in enumerate(tree.body) for n in defined_names(node)
                  if not n.startswith("_") and not any(n in r for key, r in refs.items() if key != (name, i))]
        own = public_methods(tree)
        unused += [n for n, m in own if reads[m.name] == attribute_reads(m)[m.name]]
        methods += [f"{name[:-3]}.{n}" for n, _ in own]
        test_only += [f"{name[:-3]}.{n}" for n in unused]
        write_only += [f"{name[:-3]}.{n}" for n, attr in dataclass_fields(tree) if attr not in loaded]
        named = settable_options(tree, name[:-3])
        options += named
        rows[name] = {
            "lines": text.count("\n"),
            "options": len(named),
            "public": len(public_names(tree)) + len(own),
            "errstate": errstate_blocks(tree),
            "test-only": len(unused),
        }
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in COLUMNS}
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in COLUMNS))
    for name, r in rows.items():
        print(f"{name:<16}" + "".join(f"{r[k]:>11}" for k in COLUMNS))
    print("\nsettable options:", ", ".join(options) or "none")
    print("public methods:", ", ".join(methods) or "none")
    print("test-only names:", ", ".join(test_only) or "none")
    print("write-only fields:", ", ".join(write_only) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
