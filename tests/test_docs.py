import argparse
import ast
import re
from pathlib import Path

import orelab
from orelab import lab_cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "orelab"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "5 10 (k5) 5",
        "9 19 (compose (k5) e=0-1 (k5) z=0 split=1|2,3,4) 5",
        "9 19 (compose (k5) e=0-1 (k5) z=0 split=1,2|3,4) 5",
    ]
    assert len(lines) == 4


def test_every_cli_option_is_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    parser = lab_cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = sorted(
        f"orelab {command} {option}"
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help" and option not in readme
    )
    assert not missing, "\n".join(missing)


def _loads(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, by name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _attributes(node: ast.AST) -> set[str]:
    """Names that ``node`` reads as an attribute."""
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _member(node: ast.stmt) -> str | None:
    """The name a class-body statement defines as a method or an annotated
    field, if it is one of those."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def test_library_code_is_reached_outside_tests():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    statements = [(name, stmt) for name, tree in modules.items() for stmt in tree.body]
    loads = [_loads(stmt) for _, stmt in statements]
    unreached = [
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined(stmt)
        if not any(name in seen for j, seen in enumerate(loads) if j != i)
    ]
    # a method or an annotated field counts as reached when code outside its
    # own body loads it as an attribute (a field through ``self.`` in a
    # method of its class, too); a local variable of the same name does not
    # reach it
    units = [
        (f"{module}.{stmt.name}", node) if isinstance(stmt, ast.ClassDef) else (None, node)
        for module, stmt in statements
        for node in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]
    unit_loads = [_attributes(node) for _, node in units]
    unreached += [
        f"{owner}.{name}"
        for i, (owner, node) in enumerate(units)
        if owner and (name := _member(node)) and not name.startswith("__")
        and not any(name in seen for j, seen in enumerate(unit_loads) if j != i)
    ]
    unused_imports = []
    for module, tree in modules.items():
        used = _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused_imports.append(f"{module} imports {bound}")
    readme = README.read_text(encoding="utf-8")
    undocumented = [name for name in orelab.__all__ if not re.search(rf"\b{name}\b", readme)]
    problems = unreached + unused_imports + [f"README lacks {name}" for name in undocumented]
    assert not problems, "\n".join(problems)
