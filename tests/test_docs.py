import argparse
import ast
import random
import re
from pathlib import Path

import orelab
from orelab import coloring, lab_cli, ore, packing
from orelab.discharge import closing_inequalities
from orelab.graph_core import bits, mask_of
from orelab.potential import f_core, potential, verify_main_theorem, verify_ore5_bounds

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


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_library_code_is_reached_outside_tests():
    modules = _modules()
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
    # a record's fields are its __slots__; each needs its annotated line, or
    # it would leave the check above by being declared only in __slots__
    unannotated = [
        f"{module}.{stmt.name}.{name} has no annotated field line"
        for module, stmt in statements
        if isinstance(stmt, ast.ClassDef)
        for node in stmt.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", "") for target in node.targets] == ["__slots__"]
        for name in ast.literal_eval(node.value)
        if name not in {_member(field) for field in stmt.body if isinstance(field, ast.AnnAssign)}
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
    problems = unreached + unannotated + unused_imports
    problems += [f"README lacks {name}" for name in undocumented]
    assert not problems, "\n".join(problems)


# Graph.__init__ checks the structure of every graph built with
# Graph(...); the graphs the library derives from graphs it holds skip it by
# way of graph_core._trusted, mostly through the row builder graph_core._image.
# These are the only functions that may use either, each for rows that are
# well formed by construction, so a new one must be added here on purpose.
# graph_core.paired gives the rows of both sides of one case of a 2-cut.
UNCHECKED_BUILDERS = {
    "_trusted": {
        "graph_core._image",
        "graph_core.without_edge",
        "graph_core.paired",
        "coloring._four_core",
        "ore.compose_graphs",
    },
    "_image": {
        "graph_core.induced_subgraph",
        "graph_core.relabel",
        "potential.phi_identify",
    },
    "__new__": {"graph_core._trusted"},
}


def _uses(node: ast.AST, owner: str, out: list[tuple[str, str, bool]]) -> None:
    """(owner, name, called) for every name ``node`` loads, by name or as an
    attribute, with ``owner`` the dotted name of the innermost enclosing
    def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _uses(child, f"{owner}.{child.name}", out)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            out.append((owner, getattr(func, "id", getattr(func, "attr", "")), True))
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.append((owner, child.id, False))
        elif isinstance(child, ast.Attribute):
            out.append((owner, child.attr, False))
        _uses(child, owner, out)


def _all_uses() -> list[tuple[str, str, bool]]:
    """``_uses`` over every module of the package."""
    uses: list[tuple[str, str, bool]] = []
    for module, tree in _modules().items():
        _uses(tree, module, uses)
    return uses


def test_graphs_skip_the_structure_check_only_in_listed_builders():
    uses = _all_uses()
    for name, allowed in UNCHECKED_BUILDERS.items():
        assert {owner for owner, used, _ in uses if used == name} == allowed, name
    # outside data enters through Graph(...) itself, which from_edges calls
    assert {owner for owner, used, called in uses if used == "Graph" and called} == {
        "graph_core.Graph.from_edges"
    }
    # one builder forms the cases of a 2-cut: the coloring proofs read its
    # rows on masks, and Ore recognition copies its sides out of them for
    # canonical_form
    assert {owner for owner, used, _ in uses if used == "paired"} == {
        "coloring._split",
        "coloring.is_collapsible",
        "ore._try_factor",
    }


# Every exact coloring takes one path: coloring._peel_solve_check peels a
# mask once, hands its k-core to a solve step, colors the peeled vertices and
# checks the mask once; the solve steps are the only callers of the search.  These are
# the only functions that may peel, search or check a solver's coloring, so a
# second solve path must be added here on purpose.
SOLVE_PATH = {
    "_peel": {"coloring._peel_solve_check", "coloring._four_core"},
    "_search": {"coloring._search_components", "coloring._cut_or_search"},
    "_check_proper": {
        "coloring._peel_solve_check",
        "coloring._split",
        "coloring.seeded_coloring",
    },
}


def test_exact_colorings_take_one_solve_path():
    uses = _all_uses()
    for name, allowed in SOLVE_PATH.items():
        assert {owner for owner, used, _ in uses if used == name} == allowed, name
    # the 2-cut recursion reaches the search through its own solve step,
    # never through is_k_colorable
    recursion = ("coloring._by_cuts", "coloring._cut_or_search", "coloring._split")
    assert not [
        owner
        for owner, used, _ in uses
        if used == "is_k_colorable" and owner.startswith(recursion)
    ]


def test_vertex_sets_are_masks():
    # a vertex set crosses every library boundary as an int mask, bit v for
    # vertex v; lists of vertices exist only where text enters or leaves,
    # and no vertex set is frozen into a sorted tuple to be handed on
    patterns = ("frozenset", "sorted(set(", "tuple(sorted(", "tuple(bits(")
    found = [
        f"{path.name}:{i}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if any(pattern in line for pattern in patterns)
    ]
    assert not found, "\n".join(found)


def is_mask_of(x, n: int) -> bool:
    return type(x) is int and 0 <= x < 1 << n


def test_vertex_set_results_are_int_masks(ore17, lab_facts):
    # packing pieces, mic witnesses, Ore splits and the set a seeded
    # coloring colors, each an int mask of the vertices it names
    graphs = [facts.graph for facts in lab_facts]
    for G in graphs:
        t, pieces = packing.t_number(G)
        used = 0
        for piece in pieces:
            assert is_mask_of(piece, G.n) and not piece & used
            assert piece.bit_count() in (3, 4)
            assert all(G.adj[u] & piece == piece & ~(1 << u) for u in bits(piece))
            used |= piece
        assert sum(piece.bit_count() - 2 for piece in pieces) == t
        value, witness = packing.mic(G)
        assert is_mask_of(witness, G.n)
        assert not any(G.adj[v] & witness for v in bits(witness))
        assert sum(G.degree(v) for v in bits(witness)) == value
    recipes = [r for _, r in ore17] + [f.recipe for f in lab_facts if f.recipe is not None]
    nodes = 0
    while recipes:
        node = recipes.pop()
        if isinstance(node, ore.Compose):
            g2 = ore.ore_compose(node.vertex_side)
            a, b = node.split
            assert is_mask_of(a, g2.n) and is_mask_of(b, g2.n)
            assert a and b and not a & b and a | b == g2.adj[node.split_vertex]
            recipes += (node.edge_side, node.vertex_side)
            nodes += 1
    assert nodes > 1000
    rng = random.Random(24)
    for G in graphs[-60:]:
        if G.n > 5:
            R = mask_of(rng.sample(range(G.n), rng.randint(5, G.n - 1)))
            phi = coloring.seeded_coloring(G, R, 4, rng)
            assert phi is not None and all(type(v) is int for v in phi)
            assert mask_of(phi) == R


# Check names whose FAIL branch no input reaches, each with the reason; every
# other name must have a test that asserts one of its FAIL lines exactly.
STRUCTURAL_CHECKS = {
    "extension-shape": "added with a literal True; the row describes a record",
    "conservation": "run_discharge raises before it returns a ledger whose sums disagree",
    "charge-sum-identity": "both sides equal 760n - 336m",
}


def test_every_check_name_has_a_planted_fail_line():
    names = {
        node.args[0].value
        for tree in _modules().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }
    assert STRUCTURAL_CHECKS.keys() <= names
    tests = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(ROOT.glob("tests/test_*.py"))
        if path.name != "test_docs.py"
    )
    unpinned = sorted(
        name
        for name in names - STRUCTURAL_CHECKS.keys()
        if not re.search(rf"CHECK {re.escape(name)} \S+ FAIL\b", tests)
    )
    assert not unpinned, "\n".join(unpinned)


def test_work_is_counted_only_by_the_shared_counters():
    # a profiler hook and adjacency rows that subclass int are how tests
    # count work no wrapper reaches; helpers.py holds the one copy of each
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != "helpers.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "setprofile")
        or (isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", None) == "int" for base in node.bases))
    ]
    assert not found, "\n".join(found)


def _called(node: ast.AST | None) -> str | None:
    """The name that ``f(...)`` calls, or that a bare name reads."""
    return getattr(getattr(node, "func", node), "id", None)


def test_no_usage_error_is_raised_where_faults_panic():
    # inside a _panics_naming block every ValueError and KeyError becomes a
    # panic, so a usage check raised there would exit 3 instead of 2
    found = [
        f"lab_cli.py:{raised.lineno}"
        for node in ast.walk(_modules()["lab_cli"])
        if isinstance(node, ast.With)
        and any(_called(item.context_expr) == "_panics_naming" for item in node.items)
        for stmt in node.body
        for raised in ast.walk(stmt)
        if isinstance(raised, ast.Raise) and _called(raised.exc) in ("ValueError", "KeyError")
    ]
    assert not found, "\n".join(found)


def test_library_arithmetic_has_no_float():
    # potentials, slacks and charges are int numerators over 21 or 84, so
    # no true division, float literal or float() call belongs in the
    # library; corpus.py's "/" joins paths
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            and module != "corpus")
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
    ]
    assert not found, "\n".join(found)


def test_potentials_and_slacks_are_ints(lab_facts):
    assert all(type(f_core(x)) is int for x in range(1, 5))
    reports = []
    for facts in lab_facts:
        assert type(facts.p) is int and type(potential(facts.graph, facts.t)) is int
        # the corpus and lemma2 rows carry notes, never a slack
        if facts.critical:
            reports += [verify_main_theorem(facts), verify_ore5_bounds(facts)]
            reports.append(closing_inequalities(facts))
            if 6 <= facts.graph.n <= 13:
                reports.append(lab_cli._extension_report(facts, 0, list(range(4))))
    slacks = [c.slack21 for rep in reports for c in rep.checks if c.slack21 is not None]
    assert len(slacks) > 2000 and all(type(s) is int for s in slacks)
