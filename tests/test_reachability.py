"""The library is what the command line and the benchmark reach.

Every module-level public function and class in src/clonelab must be
reachable from the command line (cli.py, __main__.py) or from bench/*.py,
following references through src/ definitions. The sources are read with
ast, nothing is imported. A name only tests call belongs in tests/, unless
KEPT says why it stays; what a kept name uses is reached through it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "finite_core.pi4": "builder of the relation {a=b or c=d} that criterion 3 defines",
    "finite_core.neq": "builder of the inequality relation",
    "finite_core.constant_op": "builder of constant operations",
    "finite_core.is_conservative": "the predicate of the principal-ideal criterion",
    "simple_module.identity_map": "builder of the identity matrix",
    "clone_engine.fragments_equal": "equality of fragments by member tables",
    "symbolic_perms.from_cycles": "builder of permutations in cycle notation",
    "symbolic_perms.inverse": "the group inverse of a permutation",
    "ultralocal.check_dagger": "the per-cover view of the one cover scan",
}


def imports(tree):
    """Local name -> (module, name) for a name imported from the package,
    or (module, None) for one of its modules."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "clonelab" in str(node.module)):
            module = node.module if node.level else node.module.partition(".")[2]
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = (module, alias.name) if module else (alias.name, None)
    return bound


MODULES = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "clonelab").glob("*.py")}
DEFS = {
    mod: {
        target: node
        for node in tree.body
        for target in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            else [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        )
    }
    for mod, tree in MODULES.items()
}
IMPORTS = {mod: imports(tree) for mod, tree in MODULES.items()}


def references(node, module, bound):
    """The (module, name) pairs that node mentions, ("module", "name")
    string pairs included: bench/tracer.py names what it wraps that way."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in DEFS.get(module, ()):
            yield module, sub.id
        elif isinstance(sub, ast.Name) and bound.get(sub.id, (0, None))[1]:
            yield bound[sub.id]
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if bound.get(sub.value.id, (0, 0))[1] is None:
                yield bound[sub.value.id][0], sub.attr
        elif isinstance(sub, ast.Tuple) and len(sub.elts) == 2:
            pair = tuple(getattr(e, "value", None) for e in sub.elts)
            if pair[0] in MODULES and isinstance(pair[1], str):
                yield pair


def reachable(kept=()):
    roots = [(MODULES[mod], mod) for mod in ("cli", "__main__")]
    roots += [(ast.parse(p.read_text()), None) for p in (ROOT / "bench").glob("*.py")]
    todo = [ref for tree, mod in roots for ref in references(tree, mod, imports(tree))]
    todo += [tuple(name.split(".")) for name in kept]
    seen = set()
    while todo:
        module, name = ref = todo.pop()
        if ref not in seen and name in DEFS.get(module, ()):
            seen.add(ref)
            todo.extend(references(DEFS[module][name], module, IMPORTS[module]))
    return {f"{module}.{name}" for module, name in seen}


PUBLIC = {
    f"{mod}.{name}" for mod, defs in DEFS.items() for name, node in defs.items()
    if not name.startswith("_") and isinstance(node, (ast.FunctionDef, ast.ClassDef))
}


def test_every_public_name_is_reached_by_the_cli_or_the_bench():
    unreached = sorted(PUBLIC - reachable(KEPT))
    assert not unreached, f"only tests reach these; move them to tests/ or keep them: {unreached}"


def test_kept_names_exist_and_nothing_else_reaches_them():
    assert set(KEPT) <= PUBLIC - reachable()

