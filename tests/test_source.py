"""Checks on the library source itself."""

import ast
from collections import defaultdict
from pathlib import Path

import genlink


def test_no_bare_assert_in_library():
    # `python -O` strips assert statements, so a check kept in one is skipped.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(genlink.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _public_definitions(tree):
    """Module-level functions and classes not named with a leading
    underscore, and the same kind of methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )


def _references(tree):
    """(name, line) of every name, attribute name and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_public_name_has_a_caller():
    # A public name that only its own definition mentions is dead code.
    root = Path(genlink.__file__).parent
    repo = Path(__file__).resolve().parent.parent
    callers = [root, repo / "tests", repo / "scripts", repo / "perfbench"]
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in callers for path in sorted(folder.glob("*.py"))
    }
    used = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _references(tree):
            used[name].append((path, line))
    dead = []
    for path in sorted(root.glob("*.py")):
        for node in _public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in used[node.name]):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, dead


def test_only_ideals_knows_the_word_format():
    # The packed-word format, its cover test and its reducer have one owner;
    # the other modules call the named checks ideals.py builds on them.
    private = {
        "_packing", "_Codec", "_all_covered", "_top",
        "_minimalize_words", "_minimalize_indexed", "_DivisorIndex",
    }
    root = Path(genlink.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(root.glob("*.py")) if path.name != "ideals.py"
        for name, line in _references(ast.parse(path.read_text(), filename=str(path)))
        if name in private
    ]
    assert not found, found


def test_only_ideals_calls_the_ideal_constructor():
    # Every other module builds an ideal through ideals.py (`ideal`,
    # `_from_vecs`, the ring operations), so every ideal keeps the one
    # generator order.
    root = Path(genlink.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py")) if path.name != "ideals.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] == "MonomialIdeal"
    ]
    assert not found, found


def test_only_the_runner_applies_the_universe_guard():
    # Every suite is guarded by the one runner that `_suite` declares, so no
    # check body can forget the universe cap or apply it twice: the cap is
    # read in `_suite` alone, in a call to the one size guard.
    root = Path(genlink.__file__).parent
    found, applied = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        runner = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_suite"
        ]
        defined = {
            node.lineno for node in tree.body
            if isinstance(node, ast.Assign) and "MAX_UNIVERSE_VARS" in map(ast.unparse, node.targets)
        }
        inside = [range(node.lineno, node.end_lineno + 1) for node in runner]
        found += [
            f"{path.name}:{line}"
            for name, line in _references(tree)
            if name == "MAX_UNIVERSE_VARS" and line not in defined
            and not any(line in lines for lines in inside)
        ]
        applied += [
            call for node in runner for call in ast.walk(node)
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "check_cap"
            and "MAX_UNIVERSE_VARS" in map(ast.unparse, call.args)
        ]
    assert not found, found
    assert len(applied) == 1, applied


def test_one_size_guard_raises_every_refusal():
    # Every refusal goes through `ideals.check_cap`, so each one has the
    # same message shape and its estimate is the count it was checked on.
    root = Path(genlink.__file__).parent
    raises, builds = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {
            line: node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for line in range(node.lineno, node.end_lineno + 1)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and "SizeGuardExceeded" in ast.unparse(node):
                raises.append((path.name, owners.get(node.lineno)))
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("SizeGuardExceeded"):
                builds.append((path.name, owners.get(node.lineno)))
    assert raises == builds == [("ideals.py", "check_cap")]


def test_only_monomial_knows_the_pair_layout():
    # A monomial's sorted (variable, exponent) pairs are its own: the
    # universe converts to and from exponent vectors, so no other module
    # builds or reads the pairs behind Monomial's back.
    root = Path(genlink.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(root.glob("*.py")) if path.name != "monomial.py"
        for name, line in _references(ast.parse(path.read_text(), filename=str(path)))
        if name in {"_trusted", "_exps"}
    ]
    assert not found, found
