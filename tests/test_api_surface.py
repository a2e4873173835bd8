"""Every public function of the package has a caller in it or is documented API.

A public module-level function under src/sgmyc/ must be used by some
other function or module-level statement of the package, or be named in
the "Library API" section of README.md.  So no function is kept only for
the tests to call.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgmyc"


def public_functions():
    """(module, name) of every public module-level function."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.add((path.stem, node.name))
    return out


def uses(module, tree):
    """(module, name) of each package function the tree refers to, with the
    name of the top-level function the reference sits in (None outside one)."""
    aliases = {}  # local name -> module, or (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                local = a.asname or a.name
                aliases[local] = a.name if node.module is None else (node.module, a.name)
    own = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in own:
                    found.append(((module, node.id), owner))
                elif isinstance(aliases.get(node.id), tuple):
                    found.append((aliases[node.id], owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = aliases.get(node.value.id)
                if isinstance(target, str):
                    found.append(((target, node.attr), owner))
    return found


def used_functions():
    used = set()
    for path in PACKAGE.glob("*.py"):
        for (module, name), owner in uses(path.stem, ast.parse(path.read_text())):
            if not (module == path.stem and name == owner):
                used.add((module, name))
    return used


def documented_api():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    return {tuple(m.split(".")) for m in re.findall(r"`sgmyc\.(\w+\.\w+)`", section)}


def test_every_public_function_has_a_caller_or_is_documented():
    orphans = public_functions() - used_functions() - documented_api()
    assert not sorted(orphans)


def test_documented_api_exists():
    assert documented_api() <= public_functions()


def test_the_scan_sees_calls_through_module_attributes_and_imported_names():
    tree = ast.parse(
        "from . import core as c\n"
        "from .balance import negate\n"
        "def f(g):\n"
        "    return c.loads(g), negate(g), f(g)\n"
    )
    assert set(uses("m", tree)) == {
        (("core", "loads"), "f"),
        (("balance", "negate"), "f"),
        (("m", "f"), "f"),
    }
