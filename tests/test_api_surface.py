"""Every function and method of the package has a caller in it or is documented API.

A public module-level function under src/sgmyc/ must be used by some
other function or module-level statement of the package, or be named in
the "Library API" section of README.md; a private one must be used.  A
public method or property of a package class must be read as an
attribute somewhere in the package outside its own definition, or be
named there too.  So no function or method is kept only for the tests
to call.  Likewise every class in errors.py but the root and
ConsistencyError is named in some except clause of the package, so no
error class is kept only for the tests.  And every dotted module.name
that a docstring, a comment or README.md names resolves in the package.
The names tests/oracles.py takes from the package are pinned, so no
library helper slips into the references unnoticed.
"""

import ast
import importlib
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgmyc"


def module_functions():
    """(module, name) of every module-level function."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.add((path.stem, node.name))
    return out


def public_functions():
    """(module, name) of every public module-level function."""
    return {f for f in module_functions() if not f[1].startswith("_")}


def public_methods():
    """(module, class, name) of every public method or property of a top-level class."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.add((path.stem, node.name, item.name))
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


def attribute_reads(module, tree):
    """(attribute name, owner) of each attribute the tree reads.

    The owner is (module, class, method) inside a method of a top-level
    class and (module, None, function) inside a top-level function, with
    None for the last part elsewhere.  The scan knows no types, so a read
    of .name counts for every method called name.
    """
    found = []
    for top in tree.body:
        is_class = isinstance(top, ast.ClassDef)
        for part in top.body if is_class else [top]:
            owner = (module, top.name if is_class else None,
                     part.name if isinstance(part, ast.FunctionDef) else None)
            for node in ast.walk(part):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    found.append((node.attr, owner))
    return found


def used_functions():
    used = set()
    for path in PACKAGE.glob("*.py"):
        for (module, name), owner in uses(path.stem, ast.parse(path.read_text())):
            if not (module == path.stem and name == owner):
                used.add((module, name))
    return used


def read_methods():
    """(module, class, name) of each public method read outside its own definition."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        reads.update(attribute_reads(path.stem, ast.parse(path.read_text())))
    return {m for m in public_methods() if any(attr == m[2] and owner != m for attr, owner in reads)}


def documented_api():
    """(module, name) of each documented function, (module, class, name) of each method."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    return {tuple(m.split(".")) for m in re.findall(r"`sgmyc\.(\w+(?:\.\w+)+)`", section)}


def test_every_public_function_has_a_caller_or_is_documented():
    orphans = public_functions() - used_functions() - documented_api()
    assert not sorted(orphans)


def test_every_private_function_has_a_caller_in_the_package():
    # no README entry can excuse a private function, so one kept only for
    # the tests to call or patch is an orphan
    orphans = module_functions() - public_functions() - used_functions()
    assert not sorted(orphans)


def test_every_public_method_has_a_reader_or_is_documented():
    orphans = public_methods() - read_methods() - documented_api()
    assert not sorted(orphans)


def test_documented_api_exists():
    assert documented_api() <= public_functions() | public_methods()


def test_documented_api_has_no_caller_in_the_package():
    # the README lists what has no caller inside the package, so a
    # function that gains one must leave the list
    assert not sorted(documented_api() & (used_functions() | read_methods()))


def test_the_scan_sees_calls_through_module_attributes_and_imported_names():
    tree = ast.parse(
        "from . import core as c\n"
        "from .balance import negate\n"
        "def f(g):\n"
        "    return c.loads(g), negate(g), f(g)\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self.n\n"
    )
    assert set(uses("m", tree)) == {
        (("core", "loads"), "f"),
        (("balance", "negate"), "f"),
        (("m", "f"), "f"),
    }
    assert set(attribute_reads("m", tree)) == {("loads", ("m", None, "f")), ("n", ("m", "K", "m"))}


def caught_names():
    """Name of each class that some except clause under src/sgmyc/ catches."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for part in ast.walk(node.type):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        names.add(part.attr)
    return names


def test_every_error_class_is_caught_in_the_package():
    # one class per way of failing that a caller tells apart; the root and
    # the bug signal are the only classes no except clause needs to name
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    uncaught = defined - caught_names() - {"SignedGraphError", "ConsistencyError"}
    assert not sorted(uncaught)


def doc_texts():
    """README.md, then each docstring and comment under src/sgmyc/.

    Code is left out: a local variable such as coloring.colors would read
    as a dotted name.
    """
    texts = [(ROOT / "README.md").read_text()]
    for path in PACKAGE.glob("*.py"):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append(ast.get_docstring(node, clean=False) or "")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                texts.append(token.string)
    return texts


def unresolved_names(texts):
    """Each module.name, with or without the sgmyc. prefix, that is no attribute
    of that sgmyc module; a file name such as claims.py is skipped."""
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    pattern = re.compile(rf"\b(?:sgmyc\.)?({'|'.join(modules)})\.(?!py\b)(\w+)")
    return sorted(
        {
            f"{module}.{name}"
            for text in texts
            for module, name in pattern.findall(text)
            if not hasattr(importlib.import_module(f"sgmyc.{module}"), name)
        }
    )


def test_every_dotted_name_in_the_docs_resolves():
    assert unresolved_names(doc_texts()) == []


def test_the_doc_scan_flags_a_missing_name_and_skips_file_names():
    text = "sgmyc.coloring.chromatic_number and balance._potentials, in balance.py; balance.is_antibalanced"
    assert unresolved_names([text]) == ["balance.is_antibalanced"]


# what the independent references take from the package: data types,
# errors, and the earlier code its docstring names as kept on purpose
ORACLE_IMPORTS = [
    "sgmyc.balance.BalanceCertificate",
    "sgmyc.balance.certify_balance",
    "sgmyc.balance.cycle_sign",
    "sgmyc.coloring.SignedColoring",
    "sgmyc.coloring.color_trial_order",
    "sgmyc.core.SignedGraph",
    "sgmyc.core.SwitchingFunction",
    "sgmyc.core.canonicalize",
    "sgmyc.core.is_all_positive",
    "sgmyc.core.switch",
    "sgmyc.errors.BudgetExhaustedError",
    "sgmyc.errors.ConsistencyError",
    "sgmyc.errors.InputError",
    "sgmyc.errors.PreconditionError",
    "sgmyc.exactla.IntMatrix",
    "sgmyc.mycielskian.MycielskianLabeling",
]


def package_names_read(tree):
    """Dotted name of each package name the tree imports.  A module it
    imports by from sgmyc import m stands for the names read off it."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sgmyc":
            for a in node.names:
                if node.module == "sgmyc":
                    modules[a.asname or a.name] = f"sgmyc.{a.name}"
                else:
                    names.add(f"{node.module}.{a.name}")
        elif isinstance(node, ast.Import):
            # import sgmyc.m, aliased or not, is pinned as the module itself
            names.update(a.name for a in node.names if a.name.split(".")[0] == "sgmyc")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def test_the_oracles_take_only_the_pinned_names_from_the_package():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    assert sorted(package_names_read(tree)) == ORACLE_IMPORTS


def test_the_oracle_pin_sees_imported_names_and_names_read_off_modules():
    tree = ast.parse(
        "from sgmyc.core import neighbours\n"
        "from sgmyc import exactla\n"
        "import sgmyc.balance as b\n"
        "import sgmyc.claims\n"
        "x = exactla.inertia, b.negate\n"
    )
    assert package_names_read(tree) == {
        "sgmyc.core.neighbours", "sgmyc.exactla.inertia", "sgmyc.balance", "sgmyc.claims",
    }
