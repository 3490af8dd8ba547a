"""Checks on the package source itself: the error contract, the size of
every module, the owner of the monomial layout, the modules that
must import no layer above them, and what `poly` names of `modular`."""

import ast
import builtins
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "webflat"

BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _raised_name(node: ast.Raise):
    """The name a raise statement raises, or None for a bare re-raise."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def test_no_bare_builtin_raise_in_the_package():
    """Every error the package raises is a named WebflatError subclass; one
    that callers used to catch as a builtin keeps that builtin as a base."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and _raised_name(node) in BUILTIN_EXCEPTIONS:
                found.append("%s:%d raises %s" % (path.name, node.lineno, _raised_name(node)))
    assert PACKAGE.is_dir() and not found, found


def test_poly_module_stays_at_or_under_950_lines():
    """`peak_rss_mb` and `setup_s` follow the compile peak of the largest
    module when no bytecode is cached, so poly.py keeps a line budget."""
    with open(PACKAGE / "poly.py", "rb") as handle:
        lines = handle.read().count(b"\n")
    assert lines <= 950, lines


def test_every_module_stays_at_or_under_950_lines():
    """The same budget for every module of the package, as whichever is
    largest sets the compile peak."""
    sizes = {path.name: path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py")}
    assert sizes and all(lines <= 950 for lines in sizes.values()), sizes


LAYOUT = {"WIDTH", "BOUND", "MASK", "TOP", "SHIFT", "UNIT", "GUARDS"}
LAYOUT_FUNCTIONS = {
    "pack", "unpack", "monomial_degree", "exponent_at", "monomial_quotient", "unit",
}
BIT_FORMAT = {"WIDTH", "MASK", "TOP", "GUARDS"}


def test_monomial_layout_is_defined_only_in_monomials():
    """The packed layout has one owner: its constants (under any leading
    underscore) are assigned, and its functions defined, in monomials.py
    alone; the other modules import them.  The bit format itself (field
    width, mask, top shift, guard bits) is read nowhere else: the others
    go through `exponent_at`, `monomial_quotient`, `unit` and `UNIT`."""
    owners, readers = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id.lstrip("_") in BIT_FORMAT:
                readers.add(path.name)
            elif isinstance(node, ast.ImportFrom):
                if BIT_FORMAT & {alias.name for alias in node.names}:
                    readers.add(path.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
                names = [name for name in names if name.lstrip("_") in LAYOUT]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name] if node.name in LAYOUT_FUNCTIONS else []
            else:
                continue
            for name in names:
                owners.setdefault(name, set()).add(path.name)
    assert set(owners) == LAYOUT | LAYOUT_FUNCTIONS, owners
    assert all(files == {"monomials.py"} for files in owners.values()), owners
    assert readers == {"monomials.py"}, readers


LEAF_MODULES = ("modular.py", "pairs.py", "monomials.py")
LAYERS = {"poly", "field", "webs", "singular", "cli"}


def test_leaf_modules_import_no_layer():
    """`modular`, `pairs` and `monomials` work on ground maps and packed
    monomials and know nothing of `MPoly`: they import none of the layer
    modules, so the lazily loaded `modular` adds nothing to start-up."""
    found = []
    for name in LEAF_MODULES:
        path = PACKAGE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):  # `from . import poly` names it last
                modules = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if LAYERS & set(module.split(".")):
                    found.append("%s:%d imports %s" % (name, node.lineno, module))
    assert not found, found


def test_poly_names_only_the_two_entries_of_modular():
    """The modular gcd has one owner: `poly` names `modular.certified_coprime`
    and the engine's entry `modular.field_gcd`, and nothing else there."""
    tree = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    named, imports = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "modular":
                named.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module and "modular" in node.module:
            imports.append(node.lineno)
    assert named == {"certified_coprime", "field_gcd"}, named
    assert not imports, imports
