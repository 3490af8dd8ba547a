"""Checks on the package source itself: the error contract, the size of
every module, the owners of the monomial layout, of the coefficient
format and of the work bounds, the modules that must import no layer
above them, what `poly` names of `modular`, and where exact division is
written."""

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


def _coefficient_constant(node) -> bool:
    """A tuple display of two int constants, each 0 or 1, not both 0: the
    1 or the theta of Q(theta) written out as a pair, such as (1, 0)."""
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
        return False
    values = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
    return all(type(v) is int and v in (0, 1) for v in values) and any(values)


def _tests_for_tuple(node) -> bool:
    """`x.__class__ is tuple` (or `is not`), or `isinstance(x, tuple)`."""
    if isinstance(node, ast.Compare):
        return (isinstance(node.left, ast.Attribute) and node.left.attr == "__class__"
                and any(isinstance(c, ast.Name) and c.id == "tuple" for c in node.comparators))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "tuple" for n in ast.walk(node.args[1])))
    return False


def test_coefficient_format_has_one_owner():
    """The coefficient format has one owner, as the monomial layout does:
    only ground.py tells a Q(theta) element from a rational by its class or
    writes one out as a constant pair such as (1, 0) or (0, 1); the others
    go through `ground.element`, `ground.parts` and `ground.ONES`.  They
    name their field by `FieldSpec.theta`, and `FieldSpec.is_quadratic` is
    read in field.py alone."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unpacked = {id(node.value) for node in ast.walk(tree)  # as in `norm, den = 0, 1`
                    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)}
        for node in ast.walk(tree):
            if id(node) in unpacked:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "is_quadratic":
                if path.name != "field.py":
                    found.append("%s:%d reads is_quadratic" % (path.name, node.lineno))
            elif _coefficient_constant(node) or _tests_for_tuple(node):
                if path.name != "ground.py":
                    found.append("%s:%d reads or writes the format" % (path.name, node.lineno))
    assert (PACKAGE / "ground.py").is_file() and not found, found


LEAF_MODULES = ("modular.py", "ground.py", "monomials.py", "bounds.py")
LAYERS = {"poly", "field", "webs", "singular", "cli"}


def test_leaf_modules_import_no_layer():
    """`modular`, `ground`, `monomials` and `bounds` work on ground maps and
    packed monomials and know nothing of `MPoly`: they import none of the
    layer modules, so the lazily loaded `modular` adds nothing to start-up
    and can charge its work through `bounds`."""
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


def test_poly_names_only_field_gcd_of_modular():
    """The gcd has one owner: `poly` names the one entry `modular.field_gcd`,
    and nothing else there, so every gcd decision is made in `modular`."""
    tree = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    named, imports = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "modular":
                named.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module and "modular" in node.module:
            imports.append(node.lineno)
    assert named == {"field_gcd"}, named
    assert not imports, imports


def test_exact_division_is_written_once():
    """Exact division over Q and Q(theta) is `ground.exact_quotient` alone:
    `monomial_quotient`, defined in monomials.py, is named only there and
    in the trial division mod p of modular.py, never in poly.py."""
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "monomial_quotient"
                    or isinstance(node, ast.Attribute) and node.attr == "monomial_quotient"
                    or isinstance(node, ast.alias) and node.name == "monomial_quotient"):
                naming.add(path.name)
    assert naming == {"ground.py", "modular.py"}, naming


CHARGE_FUNCTIONS = {"charge", "charge_translate", "ceil_log2", "coefficient_bits", "power_pairs"}
CHARGING = ("cli.py", "poly.py", "singular.py", "modular.py")


def test_work_bounds_have_one_owner():
    """The work bounds have one owner, as the layout and the format do: every
    `MAX_*` bound is assigned and compared, and every function of the charge
    arithmetic defined, in bounds.py alone.  The modules that charge import
    no private name from one another: they call `bounds`."""
    owners, found = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if name.lstrip("_").startswith("MAX_"):
                        owners.setdefault(name, set()).add(path.name)
            elif isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in CHARGE_FUNCTIONS:
                owners.setdefault(node.name, set()).add(path.name)
            elif isinstance(node, ast.Compare) and path.name != "bounds.py":
                if any(isinstance(n, ast.Name) and n.id.startswith("MAX_") for n in ast.walk(node)):
                    found.append("%s:%d compares a bound" % (path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and path.name in CHARGING:
                if (node.module or "") in {name[:-3] for name in CHARGING}:
                    private = [a.name for a in node.names if a.name.startswith("_")]
                    found += ["%s:%d imports %s" % (path.name, node.lineno, n) for n in private]
    bounds = {"MAX_PARSE_PAIRS", "MAX_PARSE_BITS", "MAX_EVALUATION_BITS", "MAX_DENSE_CELLS"}
    assert set(owners) == bounds | CHARGE_FUNCTIONS, owners
    assert all(files == {"bounds.py"} for files in owners.values()), owners
    assert not found, found
