"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from webflat import (
    MPoly,
    RATIONALS,
    FieldScalar,
    RatFn,
    cubic_resultant,
    divides,
    exact_divide,
    field_roots,
    quadratic_field,
    tangent_cone,
)
import webflat
import webflat.ground as ground
import webflat.modular as modular
from webflat.modular import _engine
from webflat.errors import DomainError, NonHomogeneous
from webflat.monomials import SHIFT, VARIABLES, monomial_degree, pack, unpack
from webflat.poly import VARIABLE_INDEX
from webflat.singular import _univariate_coeffs


def random_scalar(rng, spec=RATIONALS, quadratic=False):
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if quadratic and spec.is_quadratic:
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return FieldScalar(a, b, spec)
    return FieldScalar(a, 0, spec)


def random_poly(rng, variables=("x", "y"), max_degree=2, n_terms=3, spec=RATIONALS,
                nonzero=False, quadratic=False):
    while True:
        poly = MPoly.zero(spec)
        for _ in range(n_terms):
            exponent = [0] * len(VARIABLES)
            for name in variables:
                exponent[VARIABLES.index(name)] = rng.randint(0, max_degree)
            coeff = random_scalar(rng, spec, quadratic)
            poly = poly + MPoly.monomial(tuple(exponent), coeff, spec)
        if not nonzero or not poly.is_zero():
            return poly


def random_poly_td(rng, variables=("x", "y"), max_total=2, n_terms=2, spec=RATIONALS,
                   nonzero=False):
    """Random polynomial with bounded TOTAL degree and small integer
    coefficients (the natural population for web coefficients)."""
    names = list(variables)
    while True:
        poly = MPoly.zero(spec)
        for _ in range(n_terms):
            total = rng.randint(0, max_total)
            exponent = [0] * len(VARIABLES)
            for _ in range(total):
                name = rng.choice(names)
                exponent[VARIABLES.index(name)] += 1
            coeff = rng.randint(-3, 3)
            poly = poly + MPoly.monomial(tuple(exponent), coeff, spec)
        if not nonzero or not poly.is_zero():
            return poly


def random_homogeneous(rng, degree, variables=("x", "y"), spec=RATIONALS, nonzero=True):
    """Random homogeneous polynomial of exact total degree."""
    names = list(variables)
    while True:
        poly = MPoly.zero(spec)
        exponents = _compositions(degree, len(names))
        for combo in exponents:
            if rng.random() < 0.4:
                continue
            coeff = Fraction(rng.randint(-4, 4))
            if coeff == 0:
                continue
            exponent = [0] * len(VARIABLES)
            for name, e in zip(names, combo):
                exponent[VARIABLES.index(name)] = e
            poly = poly + MPoly.monomial(tuple(exponent), coeff, spec)
        if not nonzero or not poly.is_zero():
            return poly


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


def assert_ground(f):
    """f's ground map holds its field's representation, and `terms` shows
    the same values as FieldScalars, in a fresh view on every read.

    Over Q a coefficient is an int when integral and a Fraction otherwise,
    never a float or a FieldScalar; over Q(theta) it is a pair (a, b) for
    a + b*theta whose components follow the same rule.  No zero is stored.
    Every key is a packed exponent vector that unpacks to a 6-tuple and
    packs back to itself.
    """
    quadratic = f.spec.is_quadratic
    for m in f._ground:
        assert type(m) is int and pack(unpack(m)) == m, m
    for c in f._ground.values():
        if quadratic:
            assert type(c) is tuple and len(c) == 2, c
        parts = c if quadratic else (c,)
        for x in parts:
            assert type(x) in (int, Fraction), c
            assert type(x) is (int if x.denominator == 1 else Fraction), c
        assert any(parts), c
    view = f.terms
    assert view.keys() == {unpack(m) for m in f._ground}
    assert f.terms is not view
    for exponent, c in view.items():
        ground = f._ground[pack(exponent)]
        assert type(c) is FieldScalar and c.spec == f.spec
        assert (c.a, c.b) == (ground if quadratic else (ground, 0))


# -- independent oracles -------------------------------------------------------


def brute_force_power(factors):
    """Expand a product of polynomials one distributed pick at a time.

    Completely avoids MPoly multiplication: every term of the result is
    accumulated by enumerating one term from each factor.
    """
    import itertools

    spec = factors[0].spec
    acc = {}
    term_lists = [list(f.terms.items()) for f in factors]
    for picks in itertools.product(*term_lists):
        exponent = tuple(sum(parts) for parts in zip(*(e for e, _ in picks)))
        coeff = FieldScalar(1, 0, spec)
        for _, c in picks:
            coeff = coeff * c
        have = acc.get(exponent)
        acc[exponent] = coeff if have is None else have + coeff
    return MPoly({e: c for e, c in acc.items() if not c.is_zero()}, spec)


def cofactor_determinant(rows):
    """Plain Laplace expansion along the first row, no memoization."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    spec = rows[0][0].spec
    total = MPoly.zero(spec)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def sylvester_resultant(a0, a1, a2, a3):
    """Res(f, f') of f = a0*s^3 + a1*s^2 + a2*s + a3 as the 5x5 Sylvester
    determinant, by plain cofactor expansion."""
    zero = MPoly.zero(a0.spec)
    rows = [
        [a0, a1, a2, a3, zero],
        [zero, a0, a1, a2, a3],
        [3 * a0, 2 * a1, a2, zero, zero],
        [zero, 3 * a0, 2 * a1, a2, zero],
        [zero, zero, 3 * a0, 2 * a1, a2],
    ]
    return cofactor_determinant(rows)


def determinant_curvature_fraction(web):
    """(N, R) of the determinant algorithm: the curvature coefficient is
    N / R^2 = (du(alpha2 / R) + dv(alpha1 / R)), unreduced, with R the
    Sylvester resultant and alpha1, alpha2 the 5x5 determinants stacking
    the derivative row over four fixed coefficient rows."""
    u, v = web.base_vars
    a0, a1, a2, a3 = web.a0, web.a1, web.a2, web.a3
    zero = MPoly.zero(web.spec)
    alpha0 = [
        a0.derivative(v),
        a0.derivative(u) + a1.derivative(v),
        a1.derivative(u) + a2.derivative(v),
        a2.derivative(u) + a3.derivative(v),
        a3.derivative(u),
    ]
    tail_rows = [
        [-a0, zero, a2, 2 * a3, zero],
        [zero, -2 * a0, -a1, zero, a3],
        [zero, zero, -3 * a0, -2 * a1, -a2],
    ]
    alpha1 = cofactor_determinant([alpha0, [a0, a1, a2, a3, zero]] + tail_rows)
    alpha2 = cofactor_determinant([alpha0, [zero, a0, a1, a2, a3]] + tail_rows)
    big_r = sylvester_resultant(a0, a1, a2, a3)
    numerator = (
        (alpha2.derivative(u) + alpha1.derivative(v)) * big_r
        - alpha2 * big_r.derivative(u)
        - alpha1 * big_r.derivative(v)
    )
    return numerator, big_r


def pseudo_remainder(a: dict, b: dict) -> dict:
    """prem(a, b) in the recursion variable: lc(b)^(da-db+1) * a mod b.

    Coefficients are polynomials in the remaining variables; no division
    happens here, which is what keeps the sequence exact.
    """
    da, db = max(a), max(b)
    lc_b = b[db]
    e = da - db + 1
    r = a
    while r:
        dr = max(r)
        if dr < db:
            break
        lc_r = r[dr]
        shifted = {}
        for k, c in r.items():
            shifted[k] = c * lc_b
        for k, c in b.items():
            kk = k + dr - db
            have = shifted.get(kk)
            total = -(lc_r * c) if have is None else have - lc_r * c
            if total.is_zero():
                shifted.pop(kk, None)
            else:
                shifted[kk] = total
        r = shifted
        e -= 1
    if e > 0 and r:
        scale = lc_b ** e
        r = {k: c * scale for k, c in r.items()}
    return r


def _content(coeffs: dict) -> MPoly:
    acc = MPoly.zero(next(iter(coeffs.values())).spec)
    for c in coeffs.values():
        acc = subresultant_oracle(acc, c)
        if acc.is_constant():
            break
    return acc


def _primitive(coeffs: dict, content: MPoly) -> dict:
    return {e: exact_divide(c, content) for e, c in coeffs.items()}


def subresultant_oracle(f, g, var=None):
    """gcd of f and g, made monic, by the recursive subresultant remainder
    sequence in `var` (by default the first variable either one has) after
    splitting off the content.  The content gcds take the same sequence in
    the remaining variables, so no gcd of the package is used."""
    spec = f.spec
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if var is None:
        names = sorted(f.variables() | g.variables(), key=VARIABLE_INDEX.get)
        if not names:
            return MPoly.one(spec)
        var = names[0]
    fu, gu = f.coefficients_in(var), g.coefficients_in(var)
    content_f, content_g = _content(fu), _content(gu)
    content = subresultant_oracle(content_f, content_g)
    fu, gu = _primitive(fu, content_f), _primitive(gu, content_g)

    a, b = (fu, gu) if max(fu) >= max(gu) else (gu, fu)
    one = MPoly.one(spec)
    g_scale, h_scale = one, one
    while True:
        delta = max(a) - max(b)
        r = pseudo_remainder(a, b)
        if not r:
            part = b
            break
        if max(r) == 0:
            return content
        divisor = g_scale * h_scale ** delta
        a, b = b, r if divisor.is_one() else _primitive(r, divisor)
        g_scale = a[max(a)]
        if delta == 1:
            h_scale = g_scale
        elif delta > 1:
            h_scale = exact_divide(g_scale ** delta, h_scale ** (delta - 1))
    x = MPoly.variable(var, spec)
    gcd = MPoly.zero(spec)
    for e, c in _primitive(part, _content(part)).items():
        gcd = gcd + c * x ** e
    return (content * gcd).monic()


def engine_gcd(f, g, order):
    """The modular engine's monic gcd of f and g, MPolys in and out, in the
    variables VARIABLES[i], i in `order` (every variable either one has):
    Euclid runs in the first and the last is evaluated first.  The engine
    is bound at import, so `record_engine` does not see these calls."""
    found = _engine(f._ground, g._ground, [SHIFT[i] for i in order], f.spec.theta)
    return MPoly._raw(found, f.spec)


def record_engine(monkeypatch, record):
    """Patch the modular engine to call record(order, gcd) after each call
    it answers, with its variables' indices as `engine_gcd` takes them and
    the gcd as an MPoly."""
    inner = modular._engine

    def recording(f, g, shifts, theta):
        found = inner(f, g, shifts, theta)
        spec = RATIONALS if theta is None else quadratic_field(*theta)
        record(tuple(SHIFT.index(s) for s in shifts), MPoly._raw(found, spec))
        return found

    monkeypatch.setattr(modular, "_engine", recording)


def count_kernel_pairs(monkeypatch) -> list:
    """Patch the ground kernel, in every webflat module that binds it, to
    append to the list returned, for each call, the term pairs it is
    handed: len(f) * len(g) over its triples."""
    pairs, inner = [], ground.sum_of_products

    def counting(terms, theta):
        terms = list(terms)
        pairs.append(sum(len(f) * len(g) for _, f, g in terms))
        return inner(terms, theta)

    for name, module in list(sys.modules.items()):
        if name.startswith("webflat") and getattr(module, "sum_of_products", None) is inner:
            monkeypatch.setattr(module, "sum_of_products", counting)
    return pairs


CAPPED_CHILD = """
import json, resource, sys, time
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from webflat.cli import run_line
exec(sys.argv[2])
start = time.perf_counter()
result = run_line(sys.argv[3:])
print(json.dumps([result, time.perf_counter() - start]))
"""


def run_capped(argv, cap=2**30, setup=""):
    """`run_line(argv)` in a child interpreter whose address space is capped
    at `cap` bytes, after it runs the code `setup`: the line's (stdout,
    stderr, exit code) and its seconds.  A child that dies, say of a
    MemoryError traceback, fails the calling test with its stderr."""
    src = os.path.dirname(os.path.dirname(webflat.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", CAPPED_CHILD, str(cap), setup, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result, seconds = json.loads(proc.stdout)
    return tuple(result), seconds


# -- library code that no verb runs, kept with the tests that pin it -----------


def dual_line(x0: FieldScalar, y0: FieldScalar) -> MPoly:
    """Lines through the affine point (x0, y0): the locus q + x0*p - y0."""
    if not isinstance(x0, FieldScalar):
        x0 = FieldScalar(x0)
    if not isinstance(y0, FieldScalar):
        y0 = FieldScalar(y0, 0, x0.spec)
    spec = x0.spec
    p = MPoly.variable("p", spec)
    q = MPoly.variable("q", spec)
    return q + p * x0 - MPoly.constant(y0, spec)


@dataclass(frozen=True)
class HomogeneousAnalysis:
    """Tangent-cone data of a homogeneous affine field.

    `slopes` are the tangent-cone roots found in the ambient field at
    x = 1 (sorted), `vertical_line` flags the x = 0 component handled in
    the swapped chart, `unsplit` carries any factor the field cannot
    split (never approximated).  `pj` pairs each slope m with the
    tangency polynomial B(1,t) - m*A(1,t) -- plus A(t,1) for the
    vertical line -- and `pj_discriminants` holds their slope
    discriminants.
    """

    tangent_cone: MPoly
    slopes: tuple
    vertical_line: bool
    pj: tuple
    pj_discriminants: tuple
    unsplit: MPoly | None


class ZeroTangentCone(DomainError):
    """A homogeneous field that is a multiple of the radial field."""


def homogeneous_analysis(vf: AffineVectorField) -> HomogeneousAnalysis:
    """Invariant-line slopes and tangency discriminants of a homogeneous
    field.

    For each tangent-cone root m, P_m(t) = B(1,t) - m*A(1,t) collects the
    slopes of the lines through the origin tangent to the foliation along
    the invariant line of slope m; a vertical invariant line contributes
    A(t,1) from the swapped chart.  Each P gets its degree-3 slope
    discriminant.
    """
    for component in (vf.a, vf.b):
        if component.is_zero():
            continue
        if len({monomial_degree(m) for m in component._ground}) != 1:
            raise NonHomogeneous("component %s is not homogeneous" % component)
    degrees = {
        component.total_degree()
        for component in (vf.a, vf.b)
        if not component.is_zero()
    }
    if len(degrees) != 1:
        raise NonHomogeneous("components have degrees %s" % sorted(degrees))
    cone = tangent_cone(vf)
    if cone.is_zero():
        raise ZeroTangentCone("the field is a multiple of the radial field")
    spec = vf.spec
    t = MPoly.variable("t", spec)
    one = MPoly.one(spec)
    a_line = vf.a.substitute({"x": one, "y": t})
    b_line = vf.b.substitute({"x": one, "y": t})
    cone_line = cone.substitute({"x": one, "y": t})
    vertical = cone.coefficient("x", 0).is_zero()  # x divides every term
    slopes, unsplit_coeffs = field_roots(_univariate_coeffs(cone_line, "t"))
    pj = []
    for m in slopes:
        pj.append(b_line - a_line * m)
    if vertical:
        pj.append(vf.a.substitute({"x": t, "y": one}))
    discriminants = []
    for poly in pj:
        discriminants.append(
            cubic_resultant(
                poly.coefficient("t", 3),
                poly.coefficient("t", 2),
                poly.coefficient("t", 1),
                poly.coefficient("t", 0),
            )
        )
    unsplit = None
    if unsplit_coeffs is not None:
        unsplit = sum(
            (MPoly.constant(c, spec) * t ** k for k, c in enumerate(unsplit_coeffs)),
            MPoly.zero(spec),
        )
    return HomogeneousAnalysis(
        tangent_cone=cone,
        slopes=tuple(slopes),
        vertical_line=vertical,
        pj=tuple(pj),
        pj_discriminants=tuple(discriminants),
        unsplit=unsplit,
    )


def eta_criterion_reduced(web_spec) -> bool:
    """`eta_criterion` by the reduced route: N / D as a reduced `RatFn`,
    its x-derivative by the quotient rule, reduced again, and y^a tested
    against that numerator."""
    if web_spec.a == 0:
        return True
    h12 = web_spec.h1 - web_spec.h2
    h23 = web_spec.h2 - web_spec.h3
    h31 = web_spec.h3 - web_spec.h1
    inner = RatFn(h12 * h23.derivative("x") - h23 * h12.derivative("x"), h12 * h23 * h31)
    num, den = inner.num, inner.den
    outer = RatFn(num.derivative("x") * den - num * den.derivative("x"), den * den)
    y_power = MPoly.variable("y", num.spec) ** web_spec.a
    return outer.num.is_zero() or divides(y_power, outer.num)


# -- the parser's kernel route ---------------------------------------------------
#
# An expression tree follows the CLI grammar: ("expr", term, [(op, term)]),
# ("term", [factor]), ("factor", base, exponent or None), and a base
# ("var", name), ("rational", numerator, denominator or None),
# ("paren", expr) or ("neg", factor).


def tree_text(node) -> str:
    """The CLI text of an expression tree."""
    kind = node[0]
    if kind == "expr":
        return tree_text(node[1]) + "".join(" %s %s" % (op, tree_text(t)) for op, t in node[2])
    if kind == "term":
        return "*".join(map(tree_text, node[1]))
    if kind == "factor":
        base = tree_text(node[1])
        return base if node[2] is None else "%s^%d" % (base, node[2])
    if kind == "var":
        return node[1]
    if kind == "rational":
        return str(node[1]) if node[2] is None else "%d/%d" % node[1:]
    if kind == "paren":
        return "(%s)" % tree_text(node[1])
    return "-" + tree_text(node[1])


def tree_value(node, spec) -> MPoly:
    """The tree evaluated the way the parser once did it: every atom an
    MPoly and every operator an MPoly `+`, `-`, `*` or `**`."""
    kind = node[0]
    if kind == "expr":
        value = tree_value(node[1], spec)
        for op, term in node[2]:
            rhs = tree_value(term, spec)
            value = value + rhs if op == "+" else value - rhs
        return value
    if kind == "term":
        value = tree_value(node[1][0], spec)
        for factor in node[1][1:]:
            value = value * tree_value(factor, spec)
        return value
    if kind == "factor":
        base = tree_value(node[1], spec)
        return base if node[2] is None else base ** node[2]
    if kind == "var":
        if node[1] == "t":
            return MPoly.constant(FieldScalar.theta(spec), spec)
        return MPoly.variable(node[1], spec)
    if kind == "rational":
        return MPoly.constant(Fraction(node[1], node[2] or 1), spec)
    if kind == "paren":
        return tree_value(node[1], spec)
    return -tree_value(node[1], spec)


def legendre_split(vf):
    """(a0, a1, a2, a3), the x^3 .. x^0 coefficients of
    (B - p*A)(x, p*x + q), by substitution."""
    spec = vf.spec
    x, p, q = (MPoly.variable(name, spec) for name in "xpq")
    dual = (vf.b - p * vf.a).substitute({"y": p * x + q})
    assert dual.degree_in("x") == 3
    return tuple(dual.coefficient("x", k) for k in (3, 2, 1, 0))
