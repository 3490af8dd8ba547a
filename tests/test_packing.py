"""Packed exponent vectors: the layout, the order, the guard bits and the
degree bound, and every polynomial kernel against a reference that works
on the tuple-keyed `terms` map alone, over Q and over t^2 = t + 1, and for
the kernels also over t^2 = t/3 + 5/2."""

import itertools
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from webflat import RATIONALS, FieldScalar, MPoly, quadratic_field  # noqa: E402
from webflat.cli import parse_field, parse_poly, run_line  # noqa: E402
from webflat.errors import DegreeExceeded, FieldMismatch  # noqa: E402
import webflat.modular as modular  # noqa: E402
import webflat.poly as poly_module  # noqa: E402
from webflat.monomials import (  # noqa: E402
    BOUND,
    NVARS,
    SHIFT,
    UNIT,
    VARIABLES,
    WIDTH,
    exponent_at,
    monomial_degree,
    monomial_quotient,
    pack,
    unit,
    unpack,
)
from webflat.poly import render_poly, try_exact_divide  # noqa: E402

from helpers import assert_ground, tree_text, tree_value  # noqa: E402

GOLDEN = parse_field("t^2=t+1")
SPECS = (RATIONALS, GOLDEN)
# t^2 = t/3 + 5/2: a norm is a Fraction unless u or v is one
KERNEL_SPECS = SPECS + (quadratic_field(Fraction(1, 3), Fraction(5, 2)),)


def _grlex_key(exponent):
    """The monomial order on exponent tuples: total degree, then lex with
    x > y > z > p > q > t."""
    return (sum(exponent), exponent)


@st.composite
def _exponents(draw, top=BOUND - 1):
    """A 6-tuple of nonnegative exponents with total degree at most `top`,
    drawn to reach the bound itself as well as small values."""
    total = draw(st.one_of(st.integers(0, 6), st.integers(0, top), st.just(top)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=NVARS - 1, max_size=NVARS - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def test_layout_constants():
    assert WIDTH == 32 and BOUND == 2**31
    assert pack((0,) * NVARS) == 0
    # the total degree sits on top, then x, y, z, p, q, t
    assert pack((0, 0, 0, 0, 0, 1)) == 1 << 6 * WIDTH | 1
    assert pack((1, 0, 0, 0, 0, 0)) == 1 << 6 * WIDTH | 1 << 5 * WIDTH


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_exponents())
def test_pack_unpack_round_trip(exponent):
    m = pack(exponent)
    assert unpack(m) == exponent
    assert monomial_degree(m) == sum(exponent)
    assert pack(list(exponent)) == m
    assert MPoly.monomial(exponent).leading_monomial() == exponent


def test_pack_round_trips_at_the_bound_in_every_field():
    for i in range(NVARS):
        exponent = tuple(BOUND - 1 if j == i else 0 for j in range(NVARS))
        assert unpack(pack(exponent)) == exponent
        assert MPoly({exponent: 1}).terms == {exponent: 1}
        past = tuple(BOUND if j == i else 0 for j in range(NVARS))
        for build in (pack, MPoly.monomial, lambda e: MPoly({e: 1})):
            with pytest.raises(DegreeExceeded):
                build(past)
    with pytest.raises(DegreeExceeded):  # every field in range, the total past it
        pack((BOUND // 2, BOUND // 2, 0, 0, 0, 0))
    with pytest.raises(DegreeExceeded):
        pack((1, -1, 0, 0, 0, 0))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(_exponents(), min_size=1, max_size=12, unique=True))
def test_packed_order_is_grlex(exponents):
    packed = sorted(map(pack, exponents))
    assert [unpack(m) for m in packed] == sorted(exponents, key=_grlex_key)


def test_packed_order_is_grlex_on_all_small_exponents():
    small = [e for e in itertools.product(range(3), repeat=NVARS) if sum(e) <= 4]
    packed = sorted(map(pack, small))
    assert [unpack(m) for m in packed] == sorted(small, key=_grlex_key)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(SPECS), _exponents(top=BOUND - 2), st.booleans())
def test_guarded_divide_refuses_one_field_short_by_one(spec, exponent, two_terms):
    """A monomial with exactly one field one short of the divisor's does not
    divide, at each position; with that field made equal, it does."""
    f = MPoly.monomial(exponent, FieldScalar(3, 1 if spec.is_quadratic else 0, spec), spec)
    for i in range(NVARS):
        bigger = tuple(e + (j == i) for j, e in enumerate(exponent))
        g = MPoly.monomial(bigger, 2, spec)
        if two_terms:  # the general division loop, with the same leading term
            g = g + MPoly.one(spec)
        assert try_exact_divide(f, g) is None
        if 2 * sum(exponent) < BOUND - 1:
            assert try_exact_divide(f * g, g) == f
    assert try_exact_divide(f, MPoly.monomial(exponent, 1, spec)) == MPoly.constant(
        f.leading_coefficient(), spec
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_exponents(top=BOUND // 2 - 1), _exponents(top=BOUND // 2 - 1))
def test_monomial_quotient_and_exponent_at(a, b):
    """monomial_quotient(a, b) is a/b exactly when no exponent of b passes
    a's, else None; exponent_at reads each field and unit builds each
    variable."""
    ma, mb = pack(a), pack(b)
    divisible = all(x >= y for x, y in zip(a, b))
    want = pack(tuple(x - y for x, y in zip(a, b))) if divisible else None
    assert monomial_quotient(ma, mb) == want
    assert monomial_quotient(ma + mb, mb) == ma and monomial_quotient(ma, ma) == 0
    low = pack(tuple(map(min, a, b)))
    assert monomial_quotient(ma, low) == pack(tuple(x - min(x, y) for x, y in zip(a, b)))
    assert [exponent_at(ma, s) for s in SHIFT] == list(a)
    for i, s in enumerate(SHIFT):
        assert unit(s) == UNIT[i] == pack(tuple(int(j == i) for j in range(NVARS)))


def test_monomial_content_reads_only_the_variables_that_occur():
    """`modular.monomial_content` reads only the fields of one monomial's variables
    and still equals the version that takes the minimum of all six fields,
    on seeded sets of monomials in every subset of the variables."""
    rng = random.Random(1606)
    for _ in range(400):
        names = [i for i in range(NVARS) if rng.random() < 0.4]
        monomials = set()
        for _ in range(rng.randint(1, 8)):
            exponent = [0] * NVARS
            for i in names:
                exponent[i] = rng.choice((0, 1, 2, 3, rng.randint(0, 2**26)))
            monomials.add(pack(exponent))
        monomials = list(monomials)
        all_fields = sum(min(exponent_at(m, s) for m in monomials) * u for s, u in zip(SHIFT, UNIT))
        assert modular.monomial_content(monomials) == all_fields, monomials


# -- every kernel against a tuple-keyed reference on `terms` ------------------------


def _zero(spec):
    return FieldScalar(0, 0, spec)


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c * sign
    return _clean(out)


def _ref_mul(f, g, spec):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(f.items(), g.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        out[e] = out.get(e, _zero(spec)) + c1 * c2
    return _clean(out)


def _ref_power(f, n, spec):
    out = {(0,) * NVARS: FieldScalar(1, 0, spec)}
    for _ in range(n):
        out = _ref_mul(out, f, spec)
    return out


def _ref_derivative(f, i):
    return _clean({
        e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in f.items() if e[i]
    })


def _ref_divide(f, g, spec):
    """f / g by long division in grlex order, or None."""
    lead = max(g, key=_grlex_key)
    inverse = g[lead].inverse()
    rest, quotient = dict(f), {}
    while rest:
        top = max(rest, key=_grlex_key)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            return None
        c = quotient[shift] = rest[top] * inverse
        rest = _ref_add(rest, _ref_mul({shift: c}, g, spec), -1)
    return quotient


def _ref_substitute(f, i, h, spec):
    """f with variable i replaced by the terms h."""
    out = {}
    for e, c in f.items():
        rest = {e[:i] + (0,) + e[i + 1:]: c}
        out = _ref_add(out, _ref_mul(rest, _ref_power(h, e[i], spec), spec))
    return out


_small = st.tuples(*[st.integers(0, 2)] * 3 + [st.just(0)] * 2 + [st.integers(0, 1)])
_coefficients = st.tuples(st.integers(-5, 5), st.integers(1, 3), st.integers(-2, 2))
_term_lists = st.lists(st.tuples(_small, _coefficients), min_size=1, max_size=5)


def _build(spec, terms):
    out = {}
    for exponent, (n, d, b) in terms:
        out[exponent] = FieldScalar(Fraction(n, d), b if spec.is_quadratic else 0, spec)
    return MPoly(out, spec)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.sampled_from(KERNEL_SPECS), _term_lists, _term_lists, _term_lists, st.integers(0, 4))
def test_kernels_match_tuple_reference(spec, a, b, h, n):
    f, g, h = (_build(spec, terms) for terms in (a, b, h))
    assume(not (f.is_zero() or g.is_zero() or h.is_zero()))
    tf, tg, th = f.terms, g.terms, h.terms
    checks = {
        "add": (f + g, _ref_add(tf, tg)),
        "sub": (f - g, _ref_add(tf, tg, -1)),
        "neg": (-f, {e: -c for e, c in tf.items()}),
        "mul": (f * g, _ref_mul(tf, tg, spec)),
        "pow": (h ** n, _ref_power(th, n, spec)),
        "exact divide": (try_exact_divide(f * g, g), tf),
        "monic": (f.monic(), {e: c * f.leading_coefficient().inverse() for e, c in tf.items()}),
    }
    for s in (g.leading_coefficient(), 3, Fraction(-2, 7), 0):
        want = {e: c * s for e, c in tf.items() if c * s}
        checks["f * %r" % (s,)], checks["%r * f" % (s,)] = (f * s, want), (s * f, want)
    other = next(o for o in KERNEL_SPECS if o != spec)
    with pytest.raises(FieldMismatch):
        f * FieldScalar(2, 0, other)
    with pytest.raises(FieldMismatch):
        FieldScalar(2, 0, other) * f
    for i, name in enumerate(VARIABLES):
        checks["derivative " + name] = (f.derivative(name), _ref_derivative(tf, i))
        checks["substitute " + name] = (f.substitute({name: h}), _ref_substitute(tf, i, th, spec))
        for k, part in f.coefficients_in(name).items():
            want = {e[:i] + (0,) + e[i + 1:]: c for e, c in tf.items() if e[i] == k}
            checks["coefficients_in %s %d" % (name, k)] = (part, want)
            checks["coefficient %s %d" % (name, k)] = (f.coefficient(name, k), want)
        assert f.degree_in(name) == max(e[i] for e in tf)
    for name, (got, want) in checks.items():
        assert got.terms == want, name
        assert_ground(got)
    assert try_exact_divide(f, g) == (
        None if (q := _ref_divide(tf, tg, spec)) is None else MPoly(q, spec)
    )
    lead = max(tf, key=_grlex_key)
    assert f.leading_monomial() == lead and f.leading_coefficient() == tf[lead]
    assert f.total_degree() == max(map(sum, tf))
    assert f.variables() == {VARIABLES[i] for e in tf for i in range(NVARS) if e[i]}
    content = tuple(min(e[i] for e in tf) for i in range(NVARS))
    assert modular.monomial_content(f._ground) == pack(content)
    assert MPoly._raw(modular.shifted(f._ground, -pack(content)), spec).terms == {
        tuple(a - b for a, b in zip(e, content)): c for e, c in tf.items()
    }
    # rendering: the terms in descending grlex order, each as it renders alone
    parts = [render_poly(MPoly({e: tf[e]}, spec)) for e in sorted(tf, key=_grlex_key, reverse=True)]
    want = parts[0] + "".join(" - " + p[1:] if p[0] == "-" else " + " + p for p in parts[1:])
    assert render_poly(f) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(SPECS), _small, _small, _coefficients, _coefficients,
       st.integers(0, 40), st.booleans())
def test_one_and_two_term_powers_equal_repeated_multiplication(spec, e1, e2, c1, c2, n, two):
    """The binomial expansion of a two-term base, and the coefficient power
    of a one-term base, against n - 1 products."""
    assume(e1 != e2)
    f = _build(spec, [(e1, c1), (e2, c2)] if two else [(e1, c1)])
    assume(len(f.terms) == (2 if two else 1))
    repeated = MPoly.one(spec)
    for _ in range(n):
        repeated = repeated * f
    assert f**n == repeated
    assert_ground(f**n)


@pytest.mark.parametrize("spec", SPECS, ids=["Q", "Q(theta)"])
def test_products_and_powers_past_the_bound(spec):
    x = MPoly.variable("x", spec)
    top = x ** (BOUND - 1)
    assert top.leading_monomial() == (BOUND - 1, 0, 0, 0, 0, 0)
    with pytest.raises(DegreeExceeded):
        top * x
    with pytest.raises(DegreeExceeded):
        x**BOUND
    with pytest.raises(DegreeExceeded):
        (x + MPoly.variable("y", spec)) ** BOUND
    with pytest.raises(DegreeExceeded):
        (x * x + x + MPoly.one(spec)) ** (BOUND // 2)
    big = MPoly.monomial((BOUND // 2, BOUND // 2 - 1, 0, 0, 0, 0), 3, spec)
    assert (big * MPoly.one(spec)).terms == big.terms
    with pytest.raises(DegreeExceeded):
        big * x * x


# -- the sum-of-products kernel -----------------------------------------------------

_operands = st.lists(st.tuples(_small, _coefficients), max_size=5)  # empty: zero


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.sampled_from(KERNEL_SPECS),
       st.lists(st.tuples(st.integers(-3, 3), _operands, _operands), min_size=1, max_size=4),
       st.booleans())
def test_sum_of_products_matches_tuple_reference(spec, triples, cancel):
    """Zero operands, k = 0 and negative k, Fraction and theta parts, and
    with `cancel` the first product again with -k, so that it cancels."""
    terms = [(k, _build(spec, a), _build(spec, b)) for k, a, b in triples]
    if cancel:
        k, f, g = terms[0]
        terms.append((-k, g, f))
    want = {}
    for k, f, g in terms:
        want = _ref_add(want, {e: c * k for e, c in _ref_mul(f.terms, g.terms, spec).items()})
    got = poly_module.sum_of_products(terms)
    assert got.terms == want
    assert_ground(got)
    _, f, g = terms[0]
    one = poly_module.sum_of_products([(1, f, g)])
    assert one == f * g and one.terms == _ref_mul(f.terms, g.terms, spec)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["Q", "Q(theta)", "fractions"])
def test_sum_of_products_raises_as_products_do(spec):
    """The degree bound is checked per product and is exact, whatever k is
    and whatever the other products are; a zero operand is never checked,
    as for `*`.  Operands over another field raise FieldMismatch."""
    sop = poly_module.sum_of_products
    x, y = MPoly.variable("x", spec), MPoly.variable("y", spec)
    top = x ** (BOUND - 2)
    assert sop([(2, top, x), (-1, y, y)]).leading_monomial() == (BOUND - 1, 0, 0, 0, 0, 0)
    for k in (1, -2, 0):
        with pytest.raises(DegreeExceeded):
            sop([(1, x, y), (k, top, x * y)])
    assert sop([(3, top * x, MPoly.zero(spec)), (1, x, y)]) == x * y
    other = RATIONALS if spec.is_quadratic else GOLDEN
    for terms in ([(1, x, MPoly.variable("x", other))],
                  [(1, x, y), (1, MPoly.one(other), MPoly.one(other))]):
        with pytest.raises(FieldMismatch):
            sop(terms)


def test_parser_degree_bound_is_exact():
    assert parse_poly("x^2147483647").leading_monomial() == (BOUND - 1, 0, 0, 0, 0, 0)
    assert parse_poly("x^1073741824*y^1073741823").total_degree() == BOUND - 1
    for src in ("x^2147483648", "x^2147483647*x", "x*x^2147483647", "(x*y)^1073741824"):
        with pytest.raises(DegreeExceeded):
            parse_poly(src)
        out, err, code = run_line(["curvature", "--web", "p^3 + %s*p + x" % src])
        assert (out, code) == ("", 2), src
        assert err.startswith("error: DegreeExceeded: "), err


# -- the parser against the kernel route --------------------------------------------


def _factors(bases):
    # the grammar reads -f^e as -(f^e), so a negated base takes no power
    return st.builds(lambda base, e: ("factor", base, None if base[0] == "neg" else e),
                     bases, st.none() | st.integers(0, 3))


def _exprs(bases):
    terms = st.builds(lambda factors: ("term", factors),
                      st.lists(_factors(bases), min_size=1, max_size=3))
    return st.builds(lambda first, rest: ("expr", first, rest),
                     terms, st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=3))


def _trees(names):
    atoms = (st.tuples(st.just("var"), st.sampled_from(names))
             | st.tuples(st.just("rational"), st.integers(0, 9), st.none() | st.integers(1, 4)))
    bases = st.recursive(atoms, lambda inner: st.tuples(st.just("paren"), _exprs(inner))
                         | st.tuples(st.just("neg"), _factors(inner)), max_leaves=4)
    return _exprs(bases)


_TREES = {False: _trees("xyzpq"), True: _trees("xyzpqt")}  # by whether t is theta


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(KERNEL_SPECS), st.data())
def test_parser_matches_the_kernel_route(spec, data):
    """Atoms, products, sums, powers, parentheses and unary minus parse to
    the polynomial that MPoly's own operators give for the same tree."""
    tree = data.draw(_TREES[spec.is_quadratic])
    got = parse_poly(tree_text(tree), spec if spec.is_quadratic else None)
    assert got == tree_value(tree, spec), tree_text(tree)
    assert_ground(got)
