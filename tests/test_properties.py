"""Property tests (hypothesis): gcd over Q and Q(theta), in two and three
variables, against the subresultant oracle, the closed-form curvature
numerator against the 5x5 determinant algorithm, the polynomial kernels
over Q and over Q(theta) against a FieldScalar-valued reference, and
FieldScalar arithmetic against a Fraction-only reference, on small random
inputs."""

import cmath
import math
import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from webflat import (  # noqa: E402
    RATIONALS,
    AffineVectorField,
    CubicWebEquation,
    DegenerateWeb,
    FieldScalar,
    MPoly,
    RatFn,
    divides,
    legendre_transform,
    poly_gcd,
    quadratic_field,
    web_curvature,
)
from webflat.cli import parse_field, parse_poly  # noqa: E402
from webflat.errors import DegreeExceeded, DegreeTooLow  # noqa: E402
import webflat.poly as poly_module  # noqa: E402
from webflat.poly import cubic_discriminant, render_poly, try_exact_divide  # noqa: E402
from webflat.webs import _curvature_fraction, _dual_web  # noqa: E402

from floatkw import embed, evaluate_float  # noqa: E402
from helpers import (  # noqa: E402
    assert_ground,
    brute_force_power,
    determinant_curvature_fraction,
    legendre_split,
    subresultant_oracle,
)

FIELDS = ("t^2=t+1", "t^2=t-1", "t^2=2*t+3/4")

_terms = st.lists(
    st.tuples(
        st.integers(0, 2),  # degree in x
        st.integers(0, 2),  # degree in y
        st.integers(-4, 4),  # rational part, numerator
        st.integers(1, 3),  # rational part, denominator
        st.integers(-2, 2),  # theta part, dropped over Q
    ),
    min_size=1,
    max_size=4,
)


def _poly(spec, terms):
    poly = MPoly.zero(spec)
    for i, j, a, d, b in terms:
        coeff = FieldScalar(Fraction(a, d), b if spec.is_quadratic else 0, spec)
        poly = poly + MPoly.monomial((i, j, 0, 0, 0, 0), coeff, spec)
    return poly


def _check_gcd_of_multiples(spec, a, b, h):
    a, b, h = (_poly(spec, terms) for terms in (a, b, h))
    assume(not (a.is_zero() or b.is_zero() or h.is_zero()))
    f, g = h * a, h * b
    d = poly_gcd(f, g)
    assert divides(h.monic(), d)
    assert d == subresultant_oracle(f, g, "x")


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(FIELDS), _terms, _terms, _terms)
def test_gcd_of_multiples_over_quadratic_field(field, a, b, h):
    _check_gcd_of_multiples(parse_field(field), a, b, h)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_terms, _terms, _terms)
def test_gcd_of_multiples_over_rationals(a, b, h):
    _check_gcd_of_multiples(RATIONALS, a, b, h)


_terms3 = st.lists(
    st.tuples(
        st.integers(0, 1),  # degree in x
        st.integers(0, 1),  # degree in y
        st.integers(0, 1),  # degree in z
        st.integers(-4, 4),  # rational part, numerator
        st.integers(1, 3),  # rational part, denominator
        st.integers(-2, 2),  # theta part, dropped over Q
    ),
    min_size=1,
    max_size=3,
)


def _poly3(spec, terms):
    poly = MPoly.zero(spec)
    for i, j, k, a, d, b in terms:
        coeff = FieldScalar(Fraction(a, d), b if spec.is_quadratic else 0, spec)
        poly = poly + MPoly.monomial((i, j, k, 0, 0, 0), coeff, spec)
    return poly


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from((None, "t^2=t+1")), _terms3, _terms3, _terms3)
def test_gcd_of_multiples_in_three_variables(field, a, b, h):
    """The factor x + y + z + 1 keeps x, y and z in both multiples past the
    monomial content, so each gcd goes to the modular engine in all three
    variables, which answers it."""
    spec = parse_field(field) if field else RATIONALS
    a, b, h = (_poly3(spec, terms) for terms in (a, b, h))
    assume(not (a.is_zero() or b.is_zero() or h.is_zero()))
    h = h * parse_poly("x + y + z + 1", spec)
    f, g = h * a, h * b
    calls = []
    inner = poly_module._gcd_modular

    def recording(f, g, variables):
        answer = inner(f, g, variables)
        calls.append((len(variables), isinstance(answer, MPoly)))
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly_module, "_gcd_modular", recording)
        d = poly_gcd(f, g)
    # no call only when the multiples agree up to a monomial and a scalar
    assert len(calls) <= 1 and all(call == (3, True) for call in calls)
    assert divides(h.monic(), d)
    assert d == subresultant_oracle(f, g, "x")


# -- the curvature numerator against the 5x5 determinant algorithm ------------------

_small_terms = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-3, 3), st.integers(1, 2),
              st.integers(-1, 1)),
    min_size=1,
    max_size=3,
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from((None, "t^2=t+1")), st.lists(_small_terms, min_size=5, max_size=5),
       st.booleans())
def test_curvature_fraction_matches_determinant_oracle(field, terms, shared):
    """R = -a0 * D, N = a0^2 * M and the reduced curvature is N / R^2, where
    (N, R) come from the determinant algorithm; with `shared`, a0 and a1
    take a common factor h, which then divides a0 and D."""
    spec = parse_field(field) if field else RATIONALS
    a0, a1, a2, a3, h = (_poly(spec, t) for t in terms)
    if shared:
        a0, a1 = h * a0, h * a1
    assume(not (a0.is_zero() and a1.is_zero() and a2.is_zero() and a3.is_zero()))
    web = CubicWebEquation("p", ("x", "y"), a0, a1, a2, a3)
    numerator, big_r = determinant_curvature_fraction(web)
    assert big_r == -(a0 * web.cubic_discriminant())
    if big_r.is_zero():
        with pytest.raises(DegenerateWeb, match="slope discriminant vanishes identically"):
            web_curvature(web)
        return
    closed_form, disc = _curvature_fraction(web)
    assert disc == web.cubic_discriminant()
    assert numerator == a0 * a0 * closed_form
    assert web_curvature(web).coeff == RatFn(numerator, big_r * big_r)


# -- the dual x-degree, read off the field before the Legendre expansion ----------

_top_terms = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-3, 3), st.integers(1, 2), st.integers(-1, 1)),
    min_size=1,
    max_size=3,
)


def _homogeneous(spec, degree, terms):
    """A form of the given degree in (x, y); term i is x^(i mod degree+1)."""
    return _poly(spec, [(i % (degree + 1), degree - i % (degree + 1), a, d, b) for i, a, d, b in terms])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from((None, "t^2=t+1")), st.integers(1, 5), st.booleans(), _top_terms,
       _top_terms, st.lists(_small_terms, min_size=2, max_size=2))
def test_dual_degree_matches_the_expanded_dual(field, d, radial, top_a, top_b, lower):
    """`legendre_transform` refuses or accepts a field of total degree at most
    d by the x-degree of the expanded B(x, p*x + q) - p*A(x, p*x + q), also
    when the degree-d part is radial, (A_d, B_d) = H * (x, y)."""
    spec = parse_field(field) if field else RATIONALS
    x, y, p, q = (MPoly.variable(name, spec) for name in "xypq")
    low_a, low_b = (_poly(spec, [t for t in terms if t[0] + t[1] < d]) for terms in lower)
    if radial:
        h = _homogeneous(spec, d - 1, top_a)
        a, b = x * h + low_a, y * h + low_b
    else:
        a, b = _homogeneous(spec, d, top_a) + low_a, _homogeneous(spec, d, top_b) + low_b
    assume(not (a.is_zero() and b.is_zero()))
    line = p * x + q
    expanded = (b.substitute({"y": line}) - p * a.substitute({"y": line})).degree_in("x")
    try:
        legendre_transform(AffineVectorField(a, b))
        degree = 3
    except DegenerateWeb:  # raised only past the degree check
        degree = 3
    except (DegreeExceeded, DegreeTooLow) as err:
        degree = int(re.fullmatch(r"dual equation has x-degree (\d+) [<>] 3", str(err)).group(1))
    assert degree == expanded


_lower_terms = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3), st.integers(1, 2),
              st.integers(-1, 1)),
    max_size=5,
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from((None, "t^2=t+1")), st.booleans(), _top_terms, _top_terms,
       _lower_terms, _lower_terms)
def test_legendre_expansion_matches_the_substitution(field, radial, top_a, top_b, low_a, low_b):
    """`legendre_transform`'s a0..a3 are the x-degree parts of
    (B - p*A)(x, p*x + q) by substitution, for fields of degree 3 and radial
    fields of degree 4; `_dual_web` is (a0, -a1, a2, -a3) with the same D."""
    spec = parse_field(field) if field else RATIONALS
    x, y = MPoly.variable("x", spec), MPoly.variable("y", spec)
    d = 4 if radial else 3
    low_a, low_b = (_poly(spec, [t for t in terms if t[0] + t[1] < d]) for terms in (low_a, low_b))
    if radial:
        h = _homogeneous(spec, 3, top_a)
        a, b = x * h + low_a, y * h + low_b
    else:
        a, b = _homogeneous(spec, 3, top_a) + low_a, _homogeneous(spec, 3, top_b) + low_b
    assume(not (a.is_zero() and b.is_zero()))
    vf = AffineVectorField(a, b)
    try:
        web = legendre_transform(vf)
    except (DegreeExceeded, DegreeTooLow):  # a top form that vanished or is radial
        assume(False)
    except DegenerateWeb:
        assert cubic_discriminant(*legendre_split(vf)).is_zero()
        return
    want = legendre_split(vf)
    assert (web.slope_var, web.base_vars) == ("x", ("p", "q"))
    assert (web.a0, web.a1, web.a2, web.a3) == want
    for coeff in (web.a0, web.a1, web.a2, web.a3):
        assert_ground(coeff)
    dual = _dual_web(vf)
    assert (dual.slope_var, dual.base_vars) == ("x", ("p", "q"))
    assert (dual.a0, dual.a1, dual.a2, dual.a3) == (want[0], -want[1], want[2], -want[3])
    assert dual.cubic_discriminant() == cubic_discriminant(*want) == web.cubic_discriminant()


# -- polynomial kernels over Q against a FieldScalar-valued reference ----------------


def _reference_sum(polys, signs, spec=RATIONALS):
    """The signed sum of the polynomials, added up on their FieldScalar
    `terms`."""
    acc = {}
    for poly, sign in zip(polys, signs):
        for exponent, coeff in poly.terms.items():
            acc[exponent] = acc.get(exponent, FieldScalar(0, 0, spec)) + coeff * sign
    return MPoly(acc, spec)


def _reference_substitute_x(f, h):
    """f with x replaced by h, one term at a time by brute-force expansion."""
    parts = []
    for (i, *rest), coeff in f.terms.items():
        monomial = MPoly.monomial((0, *rest), coeff, f.spec)
        parts.append(brute_force_power([monomial] + [h] * i))
    return _reference_sum(parts, [1] * len(parts), f.spec)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_terms, _terms, _terms)
def test_kernels_over_rationals_match_scalar_reference(a, b, h):
    f, g, h = (_poly(RATIONALS, terms) for terms in (a, b, h))
    results = {
        "add": (f + g, _reference_sum([f, g], [1, 1])),
        "sub": (f - g, _reference_sum([f, g], [1, -1])),
        "mul": (f * g, brute_force_power([f, g])),
        "derivative": (
            f.derivative("y"),
            MPoly({(i, j - 1, 0, 0, 0, 0): c * j for (i, j, *_), c in f.terms.items() if j}),
        ),
        "substitute": (f.substitute({"x": h}), _reference_substitute_x(f, h)),
    }
    if not f.is_zero():
        inverse = f.leading_coefficient().inverse()
        results["monic"] = (f.monic(), MPoly({e: c * inverse for e, c in f.terms.items()}))
    if not g.is_zero():
        results["exact divide"] = (try_exact_divide(f * g, g), f)
    for name, (got, want) in results.items():
        assert got == want, name
        assert_ground(got)
    # rendering: the same text as the FieldScalar-valued twin over Q(theta)
    twin = _poly(parse_field("t^2=t+1"), [(i, j, n, d, 0) for i, j, n, d, _ in a])
    assert render_poly(f) == render_poly(twin)
    assert parse_poly(render_poly(f)) == f


# -- polynomial kernels over Q(theta) against a FieldScalar-valued reference ---------

_components = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_THETA = {"t^2=t+1": (1 + math.sqrt(5)) / 2, "t^2=t-1": (1 + cmath.sqrt(-3)) / 2}


def _scaled(f, s):
    """f times the FieldScalar s, term by term on `terms`."""
    return MPoly({e: c * s for e, c in f.terms.items()}, f.spec)


def _reference_divide(f, g):
    """f / g by long division in lex order on FieldScalar terms, or None."""
    divisor = g.terms
    lead = max(divisor)
    inverse = divisor[lead].inverse()
    rest, quotient = f.terms, {}
    while rest:
        top = max(rest)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            return None
        c = quotient[shift] = rest[top] * inverse
        for e, d in divisor.items():
            k = tuple(a + b for a, b in zip(shift, e))
            rest[k] = rest.get(k, FieldScalar(0, 0, f.spec)) - c * d
            if not rest[k]:
                del rest[k]
    return MPoly(quotient, f.spec)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(sorted(_THETA)), _terms, _terms, _terms,
       st.tuples(_components, _components), st.booleans())
def test_kernels_over_quadratic_fields_match_scalar_reference(field, a, b, h, s, theta_free):
    """Each pair kernel against FieldScalar arithmetic on `terms`: irrational
    scalars, Fraction components and, with `theta_free`, theta-free f and h
    under the quadratic spec."""
    spec = parse_field(field)
    if theta_free:
        a, h = ([(i, j, n, d, 0) for i, j, n, d, _ in terms] for terms in (a, h))
    f, g, h = (_poly(spec, terms) for terms in (a, b, h))
    s = FieldScalar(*s, spec)
    results = {
        "add": (f + g, _reference_sum([f, g], [1, 1], spec)),
        "sub": (f - g, _reference_sum([f, g], [1, -1], spec)),
        "neg": (-f, _reference_sum([f], [-1], spec)),
        "mul": (f * g, brute_force_power([f, g])),
        "scalar mul": (f * s, _scaled(f, s)),
        "rational scalar mul": (Fraction(-3, 2) * f, _scaled(f, FieldScalar(Fraction(-3, 2), 0, spec))),
        "derivative": (
            f.derivative("y"),
            MPoly({(i, j - 1, 0, 0, 0, 0): c * j for (i, j, *_), c in f.terms.items() if j}, spec),
        ),
        "substitute": (f.substitute({"x": h}), _reference_substitute_x(f, h)),
    }
    if not f.is_zero():
        results["monic"] = (f.monic(), _scaled(f, f.leading_coefficient().inverse()))
    if not g.is_zero():
        inverse = g.leading_coefficient().inverse()  # irrational when g's lc carries theta
        num, den = poly_module._monic_denominator(f, g)
        results["monic denominator num"] = (num, _scaled(f, inverse))
        results["monic denominator den"] = (den, _scaled(g, inverse))
        results["exact divide"] = (try_exact_divide(f * g, g), f)
        assert try_exact_divide(f, g) == _reference_divide(f, g)
    if not h.is_zero():
        # with theta_free, the gcd's images take theta -> 0 at every prime
        results["gcd"] = (poly_gcd(f * h, h), _scaled(h, h.leading_coefficient().inverse()))
    for name, (got, want) in results.items():
        assert got == want, name
        assert_ground(got)
    # the boundary: evaluation, rendering and the parser's power charge
    theta = _THETA[field]
    x0, y0 = s, FieldScalar(Fraction(1, 2), 0, spec)
    value = f.evaluate_scalar({"x": x0, "y": y0})
    want = FieldScalar(0, 0, spec)
    for (i, j, *_), c in f.terms.items():
        want = want + c * x0**i * y0**j
    assert type(value) is FieldScalar and value == want
    point = {"x": embed(x0, theta), "y": 0.5}
    approx = sum(embed(c, theta) * point["x"] ** i * 0.5**j for (i, j, *_), c in f.terms.items())
    assert abs(evaluate_float(f, point, theta) - approx) <= 1e-9 * max(1.0, abs(approx))
    assert parse_poly(render_poly(f), spec) == f
    kappa = max(1, abs(spec.u) + abs(spec.v))
    norm = sum(abs(c.a) + abs(c.b) * kappa for c in f.terms.values())
    den = math.lcm(1, *(x.denominator for c in f.terms.values() for x in (c.a, c.b)))
    charge = poly_module._ceil_log2
    assert poly_module._power_bits(f, 3) == 3 * (charge(norm * den) + charge(den))


# -- FieldScalar against a Fraction-only reference ---------------------------------

_SCALAR_FIELDS = (
    RATIONALS,
    quadratic_field(1, 1),  # t^2 = t + 1
    quadratic_field(Fraction(1, 3), Fraction(5, 2)),  # t^2 = t/3 + 5/2
)
_rationals = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12)
)


def _reference_ops(spec, x, y, k):
    """The field operations on (a, b) pairs of Fractions, as in the
    textbook: t^2 = u*t + v, inverse = conjugate / norm."""
    u, v = (Fraction(spec.u), Fraction(spec.v)) if spec.is_quadratic else (0, 0)

    def mul(p, q):
        (a, b), (c, d) = p, q
        return (a * c + b * d * v, a * d + b * c + b * d * u)

    def inv(p):
        a, b = p
        n = a * a + a * b * u - b * b * v
        return ((a + b * u) / n, -b / n)

    power = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        power = mul(power, x)
    ops = {
        "add": (x[0] + y[0], x[1] + y[1]),
        "sub": (x[0] - y[0], x[1] - y[1]),
        "neg": (-x[0], -x[1]),
        "mul": mul(x, y),
    }
    if k >= 0:
        ops["pow"] = power
    elif any(x):
        ops["pow"] = inv(power)
    if any(y):
        ops["inverse"] = inv(y)
        ops["div"] = mul(x, inv(y))
    return ops


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(_SCALAR_FIELDS), _rationals, _rationals, _rationals, _rationals,
       st.integers(-3, 3))
def test_field_scalar_ops_match_fraction_reference(spec, a, b, c, d, k):
    if not spec.is_quadratic:
        b = d = 0
    x, y = FieldScalar(a, b, spec), FieldScalar(c, d, spec)
    ops = {"add": x + y, "sub": x - y, "neg": -x, "mul": x * y}
    if k >= 0 or not x.is_zero():
        ops["pow"] = x ** k
    if not y.is_zero():
        ops["inverse"] = y.inverse()
        ops["div"] = x / y
    reference = _reference_ops(spec, (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)), k)
    assert ops.keys() == reference.keys()
    for name, value in ops.items():
        assert (value.a, value.b) == reference[name], name
        for component in (value.a, value.b):
            assert type(component) is (int if component.denominator == 1 else Fraction)
    assert (x == y) == ((Fraction(a), Fraction(b)) == (Fraction(c), Fraction(d)))
