"""Polynomial kernel: arithmetic, calculus, gcd, determinants, resultants."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from webflat import (
    RATIONALS,
    FieldScalar,
    MPoly,
    RatFn,
    cubic_discriminant,
    cubic_resultant,
    divides,
    exact_divide,
    poly_gcd,
    quadratic_field,
    render_poly,
    squarefree_part,
)
import webflat.modular as modular
import webflat.poly as poly_module
from webflat.cli import parse_field, parse_poly, run_line
from webflat.monomials import BOUND, SHIFT, UNIT, VARIABLES, pack
from webflat.poly import VARIABLE_INDEX, determinant
from webflat.errors import (
    DivisionByZero,
    FieldMismatch,
    MissingValue,
    ZeroPolynomial,
)

from floatkw import BadEmbedding, evaluate_float
from helpers import (
    assert_ground,
    brute_force_power,
    cofactor_determinant,
    engine_gcd,
    pseudo_remainder,
    random_poly,
    random_scalar,
    record_engine,
    subresultant_oracle,
    sylvester_resultant,
)

P = parse_poly
X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")


# -- ring arithmetic -------------------------------------------------------


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == P("x^2 - y^2")


def test_additive_identity():
    f = P("x^3 - 2*x*y + 1/2")
    assert f + MPoly.zero() == f


def test_cube_of_trinomial_against_brute_force():
    f = X + Y + Z
    expanded = f ** 3
    assert len(expanded.terms) == 10
    assert expanded == brute_force_power([f, f, f])
    # spot-check two multinomial coefficients
    assert expanded.coefficient("x", 3).substitute({"y": MPoly.zero(), "z": MPoly.zero()}).constant_value() == 1
    xyz = expanded.terms[(1, 1, 1, 0, 0, 0)]
    assert xyz == 6


def test_mixed_field_rejected():
    other = MPoly.variable("x", quadratic_field(1, -1))
    with pytest.raises(FieldMismatch):
        X + other


def test_canonical_form_no_zero_terms():
    f = (X + Y) - (X + Y)
    assert f.is_zero() and f.terms == {}


def test_ring_axioms_random():
    rng = random.Random(1234)
    for _ in range(200):
        f = random_poly(rng)
        g = random_poly(rng)
        h = random_poly(rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


# -- derivatives -----------------------------------------------------------


def test_derivative_examples():
    assert P("x^2*y").derivative("x") == P("2*x*y")
    assert P("x^2 + y").derivative("p").is_zero()


def test_leibniz_rule_random():
    rng = random.Random(987)
    for _ in range(100):
        f = random_poly(rng, ("x", "y", "p"))
        g = random_poly(rng, ("x", "y", "p"))
        assert (f * g).derivative("x") == f * g.derivative("x") + g * f.derivative("x")


# -- substitution ------------------------------------------------------------


def test_substitute_line():
    f = P("y^3 - 1 - p*x^3")
    image = f.substitute({"y": P("p*x + q")})
    assert image == P("(p*x + q)^3 - 1 - p*x^3")


def test_substitute_is_simultaneous():
    f = P("(p*x + q)^3 - 1 - p*x^3")
    swapped = f.substitute({"p": P("x"), "q": P("y"), "x": P("-p")})
    assert swapped == P("(y - p*x)^3 + p^3*x - 1")
    # sequential substitution would differ: applying p->x first feeds the
    # later x->-p rule and lands somewhere else entirely
    sequential = f.substitute({"p": P("x")}).substitute({"q": P("y")}).substitute({"x": P("-p")})
    assert sequential != swapped


def test_identity_bindings():
    f = P("x^2*y - q")
    assert f.substitute({"x": P("x"), "q": P("q")}) == f


def test_substitution_is_ring_homomorphism():
    rng = random.Random(55)
    bindings = {"x": P("y + 1"), "y": P("x*q - 2")}
    for _ in range(100):
        f = random_poly(rng)
        g = random_poly(rng)
        assert (f * g).substitute(bindings) == f.substitute(bindings) * g.substitute(bindings)
        assert (f + g).substitute(bindings) == f.substitute(bindings) + g.substitute(bindings)



def _substitute_term_by_term(f, bindings):
    """Reference: each term's image from the public API, summed one by one."""
    total = MPoly.zero(f.spec)
    for exponent, coeff in f.terms.items():
        term = MPoly.constant(coeff, f.spec)
        for name, e in zip(VARIABLES, exponent):
            term = term * bindings.get(name, MPoly.variable(name, f.spec)) ** e
        total = total + term
    return total


@pytest.mark.parametrize("field", ("rationals", "t^2=t+1"))
def test_substitute_matches_term_by_term_reference(field):
    """Seeded polynomials under partial bindings, where many terms share
    their bound exponents, and under bindings of every variable they have,
    as in the homogeneous analysis, where cancellation empties terms."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    quadratic = spec.is_quadratic
    rng = random.Random(4242)
    names = ("x", "y", "z", "p")
    for _ in range(30):
        f = random_poly(rng, names, 3, 8, spec, quadratic=quadratic)
        bound = rng.sample(names, rng.randint(1, 4))
        bindings = {
            name: random_poly(rng, names, 1, 2, spec, quadratic=quadratic) for name in bound
        }
        assert_ground(got := f.substitute(bindings))
        assert got == _substitute_term_by_term(f, bindings)
    x, y = P("x", spec), P("y", spec)
    f = P("x^3 - x^2*y - x*y^2 + y^3", spec)  # (x - y)^2 (x + y)
    assert f.substitute({"x": y, "y": x}) == f
    assert f.substitute({"x": x + y, "y": x + y}).is_zero()
    assert P("(x + y + z + p + 1)^12", spec).substitute({"x": P("x + 1", spec)}) == (
        P("(x + y + z + p + 2)^12", spec)
    )


# -- gcd and divisibility -------------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(P("x^2 - y^2"), P("x - y")) == P("x - y")
    g = poly_gcd(P("(x + y)*(x - 1)"), P("(x + y)*(y - 1)"))
    assert g == P("x + y")
    assert divides(g, P("(x + y)*(x - 1)"))
    assert divides(g, P("(x + y)*(y - 1)"))


def test_gcd_with_zero():
    f = P("3*x^2 - 3*y")
    assert poly_gcd(f, MPoly.zero()) == f.monic()
    assert poly_gcd(MPoly.zero(), MPoly.zero()).is_zero()


def test_gcd_divides_both_random():
    rng = random.Random(2024)
    for _ in range(100):
        f = random_poly(rng, ("x", "y"), 2, 3, nonzero=True)
        g = random_poly(rng, ("x", "y"), 2, 3, nonzero=True)
        d = poly_gcd(f, g)
        assert divides(d, f)
        assert divides(d, g)


def test_gcd_scalar_stability_random():
    rng = random.Random(77)
    for _ in range(50):
        f = random_poly(rng, ("x", "y"), 2, 2, nonzero=True)
        g = random_poly(rng, ("x", "y"), 2, 2, nonzero=True)
        h = random_poly(rng, ("x", "y"), 1, 2, nonzero=True)
        left = poly_gcd(h * f, h * g)
        right = h.monic() * poly_gcd(f, g)
        assert left == right.monic()


def test_gcd_over_quadratic_field():
    spec = quadratic_field(1, -1)
    x = MPoly.variable("x", spec)
    y = MPoly.variable("y", spec)
    t = MPoly.constant(FieldScalar.theta(spec), spec)
    f = (x - t * y) * (x + y)
    g = (x - t * y) * (x - y)
    assert poly_gcd(f, g) == (x - t * y).monic()


# -- modular gcd against the subresultant oracle -----------------------------------


def _swap_xy(f):
    return f.substitute({"x": MPoly.variable("y", f.spec), "y": MPoly.variable("x", f.spec)})


def _rational_gcd_pairs():
    """Seeded bivariate pairs over Q: a planted common factor, content in one
    variable alone (2*y + 1), coprime draws, one input dividing the other,
    and coefficients of 60 bits and more.  Every pair also appears with x
    and y swapped, so both recursion variables and both content variables
    occur."""
    rng = random.Random(1989)
    wide = P("x*y") * (2**61 + 15) - P("y") * Fraction(3**41, 2**7) + MPoly.constant(2**67 - 1)
    pairs = []
    for _ in range(6):
        a = random_poly(rng, ("x", "y"), 3, 4, nonzero=True)
        b = random_poly(rng, ("x", "y"), 3, 4, nonzero=True)
        h = random_poly(rng, ("x", "y"), 2, 3, nonzero=True)
        pairs.append((h * a, h * b))
        pairs.append((P("2*y + 1") * h * a, P("(2*y + 1)^2") * b))
        pairs.append((a, b))
        pairs.append((h, h * a))
        pairs.append((wide * h * a, wide * b * (2**64 + 1)))
    return pairs + [(_swap_xy(f), _swap_xy(g)) for f, g in pairs]


@pytest.fixture
def subresultant_gcd():
    """The oracle: the subresultant remainder sequence of the tests."""
    return subresultant_oracle


# t^2=2*t+3/4: theta not integral; t^2=-1: every split prime is 1 mod 4
MODULAR_FIELDS = ("t^2=t+1", "t^2=t-1", "t^2=2*t+3/4", "t^2=-1")


def _modular_gcd_pairs(field):
    """Seeded pairs over one quadratic field: planted common factors with
    theta in their coefficients, factors in one variable alone (y + t,
    2*y + 1), coprime draws, one input dividing the other, and pairs with
    rational coefficients only.  Every pair also appears with x and y
    swapped."""
    spec = parse_field(field)
    rng = random.Random(1971)
    x, y = MPoly.variable("x", spec), MPoly.variable("y", spec)
    one = MPoly.one(spec)
    t = MPoly.constant(FieldScalar.theta(spec), spec)
    pairs = []
    for _ in range(2):
        a, b, h = (
            random_poly(rng, ("x", "y"), d, n, spec, nonzero=True, quadratic=True)
            for d, n in ((3, 4), (3, 4), (2, 3))
        )
        pairs.append((h * a, h * b))
        pairs.append(((y + t) * h * a, (y + t) * (y + t) * b))
        pairs.append((((2 * y + one) * a, (2 * y + one) * (x - t) * b)))
        pairs.append((a, b))
        pairs.append((h, h * a))
        q, r, k = (
            random_poly(rng, ("x", "y"), d, n, spec, nonzero=True)
            for d, n in ((3, 4), (3, 4), (2, 3))
        )
        pairs.append((k * q, k * r))
    # x in most terms, so y + t is content over the second variable, next
    # to a common factor of positive degree in x
    cubic, common = x * x * x, (y + t) * (x - t * y + one)
    pairs.append(
        (common * (cubic + x * x * y + x + one), common * (y + t) * (cubic - t * x + 2 * one))
    )
    return pairs + [(_swap_xy(f), _swap_xy(g)) for f, g in pairs]


def _recording(monkeypatch, calls):
    """Record the variables of every call of the modular engine, and that it
    answered with a polynomial."""
    record_engine(monkeypatch, lambda variables, h: calls.append((variables, isinstance(h, MPoly))))


@pytest.mark.parametrize("field", ("rationals",) + MODULAR_FIELDS)
def test_modular_gcd_matches_subresultant_oracle(monkeypatch, subresultant_gcd, field):
    """`poly_gcd`, which answers most coprime pairs by the certificate, and
    the engine itself on every pair with Euclid in either variable, so that
    Brown's coprime exit stays checked against the oracle too."""
    pairs = _rational_gcd_pairs() if field == "rationals" else _modular_gcd_pairs(field)
    calls = []
    with monkeypatch.context() as patch:
        _recording(patch, calls)
        budget = _budget(patch, 100)
        fast, engine = [], []
        for f, g in pairs:
            budget.clear()  # at most 15 calls a pair here
            fast.append(poly_gcd(f, g))
            present = sorted(VARIABLE_INDEX[name] for name in f.variables() | g.variables())
            for order in (present, present[::-1]):
                budget.clear()
                engine.append(engine_gcd(f, g, tuple(order)))
    # the swapped copies run the oracle in the other recursion variable
    oracle = [subresultant_gcd(f, g, "x") for f, g in pairs]
    assert fast == oracle
    assert engine == [d for d in oracle for _ in range(2)]
    assert any(d.is_one() for d in oracle)
    if field == "rationals":
        assert fast == [subresultant_gcd(f, g, "y") for f, g in pairs]
    # poly_gcd reached the engine too, which answered, with Euclid in either variable
    assert calls and all(ok for _, ok in calls)
    assert {v[0] for v, _ in calls} >= {VARIABLE_INDEX["x"], VARIABLE_INDEX["y"]}



def _trivariate_gcd_pairs(spec):
    """Seeded pairs in x, y, z: planted common factors (with theta in them
    over Q(theta)), coprime draws and one input dividing the other."""
    rng = random.Random(1971 + spec.is_quadratic)
    xyz = ("x", "y", "z")
    pairs = []
    for _ in range(3):
        a, b, h = (
            random_poly(rng, xyz, d, n, spec, nonzero=True, quadratic=True)
            for d, n in ((2, 3), (2, 3), (1, 3))
        )
        pairs += [(h * a, h * b), (a, b), (h, h * a)]
    if spec.is_quadratic:
        t = MPoly.constant(FieldScalar.theta(spec), spec)
        h = P("x*y + z", spec) - t * P("y*z - 1", spec)
        pairs.append((h * P("x + t*z^2", spec), h * h * P("y - 2", spec)))
    else:
        h = P("x*y + z - 3*y*z + 1")
        pairs.append((h * P("x + z^2"), h * h * P("y - 2")))
    return pairs


@pytest.mark.parametrize("field", ("rationals", "t^2=t+1"))
def test_trivariate_modular_gcd_in_every_variable_order(monkeypatch, field):
    """The engine runs Euclid in the first variable and evaluates the
    last first, with grlex heads in between: every order of (x, y, z) gives
    the oracle's gcd."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    pairs = _trivariate_gcd_pairs(spec)
    oracle = [subresultant_oracle(f, g, "x") for f, g in pairs]
    assert any(d.is_constant() for d in oracle) and any(d.total_degree() > 1 for d in oracle)
    for order in itertools.permutations(VARIABLE_INDEX[name] for name in "xyz"):
        with monkeypatch.context() as patch:
            budget = _budget(patch, 2000)
            for (f, g), want in zip(pairs, oracle):
                budget.clear()
                assert engine_gcd(f, g, order) == want, order

@pytest.mark.parametrize("field", ("rationals", "t^2=t+1"))
def test_modular_gcd_refuses_wrong_candidate(monkeypatch, subresultant_gcd, field):
    """A wrong first reconstruction makes a wrong candidate: trial division
    refuses it, and the next prime gives the gcd."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    h = parse_poly("x^2*y - 3*y + 2" if field == "rationals" else "x^2*y - t*y + 2", spec)
    f, g = h * parse_poly("x + y + 1", spec), h * parse_poly("x - y", spec)
    reconstruct, divide = modular.rational_reconstruction, modular.exact_quotient
    answers, divisions = [], []

    def wrong_first(x, m):
        q = reconstruct(x, m)
        answers.append(q)
        return q + 1 if len(answers) == 1 else q

    def recording(a, b, theta):
        quotient = divide(a, b, theta)
        divisions.append(quotient is not None)
        return quotient

    with monkeypatch.context() as patch:
        patch.setattr(modular, "rational_reconstruction", wrong_first)
        patch.setattr(modular, "exact_quotient", recording)
        calls = []
        _recording(patch, calls)
        d = poly_gcd(f, g)
    assert answers[0] is not None
    assert divisions[0] is False and divisions[-2:] == [True, True]
    assert calls and all(ok for _, ok in calls)
    assert d == h.monic() == subresultant_gcd(f, g, "x")


# -- the coprime-first certificate in two variables ------------------------------

CERTIFICATE_FIELDS = ("rationals", "t^2=t+1", "t^2=t-1")


def _theta(spec):
    return (spec.u, spec.v) if spec.is_quadratic else None


def _certified(f, g):
    """`modular.certified_coprime` of f and g in (v, w) = (x, y)."""
    return modular.certified_coprime(f._ground, g._ground, SHIFT[0], SHIFT[1], _theta(f.spec))


def _certificate_prime(spec):
    return modular.certificate_prime(_theta(spec))[0]


def _recording_certificate(monkeypatch, seen):
    """Record the answer of every call of the certificate."""
    inner = modular.certified_coprime

    def recording(*args):
        seen.append(inner(*args))
        return seen[-1]

    monkeypatch.setattr(modular, "certified_coprime", recording)


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS)
def test_certificate_proves_coprime_pairs_with_monomial_contents(monkeypatch, field):
    """Seeded coprime pairs times monomials on both sides, in both variables
    and of unequal exponents: `poly_gcd` shifts the monomials out, the
    certificate proves the rest coprime, and the engine is never reached."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    rng = random.Random(1971)
    pairs = []
    while len(pairs) < 8:
        a, b = (random_poly(rng, ("x", "y"), 3, 4, spec, nonzero=True, quadratic=True)
                for _ in range(2))
        fx, fy, gx, gy = (rng.randint(1, 3) for _ in range(4))
        f = MPoly.monomial((fx, fy, 0, 0, 0, 0), 1, spec) * a
        g = MPoly.monomial((gx, gy, 0, 0, 0, 0), 1, spec) * b
        want = subresultant_oracle(f, g, "x")
        if (len(want.terms) == 1 and (fx, fy) != (gx, gy)  # a monomial gcd
                and {"x", "y"} == a.variables() == b.variables()
                and all(modular.monomial_content(p._ground) == 0 for p in (a, b))):
            pairs.append((f, g, want))
            assert _certified(a, b) and _certified(b, a)
    calls, seen = [], []
    with monkeypatch.context() as patch:
        _recording(patch, calls)
        _recording_certificate(patch, seen)
        for f, g, want in pairs:
            assert poly_gcd(f, g) == want
    assert not calls and seen == [True] * len(pairs)


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS)
def test_certificate_refuses_images_that_lose_degree_or_share_a_factor(monkeypatch, field):
    """The certificate takes the images at y = a and at x = b, with
    (a, b) = (POINT_W, POINT_V): inputs built to lose a degree or share a
    factor there are refused, and the engine finds the oracle's gcd."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    x, y, one = MPoly.variable("x", spec), MPoly.variable("y", spec), MPoly.one(spec)
    a, b = (MPoly.constant(c, spec) for c in (modular.POINT_W, modular.POINT_V))
    h = (x - b) * (y - a) + one  # 1 at x = b and at y = a
    cases = [
        # images at the points coprime, but each has lost its input's degree: gcd h
        (h * (x + y + 3 * one), h * (x + 2 * y + 5 * one), h),
        # both images at y = a are x: refused, though the gcd is 1
        (x + y - a, x + (y - a) ** 2, one),
    ]
    for f, g, want in cases:
        calls, seen = [], []
        with monkeypatch.context() as patch:
            _recording(patch, calls)
            _recording_certificate(patch, seen)
            assert poly_gcd(f, g) == want.monic() == subresultant_oracle(f, g, "x")
        assert seen == [False] and calls and all(ok for _, ok in calls)
    # the pair that point 1 refused is certified at these points
    assert _certified(x + y - one, x + (y - one) ** 2)
    # x with x + (y - a)^2: both images at y = a are x, so the certificate
    # refuses and the engine finds 1; poly_gcd shifts x out to 1 first
    f, g = x, x + (y - a) ** 2
    assert not _certified(f, g) and not _certified(g, f)
    assert engine_gcd(f, g, (0, 1)).is_one()
    assert poly_gcd(f, g).is_one()
    # h = 1 mod the prime, so the images of f and g are coprime though they
    # lost the degree that h carries: the terms divisible by it are left out
    h = MPoly.constant(_certificate_prime(spec), spec) * x * y + one
    f, g = h * (x + y + 3 * one), h * (x + 2 * y + 5 * one)
    assert not _certified(f, g) and not _certified(g, f)
    assert poly_gcd(f, g) == h.monic() == subresultant_oracle(f, g, "x")


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS)
def test_certificate_refuses_a_denominator_divisible_by_its_prime(monkeypatch, field):
    spec = RATIONALS if field == "rationals" else parse_field(field)
    g = P("x - y + 2", spec)
    for d in (3, _certificate_prime(spec)):
        f = P("x*y + 1", spec) + MPoly.constant(Fraction(1, d), spec) * P("y^2", spec)
        assert _certified(f, g) == _certified(g, f) == (d == 3)
        calls = []
        with monkeypatch.context() as patch:
            _recording(patch, calls)
            assert poly_gcd(f, g).is_one() and subresultant_oracle(f, g, "x").is_one()
        assert bool(calls) == (d != 3) and all(ok for _, ok in calls)


def test_certificate_prime_is_cached_below_two_to_the_thirty(monkeypatch):
    """One prime below 2**30, over Q and, split, over both golden fields;
    after the first lookup a certificate runs no primality test."""
    p, r = modular.certificate_prime(None)
    assert r is None and modular.is_prime(p) and p < 2**30
    for field in ("t^2=t+1", "t^2=t-1"):
        spec = parse_field(field)
        q, r = modular.certificate_prime(_theta(spec))
        assert modular.is_prime(q) and q < 2**30
        roots = modular.split_roots(spec.u, spec.v, q)
        assert roots is not None and r == roots[0] != roots[1]
        assert (r * r - modular.fraction_mod(spec.u, q) * r - modular.fraction_mod(spec.v, q)) % q == 0
    tests, inner = [], modular.is_prime

    def counting(n):
        tests.append(n)
        return inner(n)

    f, g = P("x*y + 1", spec), P("x - t*y + 2", spec)
    assert _certified(f, g)
    with monkeypatch.context() as patch:
        patch.setattr(modular, "is_prime", counting)
        assert _certified(f, g)
        assert not tests
        assert modular.certificate_prime.__wrapped__(_theta(spec)) == (q, r)  # uncached
        assert tests


def _residue(c, p):
    """A rational mod p, by Fraction arithmetic alone."""
    return Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS)
def test_image_is_the_coefficientwise_residue(field):
    """`modular.image`, the one reduction of the certificate and the engine,
    is (a + b*r) mod p term by term with zero residues left out, over Q and
    over Q(theta) with rational-only and with theta coefficients; it is None
    exactly when p divides a denominator, of a or of b."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    first, r = modular.certificate_prime(_theta(spec))
    rng = random.Random(1971)
    seen = set()
    for quadratic in (False, True) if spec.is_quadratic else (False,):
        for d in (1, 5, 7, first):
            f = random_poly(rng, ("x", "y"), 3, 6, spec, nonzero=True, quadratic=quadratic)
            extra = FieldScalar(0, Fraction(1, d), spec) if quadratic else FieldScalar(Fraction(1, d), 0, spec)
            # and a term whose residue is zero at the first prime
            f = f + MPoly.monomial((5, 0, 0, 0, 0, 0), extra, spec) + P("%d*y^5" % first, spec)
            for p in (first, 5, 7):
                got = modular.image(f._ground, r, p)
                if any(part.denominator % p == 0 for c in f.terms.values() for part in (c.a, c.b)):
                    assert got is None
                    seen.add("refused")
                    continue
                want = {}
                for e, c in f.terms.items():
                    if residue := (_residue(c.a, p) + _residue(c.b, p) * (r or 0)) % p:
                        want[pack(e)] = residue
                assert got == want
                seen.add("kept")
    assert seen == {"kept", "refused"}


@pytest.mark.parametrize("field", ("rationals", "t^2=t+1"))
def test_modular_gcd_skips_a_prime_dividing_a_denominator(monkeypatch, field):
    """A coefficient with the first prime in its denominator, in its theta
    part over Q(theta): the engine starts at the next prime and still
    gives the oracle's gcd."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    if spec.is_quadratic:
        usable = (p for p, *_ in modular.split_primes(spec.u, spec.v))
        h = P("x^2*y - t*y + 2", spec)
    else:
        usable = modular.primes()
        h = P("x^2*y - 3*y + 2", spec)
    first, second = next(usable), next(usable)
    c = FieldScalar(0, Fraction(1, first), spec) if spec.is_quadratic else Fraction(1, first)
    f = h * (P("x + y + 1", spec) + MPoly.monomial((0, 2, 0, 0, 0, 0), c, spec))
    g = h * P("x - y", spec)
    assert modular.image(f._ground, 0 if spec.is_quadratic else None, first) is None
    primes = []
    inner = modular.brown_gcd

    def recording(a, b, p, shifts):
        primes.append(p)
        return inner(a, b, p, shifts)

    with monkeypatch.context() as patch:
        patch.setattr(modular, "brown_gcd", recording)
        d = engine_gcd(f, g, (VARIABLE_INDEX["x"], VARIABLE_INDEX["y"]))
    assert first not in primes and primes[0] == second
    assert d == h.monic() == subresultant_oracle(f, g, "x")


def test_certificate_is_passed_by_in_one_and_in_three_variables(monkeypatch):
    seen = []
    one_variable = [(P("x^2 - 1"), P("x^3 - 1")), (P("y^2 + 2*y"), P("3*y + 5"))]
    three_variables = [(P("(x + y + z)*(x - z)"), P("(x + y + z)*(y + 1)")),
                       (P("x*y + z"), P("x - y*z + 2"))]
    with monkeypatch.context() as patch:
        _recording_certificate(patch, seen)
        for f, g in one_variable + three_variables:
            assert poly_gcd(f, g) == subresultant_oracle(f, g)
        assert not seen
        assert poly_gcd(P("x*y + 1"), P("x - y")).is_one()
        assert seen == [True]


def test_cheap_exits_come_before_the_certificate(monkeypatch):
    """The certificate's images are dense in the degrees, so a constant
    input after the monomial gcd is shifted out, or no shared variable,
    answers first: these finish at once without it or the engine."""
    big, high = "x^%d" % (BOUND - 2), "x^%d" % (BOUND - 4)

    def refuse(*args):
        raise AssertionError("reached the certificate or the engine")

    cases = [
        (P(big + " - 1"), P("y"), P("1")),
        (P(big + " - 1"), P("y - 1"), P("1")),
        (P(high + "*y + 1"), P("x*y"), P("1")),
        (P(high + "*y^2 + y"), P("x*y"), P("y")),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(modular, "certified_coprime", refuse)
        patch.setattr(modular, "_engine", refuse)
        for f, g, want in cases:
            assert poly_gcd(f, g) == poly_gcd(g, f) == want
        out, err, code = run_line(["sing", "--vf", big + " - 1 ; y", "--at", "0, 0"])
    assert (out, code) == ("", 2)
    assert err == "error: NotSingular: the saturated field does not vanish at (0, 0)"


def _unlucky_prime_cases(spec):
    """(f, g, skipped prime or None) with gcd h, and the second prime."""
    if spec.is_quadratic:
        (p, r, _), (p2, _, _) = itertools.islice(modular.split_primes(spec.u, spec.v), 2)
        h = parse_poly("x^2*y - t*y + 3", spec)
    else:
        p, p2 = itertools.islice(modular.primes(), 2)
        h = parse_poly("x^2*y - 5*y + 3", spec)
    cases = [
        # a leading coefficient that vanishes mod p: p is skipped
        (h * parse_poly("%d*x^3 + 2*y + 1" % p, spec), h * parse_poly("x*y - 2", spec), p),
        # coprime cofactors that agree mod p: the image gcd there is too
        # large, trial division refuses its candidate, and p2, with a
        # smaller leading monomial, starts the combination again
        (h * parse_poly("x + y + %d" % p, spec), h * parse_poly("x + y", spec), None),
    ]
    if spec.is_quadratic:
        # a leading coefficient that vanishes mod p under one image only
        cases.append(
            (h * parse_poly("(t - %d)*x^3 + t*y + 1" % r, spec), h * parse_poly("x*y - 2*t", spec), p)
        )
    return h, p2, cases


def test_modular_gcd_skips_unlucky_prime(monkeypatch, subresultant_gcd):
    for spec in (RATIONALS, parse_field("t^2=t+1")):
        h, p2, cases = _unlucky_prime_cases(spec)
        for f, g, skipped in cases:
            primes = []
            inner = modular.brown_gcd

            def recording(a, b, q, shifts):
                primes.append(q)
                return inner(a, b, q, shifts)

            with monkeypatch.context() as patch:
                patch.setattr(modular, "brown_gcd", recording)
                calls = []
                _recording(patch, calls)
                d = poly_gcd(f, g)
            assert calls and all(ok for _, ok in calls)
            assert skipped not in primes and p2 in primes
            assert d == h.monic() == subresultant_gcd(f, g, "x")


@pytest.mark.parametrize("field", ("rationals", "t^2=t+1"))
@pytest.mark.parametrize("bits", (400, 800, 1600))
def test_modular_gcd_of_wide_coefficients(monkeypatch, subresultant_gcd, field, bits):
    """The monic gcd's coefficients are quotients of two `bits`-bit integers,
    so rational reconstruction needs a modulus above 2**(2*bits): the engine
    takes just about that many 62-bit primes, however many that is."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    rng = random.Random(bits)
    c = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(5)]
    h = P("%d*x^2*y + %d*x*y - %d*y^2 + %d" % tuple(c[:4]), spec)
    if spec.is_quadratic:
        h = h + P("%d*t*x" % c[4], spec)
    f, g = h * P("x^2 + 3*y + 1", spec), h * P("x*y - 2*x + 5", spec)
    primes = []
    inner = modular.brown_gcd

    def recording(a, b, p, shifts):
        primes.append(p)
        return inner(a, b, p, shifts)

    with monkeypatch.context() as patch:
        patch.setattr(modular, "brown_gcd", recording)
        calls = []
        _recording(patch, calls)
        d = poly_gcd(f, g)
    assert [ok for _, ok in calls] == [True]
    assert d == h.monic() == subresultant_gcd(f, g, "x")
    assert (2 * bits) // 62 < len(set(primes)) <= (2 * bits) // 61 + 3


def test_modular_arithmetic_helpers():
    p = 1000003
    assert modular.divide([6, 5, 1], [2, 1], p) == ([3, 1], [])
    assert modular.gcd([p - 1, 0, 1], [1, 1], p) == [1, 1]
    assert modular.gcd([], [], p) == []
    for a in (4, 2, p - 1, 12345):
        if pow(a, (p - 1) // 2, p) == 1:
            root = modular.sqrt_mod(a, p)
            assert root * root % p == a
    m = p * 1000033
    x = Fraction(-355, 113)
    residue = x.numerator * pow(x.denominator, -1, m) % m
    assert modular.rational_reconstruction(residue, m) == x
    assert all(modular.is_prime(q) for q in (2, 3, 1000003, 2**61 - 1))
    assert not any(modular.is_prime(q) for q in (1, 561, 2**62 - 1, 1000003 * 1000033))



def test_modular_divide_by_sparse_high_degree_divisors():
    """Quotient and remainder mod p by divisors of high degree with few
    nonzero coefficients: q*b + r == a, deg r < deg b, no trailing zero."""
    p = modular.nth_prime(0)
    rng = random.Random(2011)
    for _ in range(60):
        db = rng.randint(1, 400)
        b = [0] * (db + 1)
        for k in rng.sample(range(db), rng.randint(0, min(db, 4))):
            b[k] = rng.randrange(1, p)
        b[db] = rng.randrange(1, p)
        da = rng.randint(0, 3 * db)
        a = [0] * (da + 1)
        for k in rng.sample(range(da + 1), rng.randint(1, min(da + 1, 8))):
            a[k] = rng.randrange(1, p)
        a = modular.trim(a)
        q, r = modular.divide(a, b, p)
        assert len(r) < len(b) and (not r or r[-1]) and (not q or q[-1])
        qb = modular.multiply(q, b, p)
        total = [0] * max(len(qb), len(r))
        for k, c in enumerate(qb):
            total[k] += c
        for k, c in enumerate(r):
            total[k] += c
        assert modular.trim([c % p for c in total]) == a

@pytest.mark.parametrize(
    "u, v", [(1, 1), (1, -1), (Fraction(1, 3), Fraction(5, 2))], ids=["t^2=t+1", "t^2=t-1", "fractions"]
)
def test_split_roots_are_cached_roots_of_the_minimal_polynomial(u, v):
    spec = quadratic_field(u, v)
    u, v = spec.u, spec.v
    split = []
    for p in itertools.islice(modular.primes(), 40):
        roots = modular.split_roots(u, v, p)
        assert roots == modular.split_roots.__wrapped__(u, v, p)  # a fresh computation
        assert modular.split_roots(u, v, p) is roots  # the cached answer
        if roots is None:
            continue
        split.append((p, *roots))
        r1, r2 = roots
        assert r1 != r2
        for r in roots:
            assert (r * r - modular.fraction_mod(u, p) * r - modular.fraction_mod(v, p)) % p == 0
    assert 10 < len(split) < 30  # about half the primes split
    assert list(itertools.islice(modular.split_primes(u, v), len(split))) == split


def _budget(monkeypatch, limit):
    """Fail, instead of looping on, once `modular.brown_gcd` has been called
    `limit` times, recursive calls included."""
    inner, calls = modular.brown_gcd, []

    def counting(a, b, p, shifts):
        calls.append(p)
        assert len(calls) <= limit, "brown_gcd called more than %d times" % limit
        return inner(a, b, p, shifts)

    monkeypatch.setattr(modular, "brown_gcd", counting)
    return calls


def _refusals(monkeypatch):
    """Record (number of variables, verdict) of every trial division mod p:
    the number of variables of the innermost `modular.brown_gcd` call, the
    one that tests its candidate."""
    inner_gcd, inner, verdicts, levels = modular.brown_gcd, modular.divides, [], []

    def level(a, b, p, shifts):
        levels.append(len(shifts))
        try:
            return inner_gcd(a, b, p, shifts)
        finally:
            levels.pop()

    def recording(h, f, p):
        verdict = inner(h, f, p)
        verdicts.append((levels[-1], verdict))
        return verdict

    monkeypatch.setattr(modular, "brown_gcd", level)
    monkeypatch.setattr(modular, "divides", recording)
    return verdicts


# F_p[v, w] and F_p[u, v, w] with packed keys, as (v, w) = (x, y) and
# (u, v, w) = (x, y, z): the variables' shifts, and the packed x, y, z
VW, UVW = SHIFT[:2], SHIFT[:3]
PX, PY, PZ = UNIT[:3]


def _sparse(rows):
    """Rows of dense polynomials in w, row i the coefficient of v^i, as a
    polynomial in F_p[v, w] with packed keys."""
    return {i * PX + j * PY: c for i, row in enumerate(rows) for j, c in enumerate(row) if c}


def _falling(count, p):
    """(w - 1)(w - 2)...(w - count) in F_p[w]."""
    out = [1]
    for k in range(1, count + 1):
        out = modular.multiply(out, [p - k, 1], p)
    return out


def test_modular_bivariate_gcd_skips_unlucky_points(monkeypatch):
    """v + (w - 1)...(w - 12) and v*(v + w) are coprime, but every
    evaluation point w = 1..12 gives the common factor v; the degree bound
    alone would stop after one point, so the candidate v must be refused
    by trial division mod p."""
    p = 1000003
    rows = [_falling(12, p), [1]]  # the coefficients of v^0, v^1 in F_p[w]
    a = _sparse(rows)
    b = _sparse([[], [0, 1], [1]])
    with monkeypatch.context() as patch:
        verdicts = _refusals(patch)
        _budget(patch, 100)
        assert modular.brown_gcd(a, b, p, VW) == {0: 1}
    assert (2, False) in verdicts
    c = _sparse([[p - 1, 1], [1]])  # v + w - 1
    h = modular.brown_gcd(
        _sparse([modular.multiply(row, [3, 1], p) for row in rows]),
        _sparse([[0, 3, 1], [3, 1]]),
        p,
        VW,
    )
    assert h == {0: 3, PY: 1}  # the factor w + 3 in w alone
    assert modular.divides(c, _sparse([[p - 1, 1], [p - 1, 1], [1]]), p) is False
    assert modular.divides(c, _sparse([[0, p - 1, 1], [p - 1, 2], [1]]), p)


def test_modular_trivariate_gcd_skips_unlucky_points(monkeypatch):
    """The outer variable w of F_p[u, v, w] is evaluated first.

    u + (w - 1)...(w - 12) and u*(u + v + w) are coprime, but every point
    w = 1..12 gives the common factor u, and the degree bound in w would
    stop after two points: trial division mod p refuses the candidate u.
    (u + v + w)*(u + w - 2) and (u + v + w)*(u + v*(w - 2)) meet in
    (u + v + w)*u at w = 2 only, an unlucky point after the lucky w = 1,
    which the interpolation must skip."""
    p = 1000003
    lowest = _falling(12, p)
    a = {j * PZ: c for j, c in enumerate(lowest) if c} | {PX: 1}
    b = {2 * PX: 1, PX + PY: 1, PX + PZ: 1}
    with monkeypatch.context() as patch:
        verdicts = _refusals(patch)
        _budget(patch, 200)
        assert modular.brown_gcd(a, b, p, UVW) == {0: 1}
    assert (3, False) in verdicts

    # over Q with (u, v, w) = (x, y, z)
    h = P("x + y + z")
    f, g = h * P("x + z - 2"), h * P("x + y*(z - 2)")
    images = []
    inner = modular.brown_gcd

    def recording(a, b, q, shifts):
        result = inner(a, b, q, shifts)
        if len(shifts) == 2:  # an image at a point w = x
            images.append(max(result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(modular, "brown_gcd", recording)
        _budget(patch, 200)
        d = engine_gcd(f, g, tuple(VARIABLE_INDEX[name] for name in "xyz"))
    assert d == h.monic() == subresultant_oracle(f, g, "x")
    # the image at w = 2 has a larger leading monomial than the one at w = 1
    assert images[1] > images[0]


@pytest.mark.parametrize("field", ("rationals", "t^2=t+1"))
def test_field_gcd_contract(field):
    """`modular.field_gcd`, and the engine behind it in (x, y), answer a
    coprime pair without the division test, show that test each candidate
    once, and return the monic gcd in the field's ground format: ints and
    Fractions, in pairs over Q(theta).  The test is seen through the field
    division, as each candidate is divided into the first input."""
    spec = RATIONALS if field == "rationals" else parse_field(field)
    theta, seen = _theta(spec), []
    divide = modular.exact_quotient
    if spec.is_quadratic:
        (p, *_), (p2, *_) = itertools.islice(modular.split_primes(spec.u, spec.v), 2)
        h = P("3*x^2*y - t*y + 2", spec)
    else:
        p, p2 = itertools.islice(modular.primes(), 2)
        h = P("3*x^2*y - 5*y + 2", spec)

    def engine(f, g, theta):
        return modular._engine(f, g, SHIFT[:2], theta)

    for entry in (modular.field_gcd, engine):
        def field_gcd(f, g):
            def recording(a, candidate, theta):
                if a == f._ground:
                    seen.append(candidate)
                return divide(a, candidate, theta)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(modular, "exact_quotient", recording)
                return entry(f._ground, g._ground, theta)

        seen.clear()
        one = (1, 0) if spec.is_quadratic else 1
        assert field_gcd(P("x*y + 1", spec), P("x - y", spec)) == {0: one}
        assert not seen
        # cofactors that agree mod p and mod p2: the candidate h*(x + y) of p
        # is refused and comes again from p*p2 untested, and the third prime's
        # h is accepted
        got = field_gcd(h * P("x + y + %d" % (p * p2), spec), h * P("x + y", spec))
        assert seen == [(h * P("x + y", spec)).monic()._ground, h.monic()._ground]
        assert got == seen[-1]
        assert {type(c) for c in got.values()} == ({tuple} if spec.is_quadratic else {int, Fraction})
        assert_ground(MPoly._raw(got, spec))


def test_gcd_puts_back_its_monomial_content_without_the_kernel(monkeypatch):
    """The monomial gcd shifted out goes back on as a shift of the keys, so
    an equal pair and an engine gcd make no kernel product."""
    f = P("x^2 + 3*y + 1")
    cases = [(f, f, f), (X * Y * f, X * X * f, X * f), (f * (X - Y), f * (X + Y), f)]
    calls, inner = [], poly_module.sum_of_products

    def counting(terms):
        calls.append(terms)
        return inner(terms)

    monkeypatch.setattr(poly_module, "sum_of_products", counting)
    for a, b, want in cases:
        assert poly_gcd(a, b) == want
    assert not calls


def test_exact_divide_errors():
    with pytest.raises(DivisionByZero):
        exact_divide(X, MPoly.zero())
    with pytest.raises(ValueError):
        exact_divide(P("x + 1"), P("y"))


# -- squarefree part ---------------------------------------------------------


def test_squarefree_examples():
    f = P("(x - y)^2*q")
    assert squarefree_part(f) == P("(x - y)*q").monic()
    g = P("x*y + 1")
    assert squarefree_part(g) == g.monic()
    h = P("q^2*(p^2 - 1)^3")
    sf = squarefree_part(h)
    assert sf == P("q*(p^2 - 1)").monic()
    assert divides(sf, h)


def test_squarefree_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        squarefree_part(MPoly.zero())


def test_squarefree_result_coprime_with_partials():
    f = P("(x + y)^3*(x - 2)^2*y")
    sf = squarefree_part(f)
    assert divides(sf, f)
    common = sf
    for var in ("x", "y"):
        common = poly_gcd(common, sf.derivative(var))
    assert common.is_constant()


# -- determinants ----------------------------------------------------------------


def test_identity_determinant():
    one = MPoly.one()
    zero = MPoly.zero()
    assert determinant([[one, zero, zero], [zero, one, zero], [zero, zero, one]]) == one


def test_determinant_against_cofactor_oracle():
    # the closed form against plain cofactor expansion, over Q and t^2 = t + 1
    rng = random.Random(31415)
    for spec in (RATIONALS, quadratic_field(1, 1)):
        for k in range(16):
            rows = [
                [random_poly(rng, ("x", "y"), 1, 2, spec, quadratic=True) for _ in range(3)]
                for _ in range(3)
            ]
            if k % 2:  # a zero entry, as in the inflection matrix's z column
                rows[k % 3][k // 2 % 3] = MPoly.zero(spec)
            assert determinant(rows) == cofactor_determinant(rows)


# -- the 5x5 slope resultant -------------------------------------------------------


def test_cubic_resultant_of_three_pencils():
    one = MPoly.one()
    zero = MPoly.zero()
    value = cubic_resultant(one, zero, -one, zero)
    assert value == MPoly.constant(-4)
    assert value == sylvester_resultant(one, zero, -one, zero)


def test_cubic_resultant_triple_root():
    assert cubic_resultant(MPoly.one(), MPoly.zero(), MPoly.zero(), MPoly.zero()).is_zero()


def test_cubic_resultant_constant_equation():
    zero = MPoly.zero()
    c = MPoly.constant(Fraction(5, 3))
    value = cubic_resultant(zero, zero, zero, c)
    assert value == sylvester_resultant(zero, zero, zero, c)
    assert value.is_zero()


def test_cubic_resultant_vanishes_iff_double_root():
    rng = random.Random(6174)
    p = MPoly.variable("p")
    for _ in range(20):
        # planted double root: (p - r)^2 (p - s)
        r = MPoly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        s = MPoly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        cubic = (p - r) * (p - r) * (p - s)
        value = cubic_resultant(
            cubic.coefficient("p", 3),
            cubic.coefficient("p", 2),
            cubic.coefficient("p", 1),
            cubic.coefficient("p", 0),
        )
        assert value.is_zero()
    for _ in range(20):
        # distinct roots r, s, w: resultant must not vanish
        vals = rng.sample(range(-8, 9), 3)
        cubic = MPoly.one()
        for v in vals:
            cubic = cubic * (p - MPoly.constant(v))
        value = cubic_resultant(
            cubic.coefficient("p", 3),
            cubic.coefficient("p", 2),
            cubic.coefficient("p", 1),
            cubic.coefficient("p", 0),
        )
        assert not value.is_zero()


def test_cubic_resultant_with_polynomial_coefficients():
    """The closed form equals the 5x5 oracle, sign included, over Q and
    t^2=t+1, also with a0 = 0 and with constant inputs."""
    for spec in (RATIONALS, parse_field("t^2=t+1")):
        rng = random.Random(8888)
        zero = MPoly.zero(spec)
        cases = []
        for _ in range(10):
            coeffs = [random_poly(rng, ("p", "q"), 1, 2, spec, quadratic=True) for _ in range(4)]
            cases.append(coeffs)
            cases.append([zero] + coeffs[1:])
            cases.append(
                [MPoly.constant(random_scalar(rng, spec, quadratic=True), spec) for _ in range(4)]
            )
        for coeffs in cases:
            assert cubic_resultant(*coeffs) == sylvester_resultant(*coeffs)
        assert any(not cubic_resultant(*coeffs).is_zero() for coeffs in cases[2::3])


@pytest.mark.parametrize("field", [None, "t^2=t+1"])
def test_cubic_resultant_unchanged_by_slope_sign(field):
    """R(a0, -a1, a2, -a3) == R(a0, a1, a2, a3), and so for D: `dual_curvature`
    reuses the Legendre web's discriminant for the sign-flipped web."""
    spec = parse_field(field) if field else RATIONALS
    rng = random.Random(2015)
    for _ in range(10):
        a0, a1, a2, a3 = (
            random_poly(rng, ("p", "q"), 2, 3, spec, quadratic=True) for _ in range(4)
        )
        assert cubic_resultant(a0, -a1, a2, -a3) == cubic_resultant(a0, a1, a2, a3)
        assert cubic_discriminant(a0, -a1, a2, -a3) == cubic_discriminant(a0, a1, a2, a3)


# -- rational functions ---------------------------------------------------------


def test_ratfn_reduction_and_monic_denominator():
    f = RatFn(P("2*x^2 - 2*y^2"), P("4*x - 4*y"))
    assert f.num == P("1/2*x + 1/2*y")
    assert f.den.is_one()
    g = RatFn(P("x"), P("2*x*y"))
    assert g.den == P("y")
    assert g.num == MPoly.constant(Fraction(1, 2))


def test_ratfn_equality_cross_multiplied():
    def cross_equal(a, b):
        return a.num * b.den == b.num * a.den

    a = RatFn(P("x^2 - y^2"), P("x - y"))
    b = RatFn(P("x + y"), MPoly.one())
    assert a == b and cross_equal(a, b)
    c, d = RatFn(P("x"), P("y")), RatFn(P("y"), P("x"))
    assert c != d and not cross_equal(c, d)
    # (num, den) comparison agrees with cross-multiplication, also for
    # equal fractions built from different representatives
    rng = random.Random(5)
    for _ in range(20):
        f = random_poly(rng, ("x", "y"), 2, 3, nonzero=True)
        g = random_poly(rng, ("x", "y"), 2, 3, nonzero=True)
        h = random_poly(rng, ("x", "y"), 1, 2, nonzero=True)
        left, right = RatFn(f, g), RatFn(h * f * 3, h * g * 3)
        assert left == right and cross_equal(left, right)
        other = RatFn(f + MPoly.one(), g)
        assert (left == other) == cross_equal(left, other)


def test_ratfn_zero_denominator():
    with pytest.raises(DivisionByZero):
        RatFn(X, MPoly.zero())


# -- float evaluation --------------------------------------------------------------


def test_evaluate_float_simple():
    assert evaluate_float(P("x^2 + 1"), {"x": 2.0}) == pytest.approx(5.0)


def test_evaluate_float_theta():
    spec = quadratic_field(1, -1)
    t = MPoly.constant(FieldScalar.theta(spec), spec)
    embedding = 0.5 + math.sqrt(3) / 2 * 1j
    value = evaluate_float(t, {}, embedding)
    assert value == pytest.approx(embedding)


def test_evaluate_float_embedding_checked():
    spec = quadratic_field(1, -1)
    t = MPoly.variable("x", spec)
    with pytest.raises(BadEmbedding):
        evaluate_float(t, {"x": 1.0})  # embedding missing
    with pytest.raises(BadEmbedding):
        evaluate_float(t, {"x": 1.0}, 0.3 + 0.1j)  # not a root
    with pytest.raises(BadEmbedding):
        evaluate_float(P("x"), {"x": 1.0}, 1.0 + 0j)  # rationals take none


def test_evaluate_float_homomorphism():
    rng = random.Random(271828)
    for _ in range(50):
        f = random_poly(rng, ("x", "y", "q"))
        g = random_poly(rng, ("x", "y", "q"))
        point = {
            "x": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            "y": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            "q": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        }
        left = evaluate_float(f * g, point)
        right = evaluate_float(f, point) * evaluate_float(g, point)
        scale = max(1.0, abs(left), abs(right))
        assert abs(left - right) / scale < 1e-9


# -- ground representation ---------------------------------------------------------

GROUND_FIELDS = [RATIONALS, quadratic_field(1, 1)]


@pytest.mark.parametrize("spec", GROUND_FIELDS, ids=["Q", "Q(theta)"])
def test_ground_map_after_every_kernel(spec):
    def Pf(text):
        return parse_poly(text, spec)

    half = Pf("1/2*x^2 + 3/2*x*y - 1/2")
    f, g = Pf("2/3*x + 1/3*y"), Pf("3/4*x - 3/2")
    x, y = VARIABLE_INDEX["x"], VARIABLE_INDEX["y"]
    ratfn = RatFn(f * g * Fraction(3, 2), g * Pf("2/3*y"))
    results = {
        "add": half + half,  # Fraction + Fraction: integral sums become ints
        "sub": half - Pf("1/2*x^2 - 1/2"),
        "neg": -half,
        "mul": (f * 3) * (g * 4),
        "mul by scalar": half * 2,
        "scalar mul": Fraction(2, 3) * g,
        "derivative": half.derivative("x"),
        "substitute": half.substitute({"x": Pf("2*y"), "y": Fraction(1, 3)}),
        "monic": Pf("2/3*x^2 + 4/3*x").monic(),
        "exact divide": poly_module.try_exact_divide(f * g, g),
        "determinant": determinant([[f, g, half], [g * 2, half, f], [half, f, g]]),
        "cubic resultant": cubic_resultant(Pf("1/2"), f, g, half),
        "modular gcd": engine_gcd(f * g, f * half, (x, y)),
        "poly_gcd": poly_gcd(f * g, f * half),
        "ratfn num": ratfn.num,
        "ratfn den": ratfn.den,
        "constant": MPoly.constant(FieldScalar(Fraction(4, 2), 0, spec), spec),
    }
    pseudo = pseudo_remainder(
        (f * g + half).coefficients_in("x"), g.coefficients_in("x")
    )
    results.update(("prem %d" % k, c) for k, c in pseudo.items())
    for name, value in results.items():
        assert not value.is_zero(), name
        assert_ground(value)
    assert results["add"] == Pf("x^2 + 3*x*y - 1")
    assert results["mul"] == Pf("6*x^2 + 3*x*y - 12*x - 6*y")
    assert results["monic"] == Pf("x^2 + 2*x")
    assert results["exact divide"] == f
    assert results["modular gcd"] == results["poly_gcd"] == f.monic()
    assert ratfn.num == Pf("3/2*x + 3/4*y") and ratfn.den == Pf("y")
    assert results["constant"].constant_value() == 2


@pytest.mark.parametrize("spec", GROUND_FIELDS, ids=["Q", "Q(theta)"])
def test_scalars_leave_the_kernel_as_field_scalars(spec):
    f = parse_poly("3/4*x^2 + 2*y - 5", spec)
    lc = f.leading_coefficient()
    value = f.evaluate_scalar({"x": 2, "y": Fraction(1, 2)})
    constant = MPoly.constant(Fraction(6, 3), spec).constant_value()
    zero = MPoly.zero(spec).constant_value()
    for scalar in (lc, value, constant, zero, *f.terms.values()):
        assert type(scalar) is FieldScalar and scalar.spec == spec
        assert type(scalar.a) is (int if scalar.a.denominator == 1 else Fraction)
    assert (lc, value, constant, zero) == (Fraction(3, 4), -1, 2, 0)
    assert type(value.a) is int and type(constant.a) is int
    theta = (1 + math.sqrt(5)) / 2 if spec.is_quadratic else None
    assert evaluate_float(f, {"x": 2.0, "y": 0.5}, theta) == pytest.approx(-1)


@pytest.mark.parametrize("spec", GROUND_FIELDS, ids=["Q", "Q(theta)"])
def test_evaluation_needs_a_value_for_every_variable(spec):
    """A variable of the polynomial that the point lacks raises
    MissingValue, also in a term whose other variable is 0 there."""
    f = parse_poly("x*y + 2*z - 1", spec)
    zero, two = FieldScalar(0, 0, spec), FieldScalar(2, 0, spec)
    for point in ({"x": zero, "y": two}, {"x": zero, "z": two}, {"y": zero, "z": zero}, {}):
        with pytest.raises(MissingValue):
            f.evaluate_scalar(point)
    assert f.evaluate_scalar({"x": zero, "y": two, "z": two, "p": two}) == 3
    if spec.is_quadratic:  # t^2 = t + 1
        t = FieldScalar.theta(spec)
        assert f.evaluate_scalar({"x": t, "y": t, "z": zero}) == FieldScalar(0, 1, spec)
        with pytest.raises(MissingValue):
            f.evaluate_scalar({"x": t, "y": zero})


def test_terms_and_rendering_agree_across_fields():
    text = "3/4*x^2*y - 2*x*y + 7/2*y - 1"
    over_q, over_theta = (parse_poly(text, spec) for spec in GROUND_FIELDS)
    y = pack((0, 1, 0, 0, 0, 0))
    assert type(over_q._ground[y]) is Fraction
    assert over_theta._ground[y] == (Fraction(7, 2), 0)
    assert type(over_theta._ground[y][1]) is int
    q_terms, theta_terms = over_q.terms, over_theta.terms
    assert {e: (c.a, c.b) for e, c in q_terms.items()} == {
        e: (c.a, c.b) for e, c in theta_terms.items()
    }
    assert {pack(e): (c.a, c.b) for e, c in theta_terms.items()} == over_theta._ground
    # uncached views over both fields
    assert over_theta.terms is not over_theta.terms
    assert over_q.terms is not over_q.terms
    assert render_poly(over_q) == render_poly(over_theta) == text
