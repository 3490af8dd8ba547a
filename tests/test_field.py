"""Field scalar arithmetic over the rationals and quadratic extensions."""

import pickle
import random
from fractions import Fraction

import pytest

from webflat import (
    RATIONALS,
    FieldScalar,
    FieldSpec,
    MPoly,
    field_sqrt,
    quadratic_field,
    render_poly,
)
from webflat.cli import parse_poly
from webflat.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    NotQuadratic,
    ReadOnlyAttribute,
    WebflatError,
)
from webflat.poly import pack
from webflat.singular import field_roots

from helpers import random_scalar

EISENSTEIN = quadratic_field(1, -1)  # t^2 = t - 1
ROOT2 = quadratic_field(0, 2)  # t^2 = 2


def theta(spec=EISENSTEIN):
    return FieldScalar.theta(spec)


def test_half_plus_theta_squared():
    # (1/2 + t)^2 = 1/4 + t + t^2 = 1/4 + t + (t - 1) = -3/4 + 2t
    x = FieldScalar(Fraction(1, 2), 1, EISENSTEIN)
    assert x * x == FieldScalar(Fraction(-3, 4), 2, EISENSTEIN)


def test_inverse_contract():
    x = FieldScalar(3, 2, EISENSTEIN)
    assert x * x.inverse() == FieldScalar(1, 0, EISENSTEIN)
    assert x / x == FieldScalar(1, 0, EISENSTEIN)


def test_rational_addition():
    assert FieldScalar(Fraction(1, 3)) + FieldScalar(Fraction(1, 6)) == FieldScalar(
        Fraction(1, 2)
    )


def test_division_by_zero():
    zero = FieldScalar(0, 0, EISENSTEIN)
    with pytest.raises(DivisionByZero):
        theta() / zero
    with pytest.raises(DivisionByZero):
        zero.inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        theta(EISENSTEIN) + theta(ROOT2)


def test_conjugate_of_theta():
    # roots of t^2 - t + 1 sum to 1
    assert theta().conjugate() == FieldScalar(1, -1, EISENSTEIN)
    assert theta().conjugate() == FieldScalar(1, 0, EISENSTEIN) - theta()


def test_conjugate_fixes_rationals():
    five = FieldScalar(5, 0, EISENSTEIN)
    assert five.conjugate() == five


def test_conjugate_involution():
    x = FieldScalar(Fraction(2, 3), Fraction(-5, 7), EISENSTEIN)
    assert x.conjugate().conjugate() == x


def test_conjugate_requires_quadratic():
    with pytest.raises(NotQuadratic):
        FieldScalar(1).conjugate()


def test_reducible_spec_rejected():
    # t^2 = 1 and t^2 = t + 6 both split over the rationals
    with pytest.raises(ValueError):
        FieldSpec("quadratic", 0, 1)
    with pytest.raises(ValueError):
        quadratic_field(1, 6)


def test_field_spec_equality_hash_and_repr():
    for u, v in ((1, -1), (Fraction(1, 3), Fraction(5, 2)), (0, 2)):
        ints = FieldSpec("quadratic", u, v)
        fractions = FieldSpec("quadratic", Fraction(u), Fraction(v))
        assert ints == fractions and hash(ints) == hash(fractions)
        assert ints == quadratic_field(u, v) and ints != RATIONALS
        assert repr(ints) == "FieldSpec(kind='quadratic', u=%r, v=%r)" % (ints.u, ints.v)
        assert pickle.loads(pickle.dumps(ints)) == ints
    assert FieldSpec("rationals") == RATIONALS and hash(FieldSpec("rationals")) == hash(RATIONALS)
    assert repr(RATIONALS) == "FieldSpec(kind='rationals', u=None, v=None)"
    assert RATIONALS != ("rationals", None, None)
    assert len({FieldSpec("quadratic", 1, -1), EISENSTEIN, RATIONALS, ROOT2}) == 3


def test_field_spec_validation():
    for bad in (("cubic", 1, 1), ("rationals", 0, 1), ("quadratic", 0, 1), ("quadratic", 1, 6)):
        with pytest.raises(InvalidField):
            FieldSpec(*bad)


def test_field_spec_is_read_only():
    spec = quadratic_field(1, -1)
    for name, value in (("u", 2), ("kind", "rationals"), ("extra", 0)):
        with pytest.raises(ReadOnlyAttribute) as raised:
            setattr(spec, name, value)
        assert isinstance(raised.value, AttributeError) and isinstance(raised.value, WebflatError)
    with pytest.raises(ReadOnlyAttribute):
        del spec.v
    assert (spec.kind, spec.u, spec.v) == ("quadratic", 1, -1)


def test_theta_satisfies_minimal_polynomial():
    t = theta()
    assert t * t == t - FieldScalar(1, 0, EISENSTEIN)


def test_field_axioms_500_random_triples():
    rng = random.Random(20260811)
    one = FieldScalar(1, 0, EISENSTEIN)
    for _ in range(500):
        a = random_scalar(rng, EISENSTEIN, quadratic=True)
        b = random_scalar(rng, EISENSTEIN, quadratic=True)
        c = random_scalar(rng, EISENSTEIN, quadratic=True)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == one
        assert a + (-a) == FieldScalar(0, 0, EISENSTEIN)


def test_conjugate_is_automorphism():
    rng = random.Random(4177)
    for _ in range(200):
        a = random_scalar(rng, EISENSTEIN, quadratic=True)
        b = random_scalar(rng, EISENSTEIN, quadratic=True)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_norm_multiplicative():
    rng = random.Random(90125)
    for _ in range(200):
        a = random_scalar(rng, EISENSTEIN, quadratic=True)
        b = random_scalar(rng, EISENSTEIN, quadratic=True)
        assert (a * b).norm_value() == a.norm_value() * b.norm_value()


def test_norm_matches_conjugate_product():
    x = FieldScalar(Fraction(3, 2), Fraction(-1, 3), EISENSTEIN)
    product = x * x.conjugate()
    assert product.is_rational()
    assert product.a == x.norm_value()


def test_field_sqrt_rational():
    assert field_sqrt(FieldScalar(Fraction(9, 4))) == FieldScalar(Fraction(3, 2))
    assert field_sqrt(FieldScalar(2)) is None
    assert field_sqrt(FieldScalar(-1)) is None


def test_field_sqrt_quadratic():
    # (1 + t)^2 = 1 + 2t + t^2 = 2t + t   ... = t^2 + 2t + 1 = 3t
    t = theta()
    one = FieldScalar(1, 0, EISENSTEIN)
    square = (one + t) * (one + t)
    root = field_sqrt(square)
    assert root is not None and root * root == square
    # 2 is not a square in Q(theta) for theta^2 = theta - 1
    assert field_sqrt(FieldScalar(2, 0, EISENSTEIN)) is None
    # but 2 is a square in Q(sqrt 2)
    root2 = field_sqrt(FieldScalar(2, 0, ROOT2))
    assert root2 is not None and root2 * root2 == FieldScalar(2, 0, ROOT2)


def test_scalar_rendering_round_trip_forms():
    assert str(FieldScalar(Fraction(-1, 2))) == "-1/2"
    assert str(theta()) == "t"
    assert str(FieldScalar(0, -1, EISENSTEIN)) == "-t"
    assert str(FieldScalar(Fraction(1, 2), 3, EISENSTEIN)) == "1/2 + 3*t"
    assert str(FieldScalar(Fraction(1, 2), -3, EISENSTEIN)) == "1/2 - 3*t"
    # integral components are ints, rendered as before
    assert str(FieldScalar(2)) == "2" and str(FieldScalar(Fraction(4, 2))) == "2"
    assert str(FieldScalar(2, -3, EISENSTEIN)) == "2 - 3*t"
    assert str(FieldScalar(0, 2, EISENSTEIN)) == "2*t"
    assert str(parse_poly("2*x^2*y - 1/2*x + 3")) == "2*x^2*y - 1/2*x + 3"
    assert str(parse_poly("(1 + 2*t)*x - 3", EISENSTEIN)) == "(1 + 2*t)*x - 3"


# -- representation: integral components are ints ------------------------------

GOLDEN_RATIO = quadratic_field(1, 1)  # t^2 = t + 1


def _assert_normal(x):
    """Each component is an int when integral, a Fraction otherwise, never
    a float."""
    for c in (x.a, x.b):
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (Fraction(c).denominator == 1)


def _unnormalised(a, b, spec):
    """A scalar holding its components exactly as given."""
    scalar = object.__new__(FieldScalar)
    scalar.a, scalar.b, scalar.spec = a, b, spec
    return scalar


def test_integral_components_are_ints():
    x = FieldScalar(Fraction(6, 3), Fraction(3), GOLDEN_RATIO)
    assert (type(x.a), type(x.b)) == (int, int) and (x.a, x.b) == (2, 3)
    assert type(FieldScalar(2.0).a) is int
    assert type(FieldScalar(Fraction(1, 2)).a) is Fraction
    fast = FieldScalar._fast(Fraction(6, 3), Fraction(1, 2), GOLDEN_RATIO)
    assert type(fast.a) is int and type(fast.b) is Fraction
    half = FieldScalar(Fraction(1, 2), Fraction(1, 2), GOLDEN_RATIO)
    for value in (half + half, half * 2, (half + half) - half - half, -(half * 4)):
        assert (type(value.a), type(value.b)) == (int, int)
    spec = FieldSpec("quadratic", Fraction(2, 2), 1.0)
    assert (type(spec.u), type(spec.v)) == (int, int)
    third = quadratic_field(Fraction(1, 3), Fraction(5, 2))
    assert (type(third.u), type(third.v)) == (Fraction, Fraction)


def test_components_normal_after_every_operation():
    rng = random.Random(1979)
    for spec in (GOLDEN_RATIO, EISENSTEIN, quadratic_field(Fraction(1, 3), Fraction(5, 2))):
        for _ in range(200):
            a = random_scalar(rng, spec, quadratic=True)
            b = random_scalar(rng, spec, quadratic=True)
            values = [a + b, a - b, a * b, -a, a ** 3, a + 1, 2 - a, a * Fraction(3, 2)]
            values += [a.conjugate(), a ** 0, a ** 5]
            assert a ** 0 == 1 and a ** 3 == a * a * a and a ** 5 == a ** 3 * a * a
            if not b.is_zero():
                values += [a / b, b.inverse(), b ** -2, 1 / b, b ** -1]
                assert b ** -2 * b * b == 1 and b ** -1 == b.inverse()
            for value in values:
                _assert_normal(value)


def test_inverse_and_sqrt_of_integers_never_float():
    for n in (2, 3, -7):
        inverse = FieldScalar(n).inverse()
        assert inverse.a == Fraction(1, n) and type(inverse.a) is Fraction
    # (1 + t)(2 - t) = 2 + t - t^2 = 1 under t^2 = t + 1
    unit = FieldScalar(1, 1, GOLDEN_RATIO)
    assert unit.inverse() == FieldScalar(2, -1, GOLDEN_RATIO)
    _assert_normal(unit.inverse())
    _assert_normal(FieldScalar(3, 0, GOLDEN_RATIO).inverse())
    roots = [
        field_sqrt(FieldScalar(4)),
        field_sqrt(FieldScalar(9, 0, GOLDEN_RATIO)),
        field_sqrt(FieldScalar(2, 0, ROOT2)),
        field_sqrt(FieldScalar(8, 0, ROOT2)),
        field_sqrt(FieldScalar(0, 3, EISENSTEIN)),  # (1 + t)^2 = 3t
        field_sqrt(FieldScalar(2, 3, GOLDEN_RATIO)),  # (1 + t)^2 = 2 + 3t
    ]
    assert field_sqrt(FieldScalar(2, 0, GOLDEN_RATIO)) is None
    for root in roots:
        assert root is not None
        _assert_normal(root)


def test_field_roots_of_integer_polynomial_never_float():
    spec = GOLDEN_RATIO
    # (2s - 1)(s - 3)(s^2 - s - 1): roots 1/2, 3, t and 1 - t
    coeffs = [FieldScalar(c, 0, spec) for c in (-3, 4, 8, -9, 2)]
    roots, unsplit = field_roots(coeffs)
    assert unsplit is None
    assert roots == sorted(
        [
            FieldScalar(Fraction(1, 2), 0, spec),
            FieldScalar(3, 0, spec),
            FieldScalar(0, 1, spec),
            FieldScalar(1, -1, spec),
        ],
        key=lambda r: (r.a, r.b),
    )
    for root in roots:
        _assert_normal(root)


def test_mixed_int_and_fraction_components_compare_and_hash_equal():
    for spec, a, b in ((RATIONALS, 2, 0), (GOLDEN_RATIO, 2, -3), (GOLDEN_RATIO, 0, 1)):
        ints = FieldScalar(a, b, spec)
        fractions = _unnormalised(Fraction(a), Fraction(b), spec)
        assert ints == fractions and hash(ints) == hash(fractions)
        assert str(ints) == str(fractions)
        # ground maps: over Q a bare 2 against Fraction(2), over Q(theta) the
        # pair (2, -3) or (0, 1) against its Fraction components
        ground = (lambda c: (c.a, c.b)) if spec.is_quadratic else (lambda c: c.a)
        exponent = pack((1, 2, 0, 0, 0, 0))
        half = ground(FieldScalar(Fraction(1, 2), 0, spec))
        left = MPoly._raw({exponent: ground(ints), pack((0,) * 6): half}, spec)
        right = MPoly._raw({exponent: ground(fractions), pack((0,) * 6): half}, spec)
        first = (lambda c: c[0]) if spec.is_quadratic else (lambda c: c)
        assert type(first(left._ground[exponent])) is int
        assert type(first(right._ground[exponent])) is Fraction
        assert left == right and hash(left) == hash(right)
        assert render_poly(left) == render_poly(right)


def test_input_validation_follows_fraction():
    for value in (3, Fraction(1, 3), 0.5, "2/4", "7", True):
        assert FieldScalar(value).a == Fraction(value)
    for value in ("x", float("nan"), float("inf"), None, 1j):
        with pytest.raises(Exception) as expected:
            Fraction(value)
        with pytest.raises(expected.type):
            FieldScalar(value)
