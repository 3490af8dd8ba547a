"""Property tests (hypothesis): gcd over Q and Q(theta) against the
subresultant oracle on small random inputs."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from webflat import RATIONALS, FieldScalar, MPoly, divides, poly_gcd  # noqa: E402
from webflat.cli import parse_field  # noqa: E402

from helpers import subresultant_oracle  # noqa: E402

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
