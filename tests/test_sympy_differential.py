"""Differential tests against sympy, run only where sympy is installed.

On a few seeded inputs over Q, `cubic_resultant`, `poly_gcd` (in two and
three variables) and `web_curvature` must agree with sympy's `resultant`,
`gcd` and `cancel`.
The curvature side is computed by sympy alone, from the determinant
algorithm's 5x5 determinants.  sympy is never a dependency of webflat.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from webflat import CubicWebEquation, MPoly, cubic_resultant, poly_gcd, web_curvature  # noqa: E402
from webflat.cli import parse_poly  # noqa: E402
from webflat.poly import render_poly  # noqa: E402

from helpers import random_poly_td  # noqa: E402

# s first: sympy's resultant eliminates a ring's first generator
RING, S, X, Y = ring("s, x, y", QQ)
RING3 = ring("x, y, z", QQ)[0]
SEEDS = (1, 2, 3, 4, 5)


def _sympy(f: MPoly, ring=RING):
    return ring.from_expr(sympy.sympify(render_poly(f).replace("^", "**")))


def _random_coefficients(rng):
    while True:
        coeffs = [random_poly_td(rng, ("x", "y"), 2, 2) for _ in range(4)]
        if not coeffs[0].is_zero() and not cubic_resultant(*coeffs).is_zero():
            return coeffs


def _slope_resultant(a0, a1, a2, a3):
    """Res(f, df/ds), brought back from sympy's ring without s."""
    f = a0 * S**3 + a1 * S**2 + a2 * S + a3
    return RING.from_expr(f.resultant(f.diff(S)).as_expr())


def _det(rows):
    return DomainMatrix([[RING(e) for e in row] for row in rows], (5, 5), RING.to_domain()).det()


def _sympy_curvature(a0, a1, a2, a3):
    """du(alpha2 / R) + dv(alpha1 / R) in (u, v) = (x, y), reduced by sympy."""
    big_r = _slope_resultant(a0, a1, a2, a3)
    row = [
        a0.diff(Y), a0.diff(X) + a1.diff(Y), a1.diff(X) + a2.diff(Y), a2.diff(X) + a3.diff(Y),
        a3.diff(X),
    ]
    tail = [[-a0, 0, a2, 2 * a3, 0], [0, -2 * a0, -a1, 0, a3], [0, 0, -3 * a0, -2 * a1, -a2]]
    alpha1 = _det([row, [a0, a1, a2, a3, 0]] + tail)
    alpha2 = _det([row, [0, a0, a1, a2, a3]] + tail)
    numerator = (
        (alpha2.diff(X) + alpha1.diff(Y)) * big_r - alpha2 * big_r.diff(X) - alpha1 * big_r.diff(Y)
    )
    return numerator.cancel(big_r**2)


@pytest.mark.parametrize("seed", SEEDS)
def test_resultant_gcd_and_curvature_match_sympy(seed):
    rng = random.Random(seed)
    coeffs = _random_coefficients(rng)
    a0, a1, a2, a3 = (_sympy(c) for c in coeffs)
    assert _sympy(cubic_resultant(*coeffs)) == _slope_resultant(a0, a1, a2, a3)

    h, g1, g2 = (random_poly_td(rng, ("x", "y"), 2, 3, nonzero=True) for _ in range(3))
    ours = poly_gcd(h * g1, h * g2)
    assert _sympy(ours) == _sympy(h * g1).gcd(_sympy(h * g2)) * _sympy(ours).LC

    coeff = web_curvature(CubicWebEquation("p", ("x", "y"), *coeffs)).coeff
    num, den = _sympy_curvature(a0, a1, a2, a3)
    # both sides reduced: equal up to one constant factor
    scale = _sympy(coeff.den).LC / den.LC
    assert (_sympy(coeff.num), _sympy(coeff.den)) == (num * scale, den * scale)


@pytest.mark.parametrize("seed", SEEDS)
def test_three_variable_gcd_matches_sympy(seed):
    """The factor x + y*z + 1 keeps all three variables in both inputs."""
    rng = random.Random(100 + seed)
    h, g1, g2 = (random_poly_td(rng, ("x", "y", "z"), 2, 3, nonzero=True) for _ in range(3))
    h = h * parse_poly("x + y*z + 1")
    ours = poly_gcd(h * g1, h * g2)
    theirs = _sympy(h * g1, RING3).gcd(_sympy(h * g2, RING3))
    assert _sympy(ours, RING3) == theirs * _sympy(ours, RING3).LC
