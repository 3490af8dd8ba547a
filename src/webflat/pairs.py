"""Elements and ground maps over Q(theta) as pairs of rationals.

An element a + b*theta of Q(theta), theta^2 = u*theta + v, is the tuple
(a, b).  Each component is an `int` when integral and a `Fraction`
otherwise, as over Q.  The element algebra (`product`, `norm`, `inverse`,
`power`) is the one `FieldScalar` computes through.  A ground map takes
packed exponent vectors to nonzero pairs: one int per monomial, laid out in
`monomials`, so that the sum of two is their product and int order is grlex
order.  Every loop here reduces theta^2 inline and normalises components as
it stores them, so no `FieldScalar` is built per term.  Ground maps are
multiplied in `sum_of_products` alone: `divided` multiplies by the
conjugate through it, and `poly` scales, substitutes and trial-divides
through it.  Nothing here knows about `MPoly` or `FieldScalar`.
"""

from __future__ import annotations

from fractions import Fraction


def normal(c):
    """A rational with an integral Fraction stored as its int."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def quotient(c, n: int, d: int):
    """c * n / d for a rational c and ints n, d != 0, normalised."""
    q = Fraction(c * n, d) if c.__class__ is int else Fraction(c.numerator * n, c.denominator * d)
    return q.numerator if q.denominator == 1 else q


def product(c: tuple, d: tuple, u, v) -> tuple:
    """The product of two nonzero pairs."""
    (a1, b1), (a2, b2) = c, d
    bw = b1 * b2
    return normal(a1 * a2 + bw * v), normal(a1 * b2 + b1 * a2 + bw * u)


def norm(c: tuple, u, v):
    """The rational norm c * conj(c) = a^2 + a*b*u - b^2*v of c = (a, b)."""
    a, b = c
    return a * a + a * b * u - b * b * v


def inverse(c: tuple, u, v) -> tuple:
    """1 / c for a nonzero pair c = (a, b): the conjugate (a + b*u) - b*theta
    over the norm, which is nonzero since the minimal polynomial is
    irreducible."""
    a, b = c
    if not b:
        return normal(Fraction(1, a)), 0
    n = norm(c, u, v)
    return normal(Fraction(a + b * u) / n), normal(Fraction(-b) / n)


def power(c: tuple, n: int, u, v) -> tuple:
    """The nonzero pair c to the power n >= 1, by squaring."""
    if n == 1:
        return c
    half = power(c, n >> 1, u, v)
    square = product(half, half, u, v)
    return product(square, c, u, v) if n & 1 else square


def add(out: dict, g: dict, sign: int = 1) -> dict:
    """Add sign * g into out, sign 1 or -1, and return out."""
    for e, c in g.items():
        have = out.get(e)
        if have is None:
            out[e] = c if sign == 1 else (-c[0], -c[1])
        else:
            a = have[0] + sign * c[0]
            b = have[1] + sign * c[1]
            if a or b:
                out[e] = (normal(a), normal(b))
            else:
                del out[e]
    return out


def sum_of_products(terms, u, v) -> dict:
    """The sum of k * f * g over the (k, f, g) triples, k a nonzero int, f
    and g nonzero ground maps.  Each exponent collects its rational part,
    theta part and theta^2 part over every product; theta^2 = u*theta + v
    is reduced once per exponent, and components are normalised once."""
    acc = {}
    get = acc.get
    for k, f, g in terms:
        if len(f) > len(g):  # the shorter operand on the outside
            f, g = g, f
        for e1, (a1, b1) in f.items():
            if k != 1:
                a1, b1 = k * a1, k * b1
            for e2, (a2, b2) in g.items():
                have = get(e := e1 + e2)
                if b1:
                    if have is None:
                        acc[e] = [a1 * a2, a1 * b2 + b1 * a2, b1 * b2]
                    else:
                        have[0] += a1 * a2
                        have[1] += a1 * b2 + b1 * a2
                        have[2] += b1 * b2
                elif have is None:
                    acc[e] = [a1 * a2, a1 * b2, 0]
                else:
                    have[0] += a1 * a2
                    have[1] += a1 * b2
    out = {}
    for e, (a, b, w) in acc.items():
        if w:
            a += w * v
            b += w * u
        if a or b:
            if a.__class__ is Fraction and a.denominator == 1:
                a = a.numerator
            if b.__class__ is Fraction and b.denominator == 1:
                b = b.numerator
            out[e] = (a, b)
    return out


def divided(f: dict, s: tuple, u, v) -> dict:
    """f divided by the nonzero pair s.  An irrational s = a + b*theta
    multiplies every term by its conjugate (a + b*u) - b*theta, then each
    component is divided once by the rational norm a^2 + a*b*u - b^2*v."""
    c, d = s
    if d:
        f = sum_of_products([(1, f, {0: (c + d * u, -d)})], u, v)
        c = norm(s, u, v)
    n, m = c.denominator, c.numerator  # dividing by c multiplies by n / m
    return {e: (quotient(a, n, m), b and quotient(b, n, m)) for e, (a, b) in f.items()}

