"""Ground elements and ground maps over Q and Q(theta): the coefficient
format, read and built in this module alone.

A ground element over Q is a rational, an `int` when integral and a
`Fraction` otherwise; over Q(theta), theta^2 = u*theta + v, a + b*theta is
the pair (a, b) of two such rationals.  A ground map takes packed exponent
vectors (laid out in `monomials`) to nonzero ground elements.  Every
function takes `theta`: None over Q, (u, v) over Q(theta).  `element`
builds an element, `parts` reads one back as (a, b), and `ONES` holds the
1 of either field.  Each arithmetic entry keeps its Q loop next to its
Q(theta) twin, which reduces theta^2 inline, so no `FieldScalar` is built
per term.  Ground maps are multiplied in `sum_of_products` alone, and one
is divided by another in `exact_quotient` alone.  Nothing here knows
about `MPoly` or `FieldScalar`.
"""

from __future__ import annotations

from fractions import Fraction

from .monomials import monomial_quotient

ONES = (1, (1, 0))  # the element 1 over Q and over Q(theta)


def normal(c):
    """A rational with an integral Fraction stored as its int."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def quotient(c, n: int, d: int):
    """c * n / d for a rational c and ints n, d != 0, normalised."""
    q = Fraction(c * n, d) if c.__class__ is int else Fraction(c.numerator * n, c.denominator * d)
    return q.numerator if q.denominator == 1 else q


def element(a, b, theta):
    """The element a + b*theta of two rationals, b = 0 over Q, normalised."""
    return normal(a) if theta is None else (normal(a), normal(b))


def parts(c) -> tuple:
    """(a, b) with c = a + b*theta, for an element of either field."""
    return c if c.__class__ is tuple else (c, 0)


def product(c, d, theta):
    """The product of two elements."""
    if theta is None:
        return normal(c * d)
    (a1, b1), (a2, b2), (u, v) = c, d, theta
    bw = b1 * b2
    return normal(a1 * a2 + bw * v), normal(a1 * b2 + b1 * a2 + bw * u)


def norm(c: tuple, theta):
    """The rational norm c * conj(c) = a^2 + a*b*u - b^2*v of an element
    c = (a, b) of Q(theta)."""
    (a, b), (u, v) = c, theta
    return a * a + a * b * u - b * b * v


def power(c, n: int, theta):
    """The nonzero element c to the power n >= 1; over Q(theta) by squaring."""
    if theta is None:
        return c**n
    if n == 1:
        return c
    half = power(c, n >> 1, theta)
    square = product(half, half, theta)
    return product(square, c, theta) if n & 1 else square


def scaled(terms, theta) -> dict:
    """The ground map summing k*c at m over (m, k, c) triples, k a nonzero
    int, c a nonzero element and m repeated or not; normalised once."""
    acc = {}
    if theta is None:
        for m, k, c in terms:
            acc[m] = k * c + acc[m] if m in acc else k * c
        return {m: normal(c) for m, c in acc.items() if c}
    for m, k, (a, b) in terms:
        a, b = k * a, k * b
        acc[m] = (a + acc[m][0], b + acc[m][1]) if m in acc else (a, b)
    return {m: (normal(a), normal(b)) for m, (a, b) in acc.items() if a or b}


def add(out: dict, g: dict, sign: int, theta) -> dict:
    """Add sign * g into the ground map out, sign 1 or -1, and return out."""
    if theta is None:
        for e, c in g.items():
            have = out.get(e)
            if have is None:
                out[e] = c if sign == 1 else -c
            elif t := have + c if sign == 1 else have - c:
                out[e] = normal(t)
            else:
                del out[e]
        return out
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


def sum_of_products(terms, theta) -> dict:
    """The sum of k * f * g over the (k, f, g) triples, k a nonzero int, f
    and g nonzero ground maps, normalised once.  Over Q(theta) each
    exponent collects its rational part, theta part and theta^2 part over
    every product, and theta^2 = u*theta + v is reduced once per exponent."""
    acc = {}
    get = acc.get
    if theta is None:
        for k, f, g in terms:
            if len(f) > len(g):  # the shorter operand on the outside
                f, g = g, f
            for e1, c1 in f.items():
                if k != 1:
                    c1 = k * c1
                for e2, c2 in g.items():
                    have = get(e := e1 + e2)
                    acc[e] = c1 * c2 if have is None else have + c1 * c2
        return {e: c if c.__class__ is int else normal(c) for e, c in acc.items() if c}
    for k, f, g in terms:
        if len(f) > len(g):
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
    u, v = theta
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


def divided(f: dict, s, theta) -> dict:
    """The ground map f divided by the nonzero element s, f itself when s
    is 1.  Over Q(theta) an irrational s = a + b*theta multiplies every term
    by its conjugate (a + b*u) - b*theta, then each component is divided
    once by the rational norm a^2 + a*b*u - b^2*v, which is nonzero since
    the minimal polynomial is irreducible."""
    if s in ONES:
        return f
    if theta is None:
        n, d = s.denominator, s.numerator  # dividing by s multiplies by n / d
        return {e: quotient(c, n, d) for e, c in f.items()}
    c, d = s
    if d:
        f = sum_of_products([(1, f, {0: (c + d * theta[0], -d)})], theta)
        c = norm(s, theta)
    n, m = c.denominator, c.numerator
    return {e: (quotient(a, n, m), b and quotient(b, n, m)) for e, (a, b) in f.items()}


def exact_quotient(f: dict, g: dict, theta):
    """f / g for ground maps f and g, g nonzero, when the division is exact,
    else None.  A one-term divisor costs one guarded subtraction a term; a
    longer one runs trial division from the leading key, the `max` of the
    remainder: each quotient term times g comes off the remainder."""
    if len(g) == 1:
        [(m, lc)] = g.items()
        quotient = {}
        for e, c in f.items():
            d = monomial_quotient(e, m)
            if d is None:
                return None
            quotient[d] = c
        return divided(quotient, lc, theta)
    lm = max(g)
    lc, quotient, rest = g[lm], {}, dict(f)
    while rest:
        top = max(rest)
        q = monomial_quotient(top, lm)
        if q is None:
            return None
        step = divided({q: rest[top]}, lc, theta)
        quotient.update(step)
        add(rest, sum_of_products([(1, step, g)], theta), -1, theta)
    return quotient
