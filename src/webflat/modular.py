"""Arithmetic modulo a prime for the modular gcd over Q and Q(theta).

Word-size primes and their square roots, rational reconstruction, and
dense polynomials over F_p: coefficient lists, lowest degree first, with
no trailing zero, [] being zero.  A polynomial in F_p[v, w] is a list of
rows, row i holding the coefficient of v^i as a dense polynomial in w;
`bivariate_gcd` takes the gcd of two of them by Brown's evaluation and
interpolation (JACM 1971).  Nothing here knows about `MPoly`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is
    deterministic far beyond 2**62."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def nth_prime(k: int) -> int:
    """The k-th prime below 2**62, largest first (k = 0, 1, ...).  Cached,
    as every gcd starts from the same primes."""
    n = (2**62 + 1 if k == 0 else nth_prime(k - 1)) - 2
    while not is_prime(n):
        n -= 2
    return n


def primes():
    """The primes below 2**62, largest first."""
    return map(nth_prime, itertools.count())


def split_primes(u: Fraction, v: Fraction):
    """Yield (p, r1, r2) for the primes p below 2**62, largest first, at
    which theta^2 = u*theta + v has two distinct roots r1, r2 mod p; primes
    dividing a denominator of u or v are skipped."""
    disc = u * u + 4 * v
    for p in primes():
        if u.denominator % p == 0 or v.denominator % p == 0:
            continue
        d = fraction_mod(disc, p)
        if d == 0 or pow(d, (p - 1) // 2, p) != 1:
            continue
        s, w, half = sqrt_mod(d, p), fraction_mod(u, p), (p + 1) // 2
        yield p, (w + s) * half % p, (w - s) * half % p


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def fraction_mod(q: Fraction, p: int) -> int:
    """The image of q in F_p; p must not divide its denominator."""
    if q.denominator == 1:
        return q.numerator % p
    return q.numerator * pow(q.denominator, -1, p) % p


def rational_reconstruction(x: int, m: int):
    """n/d with n = d*x mod m and |n|, d <= sqrt(m/2), or None."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def evaluate(a: list, x: int, p: int) -> int:
    value = 0
    for c in reversed(a):
        value = (value * x + c) % p
    return value


def multiply(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return [c % p for c in out]


def divide(a: list, b: list, p: int):
    """Quotient and remainder of a by a nonzero b."""
    rest = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quotient = [0] * max(len(a) - db, 0)
    while len(rest) > db:
        c = rest.pop() * inv % p
        if c:
            shift = len(rest) - db
            quotient[shift] = c
            for k in range(db):
                rest[shift + k] = (rest[shift + k] - c * b[k]) % p
    return trim(quotient), trim(rest)


def gcd(a: list, b: list, p: int) -> list:
    """Monic gcd; [] only when both are zero."""
    while b:
        a, b = b, divide(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def content(rows: list, p: int) -> list:
    """Monic gcd in F_p[w] of the rows."""
    acc = []
    for row in rows:
        acc = gcd(acc, row, p)
        if len(acc) == 1:
            break
    return acc


def primitive(rows: list, p: int):
    """The content of the rows and their primitive part."""
    c = content(rows, p)
    if len(c) == 1:
        return c, rows
    return c, [divide(row, c, p)[0] for row in rows]


def divides(h: list, f: list, p: int) -> bool:
    """True iff h divides f in F_p[v, w] (h nonzero)."""
    h = {(i, j): c for i, row in enumerate(h) for j, c in enumerate(row) if c}
    rest = {(i, j): c for i, row in enumerate(f) for j, c in enumerate(row) if c}
    li, lj = max(h)
    inv = pow(h[li, lj], -1, p)
    while rest:
        mi, mj = max(rest)
        si, sj = mi - li, mj - lj
        if si < 0 or sj < 0:
            return False
        c = rest[mi, mj] * inv % p
        for (i, j), d in h.items():
            k = (i + si, j + sj)
            value = (rest.get(k, 0) - c * d) % p
            if value:
                rest[k] = value
            else:
                rest.pop(k, None)
    return True


def bivariate_gcd(a: list, b: list, p: int) -> list:
    """gcd in F_p[v, w] of two polynomials of positive degree in v, up to a
    unit, by Brown's evaluation in w and interpolation.  A candidate is
    tested by trial division once a new point leaves the interpolant
    unchanged or the degree bound is reached."""
    content_a, a = primitive(a, p)
    content_b, b = primitive(b, p)
    common = gcd(content_a, content_b, p)
    # gamma(w) * gcd is a polynomial of degree at most `bound` in w
    gamma = gcd(a[-1], b[-1], p)
    bound = len(gamma) + min(max(map(len, a)), max(map(len, b))) - 2
    degree, rows, basis, x = len(a) + len(b), None, [1], 0
    while True:
        x += 1
        if not (evaluate(a[-1], x, p) and evaluate(b[-1], x, p)):
            continue
        image = gcd(
            trim([evaluate(row, x, p) for row in a]),
            trim([evaluate(row, x, p) for row in b]),
            p,
        )
        if len(image) == 1:
            return [common]
        if len(image) > degree:  # an unlucky point
            continue
        if len(image) < degree:  # every earlier point was unlucky
            degree, rows, basis = len(image), None, [1]
        scale = evaluate(gamma, x, p)
        values = [c * scale % p for c in image]
        changed = rows is None
        if changed:
            rows = [[c] for c in values]
        else:  # Newton interpolation, one point at a time
            inv = pow(evaluate(basis, x, p), -1, p)
            for i, c in enumerate(values):
                delta = (c - evaluate(rows[i], x, p)) * inv % p
                if delta:
                    changed = True
                    row = rows[i] + [0] * (len(basis) - len(rows[i]))
                    for k, d in enumerate(basis):
                        row[k] = (row[k] + delta * d) % p
                    rows[i] = row
        basis = multiply(basis, [p - x, 1], p)
        if changed and len(basis) <= bound + 1:
            continue
        _, h = primitive([trim(list(row)) for row in rows], p)
        if divides(h, a, p) and divides(h, b, p):
            return [multiply(row, common, p) for row in h]
