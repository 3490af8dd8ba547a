"""The gcd over Q and Q(theta), and arithmetic modulo a prime.

Word-size primes and their square roots, rational reconstruction, and
polynomials over F_p.  A univariate polynomial is a dense coefficient
list, lowest degree first, with no trailing zero, [] being zero.  A
polynomial in F_p[v_1, ..., v_k] is a dict from packed monomials to
nonzero residues.  `image` is the one map into it from a ground map over
Q or Q(theta), and `brown_gcd` takes the gcd of two such polynomials by
Brown's evaluation and interpolation (JACM 1971), one variable at a time
down to Euclid's algorithm.  `field_gcd` is the one gcd entry: ground maps
in, the monic gcd out as a ground map.  It shifts out the monomial
content, takes the cheap exits, and tries `certified_coprime` for two
variables: from univariate images at two fixed points modulo one prime
below 2**30, that proves most pairs left coprime.  Otherwise it picks
Euclid's variable for `_engine`, which runs `brown_gcd` over primes and
trial-divides each candidate over the field by `ground.exact_quotient`.
Each dense image is charged to `bounds` first.  Nothing here knows `MPoly`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .bounds import MAX_DENSE_CELLS, charge
from .ground import divided, element, exact_quotient, parts
from .monomials import SHIFT, UNIT, exponent_at, monomial_quotient, unit

_DENSE = "the modular gcd would build a dense image of %d cells, past the bound %d"


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
    for p in primes():
        roots = split_roots(u, v, p)
        if roots is not None:
            yield p, *roots


@functools.cache
def split_roots(u: Fraction, v: Fraction, p: int):
    """The two distinct roots of theta^2 = u*theta + v mod p, or None when
    there are none or p divides a denominator of u or v.  Cached, as every
    gcd over the same field starts from the same primes."""
    if u.denominator % p == 0 or v.denominator % p == 0:
        return None
    d = fraction_mod(u * u + 4 * v, p)
    if d == 0 or pow(d, (p - 1) // 2, p) != 1:
        return None
    s, w, half = sqrt_mod(d, p), fraction_mod(u, p), (p + 1) // 2
    return (w + s) * half % p, (w - s) * half % p


POINT_W, POINT_V = 314159265, 271828182


@functools.cache
def certificate_prime(theta=None):
    """(p, r) for `certified_coprime`: the largest prime p below 2**30 at
    which theta^2 = u*theta + v splits, theta being (u, v), and r its first
    root; over Q (theta None) the largest prime, and r None.  Its residues
    are one-digit Python ints.  Cached: every certificate over a field uses it."""
    p, roots = 2**30 + 1, None
    while roots is None:
        p -= 2
        if is_prime(p):
            roots = (None,) if theta is None else split_roots(*theta, p)
    return p, roots[0]


def powers(x: int, exponents, p: int) -> dict:
    """x**e mod p for each of the exponents, stepping up through them."""
    out, y, last = {}, 1, 0
    for e in sorted(exponents):
        y = y * pow(x, e - last, p) % p
        out[e], last = y, e
    return out


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


def image(ground: dict, r, p: int):
    """The image in F_p of a ground map: its coefficients reduced mod p, a
    rational over Q (r None), a pair (a, b) under theta -> r over Q(theta),
    zero residues left out.  None when p divides a denominator."""
    out = {}
    for m, c in ground.items():
        c, b = parts(c)
        if c.__class__ is not int:
            if not c.denominator % p:
                return None
            c = c.numerator * pow(c.denominator, -1, p)
        if b:
            if b.__class__ is not int:
                if not b.denominator % p:
                    return None
                b = b.numerator * pow(b.denominator, -1, p)
            c += b * r
        if c := c % p:
            out[m] = c
    return out


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
    """Quotient and remainder of a by a nonzero b, walking b's nonzero terms."""
    rest = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    below = [(k, c) for k, c in enumerate(b[:-1]) if c]
    quotient = [0] * max(len(a) - db, 0)
    while len(rest) > db:
        c = rest.pop() * inv % p
        if c:
            shift = len(rest) - db
            quotient[shift] = c
            for k, d in below:
                rest[shift + k] = (rest[shift + k] - c * d) % p
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


def primitive(rows: dict, p: int):
    """The content of the rows and their primitive part."""
    c = content(sorted(rows.values(), key=len), p)  # short rows soon reach 1
    if len(c) == 1:
        return c, rows
    return c, {m: divide(row, c, p)[0] for m, row in rows.items()}


def split(a: dict, s: int) -> dict:
    """A polynomial as rows in its variable w at shift s: each monomial free
    of w maps to its coefficient, a dense polynomial in w."""
    w = unit(s)
    rows = {}
    for m, c in a.items():
        j = exponent_at(m, s)
        head = m - j * w
        row = rows.get(head)
        if row is None:
            row = rows[head] = [0] * (j + 1)
        elif len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return rows


def join(rows: dict, s: int) -> dict:
    """The inverse of `split`."""
    w = unit(s)
    return {m + j * w: c for m, row in rows.items() for j, c in enumerate(row) if c}


def divides(h: dict, f: dict, p: int) -> bool:
    """True iff h divides f in F_p[v_1, ..., v_k] (h nonzero)."""
    lead = max(h)
    inv = pow(h[lead], -1, p)
    rest = dict(f)
    while rest:
        top = max(rest)
        shift = monomial_quotient(top, lead)
        if shift is None:
            return False
        c = rest[top] * inv % p
        for m, d in h.items():
            k = shift + m
            value = (rest.get(k, 0) - c * d) % p
            if value:
                rest[k] = value
            else:
                rest.pop(k, None)
    return True


def certified_coprime(f: dict, g: dict, v: int, w: int, theta=None) -> bool:
    """True when images modulo one prime prove two nonzero polynomials in
    the variables at shifts v and w, packed, coprime; False when they
    cannot.

    The prime and theta's image are `certificate_prime(theta)`; the points
    are w = a = POINT_W and v = b = POINT_V, as at small integers
    structured inputs often lose a degree or share a factor.
    f and g are coprime when every image keeps its input's degree, f(v, a)
    and g(v, a) are coprime in F_p[v], and f(b, w) and g(b, w) in F_p[w]:
    a common factor h with deg_v h >= 1 keeps its leading coefficient in v
    at w = a whenever f does (Gauss's lemma at p, as in Brown, JACM 1971),
    so it would leave a factor of positive degree in both images; likewise
    in w.  So h is constant, at any points.  Each image is a dense list,
    one entry per degree, charged before it is built; `field_gcd` takes the
    cheap exits (a constant input, no shared variable) first, as Brown's
    evaluations are dense in every variable."""
    p, r = certificate_prime(theta)
    sums = []  # f(v, a), f(b, w), g(v, a), g(b, w): exponent -> coefficient
    for ground in (f, g):
        reduced = image(ground, r, p)
        # a residue left out could hide a lost degree: such inputs go on
        if reduced is None or len(reduced) < len(ground):
            return False
        terms = [(exponent_at(m, v), exponent_at(m, w), c) for m, c in reduced.items()]
        at_a = powers(POINT_W, {j for _, j, _ in terms}, p)
        at_b = powers(POINT_V, {i for i, _, _ in terms}, p)
        in_v, in_w = {}, {}
        for i, j, c in terms:
            in_v[i] = in_v.get(i, 0) + c * at_a[j]
            in_w[j] = in_w.get(j, 0) + c * at_b[i]
        sums += in_v, in_w
    charge(max(map(max, sums)) + 1, MAX_DENSE_CELLS, _DENSE)  # the longest row
    fv, fw, gv, gw = [[row.get(e, 0) % p for e in range(max(row) + 1)] for row in sums]
    if not (fv[-1] and fw[-1] and gv[-1] and gw[-1]):  # an image lost its input's degree
        return False
    return len(gcd(fv, gv, p)) == 1 and len(gcd(fw, gw, p)) == 1


def brown_gcd(a: dict, b: dict, p: int, shifts) -> dict:
    """gcd in F_p[v_1, ..., v_k], the variables at `shifts`, of two nonzero
    polynomials in them, up to a unit.

    Euclid's algorithm when k = 1.  Otherwise Brown's evaluation of the
    last variable w at x = 1, 2, ..., a recursive gcd of the images, and
    Newton interpolation in w of the image gcds scaled to the leading
    coefficient gamma(x), where gamma(w) is the gcd of the inputs' leading
    coefficients (grlex in v_1, ..., v_(k-1)).  A candidate is tested by
    trial division once a new point leaves the interpolant unchanged or the
    degree bound in w is reached; a refused candidate takes more points."""
    *heads, s = shifts
    if not heads:
        return join({0: gcd(split(a, s)[0], split(b, s)[0], p)}, s)
    content_a, a = primitive(split(a, s), p)
    content_b, b = primitive(split(b, s), p)
    common = gcd(content_a, content_b, p)
    la, lb = max(a), max(b)
    # gamma(w) * gcd is a polynomial of degree at most `bound` in w
    gamma = gcd(a[la], b[lb], p)
    bound = len(gamma) + min(max(map(len, a.values())), max(map(len, b.values()))) - 2
    lm, rows, basis, x = None, None, [1], 0
    while True:
        x += 1
        if not (evaluate(a[la], x, p) and evaluate(b[lb], x, p)):
            continue
        image = brown_gcd(
            {m: c for m, row in a.items() if (c := evaluate(row, x, p))},
            {m: c for m, row in b.items() if (c := evaluate(row, x, p))},
            p,
            heads,
        )
        top = max(image)
        if not top:  # the primitive parts are coprime
            return join({top: common}, s)
        if lm is not None and top > lm:  # an unlucky point
            continue
        if lm is None or top < lm:  # every earlier point was unlucky
            lm, rows, basis = top, None, [1]
        scale = evaluate(gamma, x, p) * pow(image[top], -1, p) % p
        changed = rows is None
        if changed:
            rows = {m: [c * scale % p] for m, c in image.items()}
        else:  # Newton interpolation, one point at a time
            inv = pow(evaluate(basis, x, p), -1, p)
            for m in rows.keys() | image.keys():
                row = rows.get(m, [])
                delta = (image.get(m, 0) * scale - evaluate(row, x, p)) * inv % p
                if delta:
                    changed = True
                    row = row + [0] * (len(basis) - len(row))
                    for k, d in enumerate(basis):
                        row[k] = (row[k] + delta * d) % p
                    rows[m] = row
        basis = multiply(basis, [p - x, 1], p)
        if changed and len(basis) <= bound + 1:
            continue
        _, h = primitive({m: trim(list(row)) for m, row in rows.items()}, p)
        candidate = join(h, s)
        if divides(candidate, join(a, s), p) and divides(candidate, join(b, s), p):
            return join({m: multiply(row, common, p) for m, row in h.items()}, s)


# -- the modular gcd over Q and Q(theta) -------------------------------------
#
# Every gcd is taken modulo word-size primes.  When no input coefficient
# carries theta (always so over Q), theta plays no part: a prime serves when
# it divides no input denominator, and maps the inputs into
# F_p[v_1, ..., v_k] once.  When some coefficient carries theta, only primes
# that split in Q(theta) serve, in the style of Langemyr and McCallum
# (J. Symb. Comp. 1989): for such a prime p, u^2 + 4v is a nonzero square
# mod p, so theta has two images r1 != r2 in F_p, and each maps the inputs
# into F_p[v_1, ..., v_k].  There the gcd comes from Brown's dense
# evaluation and interpolation (JACM 1971, `brown_gcd`), one variable at a
# time down to univariate Euclid, and is confirmed by trial division mod p.
# Made monic at its grlex leading monomial, the images of the monic gcd
# h0 + h1*theta give h0 and h1 mod p (with no theta, the one image is h0
# and h1 = 0); the primes are combined by the Chinese remainder theorem and
# rational reconstruction.  The result is exact:
#
# * a prime is used only when it divides no denominator (of the inputs, and
#   of u or v when theta occurs) and keeps the leading monomial and the
#   degree in every variable of both inputs under every image.  By Gauss's
#   lemma at each prime above p, the monic gcd then maps to a monic divisor
#   of the image gcd with the same leading monomial.  So an image gcd whose
#   leading monomial is grlex-larger than another prime's marks an unlucky
#   prime, and a constant one proves that the gcd is 1;
# * a candidate is accepted as soon as it divides both inputs over the
#   field.  It then divides the gcd, and its leading monomial, that of an
#   image gcd, is at least the gcd's, so it is the gcd.
#
# So the loop over primes ends only with a certified candidate, and it
# always ends: only finitely many primes are unlucky, every other usable
# prime adds a correct residue of the monic gcd, and once the modulus
# passes twice the square of the largest numerator and denominator among
# the gcd's coefficients, rational reconstruction returns the gcd itself,
# which divides both inputs.  `bounds` caps the inputs' size and dense
# images; a cap on the number of primes could only turn valid gcds into errors.


def _engine(f: dict, g: dict, shifts, theta) -> dict:
    """The monic gcd of two nonzero ground maps over Q (theta None) or
    Q(theta), theta = (u, v), in the variables at `shifts` (every variable
    either one has), as a ground map of that field, by the loop over primes
    above.  Each candidate is trial-divided into both inputs over the field
    once.  `brown_gcd` runs Euclid in the first variable and evaluates the
    last one first."""
    grounds = (f, g)
    # each input's leading monomial and, for each variable, its keys at the
    # top degree in it: an image keeps that degree iff one of them survives
    kept, cells = [], 0
    for ground in grounds:
        tops, grid = [], 1
        for s in shifts:
            row = [exponent_at(m, s) for m in ground]
            top = max(row)
            tops.append([m for m, e in zip(ground, row) if e == top])
            grid *= top + 1
        kept.append((max(ground), tops))
        cells = max(cells, grid)
    charge(cells, MAX_DENSE_CELLS, _DENSE)  # the grid Brown's evaluations fill
    if theta is not None and any(parts(c)[1] for ground in grounds for c in ground.values()):
        usable = split_primes(*theta)
    else:  # one image per prime, with theta (if any) sent to 0
        r = None if theta is None else 0
        usable = ((p, r) for p in primes())

    best = math.inf  # leading monomial of the images kept, none yet
    modulus, residues, tested = 1, {}, None
    for p, *roots in usable:
        images = [[image(ground, r, p) for ground in grounds] for r in roots]
        if not all(h is not None and lm in h and all(any(m in h for m in ms) for ms in tops)
                   for pair in images for h, (lm, tops) in zip(pair, kept)):
            continue
        gcds = []
        for fr, gr in images:
            h = brown_gcd(fr, gr, p, shifts)
            lm = max(h)
            if not lm:
                return {0: element(1, 0, theta)}
            inv = pow(h[lm], -1, p)
            gcds.append((lm, {e: c * inv % p for e, c in h.items()}))
        lm = gcds[0][0]
        if any(other != lm for other, _ in gcds) or lm > best:
            continue
        if lm < best:
            best, modulus, residues = lm, 1, {}
        # (h0, h1) mod p, monomial by monomial, from the images at the roots
        if len(roots) == 1:
            mod_p = {e: (c, 0) for e, c in gcds[0][1].items()}
        else:  # h0 + h1*r at each of the two roots r
            (_, h1), (_, h2), (r1, r2) = *gcds, roots
            inv, mod_p = pow(r1 - r2, -1, p), {}
            for e in h1.keys() | h2.keys():
                b = (h1.get(e, 0) - h2.get(e, 0)) * inv % p
                mod_p[e] = ((h1.get(e, 0) - b * r1) % p, b)
        # Chinese remaindering mod modulus * p (an absent monomial is (0, 0))
        inv = pow(modulus, -1, p)
        residues = {
            e: tuple(x + modulus * ((y - x) * inv % p)
                     for x, y in zip(residues.get(e, (0, 0)), mod_p.get(e, (0, 0))))
            for e in residues.keys() | mod_p.keys()
        }
        modulus *= p
        candidate = {}
        for e, pair in residues.items():
            a, b = (rational_reconstruction(x, modulus) for x in pair)
            if a is None or b is None:
                break
            if a or b:
                candidate[e] = element(a, b, theta)
        else:  # every residue reconstructed
            if candidate != tested and all(
                    exact_quotient(h, candidate, theta) is not None for h in grounds):
                return candidate
            tested = candidate


def monomial_content(monomials) -> int:
    """The gcd of packed monomials, packed.  Only the fields of the
    variables of one monomial are read: any other field has minimum 0."""
    if 0 in monomials:
        return 0
    first = next(iter(monomials))
    return sum(min([exponent_at(m, s) for m in monomials]) * u
               for s, u in zip(SHIFT, UNIT) if exponent_at(first, s))


def shifted(f: dict, shift: int) -> dict:
    """The ground map f with every key moved by the packed monomial shift,
    f times it, or f divided by it when negative and dividing every term."""
    return {m + shift: c for m, c in f.items()} if shift else f


def variables(f: dict) -> list:
    """The shifts of the variables a ground map has, in layout order."""
    present = 0
    for m in f:
        present |= m
    return [s for s in SHIFT if exponent_at(present, s)]


def field_gcd(f: dict, g: dict, theta) -> dict:
    """The monic gcd of two nonzero ground maps over Q (theta None) or
    Q(theta), theta = (u, v), as a ground map of that field: the one gcd
    entry, which makes every decision.  The monomial content goes out
    first and back on as a key shift.  A constant input, no shared
    variable or an equal pair answers at once.  Most pairs left in two
    variables are coprime, so `certified_coprime` tries that first, as
    its images are no denser than the engine's evaluations.  Otherwise
    `_engine` runs Euclid in the shared variable in the most terms."""
    shift_f, shift_g = monomial_content(f), monomial_content(g)
    shift = monomial_content((shift_f, shift_g))
    mono = {shift: element(1, 0, theta)}
    f, g = shifted(f, -shift_f), shifted(g, -shift_g)
    if len(f) == 1 or len(g) == 1:  # a constant, once its content is out
        return mono
    in_f, in_g = variables(f), variables(g)
    shared = [s for s in in_f if s in in_g]
    if not shared:
        return mono
    if f == g:
        return shifted(divided(f, f[max(f)], theta), shift)
    names = [s for s in SHIFT if s in in_f or s in in_g]
    if len(names) == 2 and certified_coprime(f, g, *names, theta):
        return mono

    def frequency(s):
        return sum(1 for m in (*f, *g) if exponent_at(m, s))

    first = max(shared, key=frequency)
    return shifted(_engine(f, g, [first, *(s for s in names if s != first)], theta), shift)
