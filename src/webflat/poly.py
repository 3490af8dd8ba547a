"""Sparse multivariate polynomials over an exact coefficient field.

Representation
--------------
A polynomial is a map, its ground map, from exponent vectors to nonzero
ground elements: over Q a bare `int` when integral and a `Fraction`
otherwise, over Q(theta) a pair (a, b) for a + b*theta with components of
the same kind.  Each kernel tests the field once per call; the pair loops
live in `pairs`.  No inverse is ever a float.  `FieldScalar` stays the
public coefficient type: values enter through `_as_coefficient`, and
`terms`, `leading_coefficient`, `constant_value`, `evaluate_scalar` and
the text of an irrational coefficient leave as `FieldScalar`s.  The
variable tuple is fixed once and for all:

    (x, y, z, p, q, t)

so an exponent vector is a 6-tuple of nonnegative ints and the zero
polynomial is the empty map.  Identical polynomials always have identical
ground maps, which makes equality, hashing and rendering trivial.

The monomial order used everywhere (leading coefficients, gcd
normalization, rendering) is graded lexicographic with x > y > z > p > q > t.

Algorithms
----------
* gcd: monomial content is pulled out first.  Then one modular gcd in
  any number of variables, over Q and Q(theta) alike: Brown's recursive
  evaluation and interpolation mod p, with univariate Euclid in the shared
  variable appearing in the most terms, at primes that split in Q(theta)
  when a coefficient carries theta; Chinese remaindering and rational
  reconstruction; confirmed by trial division.  The tests keep the
  subresultant remainder sequence as its oracle.
* determinant: the one determinant the package takes, the 3x3 of the
  inflection divisor, in closed form along its first row; the tests keep
  plain cofactor expansion as its oracle.
* `cubic_resultant` is Res(f, f') = -a0 * `cubic_discriminant` of the
  slope cubic f, in closed form; the tests pin it, sign included, against
  the 5x5 Sylvester determinant.

Everything is immutable and pure.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

from .errors import (
    BadEmbedding,
    DegreeExceeded,
    DivisionByZero,
    FieldMismatch,
    ZeroPolynomial,
)
from . import modular, pairs
from .field import RATIONALS, FieldScalar, FieldSpec, _component
from .pairs import normal as _normal

VARIABLES = ("x", "y", "z", "p", "q", "t")
NVARS = len(VARIABLES)
VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXP = (0,) * NVARS
_ONES = (1, (1, 0))  # the ground element 1 over Q and over Q(theta)


def _grlex_key(exponent):
    return (sum(exponent), exponent)


def _as_coefficient(value, spec: FieldSpec):
    """A coefficient (FieldScalar, int, Fraction, or what Fraction accepts)
    as a ground element of spec; zero is 0 over either field."""
    if isinstance(value, FieldScalar):
        if value.spec is not spec and value.spec != spec:
            raise FieldMismatch("coefficient from a different field")
        a, b = value.a, value.b
    else:
        a, b = _component(value), 0
    return ((a, b) if a or b else 0) if spec.is_quadratic else a


def _as_scalar(c, spec: FieldSpec) -> FieldScalar:
    """A ground element of spec, or a FieldScalar, as a FieldScalar."""
    if c.__class__ is tuple:
        return FieldScalar._fast(c[0], c[1], spec)
    return c if c.__class__ is FieldScalar else FieldScalar._fast(c, 0, spec)


def _divided(ground: dict, lc, spec: FieldSpec) -> dict:
    """A ground map divided by a nonzero ground element."""
    if spec.is_quadratic:
        return pairs.divided(ground, lc, spec.u, spec.v)
    n, d = lc.denominator, lc.numerator
    return {e: pairs.quotient(c, n, d) for e, c in ground.items()}


class MPoly:
    """Immutable sparse polynomial in the fixed six variables."""

    __slots__ = ("spec", "_ground")

    def __init__(self, terms=None, spec: FieldSpec = RATIONALS):
        cleaned = {}
        if terms:
            for exponent, coeff in terms.items():
                coeff = _as_coefficient(coeff, spec)
                if coeff:
                    cleaned[tuple(exponent)] = coeff
        self.spec = spec
        self._ground = cleaned

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, ground: dict, spec: FieldSpec) -> "MPoly":
        """Internal: adopt an already-canonical ground map without copying."""
        poly = object.__new__(cls)
        poly.spec = spec
        poly._ground = ground
        return poly

    @property
    def terms(self) -> dict:
        """The term map with FieldScalar values, a fresh view of the ground
        map over either field."""
        spec = self.spec
        return {e: _as_scalar(c, spec) for e, c in self._ground.items()}

    @classmethod
    def zero(cls, spec: FieldSpec = RATIONALS) -> "MPoly":
        return cls._raw({}, spec)

    @classmethod
    def one(cls, spec: FieldSpec = RATIONALS) -> "MPoly":
        return cls.constant(1, spec)

    @classmethod
    def constant(cls, value, spec: FieldSpec = RATIONALS) -> "MPoly":
        coeff = _as_coefficient(value, spec)
        return cls._raw({_ZERO_EXP: coeff} if coeff else {}, spec)

    @classmethod
    def variable(cls, name: str, spec: FieldSpec = RATIONALS) -> "MPoly":
        exponent = [0] * NVARS
        exponent[VARIABLE_INDEX[name]] = 1
        return cls._raw({tuple(exponent): _as_coefficient(1, spec)}, spec)

    @classmethod
    def monomial(cls, exponent, coeff=1, spec: FieldSpec = RATIONALS) -> "MPoly":
        coeff = _as_coefficient(coeff, spec)
        return cls._raw({tuple(exponent): coeff} if coeff else {}, spec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._ground

    def is_constant(self) -> bool:
        return not self._ground or (len(self._ground) == 1 and _ZERO_EXP in self._ground)

    def is_one(self) -> bool:
        return len(self._ground) == 1 and self._ground.get(_ZERO_EXP) in _ONES

    def constant_value(self) -> FieldScalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _as_scalar(self._ground.get(_ZERO_EXP, 0), self.spec)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._ground:
            return -1
        return max(map(sum, self._ground))

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._ground:
            return -1
        i = VARIABLE_INDEX[var]
        return max(e[i] for e in self._ground)

    def variables(self) -> frozenset:
        present = set()
        for exponent in self._ground:
            for i, e in enumerate(exponent):
                if e:
                    present.add(VARIABLES[i])
        return frozenset(present)

    def leading_monomial(self):
        if not self._ground:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return max(self._ground, key=_grlex_key)

    def leading_coefficient(self) -> FieldScalar:
        return _as_scalar(self._ground[self.leading_monomial()], self.spec)

    def monic(self) -> "MPoly":
        """Divide by the leading coefficient (zero stays zero)."""
        if not self._ground:
            return self
        lc = self._ground[self.leading_monomial()]
        return self if lc in _ONES else MPoly._raw(_divided(self._ground, lc, self.spec), self.spec)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other, sign 1 or -1."""
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        if self.spec.is_quadratic:
            return MPoly._raw(pairs.add(self._ground, other._ground, sign), self.spec)
        out = dict(self._ground)
        for e, coeff in other._ground.items():
            have = out.get(e)
            if have is None:
                out[e] = coeff if sign == 1 else -coeff
            elif t := have + coeff if sign == 1 else have - coeff:
                out[e] = _normal(t)
            else:
                del out[e]
        return MPoly._raw(out, self.spec)

    def __neg__(self):
        if self.spec.is_quadratic:
            return MPoly._raw(pairs.neg(self._ground), self.spec)
        return MPoly._raw({e: -c for e, c in self._ground.items()}, self.spec)

    def __mul__(self, other):
        spec = self.spec
        if isinstance(other, (int, Fraction, FieldScalar)):
            s = _as_coefficient(other, spec)
            if not s:
                return MPoly.zero(spec)
            if spec.is_quadratic:
                return MPoly._raw(pairs.scale(self._ground, s, spec.u, spec.v), spec)
            return MPoly._raw({e: _normal(c * s) for e, c in self._ground.items()}, spec)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        if not self._ground or not other._ground:
            return MPoly.zero(spec)
        if spec.is_quadratic:
            return MPoly._raw(pairs.mul(self._ground, other._ground, spec.u, spec.v), spec)
        # iterate the shorter operand on the outside
        left, right = self._ground, other._ground
        if len(left) > len(right):
            left, right = right, left
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                exponent = (
                    e1[0] + e2[0],
                    e1[1] + e2[1],
                    e1[2] + e2[2],
                    e1[3] + e2[3],
                    e1[4] + e2[4],
                    e1[5] + e2[5],
                )
                coeff = c1 * c2
                have = out.get(exponent)
                out[exponent] = coeff if have is None else have + coeff
        return MPoly._raw({e: _normal(c) for e, c in out.items() if c}, spec)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = MPoly.one(self.spec)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.spec == other.spec and self._ground == other._ground

    def __hash__(self):
        return hash(frozenset(self._ground.items()))

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        """Formal partial derivative with respect to one variable."""
        i = VARIABLE_INDEX[var]
        if self.spec.is_quadratic:
            return MPoly._raw(pairs.derivative(self._ground, i), self.spec)
        out = {}
        for exponent, coeff in self._ground.items():
            e = exponent[i]
            if e:
                out[exponent[:i] + (e - 1,) + exponent[i + 1 :]] = _normal(coeff * e)
        return MPoly._raw(out, self.spec)

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: dict) -> "MPoly":
        """Replace every bound variable by its image, simultaneously.

        All images are read against the original polynomial, so
        {p: x, x: -p} swaps rather than chains.
        """
        if not bindings:
            return self
        images = {}
        for name, image in bindings.items():
            if not isinstance(image, MPoly):
                image = MPoly.constant(image, self.spec)
            else:
                self._check(image)
            images[VARIABLE_INDEX[name]] = image
        powers = {i: [MPoly.one(self.spec), image] for i, image in images.items()}

        def power(i, e):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * cache[1])
            return cache[e]

        result = MPoly.zero(self.spec)
        for exponent, coeff in self._ground.items():
            untouched = list(exponent)
            factors = []
            for i in images:
                e = exponent[i]
                untouched[i] = 0
                if e:
                    factors.append(power(i, e))
            term = MPoly._raw({tuple(untouched): coeff}, self.spec)
            for factor in factors:
                term = term * factor
            result = result + term
        return result

    def coefficients_in(self, var: str) -> dict:
        """View as univariate in `var`: maps each degree to an MPoly free
        of `var`."""
        i = VARIABLE_INDEX[var]
        split = {}
        for exponent, coeff in self._ground.items():
            e = exponent[i]
            stripped = exponent[:i] + (0,) + exponent[i + 1 :]
            split.setdefault(e, {})[stripped] = coeff
        return {e: MPoly._raw(terms, self.spec) for e, terms in split.items()}

    def coefficient(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, as a polynomial free of `var`."""
        i = VARIABLE_INDEX[var]
        out = {}
        for exponent, coeff in self._ground.items():
            if exponent[i] == power:
                out[exponent[:i] + (0,) + exponent[i + 1 :]] = coeff
        return MPoly._raw(out, self.spec)

    # -- evaluation ------------------------------------------------------------

    def evaluate_scalar(self, point: dict) -> FieldScalar:
        """Exact evaluation at a point given as {variable: FieldScalar}."""
        spec = self.spec
        # over Q(theta) the arithmetic runs on FieldScalars, over Q on rationals
        scalar = (lambda c: _as_scalar(c, spec)) if spec.is_quadratic else (lambda c: c)
        values = {VARIABLE_INDEX[n]: scalar(_as_coefficient(x, spec)) for n, x in point.items()}
        total = 0
        for exponent, coeff in self._ground.items():
            term = scalar(coeff)
            for i, e in enumerate(exponent):
                if e == 0:
                    continue
                if i not in values:
                    raise KeyError("no value supplied for %s" % VARIABLES[i])
                term = term * values[i] ** e
            total = total + term
        return _as_scalar(total, self.spec)

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return "MPoly(%s)" % (self,)


# -- rendering ------------------------------------------------------------------


def _render_monomial(exponent) -> str:
    parts = []
    for name, e in zip(VARIABLES, exponent):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def render_poly(f: MPoly) -> str:
    """Canonical text form: terms in descending graded-lex order.

    The output re-parses to an equal polynomial under the CLI grammar.  A
    coefficient past Python's limit on the digits of an int's text raises
    DegreeExceeded.
    """
    if not f._ground:
        return "0"
    chunks = []
    try:
        for exponent in sorted(f._ground, key=_grlex_key, reverse=True):
            coeff = f._ground[exponent]
            mono = _render_monomial(exponent)
            if coeff.__class__ is tuple:
                coeff = _as_scalar(coeff, f.spec) if coeff[1] else coeff[0]
            if coeff.__class__ is not FieldScalar:
                negative = coeff < 0
                mag = -coeff if negative else coeff
                if not mono:
                    body = str(mag)
                elif mag == 1:
                    body = mono
                else:
                    body = "%s*%s" % (mag, mono)
            else:
                negative = False
                body = "(%s)" % (coeff,) if not mono else "(%s)*%s" % (coeff, mono)
            chunks.append((negative, body))
    except ValueError as err:  # int to str past sys.get_int_max_str_digits()
        raise DegreeExceeded(
            "a coefficient has more than %d digits to print" % sys.get_int_max_str_digits()
        ) from err
    negative, body = chunks[0]
    text = ("-" if negative else "") + body
    for negative, body in chunks[1:]:
        text += (" - " if negative else " + ") + body
    return text


# -- exact division and gcd ------------------------------------------------------


def try_exact_divide(f: MPoly, g: MPoly):
    """f / g when the division is exact, else None."""
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return MPoly.zero(f.spec)
    f._check(g)
    spec = f.spec
    if spec.is_quadratic:
        ground = pairs.try_exact_divide(f._ground, g._ground, spec.u, spec.v)
        return None if ground is None else MPoly._raw(ground, spec)
    # leading terms in lex order, which compares exponent tuples without a
    # key function; any monomial order decides divisibility
    divisor = g._ground
    g0, g1, g2, g3, g4, g5 = lm_g = max(divisor)
    lc_g_inv = _normal(Fraction(1, divisor[lm_g]))
    quotient = {}
    rest = dict(f._ground)
    while rest:
        lm_r = max(rest)
        q0, q1, q2, q3, q4, q5 = exponent = (
            lm_r[0] - g0, lm_r[1] - g1, lm_r[2] - g2, lm_r[3] - g3, lm_r[4] - g4, lm_r[5] - g5
        )
        if q0 < 0 or q1 < 0 or q2 < 0 or q3 < 0 or q4 < 0 or q5 < 0:
            return None
        coeff = quotient[exponent] = _normal(rest[lm_r] * lc_g_inv)
        for e2, c2 in divisor.items():
            e = (q0 + e2[0], q1 + e2[1], q2 + e2[2], q3 + e2[3], q4 + e2[4], q5 + e2[5])
            have = rest.get(e)
            if have is None:
                rest[e] = -(coeff * c2)
            elif total := have - coeff * c2:
                rest[e] = total
            else:
                del rest[e]
    return MPoly._raw(quotient, spec)


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    quotient = try_exact_divide(f, g)
    if quotient is None:
        raise ValueError("inexact polynomial division")
    return quotient


def divides(g: MPoly, f: MPoly) -> bool:
    """True iff g divides f exactly (g nonzero)."""
    return try_exact_divide(f, g) is not None


def _monomial_content(f: MPoly):
    iters = iter(f._ground)
    lowest = list(next(iters))
    for exponent in iters:
        for i, e in enumerate(exponent):
            if e < lowest[i]:
                lowest[i] = e
    return tuple(lowest)


def _shift_down(f: MPoly, shift) -> MPoly:
    if not any(shift):
        return f
    s0, s1, s2, s3, s4, s5 = shift
    ground = {
        (e[0] - s0, e[1] - s1, e[2] - s2, e[3] - s3, e[4] - s4, e[5] - s5): c
        for e, c in f._ground.items()
    }
    return MPoly._raw(ground, f.spec)


# -- modular gcd over Q and Q(theta) -----------------------------------------
#
# Every gcd is taken modulo word-size primes.  When no input coefficient
# carries theta (always so over Q), theta plays no part: a prime serves when
# it divides no input denominator, and maps the inputs into
# F_p[v_1, ..., v_k] once.  When some coefficient carries theta, only primes
# that split in Q(theta) serve, in the style of Langemyr and McCallum
# (J. Symb. Comp. 1989): for such a prime p, u^2 + 4v is a nonzero square
# mod p, so theta has two images r1 != r2 in F_p, and each maps the inputs
# into F_p[v_1, ..., v_k].  There the gcd comes from Brown's dense
# evaluation and interpolation (JACM 1971, `modular.brown_gcd`), one
# variable at a time down to univariate Euclid, and is confirmed by trial
# division mod p.  Made monic at its grlex leading monomial, the images of
# the monic gcd h0 + h1*theta give h0 and h1 mod p (with no theta, the one
# image is h0 and h1 = 0); the primes are combined by the Chinese remainder
# theorem and rational reconstruction.  The result is exact:
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
# which divides both inputs.  The parser bounds the inputs' size; a cap on
# the number of primes could only turn valid gcds into errors.


def _gcd_modular(f: MPoly, g: MPoly, variables) -> MPoly:
    """gcd of two polynomials over Q or Q(theta) in the variables
    VARIABLES[i], i in `variables` (every variable either one has), made
    monic.  `modular.brown_gcd` runs Euclid in the first of them and
    evaluates the last one first."""
    spec = f.spec

    def lift(e):
        exponent = [0] * NVARS
        for i, k in zip(variables, e):
            exponent[i] = k
        return tuple(exponent)

    def key(e):
        return _grlex_key(lift(e))

    # the exponents of `variables`, always as a tuple
    if len(variables) > 1:
        project = operator.itemgetter(*variables)
    else:
        project = operator.itemgetter(slice(variables[0], variables[0] + 1))
    denominator = 1
    inputs = []
    for poly in (f, g):
        ground = poly._ground.items()
        if spec.is_quadratic:  # (e, a, b) for each term c*v^e, c = a + b*theta
            terms = [(project(e), a, b) for e, (a, b) in ground]
        else:
            terms = [(project(e), c, 0) for e, c in ground]
        for _, a, b in terms:
            denominator = math.lcm(denominator, a.denominator, b.denominator)
        shape = (project(poly.leading_monomial()), tuple(map(max, zip(*(t[0] for t in terms)))))
        inputs.append((terms, shape))
    if any(b for terms, _ in inputs for *_, b in terms):
        primes = modular.split_primes(spec.u, spec.v)
    else:  # one image per prime, at theta -> 0
        primes = ((p, 0) for p in modular.primes())

    def image(terms, shape, r, p):
        """One input under theta -> r, or None when the image loses the
        leading monomial or the degree in some variable."""
        lm, degrees = shape
        out = {e: c for e, a, b in terms if (c := (a + b * r) % p)}
        if lm not in out or tuple(map(max, zip(*out))) != degrees:
            return None
        return out

    best = None  # leading monomial of the images kept
    modulus, residues, tested = 1, {}, None
    for p, *roots in primes:
        if denominator % p == 0:
            continue
        reduced = [
            (
                [(e, modular.fraction_mod(a, p), modular.fraction_mod(b, p) if b else 0)
                 for e, a, b in terms],
                shape,
            )
            for terms, shape in inputs
        ]
        images = [[image(terms, shape, r, p) for terms, shape in reduced] for r in roots]
        if any(terms is None for pair in images for terms in pair):
            continue
        gcds = []
        for fr, gr in images:
            h = modular.brown_gcd(fr, gr, p)
            lm = max(h, key=key)
            if not any(lm):
                return MPoly.one(spec)
            inv = pow(h[lm], -1, p)
            gcds.append((lm, {e: c * inv % p for e, c in h.items()}))
        lm = gcds[0][0]
        if any(other != lm for other, _ in gcds):
            continue
        if best is not None and key(lm) > key(best):
            continue
        if best is None or key(lm) < key(best):
            best, modulus, residues = lm, 1, {}
        if len(roots) == 1:
            solved = {e: (c, 0) for e, c in gcds[0][1].items()}
        else:
            h1, h2 = gcds[0][1], gcds[1][1]
            inv_diff = pow(roots[0] - roots[1], -1, p)
            solved = {}
            for e in h1.keys() | h2.keys():
                c1, c2 = h1.get(e, 0), h2.get(e, 0)
                b = (c1 - c2) * inv_diff % p
                solved[e] = ((c1 - b * roots[0]) % p, b)
        inv_modulus = pow(modulus, -1, p)
        for e in residues.keys() | solved.keys():
            old, new = residues.get(e, (0, 0)), solved.get(e, (0, 0))
            residues[e] = tuple(
                x + modulus * ((y - x) * inv_modulus % p) for x, y in zip(old, new)
            )
        modulus *= p
        candidate = {}
        for e, (a, b) in residues.items():
            a = modular.rational_reconstruction(a, modulus)
            b = modular.rational_reconstruction(b, modulus)
            if a is None or b is None:
                candidate = None
                break
            if a or b:
                candidate[e] = (a, b)
        if candidate is None or candidate == tested:
            continue
        tested = candidate
        if spec.is_quadratic:
            h = {lift(e): (_normal(a), _normal(b)) for e, (a, b) in candidate.items()}
        else:
            h = {lift(e): _normal(a) for e, (a, b) in candidate.items()}
        h = MPoly._raw(h, spec)
        if try_exact_divide(f, h) is not None and try_exact_divide(g, h) is not None:
            return h


def _gcd_raw(f: MPoly, g: MPoly) -> MPoly:
    """gcd of two nonzero polynomials, up to a scalar unit."""
    spec = f.spec
    shift_f = _monomial_content(f)
    shift_g = _monomial_content(g)
    common = tuple(min(a, b) for a, b in zip(shift_f, shift_g))
    f = _shift_down(f, shift_f)
    g = _shift_down(g, shift_g)
    mono = MPoly.monomial(common, 1, spec)
    if f.is_constant() or g.is_constant():
        return mono
    names_f, names_g = f.variables(), g.variables()
    shared = names_f & names_g
    if not shared:
        return mono
    if f._ground == g._ground:  # the cheap win first
        return mono * f
    # Euclid runs in the shared variable appearing in the most terms
    def frequency(name):
        i = VARIABLE_INDEX[name]
        return sum(1 for e in f._ground if e[i]) + sum(1 for e in g._ground if e[i])

    first = max(sorted(shared), key=frequency)
    rest = sorted(VARIABLE_INDEX[name] for name in names_f | names_g if name != first)
    return mono * _gcd_modular(f, g, (VARIABLE_INDEX[first], *rest))


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Greatest common divisor, normalized monic under the monomial order.

    gcd(f, 0) is f made monic; gcd(0, 0) is 0.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f._check(g)
    return _gcd_raw(f, g).monic()


def squarefree_part(f: MPoly) -> MPoly:
    """Product of the distinct irreducible factors of f, made monic."""
    if f.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    current = f
    while True:
        repeated = current
        for name in VARIABLES:
            partial = current.derivative(name)
            if not partial.is_zero():
                repeated = poly_gcd(repeated, partial)
            if repeated.is_constant():
                break
        if repeated.is_constant():
            return current.monic()
        current = exact_divide(current, repeated)


# -- the inflection determinant -----------------------------------------------------


def determinant(rows) -> MPoly:
    """Determinant of a 3x3 matrix of polynomials, given as its three rows,
    expanded along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cubic_discriminant(a0: MPoly, a1: MPoly, a2: MPoly, a3: MPoly) -> MPoly:
    """Discriminant of the slope cubic a0*s^3 + a1*s^2 + a2*s + a3, even
    in (a1, a3): a1^2 a2^2 - 4 a0 a2^3 - 4 a1^3 a3 - 27 a0^2 a3^2 + 18 a0 a1 a2 a3."""
    a12 = a1 * a2
    a03 = a0 * a3
    return (
        a12 * (a12 + 18 * a03)
        - 27 * (a03 * a03)
        - 4 * (a0 * (a2 * a2 * a2) + a1 * a1 * a1 * a3)
    )


def cubic_resultant(a0: MPoly, a1: MPoly, a2: MPoly, a3: MPoly) -> MPoly:
    """Res(f, f') of the slope cubic f, -a0 times its discriminant: zero
    exactly where f has a repeated root or a0 = 0."""
    return -(a0 * cubic_discriminant(a0, a1, a2, a3))


# -- rational functions ------------------------------------------------------------


def _monic_denominator(num: MPoly, den: MPoly):
    """num and den, both divided by the leading coefficient of den."""
    lc = den._ground[den.leading_monomial()]
    if lc in _ONES:
        return num, den
    spec = den.spec
    return tuple(MPoly._raw(_divided(f._ground, lc, spec), spec) for f in (num, den))


class RatFn:
    """Reduced quotient of two polynomials.

    gcd(num, den) is constant and den is monic under the monomial order,
    so equal fractions have equal (num, den) pairs, and equality compares
    those pairs directly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        num._check(den)
        if num.is_zero():
            den = MPoly.one(num.spec)
        else:
            common = poly_gcd(num, den)
            if not common.is_one():
                num = exact_divide(num, common)
                den = exact_divide(den, common)
        self.num, self.den = _monic_denominator(num, den)

    @classmethod
    def _reduced(cls, num: MPoly, den: MPoly) -> "RatFn":
        """Internal: adopt an already-coprime pair, normalizing only the
        denominator's leading coefficient."""
        ratfn = object.__new__(cls)
        ratfn.num, ratfn.den = _monic_denominator(num, den)
        return ratfn

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def derivative(self, var: str) -> "RatFn":
        """Quotient rule, assembled over den^2 then reduced."""
        return RatFn(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def __eq__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFn(%s)" % (self,)


# -- numeric evaluation --------------------------------------------------------------


def evaluate_float(f: MPoly, point: dict, theta_embedding: complex | None = None) -> complex:
    """Floating evaluation of f at {variable: complex}.

    A quadratic field requires `theta_embedding`, an approximate root of
    the minimal polynomial (checked to 1e-12); the rationals forbid it.
    """
    embed, theta = complex, theta_embedding
    if f.spec.is_quadratic:
        if theta is None:
            raise BadEmbedding("quadratic field needs a theta embedding")
        if abs(theta * theta - complex(f.spec.u) * theta - complex(f.spec.v)) > 1e-12:
            raise BadEmbedding("embedding does not satisfy the minimal polynomial")
        embed = lambda c: complex(c[0]) + complex(c[1]) * theta  # noqa: E731
    elif theta is not None:
        raise BadEmbedding("theta embedding supplied for a rational field")
    values = {VARIABLE_INDEX[name]: complex(value) for name, value in point.items()}
    total = 0j
    for exponent, coeff in f._ground.items():
        term = embed(coeff)
        for i, e in enumerate(exponent):
            if e == 0:
                continue
            if i not in values:
                raise KeyError("no value supplied for %s" % VARIABLES[i])
            term *= values[i] ** e
        total += term
    return total
