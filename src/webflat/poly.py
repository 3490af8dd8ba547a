"""Sparse multivariate polynomials over an exact coefficient field.

Representation
--------------
A polynomial is a map, its ground map, from packed exponent vectors to
nonzero ground elements of its field.  Their format and every loop over
them belong to `ground`, which each kernel calls with the field's
`spec.theta`; nothing here reads a coefficient's format.  No inverse is
ever a float.  `FieldScalar` is the public coefficient type: values enter
through `_as_coefficient` and leave as `FieldScalar`s.  The variables are
fixed, (x, y, z, p, q, t), and the zero polynomial is the empty map, so
equal polynomials have equal ground maps.  Exponent vectors are packed
ints in grlex order, laid out in `monomials`.

Algorithms
----------
* division: `ground.exact_quotient`, over Q and Q(theta) alike.
* products: `sum_of_products` adds the k*f*g of a whole closed form into
  one ground map and normalises once.  `*`, a scalar multiple and
  `substitute` are calls of it; `+`, `-` and `-f` run through `ground.add`.
* gcd: `modular.field_gcd`, which makes every gcd decision over Q and
  Q(theta) alike; `poly_gcd` adds only the zero cases.  The tests keep the
  subresultant remainder sequence as its oracle.
* powers: binomial theorem for one or two terms, squaring for more.
* bounds: `evaluate_scalar` charges each term through `bounds` first.
* determinant: the 3x3 of the inflection divisor in closed form; the
  tests keep cofactor expansion as its oracle.
* `cubic_resultant` is Res(f, f') = -a0 * `cubic_discriminant` of the
  slope cubic f in closed form, pinned in the tests against the 5x5
  Sylvester determinant.

Everything is immutable and pure.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction

from .errors import (
    DegreeExceeded,
    DivisionByZero,
    FieldMismatch,
    InexactDivision,
    MissingValue,
    NegativePower,
    NotConstant,
    ZeroPolynomial,
)
from . import ground
from .bounds import MAX_EVALUATION_BITS, charge, coefficient_bits
from .field import RATIONALS, FieldScalar, FieldSpec, _component
from .monomials import (
    SHIFT,
    UNIT,
    VARIABLES,
    bounded,
    exponent_at,
    monomial_degree,
    pack,
    unpack,
)

VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLES)}


def _as_coefficient(value, spec: FieldSpec):
    """A coefficient (FieldScalar, int, Fraction, or what Fraction accepts)
    as a ground element of spec; zero is 0 over either field."""
    if isinstance(value, FieldScalar):
        if value.spec is not spec and value.spec != spec:
            raise FieldMismatch("coefficient from a different field")
        a, b = value.a, value.b
    else:
        a, b = _component(value), 0
    return ground.element(a, b, spec.theta) if a or b else 0


def ground_degree(terms: dict) -> int:
    """The total degree of a ground map; -1 for the zero map."""
    return monomial_degree(max(terms)) if terms else -1


class MPoly:
    """Immutable sparse polynomial in the fixed six variables."""

    __slots__ = ("spec", "_ground")

    def __init__(self, terms=None, spec: FieldSpec = RATIONALS):
        cleaned = {}
        if terms:
            for exponent, coeff in terms.items():
                coeff = _as_coefficient(coeff, spec)
                if coeff:
                    cleaned[pack(exponent)] = coeff
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
        """The term map from exponent 6-tuples to FieldScalars, a fresh view
        of the ground map over either field."""
        spec = self.spec
        return {unpack(m): FieldScalar._of(c, spec) for m, c in self._ground.items()}

    @classmethod
    def zero(cls, spec: FieldSpec = RATIONALS) -> "MPoly":
        return cls._raw({}, spec)

    @classmethod
    def one(cls, spec: FieldSpec = RATIONALS) -> "MPoly":
        return cls.constant(1, spec)

    @classmethod
    def constant(cls, value, spec: FieldSpec = RATIONALS) -> "MPoly":
        coeff = _as_coefficient(value, spec)
        return cls._raw({0: coeff} if coeff else {}, spec)

    @classmethod
    def variable(cls, name: str, spec: FieldSpec = RATIONALS) -> "MPoly":
        return cls._raw({UNIT[VARIABLE_INDEX[name]]: _as_coefficient(1, spec)}, spec)

    @classmethod
    def monomial(cls, exponent, coeff=1, spec: FieldSpec = RATIONALS) -> "MPoly":
        coeff = _as_coefficient(coeff, spec)
        return cls._raw({pack(exponent): coeff} if coeff else {}, spec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._ground

    def is_constant(self) -> bool:
        return not self._ground or (len(self._ground) == 1 and 0 in self._ground)

    def is_one(self) -> bool:
        return len(self._ground) == 1 and self._ground.get(0) in ground.ONES

    def constant_value(self) -> FieldScalar:
        if not self.is_constant():
            raise NotConstant("polynomial is not constant")
        return FieldScalar._of(self._ground.get(0, 0), self.spec)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return ground_degree(self._ground)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        s = SHIFT[VARIABLE_INDEX[var]]
        return max((exponent_at(m, s) for m in self._ground), default=-1)

    def variables(self) -> frozenset:
        present = 0
        for m in self._ground:
            present |= m
        return frozenset(name for name, s in zip(VARIABLES, SHIFT) if exponent_at(present, s))

    def leading_monomial(self):
        if not self._ground:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return unpack(max(self._ground))

    def leading_coefficient(self) -> FieldScalar:
        if not self._ground:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return FieldScalar._of(self._ground[max(self._ground)], self.spec)

    def monic(self) -> "MPoly":
        """Divide by the leading coefficient (zero stays zero)."""
        if not self._ground:
            return self
        lc = self._ground[max(self._ground)]
        return MPoly._raw(ground.divided(self._ground, lc, self.spec.theta), self.spec)

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
        spec = self.spec
        return MPoly._raw(ground.add(dict(self._ground), other._ground, sign, spec.theta), spec)

    def __neg__(self):
        return MPoly.zero(self.spec) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldScalar)):
            other = MPoly.constant(other, self.spec)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return sum_of_products([(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise NegativePower("negative polynomial power")
        terms, spec = self._ground, self.spec
        if n < 2 or not terms:
            return self if n else MPoly.one(spec)
        bounded(monomial_degree(max(terms)) * n)
        theta = spec.theta
        if len(terms) == 1:
            [(m, c)] = terms.items()
            return MPoly._raw({n * m: ground.power(c, n, theta)}, spec)
        if len(terms) > 2:  # by squaring
            half = self ** (n >> 1)
            return half * half * self if n & 1 else half * half
        # two terms: the binomial theorem, C(n, k) a^k b^(n-k) at k*m1 + (n-k)*m2
        (m1, a), (m2, b) = terms.items()
        one = ground.element(1, 0, theta)
        powers_b = [one]
        for _ in range(n):
            powers_b.append(ground.product(powers_b[-1], b, theta))
        out, a_k, binomial = [], one, 1
        for k in range(n + 1):
            c = ground.product(a_k, powers_b[n - k], theta)
            out.append((k * m1 + (n - k) * m2, binomial, c))
            a_k = ground.product(a_k, a, theta)
            binomial = binomial * (n - k) // (k + 1)
        return MPoly._raw(ground.scaled(out, theta), spec)

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
        s, unit = SHIFT[i], UNIT[i]
        terms = [(m - unit, k, c) for m, c in self._ground.items() if (k := exponent_at(m, s))]
        return MPoly._raw(ground.scaled(terms, self.spec.theta), self.spec)

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: dict) -> "MPoly":
        """Replace every bound variable by its image, simultaneously.

        All images are read against the original polynomial, so
        {p: x, x: -p} swaps rather than chains.  Each image is raised only
        to the powers the polynomial has, each from the one below it.  The
        terms are grouped by their bound exponents, and one
        `sum_of_products` call adds every group's free part times its
        product of image powers.
        """
        if not bindings:
            return self
        spec = self.spec
        images = {}
        for name, image in bindings.items():
            if not isinstance(image, MPoly):
                image = MPoly.constant(image, spec)
            else:
                self._check(image)
            images[VARIABLE_INDEX[name]] = image
        if not self._ground:  # the kernel takes a nonempty list
            return self
        groups = {}  # the bound exponents -> the free part of the terms with them
        for m, coeff in self._ground.items():
            key = tuple([exponent_at(m, SHIFT[i]) for i in images])
            for i, e in zip(images, key):
                m -= e * UNIT[i]
            groups.setdefault(key, {})[m] = coeff
        powers = []  # for each bound variable, exponent -> power of its image
        for j, image in enumerate(images.values()):
            have, below = {}, 0
            for e in sorted({key[j] for key in groups} - {0}):
                step = image ** (e - below)
                have[e] = have[below] * step if below else step
                below = e
            powers.append(have)
        operands = []
        for key, free in groups.items():
            factors = [have[e] for have, e in zip(powers, key) if e]
            product = functools.reduce(MPoly.__mul__, factors) if factors else MPoly.one(spec)
            operands.append((1, MPoly._raw(free, spec), product))
        return sum_of_products(operands)

    def coefficients_in(self, var: str) -> dict:
        """View as univariate in `var`: maps each degree to an MPoly free
        of `var`."""
        i = VARIABLE_INDEX[var]
        s, unit = SHIFT[i], UNIT[i]
        split = {}
        for m, coeff in self._ground.items():
            e = exponent_at(m, s)
            split.setdefault(e, {})[m - e * unit] = coeff
        return {e: MPoly._raw(terms, self.spec) for e, terms in split.items()}

    def coefficient(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, as a polynomial free of `var`."""
        return self.coefficients_in(var).get(power) or MPoly.zero(self.spec)

    # -- evaluation ------------------------------------------------------------

    def evaluate_scalar(self, point: dict) -> FieldScalar:
        """Exact evaluation at a point given as {variable: FieldScalar}.

        A term with a variable at 0 is skipped; any other is charged by
        `bounds`, per variable, the exponent times the parser's bits per power
        of its value, and refused past MAX_EVALUATION_BITS before its powers
        are computed, even where the terms would cancel.
        """
        spec, theta, total = self.spec, self.spec.theta, {}
        values = {VARIABLE_INDEX[n]: _as_coefficient(x, spec) for n, x in point.items()}
        charges = {i: coefficient_bits((c,), theta) for i, c in values.items()}
        for m, coeff in self._ground.items():
            powers = [(i, e) for i, e in enumerate(unpack(m)) if e]
            for i, _ in powers:
                if i not in values:
                    raise MissingValue("no value supplied for %s" % VARIABLES[i])
            if not all(values[i] for i, _ in powers):
                continue
            charge(sum(e * charges[i] for i, e in powers), MAX_EVALUATION_BITS,
                   "a term evaluated at the point is charged %d bits, past the bound %d")
            for i, e in powers:
                coeff = ground.product(coeff, ground.power(values[i], e, theta), theta)
            ground.add(total, {0: coeff}, 1, theta)
        return FieldScalar._of(total.get(0, 0), spec)

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return "MPoly(%s)" % (self,)


def sum_of_products(terms) -> MPoly:
    """The sum of k * f * g over a nonempty list of (k, f, g) triples, k an
    int and f, g polynomials over the field of the first f.  Every product
    adds into one ground map, normalised once; each raises as f * g does."""
    first, operands = terms[0][1], []
    for k, f, g in terms:
        first._check(f)
        first._check(g)
        left, right = f._ground, g._ground
        if left and right:
            bounded(monomial_degree(max(left)) + monomial_degree(max(right)))
            if k:
                operands.append((k, left, right))
    return MPoly._raw(ground.sum_of_products(operands, first.spec.theta), first.spec)


# -- rendering ------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _render_monomial(m: int) -> str:
    return "*".join(
        name if e == 1 else "%s^%d" % (name, e) for name, e in zip(VARIABLES, unpack(m)) if e
    )


def render_poly(f: MPoly) -> str:
    """Canonical text form: terms in descending graded-lex order.

    The output re-parses to an equal polynomial under the CLI grammar.  A
    coefficient past Python's limit on the digits of an int's text raises
    DegreeExceeded.
    """
    terms = f._ground
    if not terms:
        return "0"
    chunks = []
    try:
        for m in sorted(terms, reverse=True):
            a, b = ground.parts(terms[m])
            mono = _render_monomial(m)
            if b:
                coeff = FieldScalar._fast(a, b, f.spec)
                chunks += " + ", "(%s)" % (coeff,) if not mono else "(%s)*%s" % (coeff, mono)
                continue
            text = str(a)
            if text[0] == "-":
                chunks.append(" - ")
                text = text[1:]
            else:
                chunks.append(" + ")
            chunks.append(text if not mono else mono if text == "1" else text + "*" + mono)
    except ValueError as err:  # int to str past sys.get_int_max_str_digits()
        raise DegreeExceeded(
            "a coefficient has more than %d digits to print" % sys.get_int_max_str_digits()
        ) from err
    chunks[0] = "-" if chunks[0] == " - " else ""
    return "".join(chunks)


# -- exact division and gcd ------------------------------------------------------


def try_exact_divide(f: MPoly, g: MPoly):
    """f / g when the division is exact, else None."""
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return MPoly.zero(f.spec)
    f._check(g)
    quotient = ground.exact_quotient(f._ground, g._ground, f.spec.theta)
    return None if quotient is None else MPoly._raw(quotient, f.spec)


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    quotient = try_exact_divide(f, g)
    if quotient is None:
        raise InexactDivision("inexact polynomial division")
    return quotient


def divides(g: MPoly, f: MPoly) -> bool:
    """True iff g divides f exactly (g nonzero)."""
    return try_exact_divide(f, g) is not None


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Greatest common divisor, normalized monic under the monomial order.

    gcd(f, 0) is f made monic; gcd(0, 0) is 0.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f._check(g)
    from . import modular  # on first use: one-line invocations mostly take no gcd

    return MPoly._raw(modular.field_gcd(f._ground, g._ground, f.spec.theta), f.spec)


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
    return sum_of_products([
        (1, a, sum_of_products([(1, e, i), (-1, f, h)])),
        (-1, b, sum_of_products([(1, d, i), (-1, f, g)])),
        (1, c, sum_of_products([(1, d, h), (-1, e, g)])),
    ])


def cubic_discriminant(a0: MPoly, a1: MPoly, a2: MPoly, a3: MPoly) -> MPoly:
    """Discriminant of the slope cubic a0*s^3 + a1*s^2 + a2*s + a3, even
    in (a1, a3): a1^2 a2^2 - 4 a0 a2^3 - 4 a1^3 a3 - 27 a0^2 a3^2 + 18 a0 a1 a2 a3."""
    a12, a03 = a1 * a2, a0 * a3
    return sum_of_products([
        (1, a12, a12), (18, a12, a03), (-27, a03, a03),
        (-4, a0 * a2, a2 * a2), (-4, a1 * a1, a1 * a3),
    ])


def cubic_resultant(a0: MPoly, a1: MPoly, a2: MPoly, a3: MPoly) -> MPoly:
    """Res(f, f') of the slope cubic f, -a0 times its discriminant: zero
    exactly where f has a repeated root or a0 = 0."""
    return -(a0 * cubic_discriminant(a0, a1, a2, a3))


# -- rational functions ------------------------------------------------------------


def _monic_denominator(num: MPoly, den: MPoly):
    """num and den, both divided by the leading coefficient of den."""
    lc, spec = den._ground[max(den._ground)], den.spec
    return tuple(MPoly._raw(ground.divided(f._ground, lc, spec.theta), spec) for f in (num, den))


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

