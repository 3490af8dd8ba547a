"""Sparse multivariate polynomials over an exact coefficient field.

Representation
--------------
A polynomial is a map, its ground map, from packed exponent vectors to
nonzero ground elements: over Q a bare `int` when integral and a `Fraction`
otherwise, over Q(theta) a pair (a, b) for a + b*theta with components of
the same kind.  Each kernel tests the field once per call; the pair loops
live in `pairs`.  No inverse is ever a float.  `FieldScalar` is the public
coefficient type: values enter through `_as_coefficient` and leave as
`FieldScalar`s.  The variables are fixed, (x, y, z, p, q, t), and the zero
polynomial is the empty map, so equal polynomials have equal ground maps.
Exponent vectors are packed ints in grlex order, laid out in `monomials`.

Algorithms
----------
* division: a one-term divisor costs one guarded subtraction a term; a
  longer one, over Q and Q(theta) alike, runs trial division from the
  leading term, the `max` of the packed keys: `_products` multiplies each
  quotient term by the divisor and `_add` takes that off the remainder.
* products: `sum_of_products` adds the k*f*g of a whole closed form into
  one ground map and normalises once.  `*`, a scalar multiple and
  `substitute` are calls of it; `+`, `-` and `-f` run through `_add`.
* gcd: monomial content is pulled out first and put back as a key shift.
  In two variables, images at fixed points w = a and v = b, mod one prime
  below 2^30, then certify the most common answer, 1
  (`modular.certified_coprime`).  Otherwise `modular.field_gcd`, one
  modular gcd in any number of variables over Q and Q(theta) alike,
  trial-divides its candidates over the field by `try_exact_divide`.  The
  tests keep the subresultant remainder sequence as its oracle.
* powers: binomial theorem for one or two terms, squaring for more.
* determinant: the 3x3 of the inflection divisor in closed form; the
  tests keep cofactor expansion as its oracle.
* `cubic_resultant` is Res(f, f') = -a0 * `cubic_discriminant` of the
  slope cubic f in closed form, pinned in the tests against the 5x5
  Sylvester determinant.

Everything is immutable and pure.
"""

from __future__ import annotations

import functools
import math
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
from . import pairs
from .field import RATIONALS, FieldScalar, FieldSpec, _component
from .monomials import (
    SHIFT,
    UNIT,
    VARIABLES,
    bounded,
    exponent_at,
    monomial_degree,
    monomial_quotient,
    pack,
    unpack,
)
from .pairs import normal as _normal

VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ONES = (1, (1, 0))  # the ground element 1 over Q and over Q(theta)


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


def _add(out: dict, g: dict, sign: int = 1) -> dict:
    """Add sign * g into the ground map out over Q, sign 1 or -1, and
    return out; `pairs.add` is its twin over Q(theta)."""
    for e, coeff in g.items():
        have = out.get(e)
        if have is None:
            out[e] = coeff if sign == 1 else -coeff
        elif t := have + coeff if sign == 1 else have - coeff:
            out[e] = _normal(t)
        else:
            del out[e]
    return out


def ground_arithmetic(spec: FieldSpec):
    """(one, times, add) for the ground maps of spec: the coefficient 1,
    the product of two nonzero coefficients, and `_add` over Q or
    `pairs.add` over Q(theta)."""
    if spec.is_quadratic:
        return (1, 0), functools.partial(pairs.product, u=spec.u, v=spec.v), pairs.add
    return 1, lambda c, d: _normal(c * d), _add


def ground_degree(ground: dict) -> int:
    """The total degree of a ground map; -1 for the zero map."""
    return monomial_degree(max(ground)) if ground else -1


def _divided(ground: dict, lc, spec: FieldSpec) -> dict:
    """A ground map divided by a nonzero ground element."""
    if spec.is_quadratic:
        return pairs.divided(ground, lc, spec.u, spec.v)
    n, d = lc.denominator, lc.numerator
    return {e: pairs.quotient(c, n, d) for e, c in ground.items()}


# The parser in `cli` refuses a product or a power whose expansion would
# multiply more than this many pairs of terms, before it expands it, and
# `singular` a translate of more terms or charged more than MAX_PARSE_BITS.
# A product of polynomials with m and n terms multiplies m*n pairs; a power
# is charged its last squaring, each half bounded by the C(n+j-1, j)
# monomials a j-th power of n terms can have.  So the terms the program
# itself renders, as p^14*q^4 or (1 - t)*p^7, always pass, while (x+1)^2000
# (about 10^6 pairs) and (x+y+1)^400 (about 4*10^8) are refused at once.  The
# corpora's inputs need at most 6 pairs (tests/test_corpus.py); at the bound
# the densest expansion, (x+y+z+p+q+1)^10, has 3003 terms.
MAX_PARSE_PAIRS = 2**16

# It also refuses a literal or a power whose coefficients would pass this
# many bits, before it converts or computes them.  A literal of d digits is
# charged d / 0.3 bits, so no uint token of more than 1229 digits reaches
# int().  A power f^e is charged e times the bits of f's coefficient 1-norm
# and of its common denominator, theta counting as max(1, |u| + |v|):
# nothing for a monomial with coefficient 1 or -1, e bits for (x+1)^e, and
# 400,000 for 3^200000, which is refused.  The corpora's coefficients stay
# under 27 bits, inputs and outputs alike (tests/test_corpus.py).
MAX_PARSE_BITS = 2**12


def _ceil_log2(value) -> int:
    """ceil(log2(value)) for a rational value >= 1, and 0 below 1."""
    return (math.ceil(value) - 1).bit_length() if value > 1 else 0


def _power_bits(base: MPoly, exponent: int) -> int:
    spec = base.spec
    kappa = max(1, abs(spec.u) + abs(spec.v)) if spec.is_quadratic else 0
    norm, den = 0, 1
    ground = base._ground.values()
    for a, b in ground if spec.is_quadratic else ((c, 0) for c in ground):
        norm += abs(a) + abs(b) * kappa
        den = math.lcm(den, a.denominator, b.denominator)
    return exponent * (_ceil_log2(norm * den) + _ceil_log2(den))


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
        return {unpack(m): _as_scalar(c, spec) for m, c in self._ground.items()}

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
        return len(self._ground) == 1 and self._ground.get(0) in _ONES

    def constant_value(self) -> FieldScalar:
        if not self.is_constant():
            raise NotConstant("polynomial is not constant")
        return _as_scalar(self._ground.get(0, 0), self.spec)

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
        return _as_scalar(self._ground[max(self._ground)], self.spec)

    def monic(self) -> "MPoly":
        """Divide by the leading coefficient (zero stays zero)."""
        if not self._ground:
            return self
        lc = self._ground[max(self._ground)]
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
        add = pairs.add if self.spec.is_quadratic else _add
        return MPoly._raw(add(dict(self._ground), other._ground, sign), self.spec)

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
        ground, spec = self._ground, self.spec
        if n < 2 or not ground:
            return self if n else MPoly.one(spec)
        bounded(monomial_degree(max(ground)) * n)
        if len(ground) == 1:
            [(m, c)] = ground.items()
            c = pairs.power(c, n, spec.u, spec.v) if spec.is_quadratic else c**n
            return MPoly._raw({n * m: c}, spec)
        if len(ground) > 2:  # by squaring
            half = self ** (n >> 1)
            return half * half * self if n & 1 else half * half
        # two terms: the binomial theorem, C(n, k) a^k b^(n-k) at k*m1 + (n-k)*m2
        one, times, _ = ground_arithmetic(spec)
        (m1, a), (m2, b) = ground.items()
        powers_b = [one]
        for _ in range(n):
            powers_b.append(times(powers_b[-1], b))
        out, a_k, binomial = {}, one, 1
        for k in range(n + 1):
            scale = (binomial, 0) if spec.is_quadratic else binomial
            out[k * m1 + (n - k) * m2] = times(scale, times(a_k, powers_b[n - k]))
            a_k = times(a_k, a)
            binomial = binomial * (n - k) // (k + 1)
        return MPoly._raw(out, spec)

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
        scaled = [(m - unit, k, c) for m, c in self._ground.items() if (k := exponent_at(m, s))]
        if self.spec.is_quadratic:
            out = {m: (_normal(a * k), _normal(b * k)) for m, k, (a, b) in scaled}
        else:
            out = {m: _normal(c * k) for m, k, c in scaled}
        return MPoly._raw(out, self.spec)

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
        """Exact evaluation at a point given as {variable: FieldScalar}."""
        spec = self.spec
        # over Q(theta) the arithmetic runs on FieldScalars, over Q on rationals
        scalar = (lambda c: _as_scalar(c, spec)) if spec.is_quadratic else (lambda c: c)
        values = {VARIABLE_INDEX[n]: scalar(_as_coefficient(x, spec)) for n, x in point.items()}
        total = 0
        for m, coeff in self._ground.items():
            term = scalar(coeff)
            for i, e in enumerate(unpack(m)):
                if e:
                    if i not in values:
                        raise MissingValue("no value supplied for %s" % VARIABLES[i])
                    term = term * values[i] ** e
            total = total + term
        return _as_scalar(total, self.spec)

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
    return MPoly._raw(_products(operands, first.spec), first.spec)


def _products(operands, spec: FieldSpec) -> dict:
    """`sum_of_products` on ground maps over spec, k != 0 and f, g nonzero."""
    if spec.is_quadratic:
        return pairs.sum_of_products(operands, spec.u, spec.v)
    out = {}
    get = out.get
    for k, left, right in operands:
        if len(left) > len(right):  # the shorter operand on the outside
            left, right = right, left
        for e1, c1 in left.items():
            if k != 1:
                c1 = k * c1
            for e2, c2 in right.items():
                have = get(e := e1 + e2)
                out[e] = c1 * c2 if have is None else have + c1 * c2
    return {e: c if c.__class__ is int else _normal(c) for e, c in out.items() if c}


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
    ground = f._ground
    if not ground:
        return "0"
    chunks = []
    try:
        for m in sorted(ground, reverse=True):
            coeff = ground[m]
            mono = _render_monomial(m)
            if coeff.__class__ is tuple:
                coeff = _as_scalar(coeff, f.spec) if coeff[1] else coeff[0]
            if coeff.__class__ is FieldScalar:
                chunks += " + ", "(%s)" % (coeff,) if not mono else "(%s)*%s" % (coeff, mono)
                continue
            text = str(coeff)
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
    spec, divisor = f.spec, g._ground
    if len(divisor) == 1:  # one guarded subtraction a term
        [(m, lc)] = divisor.items()
        quotient = {}
        for e, c in f._ground.items():
            d = monomial_quotient(e, m)
            if d is None:
                return None
            quotient[d] = c
        return MPoly._raw(quotient if lc in _ONES else _divided(quotient, lc, spec), spec)
    add = pairs.add if spec.is_quadratic else _add
    lm = max(divisor)
    lc, quotient, rest = divisor[lm], {}, dict(f._ground)
    while rest:  # trial division from the leading term
        top = max(rest)
        q = monomial_quotient(top, lm)
        if q is None:
            return None
        step = _divided({q: rest[top]}, lc, spec)
        quotient.update(step)
        add(rest, _products([(1, step, divisor)], spec), -1)
    return MPoly._raw(quotient, spec)


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    quotient = try_exact_divide(f, g)
    if quotient is None:
        raise InexactDivision("inexact polynomial division")
    return quotient


def divides(g: MPoly, f: MPoly) -> bool:
    """True iff g divides f exactly (g nonzero)."""
    return try_exact_divide(f, g) is not None


def _monomial_content(monomials) -> int:
    """The gcd of packed monomials, packed.  Only the fields of the
    variables of one monomial are read: any other field has minimum 0."""
    if 0 in monomials:
        return 0
    first = next(iter(monomials))
    return sum(min([exponent_at(m, s) for m in monomials]) * u
               for s, u in zip(SHIFT, UNIT) if exponent_at(first, s))


def _shift_down(f: MPoly, shift: int) -> MPoly:
    """f divided by the packed monomial shift, which divides every term."""
    return MPoly._raw({m - shift: c for m, c in f._ground.items()}, f.spec) if shift else f


def _shift_up(f: MPoly, shift: int) -> MPoly:
    """f times the packed monomial shift, with no kernel call."""
    return MPoly._raw({m + shift: c for m, c in f._ground.items()}, f.spec) if shift else f


def _gcd_modular(f: MPoly, g: MPoly, variables) -> MPoly:
    """gcd of two polynomials over Q or Q(theta) in the variables
    VARIABLES[i], i in `variables` (every variable either one has), made
    monic.  `modular.field_gcd` runs Euclid in the first of them and
    evaluates the last one first."""
    from . import modular  # on first use: one-line invocations mostly take no gcd

    spec = f.spec
    shifts = [SHIFT[i] for i in variables]
    theta = (spec.u, spec.v) if spec.is_quadratic else None

    def divides_both(h):
        h = MPoly._raw(h, spec)
        return try_exact_divide(f, h) is not None and try_exact_divide(g, h) is not None

    return MPoly._raw(modular.field_gcd(f._ground, g._ground, shifts, theta, divides_both), spec)


def _gcd_raw(f: MPoly, g: MPoly) -> MPoly:
    """gcd of two nonzero polynomials, up to a scalar unit."""
    spec = f.spec
    shift_f, shift_g = _monomial_content(f._ground), _monomial_content(g._ground)
    shift = _monomial_content((shift_f, shift_g))
    mono = MPoly._raw({shift: _as_coefficient(1, spec)}, spec)
    f, g = _shift_down(f, shift_f), _shift_down(g, shift_g)
    if f.is_constant() or g.is_constant():
        return mono
    names_f, names_g = f.variables(), g.variables()
    shared = names_f & names_g
    if not shared:
        return mono
    if f._ground == g._ground:  # the cheap win first
        return _shift_up(f, shift)
    # most pairs left here are coprime: in two variables, certify that
    # first, by images no denser than the engine's evaluations
    names = sorted(names_f | names_g)
    if len(names) == 2:
        from . import modular
        v, w = (SHIFT[VARIABLE_INDEX[name]] for name in names)
        theta = (spec.u, spec.v) if spec.is_quadratic else None
        if modular.certified_coprime(f._ground, g._ground, v, w, theta):
            return mono
    # Euclid runs in the shared variable appearing in the most terms
    def frequency(name):
        s = SHIFT[VARIABLE_INDEX[name]]
        return sum(1 for m in (*f._ground, *g._ground) if exponent_at(m, s))

    first = max(sorted(shared), key=frequency)
    rest = sorted(VARIABLE_INDEX[name] for name in names if name != first)
    return _shift_up(_gcd_modular(f, g, (VARIABLE_INDEX[first], *rest)), shift)


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
    lc = den._ground[max(den._ground)]
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

