"""Exact coefficient fields: the rationals and one quadratic extension.

Elements are `FieldScalar` values `a + b*theta`: `a`, `b` are rational,
each an `int` when integral and a stdlib `Fraction` otherwise (as are `u`
and `v`), and `theta` is a fixed root of `theta^2 = u*theta + v`.  The
minimal polynomial lives in a `FieldSpec`; construction rejects reducible
ones (u^2 + 4v a rational square), so every nonzero element has an inverse.
A product, inverse, power or norm with a theta part is computed by
`ground`, the arithmetic the polynomial kernels use, on the scalar's
ground element (`_element`, `_of`).

Scalars are immutable and every operation is pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import ground
from .errors import DivisionByZero, FieldMismatch, InvalidField, NotQuadratic, ReadOnlyAttribute


def _component(x):
    """x as accepted by Fraction(x), kept as an int when it is integral."""
    if x.__class__ is not int:
        x = Fraction(x)
        if x.denominator == 1:
            x = x.numerator
    return x


def _rational_sqrt(q: int | Fraction) -> Fraction | None:
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


class FieldSpec:
    """Ambient coefficient field: `rationals`, or `quadratic` with
    theta^2 = u*theta + v.  Read-only; equal specs hash alike.  `theta`,
    derived from them, names the field to every function of `ground`: None
    over Q and the pair (u, v) over Q(theta)."""

    __slots__ = ("kind", "u", "v", "theta")

    def __init__(self, kind: str, u=None, v=None):
        if kind == "rationals":
            if u is not None or v is not None:
                raise InvalidField("rationals take no minimal polynomial")
        elif kind == "quadratic":
            u, v = _component(u), _component(v)
            if _rational_sqrt(u * u + 4 * v) is not None:
                raise InvalidField("t^2 = %s*t + %s is reducible over the rationals" % (u, v))
        else:
            raise InvalidField("unknown field kind %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "theta", None if kind == "rationals" else (u, v))

    def __setattr__(self, name, value):
        raise ReadOnlyAttribute("cannot assign to field %r of a FieldSpec" % (name,))

    def __delattr__(self, name):
        raise ReadOnlyAttribute("cannot delete field %r of a FieldSpec" % (name,))

    def __eq__(self, other):
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return (self.kind, self.u, self.v) == (other.kind, other.u, other.v)

    def __hash__(self):
        return hash((self.kind, self.u, self.v))

    def __repr__(self):
        return "FieldSpec(kind=%r, u=%r, v=%r)" % (self.kind, self.u, self.v)

    def __reduce__(self):
        return FieldSpec, (self.kind, self.u, self.v)

    @property
    def is_quadratic(self) -> bool:
        return self.kind == "quadratic"


RATIONALS = FieldSpec("rationals")


def quadratic_field(u, v) -> FieldSpec:
    return FieldSpec("quadratic", u, v)


class FieldScalar:
    """An exact element a + b*theta of the ambient field."""

    __slots__ = ("a", "b", "spec")

    def __init__(self, a, b=0, spec: FieldSpec = RATIONALS):
        a = _component(a)
        b = _component(b)
        if b != 0 and not spec.is_quadratic:
            raise NotQuadratic("theta component requires a quadratic field")
        self.a = a
        self.b = b
        self.spec = spec

    @classmethod
    def theta(cls, spec: FieldSpec) -> "FieldScalar":
        if not spec.is_quadratic:
            raise NotQuadratic("theta only exists in a quadratic field")
        return cls(0, 1, spec)

    @classmethod
    def _fast(cls, a, b, spec: FieldSpec) -> "FieldScalar":
        """Internal: adopt int or Fraction components; integral ones become ints."""
        if a.__class__ is not int and a.denominator == 1:
            a = a.numerator
        if b.__class__ is not int and b.denominator == 1:
            b = b.numerator
        scalar = object.__new__(cls)
        scalar.a = a
        scalar.b = b
        scalar.spec = spec
        return scalar

    @classmethod
    def _of(cls, c, spec: FieldSpec) -> "FieldScalar":
        """Internal: the scalar of a ground element of spec."""
        return cls._fast(*ground.parts(c), spec)

    def _element(self):
        """Internal: the ground element of the scalar."""
        return ground.element(self.a, self.b, self.spec.theta)

    def _coerce(self, other) -> "FieldScalar":
        if isinstance(other, FieldScalar):
            if other.spec is not self.spec and other.spec != self.spec:
                raise FieldMismatch("operands live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldScalar(other, 0, self.spec)
        return NotImplemented

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not FieldScalar or other.spec is not self.spec:
            if (other := self._coerce(other)) is NotImplemented:
                return NotImplemented
        return FieldScalar._fast(self.a + other.a, self.b + other.b, self.spec)

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar._fast(-self.a, -self.b, self.spec)

    def __sub__(self, other):
        if other.__class__ is not FieldScalar or other.spec is not self.spec:
            if (other := self._coerce(other)) is NotImplemented:
                return NotImplemented
        return FieldScalar._fast(self.a - other.a, self.b - other.b, self.spec)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not FieldScalar or other.spec is not self.spec:
            if (other := self._coerce(other)) is NotImplemented:
                return NotImplemented
        spec = self.spec
        if self.b == 0 and other.b == 0:
            return FieldScalar._fast(self.a * other.a, 0, spec)
        return FieldScalar._of(ground.product(self._element(), other._element(), spec.theta), spec)

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        theta = self.spec.theta
        one = {0: ground.element(1, 0, theta)}
        return FieldScalar._of(ground.divided(one, self._element(), theta)[0], self.spec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        spec = self.spec
        if exponent == 0:
            return FieldScalar(1, 0, spec)
        return FieldScalar._of(ground.power(self._element(), exponent, spec.theta), spec)

    # -- field-specific maps --------------------------------------------

    def conjugate(self) -> "FieldScalar":
        """Image under theta -> u - theta, the other root of the minimal
        polynomial."""
        if not self.spec.is_quadratic:
            raise NotQuadratic("conjugation needs a quadratic field")
        return FieldScalar(self.a + self.b * self.spec.u, -self.b, self.spec)

    def norm_value(self) -> int | Fraction:
        """self * conjugate(self), as a rational: a^2 + a*b*u - b^2*v."""
        if not self.spec.is_quadratic:
            raise NotQuadratic("norm needs a quadratic field")
        return ground.norm(self._element(), self.spec.theta)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, FieldScalar):
            return NotImplemented
        same = self.spec is other.spec or self.spec == other.spec
        return same and self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.spec))

    # -- conversions -----------------------------------------------------

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if b == 1:
            bt = "t"
        elif b == -1:
            bt = "-t"
        else:
            bt = "%s*t" % (b,)
        if a == 0:
            return bt
        if b > 0:
            return "%s + %s" % (a, bt if b != 1 else "t")
        return "%s - %s" % (a, bt.lstrip("-"))

    def __repr__(self):
        return "FieldScalar(%s)" % (self,)


def field_sqrt(x: FieldScalar) -> FieldScalar | None:
    """An exact square root of x in its own field, or None.

    Rational case: both numerator and denominator must be perfect squares.
    Quadratic case: solve (a + b*theta)^2 = x by reducing to rational
    square-root tests on the two components.
    """
    spec = x.spec
    if x.is_zero():
        return FieldScalar(0, 0, spec)
    if not spec.is_quadratic:
        r = _rational_sqrt(x.a)
        return None if r is None else FieldScalar(r, 0, spec)
    u, v = spec.u, spec.v
    aa = u * u + 4 * v  # nonzero: FieldSpec rejects every rational square
    d0, d1 = x.a, x.b
    candidates = []
    if d1 == 0:
        # b = 0: a^2 = d0, or 2a + b*u = 0 with a = -b*u/2
        r = _rational_sqrt(d0)
        if r is not None:
            candidates.append(FieldScalar(r, 0, spec))
        b = _rational_sqrt(Fraction(4 * d0, aa))
        if b is not None:
            candidates.append(FieldScalar(-b * u / 2, b, spec))
    else:
        # b != 0; s = b^2 satisfies s^2 (u^2+4v) - s (2*d1*u + 4*d0) + d1^2 = 0
        bb = -(2 * d1 * u + 4 * d0)
        cc = d1 * d1
        rd = _rational_sqrt(bb * bb - 4 * aa * cc)
        candidates_s = [] if rd is None else [(-bb + rd) / (2 * aa), (-bb - rd) / (2 * aa)]
        for s in candidates_s:
            b = _rational_sqrt(s) if s > 0 else None
            if b is not None:
                candidates.append(FieldScalar((d1 - s * u) / (2 * b), b, spec))
    for cand in candidates:
        if cand * cand == x:
            return cand
    return None
