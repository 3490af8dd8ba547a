"""Plane 3-webs cut out by slope-cubic equations, and their duals.

The central objects:

* `AffineVectorField` -- a polynomial foliation A d/dx + B d/dy of the
  affine plane, the input of the dual-web pipeline.
* `CubicWebEquation` -- an implicit 3-web F = a0*s^3 + a1*s^2 + a2*s + a3
  where s is the slope variable of some chart.
* `CurvatureForm` -- the web's curvature 2-form, a reduced rational
  coefficient times d(first) ^ d(second) in the recorded chart.

`web_curvature` reads the curvature off as one fraction over D^2, D the
slope cubic's discriminant, from the cubic's Hessian coefficients and the
coefficient derivatives, with no determinant.  `dual_curvature` runs the same
algorithm on the Legendre web of a vector field, with the slope read as
dq/dp = -x, in the dual coordinates (p, q) where p is the line slope and
q the intercept; `is_flat` stops at that fraction's unreduced numerator.
`legendre_transform` expands B(x, p*x + q) - p*A(x, p*x + q) term by
term into the four x-degree coefficients, each one `ground.sum_of_products`
call over the one-term contributions, with no `MPoly` product.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DegenerateParameter,
    DegenerateWeb,
    DegreeExceeded,
    DegreeTooLow,
    InvariantViolated,
    NonHomogeneous,
    SingularPoint,
    SlopeIsBaseVariable,
    ZeroField,
    ZeroPolynomial,
)
from . import ground
from .field import FieldScalar
from .poly import (
    MPoly,
    RatFn,
    cubic_discriminant,
    determinant,
    exact_divide,
    poly_gcd,
    sum_of_products,
    try_exact_divide,
)
from .monomials import SHIFT, UNIT, bounded, exponent_at, monomial_degree


def _require_vars(f: MPoly, allowed, label):
    extra = f.variables() - set(allowed)
    if extra:
        raise InvariantViolated(
            "%s may only involve %s (found %s)" % (label, ", ".join(allowed), ", ".join(sorted(extra)))
        )


class AffineVectorField:
    """Polynomial vector field A d/dx + B d/dy with A, B in (x, y)."""

    __slots__ = ("a", "b")

    def __init__(self, a: MPoly, b: MPoly):
        a._check(b)
        _require_vars(a, ("x", "y"), "vector field component")
        _require_vars(b, ("x", "y"), "vector field component")
        if a.is_zero() and b.is_zero():
            raise ZeroField("both components vanish identically")
        self.a = a
        self.b = b

    @property
    def spec(self):
        return self.a.spec

    def __eq__(self, other):
        if not isinstance(other, AffineVectorField):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return "AffineVectorField(%s ; %s)" % (self.a, self.b)


class HomogeneousVectorField:
    """Vector field A d/dx + B d/dy + C d/dz with homogeneous components
    of one common degree."""

    __slots__ = ("a", "b", "c", "degree")

    def __init__(self, a: MPoly, b: MPoly, c: MPoly):
        a._check(b)
        a._check(c)
        degrees = set()
        for component in (a, b, c):
            _require_vars(component, ("x", "y", "z"), "homogeneous component")
            if component.is_zero():
                continue
            term_degrees = {monomial_degree(m) for m in component._ground}
            if len(term_degrees) != 1:
                raise NonHomogeneous("component %s is not homogeneous" % component)
            degrees |= term_degrees
        if not degrees:
            raise ZeroField("all three components vanish identically")
        if len(degrees) != 1:
            raise NonHomogeneous("components have different degrees %s" % sorted(degrees))
        self.a = a
        self.b = b
        self.c = c
        self.degree = degrees.pop()

    @property
    def spec(self):
        return self.a.spec

    def apply(self, f: MPoly) -> MPoly:
        """The derivation A d/dx + B d/dy + C d/dz applied to f."""
        return (
            self.a * f.derivative("x")
            + self.b * f.derivative("y")
            + self.c * f.derivative("z")
        )

    def __repr__(self):
        return "HomogeneousVectorField(%s ; %s ; %s)" % (self.a, self.b, self.c)


class CubicWebEquation:
    """3-web given implicitly by a cubic in its slope variable.

    `slope_var` is 'p' (web in the (x, y) chart) or 'x' (dual web in the
    (p, q) chart); a0..a3 are the coefficients of slope^3 .. slope^0 and
    involve only the two base variables.  A degenerate equation (slope
    resultant identically zero) can be represented -- querying its
    discriminant is legitimate -- but refuses curvature.
    """

    __slots__ = ("slope_var", "base_vars", "a0", "a1", "a2", "a3", "_cubic_discriminant")

    def __init__(self, slope_var: str, base_vars, a0, a1, a2, a3):
        if slope_var in base_vars:
            raise SlopeIsBaseVariable("slope variable cannot be a base variable")
        for coeff in (a1, a2, a3):
            a0._check(coeff)
        for coeff in (a0, a1, a2, a3):
            _require_vars(coeff, base_vars, "web coefficient")
        if a0.is_zero() and a1.is_zero() and a2.is_zero() and a3.is_zero():
            raise ZeroField("all web coefficients vanish")
        self.slope_var = slope_var
        self.base_vars = tuple(base_vars)
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self._cubic_discriminant = None

    @classmethod
    def from_polynomial(cls, f: MPoly, slope_var: str, base_vars) -> "CubicWebEquation":
        """Split F into slope coefficients; F must have slope degree 3."""
        degree = f.degree_in(slope_var)
        if degree > 3:
            raise DegreeExceeded("slope degree %d exceeds 3" % degree)
        if degree < 3:
            raise DegreeTooLow("slope degree %d; a 3-web needs degree 3" % degree)
        parts, zero = f.coefficients_in(slope_var), MPoly.zero(f.spec)
        return cls(slope_var, tuple(base_vars), *(parts.get(k, zero) for k in (3, 2, 1, 0)))

    def polynomial(self) -> MPoly:
        s = MPoly.variable(self.slope_var, self.a0.spec)
        return ((self.a0 * s + self.a1) * s + self.a2) * s + self.a3

    def cubic_discriminant(self) -> MPoly:
        """D, the discriminant of the slope cubic (`poly.cubic_discriminant`)."""
        if self._cubic_discriminant is None:
            self._cubic_discriminant = cubic_discriminant(self.a0, self.a1, self.a2, self.a3)
        return self._cubic_discriminant

    def discriminant(self) -> MPoly:
        """R = Res(F, dF/ds) = -a0 * D, the slope resultant."""
        return -(self.a0 * self.cubic_discriminant())

    @property
    def spec(self):
        return self.a0.spec

    def __repr__(self):
        return "CubicWebEquation(%s in %s)" % (self.polynomial(), self.slope_var)


class CurvatureForm:
    """coeff * d(chart[0]) ^ d(chart[1]), with coeff stored reduced."""

    __slots__ = ("coeff", "chart")

    def __init__(self, coeff: RatFn, chart):
        self.coeff = coeff
        self.chart = tuple(chart)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CurvatureForm):
            return NotImplemented
        return self.chart == other.chart and self.coeff == other.coeff

    def __repr__(self):
        return "CurvatureForm(%s, chart=%s)" % (self.coeff, self.chart)


class EtaWebSpec:
    """Three foliations dy + y^a * h_i(x, y) dx tangent to y = 0.

    The differences h_i - h_j must not be divisible by y, so the three
    slope branches separate at order exactly a along y = 0.
    """

    __slots__ = ("h1", "h2", "h3", "a")

    def __init__(self, h1: MPoly, h2: MPoly, h3: MPoly, a: int):
        h1._check(h2)
        h1._check(h3)
        for h in (h1, h2, h3):
            _require_vars(h, ("x", "y"), "slope function")
        if a < 0:
            raise DegenerateParameter("order a must be nonnegative")
        y = MPoly.variable("y", h1.spec)
        for left, right, label in ((h1, h2, "h1 - h2"), (h2, h3, "h2 - h3"), (h3, h1, "h3 - h1")):
            diff = left - right
            if diff.is_zero() or try_exact_divide(diff, y) is not None:
                raise InvariantViolated("y divides %s" % label)
        self.h1 = h1
        self.h2 = h2
        self.h3 = h3
        self.a = a


# -- Legendre transform ------------------------------------------------------


def legendre_transform(vf: AffineVectorField) -> CubicWebEquation:
    """Dual web of the foliation, as a cubic in x over the chart (p, q).

    The dual web's equation is B(x, p*x + q) - p*A(x, p*x + q); its
    x-degree is the number of tangencies with a generic line, which must
    be exactly 3 here.  It is read off the field before anything is
    expanded.  For d the total degree, the x^d coefficient is
    B_d(1, p) - p*A_d(1, p); it vanishes exactly when the top homogeneous
    part is radial, x*B_d = y*A_d = x*y*H, and then the x^(d-1)
    coefficient has the term q*H(1, p), so the degree is d - 1.

    The equation is then expanded term by term: c*x^i*y^j in B gives
    C(j, l)*c at x^(i+l)*p^l*q^(j-l) for l = 0..j, and in A the same times
    -p.  Each x-degree sums its contributions in one `ground.scaled`, which
    normalises once.
    """
    d = max(vf.a.total_degree(), vf.b.total_degree())
    x_b_top = {m + UNIT[0]: c for m, c in vf.b._ground.items() if monomial_degree(m) == d}
    y_a_top = {m + UNIT[1]: c for m, c in vf.a._ground.items() if monomial_degree(m) == d}
    degree = d - 1 if x_b_top == y_a_top else d
    if degree > 3:
        raise DegreeExceeded("dual equation has x-degree %d > 3" % degree)
    if degree < 3:
        raise DegreeTooLow("dual equation has x-degree %d < 3" % degree)
    spec, theta = vf.spec, vf.spec.theta
    p, q = UNIT[3], UNIT[4]
    rows = [[] for _ in range(d + 1)]  # x-degree -> its (monomial, k, c) triples
    for terms, shift, sign in ((vf.b._ground, 0, 1), (vf.a._ground, p, -1)):
        for m, c in terms.items():
            i, j = exponent_at(m, SHIFT[0]), exponent_at(m, SHIFT[1])
            for l in range(j + 1):
                rows[i + l].append((l * p + (j - l) * q + shift, sign * math.comb(j, l), c))
    # each coefficient normalised once; the x^d sums of a radial top cancel and are never read
    coefficients = (MPoly._raw(ground.scaled(rows[k], theta), spec) for k in (3, 2, 1, 0))
    web = CubicWebEquation("x", ("p", "q"), *coefficients)
    if web.cubic_discriminant().is_zero():  # a0 is not zero at x-degree 3
        raise DegenerateWeb("dual equation has identically zero discriminant")
    return web


# -- curvature ---------------------------------------------------------------


def web_curvature(web: CubicWebEquation) -> CurvatureForm:
    """Curvature 2-form of a slope-cubic 3-web, in the web's own chart.

    The coefficient is M / D^2 of `_curvature_fraction`, reduced: the
    determinant algorithm's du(alpha2 / R) + dv(alpha1 / R), R = -a0 * D.
    """
    numerator, disc = _curvature_fraction(web)
    # reduce numerator / D^2.  A factor of multiplicity a in the numerator
    # and b in D loses min(a, b) to the gcd with D, and then, only if a > b,
    # min(a - b, b) to the gcd with that first gcd, where it has b as in D.
    if numerator.is_zero():
        coeff = RatFn(numerator, disc)
    else:
        stage_one = poly_gcd(numerator, disc)
        if stage_one.is_one():
            coeff = RatFn._reduced(numerator, disc * disc)
        else:
            numerator = exact_divide(numerator, stage_one)
            den = exact_divide(disc, stage_one)
            stage_two = poly_gcd(numerator, stage_one)
            if stage_two.is_one():
                den = den * disc
            else:
                numerator = exact_divide(numerator, stage_two)
                den = den * exact_divide(disc, stage_two)
            coeff = RatFn._reduced(numerator, den)
    return CurvatureForm(coeff, web.base_vars)


def _curvature_fraction(web: CubicWebEquation):
    """(M, D): the curvature coefficient is M / D^2, unreduced.

    c0..c4 is the derivative row and s, q, p are the Hessian coefficients
    of the slope cubic.  The determinant algorithm's 5x5 determinants are
    alpha_i = a0 * beta_i, and its numerator over R^2 = a0^2 D^2 is a0^2 M.
    Each of s, q, p, beta1, beta2 and M, and each bracket in them, is one
    `sum_of_products` call: its products add into one ground map, which is
    normalised once.
    """
    u, v = web.base_vars
    a0, a1, a2, a3 = web.a0, web.a1, web.a2, web.a3
    disc = web.cubic_discriminant()
    if a0.is_zero() or disc.is_zero():
        raise DegenerateWeb("slope discriminant vanishes identically")
    c0 = a0.derivative(v)
    c1 = a0.derivative(u) + a1.derivative(v)
    c2 = a1.derivative(u) + a2.derivative(v)
    c3 = a2.derivative(u) + a3.derivative(v)
    c4 = a3.derivative(u)
    s = sum_of_products([(3, a0, a2), (-1, a1, a1)])
    q = sum_of_products([(9, a0, a3), (-1, a1, a2)])
    p = sum_of_products([(3, a1, a3), (-1, a2, a2)])
    # beta1 = a3 (q c1 - 2 p c0 - 2 s c2) + (a2 s - a0 p) c3 + 2 (a0 q - a1 s) c4
    beta1 = sum_of_products([
        (1, a3, sum_of_products([(1, q, c1), (-2, p, c0), (-2, s, c2)])),
        (1, c3, sum_of_products([(1, a2, s), (-1, a0, p)])),
        (2, c4, sum_of_products([(1, a0, q), (-1, a1, s)])),
    ])
    # beta2 = (a3 s - a1 p) c1 - 2 (a3 q - a2 p) c0 + a0 (2 p c2 + 2 s c4 - q c3)
    beta2 = sum_of_products([
        (1, c1, sum_of_products([(1, a3, s), (-1, a1, p)])),
        (-2, c0, sum_of_products([(1, a3, q), (-1, a2, p)])),
        (1, a0, sum_of_products([(2, p, c2), (2, s, c4), (-1, q, c3)])),
    ])
    numerator = sum_of_products([
        (1, beta2, disc.derivative(u)),
        (1, beta1, disc.derivative(v)),
        (-1, disc, beta2.derivative(u) + beta1.derivative(v)),
    ])
    return numerator, disc


def _dual_web(vf: AffineVectorField) -> CubicWebEquation:
    """The dual web as a slope cubic over the chart (p, q).

    The Legendre web is a cubic in x whose slope is dq/dp = -x.  With
    x = -s it is, up to sign, the slope cubic a0*s^3 - a1*s^2 + a2*s - a3.
    """
    legendre = legendre_transform(vf)
    a0, a1, a2, a3 = legendre.a0, legendre.a1, legendre.a2, legendre.a3
    web = CubicWebEquation("x", legendre.base_vars, a0, -a1, a2, -a3)
    # D is even in (a1, a3) jointly: reuse the Legendre web's
    web._cubic_discriminant = legendre.cubic_discriminant()
    return web


def dual_curvature(vf: AffineVectorField) -> CurvatureForm:
    """Curvature of the dual web, in the dual chart (p, q): `web_curvature`
    of the sign-flipped Legendre web."""
    return web_curvature(_dual_web(vf))


def is_flat(vf: AffineVectorField) -> bool:
    """True iff the dual web's curvature vanishes identically, that is iff
    the unreduced numerator M over D^2 is zero; no gcd is taken."""
    numerator, _ = _curvature_fraction(_dual_web(vf))
    return numerator.is_zero()


# -- projective side ----------------------------------------------------------


def homogenize(vf: AffineVectorField, d: int) -> HomogeneousVectorField:
    """Lift (A, B) to degree-d homogeneous (A_h, B_h, 0) via z-padding."""
    spec, z = vf.spec, UNIT[2]
    bounded(d)

    def lift(component: MPoly) -> MPoly:
        out = {}
        for m, coeff in component._ground.items():
            total = monomial_degree(m)
            if total > d:
                raise DegreeExceeded(
                    "component degree %d exceeds requested degree %d" % (total, d)
                )
            out[m + (d - total) * z] = coeff
        return MPoly._raw(out, spec)  # injective on exponents in x and y

    return HomogeneousVectorField(lift(vf.a), lift(vf.b), MPoly.zero(spec))


def inflection_divisor(hvf: HomogeneousVectorField) -> MPoly:
    """Determinant of (position row; field applied once; applied twice).

    Zero means the foliation has a degree-1 rational first integral;
    otherwise, for a saturated field of degree d, the result is
    homogeneous of total degree 3d and cuts out the invariant lines
    together with the leaf inflections.
    """
    spec = hvf.spec
    rows = [
        [MPoly.variable("x", spec), MPoly.variable("y", spec), MPoly.variable("z", spec)],
        [hvf.a, hvf.b, hvf.c],
        [hvf.apply(hvf.a), hvf.apply(hvf.b), hvf.apply(hvf.c)],
    ]
    return determinant(rows)


def tangent_cone(vf: AffineVectorField) -> MPoly:
    """y*A - x*B; its linear factors are the invariant lines through the
    origin of a homogeneous field."""
    x = MPoly.variable("x", vf.spec)
    y = MPoly.variable("y", vf.spec)
    return y * vf.a - x * vf.b


class ProjectivePoint:
    """Exact projective triple; equality is up to a scalar."""

    __slots__ = ("coords",)

    def __init__(self, c0: FieldScalar, c1: FieldScalar, c2: FieldScalar):
        if c0.is_zero() and c1.is_zero() and c2.is_zero():
            raise DegenerateParameter("projective point needs a nonzero coordinate")
        self.coords = (c0, c1, c2)

    def same_point(self, other: "ProjectivePoint") -> bool:
        (a0, a1, a2), (b0, b1, b2) = self.coords, other.coords
        return (
            (a0 * b1 - a1 * b0).is_zero()
            and (a0 * b2 - a2 * b0).is_zero()
            and (a1 * b2 - a2 * b1).is_zero()
        )

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.same_point(other)

    def __repr__(self):
        return "(%s : %s : %s)" % self.coords


def _strip_content(coords):
    """Clear denominators and divide out the integer content, keeping signs."""
    scale = math.lcm(*(part.denominator for c in coords for part in (c.a, c.b)))
    scaled = [c * scale for c in coords]
    content = math.gcd(*(part.numerator for c in scaled for part in (c.a, c.b)))
    if content > 1:
        scaled = [c * Fraction(1, content) for c in scaled]
    return tuple(scaled)


def gauss_map_point(hvf: HomogeneousVectorField, pt: ProjectivePoint) -> ProjectivePoint:
    """Tangent line of the foliation at pt, as a point of the dual plane.

    The line coordinates are (B*z - C*y, C*x - A*z, A*y - B*x) evaluated
    at pt; they satisfy the incidence x*a + y*b + z*c = 0 by construction
    and all vanish exactly at singular points, which are rejected.
    """
    x0, y0, z0 = pt.coords
    point = {"x": x0, "y": y0, "z": z0}
    a_val = hvf.a.evaluate_scalar(point)
    b_val = hvf.b.evaluate_scalar(point)
    c_val = hvf.c.evaluate_scalar(point)
    dual = (
        b_val * z0 - c_val * y0,
        c_val * x0 - a_val * z0,
        a_val * y0 - b_val * x0,
    )
    if all(c.is_zero() for c in dual):
        raise SingularPoint("the field is singular (or radial) at %r" % (pt,))
    return ProjectivePoint(*_strip_content(dual))


# -- holomorphy tests ----------------------------------------------------------


def holomorphic_along(form: CurvatureForm, g: MPoly) -> bool:
    """True iff no factor of g, a curve in the form's chart, divides the
    reduced curvature denominator."""
    if g.is_zero():
        raise ZeroPolynomial("holomorphy along the zero curve")
    _require_vars(g, form.chart, "curve")
    return poly_gcd(form.coeff.den, g).is_constant()


def eta_criterion(web_spec: EtaWebSpec) -> bool:
    """Decide holomorphy of the curvature along y = 0 for the three-slope
    family dy + y^a h_i dx.

    Criterion: y^a divides the numerator of d/dx applied to
    N / D = (h12 * dx h23 - h23 * dx h12) / (h12 * h23 * h31), reduced.
    With g = gcd(N, D), N = g*n and D = g*d, that numerator is n'd - nd'
    over a factor of d^2, and the unreduced N'D - ND' is g^2 (n'd - nd').
    y divides no factor of D (`EtaWebSpec`), so y^a divides the one
    exactly when it divides the other, and no gcd is taken.
    """
    if web_spec.a == 0:
        return True
    h12 = web_spec.h1 - web_spec.h2
    h23 = web_spec.h2 - web_spec.h3
    h31 = web_spec.h3 - web_spec.h1
    numerator = h12 * h23.derivative("x") - h23 * h12.derivative("x")
    denominator = h12 * h23 * h31
    outer = numerator.derivative("x") * denominator - numerator * denominator.derivative("x")
    if outer.is_zero():
        return True
    y_power = MPoly.variable("y", web_spec.h1.spec) ** web_spec.a
    return try_exact_divide(outer, y_power) is not None
