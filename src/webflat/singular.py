"""Local invariants of foliation singularities, roots in the ambient field,
and the homogeneous classification family.

All analysis happens at user-supplied points with coordinates in the
ambient field; nothing here ever solves for singular loci.  `nu` is the
lowest order of a nonzero jet of the saturated field at the point, `tau`
the first order >= nu whose jet is not a multiple of the radial field
(infinite for fields that are radial to every order, e.g. H * R).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bounds import charge_translate
from .errors import DegenerateParameter, NotSingular
from .field import FieldScalar, field_sqrt
from .poly import MPoly, exact_divide, poly_gcd, squarefree_part
from .monomials import UNIT, monomial_degree
from .webs import AffineVectorField, homogenize, inflection_divisor, is_flat

TAU_INFINITE = math.inf


class SingularityReport(NamedTuple):
    point: tuple
    nu: int
    tau: float
    radial: bool
    special: bool


def saturate(vf: AffineVectorField):
    """Divide out the common factor: returns (saturated field, gcd)."""
    common = poly_gcd(vf.a, vf.b)
    if common.is_constant():
        return vf, MPoly.one(vf.spec)
    return (
        AffineVectorField(exact_divide(vf.a, common), exact_divide(vf.b, common)),
        common,
    )


def _translate(f: MPoly, x0, y0) -> MPoly:
    """f(x + x0, y + y0), refused unexpanded by `bounds.charge_translate`."""
    spec, bindings = f.spec, {}
    for name, value in (("x", x0), ("y", y0)):
        if not (shift := MPoly.constant(value, spec)).is_zero():
            bindings[name] = MPoly.variable(name, spec) + shift
    if not bindings:
        return f
    images = {"xy".index(name): image._ground for name, image in bindings.items()}
    charge_translate(f._ground, images, spec.theta, x0, y0)
    return f.substitute(bindings)


def _order(f: MPoly):
    """Lowest total degree of a term; None for the zero polynomial."""
    if f.is_zero():
        return None
    return monomial_degree(min(f._ground))  # the grlex-least term


def _local_parts(vf: AffineVectorField, pt):
    """The saturated field's components translated to pt, or None when one
    of them does not vanish there.  That is told by evaluation, before a
    translate is expanded."""
    saturated, _ = saturate(vf)
    x0, y0 = pt
    point = {"x": x0, "y": y0}
    if saturated.a.evaluate_scalar(point) or saturated.b.evaluate_scalar(point):
        return None
    return _translate(saturated.a, x0, y0), _translate(saturated.b, x0, y0)


def _nu(local) -> int:
    return min(o for o in map(_order, local) if o is not None)


def _tau(local):
    a, b = local
    # the degrees of terms, from nu up: one with no term leaves x*b_k = y*a_k.
    # Both sides are maps of shifted keys, with no product and so no degree
    # check: a jet at the degree bound still answers.
    for k in sorted({monomial_degree(m) for m in (*a._ground, *b._ground)}):
        x_b = {m + UNIT[0]: c for m, c in b._ground.items() if monomial_degree(m) == k}
        if x_b != {m + UNIT[1]: c for m, c in a._ground.items() if monomial_degree(m) == k}:
            return k
    return TAU_INFINITE


def multiplicity_nu(vf: AffineVectorField, pt) -> int:
    """Algebraic multiplicity of the saturated field at pt (0 if regular)."""
    local = _local_parts(vf, pt)
    return 0 if local is None else _nu(local)


def classify_singularity(vf: AffineVectorField, pt) -> SingularityReport:
    """Full local report; `special` marks the singularities whose dual
    lines join the dual web's discriminant.  The field is saturated and
    translated to pt once, for nu and tau alike."""
    local = _local_parts(vf, pt)
    if local is None:
        raise NotSingular("the saturated field does not vanish at (%s, %s)" % tuple(pt))
    nu = _nu(local)
    t = _tau(local)
    radial = nu == 1 and t >= 2
    return SingularityReport(
        point=tuple(pt),
        nu=nu,
        tau=t,
        radial=radial,
        special=nu >= 2 or radial,
    )


# -- roots and the classification family --------------------------------------


def _univariate_coeffs(f: MPoly, var: str):
    """Coefficient list c[0..deg] of a polynomial in one variable."""
    split = f.coefficients_in(var)
    degree = max(split) if split else 0
    out = []
    for k in range(degree + 1):
        coeff = split.get(k)
        if coeff is None:
            out.append(FieldScalar(0, 0, f.spec))
        else:
            out.append(coeff.constant_value())
    return out


def _deflate(coeffs, root):
    """Synthetic division by (t - root); drops the (zero) remainder."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out.append(c + root * out[-1])
    out.pop()
    return list(reversed(out))


def _eval_coeffs(coeffs, value):
    total = FieldScalar(0, 0, value.spec)
    for c in reversed(coeffs):
        total = total * value + c
    return total


def _rational_root_candidates(coeffs):
    """Rational roots of a Fraction-coefficient polynomial, by the
    integer root test after clearing denominators."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return []
    lead = abs(ints[-1])
    low = abs(ints[0])
    if low == 0:
        return []

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    candidates = set()
    for num in divisors(low):
        for den in divisors(lead):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    return sorted(candidates)


def field_roots(coeffs):
    """Roots in the ambient field of a scalar-coefficient polynomial.

    Uses only exact tools: the rational root test (applied to the gcd of
    the rational and theta components) and the quadratic formula via
    exact field square roots.  Returns (distinct roots, unsplit
    remainder coefficients or None).  Multiple roots are deflated fully.
    """
    spec = coeffs[0].spec
    rem = list(coeffs)
    while rem and rem[-1].is_zero():
        rem.pop()
    roots = []
    zero = FieldScalar(0, 0, spec)
    while rem and rem[0].is_zero():
        if zero not in roots:
            roots.append(zero)
        rem = rem[1:]
    # rational roots: common roots of the two rational components
    rational_part = [c.a for c in rem]
    theta_part = [c.b for c in rem]
    if any(v != 0 for v in theta_part):
        t = MPoly.variable("t")
        fa = sum((MPoly.constant(c) * t ** k for k, c in enumerate(rational_part)), MPoly.zero())
        fb = sum((MPoly.constant(c) * t ** k for k, c in enumerate(theta_part)), MPoly.zero())
        shared = poly_gcd(fa, fb)
        shared_coeffs = _univariate_coeffs(shared, "t")
        candidates = _rational_root_candidates([c.a for c in shared_coeffs])
    else:
        candidates = _rational_root_candidates(rational_part)
    for cand in candidates:
        root = FieldScalar(cand, 0, spec)
        while len(rem) > 1 and _eval_coeffs(rem, root).is_zero():
            if root not in roots:
                roots.append(root)
            rem = _deflate(rem, root)
    # what is left: solve degree 1 and 2 exactly, surface the rest
    while len(rem) - 1 in (1, 2):
        if len(rem) == 2:
            root = -rem[0] / rem[1]
        else:
            c, b, a = rem[0], rem[1], rem[2]
            disc = b * b - 4 * a * c
            sqrt_disc = field_sqrt(disc)
            if sqrt_disc is None:
                break
            root = (-b + sqrt_disc) / (2 * a)
        while len(rem) > 1 and _eval_coeffs(rem, root).is_zero():
            if root not in roots:
                roots.append(root)
            rem = _deflate(rem, root)
    unsplit = rem if len(rem) > 1 else None
    roots.sort(key=lambda r: (r.a, r.b))
    return roots, unsplit


def classification_field(nu: FieldScalar) -> AffineVectorField:
    """The one-parameter homogeneous family with invariant lines of
    slopes 0, 1, nu and a vertical one, scaled so that an integral nu gives
    integral coefficients."""
    if nu == 0 or nu == 1:
        raise DegenerateParameter("parameter must avoid 0 and 1")
    spec = nu.spec
    x = MPoly.variable("x", spec)
    y = MPoly.variable("y", spec)
    a = x ** 3 * nu - x ** 2 * y * (2 * (nu + 1)) + x * y ** 2 * 3
    b = -(x ** 2 * y) * (3 * nu) + x * y ** 2 * (2 * (nu + 1)) - y ** 3
    return AffineVectorField(a, b)


def verify_classification(nu: FieldScalar) -> bool:
    """Whether the slope-(0, 1, nu) family member belongs to the flat
    classification: reduced inflection divisor and flat dual web.

    Flat members with a non-reduced inflection divisor exist (nu = 2,
    1/2, -1: the transversal inflection conic degenerates to a double
    pair of lines) and are excluded here.
    """
    vf = classification_field(nu)
    inflection = inflection_divisor(homogenize(vf, 3))
    reduced = exact_divide(inflection.monic(), squarefree_part(inflection)).is_constant()
    return reduced and is_flat(vf)
