"""Geometric pipeline: Legendre transform, curvature, inflection, duals."""

import random
from fractions import Fraction

import pytest

from webflat import (
    RATIONALS,
    AffineVectorField,
    CubicWebEquation,
    EtaWebSpec,
    FieldScalar,
    HomogeneousVectorField,
    MPoly,
    ProjectivePoint,
    RatFn,
    divides,
    dual_curvature,
    eta_criterion,
    exact_divide,
    gauss_map_point,
    holomorphic_along,
    homogenize,
    inflection_divisor,
    is_flat,
    legendre_transform,
    poly_gcd,
    quadratic_field,
    squarefree_part,
    tangent_cone,
    web_curvature,
)
from webflat.errors import (
    DegenerateWeb,
    DegreeExceeded,
    DegreeTooLow,
    InvariantViolated,
    SingularPoint,
    ZeroPolynomial,
)
from webflat.cli import parse_field, parse_poly
from webflat.singular import classification_field
from webflat.webs import _curvature_fraction, _dual_web

import floatkw
from floatkw import evaluate_float
from helpers import (
    dual_line,
    eta_criterion_reduced,
    random_homogeneous,
    random_poly,
    random_poly_td,
    record_engine,
    subresultant_oracle,
)

P = parse_poly

GOLDEN_VF = AffineVectorField(P("x^3"), P("y^3 - 1"))
GOLDEN_NUM = P("(3*p^4 + 22*p^2 - 10*q^3*p^2 - 25 + 18*q^3 + 7*q^6)*p*q^2")
GOLDEN_DEN = P("-3*(p^4 - 2*q^3*p^2 - 2*p^2 + q^6 + 1 - 2*q^3)^2")


def cubic_web(text):
    return CubicWebEquation.from_polynomial(P(text), "p", ("x", "y"))


# -- Legendre transform -------------------------------------------------------


def test_legendre_golden_coefficients():
    web = legendre_transform(GOLDEN_VF)
    assert web.slope_var == "x"
    assert web.base_vars == ("p", "q")
    assert web.a0 == P("p^3 - p")
    assert web.a1 == P("3*p^2*q")
    assert web.a2 == P("3*p*q^2")
    assert web.a3 == P("q^3 - 1")


def test_legendre_radial_rejected():
    with pytest.raises(DegreeTooLow):
        legendre_transform(AffineVectorField(P("x"), P("y")))


def test_legendre_accepts_classification_family():
    spec = quadratic_field(1, -1)
    web = legendre_transform(classification_field(FieldScalar.theta(spec)))
    assert web.polynomial().degree_in("x") == 3


def test_legendre_degenerate_dual_rejected():
    # (A, B) = (0, y^3): the dual equation is (p*x + q)^3, a perfect cube
    # with identically vanishing slope discriminant
    with pytest.raises(DegenerateWeb):
        legendre_transform(AffineVectorField(MPoly.zero(), P("y^3")))


# -- curvature of slope cubics ---------------------------------------------------


def test_three_pencils_flat():
    form = web_curvature(cubic_web("p^3 - p"))
    assert form.is_zero()
    assert form.chart == ("x", "y")


def test_exponential_pencils_flat():
    # slopes 0, -y, -2y; all three foliations rectify together
    form = web_curvature(cubic_web("p^3 + 3*p^2*y + 2*p*y^2"))
    assert form.is_zero()


def test_exponential_pencils_float_cross_check():
    f = floatkw.float_poly_from_mpoly(P("p^3 + 3*p^2*y + 2*p*y^2"))
    num, den = floatkw.curvature_fraction(f, floatkw.X_I, floatkw.Y_I, floatkw.P_I)
    rng = random.Random(11)
    for _ in range(5):
        point = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 0, 0, 0, 0]
        d = floatkw.evaluate(den, point)
        assert abs(d) > 1e-9
        assert abs(floatkw.evaluate(num, point) / d) < 1e-9


def test_swapped_chart_curvature_matches_golden():
    web = cubic_web("(y - p*x)^3 + p^3*x - 1")
    form = web_curvature(web)
    expected = RatFn(
        GOLDEN_NUM.substitute({"p": P("x"), "q": P("y")}),
        GOLDEN_DEN.substitute({"p": P("x"), "q": P("y")}),
    )
    assert form.coeff == expected


def test_degenerate_web_rejected():
    with pytest.raises(DegenerateWeb):
        web_curvature(cubic_web("p^3"))


# -- dual curvature -----------------------------------------------------------------


def test_golden_dual_curvature():
    form = dual_curvature(GOLDEN_VF)
    assert form.chart == ("p", "q")
    assert form.coeff == RatFn(GOLDEN_NUM, GOLDEN_DEN)


def test_classification_family_flat():
    spec = quadratic_field(1, -1)
    assert is_flat(classification_field(FieldScalar.theta(spec)))


def test_radial_multiples_are_flat():
    h = P("x^3 - 2*x*y^2 + y^3")
    assert is_flat(AffineVectorField(h * P("x"), h * P("y")))


def test_monomial_radial_multiple_degenerate():
    # x^3 * R: the dual equation collapses to q*x^3, whose slope
    # discriminant vanishes identically -- not an honest 3-web
    with pytest.raises(DegenerateWeb):
        dual_curvature(AffineVectorField(P("x^4"), P("x^3*y")))
    with pytest.raises(DegenerateWeb):
        is_flat(AffineVectorField(P("x^4"), P("x^3*y")))


def test_golden_not_flat():
    assert not is_flat(GOLDEN_VF)


def test_is_flat_agrees_with_reduced_curvature():
    """is_flat tests the unreduced numerator over R^2 for zero; it must give
    the reduced curvature's verdict on the criterion-02 members theta,
    1 - theta and 2 (all flat) and on seeded non-flat fields."""
    spec = quadratic_field(1, -1)
    theta = FieldScalar.theta(spec)
    fields = [classification_field(nu) for nu in (theta, 1 - theta, FieldScalar(2))]
    rng = random.Random(2718)
    fields += [_random_degree3_field(rng) for _ in range(6)]
    verdicts = [is_flat(vf) for vf in fields]
    assert verdicts == [dual_curvature(vf).is_zero() for vf in fields]
    assert verdicts == [True] * 3 + [False] * 6


# -- curvature covariance -------------------------------------------------------------


def _random_cubic_web(rng):
    while True:
        coeffs = [random_poly_td(rng, ("x", "y"), 2, 2) for _ in range(4)]
        poly = sum(
            (c * MPoly.variable("p") ** (3 - i) for i, c in enumerate(coeffs)),
            MPoly.zero(),
        )
        if poly.degree_in("p") != 3:
            continue
        try:
            web = CubicWebEquation.from_polynomial(poly, "p", ("x", "y"))
        except Exception:
            continue
        if not web.discriminant().is_zero():
            return web


def test_translation_covariance():
    rng = random.Random(5150)
    for _ in range(10):
        web = _random_cubic_web(rng)
        c1 = MPoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        c2 = MPoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        shift = {"x": P("x") + c1, "y": P("y") + c2}
        moved = CubicWebEquation.from_polynomial(
            web.polynomial().substitute(shift), "p", ("x", "y")
        )
        lhs = web_curvature(moved).coeff
        k = web_curvature(web).coeff
        rhs = RatFn(k.num.substitute(shift), k.den.substitute(shift))
        assert lhs == rhs


def test_scaling_covariance():
    rng = random.Random(6021)
    for _ in range(10):
        web = _random_cubic_web(rng)
        lam = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        mu = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 3]))
        pulled = {
            "x": MPoly.constant(lam) * P("x"),
            "y": MPoly.constant(mu) * P("y"),
            "p": MPoly.constant(mu / lam) * P("p"),
        }
        moved = CubicWebEquation.from_polynomial(
            web.polynomial().substitute(pulled), "p", ("x", "y")
        )
        lhs = web_curvature(moved).coeff
        k = web_curvature(web).coeff
        scale = {"x": MPoly.constant(lam) * P("x"), "y": MPoly.constant(mu) * P("y")}
        rhs = RatFn(
            k.num.substitute(scale) * (lam * mu), k.den.substitute(scale)
        )
        assert lhs == rhs


def test_two_stage_reduction_matches_full_reduction():
    """web_curvature reduces numerator / D^2 by a gcd against D and then one
    against that first gcd.  The dual webs of random degree-3 fields include
    factors of D with higher multiplicity in the numerator than in D, where
    the second gcd is not 1."""
    rng = random.Random(5150)
    webs = [_random_cubic_web(rng) for _ in range(10)]
    webs += [_dual_web(_random_degree3_field(rng)) for _ in range(6)]
    deeper = 0
    for web in webs:
        numerator, disc = _curvature_fraction(web)
        coeff = web_curvature(web).coeff
        full = RatFn(numerator, disc * disc)
        assert (coeff.num, coeff.den) == (full.num, full.den)
        stage_one = poly_gcd(numerator, disc)
        if not poly_gcd(exact_divide(numerator, stage_one), disc).is_one():
            deeper += 1
    assert deeper


# -- pole containment -------------------------------------------------------------------


def _random_degree3_field(rng):
    while True:
        a = random_poly_td(rng, ("x", "y"), 3, 3)
        b = random_poly_td(rng, ("x", "y"), 3, 3)
        if a.is_zero() and b.is_zero():
            continue
        vf = AffineVectorField(a, b)
        try:
            legendre_transform(vf)
        except (DegreeTooLow, DegenerateWeb, DegreeExceeded):
            continue
        return vf


def test_pole_containment_random_fields():
    rng = random.Random(314)
    for _ in range(10):
        vf = _random_degree3_field(rng)
        form = dual_curvature(vf)
        disc = legendre_transform(vf).discriminant()
        if form.coeff.den.is_constant():
            continue
        assert divides(squarefree_part(form.coeff.den), disc)


# -- inflection divisor -------------------------------------------------------------------


def test_inflection_radial_vanishes():
    hvf = HomogeneousVectorField(P("x"), P("y"), MPoly.zero())
    assert inflection_divisor(hvf).is_zero()


def test_inflection_golden():
    hvf = HomogeneousVectorField(P("x^3"), P("y^3 - z^3"), MPoly.zero())
    infl = inflection_divisor(hvf)
    assert infl.monic() == P("3*z*x^3*(y^3 - z^3)*(y^2 - x^2)").monic()
    assert infl.total_degree() == 9


def test_inflection_multiplied_field_gains_cube():
    rng = random.Random(21)
    for _ in range(5):
        a = random_homogeneous(rng, 2, ("x", "y", "z"))
        b = random_homogeneous(rng, 2, ("x", "y", "z"))
        c = random_homogeneous(rng, 2, ("x", "y", "z"))
        factor = random_homogeneous(rng, 1, ("x", "y", "z"))
        base = HomogeneousVectorField(a, b, c)
        scaled = HomogeneousVectorField(factor * a, factor * b, factor * c)
        assert inflection_divisor(scaled) == factor ** 3 * inflection_divisor(base)


def test_inflection_ignores_radial_ambiguity():
    rng = random.Random(987123)
    for _ in range(5):
        a = random_homogeneous(rng, 3, ("x", "y", "z"))
        b = random_homogeneous(rng, 3, ("x", "y", "z"))
        c = random_homogeneous(rng, 3, ("x", "y", "z"))
        h = random_homogeneous(rng, 2, ("x", "y", "z"))
        base = HomogeneousVectorField(a, b, c)
        shifted = HomogeneousVectorField(
            a + h * P("x"), b + h * P("y"), c + h * P("z")
        )
        assert inflection_divisor(shifted) == inflection_divisor(base)


@pytest.mark.parametrize("field", (None, "t^2=t+1"))
def test_squarefree_inflection_divisor_in_three_variables(monkeypatch, field):
    """Fields L*(A, B, C) with C != 0 and a line L have inflection divisors
    in x, y and z that L^3 divides; none is a multiple of z alone, so every
    gcd of `squarefree_part` reaches the modular engine in three variables.
    The result is f / gcd(f, f_x, f_y, f_z), taken by the oracle."""
    spec = parse_field(field) if field else RATIONALS
    line = P("x + 2*y - z" if field is None else "x + t*y - z", spec)
    rng = random.Random(2027)
    calls = []

    for degree in (1, 1, 2):
        infl = MPoly.zero(spec)
        while infl.is_zero():
            components = [random_homogeneous(rng, degree, ("x", "y", "z"), spec) for _ in range(3)]
            infl = inflection_divisor(HomogeneousVectorField(*(line * c for c in components)))
        assert infl.variables() == {"x", "y", "z"}
        calls.clear()
        with monkeypatch.context() as patch:
            record_engine(patch, lambda variables, h: calls.append(len(variables)))
            part = squarefree_part(infl)
        assert calls and set(calls) == {3}
        repeated = infl
        for name in ("x", "y", "z"):
            repeated = subresultant_oracle(repeated, infl.derivative(name))
        assert divides(line * line, repeated)
        assert part == exact_divide(infl, repeated).monic()


def test_inflection_degree_is_3d_for_saturated_fields():
    rng = random.Random(777)
    found = {1: 0, 2: 0, 3: 0}
    while min(found.values()) < 2:
        d = rng.choice([1, 2, 3])
        a = random_homogeneous(rng, d, ("x", "y", "z"))
        b = random_homogeneous(rng, d, ("x", "y", "z"))
        c = random_homogeneous(rng, d, ("x", "y", "z"))
        if poly_gcd(poly_gcd(a, b), c).total_degree() != 0:
            continue
        hvf = HomogeneousVectorField(a, b, c)
        infl = inflection_divisor(hvf)
        if infl.is_zero():
            continue
        assert infl.total_degree() == 3 * d
        found[d] += 1


# -- homogenization --------------------------------------------------------------------------


def test_homogenize_golden():
    hvf = homogenize(GOLDEN_VF, 3)
    assert hvf.a == P("x^3")
    assert hvf.b == P("y^3 - z^3")
    assert hvf.c.is_zero()


def test_homogenize_linear():
    hvf = homogenize(AffineVectorField(P("x"), P("y")), 1)
    assert (hvf.a, hvf.b) == (P("x"), P("y"))


def test_homogenize_with_padding():
    hvf = homogenize(AffineVectorField(P("x"), P("y")), 2)
    assert (hvf.a, hvf.b) == (P("x*z"), P("y*z"))
    assert inflection_divisor(hvf).is_zero()


def test_homogenize_degree_exceeded():
    with pytest.raises(DegreeExceeded):
        homogenize(GOLDEN_VF, 2)


# -- web discriminant --------------------------------------------------------------------------


def test_web_discriminant_constant():
    assert cubic_web("p^3 - p").discriminant() == MPoly.constant(-4)


def test_web_discriminant_triple_root():
    web = CubicWebEquation(
        "p", ("x", "y"), MPoly.one(), MPoly.zero(), MPoly.zero(), MPoly.zero()
    )
    assert web.discriminant().is_zero()


def test_curvature_denominator_divides_discriminant():
    form = dual_curvature(GOLDEN_VF)
    disc = legendre_transform(GOLDEN_VF).discriminant()
    assert divides(squarefree_part(form.coeff.den), disc)


# -- tangent cone -------------------------------------------------------------------------------


def test_tangent_cone_examples():
    assert tangent_cone(AffineVectorField(P("x"), P("y"))).is_zero()
    assert tangent_cone(AffineVectorField(P("y"), P("x"))) == P("y^2 - x^2")
    spec = quadratic_field(1, -1)
    theta = FieldScalar.theta(spec)
    vf = classification_field(theta)
    t = MPoly.constant(theta, spec)
    xq = MPoly.variable("x", spec)
    yq = MPoly.variable("y", spec)
    expected = xq * yq * (yq - xq) * (yq - t * xq)
    assert tangent_cone(vf).monic() == expected.monic()


# -- gauss map ------------------------------------------------------------------------------------


def _proj(*coords):
    return ProjectivePoint(*(FieldScalar(c) for c in coords))


def test_gauss_map_golden_point():
    hvf = HomogeneousVectorField(P("x^3"), P("y^3 - z^3"), MPoly.zero())
    assert gauss_map_point(hvf, _proj(1, 2, 1)) == _proj(7, -1, -5)


def test_gauss_map_singular_point_rejected():
    hvf = HomogeneousVectorField(P("x^3"), P("y^3 - z^3"), MPoly.zero())
    with pytest.raises(SingularPoint):
        gauss_map_point(hvf, _proj(0, 1, 1))  # all components vanish there
    radial_multiple = HomogeneousVectorField(P("x^2"), P("x*y"), P("x*z"))
    with pytest.raises(SingularPoint):
        gauss_map_point(radial_multiple, _proj(1, 1, 1))  # parallel to R
    padded = HomogeneousVectorField(P("x*z"), P("y*z"), MPoly.zero())
    with pytest.raises(SingularPoint):
        gauss_map_point(padded, _proj(1, 2, 0))  # singular along z = 0


def test_gauss_map_euler_identity():
    rng = random.Random(4242)
    hvf = HomogeneousVectorField(P("x^3"), P("y^3 - z^3"), MPoly.zero())
    for _ in range(10):
        coords = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if all(c == 0 for c in coords):
            continue
        point = _proj(*coords)
        try:
            image = gauss_map_point(hvf, point)
        except SingularPoint:
            continue
        pairing = sum(
            (a * b for a, b in zip(point.coords, image.coords)),
            FieldScalar(0),
        )
        assert pairing.is_zero()


# -- dual lines --------------------------------------------------------------------------------------


def test_dual_line_origin():
    assert dual_line(FieldScalar(0), FieldScalar(0)) == P("q")


def test_dual_line_affine_point():
    assert dual_line(FieldScalar(1), FieldScalar(2)) == P("q + p - 2")


def test_dual_line_membership():
    x0, y0 = Fraction(3), Fraction(-2)
    line = dual_line(FieldScalar(x0), FieldScalar(y0))
    for p0 in (Fraction(0), Fraction(1), Fraction(-5, 2)):
        q0 = y0 - p0 * x0
        value = line.evaluate_scalar({"p": FieldScalar(p0), "q": FieldScalar(q0)})
        assert value.is_zero()


# -- holomorphy tests -----------------------------------------------------------------------------------


def test_holomorphic_along_golden():
    form = dual_curvature(GOLDEN_VF)
    assert holomorphic_along(form, P("q"))
    assert not holomorphic_along(form, P("p^4 - 2*q^3*p^2 - 2*p^2 + q^6 + 1 - 2*q^3"))


def test_holomorphic_along_flat_everywhere():
    h = P("x^3 - 2*x*y^2 + y^3")
    form = dual_curvature(AffineVectorField(h * P("x"), h * P("y")))
    assert holomorphic_along(form, P("q"))
    assert holomorphic_along(form, P("p*q - 1"))


def test_holomorphic_along_zero_curve_rejected():
    form = dual_curvature(GOLDEN_VF)
    with pytest.raises(ZeroPolynomial):
        holomorphic_along(form, MPoly.zero())


def test_holomorphic_along_refuses_a_curve_outside_the_chart():
    """The curve lives in the form's chart: (p, q) for a dual curvature,
    (x, y) for a web's, whose slope variable p is no curve there."""
    dual = dual_curvature(GOLDEN_VF)
    web = web_curvature(CubicWebEquation.from_polynomial(P("p^3 - x*p + y^3"), "p", ("x", "y")))
    for form, curve, chart in ((dual, "x", "p, q"), (dual, "q + z", "p, q"), (web, "p", "x, y")):
        with pytest.raises(InvariantViolated) as err:
            holomorphic_along(form, P(curve))
        assert str(err.value).startswith("curve may only involve %s" % chart)
    assert holomorphic_along(web, P("y"))


# -- eta criterion ------------------------------------------------------------------------------------------


def test_eta_constant_slopes():
    spec = EtaWebSpec(MPoly.zero(), MPoly.one(), MPoly.constant(2), 1)
    assert eta_criterion(spec)


def test_eta_linear_slope_fails():
    spec = EtaWebSpec(MPoly.zero(), MPoly.one(), P("x"), 1)
    assert not eta_criterion(spec)


def test_eta_order_zero_always_true():
    spec = EtaWebSpec(MPoly.zero(), MPoly.one(), P("x"), 0)
    assert eta_criterion(spec)


def test_eta_invariant_violated():
    with pytest.raises(InvariantViolated):
        EtaWebSpec(P("y"), MPoly.zero(), MPoly.one(), 1)
    with pytest.raises(InvariantViolated):
        EtaWebSpec(P("x"), P("x"), MPoly.one(), 1)


def test_eta_matches_curvature_holomorphy():
    cases = [
        ((MPoly.one(), MPoly.constant(2), MPoly.constant(3)), 1),
        ((MPoly.zero(), MPoly.one(), P("x")), 1),
        ((MPoly.one(), P("1 + x"), MPoly.constant(2)), 1),
        ((P("y"), P("1 + y"), P("2 + y")), 2),
        ((MPoly.zero(), MPoly.one(), P("x")), 2),
    ]
    p = MPoly.variable("p")
    y = MPoly.variable("y")
    for (h1, h2, h3), a in cases:
        spec = EtaWebSpec(h1, h2, h3, a)
        f = MPoly.one()
        for h in (h1, h2, h3):
            f = f * (p + y ** a * h)
        web = CubicWebEquation.from_polynomial(f, "p", ("x", "y"))
        form = web_curvature(web)
        assert eta_criterion(spec) == holomorphic_along(form, y)


@pytest.mark.parametrize("field", [None, "t^2=t+1", "t^2=t-1"])
def test_eta_unreduced_numerator_matches_the_reduced_route(field):
    """eta_criterion, which tests y^a against N'D - ND' as it stands,
    against the route through the reduced N / D and the quotient rule."""
    spec = RATIONALS if field is None else parse_field(field)
    rng = random.Random(2718)
    answers = set()
    checked = 0
    while checked < 80:
        hs = [
            random_poly(rng, ("x", "y"), rng.choice((0, 1, 2)), rng.randint(1, 3), spec=spec,
                        quadratic=True)
            for _ in range(3)
        ]
        a = rng.randint(1, 3)
        try:
            web_spec = EtaWebSpec(*hs, a)
        except InvariantViolated:
            continue
        got = eta_criterion(web_spec)
        assert got == eta_criterion_reduced(web_spec), (hs, a)
        answers.add((a, got))
        checked += 1
    assert answers == {(a, answer) for a in (1, 2, 3) for answer in (True, False)}


# -- exact vs float agreement ------------------------------------------------------------------------------------


def test_exact_curvature_matches_float_pipeline():
    form = dual_curvature(GOLDEN_VF)
    a_float = floatkw.float_poly_from_mpoly(GOLDEN_VF.a)
    b_float = floatkw.float_poly_from_mpoly(GOLDEN_VF.b)
    rng = random.Random(161803)
    checked = 0
    while checked < 20:
        p0 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        q0 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        den_value = evaluate_float(form.coeff.den, {"p": p0, "q": q0})
        if abs(den_value) < 1e-3:
            continue
        exact = evaluate_float(form.coeff.num, {"p": p0, "q": q0}) / den_value
        floated = floatkw.dual_curvature_value(a_float, b_float, p0, q0)
        assert abs(exact - floated) / max(1.0, abs(exact)) < 1e-6
        checked += 1
