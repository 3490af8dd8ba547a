"""Acceptance criteria, one test per criterion.

Each test prints a `criterion NN: PASS` line (run pytest with -s to see
them all; failures surface the line via captured stdout).  Tolerances
are exact unless a criterion states a numeric bound; stated runtime
budgets are asserted.
"""

import random
import time
from fractions import Fraction

from webflat import (
    AffineVectorField,
    CubicWebEquation,
    EtaWebSpec,
    FieldScalar,
    HomogeneousVectorField,
    MPoly,
    RatFn,
    classify_singularity,
    divides,
    dual_curvature,
    eta_criterion,
    holomorphic_along,
    inflection_divisor,
    legendre_transform,
    poly_gcd,
    quadratic_field,
    squarefree_part,
    verify_classification,
    web_curvature,
)
from webflat.cli import parse_poly
from webflat.poly import determinant
from webflat.errors import DegenerateWeb, DegreeExceeded, DegreeTooLow

import floatkw
from floatkw import evaluate_float
from helpers import (
    cofactor_determinant,
    random_homogeneous,
    random_poly,
    random_poly_td,
)

P = parse_poly
GOLDEN_VF = AffineVectorField(P("x^3"), P("y^3 - 1"))


def report(number, description):
    print("criterion %02d: PASS - %s" % (number, description))


def test_criterion_01_golden_curvature():
    start = time.monotonic()
    form = dual_curvature(GOLDEN_VF)
    expected = RatFn(
        P("(3*p^4 + 22*p^2 - 10*q^3*p^2 - 25 + 18*q^3 + 7*q^6)*p*q^2"),
        P("-3*(p^4 - 2*q^3*p^2 - 2*p^2 + q^6 + 1 - 2*q^3)^2"),
    )
    elapsed = time.monotonic() - start
    assert form.chart == ("p", "q")
    assert form.coeff == expected  # cross-multiplied exact equality
    assert elapsed < 1.0, "took %.2fs" % elapsed
    report(1, "golden dual curvature matches the printed fraction (%.2fs)" % elapsed)


def test_criterion_02_flat_classification_family():
    start = time.monotonic()
    spec = quadratic_field(1, -1)
    theta = FieldScalar.theta(spec)
    assert verify_classification(theta) is True
    assert verify_classification(FieldScalar(1, 0, spec) - theta) is True
    assert verify_classification(FieldScalar(2)) is False
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "took %.2fs" % elapsed
    report(2, "classification family: theta and 1-theta pass, 2 fails (%.2fs)" % elapsed)


def test_criterion_03_algebraic_webs_flat():
    start = time.monotonic()
    rng = random.Random(930)
    x, y = P("x"), P("y")
    done = 0
    while done < 5:
        h = random_homogeneous(rng, 3, ("x", "y"))
        if h.is_zero():
            continue
        vf = AffineVectorField(h * x, h * y)
        try:
            form = dual_curvature(vf)
        except (DegenerateWeb, DegreeTooLow):
            continue
        assert form.is_zero()
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "took %.2fs" % elapsed
    report(3, "5 random H*R fields have identically zero dual curvature (%.2fs)" % elapsed)


def test_criterion_04_inflection():
    hvf = HomogeneousVectorField(P("x^3"), P("y^3 - z^3"), MPoly.zero())
    infl = inflection_divisor(hvf)
    assert infl.monic() == P("3*z*x^3*(y^3 - z^3)*(y^2 - x^2)").monic()
    assert infl.total_degree() == 9
    rng = random.Random(404)
    degrees_checked = []
    while len(degrees_checked) < 5:
        d = rng.choice([1, 2, 3])
        a = random_homogeneous(rng, d, ("x", "y", "z"))
        b = random_homogeneous(rng, d, ("x", "y", "z"))
        c = random_homogeneous(rng, d, ("x", "y", "z"))
        if poly_gcd(poly_gcd(a, b), c).total_degree() != 0:
            continue
        infl = inflection_divisor(HomogeneousVectorField(a, b, c))
        if infl.is_zero():
            continue
        assert infl.total_degree() == 3 * d
        degrees_checked.append(d)
    report(4, "inflection divisor exact on the cubic example; degree 3d on %s" % degrees_checked)


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


def test_criterion_05_pole_containment():
    rng = random.Random(5005)
    for _ in range(10):
        vf = _random_degree3_field(rng)
        form = dual_curvature(vf)
        disc = legendre_transform(vf).discriminant()
        if form.coeff.den.is_constant():
            continue  # flat or pole-free: nothing to contain
        assert divides(squarefree_part(form.coeff.den), disc)
    report(5, "curvature poles divide the dual discriminant on 10 random fields")


def test_criterion_06_holomorphy_vs_singularities():
    report_sing = classify_singularity(GOLDEN_VF, (Fraction(0), Fraction(1)))
    assert report_sing.special is False
    form = dual_curvature(GOLDEN_VF)
    assert holomorphic_along(form, P("q")) is True
    report(6, "(0,1) is not special and the curvature is holomorphic along q = 0")


def test_criterion_07_eta_cross_check():
    cases = [
        ((MPoly.one(), MPoly.constant(2), MPoly.constant(3)), 1),
        ((MPoly.zero(), MPoly.one(), P("x")), 1),
        ((MPoly.one(), P("1 + x"), MPoly.constant(2)), 1),
        ((P("y"), P("1 + y"), P("2 + y")), 2),
        ((MPoly.zero(), MPoly.one(), P("x")), 2),
    ]
    p, y = MPoly.variable("p"), MPoly.variable("y")
    agreements = []
    for (h1, h2, h3), a in cases:
        spec = EtaWebSpec(h1, h2, h3, a)
        product = MPoly.one()
        for h in (h1, h2, h3):
            product = product * (p + y ** a * h)
        web = CubicWebEquation.from_polynomial(product, "p", ("x", "y"))
        lhs = eta_criterion(spec)
        rhs = holomorphic_along(web_curvature(web), y)
        assert lhs == rhs
        agreements.append(lhs)
    report(7, "eta criterion matches curvature holomorphy on 5 webs: %s" % agreements)


def _random_cubic_web(rng):
    while True:
        coeffs = [random_poly_td(rng, ("x", "y"), 2, 2) for _ in range(4)]
        poly = sum(
            (c * MPoly.variable("p") ** (3 - i) for i, c in enumerate(coeffs)),
            MPoly.zero(),
        )
        if poly.degree_in("p") != 3:
            continue
        web = CubicWebEquation.from_polynomial(poly, "p", ("x", "y"))
        if not web.discriminant().is_zero():
            return web


def test_criterion_08_covariance_suite():
    rng = random.Random(808)
    for index in range(10):
        web = _random_cubic_web(rng)
        k = web_curvature(web).coeff
        if index % 2 == 0:
            c1 = MPoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            c2 = MPoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            on = {"x": P("x") + c1, "y": P("y") + c2}
            moved = CubicWebEquation.from_polynomial(
                web.polynomial().substitute(on), "p", ("x", "y")
            )
            expected = RatFn(k.num.substitute(on), k.den.substitute(on))
        else:
            lam = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
            mu = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 3]))
            pullback = {
                "x": MPoly.constant(lam) * P("x"),
                "y": MPoly.constant(mu) * P("y"),
                "p": MPoly.constant(mu / lam) * P("p"),
            }
            moved = CubicWebEquation.from_polynomial(
                web.polynomial().substitute(pullback), "p", ("x", "y")
            )
            on = {"x": MPoly.constant(lam) * P("x"), "y": MPoly.constant(mu) * P("y")}
            expected = RatFn(k.num.substitute(on) * (lam * mu), k.den.substitute(on))
        assert web_curvature(moved).coeff == expected
    report(8, "translation and scaling covariance hold exactly on 10 webs")


def test_criterion_09_kernel_property_suites():
    start = time.monotonic()
    rng = random.Random(909)
    # ring axioms, 500 cases
    for _ in range(500):
        f = random_poly(rng, ("x", "y"), 2, 2)
        g = random_poly(rng, ("x", "y"), 2, 2)
        h = random_poly(rng, ("x", "y"), 2, 2)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f == MPoly(dict(f.terms), f.spec)
    # gcd divides-both and scalar stability, 200 cases
    for index in range(200):
        f = random_poly(rng, ("x", "y"), 2, 2, nonzero=True)
        g = random_poly(rng, ("x", "y"), 2, 2, nonzero=True)
        d = poly_gcd(f, g)
        assert divides(d, f) and divides(d, g)
        if index % 4 == 0:
            h = random_poly_td(rng, ("x", "y"), 1, 2, nonzero=True)
            assert poly_gcd(h * f, h * g) == (h.monic() * d).monic()
    # the 3x3 determinant against the cofactor oracle, 100 matrices
    for _ in range(100):
        rows = [[random_poly(rng, ("x", "y"), 1, 2) for _ in range(3)] for _ in range(3)]
        assert determinant(rows) == cofactor_determinant(rows)
    # substitution homomorphism, 200 cases
    bindings = {"x": P("y + 1"), "y": P("x*q - 2")}
    for _ in range(200):
        f = random_poly(rng, ("x", "y"), 2, 2)
        g = random_poly(rng, ("x", "y"), 2, 2)
        assert (f * g).substitute(bindings) == f.substitute(bindings) * g.substitute(bindings)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "took %.2fs" % elapsed
    report(9, "ring/gcd/determinant/substitution property suites (%.1fs)" % elapsed)


def test_criterion_10_exact_float_oracle():
    form = dual_curvature(GOLDEN_VF)
    a_float = floatkw.float_poly_from_mpoly(GOLDEN_VF.a)
    b_float = floatkw.float_poly_from_mpoly(GOLDEN_VF.b)
    rng = random.Random(1010)
    checked = 0
    worst = 0.0
    while checked < 20:
        p0 = complex(rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0))
        q0 = complex(rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0))
        den_value = evaluate_float(form.coeff.den, {"p": p0, "q": q0})
        if abs(den_value) < 1e-3:
            continue
        exact = evaluate_float(form.coeff.num, {"p": p0, "q": q0}) / den_value
        floated = floatkw.dual_curvature_value(a_float, b_float, p0, q0)
        error = abs(exact - floated) / max(1.0, abs(exact))
        worst = max(worst, error)
        assert error < 1e-6
        checked += 1
    report(10, "float rerun agrees with exact curvature at 20 points (worst %.2e)" % worst)
