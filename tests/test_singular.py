"""Local singularity invariants and the homogeneous toolkit."""

import math
import random
from fractions import Fraction

import pytest

from webflat import (
    RATIONALS,
    AffineVectorField,
    FieldScalar,
    MPoly,
    TAU_INFINITE,
    classification_field,
    classify_singularity,
    multiplicity_nu,
    poly_gcd,
    quadratic_field,
    saturate,
    verify_classification,
)
from webflat.errors import (
    DegenerateParameter,
    NonHomogeneous,
    NotSingular,
    ZeroField,
)
from webflat.cli import parse_poly
import webflat.singular as singular

from helpers import ZeroTangentCone, homogeneous_analysis, random_poly_td

P = parse_poly
EISENSTEIN = quadratic_field(1, -1)
ORIGIN = (Fraction(0), Fraction(0))


def fr(n, d=1):
    return Fraction(n, d)


# -- saturation ------------------------------------------------------------


def test_saturate_monomial_factor():
    sat, common = saturate(AffineVectorField(P("x^2"), P("x*y")))
    assert (sat.a, sat.b) == (P("x"), P("y"))
    assert common == P("x")


def test_saturate_coprime_pair():
    vf = AffineVectorField(P("x^3"), P("y^3 - 1"))
    sat, common = saturate(vf)
    assert sat is vf
    assert common.is_one()


def test_saturate_two_factors():
    vf = AffineVectorField(P("x*y*(x + 1)"), P("x*y*(y - 1)"))
    sat, common = saturate(vf)
    assert (sat.a, sat.b) == (P("x + 1"), P("y - 1"))
    assert common == P("x*y")


def test_saturate_returns_coprime_components():
    rng = random.Random(12)
    for _ in range(20):
        a = random_poly_td(rng, ("x", "y"), 2, 2, nonzero=True)
        b = random_poly_td(rng, ("x", "y"), 2, 2, nonzero=True)
        h = random_poly_td(rng, ("x", "y"), 1, 2, nonzero=True)
        sat, _ = saturate(AffineVectorField(h * a, h * b))
        assert poly_gcd(sat.a, sat.b).is_constant()


def test_zero_field_rejected():
    with pytest.raises(ZeroField):
        AffineVectorField(MPoly.zero(), MPoly.zero())


# -- multiplicity ------------------------------------------------------------


def test_nu_golden_at_0_1():
    vf = AffineVectorField(P("x^3"), P("y^3 - 1"))
    assert multiplicity_nu(vf, (fr(0), fr(1))) == 1


def test_nu_homogeneous_at_origin():
    vf = AffineVectorField(P("x^3"), P("y^3"))
    assert multiplicity_nu(vf, ORIGIN) == 3
    assert classify_singularity(vf, ORIGIN).special


def test_nu_regular_point():
    vf = AffineVectorField(P("x^3"), P("y^3 - 1"))
    assert multiplicity_nu(vf, (fr(1), fr(1))) == 0


def test_regular_point_is_decided_before_translating(monkeypatch):
    """x^200000 + y does not vanish at (1, 0).  nu is 0 and the report
    refuses the point without expanding the translate (x + 1)^200000."""

    def refuse(self, bindings):
        raise AssertionError("a translate was expanded")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    for spec in (None, quadratic_field(1, -1)):
        vf = AffineVectorField(P("x^200000 + y", spec), P("y^3", spec))
        assert multiplicity_nu(vf, (fr(1), fr(0))) == 0
        with pytest.raises(NotSingular):
            classify_singularity(vf, (fr(1), fr(0)))


def test_one_saturation_per_singularity_report(monkeypatch):
    """A report at a singular point saturates (one gcd) and translates the
    field once, for nu and tau alike."""
    calls = []
    original = singular.saturate

    def counting(vf):
        calls.append(vf)
        return original(vf)

    monkeypatch.setattr(singular, "saturate", counting)
    for spec in (None, EISENSTEIN):
        cases = [
            ("(x - 1)*x^3 ; y", (fr(1), fr(0)), 1, 2),
            ("x*(x^2 + y^2) ; x*(x*y - y^3)", ORIGIN, 2, 2),
        ]
        if spec is not None:
            cases.append(("x - t ; y + t*x - t^2", (FieldScalar.theta(spec), fr(0)), 1, 1))
        for text, pt, nu, t in cases:
            vf = AffineVectorField(*(P(part, spec) for part in text.split(";")))
            del calls[:]
            report = classify_singularity(vf, pt)
            assert (report.nu, report.tau) == (nu, t), text
            assert len(calls) == 1, text


def test_nu_uses_saturation():
    vf = AffineVectorField(P("x^2"), P("x*y"))
    assert multiplicity_nu(vf, ORIGIN) == 1


def test_nu_translation_invariant():
    rng = random.Random(345)
    for _ in range(10):
        a = random_poly_td(rng, ("x", "y"), 3, 3, nonzero=True)
        b = random_poly_td(rng, ("x", "y"), 3, 3, nonzero=True)
        vf = AffineVectorField(a, b)
        x0, y0 = fr(rng.randint(-3, 3)), fr(rng.randint(-3, 3))
        moved = AffineVectorField(
            a.substitute({"x": P("x") + MPoly.constant(x0), "y": P("y") + MPoly.constant(y0)}),
            b.substitute({"x": P("x") + MPoly.constant(x0), "y": P("y") + MPoly.constant(y0)}),
        )
        assert multiplicity_nu(vf, (x0, y0)) == multiplicity_nu(moved, ORIGIN)


# -- tau -----------------------------------------------------------------------


def test_tau_nonradial_linear_part():
    assert classify_singularity(AffineVectorField(P("x"), P("2*y")), ORIGIN).tau == 1


def test_tau_radial_plus_quadratic():
    vf = AffineVectorField(P("x + x^2"), P("y"))
    assert classify_singularity(vf, ORIGIN).tau == 2


def test_tau_linear_radial_multiple_plus_cubic():
    # (alpha*x + beta*y) * R + X3 with a non-radial cubic part
    vf = AffineVectorField(P("(x + 2*y)*x + y^3"), P("(x + 2*y)*y"))
    assert multiplicity_nu(vf, ORIGIN) == 2
    assert classify_singularity(vf, ORIGIN).tau == 3


def test_tau_infinite_for_radial_multiples():
    vf = AffineVectorField(P("x^3*x"), P("x^3*y"))
    assert classify_singularity(vf, ORIGIN).tau == TAU_INFINITE
    assert math.isinf(classify_singularity(vf, ORIGIN).tau)


def test_tau_rejects_regular_points():
    vf = AffineVectorField(P("x^3"), P("y^3 - 1"))
    with pytest.raises(NotSingular):
        classify_singularity(vf, (fr(1), fr(1))).tau


def test_tau_at_least_nu():
    rng = random.Random(777)
    checked = 0
    while checked < 15:
        a = random_poly_td(rng, ("x", "y"), 3, 2)
        b = random_poly_td(rng, ("x", "y"), 3, 2)
        if a.is_zero() and b.is_zero():
            continue
        vf = AffineVectorField(a, b)
        nu = multiplicity_nu(vf, ORIGIN)
        if nu == 0:
            continue
        t = classify_singularity(vf, ORIGIN).tau
        assert t >= nu
        checked += 1


# -- classification reports -------------------------------------------------------


def test_classify_golden_not_special():
    vf = AffineVectorField(P("x^3"), P("y^3 - 1"))
    report = classify_singularity(vf, (fr(0), fr(1)))
    assert report.nu == 1
    assert report.tau == 1
    assert not report.radial
    assert not report.special


def test_classify_radial_singularity():
    vf = AffineVectorField(P("x + x^2"), P("y"))
    report = classify_singularity(vf, ORIGIN)
    assert report.nu == 1
    assert report.tau == 2
    assert report.radial
    assert report.special


def test_singularity_report_fields():
    assert singular.SingularityReport._fields == ("point", "nu", "tau", "radial", "special")
    assert singular.SingularityReport._field_defaults == {}
    report = classify_singularity(AffineVectorField(P("x^3"), P("y^3 - 1")), (fr(0), fr(1)))
    assert report == singular.SingularityReport((fr(0), fr(1)), 1, 1, False, False)


def test_classify_rejects_regular_point():
    vf = AffineVectorField(P("x^3"), P("y^3 - 1"))
    with pytest.raises(NotSingular):
        classify_singularity(vf, (fr(2), fr(0)))


def test_special_iff_nu2_or_radial():
    rng = random.Random(31337)
    checked = 0
    while checked < 15:
        a = random_poly_td(rng, ("x", "y"), 3, 2)
        b = random_poly_td(rng, ("x", "y"), 3, 2)
        if a.is_zero() and b.is_zero():
            continue
        vf = AffineVectorField(a, b)
        if multiplicity_nu(vf, ORIGIN) == 0:
            continue
        report = classify_singularity(vf, ORIGIN)
        assert report.special == (report.nu >= 2 or report.radial)
        assert report.tau >= report.nu
        checked += 1


def test_darboux_weak_form():
    # saturated degree-3 foliation with a nu = 3 point at the origin and a
    # second singular point at (1, 1): the second one must have nu <= 2
    vf = AffineVectorField(P("x^3 - x^4"), P("y^3 - x^3*y"))
    sat, common = saturate(vf)
    assert common.is_one()
    assert multiplicity_nu(vf, ORIGIN) == 3
    other = classify_singularity(vf, (fr(1), fr(1)))
    assert 1 <= other.nu <= 2


# -- homogeneous toolkit ------------------------------------------------------------


def test_analysis_classification_family():
    theta = FieldScalar.theta(EISENSTEIN)
    analysis = homogeneous_analysis(classification_field(theta))
    t = MPoly.constant(theta, EISENSTEIN)
    x = MPoly.variable("x", EISENSTEIN)
    y = MPoly.variable("y", EISENSTEIN)
    assert analysis.tangent_cone.monic() == (x * y * (y - x) * (y - t * x)).monic()
    assert analysis.vertical_line
    assert analysis.unsplit is None
    slopes = set(analysis.slopes)
    assert slopes == {FieldScalar(0, 0, EISENSTEIN), FieldScalar(1, 0, EISENSTEIN), theta}
    assert len(analysis.pj) == 4
    assert all(d.is_zero() for d in analysis.pj_discriminants)


def test_analysis_generic_member_not_flat_system():
    # generic (alpha1, alpha2, alpha3, nu) in the slope-(0,1,nu) normal
    # form leaves at least one tangency discriminant nonzero
    rng = random.Random(2718)
    x, y = P("x"), P("y")
    for _ in range(5):
        nu = fr(rng.choice([2, 3, 5, -2]))
        a1 = fr(rng.randint(-3, 3), rng.randint(1, 2))
        a2 = fr(rng.randint(-3, 3), rng.randint(1, 2))
        a3 = fr(rng.randint(-3, 3), rng.randint(1, 2))
        a = (
            x ** 3 * (nu + a1)
            + x ** 2 * y * (a2 - nu - 1)
            + x * y ** 2 * (a3 + 1)
        )
        b = x ** 2 * y * a1 + x * y ** 2 * a2 + y ** 3 * a3
        if a.is_zero() and b.is_zero():
            continue
        analysis = homogeneous_analysis(AffineVectorField(a, b))
        assert any(not d.is_zero() for d in analysis.pj_discriminants)


def test_analysis_fermat_field():
    analysis = homogeneous_analysis(AffineVectorField(P("x^3"), P("y^3")))
    assert analysis.tangent_cone.monic() == P("x*y^3 - x^3*y").monic()
    assert set(s.a for s in analysis.slopes) == {fr(0), fr(1), fr(-1)}
    assert analysis.vertical_line


def test_analysis_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneous):
        homogeneous_analysis(AffineVectorField(P("x^2"), P("y^3")))
    with pytest.raises(NonHomogeneous):
        homogeneous_analysis(AffineVectorField(P("x + x^3"), P("y^3")))


def test_analysis_rejects_radial_multiples():
    with pytest.raises(ZeroTangentCone):
        homogeneous_analysis(AffineVectorField(P("x^2*x"), P("x^2*y")))


def test_analysis_surfaces_unsplit_factors():
    # tangent cone x*y*(y^2 - 2*x^2): sqrt(2) is outside the rationals
    analysis = homogeneous_analysis(AffineVectorField(P("x*y^2"), P("2*x^2*y")))
    assert analysis.tangent_cone.monic() == P("x^3*y - 1/2*x*y^3").monic()
    assert [s.a for s in analysis.slopes] == [fr(0)]
    assert analysis.unsplit is not None
    assert analysis.unsplit.degree_in("t") == 2
    assert analysis.vertical_line


def test_prop3_solution_is_isolated():
    # the classification member makes all four discriminants vanish;
    # perturbing any single coefficient by 1 breaks at least one
    theta = FieldScalar.theta(EISENSTEIN)
    x = MPoly.variable("x", EISENSTEIN)
    y = MPoly.variable("y", EISENSTEIN)
    one = FieldScalar(1, 0, EISENSTEIN)
    base = {
        "a1": theta * Fraction(-3, 4),
        "a2": (theta + one) * Fraction(1, 2),
        "a3": FieldScalar(Fraction(-1, 4), 0, EISENSTEIN),
    }

    def build(nu, a1, a2, a3):
        a = x ** 3 * (nu + a1) + x ** 2 * y * (a2 - nu - one) + x * y ** 2 * (a3 + one)
        b = x ** 2 * y * a1 + x * y ** 2 * a2 + y ** 3 * a3
        return AffineVectorField(a, b)

    member = build(theta, base["a1"], base["a2"], base["a3"])
    assert all(d.is_zero() for d in homogeneous_analysis(member).pj_discriminants)
    for key in ("a1", "a2", "a3"):
        bumped = dict(base)
        bumped[key] = bumped[key] + one
        vf = build(theta, bumped["a1"], bumped["a2"], bumped["a3"])
        discs = homogeneous_analysis(vf).pj_discriminants
        assert any(not d.is_zero() for d in discs), key
    # perturbing nu itself
    vf = build(theta + one, base["a1"], base["a2"], base["a3"])
    assert any(not d.is_zero() for d in homogeneous_analysis(vf).pj_discriminants)


# -- classification verification ---------------------------------------------------


def test_verify_classification_roots():
    theta = FieldScalar.theta(EISENSTEIN)
    assert verify_classification(theta)
    assert verify_classification(FieldScalar(1, 0, EISENSTEIN) - theta)



@pytest.mark.parametrize("field", ("rationals", "t^2=t-1"))
def test_classification_field_is_integral_at_integral_parameters(field):
    """An integral nu gives only int coefficients (both components over
    Q(theta)), and the field is 4 times the family's normal form
    a = nu/4 x^3 - (nu+1)/2 x^2 y + 3/4 x y^2,
    b = -3 nu/4 x^2 y + (nu+1)/2 x y^2 - 1/4 y^3."""
    spec = RATIONALS if field == "rationals" else EISENSTEIN
    one = FieldScalar(1, 0, spec)
    values = [FieldScalar(k, 0, spec) for k in (2, 3, -1, -7, 12)]
    if spec.is_quadratic:
        theta = FieldScalar.theta(spec)
        values += [theta, one - theta, 2 + 3 * theta, -5 * theta]
    x, y = MPoly.variable("x", spec), MPoly.variable("y", spec)
    for nu in values + [FieldScalar(Fraction(1, 2), 0, spec), FieldScalar(Fraction(2, 3), 0, spec)]:
        vf = classification_field(nu)
        quarter, half = Fraction(1, 4), Fraction(1, 2)
        a = x**3 * (nu * quarter) - x**2 * y * ((nu + 1) * half) + x * y**2 * Fraction(3, 4)
        b = -(x**2 * y) * (nu * Fraction(3, 4)) + x * y**2 * ((nu + 1) * half) - y**3 * quarter
        assert (vf.a, vf.b) == (a * 4, b * 4)
        if nu in values:
            for c in (*vf.a._ground.values(), *vf.b._ground.values()):
                assert all(type(part) is int for part in (c if spec.is_quadratic else (c,))), c

def test_verify_classification_rational_parameters():
    assert not verify_classification(FieldScalar(2))
    assert not verify_classification(FieldScalar(3))


def test_verify_classification_degenerate_parameters():
    with pytest.raises(DegenerateParameter):
        verify_classification(FieldScalar(0))
    with pytest.raises(DegenerateParameter):
        verify_classification(FieldScalar(1))
