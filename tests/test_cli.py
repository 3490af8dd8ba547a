"""CLI: grammar, rendering round-trips, exit codes, JSON schema, batch."""

import builtins
import hashlib
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import webflat
from webflat import FieldScalar, MPoly, RatFn, quadratic_field
import webflat.cli as cli
import webflat.ground as ground
import webflat.modular as modular
from webflat.cli import MAX_PARSE_BITS, MAX_PARSE_PAIRS, main, parse_field, parse_poly, run_line
from webflat.errors import (
    DegreeExceeded,
    ParseError,
    ThetaWithoutField,
    UnknownVariable,
    UsageError,
)
from webflat.bounds import MAX_DENSE_CELLS, MAX_EVALUATION_BITS
from webflat.poly import poly_gcd, render_poly
from webflat.webs import AffineVectorField, _dual_web

from helpers import count_kernel_pairs, determinant_curvature_fraction, random_poly, run_capped

EISENSTEIN = quadratic_field(1, -1)


# -- polynomial grammar ------------------------------------------------------


def test_parse_basic_polynomial():
    poly = parse_poly("x^3 - 2*x*y + 1/2")
    assert len(poly.terms) == 3
    assert poly == MPoly.variable("x") ** 3 - MPoly.variable("x") * MPoly.variable("y") * 2 + MPoly.constant(Fraction(1, 2))


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_poly("x^")
    assert err.value.offset == 2


def test_parse_theta_coefficient():
    poly = parse_poly("(1/4)*t*x^3", EISENSTEIN)
    expected = MPoly.variable("x", EISENSTEIN) ** 3 * (
        FieldScalar.theta(EISENSTEIN) * Fraction(1, 4)
    )
    assert poly == expected


def test_theta_without_field():
    with pytest.raises(ThetaWithoutField):
        parse_poly("t + 1")


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as err:
        parse_poly("x + w")
    assert err.value.offset == 4


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")
    with pytest.raises(ParseError):
        parse_poly("x y")


def test_division_only_in_rationals():
    with pytest.raises(ParseError):
        parse_poly("x/2")


def test_unary_minus_and_parens():
    assert parse_poly("-x^2") == -(MPoly.variable("x") ** 2)
    assert parse_poly("-(x - y)^2") == -((MPoly.variable("x") - MPoly.variable("y")) ** 2)
    assert parse_poly("(p*x + q)^3 - 1 - p*x^3") == parse_poly(
        "p^3*x^3 + 3*p^2*x^2*q + 3*p*x*q^2 + q^3 - 1 - p*x^3"
    )


def test_parse_field_spec():
    spec = parse_field("t^2=t-1")
    assert spec.u == 1 and spec.v == -1
    spec2 = parse_field("t^2 = 2*t + 3/4")
    assert spec2.u == 2 and spec2.v == Fraction(3, 4)
    with pytest.raises(UsageError):
        parse_field("t^2=t+6")  # reducible
    with pytest.raises(UsageError):
        parse_field("t=1")
    with pytest.raises(UsageError):
        parse_field("t^2=x")


def test_render_parse_round_trip_random():
    rng = random.Random(8080)
    for _ in range(200):
        poly = random_poly(rng, ("x", "y", "q"), 3, 4)
        assert parse_poly(render_poly(poly)) == poly


def test_render_parse_round_trip_quadratic():
    rng = random.Random(9090)
    for _ in range(50):
        poly = random_poly(rng, ("x", "p"), 3, 3, spec=EISENSTEIN, quadratic=True)
        assert parse_poly(render_poly(poly), EISENSTEIN) == poly


# -- command execution ----------------------------------------------------------


def run_ok(argv):
    out, err, code = run_line(argv)
    assert code == 0, err
    return out


def test_command_fields_and_defaults():
    assert cli.Command._fields == ("verb", "payload", "field_text", "format")
    assert cli.Command._field_defaults == {"payload": (), "field_text": None, "format": "text"}
    assert cli.Command("flat") == cli.Command("flat", (), None, "text")
    cmd = cli.build_command(["tangent-cone", "--vf", "x ; y", "--format", "json"])
    assert (cmd.verb, cmd.field_text, cmd.format) == ("tangent-cone", None, "json")


def test_flat_command_text(capsys):
    code = main(["flat", "--vf", "x^3 ; y^3-1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "flat: false"


def test_flat_command_true():
    out = run_ok(["flat", "--vf", "x*(x^3 + y^3) ; y*(x^3 + y^3)"])
    assert out == "flat: true"


def test_dual_curvature_json_matches_display():
    out = run_ok(["dual-curvature", "--vf", "x^3 ; y^3-1", "--format", "json"])
    payload = json.loads(out)
    assert payload["command"] == "dual-curvature"
    assert payload["field"] is None
    result = payload["result"]
    assert result["kind"] == "ratfn"
    assert result["chart"] == "pq"
    got = RatFn(parse_poly(result["numerator"]), parse_poly(result["denominator"]))
    expected = RatFn(
        parse_poly("(3*p^4 + 22*p^2 - 10*q^3*p^2 - 25 + 18*q^3 + 7*q^6)*p*q^2"),
        parse_poly("-3*(p^4 - 2*q^3*p^2 - 2*p^2 + q^6 + 1 - 2*q^3)^2"),
    )
    assert got == expected


def test_legendre_radial_exits_2(capsys):
    code = main(["legendre", "--vf", "x ; y"])
    captured = capsys.readouterr()
    assert code == 2
    assert "DegreeTooLow" in captured.err


def test_legendre_golden_output():
    out = run_ok(["legendre", "--vf", "x^3 ; y^3-1"])
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["slope"] == "x"
    assert lines["chart"] == "pq"
    assert parse_poly(lines["a0"]) == parse_poly("p^3 - p")
    assert parse_poly(lines["a3"]) == parse_poly("q^3 - 1")


def test_curvature_verb_with_along():
    out = run_ok(["curvature", "--web", "p^3 - p", "--along", "x + y"])
    assert out == "holomorphic: true"


def test_curvature_verb_ratfn_output():
    out = run_ok(["curvature", "--web", "(y - p*x)^3 + p^3*x - 1"])
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["chart"] == "xy"
    assert not parse_poly(lines["numerator"]).is_zero()


def test_inflection_verb():
    out = run_ok(["inflection", "--vf", "x^3 ; y^3 - z^3 ; 0"])
    assert parse_poly(out).monic() == parse_poly("3*z*x^3*(y^3 - z^3)*(y^2 - x^2)").monic()


def test_discriminant_verbs():
    out = run_ok(["discriminant", "--web", "p^3 - p"])
    assert out == "-4"
    out2 = run_ok(["discriminant", "--vf", "x^3 ; y^3-1"])
    assert not parse_poly(out2).is_zero()


def test_tangent_cone_verb():
    out = run_ok(["tangent-cone", "--vf", "y ; x"])
    assert parse_poly(out) == parse_poly("y^2 - x^2")


def test_sing_verb():
    out = run_ok(["sing", "--vf", "x^3 ; y^3-1", "--at", "0,1"])
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["nu"] == "1"
    assert lines["tau"] == "1"
    assert lines["radial"] == "false"
    assert lines["special"] == "false"


def test_sing_verb_json_infinite_tau():
    out = run_ok(["sing", "--vf", "x^3*x ; x^3*y", "--at", "0,0", "--format", "json"])
    result = json.loads(out)["result"]
    assert result["kind"] == "report"
    assert result["tau"] == "infinity"
    assert result["radial"] is True


def test_eta_verb():
    assert run_ok(["eta", "0 ; 1 ; 2", "1"]) == "eta: true"
    assert run_ok(["eta", "0 ; 1 ; x", "1"]) == "eta: false"


def test_classify_verb():
    out = run_ok(["classify", "t", "--field", "t^2=t-1"])
    assert out == "flat: true"
    out2 = run_ok(["classify", "2"])
    assert out2 == "flat: false"
    _, err, code = run_line(["classify", "1"])
    assert code == 2 and "DegenerateParameter" in err


def test_gauss_verb():
    out = run_ok(["gauss", "--vf", "x^3 ; y^3 - z^3 ; 0", "--at", "1,2,1"])
    assert out == "(7 : -1 : -5)"


def test_gauss_singular_exit_2():
    _, err, code = run_line(["gauss", "--vf", "x^3 ; y^3 - z^3 ; 0", "--at", "0,1,1"])
    assert code == 2
    assert "SingularPoint" in err


def test_theta_point_coordinates():
    out = run_ok(
        ["sing", "--vf", "x^2 - t*y^2 ; y^2 - x*y", "--at", "0,0", "--field", "t^2=t-1"]
    )
    assert "nu: 2" in out


# One valid line per verb, with the stdout bytes of its text and its JSON form.
VERB_GOLDEN = [
    (
        ["legendre", "--vf", "x^3 ; y^3-1"],
        "slope: x\nchart: pq\na0: p^3 - p\na1: 3*p^2*q\na2: 3*p*q^2\na3: q^3 - 1\n",
        '{"command": "legendre", "field": null, "result": {"kind": "report", "slope": "x", '
        '"chart": "pq", "a0": "p^3 - p", "a1": "3*p^2*q", "a2": "3*p*q^2", "a3": "q^3 - 1"}}\n',
    ),
    (
        ["curvature", "--web", "p^3 - p", "--along", "x + y"],
        "holomorphic: true\n",
        '{"command": "curvature", "field": null, "result": {"kind": "bool", "value": true}}\n',
    ),
    (
        ["dual-curvature", "--vf", "y^3 ; x"],
        "numerator: -40/243*p*q\ndenominator: p^4*q^4 - 8/27*p^2*q^2 + 16/729\nchart: pq\n",
        '{"command": "dual-curvature", "field": null, "result": {"kind": "ratfn", '
        '"numerator": "-40/243*p*q", "denominator": "p^4*q^4 - 8/27*p^2*q^2 + 16/729", '
        '"chart": "pq"}}\n',
    ),
    (
        ["flat", "--vf", "x^3 ; y^3-1"],
        "flat: false\n",
        '{"command": "flat", "field": null, "result": {"kind": "bool", "value": false}}\n',
    ),
    (
        ["inflection", "--vf", "x^3 ; y^3 - z^3 ; 0"],
        "-3*x^5*y^3*z + 3*x^5*z^4 + 3*x^3*y^5*z - 3*x^3*y^2*z^4\n",
        '{"command": "inflection", "field": null, "result": {"kind": "poly", '
        '"text": "-3*x^5*y^3*z + 3*x^5*z^4 + 3*x^3*y^5*z - 3*x^3*y^2*z^4"}}\n',
    ),
    (
        ["discriminant", "--web", "p^3 - x*p + t*y", "--field", "t^2=t+1"],
        "-4*x^3 + (27 + 27*t)*y^2\n",
        '{"command": "discriminant", "field": "t^2=t+1", "result": {"kind": "poly", '
        '"text": "-4*x^3 + (27 + 27*t)*y^2"}}\n',
    ),
    (
        ["tangent-cone", "--vf", "y ; x"],
        "-x^2 + y^2\n",
        '{"command": "tangent-cone", "field": null, "result": {"kind": "poly", '
        '"text": "-x^2 + y^2"}}\n',
    ),
    (
        ["sing", "--vf", "x^3*x ; x^3*y", "--at", "0,0"],
        "point: (0, 0)\nnu: 1\ntau: infinity\nradial: true\nspecial: true\n",
        '{"command": "sing", "field": null, "result": {"kind": "report", "point": "(0, 0)", '
        '"nu": 1, "tau": "infinity", "radial": true, "special": true}}\n',
    ),
    (
        ["eta", "0 ; 1 ; x", "1"],
        "eta: false\n",
        '{"command": "eta", "field": null, "result": {"kind": "bool", "value": false}}\n',
    ),
    (
        ["classify", "t", "--field", "t^2=t-1"],
        "flat: true\n",
        '{"command": "classify", "field": "t^2=t-1", "result": {"kind": "bool", "value": true}}\n',
    ),
    (
        ["gauss", "--vf", "x^3 ; y^3 - t*z^3 ; 0", "--at", "1,2,1", "--field", "t^2=t+1"],
        "(8 - t : -1 : -6 + t)\n",
        '{"command": "gauss", "field": "t^2=t+1", "result": {"kind": "report", '
        '"point": ["8 - t", "-1", "-6 + t"]}}\n',
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, text, json_text", VERB_GOLDEN, ids=[c[0][0] for c in VERB_GOLDEN])
def test_every_verb_output_pinned(capsys, argv, text, json_text, fmt):
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == (text if fmt == "text" else json_text)


# a value for each verb flag; each golden line reads exactly the flags it has
FLAG_VALUES = {"--vf": "x ; y", "--web": "p^3 - x", "--at": "0,0", "--along": "x"}


@pytest.mark.parametrize("argv", [c[0] for c in VERB_GOLDEN], ids=[c[0][0] for c in VERB_GOLDEN])
def test_a_flag_the_verb_would_ignore_is_a_usage_error(argv):
    """Every known flag a verb does not read, before or after the others:
    `discriminant --web` does not read --vf, nor `curvature` --at."""
    verb = argv[0]
    unread = [flag for flag in FLAG_VALUES if flag not in argv]
    assert unread and run_line(argv)[2] == 0
    for flag in unread:
        message = "error: UsageError: verb %s would ignore %s" % (verb, flag)
        for line in (argv + [flag, FLAG_VALUES[flag]], [verb, flag, FLAG_VALUES[flag]] + argv[1:]):
            assert run_line(line) == ("", message, 1), line


# -- exit code taxonomy -----------------------------------------------------------


def test_usage_errors_exit_1():
    for argv in (
        [],
        ["frobnicate"],
        ["flat"],
        ["flat", "--vf", "x ; y ; z ; w"],
        ["flat", "--vf", "x ; y", "--format", "yaml"],
        ["flat", "--unknown", "1"],
        ["eta", "0 ; 1 ; 2", "one"],
    ):
        _, _, code = run_line(argv)
        assert code == 1, argv


def test_parse_errors_exit_1():
    _, err, code = run_line(["flat", "--vf", "x^ ; y"])
    assert code == 1
    assert "ParseError" in err
    _, err, code = run_line(["flat", "--vf", "t ; y"])
    assert code == 1
    assert "ThetaWithoutField" in err


def test_not_singular_names_the_point_as_sing_prints_it():
    cases = [
        (["sing", "--vf", "x^3 ; y^3-1", "--at", "1,1"], "(1, 1)"),
        (["sing", "--vf", "x^3 ; y^3-1", "--at", "1/2, -3"], "(1/2, -3)"),
        (["sing", "--vf", "x^3 + t*y ; y^3", "--at", "t, 1/2", "--field", "t^2=t-1"],
         "(t, 1/2)"),
        (["sing", "--vf", "x^3 ; y^3", "--at", "1 - 2*t, 0", "--field", "t^2=t+1"],
         "(1 - 2*t, 0)"),
    ]
    for argv, point in cases:
        out, err, code = run_line(argv)
        assert (out, code) == ("", 2), argv
        assert err == "error: NotSingular: the saturated field does not vanish at %s" % point


def test_sing_at_a_regular_point_of_a_huge_degree_field(monkeypatch):
    """The regular point is told by evaluation; no translate is expanded."""

    def refuse(self, bindings):
        raise AssertionError("a translate was expanded")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    out, err, code = run_line(["sing", "--vf", "x^200000+y ; y^3", "--at", "1, 0"])
    assert (out, code) == ("", 2)
    assert err == "error: NotSingular: the saturated field does not vanish at (1, 0)"


def test_sing_reads_tau_off_the_degrees_present():
    """tau is the first degree from nu whose jets are not radial, and only a
    degree with a term can be one, so a huge gap costs nothing."""
    start = time.perf_counter()
    out = run_ok(["sing", "--vf", "x ; y + x^100000000", "--at", "0, 0"])
    assert out == "point: (0, 0)\nnu: 1\ntau: 100000000\nradial: true\nspecial: true"
    assert time.perf_counter() - start < 1


def test_sing_reads_tau_at_the_degree_bound():
    """A jet of total degree 2^31 - 1 is tested for radial with no product,
    so x*b_k past the bound is never built, and tau is the bound.  A result
    that would pass it, the tangent cone of x^(2^31 - 1) d/dx + y d/dy, is
    still refused."""
    assert run_line(["sing", "--vf", "x ; y + x^2147483647", "--at", "0,0"]) == (
        "point: (0, 0)\nnu: 1\ntau: 2147483647\nradial: true\nspecial: true", "", 0)
    assert run_line(["tangent-cone", "--vf", "x^2147483647 ; y"]) == (
        "", "error: DegreeExceeded: total degree 2147483648 is past the bound 2147483647", 2)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_answer_as_commented():
    """Every line of the README's CLI example block but `--batch` exits 0,
    and a line with a comment prints exactly that comment."""
    text = README.read_text(encoding="utf-8")
    block = next(b for b in text.split("```sh\n")[1:] if b.startswith("webflat "))
    checked = []
    for line in block.split("```")[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if "--batch" in argv:
            continue
        out, err, code = run_line(argv)
        assert (err, code) == ("", 0), line
        if comment:
            assert out == comment.strip(), line
            checked.append(out)
    assert checked == ["flat: false", "-4", "(7 : -1 : -5)", "eta: false", "flat: true"]


def test_sing_refuses_a_translate_past_the_parse_bounds(monkeypatch):
    """A translate past MAX_PARSE_PAIRS terms or MAX_PARSE_BITS charged bits
    is refused before it is expanded; one just inside both is expanded."""
    inside = [
        (["x^4096 - 1 ; y", "1, 0"], "(1, 0)"),  # charged exactly MAX_PARSE_BITS
        (["x^255*y^255 - 1 ; y - 1", "1, 1"], "(1, 1)"),  # exactly MAX_PARSE_PAIRS terms
        (["x^4000*y^40 - y^40 + x - 1 ; y", "1, 0"], "(1, 0)"),  # y stays: 4001 + 2 terms
    ]
    for (vf, at), point in inside:
        out, err, code = run_line(["sing", "--vf", vf, "--at", at])
        assert (err, code) == ("", 0), vf
        assert out.startswith("point: %s\nnu: 1\n" % point), vf
    assert 4096 == MAX_PARSE_BITS and 256 * 256 == MAX_PARSE_PAIRS

    def refuse(self, bindings):
        raise AssertionError("a translate was expanded")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    past = [
        ("x^100000000 - 1 ; y", "1,0", 100000001, 100000000),
        ("x^4097 - 1 ; y", "1,0", 4098, 4097),
        ("x^256*y^255 - 1 ; y - 1", "1,1", 65792, 511),
        # x^a*y^b with a + b <= 402 and a <= 400
        ("(y - 1)^2*(x + y)^400 ; x - 1", "1, 1", 403 * 404 // 2 - 3, 802),
        ("(x^4000 - 1)*(%s) + x - 1 ; y" % " + ".join("y^%d" % k for k in range(1, 18)), "1,0",
         17 * 4001 + 2, 4000),  # y stays
    ]
    for vf, at, terms, bits in past:
        out, err, code = run_line(["sing", "--vf", vf, "--at", at])
        assert (out, code) == ("", 2), vf
        point = "(%s)" % ", ".join(part.strip() for part in at.split(","))
        assert err == (
            "error: DegreeExceeded: the translate to %s has %d terms and is charged %d bits, "
            "past the bounds 65536 and 4096" % (point, terms, bits)
        ), vf


def test_point_evaluation_refuses_a_term_past_its_bit_bound():
    """A term evaluated at a point is charged, per variable, the exponent
    times the bits of the variable's value, and refused past
    MAX_EVALUATION_BITS before its powers are computed, even where the
    terms cancel; terms charged exactly the bound are computed, and a term
    with a variable at 0 is skipped uncharged."""
    past = [
        ["gauss", "--vf", "x^100000000 ; y^100000000 ; z^100000000", "--at", "3,2,1"],
        ["sing", "--vf", "x^100000000 - 3^7 ; y", "--at", "3,0"],
        ["gauss", "--vf", "x^16385 - y^16385 ; z^16385 ; z^16385", "--at", "2,2,1"],
    ]
    for argv, bits in zip(past, (2 * 10**8, 2 * 10**8, 2**14 + 1)):
        start = time.perf_counter()
        out, err, code = run_line(argv)
        assert time.perf_counter() - start < 1, argv
        assert (out, code) == ("", 2), argv
        assert err == (
            "error: DegreeExceeded: a term evaluated at the point is charged %d bits, "
            "past the bound 16384" % bits
        ), argv
    inside = ["gauss", "--vf", "x^16384 - y^16384 ; z^16384 ; z^16384", "--at", "2,2,1"]
    assert run_line(inside) == ("(-1 : 2 : -2)", "", 0)
    zero = ["gauss", "--vf", "x^16385*z ; y^16386 ; z^16386", "--at", "3,1,0"]
    assert run_line(zero) == ("(0 : 0 : -1)", "", 0)
    assert MAX_EVALUATION_BITS == 2**14


DENSE_STEPS_FAIL = """
import webflat.modular as modular

def dense(*args):
    raise AssertionError("a dense gcd step ran")

modular.split = modular.gcd = dense  # the engine's first image, the certificate's Euclid
"""


def test_modular_gcd_charges_its_dense_images_before_building_them():
    """Each entry of the modular gcd charges its largest dense image to
    MAX_DENSE_CELLS before it builds any: the certificate its longest row, a
    row of 2*10^8 + 1 entries here, which would not fit in memory, so the
    line runs in a child whose dense gcd steps fail and whose address space
    is capped; the engine an input's grid over all its variables, three
    here."""
    pytest.importorskip("resource")
    web = "p^3 - x*p + y^%d"  # the certificate's rows in y are 2N + 1 long
    # no row of 2*10^8 entries fits under the cap
    result, seconds = run_capped(["curvature", "--web", web % 10**8], setup=DENSE_STEPS_FAIL)
    assert result == ("", "error: DegreeExceeded: the modular gcd would build a dense image "
                          "of 200000001 cells, past the bound 65536", 2)
    assert seconds < 1
    assert run_line(["curvature", "--web", web % 32768]) == ("", "error: DegreeExceeded: the "
        "modular gcd would build a dense image of 65537 cells, past the bound 65536", 2)
    out, err, code = run_line(["curvature", "--web", web % 32767])  # a row of 65535
    assert (err, code) == ("", 0) and out.startswith("numerator: -4294836224/27*x^2*y^98299 + ")
    common = parse_poly("x + y + z + 1")
    g = common * parse_poly("x^2 + y^2 + z + 5")
    inside = common * parse_poly("x^14*y^14*z^254 + 3")  # a grid of 16 * 16 * 256 cells
    assert poly_gcd(inside, g) == common and 16 * 16 * 256 == MAX_DENSE_CELLS
    with pytest.raises(DegreeExceeded, match="dense image of 69632 cells, past the bound 65536"):
        poly_gcd(common * parse_poly("x^15*y^14*z^254 + 3"), g)


def test_sing_translates_dense_powers_under_a_gigabyte():
    """The translate to (1, 1) of (x+1)^96*(y+1)^96 makes each image power
    once and shares it across the coefficients, so the line answers in a
    child capped at 1 GB; a product of image powers per term ran out of
    memory there."""
    pytest.importorskip("resource")
    line = ["sing", "--vf", "(x+1)^96*(y+1)^96 - 2^192 ; y - 1", "--at", "1,1"]
    result, seconds = run_capped(line)
    assert result == ("point: (1, 1)\nnu: 1\ntau: 1\nradial: false\nspecial: false", "", 0)
    assert seconds < 2


def test_sing_translates_many_sparse_high_powers(monkeypatch):
    """400 terms x^i*y^j, i and j drawn from [180, 256), translated to
    (1, 1): the kernel is handed about 4.2 million term pairs, where a
    product of image powers per term handed it 38 million."""
    rng, exponents = random.Random(27), set()
    while len(exponents) < 400:
        exponents.add((rng.randrange(180, 256), rng.randrange(180, 256)))
    field = " + ".join("x^%d*y^%d" % e for e in sorted(exponents)) + " - 400 ; y - 1"
    pairs = count_kernel_pairs(monkeypatch)
    assert run_line(["sing", "--vf", field, "--at", "1,1"]) == (
        "point: (1, 1)\nnu: 1\ntau: 1\nradial: false\nspecial: false", "", 0)
    assert sum(pairs) < 6_000_000


def test_high_degree_field_is_refused_before_the_legendre_expansion(monkeypatch):
    """The dual x-degree is read off the field, the total degree or one
    less for a radial top, so (p*x + q)^200000 is never expanded."""
    verbs = (["flat"], ["dual-curvature"], ["legendre"], ["discriminant"])
    assert run_line(["flat", "--vf", "y^50 ; x"]) == (
        "", "error: DegreeExceeded: dual equation has x-degree 50 > 3", 2
    )

    def refuse(self, bindings):
        raise AssertionError("the dual equation was expanded")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    theta = ["--field", "t^2=t+1"]
    cases = (
        ("y^200000 ; x", []),
        ("x*y^200000 ; y^200001 + x", []),  # radial top of degree 200001
        ("t*y^200000 ; x - t", theta),
        ("t*x*y^200000 ; t*y^200001 + x", theta),
    )
    for vf, field in cases:
        for verb in verbs:
            out, err, code = run_line(verb + ["--vf", vf] + field)
            assert (out, code) == ("", 2), (verb, vf)
            assert err == "error: DegreeExceeded: dual equation has x-degree 200000 > 3"


def test_domain_errors_exit_2():
    cases = [
        (["legendre", "--vf", "x ; y"], "DegreeTooLow"),
        (["dual-curvature", "--vf", "0 ; y^3"], "DegenerateWeb"),
        (["curvature", "--web", "p^3"], "DegenerateWeb"),
        (["sing", "--vf", "x^3 ; y^3-1", "--at", "1,1"], "NotSingular"),
        (["inflection", "--vf", "x ; x + x^2 ; 0"], "NonHomogeneous"),
        (["eta", "y ; 0 ; 1", "1"], "InvariantViolated"),
        (["flat", "--vf", "z ; y"], "InvariantViolated"),
        (["curvature", "--web", "p^3 - x*p + y^3", "--along", "p"], "InvariantViolated"),
        (["eta", "0 ; 1 ; x", "-1"], "DegenerateParameter"),
        (["gauss", "--vf", "x^3 ; y^3 - z^3 ; 0", "--at", "0,0,0"], "DegenerateParameter"),
    ]
    for argv, name in cases:
        _, err, code = run_line(argv)
        assert code == 2, argv
        assert name in err, argv
        assert "Traceback" not in err, argv


def test_batch_survives_invalid_operands(tmp_path, capsys):
    batch = tmp_path / "jobs.txt"
    batch.write_text(
        'flat --vf "z ; y"\neta "0 ; 1 ; x" -1\nflat --vf "x^² ; y"\ndiscriminant --web "p^3 - p"\n'
        'gauss --vf "x^3 ; y^3 - z^3 ; 0" --at 0,0,0\n'
    )
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == ["-4"]
    assert "InvariantViolated" in captured.err
    assert "error: ParseError: unexpected character '²' at offset 2" in captured.err
    assert captured.err.count("DegenerateParameter") == 2
    assert "Traceback" not in captured.err
    # an unbalanced quote fails its own line only
    batch.write_text('flat --vf "x^3 ; y^3-1\ndiscriminant --web "p^3 - p"\n')
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["-4"]
    assert captured.err.startswith("error: UsageError: ")
    assert "Traceback" not in captured.err
    # a file that is not UTF-8 cannot be read at all
    batch.write_bytes(b"\xff\xfe" + 'discriminant --web "p^3 - p"\n'.encode("utf-16-le"))
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: UsageError: cannot read batch file")


OVER_BOUND = [
    ["flat", "--vf", "(x+1)^2000 ; y"],
    ["discriminant", "--web", "p^3 - (x+y+1)^400*p"],
]


def _bounded_multiplication(monkeypatch):
    """Make every MPoly product fail if it multiplies more term pairs than
    the parser's bound allows."""
    multiply = MPoly.__mul__

    def bounded(self, other):
        if isinstance(other, MPoly):
            assert len(self._ground) * len(other._ground) <= MAX_PARSE_PAIRS
        return multiply(self, other)

    monkeypatch.setattr(MPoly, "__mul__", bounded)


@pytest.mark.parametrize("argv", OVER_BOUND)
def test_parse_refuses_expansion_past_bound_before_expanding(argv, monkeypatch):
    _bounded_multiplication(monkeypatch)
    out, err, code = run_line(argv)
    assert (out, code) == ("", 2)
    assert err.startswith("error: DegreeExceeded: ")
    assert "Traceback" not in err


def test_parse_pair_bound_is_exact(monkeypatch):
    _bounded_multiplication(monkeypatch)
    half = parse_poly("(x+1)^255")  # 256 terms, and 256*256 pairs is the bound
    assert 256 * 256 == MAX_PARSE_PAIRS
    assert parse_poly("(x+1)^510") == parse_poly("(x+1)^255*(x+1)^255") == half * half
    for text in ("(x+1)^511", "(x+1)^255*(x+1)^256", "(x+y+1)^400"):
        with pytest.raises(DegreeExceeded):
            parse_poly(text)
    # monomials and their powers pass at any degree, zero at any power
    assert parse_poly("x^100000*(y*z)^50000").total_degree() == 200000
    assert parse_poly("(-3/2*p^14*q^4)^3") == MPoly.monomial((0, 0, 0, 42, 12, 0), Fraction(-27, 8))
    assert parse_poly("(x - x)^100").is_zero()
    assert parse_poly("0*x^100").is_zero()


def test_field_operand_past_bound_stays_a_usage_error():
    for rhs in ("t^17+1", "(t+1)^2000"):
        with pytest.raises(UsageError):
            parse_field("t^2=" + rhs)


LONG_DIGITS = "9" * 5000  # past the interpreter's 4300-digit limit of int(str)
OVER_BITS = [
    ["flat", "--vf", "x^3 + 3^200000*y ; y^3-1"],
    ["flat", "--vf", "x^%s ; y" % LONG_DIGITS],
    ["flat", "--vf", "%s*x ; y" % LONG_DIGITS],
    ["curvature", "--web", "p^3 - 1/%s*x" % LONG_DIGITS],
]


def _bounded_coefficients(monkeypatch):
    """Make the parser fail if it converts a uint token of more than 1229
    digits, or raises a polynomial to a power whose exponent times its
    largest coefficient's bits (1 and -1 counting none) passes the bound."""

    def bounded_int(value=0, *args):
        if isinstance(value, str):
            assert len(value) <= 1229
        return builtins.int(value, *args)

    power = MPoly.__pow__

    def bounded_power(self, exponent):
        parts = [  # over Q(theta) a ground element is the pair (a, b)
            x for c in self._ground.values() for x in (c if isinstance(c, tuple) else (c,))
        ]
        bits = max(
            ((abs(x.numerator) - 1).bit_length() + (x.denominator - 1).bit_length() for x in parts),
            default=0,
        )
        assert exponent * bits <= MAX_PARSE_BITS
        return power(self, exponent)

    monkeypatch.setattr(cli, "int", bounded_int, raising=False)
    monkeypatch.setattr(MPoly, "__pow__", bounded_power)


@pytest.mark.parametrize("argv", OVER_BITS, ids=["power", "exponent", "literal", "denominator"])
def test_parse_refuses_coefficients_past_bit_bound_before_computing(argv, monkeypatch):
    _bounded_coefficients(monkeypatch)
    out, err, code = run_line(argv)
    assert (out, code) == ("", 2)
    assert err.startswith("error: DegreeExceeded: ")
    assert "Traceback" not in err


def test_parse_bit_bound_is_exact(monkeypatch):
    _bounded_coefficients(monkeypatch)
    assert MAX_PARSE_BITS == 4096
    assert parse_poly("2^4096") == MPoly.constant(2**4096)
    assert parse_poly("3^2048") == MPoly.constant(3**2048)  # charged 2 bits a factor
    assert parse_poly("(1/2*x)^4096") == MPoly.monomial((4096, 0, 0, 0, 0, 0), Fraction(1, 2**4096))
    assert parse_poly("9" * 1229) == MPoly.constant(10**1229 - 1)
    for text in ("2^4097", "3^2049", "(1/2*x)^4097", "(x+1)^4097", "9" * 1230, "1/" + "9" * 1230):
        with pytest.raises(DegreeExceeded):
            parse_poly(text)
    # a coefficient of 1 or -1 costs nothing at any power
    assert parse_poly("(-x)^100001") == -MPoly.monomial((100001, 0, 0, 0, 0, 0), 1)
    # theta counts as |u| + |v|: t^2=t+1 charges a bit per factor
    spec = parse_field("t^2=t+1")
    assert parse_poly("t^4096", spec) == parse_poly("t^2048", spec) ** 2
    with pytest.raises(DegreeExceeded):
        parse_poly("t^4097", spec)
    with pytest.raises(UsageError):
        parse_field("t^2=3^5000")


PARSER_REFUSALS = [  # (--vf, message): each bound at each token that charges it
    ("(x+1)^255*(x+1)^256 ; y",
     "expansion at offset 9 multiplies 65792 term pairs, past the parser's bound 65536"),
    ("(x+y+1)^400 ; y",
     "expansion at offset 7 multiplies 412130601 term pairs, past the parser's bound 65536"),
    ("%s*x ; y" % ("9" * 1230),
     "literal at offset 0 is charged 4100 bits, past the parser's bound 4096"),
    ("x^3 + 3^2049*y ; y", "power at offset 7 is charged 4098 bits, past the parser's bound 4096"),
    ("x^2147483647*y ; y",
     "product at offset 12 has total degree 2147483648, past the bound 2147483647"),
    ("(x*y)^1073741824 ; y",
     "power at offset 5 has total degree 2147483648, past the bound 2147483647"),
]


@pytest.mark.parametrize("vf, message", PARSER_REFUSALS,
                         ids=["pairs*", "pairs^", "bits-literal", "bits^", "degree*", "degree^"])
def test_parser_refusals_keep_their_full_text(vf, message):
    """The whole stderr of each parser refusal, with its token's offset and
    its numbers, not a prefix of it."""
    assert run_line(["flat", "--vf", vf]) == ("", "error: DegreeExceeded: " + message, 2)


def _bounded_ground_powers(monkeypatch):
    """Make `ground.power` fail if its exponent times the element's bits,
    counted as `_bounded_coefficients` counts them, passes the bound."""
    power = ground.power

    def bounded_power(c, n, theta):
        parts = c if isinstance(c, tuple) else (c,)
        bits = max((abs(x.numerator) - 1).bit_length() + (x.denominator - 1).bit_length() for x in parts)
        assert n * bits <= MAX_PARSE_BITS
        return power(c, n, theta)

    monkeypatch.setattr(ground, "power", bounded_power)


def test_parse_refuses_one_term_powers_past_bit_bound_before_computing(monkeypatch):
    """The parser raises a power of one term with `ground.power`, not
    `MPoly.__pow__`; that power too is charged, and refused past the bound,
    before it is computed."""
    _bounded_ground_powers(monkeypatch)
    for argv in OVER_BITS:
        out, err, code = run_line(argv)
        assert (out, code) == ("", 2), argv
        assert err.startswith("error: DegreeExceeded: "), argv
    assert parse_poly("2^4096") == MPoly.constant(2**4096)
    assert parse_poly("3^2048") == MPoly.constant(3**2048)
    assert parse_poly("(1/2*x)^4096") == MPoly.monomial((4096, 0, 0, 0, 0, 0), Fraction(1, 2**4096))
    assert parse_poly("(-x)^100001") == -MPoly.monomial((100001, 0, 0, 0, 0, 0), 1)
    for text in ("2^4097", "3^2049", "(1/2*x)^4097"):
        with pytest.raises(DegreeExceeded):
            parse_poly(text)
    spec = parse_field("t^2=t+1")
    assert parse_poly("t^4096", spec) == parse_poly("t^2048", spec) ** 2
    with pytest.raises(DegreeExceeded):
        parse_poly("t^4097", spec)


def test_batch_runs_past_over_bound_lines(tmp_path, capsys, monkeypatch):
    _bounded_multiplication(monkeypatch)
    _bounded_coefficients(monkeypatch)
    batch = tmp_path / "jobs.txt"
    batch.write_text(
        "\n".join(shlex.join(argv) for argv in OVER_BOUND + OVER_BITS)
        + '\ndiscriminant --web "p^3 - p"\n'
    )
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == ["-4"]
    assert captured.err.count("error: DegreeExceeded: ") == len(OVER_BOUND + OVER_BITS)
    assert "Traceback" not in captured.err


# within the parser's bounds, with a printed coefficient or coordinate of more
# than the interpreter's 4300 digits
TOO_LONG_TO_PRINT = [
    ["dual-curvature", "--vf", "x^3 + 3^2048*y ; y^3-1"],
    ["dual-curvature", "--vf", "x^3 + 3^2048*y ; y^3-1", "--format", "json"],
    ["gauss", "--vf", "3^2048*x^3 ; y^3 ; z^3", "--at", "3^2048, 2^3000, 1"],
]


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on the digits of an int's text."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("argv", TOO_LONG_TO_PRINT, ids=["text", "json", "gauss"])
def test_output_past_digit_limit_is_a_domain_error(argv, digit_limit):
    out, err, code = run_line(argv)
    what = "coordinate" if argv[0] == "gauss" else "coefficient"
    assert (out, code) == ("", 2)
    assert err == "error: DegreeExceeded: a %s has more than %d digits to print" % (what, digit_limit)


def test_batch_runs_past_output_past_digit_limit(tmp_path, capsys, digit_limit):
    batch = tmp_path / "jobs.txt"
    batch.write_text(
        "\n".join(shlex.join(argv) for argv in TOO_LONG_TO_PRINT) + '\ndiscriminant --web "p^3 - p"\n'
    )
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == ["-4"]
    assert captured.err.count("error: DegreeExceeded: ") == len(TOO_LONG_TO_PRINT)
    assert "Traceback" not in captured.err


PINNED_CURVATURE = [
    # (vf, --field or None, md5 of stdout)
    ("x^3+t*y ; y^3-t", "t^2=t+1", "87a527956033ad269a5052fee286e63f"),
    ("x^3+t*x*y^2 ; y^3+x-t", "t^2=t+1", "87351206235a2e038f9ae9157d71b417"),
    ("x^3+x*y^2+y ; x*y^2+y^3+x-3", None, "f507fb71fd9935e9c802cc91de683417"),
    ("x^3+2*x*y^2 ; y^3-3", None, "bf55b545b0a35670a9108f695385e9f8"),
]


@pytest.mark.parametrize(
    "vf, field, digest", PINNED_CURVATURE, ids=["%s-%s" % (vf, d) for vf, _, d in PINNED_CURVATURE]
)
def test_quadratic_field_curvature_pinned(capsys, vf, field, digest):
    """Fields of the ROADMAP corpus over Q(theta) and over Q; the digests
    are of the stdout bytes recorded before the modular gcd (Q(theta)) and
    the one-route dual curvature (Q)."""
    argv = ["dual-curvature", "--vf", vf, "--format", "json"]
    if field is not None:
        argv += ["--field", field]
    assert main(argv) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dual_curvature_over_the_gaussian_rationals(monkeypatch):
    """--field "t^2=-1": every prime that splits in Q(i) is 1 mod 4, so the
    theta-carrying gcds that reduce the curvature take their roots of theta
    from the general modular square root.  The printed fraction equals
    N / R^2 of the determinant algorithm, cross-multiplied."""
    split = []
    roots_of = modular.split_roots

    def recording(u, v, p):
        roots = roots_of(u, v, p)
        if roots is not None:
            split.append(p)
        return roots

    monkeypatch.setattr(modular, "split_roots", recording)
    spec = parse_field("t^2=-1")
    vf = "x^3+t*x*y^2 ; y^3+x-t"
    argv = ["dual-curvature", "--vf", vf, "--field", "t^2=-1", "--format", "json"]
    result = json.loads(run_ok(argv))
    num, den = (parse_poly(result["result"][k], spec) for k in ("numerator", "denominator"))
    assert split and all(p % 4 == 1 for p in split)
    web = _dual_web(AffineVectorField(*(parse_poly(part, spec) for part in vf.split(";"))))
    numerator, big_r = determinant_curvature_fraction(web)
    assert any(c.b for c in num.terms.values()) and not numerator.is_zero()
    assert num * (big_r * big_r) == numerator * den


def test_output_determinism():
    argv = ["dual-curvature", "--vf", "x^3 ; y^3-1", "--format", "json"]
    assert run_ok(argv) == run_ok(argv)
    argv2 = ["inflection", "--vf", "x^3 ; y^3 - z^3 ; 0"]
    assert run_ok(argv2) == run_ok(argv2)


# -- batch mode ---------------------------------------------------------------------


def test_batch_mode_order_and_exit(tmp_path, capsys):
    batch = tmp_path / "jobs.txt"
    batch.write_text(
        "\n".join(
            [
                'flat --vf "x^3 ; y^3-1"',
                "# a comment line",
                'discriminant --web "p^3 - p"',
                'tangent-cone --vf "y ; x"',
            ]
        )
        + "\n"
    )
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["flat: false", "-4", "-x^2 + y^2"]
    jobs = [line for line in batch.read_text().splitlines() if not line.startswith("#")]
    assert captured.out == "\n".join(run_line(shlex.split(line))[0] for line in jobs) + "\n"


def test_batch_mode_propagates_worst_exit(tmp_path, capsys):
    batch = tmp_path / "jobs.txt"
    batch.write_text('flat --vf "x^3 ; y^3-1"\nlegendre --vf "x ; y"\n')
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    assert "flat: false" in captured.out
    assert "DegreeTooLow" in captured.err


# -- installed entry point -------------------------------------------------------------


def test_module_invocation_subprocess():
    # the child finds the package where this process found it
    src = os.path.dirname(os.path.dirname(webflat.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for module in ("webflat.cli", "webflat"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "flat", "--vf", "x^3 ; y^3-1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, module
        assert proc.stdout.strip() == "flat: false", module
        # runpy warns on `-m webflat.cli`, which the package imports first
        if module == "webflat":
            assert proc.stderr == ""
