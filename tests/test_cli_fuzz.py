"""Fuzz the CLI's error contract (hypothesis) over all verbs.

Each command line starts well formed for its verb: small polynomials, some
with theta, with and without --field, text or json.  Up to two mutations
then drop a word, put junk characters in place of one, add an unknown,
duplicate or known flag, add a component or a coordinate, or change the
verb; or one operand gains a monomial power up to 2^31 - 1.  Whatever the
line, `run_line` returns exit code 0, 1 or 2; a nonzero exit prints nothing
on stdout and names a `WebflatError` subclass on stderr, a `DomainError`
exactly when the code is 2; and a second run gives the same bytes.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import webflat.errors as errors  # noqa: E402
from webflat.cli import VERBS, run_line  # noqa: E402

_COEFFICIENTS = ("1", "-1", "2", "-3", "1/2", "t", "(1 - t)")
_SCALARS = ("0", "0", "1", "-1", "2", "1/2", "t", "1 - t")
_FIELDS = (None, None, "t^2=t+1", "t^2=t-1")
_JUNK = ("", " ", "x +", "(x", "x)", "1/0", "x^y", "x^-1", "2x", "xx", "@", "é", "#", "1e3", ";", ",",
         "x^²", "4²")


@st.composite
def _monomial(draw, names, degree):
    """c * a monomial of the given total degree in the named variables."""
    words, left = [draw(st.sampled_from(_COEFFICIENTS))], degree
    for i, name in enumerate(names):
        e = left if i == len(names) - 1 else draw(st.integers(0, left))
        left -= e
        if e:
            words.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(words)


def _sum(terms):
    return st.lists(terms, min_size=1, max_size=3).map(" + ".join)


_affine = _sum(st.sampled_from((3, 2, 1, 0)).flatmap(lambda d: _monomial("xy", d)))
_vanishing = _sum(st.sampled_from((1, 2, 3)).flatmap(lambda d: _monomial("xy", d)))
_small = _sum(st.integers(0, 1).flatmap(lambda d: _monomial("xy", d)))
_form = st.sampled_from((3, 2, 1)).flatmap(
    lambda d: st.lists(st.one_of(_sum(_monomial("xyz", d)), st.just("0")), min_size=3, max_size=3)
).map(" ; ".join)
_web = st.tuples(_small, _small, _small).map(lambda t: "p^3 + (%s)*p^2 + (%s)*p + %s" % t)


def _point(n):
    return st.lists(st.sampled_from(_SCALARS), min_size=n, max_size=n).map(", ".join)


def _flags(*pairs):
    return st.tuples(*(st.tuples(st.just(flag), value) for flag, value in pairs)).map(
        lambda t: [word for pair in t for word in pair]
    )


_vf = st.lists(_affine, min_size=2, max_size=2).map(" ; ".join)
_WELL_FORMED = {
    "legendre": _flags(("--vf", _vf)),
    "curvature": st.one_of(_flags(("--web", _web)), _flags(("--web", _web), ("--along", _small))),
    "dual-curvature": _flags(("--vf", _vf)),
    "flat": _flags(("--vf", _vf)),
    "inflection": _flags(("--vf", _form)),
    "discriminant": st.one_of(_flags(("--vf", _vf)), _flags(("--web", _web))),
    "tangent-cone": _flags(("--vf", _vf)),
    "sing": _flags(
        ("--vf", st.lists(_vanishing, min_size=2, max_size=2).map(" ; ".join)),
        ("--at", st.sampled_from(("0, 0", "1, 0", "0, 1/2", "t, 0"))),
    ),
    "eta": st.tuples(st.lists(_small, min_size=3, max_size=3).map(" ; ".join),
                     st.sampled_from("0123")).map(list),
    "classify": st.sampled_from(_SCALARS).map(lambda s: [s]),
    "gauss": _flags(("--vf", _form), ("--at", _point(3))),
}
_FLAGS = ("--vf", "--web", "--at", "--along", "--field", "--format", "--batch", "--bogus")
_junk = st.one_of(st.sampled_from(_JUNK), st.text(alphabet="xyzpqt0123+-*/^() ;,#é", max_size=10))


@st.composite
def _command_lines(draw):
    verb = draw(st.sampled_from(tuple(VERBS)))
    argv = [verb] + draw(_WELL_FORMED[verb])
    field = draw(st.sampled_from(_FIELDS))
    if field is not None:
        argv += ["--field", field]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("text", "json")))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        kind = draw(st.sampled_from(("drop", "junk", "flag", "component", "verb")))
        if kind == "drop":
            del argv[i]
        elif kind == "junk":
            argv[i] = draw(_junk)
        elif kind == "flag":
            argv[i:i] = [draw(st.sampled_from(_FLAGS)), draw(st.one_of(_junk, _affine))]
        elif kind == "component":
            argv[i] += draw(st.sampled_from((" ; x", " ; ", ", 1", ",")))
        else:
            argv[0] = draw(st.sampled_from(tuple(VERBS) + ("", "nonsense", "--vf")))
        if not argv:
            break
    return argv


def _assert_contract(argv):
    out, err, code = run_line(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out == "", argv
        name = re.match(r"error: (\w+): ", err).group(1)
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and issubclass(cls, errors.WebflatError), argv
        assert (code == 2) == issubclass(cls, errors.DomainError), argv
    else:
        assert out and err == "", argv
    assert run_line(argv) == (out, err, code), argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_command_lines())
def test_every_command_line_keeps_the_error_contract(argv):
    _assert_contract(argv)


# near the monomial layout's bound, past every dense bound, and anywhere below
_EXPONENT = st.one_of(st.integers(0, 2**31 - 1), st.sampled_from((10**8, 2**31 - 2, 2**31 - 1)))


@st.composite
def _huge_power_lines(draw, verb):
    """A well-formed line of the verb, one of whose operands (a component or
    a coordinate) gains a monomial power with an exponent up to 2^31 - 1."""
    argv = [verb] + draw(_WELL_FORMED[verb])
    operands = [i for i in range(1, len(argv) - (verb == "eta")) if argv[i][:2] != "--"]
    if "t" in "".join(argv[1:]):  # so that most lines get past the parser
        argv += ["--field", draw(st.sampled_from(_FIELDS[2:]))]
    i = draw(st.sampled_from(operands))  # a component, a coordinate or nu; not eta's order
    parts = re.split("([;,])", argv[i])
    j = 2 * draw(st.integers(0, len(parts) // 2))
    power = "%s^%d" % (draw(st.sampled_from("xyzp2")), draw(_EXPONENT))
    parts[j] = draw(st.sampled_from(("(%s)*%s", "%s + %s", "%s - 3*%s"))) % (parts[j], power)
    argv[i] = "".join(parts)
    return argv


@pytest.mark.parametrize("verb", VERBS)
def test_monomial_powers_up_to_the_layout_bound_keep_the_error_contract(verb):
    """High powers reach every verb: each line ends in an answer or a named
    error, never a traceback, a MemoryError or a hang."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(_huge_power_lines(verb))
    def check(argv):
        _assert_contract(argv)

    check()


@pytest.mark.parametrize("junk", _JUNK)
def test_junk_in_a_polynomial_keeps_the_error_contract(junk):
    """Each junk string inside a polynomial, where the tokenizer reads it:
    a superscript digit is no digit to int()."""
    _assert_contract(["flat", "--vf", junk + " ; y"])
