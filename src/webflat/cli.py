"""Command-line front end.

Grammar for polynomial operands (no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' uint)?
    base    := var | rational | '(' expr ')' | '-' factor
    var     := 'x' | 'y' | 'z' | 'p' | 'q' | 't'
    rational:= uint ('/' uint)?

`t` denotes the quadratic generator theta and is only legal when
`--field "t^2=<u>*t+<v>"` is given.  Vector fields are one flag,
components separated by ';'.  Exit codes: 0 ok, 1 parse/usage error,
2 domain error (the error name goes to stderr).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    DegreeExceeded,
    DomainError,
    ParseError,
    ThetaWithoutField,
    UnknownVariable,
    UsageError,
    WebflatError,
)
from .field import RATIONALS, FieldScalar, FieldSpec
from .monomials import BOUND, UNIT
from .pairs import normal
from .poly import (
    MAX_PARSE_BITS,
    MAX_PARSE_PAIRS,
    VARIABLE_INDEX,
    MPoly,
    _power_bits,
    _products,
    ground_arithmetic,
    ground_degree,
    render_poly,
)
from .singular import classify_singularity, verify_classification
from .webs import (
    AffineVectorField,
    CubicWebEquation,
    EtaWebSpec,
    HomogeneousVectorField,
    ProjectivePoint,
    dual_curvature,
    eta_criterion,
    gauss_map_point,
    holomorphic_along,
    inflection_divisor,
    is_flat,
    legendre_transform,
    tangent_cone,
    web_curvature,
)

# -- lexer / parser -----------------------------------------------------------

_VAR_NAMES = set("xyzpqt")


def _check_bits(bits: int, what: str, token: "_Token"):
    if bits > MAX_PARSE_BITS:
        raise DegreeExceeded(
            "%s at offset %d is charged %d bits, past the parser's bound %d"
            % (what, token.offset, bits, MAX_PARSE_BITS)
        )


def _power_pairs(terms: int, exponent: int) -> int:
    if terms < 2:  # a monomial or zero
        return terms
    half = exponent // 2
    return math.comb(terms + half - 1, half) * math.comb(
        terms + exponent - half - 1, exponent - half
    )


def _check_pairs(pairs: int, token: "_Token"):
    if pairs > MAX_PARSE_PAIRS:
        raise DegreeExceeded(
            "expansion at offset %d multiplies %d term pairs, past the parser's bound %d"
            % (token.offset, pairs, MAX_PARSE_PAIRS)
        )


def _check_degree(degree: int, what: str, token: "_Token"):
    """Every exponent and total degree stays below monomials.BOUND."""
    if degree >= BOUND:
        raise DegreeExceeded(
            "%s at offset %d has total degree %d, past the bound %d"
            % (what, token.offset, degree, BOUND - 1)
        )


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(_Token("uint", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            if ch not in _VAR_NAMES:
                raise UnknownVariable(
                    "unknown variable %r at offset %d" % (ch, i), i, ("variable",)
                )
            tokens.append(_Token("var", ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r at offset %d" % (ch, i), i, ())
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser producing an MPoly over the chosen field.

    Every value is a ground map the parser owns, in `poly`'s format.  An
    atom is one term: a variable, a rational or theta.  `+` and `-` add
    each term into the first term's map in place, and unary minus adds
    the operand into an empty map.  A product of two one-term maps is one
    key sum and one coefficient product; only a product with a factor of
    two or more terms goes through the kernel (`_products`), and a power
    through `MPoly.__pow__`.  The pair, bit and degree bounds are charged
    at the `*`, `^` and literal tokens, on the sizes of the operands.
    """

    def __init__(self, src: str, spec: FieldSpec | None, theta_is_variable=False):
        self.src = src
        self.spec = spec or RATIONALS
        self.theta_is_variable = theta_is_variable
        self.tokens = _tokenize(src)
        self.pos = 0
        self.one, self.times, self.add = ground_arithmetic(self.spec)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                "expected %s at offset %d" % (kind, token.offset), token.offset, (kind,)
            )
        return self.take()

    def parse(self) -> MPoly:
        result = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(
                "unexpected %r at offset %d" % (token.text, token.offset),
                token.offset,
                ("+", "-", "*", "^", "end"),
            )
        return MPoly._raw(result, self.spec)

    def expr(self) -> dict:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
            self.add(value, self.term(), sign)
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.peek().kind == "*":
            token = self.take()
            rhs = self.factor()
            _check_pairs(len(value) * len(rhs), token)
            _check_degree(ground_degree(value) + ground_degree(rhs), "product", token)
            if len(value) == 1 == len(rhs):
                [(m, c)], [(n, d)] = value.items(), rhs.items()
                value = {m + n: self.times(c, d)}
            else:
                value = _products([(1, value, rhs)], self.spec)
        return value

    def factor(self) -> dict:
        base = self.base()
        if self.peek().kind == "^":
            token = self.take()
            exponent = self.uint(self.expect("uint"))
            base = MPoly._raw(base, self.spec)
            _check_pairs(_power_pairs(len(base._ground), exponent), token)
            _check_bits(_power_bits(base, exponent), "power", token)
            _check_degree(base.total_degree() * exponent, "power", token)
            return (base ** exponent)._ground
        return base

    def uint(self, token: _Token) -> int:
        _check_bits(len(token.text) * 10 // 3, "literal", token)
        return int(token.text)

    def constant(self, c) -> dict:
        """The ground map of a rational c."""
        if not c:
            return {}
        return {0: (c, 0) if self.spec.is_quadratic else c}

    def base(self) -> dict:
        token = self.peek()
        if token.kind == "-":
            self.take()
            return self.add({}, self.factor(), -1)
        if token.kind == "(":
            self.take()
            inner = self.expr()
            self.expect(")")
            return inner
        if token.kind == "var":
            self.take()
            if token.text == "t" and not self.theta_is_variable:
                if not self.spec.is_quadratic:
                    raise ThetaWithoutField(
                        "symbol t at offset %d needs --field" % token.offset,
                        token.offset,
                    )
                return {0: (0, 1)}
            return {UNIT[VARIABLE_INDEX[token.text]]: self.one}
        if token.kind == "uint":
            self.take()
            numerator = self.uint(token)
            if self.peek().kind == "/":
                self.take()
                token = self.expect("uint")
                denominator = self.uint(token)
                if denominator == 0:
                    raise ParseError(
                        "zero denominator at offset %d" % token.offset, token.offset, ("uint",)
                    )
                return self.constant(normal(Fraction(numerator, denominator)))
            return self.constant(numerator)
        raise ParseError(
            "expected a value at offset %d" % token.offset,
            token.offset,
            ("var", "rational", "(", "-"),
        )


def parse_poly(src: str, spec: FieldSpec | None = None) -> MPoly:
    """Parse an expression into a canonical polynomial."""
    return _Parser(src, spec).parse()


def parse_field(text: str) -> FieldSpec:
    """Parse --field "t^2=<rhs>" where rhs is linear in t."""
    head, sep, rhs = text.replace(" ", "").partition("=")
    if head != "t^2" or not sep:
        raise UsageError('--field must look like "t^2=u*t+v"')
    try:
        poly = _Parser(rhs, None, theta_is_variable=True).parse()
    except (ParseError, DegreeExceeded) as err:
        raise UsageError("bad --field value: %s" % err) from err
    if poly.degree_in("t") > 1 or (poly.variables() - {"t"}):
        raise UsageError("--field right-hand side must be linear in t")
    u = poly.coefficient("t", 1).constant_value().a
    v = poly.coefficient("t", 0).constant_value().a
    try:
        return FieldSpec("quadratic", u, v)
    except ValueError as err:
        raise UsageError(str(err)) from err


def parse_scalar(src: str, spec: FieldSpec | None) -> FieldScalar:
    poly = parse_poly(src, spec)
    if not poly.is_constant():
        raise UsageError("expected a constant, got %r" % src)
    return poly.constant_value()


def parse_point(text: str, spec: FieldSpec | None, arity: int):
    parts = text.split(",")
    if len(parts) != arity:
        raise UsageError("expected %d comma-separated coordinates" % arity)
    return tuple(parse_scalar(part.strip(), spec) for part in parts)


def parse_components(text: str, spec: FieldSpec | None, count: int) -> list:
    parts = [part.strip() for part in text.split(";")]
    if len(parts) != count:
        raise UsageError("expected %d ';'-separated components" % count)
    return [parse_poly(part, spec) for part in parts]


# -- command model ------------------------------------------------------------


class Command(NamedTuple):
    """A parsed command line: the payload holds the verb's run arguments."""

    verb: str
    payload: tuple = ()
    field_text: str | None = None
    format: str = "text"


def _split_flags(argv):
    """Separate `--flag value` pairs from positional operands."""
    flags = {}
    positionals = []
    known = ("--vf", "--web", "--at", "--field", "--format", "--along", "--batch")
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--"):
            if arg not in known:
                raise UsageError("unknown flag %s" % arg)
            if i + 1 >= len(argv):
                raise UsageError("flag %s needs a value" % arg)
            if arg in flags:
                raise UsageError("duplicate flag %s" % arg)
            flags[arg] = argv[i + 1]
            i += 2
        else:
            positionals.append(arg)
            i += 1
    return flags, positionals


class _Operands:
    """The flags and positional operands of one command line, parsed on
    demand over its field.  `read` holds the flags looked up so far."""

    def __init__(self, verb, flags, positionals, spec):
        self.verb = verb
        self.flags = flags
        self.positionals = positionals
        self.spec = spec
        self.read = {"--field", "--format"}

    def get(self, flag):
        self.read.add(flag)
        return self.flags.get(flag)

    def need(self, flag):
        if self.get(flag) is None:
            raise UsageError("verb %s needs %s" % (self.verb, flag))
        return self.flags[flag]

    def affine(self) -> AffineVectorField:
        return AffineVectorField(*parse_components(self.need("--vf"), self.spec, 2))

    def homogeneous(self) -> HomogeneousVectorField:
        return HomogeneousVectorField(*parse_components(self.need("--vf"), self.spec, 3))

    def web(self, text) -> CubicWebEquation:
        return CubicWebEquation.from_polynomial(parse_poly(text, self.spec), "p", ("x", "y"))

    def point(self, arity):
        return parse_point(self.need("--at"), self.spec, arity)


def _build_curvature(ops):
    along = ops.get("--along")
    return ops.web(ops.need("--web")), None if along is None else parse_poly(along, ops.spec)


def _build_discriminant(ops):
    web = ops.get("--web")
    return (ops.affine() if web is None else ops.web(web),)


def _build_eta(ops):
    if len(ops.positionals) != 2:
        raise UsageError('usage: webflat eta "h1 ; h2 ; h3" <a>')
    h1, h2, h3 = parse_components(ops.positionals[0], ops.spec, 3)
    try:
        order = int(ops.positionals[1])
    except ValueError:
        raise UsageError("eta order must be an integer") from None
    return h1, h2, h3, order


def _build_classify(ops):
    if len(ops.positionals) != 1:
        raise UsageError("usage: webflat classify <nu>")
    return (parse_scalar(ops.positionals[0], ops.spec),)


# -- running ------------------------------------------------------------------
#
# The run functions look the library functions up in this module when they
# are called, so a wrapper installed on a name here (a tracer, a test
# double) sees every call.


def _run_legendre(vf):
    web = legendre_transform(vf)
    return {
        "slope": web.slope_var,
        "chart": "".join(web.base_vars),
        "a0": render_poly(web.a0),
        "a1": render_poly(web.a1),
        "a2": render_poly(web.a2),
        "a3": render_poly(web.a3),
    }


def _run_curvature(web, along):
    form = web_curvature(web)
    return form if along is None else holomorphic_along(form, along)


def _run_discriminant(source):
    if not isinstance(source, CubicWebEquation):
        source = legendre_transform(source)
    return source.discriminant()


def _run_eta(h1, h2, h3, order):
    return eta_criterion(EtaWebSpec(h1, h2, h3, order))


def _run_sing(vf, at):
    report = classify_singularity(vf, at)
    return {
        "point": "(%s, %s)" % tuple(map(str, report.point)),
        "nu": report.nu,
        "tau": "infinity" if report.tau == float("inf") else int(report.tau),
        "radial": report.radial,
        "special": report.special,
    }


def _run_gauss(hvf, at):
    coords = gauss_map_point(hvf, ProjectivePoint(*at)).coords
    try:
        return [str(c) for c in coords]
    except ValueError as err:  # int to str past sys.get_int_max_str_digits()
        raise DegreeExceeded(
            "a coordinate has more than %d digits to print" % sys.get_int_max_str_digits()
        ) from err


# -- rendering ----------------------------------------------------------------


def _render(cmd: Command, kind: str, data: dict, text: str) -> str:
    if cmd.format == "json":
        import json  # on first use, off the start-up path of text output

        result = {"kind": kind, **data}
        return json.dumps({"command": cmd.verb, "field": cmd.field_text, "result": result})
    return text


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _lines(data: dict) -> str:
    return "\n".join(
        "%s: %s" % (key, _bool_text(value) if isinstance(value, bool) else value)
        for key, value in data.items()
    )


def _render_report(cmd, data):
    return _render(cmd, "report", data, _lines(data))


def _render_point(cmd, coords):
    return _render(cmd, "report", {"point": coords}, "(%s : %s : %s)" % tuple(coords))


def _render_bool(label):
    def render(cmd, value):
        return _render(cmd, "bool", {"value": value}, "%s: %s" % (label, _bool_text(value)))

    return render


def _render_poly(cmd, poly):
    text = render_poly(poly)
    return _render(cmd, "poly", {"text": text}, text)


def _render_ratfn(cmd, form):
    data = {
        "numerator": render_poly(form.coeff.num),
        "denominator": render_poly(form.coeff.den),
        "chart": "".join(form.chart),
    }
    return _render(cmd, "ratfn", data, _lines(data))


_render_holomorphic = _render_bool("holomorphic")


def _render_curvature(cmd, result):
    if isinstance(result, bool):  # --along
        return _render_holomorphic(cmd, result)
    return _render_ratfn(cmd, result)


class _Verb(NamedTuple):
    build: Callable  # _Operands -> the run function's arguments
    run: Callable
    render: Callable  # (Command, result) -> stdout text
    positional: bool = False  # takes positional operands


# in the order the usage message lists them
VERBS = {
    "legendre": _Verb(lambda ops: (ops.affine(),), _run_legendre, _render_report),
    "curvature": _Verb(_build_curvature, _run_curvature, _render_curvature),
    "dual-curvature": _Verb(
        lambda ops: (ops.affine(),), lambda vf: dual_curvature(vf), _render_ratfn
    ),
    "flat": _Verb(lambda ops: (ops.affine(),), lambda vf: is_flat(vf), _render_bool("flat")),
    "inflection": _Verb(
        lambda ops: (ops.homogeneous(),), lambda hvf: inflection_divisor(hvf), _render_poly
    ),
    "discriminant": _Verb(_build_discriminant, _run_discriminant, _render_poly),
    "tangent-cone": _Verb(lambda ops: (ops.affine(),), lambda vf: tangent_cone(vf), _render_poly),
    "sing": _Verb(lambda ops: (ops.affine(), ops.point(2)), _run_sing, _render_report),
    "eta": _Verb(_build_eta, _run_eta, _render_bool("eta"), positional=True),
    "classify": _Verb(
        _build_classify, lambda nu: verify_classification(nu), _render_bool("flat"), positional=True
    ),
    "gauss": _Verb(lambda ops: (ops.homogeneous(), ops.point(3)), _run_gauss, _render_point),
}


def build_command(argv) -> Command:
    argv = list(argv)
    if not argv:
        raise UsageError("usage: webflat <verb> [--vf 'A ; B'] [options]")
    flags, positionals = _split_flags(argv)
    if "--batch" in flags:
        raise UsageError("--batch is a top-level mode, not a verb option")
    verb = positionals[0] if positionals else None
    if verb not in VERBS:
        raise UsageError(
            "unknown verb %r (expected one of %s)" % (verb, ", ".join(VERBS))
        )
    spec = None
    field_text = flags.get("--field")
    if field_text is not None:
        spec = parse_field(field_text)
    fmt = flags.get("--format", "text")
    if fmt not in ("text", "json"):
        raise UsageError("--format must be text or json")
    entry = VERBS[verb]
    ops = _Operands(verb, flags, positionals[1:], spec)
    payload = entry.build(ops)
    if positionals[1:] and not entry.positional:
        raise UsageError("verb %s takes no positional operands" % verb)
    unread = [flag for flag in flags if flag not in ops.read]
    if unread:
        raise UsageError("verb %s would ignore %s" % (verb, unread[0]))
    return Command(verb=verb, payload=payload, field_text=field_text, format=fmt)


def execute(cmd: Command) -> str:
    entry = VERBS[cmd.verb]
    return entry.render(cmd, entry.run(*cmd.payload))


# -- entry points --------------------------------------------------------------


def run_line(argv):
    """One command line -> (stdout text, stderr text, exit code)."""
    try:
        return execute(build_command(argv)), "", 0
    except WebflatError as err:  # mathematically invalid operands exit 2
        code = 2 if isinstance(err, DomainError) else 1
        return "", "error: %s: %s" % (type(err).__name__, err), code


def run_batch(path: str):
    """Run each nonblank, non-comment line of the file in order."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except (OSError, UnicodeDecodeError) as err:
        return "", "error: UsageError: cannot read batch file: %s" % err, 1
    import shlex  # on first use, off the start-up path of a single line

    results = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as err:  # unbalanced quotes or a trailing backslash
            results.append(("", "error: UsageError: cannot split batch line: %s" % err, 1))
        else:
            results.append(run_line(argv))
    out = "\n".join(text for text, _, _ in results if text)
    err = "\n".join(text for _, text, _ in results if text)
    code = max((code for _, _, code in results), default=0)
    return out, err, code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--batch" in argv:
        i = argv.index("--batch")
        if i + 1 >= len(argv):
            print("error: UsageError: --batch needs a file", file=sys.stderr)
            return 1
        out, err, code = run_batch(argv[i + 1])
    else:
        out, err, code = run_line(argv)
    if out:
        print(out)
    if err:
        print(err, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
