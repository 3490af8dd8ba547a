"""Replay the recorded benchmark corpus in process.

Every line of the in-process workloads must give the recorded stdout
bytes, exit code and error name, by the rule of `perfbench/run.py`.  A
line recorded as a contract (`exit` a list) must end in a named
`WebflatError` with one of those exit codes and nothing on stdout.  The
gated workloads also replay under the benchmark's tracer.  Every corpus
line parses within the parser's bounds on term pairs and coefficient
bits, and every polynomial a corpus line prints parses back to itself.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import webflat.cli as cli
import webflat.errors as errors
from webflat.cli import main
from webflat.poly import render_poly

from helpers import record_engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CORPUS = PERFBENCH / "corpus"
WORKLOADS = ("curvature-q", "curvature-qtheta", "cli-mixed", "cli-batch")


def _lines(workload):
    with open(CORPUS / (workload + ".json"), encoding="utf-8") as handle:
        return json.load(handle)["lines"]


def _error_name(stderr):
    """Name in the CLI's `error: <Name>: message` line, or None."""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            return line[len("error: "):].split(":", 1)[0]
    return None


def _is_named_error(name):
    cls = getattr(errors, name or "", None)
    return isinstance(cls, type) and issubclass(cls, errors.WebflatError)


def _line_ok(entry):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(entry["argv"])
    stdout, name = out.getvalue(), _error_name(err.getvalue())
    if isinstance(entry["exit"], list):
        return stdout == "" and code in entry["exit"] and _is_named_error(name)
    return stdout == entry["stdout"] and code == entry["exit"] and name == entry["error"]


@pytest.mark.parametrize("workload", ["curvature-q", "curvature-qtheta", "cli-mixed"])
def test_corpus_replays_recorded_output(workload):
    lines = _lines(workload)
    assert lines
    failed = [entry["argv"] for entry in lines if not _line_ok(entry)]
    assert not failed, failed


# per-pass gcd calls by class under the closed-form curvature numerator
# over D^2, whose second reducing gcd is taken against the first
TRACED_GCD_CALLS = {
    "curvature-q": {"q2var": 62, "q3var": 0, "qtheta": 0},
    "curvature-qtheta": {"q2var": 8, "q3var": 0, "qtheta": 17},
}


@pytest.mark.parametrize("workload", sorted(TRACED_GCD_CALLS))
def test_traced_replay_keeps_output_and_gcd_counts(workload, monkeypatch):
    # the benchmark's tracer reads FieldScalar values from MPoly.terms
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    traced.install()
    try:
        failed = [entry["argv"] for entry in _lines(workload) if not _line_ok(entry)]
    finally:
        traced.uninstall()
    assert not failed, failed
    metrics = tracer.summarise(traced.spans, traced.counts)
    calls = {c: metrics["poly.gcd.%s.calls" % c] for c in tracer.GCD_CLASSES}
    assert calls == TRACED_GCD_CALLS[workload]
    assert metrics["poly.determinant.calls"] == 0  # curvature takes no determinant
    if workload == "curvature-q":  # no coefficient is a FieldScalar over Q
        assert metrics["field.mul.calls"] == metrics["field.add.calls"] == 0


# per-pass calls of the two-variable coprime certificate (how many it
# certified) and of the modular engine, whose two-variable calls are then
# left only for pairs with a common factor
CERTIFICATE_CALLS = {
    "curvature-q": {"certificate": 41, "certified": 36, "engine": 6},
    "curvature-qtheta": {"certificate": 15, "certified": 12, "engine": 5},
}


@pytest.mark.parametrize("workload", sorted(CERTIFICATE_CALLS))
def test_certificate_answers_most_coprime_pairs(workload, monkeypatch):
    import webflat.modular as modular

    seen, engine = [], []
    certificate = modular.certified_coprime

    def certifying(*args):
        seen.append(certificate(*args))
        return seen[-1]

    monkeypatch.setattr(modular, "certified_coprime", certifying)
    record_engine(monkeypatch, lambda variables, h: engine.append((len(variables), h.total_degree())))
    failed = [entry["argv"] for entry in _lines(workload) if not _line_ok(entry)]
    assert not failed, failed
    counts = {"certificate": len(seen), "certified": sum(seen), "engine": len(engine)}
    assert counts == CERTIFICATE_CALLS[workload]
    assert all(degree > 0 for k, degree in engine if k == 2)


def _record_charges(monkeypatch, message):
    """The amounts the parser charges with one of its refusal messages, as
    it charges them."""
    charged = []
    check = cli.charge

    def recording(amount, bound, text, *where):
        if text == message:
            charged.append(amount)
        check(amount, bound, text, *where)

    monkeypatch.setattr(cli, "charge", recording)
    return charged


def _record_bits(monkeypatch):
    """The bits the parser charges literals and powers, as it checks them."""
    return _record_charges(monkeypatch, cli._BITS)


def test_corpus_inputs_parse_within_the_pair_bound(monkeypatch):
    charged = _record_charges(monkeypatch, cli._PAIRS)
    bits = _record_bits(monkeypatch)
    for workload in WORKLOADS:
        for entry in _lines(workload):
            try:
                cli.build_command(entry["argv"])
            except errors.WebflatError as err:
                assert not isinstance(err, errors.DegreeExceeded), entry["argv"]
    assert max(charged) == 6 < cli.MAX_PARSE_PAIRS
    assert max(bits) == 6 < cli.MAX_PARSE_BITS


_POLY_KEYS = ("numerator", "denominator", "a0", "a1", "a2", "a3")
_POLY_VERBS = ("inflection", "discriminant", "tangent-cone")


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _printed_polys(entry):
    """Every polynomial text in a recorded stdout."""
    argv = entry["argv"]
    if _option(argv, "--format") == "json":
        result = json.loads(entry["stdout"])["result"]
        return [result[key] for key in _POLY_KEYS + ("text",) if key in result]
    lines = entry["stdout"].splitlines()
    if argv[0] in _POLY_VERBS:
        return lines
    pairs = [line.split(": ", 1) for line in lines]
    return [value for key, value in pairs if key in _POLY_KEYS]


def test_corpus_outputs_parse_back_to_themselves(monkeypatch):
    bits = _record_bits(monkeypatch)
    printed = []
    for workload in WORKLOADS:
        for entry in _lines(workload):
            if entry["exit"] != 0:
                continue
            field = _option(entry["argv"], "--field")
            spec = cli.parse_field(field) if field else None
            for text in _printed_polys(entry):
                poly = cli.parse_poly(text, spec)
                assert render_poly(poly) == text, entry["argv"]
                printed.append(poly)
    # outputs reach past total degree 16, where inputs stop at 9, and their
    # 8-digit literals are charged 26 bits, far under the bit bound
    assert max(poly.total_degree() for poly in printed) > 16
    assert max(bits) == 26 and 26 * 100 < cli.MAX_PARSE_BITS


def _counting(monkeypatch, owner, name):
    """Wrap owner.name so that every call is appended to the returned list."""
    calls, inner = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_expressions_without_parentheses_parse_without_the_kernel(monkeypatch):
    """A term of atoms is one key and one coefficient, a power of one is
    one key multiple and one coefficient power, and `+` adds into one map,
    so a corpus line with no parenthesis in its operands builds its command
    with no kernel product and no `MPoly.__pow__`."""
    import webflat.ground as ground
    import webflat.poly as poly

    products = _counting(monkeypatch, poly, "sum_of_products")
    ground_products = _counting(monkeypatch, ground, "sum_of_products")
    powers = _counting(monkeypatch, poly.MPoly, "__pow__")
    checked = 0
    for workload in WORKLOADS:
        for entry in _lines(workload):
            if any("(" in arg for arg in entry["argv"]):
                continue
            try:
                cli.build_command(entry["argv"])
            except errors.WebflatError:
                pass
            assert not products and not ground_products and not powers, entry["argv"]
            checked += 1
    assert checked == 598


def test_a_dual_curvature_line_expands_the_legendre_web_without_substituting(monkeypatch):
    """The Legendre web is expanded term by term: a dual-curvature line
    calls `legendre_transform` once, and neither `MPoly.substitute` nor
    `CubicWebEquation.from_polynomial`."""
    from webflat import webs
    from webflat.poly import MPoly

    substituted = _counting(monkeypatch, MPoly, "substitute")
    split = _counting(monkeypatch, webs.CubicWebEquation, "from_polynomial")
    transformed = _counting(monkeypatch, webs, "legendre_transform")
    lines = [entry for workload in TRACED_GCD_CALLS for entry in _lines(workload)
             if entry["argv"][0] == "dual-curvature" and entry["exit"] == 0]
    assert len(lines) == 42
    for entry in lines:
        del transformed[:]
        assert _line_ok(entry), entry["argv"]
        assert len(transformed) == 1 and not substituted and not split, entry["argv"]
