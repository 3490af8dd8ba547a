"""Seeded line generators for the four benchmark workloads, and the recorder
of their expected outputs.

    python3 perfbench/workloads.py --seed 5005

draws every workload's lines from the seed, runs each line once through
`webflat.cli.main`, and writes `perfbench/corpus/<workload>.json`: the argv
of every line with its expected stdout bytes, exit code and error name.
Record only from a commit whose outputs are trusted; `run.py` checks every
later run against these files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import shlex
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
WORKLOADS = ("curvature-q", "curvature-qtheta", "cli-mixed", "cli-batch")

# Slope-discriminant size cap of the random curvature lines: a drawn line is
# admitted only if R has at most this many terms, an input property checked
# before any timing.  Above it single lines took 2-350 s when recorded, so one
# pass would no longer fit several times in a run.
MAX_R_TERMS = 16

# Over Q(theta) R does not bound the time (lines under the cap took up to
# 25 s when recorded), so a drawn curvature-qtheta line is also admitted only
# if it ran within this time once, while the corpus was generated.
QTHETA_MAX_SECONDS = 1.0

# Per-line time window of the curvature-q lines that cli-batch adds to
# cli-mixed's lines, measured when the corpus is recorded.
BATCH_HEAVY_SECONDS = (0.1, 3.0)

QUADRATIC_FIELDS = ("t^2=t+1", "t^2=t-1")

GOLDEN = "x^3 ; y^3-1"
ROADMAP_Q_FIELDS = ("x^3+x*y^2+y ; x*y^2+y^3+x-3", "x^3+2*x*y^2 ; y^3+x-3")
ROADMAP_QTHETA_FIELDS = ("x^3+t*x ; y^3-1", "x^3 ; y^3+t*y-1", "x^3-t ; y^3-1")

# The two inputs that still end in a bare ValueError at the seed.  Their
# contract is exit 1 or 2 with a named WebflatError and no traceback.
NAMED_ERROR_LINES = (
    ["flat", "--vf", "z ; y"],
    ["eta", "0 ; 1 ; x", "-1"],
)


def _webflat():
    import webflat

    return webflat


# -- random families (the same draws as the acceptance criteria) --------------


def random_poly_td(rng, variables, max_total, n_terms):
    """Criterion 05's family: bounded total degree, coefficients in [-3, 3]."""
    wf = _webflat()
    poly = wf.MPoly.zero()
    for _ in range(n_terms):
        exponent = [0] * len(wf.VARIABLES)
        for _ in range(rng.randint(0, max_total)):
            exponent[wf.VARIABLES.index(rng.choice(variables))] += 1
        poly = poly + wf.MPoly.monomial(tuple(exponent), rng.randint(-3, 3))
    return poly


def random_homogeneous(rng, degree, variables):
    """Criterion 04's family: random homogeneous polynomial, never zero."""
    wf = _webflat()
    while True:
        poly = wf.MPoly.zero()
        for combo in _compositions(degree, len(variables)):
            coeff = rng.randint(-4, 4)
            if rng.random() < 0.4 or coeff == 0:
                continue
            exponent = [0] * len(wf.VARIABLES)
            for name, e in zip(variables, combo):
                exponent[wf.VARIABLES.index(name)] = e
            poly = poly + wf.MPoly.monomial(tuple(exponent), coeff)
        if not poly.is_zero():
            return poly


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [
        (head,) + tail
        for head in range(total + 1)
        for tail in _compositions(total - head, parts - 1)
    ]


def _text(poly):
    return _webflat().render_poly(poly)


def _vf_text(a, b):
    return "%s ; %s" % (_text(a), _text(b))


def draw_degree3_field(rng):
    """Criterion 05's admissible random degree-3 field, as (A, B)."""
    wf = _webflat()
    while True:
        a = random_poly_td(rng, ("x", "y"), 3, 3)
        b = random_poly_td(rng, ("x", "y"), 3, 3)
        if a.is_zero() and b.is_zero():
            continue
        try:
            wf.legendre_transform(wf.AffineVectorField(a, b))
        except (wf.DegreeTooLow, wf.DegenerateWeb, wf.DegreeExceeded):
            continue
        return a, b


def draw_cubic_web(rng, max_total=2):
    """Criterion 08's random cubic web, as its polynomial in p."""
    wf = _webflat()
    p = wf.MPoly.variable("p")
    while True:
        coeffs = [random_poly_td(rng, ("x", "y"), max_total, 2) for _ in range(4)]
        poly = sum((c * p ** (3 - i) for i, c in enumerate(coeffs)), wf.MPoly.zero())
        if poly.degree_in("p") != 3:
            continue
        web = wf.CubicWebEquation.from_polynomial(poly, "p", ("x", "y"))
        if not web.discriminant().is_zero():
            return poly


def with_theta(rng, texts):
    """Multiply one term of one operand by t (theta in one coefficient)."""
    wf = _webflat()
    index = rng.choice([i for i, text in enumerate(texts) if text != "0"])
    poly = wf.parse_poly(texts[index])
    chosen = rng.choice(sorted(poly.terms))
    single = wf.MPoly.monomial(chosen, poly.terms[chosen])
    text = "%s + t*(%s)" % (_text(poly - single), _text(single))
    out = list(texts)
    out[index] = text
    return out


def slope_discriminant_terms(argv):
    """Terms of R, the slope discriminant the curvature line reduces by."""
    wf = _webflat()
    spec = wf.parse_field(argv[argv.index("--field") + 1]) if "--field" in argv else None
    if argv[0] == "dual-curvature":
        a, b = (wf.parse_poly(part, spec) for part in argv[argv.index("--vf") + 1].split(";"))
        web = wf.legendre_transform(wf.AffineVectorField(a, b))
    else:
        web = wf.CubicWebEquation.from_polynomial(
            wf.parse_poly(argv[argv.index("--web") + 1], spec), "p", ("x", "y")
        )
    return len(web.discriminant().terms)


# -- workloads --------------------------------------------------------------------


def _dual(vf, fmt="json", field=None):
    argv = ["dual-curvature", "--vf", vf, "--format", fmt]
    return argv + ["--field", field] if field else argv


def _web(poly_text, fmt="json", field=None):
    argv = ["curvature", "--web", poly_text, "--format", fmt]
    return argv + ["--field", field] if field else argv


def admitted(candidates, max_seconds=None):
    """Yield the candidate lines whose slope discriminant has at most
    MAX_R_TERMS terms and, given max_seconds, that ran within it once.
    Lines that raise a WebflatError while R is computed are inadmissible."""
    for argv in candidates:
        try:
            if slope_discriminant_terms(argv) > MAX_R_TERMS:
                continue
        except _webflat().WebflatError:
            continue  # theta made the line inadmissible (degree or degenerate)
        if max_seconds is None or record_line(argv)[1] <= max_seconds:
            yield argv


def curvature_q_lines(rng, field_draws=40, web_draws=16):
    """Golden and ROADMAP fields, then every admitted line of the first
    draws of criterion 05's fields and criterion 08's webs."""
    lines = [_dual(GOLDEN)] + [_dual(vf) for vf in ROADMAP_Q_FIELDS]
    fields = [_dual(_vf_text(*draw_degree3_field(rng))) for _ in range(field_draws)]
    webs = [_web(_text(draw_cubic_web(rng))) for _ in range(web_draws)]
    return lines + list(admitted(fields)) + list(admitted(webs))


def curvature_qtheta_lines(rng, q_lines, field_draws=48, reruns=3):
    """ROADMAP theta fields, every admitted line of the first draws of
    criterion 05's fields with theta in one coefficient, and the first
    admitted curvature-q random fields and webs re-run under a quadratic
    --field (rational coefficients under a quadratic spec)."""
    lines = [
        _dual(vf, field=QUADRATIC_FIELDS[i % 2])
        for i, vf in enumerate(ROADMAP_QTHETA_FIELDS)
    ]
    fields = [
        _dual(" ; ".join(with_theta(rng, [_text(p) for p in draw_degree3_field(rng)])),
              field=QUADRATIC_FIELDS[i % 2])
        for i in range(field_draws)
    ]
    lines += admitted(fields, QTHETA_MAX_SECONDS)
    drawn = q_lines[1 + len(ROADMAP_Q_FIELDS):]
    for verb in ("dual-curvature", "curvature"):
        candidates = (argv + ["--field", QUADRATIC_FIELDS[i % 2]]
                      for i, argv in enumerate(a for a in drawn if a[0] == verb))
        lines += itertools.islice(admitted(candidates, QTHETA_MAX_SECONDS), reruns)
    return lines


def _fmt(rng):
    return ["--format", rng.choice(("text", "json"))]


def _small_field(rng):
    while True:
        a = random_poly_td(rng, ("x", "y"), 3, 2)
        b = random_poly_td(rng, ("x", "y"), 3, 2)
        if not (a.is_zero() and b.is_zero()):
            return a, b


def _flat_field(rng):
    """Criterion 03's H*(x, y), H homogeneous cubic: flat when admissible."""
    wf = _webflat()
    while True:
        h = random_homogeneous(rng, 3, ("x", "y"))
        vf = wf.AffineVectorField(h * wf.parse_poly("x"), h * wf.parse_poly("y"))
        try:
            wf.legendre_transform(vf)
        except (wf.DegreeTooLow, wf.DegenerateWeb):
            continue
        return vf.a, vf.b


def _singular_field(rng):
    """A field whose saturation vanishes at a seeded point, and the point."""
    wf = _webflat()
    while True:
        x0, y0 = rng.randint(-2, 2), rng.randint(-2, 2)
        u = wf.parse_poly("x - (%d)" % x0)
        v = wf.parse_poly("y - (%d)" % y0)
        a, b = (
            u * random_poly_td(rng, ("x", "y"), 2, 2) + v * random_poly_td(rng, ("x", "y"), 2, 2)
            for _ in range(2)
        )
        if a.is_zero() or b.is_zero():
            continue
        if wf.multiplicity_nu(wf.AffineVectorField(a, b), (x0, y0)) > 0:
            return a, b, "%d,%d" % (x0, y0)


def _homogeneous_field(rng):
    d = rng.choice((1, 2))
    return [random_homogeneous(rng, d, ("x", "y", "z")) for _ in range(3)]


def _eta_operands(rng):
    wf = _webflat()
    while True:
        hs = [random_poly_td(rng, ("x", "y"), 1, 2) for _ in range(3)]
        try:
            wf.EtaWebSpec(*hs, 1)
        except wf.WebflatError:
            continue
        return " ; ".join(_text(h) for h in hs)


def _eta_web(rng):
    """Product of (p + y^a*h_i): criterion 07's three-slope webs."""
    wf = _webflat()
    while True:
        hs = [random_poly_td(rng, ("x", "y"), 1, 2) for _ in range(3)]
        a = rng.choice((1, 2))
        p, y = wf.parse_poly("p"), wf.parse_poly("y")
        product = wf.MPoly.one()
        for h in hs:
            product = product * (p + y ** a * h)
        if product.degree_in("p") != 3:
            continue
        web = wf.CubicWebEquation.from_polynomial(product, "p", ("x", "y"))
        if not web.discriminant().is_zero():
            return _text(product)


THETA_VERBS = ("legendre", "discriminant", "tangent-cone", "inflection", "gauss")


def _valid_mixed_line(rng, verb):
    """One valid line of the given verb; a quarter of the field-taking verbs'
    lines get theta in one coefficient, under a quadratic --field."""
    argv = _q_mixed_line(rng, verb)
    if verb in THETA_VERBS and "--vf" in argv and rng.random() < 0.25:
        index = argv.index("--vf") + 1
        argv[index] = " ; ".join(with_theta(rng, [s.strip() for s in argv[index].split(";")]))
        argv += ["--field", rng.choice(QUADRATIC_FIELDS)]
    return argv


def _q_mixed_line(rng, verb):
    """One valid line of the given verb (classify also over Q(theta))."""
    if verb == "legendre":
        return ["legendre", "--vf", _vf_text(*draw_degree3_field(rng))] + _fmt(rng)
    if verb == "curvature":
        return ["curvature", "--web", _eta_web(rng), "--along", rng.choice(("y", "x", "y - x"))] + _fmt(rng)
    if verb == "dual-curvature":
        return ["dual-curvature", "--vf", _vf_text(*_flat_field(rng))] + _fmt(rng)
    if verb == "flat":
        return ["flat", "--vf", _vf_text(*_flat_field(rng))] + _fmt(rng)
    if verb == "inflection":
        return ["inflection", "--vf", " ; ".join(map(_text, _homogeneous_field(rng)))] + _fmt(rng)
    if verb == "discriminant":
        if rng.random() < 0.5:
            return ["discriminant", "--web", _text(draw_cubic_web(rng, 1))] + _fmt(rng)
        return ["discriminant", "--vf", _vf_text(*draw_degree3_field(rng))] + _fmt(rng)
    if verb == "tangent-cone":
        return ["tangent-cone", "--vf", _vf_text(*_small_field(rng))] + _fmt(rng)
    if verb == "sing":
        a, b, at = _singular_field(rng)
        return ["sing", "--vf", _vf_text(a, b), "--at", at] + _fmt(rng)
    if verb == "eta":
        return ["eta", _eta_operands(rng), str(rng.choice((0, 1, 2)))] + _fmt(rng)
    if verb == "classify":
        if rng.random() < 0.5:
            nu = rng.choice(("t", "1-t", "2*t", "t+1", "-t"))
            return ["classify", nu, "--field", rng.choice(QUADRATIC_FIELDS)] + _fmt(rng)
        num, den = rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 2, 3))
        return ["classify", "%d/%d" % (num, den) if num > 0 else "-%d/%d" % (-num, den)] + _fmt(rng)
    if verb == "gauss":
        at = ",".join(str(rng.randint(-3, 3) or 1) for _ in range(3))
        return ["gauss", "--vf", " ; ".join(map(_text, _homogeneous_field(rng))), "--at", at] + _fmt(rng)
    raise ValueError(verb)


def _invalid_mixed_line(rng, kind):
    """Lines that must end in a named error: parse/usage (exit 1) or domain (exit 2)."""
    if kind == "parse":
        return rng.choice((
            ["flat", "--vf", "x^3 ; y^3 +"],
            ["flat", "--vf", "x^3 ; w"],
            ["legendre", "--vf", "x^3 ; y^3-1 ; 0"],
            ["dual-curvature", "--vf", "x^3 ; y^3-t"],
            ["sing", "--vf", "x^3 ; y^3-1"],
            ["classify"],
            ["tangent-cone", "--vf", "x*y ; 2x"],
            ["gauss", "--vf", "x ; y ; z", "--at", "1,2"],
            ["curvature", "--web", "p^3 - x", "--format", "yaml"],
            ["eta", "0 ; 1 ; x", "one"],
            ["classify", "t", "--field", "t^3=t+1"],
        ))
    if kind == "not-singular":
        a, b = _small_field(rng)
        return ["sing", "--vf", _vf_text(a + _webflat().MPoly.one(), b), "--at", "0,0"]
    # degenerate web: a cube of a linear factor has zero slope discriminant
    return ["curvature", "--web", "(p - %d*x)^3" % rng.randint(1, 3)]


MIXED_VERBS = (
    "legendre", "curvature", "dual-curvature", "flat", "inflection", "discriminant",
    "tangent-cone", "sing", "eta", "classify", "gauss",
)


def cli_mixed_lines(rng, per_verb=25, invalid=36):
    lines = [_valid_mixed_line(rng, verb) for verb in MIXED_VERBS for _ in range(per_verb)]
    kinds = ("parse", "not-singular", "degenerate")
    lines += [_invalid_mixed_line(rng, kinds[i % 3]) for i in range(invalid)]
    lines += [list(argv) for argv in NAMED_ERROR_LINES]
    return lines


# -- recording ----------------------------------------------------------------------


def run_main(argv):
    """One in-process CLI call: (stdout, stderr, exit code, raised exception name)."""
    from webflat.cli import main

    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # the harness must survive any program defect
            raised = type(exc).__name__
    return out.getvalue(), err.getvalue(), code, raised


def error_name(stderr):
    """Name in the CLI's `error: <Name>: message` line, or None."""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            return line[len("error: "):].split(":", 1)[0]
    return None


def record_line(argv, named_error=False):
    start = time.perf_counter()
    stdout, stderr, code, raised = run_main(argv)
    elapsed = time.perf_counter() - start
    entry = {"argv": argv, "stdout": stdout, "exit": code, "error": error_name(stderr)}
    if named_error:
        entry = {"argv": argv, "stdout": "", "exit": [1, 2], "error": "WebflatError"}
    elif raised is not None:
        raise SystemExit("line %s raised %s while recording" % (shlex.join(argv), raised))
    return entry, elapsed


def record(seed):
    rng = {name: random.Random("%d:%s" % (seed, name)) for name in WORKLOADS}
    generated = {"curvature-q": curvature_q_lines(rng["curvature-q"])}
    generated["curvature-qtheta"] = curvature_qtheta_lines(
        rng["curvature-qtheta"], generated["curvature-q"]
    )
    generated["cli-mixed"] = cli_mixed_lines(rng["cli-mixed"])
    named = {tuple(argv) for argv in NAMED_ERROR_LINES}
    recorded = {}
    for name in ("curvature-q", "curvature-qtheta", "cli-mixed"):
        entries = []
        for argv in generated[name]:
            entry, elapsed = record_line(argv, tuple(argv) in named)
            entry["recorded_s"] = round(elapsed, 4)
            entries.append(entry)
            print("%-17s %8.3f s  %s" % (name, elapsed, shlex.join(argv))[:160], flush=True)
        recorded[name] = entries
    low, high = BATCH_HEAVY_SECONDS
    heavy = [e for e in recorded["curvature-q"] if low <= e["recorded_s"] <= high]
    recorded["cli-batch"] = [
        e for e in recorded["cli-mixed"] if tuple(e["argv"]) not in named
    ] + heavy
    os.makedirs(CORPUS_DIR, exist_ok=True)
    for name, entries in recorded.items():
        path = os.path.join(CORPUS_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed, "lines": entries}, handle, indent=1)
            handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    record(args.seed)


if __name__ == "__main__":
    main()
