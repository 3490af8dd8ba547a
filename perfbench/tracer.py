"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each traced public name of webflat's layers
(field, poly, webs, singular, cli) with a wrapper, in every webflat module
namespace that binds it, and `uninstall()` puts the originals back.  No
webflat source changes.  Spans are kept in memory as

    [name, start, end, parent index, line id, attributes]

and summarised or written out after the run.  Hot field arithmetic is
counted, not spanned.  Span times come from `clock`: wall time in the
single-threaded harness, per-thread CPU time in a threaded batch child,
where a span's wall time would include waiting for the interpreter lock.
`cli.run_batch` is always wall time.
"""

from __future__ import annotations

import json
import sys
import threading
import time

# (module, public name, span name); classes are patched once, on the class.
SPANNED = (
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "RatFn.__init__", "poly.ratfn_init"),
    ("poly", "exact_divide", "poly.exact_divide"),
    ("poly", "squarefree_part", "poly.squarefree_part"),
    ("poly", "determinant", "poly.determinant"),
    ("poly", "cubic_resultant", "poly.cubic_resultant"),
    ("poly", "MPoly.__mul__", "poly.mul"),
    ("poly", "MPoly.__rmul__", "poly.mul"),
    ("poly", "MPoly.substitute", "poly.substitute"),
    ("poly", "render_poly", "poly.render_poly"),
    ("webs", "legendre_transform", "webs.legendre_transform"),
    ("webs", "web_curvature", "webs.web_curvature"),
    ("webs", "dual_curvature", "webs.dual_curvature"),
    ("webs", "holomorphic_along", "webs.holomorphic_along"),
    ("webs", "eta_criterion", "webs.eta_criterion"),
    ("webs", "inflection_divisor", "webs.inflection_divisor"),
    ("webs", "gauss_map_point", "webs.gauss_map_point"),
    ("singular", "classify_singularity", "singular.classify_singularity"),
    ("singular", "verify_classification", "singular.verify_classification"),
    ("singular", "field_roots", "singular.field_roots"),
    ("singular", "saturate", "singular.saturate"),
    ("cli", "build_command", "cli.build_command"),
    ("cli", "execute", "cli.execute"),
    ("cli", "run_line", "cli.run_line"),
    ("cli", "run_batch", "cli.run_batch"),
)

COUNTED = (
    ("field", "FieldScalar.__mul__", "field.mul"),
    ("field", "FieldScalar.__rmul__", "field.mul"),
    ("field", "FieldScalar.__add__", "field.add"),
    ("field", "FieldScalar.__radd__", "field.add"),
    ("field", "FieldScalar.__sub__", "field.add"),
    ("field", "FieldScalar.__rsub__", "field.add"),
    ("field", "FieldScalar.inverse", "field.inverse"),
)

GCD_CLASSES = ("q2var", "q3var", "qtheta")

TIMED = tuple(dict.fromkeys(
    ["poly.gcd." + c for c in GCD_CLASSES]
    + [span for _, _, span in SPANNED if span not in ("poly.gcd", "cli.run_line", "cli.run_batch")]
))


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for cls in GCD_CLASSES:
        units["poly.gcd.%s.total_s" % cls] = "s"
        units["poly.gcd.%s.in_terms_max" % cls] = "terms"
        units["poly.gcd.%s.coeff_bits_max" % cls] = "bits"
        units["poly.gcd.%s.unit_share" % cls] = "share"
    for name in ("field.mul", "field.add", "field.inverse"):
        units[name + ".calls"] = "count"
    units["cli.run_batch.wall_s"] = "s"
    units["cli.run_line.busy_s"] = "s"
    units["cli.batch.busy_over_wall"] = "ratio"
    units["trace.overhead_share"] = "share"
    return units


def gcd_class(f, g):
    """Class of a gcd call from its inputs alone, never from the path taken."""
    rational = all(c.is_rational() for p in (f, g) for c in p.terms.values())
    if not rational:
        return "qtheta"
    return "q2var" if len(f.variables() | g.variables()) <= 2 else "q3var"


def coeff_bits(*polys):
    bits = 0
    for poly in polys:
        for c in poly.terms.values():
            for part in (c.a, c.b):
                bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.line = None
        self._local = threading.local()
        self._saved = []
        self.line_of_argv = None  # batch child: argv tuple -> input line ids

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _line(self):
        return getattr(self._local, "line", self.line)

    def _span(self, name, func, clock=None):
        spans = self.spans
        stack_of = self._stack
        line_of = self._line
        clock = clock or self.clock

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, line_of(), None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _gcd_span(self, func):
        spans = self.spans
        stack_of = self._stack
        line_of = self._line
        clock = self.clock

        def poly_gcd(f, g):
            stack = stack_of()
            span = [None, 0.0, 0.0, stack[-1] if stack else None, line_of(), None]
            span[0] = "poly.gcd." + gcd_class(f, g)
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = func(f, g)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = {
                "in_terms": max(len(f.terms), len(g.terms)),
                "coeff_bits": coeff_bits(f, g),
                "unit": result.is_one(),
            }
            return result

        return poly_gcd

    def _run_line_span(self, func):
        """cli.run_line, which in a batch child first tags its thread with
        the input line it runs."""
        traced = self._span("cli.run_line", func)

        def run_line(argv):
            if self.line_of_argv is not None:
                self._local.line = self.line_of_argv[tuple(argv)].pop(0)
            return traced(argv)

        return run_line

    def _counter(self, name, func):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return func(*args)

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        import webflat  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "webflat" or n.startswith("webflat.")]
        for module_name, public, label in SPANNED + COUNTED:
            module = sys.modules["webflat." + module_name]
            owner_name, _, attr = public.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(label, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(label, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _wrap(self, label, original):
        if label == "poly.gcd":
            return self._gcd_span(original)
        if label == "cli.run_line":
            return self._run_line_span(original)
        if label.startswith("field."):
            return self._counter(label, original)
        if label == "cli.run_batch":
            return self._span(label, original, time.perf_counter)
        return self._span(label, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def write_spans(path, header, spans, counts):
    """JSON lines: the header, one line per span, then the field counts."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")
        handle.write(json.dumps({"counts": counts}) + "\n")


def summarise(spans, counts):
    """Per-layer totals of one set of spans: calls, self time and gcd extras."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent is not None:
            child_time[parent] += span[2] - span[1]
    out = {name: {"calls": 0, "self_s": 0.0} for name in TIMED}
    gcd = {c: {"total_s": 0.0, "in_terms_max": 0, "coeff_bits_max": 0, "units": 0} for c in GCD_CLASSES}
    batch_wall = 0.0
    line_busy = 0.0
    for index, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        if name == "cli.run_batch":
            batch_wall += end - start
        elif name == "cli.run_line":
            line_busy += end - start
        if name not in out:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        attrs = span[5]
        if name.startswith("poly.gcd.") and attrs:  # a gcd that raised has none
            stats = gcd[name[len("poly.gcd."):]]
            stats["total_s"] += end - start
            stats["in_terms_max"] = max(stats["in_terms_max"], attrs["in_terms"])
            stats["coeff_bits_max"] = max(stats["coeff_bits_max"], attrs["coeff_bits"])
            stats["units"] += attrs["unit"]
    metrics = {}
    for name, entry in out.items():
        metrics[name + ".calls"] = entry["calls"]
        metrics[name + ".self_s"] = entry["self_s"]
    for cls, stats in gcd.items():
        calls = out["poly.gcd." + cls]["calls"]
        metrics["poly.gcd.%s.total_s" % cls] = stats["total_s"]
        metrics["poly.gcd.%s.in_terms_max" % cls] = stats["in_terms_max"]
        metrics["poly.gcd.%s.coeff_bits_max" % cls] = stats["coeff_bits_max"]
        metrics["poly.gcd.%s.unit_share" % cls] = stats["units"] / calls if calls else 0.0
    for name in ("field.mul", "field.add", "field.inverse"):
        metrics[name + ".calls"] = counts.get(name, 0)
    metrics["cli.run_batch.wall_s"] = batch_wall
    metrics["cli.run_line.busy_s"] = line_busy
    metrics["cli.batch.busy_over_wall"] = line_busy / batch_wall if batch_wall else 0.0
    return metrics
