"""Independent floating-point rerun of the dual-curvature pipeline.

A deliberately separate implementation (complex-coefficient dicts, plain
recursive determinants, no exact arithmetic or reduction) used as the
numeric oracle against the exact pipeline.  `evaluate_float` evaluates an
exact `MPoly` in floats, through its public `terms`; the package itself
has no floating point.
"""

from __future__ import annotations

from webflat.errors import DomainError

VARIABLES = ("x", "y", "z", "p", "q", "t")
N_VARS = len(VARIABLES)


class BadEmbedding(DomainError):
    """A theta embedding missing, not a root, or given for the rationals."""


def embed(c, theta_embedding=None) -> complex:
    """Numeric value of the FieldScalar c under theta -> theta_embedding."""
    if c.b == 0:
        return complex(c.a)
    return complex(c.a) + complex(c.b) * theta_embedding


def evaluate_float(f, point: dict, theta_embedding: complex | None = None) -> complex:
    """Floating evaluation of the MPoly f at {variable: complex}.

    A quadratic field requires `theta_embedding`, an approximate root of
    the minimal polynomial (checked to 1e-12); the rationals forbid it.
    """
    theta, spec = theta_embedding, f.spec
    if spec.is_quadratic:
        if theta is None:
            raise BadEmbedding("quadratic field needs a theta embedding")
        if abs(theta * theta - complex(spec.u) * theta - complex(spec.v)) > 1e-12:
            raise BadEmbedding("embedding does not satisfy the minimal polynomial")
    elif theta is not None:
        raise BadEmbedding("theta embedding supplied for a rational field")
    total = 0j
    for exponent, c in f.terms.items():
        value = embed(c, theta)
        for name, k in zip(VARIABLES, exponent):
            if k:
                value *= complex(point[name]) ** k
        total += value
    return total


def float_poly_from_mpoly(f, theta_embedding=None):
    return {exponent: embed(c, theta_embedding) for exponent, c in f.terms.items()}


def _mono(i):
    exponent = [0] * N_VARS
    exponent[i] = 1
    return {tuple(exponent): 1.0 + 0j}


X, Y, Z, P, Q, T = (_mono(i) for i in range(N_VARS))
X_I, Y_I, P_I, Q_I = 0, 1, 3, 4


def add(f, g):
    out = dict(f)
    for e, c in g.items():
        total = out.get(e, 0j) + c
        if total == 0:
            out.pop(e, None)
        else:
            out[e] = total
    return out


def neg(f):
    return {e: -c for e, c in f.items()}


def sub(f, g):
    return add(f, neg(g))


def mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0j) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def smul(f, s):
    return {e: c * s for e, c in f.items()}


def diff(f, i):
    out = {}
    for e, c in f.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return out


def subs(f, images):
    """Simultaneous substitution {variable index: float poly}."""
    result = {}
    for e, c in f.items():
        term = {(0,) * N_VARS: c}
        stripped = list(e)
        for i, image in images.items():
            stripped[i] = 0
            for _ in range(e[i]):
                term = mul(term, image)
        term = mul(term, {tuple(stripped): 1.0 + 0j})
        result = add(result, term)
    return result


def coeff_in(f, i, k):
    out = {}
    for e, c in f.items():
        if e[i] == k:
            out[e[:i] + (0,) + e[i + 1 :]] = c
    return out


def det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = {}
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = mul(entry, det(minor))
        total = add(total, term if j % 2 == 0 else neg(term))
    return total


def evaluate(f, point):
    total = 0j
    for e, c in f.items():
        value = c
        for i, k in enumerate(e):
            if k:
                value *= point[i] ** k
        total += value
    return total


def curvature_fraction(f, u_index, v_index, slope_index):
    """(numerator, denominator) of the curvature coefficient of the
    slope-cubic web f, as float polys."""
    a3 = coeff_in(f, slope_index, 0)
    a2 = coeff_in(f, slope_index, 1)
    a1 = coeff_in(f, slope_index, 2)
    a0 = coeff_in(f, slope_index, 3)
    zero = {}
    big_r = det(
        [
            [a0, a1, a2, a3, zero],
            [zero, a0, a1, a2, a3],
            [smul(a0, 3), smul(a1, 2), a2, zero, zero],
            [zero, smul(a0, 3), smul(a1, 2), a2, zero],
            [zero, zero, smul(a0, 3), smul(a1, 2), a2],
        ]
    )
    alpha0 = [
        diff(a0, v_index),
        add(diff(a0, u_index), diff(a1, v_index)),
        add(diff(a1, u_index), diff(a2, v_index)),
        add(diff(a2, u_index), diff(a3, v_index)),
        diff(a3, u_index),
    ]
    tail = [
        [neg(a0), zero, a2, smul(a3, 2), zero],
        [zero, smul(a0, -2), neg(a1), zero, a3],
        [zero, zero, smul(a0, -3), smul(a1, -2), neg(a2)],
    ]
    alpha1 = det([alpha0, [a0, a1, a2, a3, zero]] + tail)
    alpha2 = det([alpha0, [zero, a0, a1, a2, a3]] + tail)
    numerator = sub(
        mul(add(diff(alpha2, u_index), diff(alpha1, v_index)), big_r),
        add(mul(alpha2, diff(big_r, u_index)), mul(alpha1, diff(big_r, v_index))),
    )
    return numerator, mul(big_r, big_r)


def dual_curvature_value(a, b, p0, q0):
    """Curvature coefficient of the dual web at (p0, q0), all in floats.

    `a`, `b` are float polys in x, y; mirrors the exact pipeline:
    y -> p*x + q, then the simultaneous swap {p -> x, q -> y, x -> -p},
    curvature in the (x, y) chart, evaluated at x = p0, y = q0.
    """
    f = sub(b, mul(P, a))
    f = subs(f, {Y_I: add(mul(P, X), Q)})
    f = subs(f, {P_I: X, Q_I: Y, X_I: neg(P)})
    numerator, denominator = curvature_fraction(f, X_I, Y_I, P_I)
    point = [p0, q0, 0j, 0j, 0j, 0j]
    return evaluate(numerator, point) / evaluate(denominator, point)
