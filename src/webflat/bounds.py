"""The work bounds: how much work one command line may ask for, what each
step is charged against them, read off sizes at hand before the work is
done, and the refusal, `charge`, which raises `DegreeExceeded` (exit 2).
Nothing here knows `MPoly`, so the leaf `modular` charges through it too.
"""

from __future__ import annotations

import math

from .errors import DegreeExceeded
from .ground import parts
from .monomials import unpack

# The parser in `cli` refuses a product or a power whose expansion would
# multiply more than this many pairs of terms, before it expands it, and
# `singular` a translate of more terms or charged more than MAX_PARSE_BITS.
# A product of polynomials with m and n terms multiplies m*n pairs; a power
# is charged its last squaring, each half bounded by the C(n+j-1, j)
# monomials a j-th power of n terms can have.  So the terms the program
# itself renders, as p^14*q^4 or (1 - t)*p^7, always pass, while (x+1)^2000
# (about 10^6 pairs) and (x+y+1)^400 (about 4*10^8) are refused at once.  The
# corpora's inputs need at most 6 pairs (tests/test_corpus.py); at the bound
# the densest expansion, (x+y+z+p+q+1)^10, has 3003 terms.
MAX_PARSE_PAIRS = 2**16

# It also refuses a literal or a power whose coefficients would pass this
# many bits, before it converts or computes them.  A literal of d digits is
# charged d / 0.3 bits, so no uint token of more than 1229 digits reaches
# int().  A power f^e is charged e times the bits of f's coefficient 1-norm
# and of its common denominator, theta counting as max(1, |u| + |v|):
# nothing for a monomial with coefficient 1 or -1, e bits for (x+1)^e, and
# 400,000 for 3^200000, which is refused.  The corpora's coefficients stay
# under 27 bits, inputs and outputs alike (tests/test_corpus.py).
MAX_PARSE_BITS = 2**12

# `MPoly.evaluate_scalar` charges each term the powers of the point's values
# it would compute, as a power is charged above, and refuses a term charged
# past this many bits before it computes any.  It lies just above the 14,284
# bits of a 4300-digit int, the longest the interpreter prints by default, so
# a term past it could only reach the output if the terms cancelled.
MAX_EVALUATION_BITS = 2**14

# The modular gcd pads sparse inputs to dense images: y^N costs N cells
# however few its terms.  Each entry of `modular` charges its largest image
# before it builds any: the certificate its longest row, the engine an
# input's grid, the product of its degrees + 1 over the gcd's variables, as
# Brown's evaluation is dense in every variable, so that three variables are
# bounded too.  The corpora's gcds need at most 168 cells.
MAX_DENSE_CELLS = 2**16


def charge(amount: int, bound: int, message: str, *where):
    """Refuse work charged `amount`, past `bound`, before it is done:
    DegreeExceeded(message % (*where, amount, bound))."""
    if amount > bound:
        raise DegreeExceeded(message % (*where, amount, bound))


def ceil_log2(value) -> int:
    """ceil(log2(value)) for a rational value >= 1, and 0 below 1."""
    return (math.ceil(value) - 1).bit_length() if value > 1 else 0


def coefficient_bits(coefficients, theta) -> int:
    """The bits a power charges per unit of its exponent: those of the
    coefficients' 1-norm and of their common denominator."""
    kappa = 0 if theta is None else max(1, abs(theta[0]) + abs(theta[1]))
    norm, den = 0, 1
    for a, b in map(parts, coefficients):
        norm += abs(a) + abs(b) * kappa
        den = math.lcm(den, a.denominator, b.denominator)
    return ceil_log2(norm * den) + ceil_log2(den)


def power_pairs(terms: int, exponent: int) -> int:
    """The term pairs of the last squaring of a power of `terms` terms."""
    if terms < 2:  # a monomial or zero
        return terms
    half, rest = exponent // 2, exponent - exponent // 2
    return math.comb(terms + half - 1, half) * math.comb(terms + rest - 1, rest)


def charge_translate(terms: dict, images: dict, theta, x0, y0):
    """Refuse f(x + x0, y + y0), f's ground map being `terms` and `images`
    mapping 0 to x + x0 and 1 to y + y0 for each nonzero shift, before it is
    expanded: past MAX_PARSE_PAIRS terms, but for cancellation, or past
    MAX_PARSE_BITS bits, each image charged as the parser charges a power."""
    stairs, count = {}, 0
    for m in terms:  # per exponent of a variable left in place, a staircase
        free, corner = zip(*[(0, e) if i in images else (e, 0)
                             for i, e in enumerate(unpack(m)[:2])])
        stairs.setdefault(free, []).append(corner)
    for corners in stairs.values():  # the columns right of i, of height high + 1
        high, right = -1, 0
        for i, j in sorted(corners, reverse=True) + [(-1, 0)]:
            count += (right - i) * (high + 1)
            high, right = max(high, j), i
    bits = sum(max((c[i] for cs in stairs.values() for c in cs), default=0)
               * coefficient_bits(image.values(), theta) for i, image in images.items())
    if count > MAX_PARSE_PAIRS or bits > MAX_PARSE_BITS:
        raise DegreeExceeded(
            "the translate to (%s, %s) has %d terms and is charged %d bits, past the bounds %d "
            "and %d" % (x0, y0, count, bits, MAX_PARSE_PAIRS, MAX_PARSE_BITS))
