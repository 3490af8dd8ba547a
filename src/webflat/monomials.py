"""Packed monomials: an exponent vector is one int of seven WIDTH-bit
fields (Monagan and Pearce, J. Symb. Comp. 2011), from the top down the
total degree, then the exponents of x, y, z, p, q and t.  Comparing two
packed ints is comparing in graded lexicographic order with
x > y > z > p > q > t, the one monomial order used (leading terms, gcd
normalization, rendering), and multiplying two monomials adds their ints.
The top bit of each field is a guard bit: every exponent and total degree
stays below BOUND = 2**(WIDTH-1), so adding two fields never carries into
the next; constructors, products and powers past it raise DegreeExceeded.
With G the guard bits, a monomial b divides a iff d = (a | G) - b keeps
them all, d & G == G, and then a/b = d ^ G (`monomial_quotient`).  Other
modules go through `exponent_at`, `monomial_quotient`, `unit` and `UNIT`
and never read the bit format.  The public API of `MPoly` keeps
6-tuples; `pack`, `unpack` and `monomial_degree` convert.
"""

from __future__ import annotations

from .errors import DegreeExceeded

VARIABLES = ("x", "y", "z", "p", "q", "t")
NVARS = len(VARIABLES)

WIDTH = 32
BOUND = 1 << (WIDTH - 1)  # every exponent and total degree stays below
MASK = (1 << WIDTH) - 1
TOP = NVARS * WIDTH  # the shift of the total-degree field
SHIFT = tuple((NVARS - 1 - i) * WIDTH for i in range(NVARS))  # of x, y, ..., t
GUARDS = sum(BOUND << s for s in (TOP,) + SHIFT)


def unit(shift: int) -> int:
    """The packed variable whose exponent sits at `shift`."""
    return 1 << shift | 1 << TOP


UNIT = tuple(map(unit, SHIFT))  # the packed x, y, ..., t


def bounded(total: int) -> int:
    if total >= BOUND:
        raise DegreeExceeded("total degree %d is past the bound %d" % (total, BOUND - 1))
    return total


def pack(vector) -> int:
    """A vector of six nonnegative exponents as one int."""
    if min(vector) < 0:
        raise DegreeExceeded("negative exponent in %r" % (tuple(vector),))
    packed = sum(e << s for e, s in zip(vector, SHIFT, strict=True))
    return bounded(sum(vector)) << TOP | packed


def exponent_at(m: int, shift: int) -> int:
    """The field of a packed monomial at `shift`: an exponent at one of
    SHIFT, the total degree at TOP."""
    return m >> shift & MASK


def monomial_quotient(a: int, b: int):
    """a / b for packed monomials when b divides a, else None."""
    d = (a | GUARDS) - b
    return d ^ GUARDS if d & GUARDS == GUARDS else None


def unpack(m: int) -> tuple:
    """The exponent 6-tuple of a packed monomial."""
    return tuple([m >> s & MASK for s in SHIFT])


def monomial_degree(m: int) -> int:
    """The total degree of a packed monomial."""
    return m >> TOP
