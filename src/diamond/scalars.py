"""Exact coefficient arithmetic.

Scalars are ints, ``fractions.Fraction``s and the residues of Q[q]/Phi_N(q),
in which ``q`` is a primitive N-th root of unity.  Cyclotomic elements are
immutable residue tuples of length phi(N) = deg Phi_N, so equality is
structural and every operation is exact.  Code that takes scalars needs no
field object: ints and Fractions mix with residues through the operators of
``Cyclotomic``.  ``CyclotomicField`` only names the zero, the one and the
root ``q`` of one order.

Residue entries keep their type.  Phi_N is monic with integer coefficients,
so sums, differences and products of residues with ``int`` entries have
``int`` entries: Z[q]/Phi_N(q) = Z[zeta_N] computes with no ``Fraction``.
The diagonal rescaling at the end of this module moves a system over Q
into Z and one over Q(zeta_N) into Z[zeta_N], where ``rewrite`` reduces.

One polynomial core serves the residues: ``_divmod_monic`` divides by a
monic polynomial (the exactness check of ``cyclotomic_polynomial``, the
reduction mod Phi_N and each step of the extended Euclid in
``Cyclotomic.inverse``), and ``Cyclotomic.__mul__`` holds the one product
loop.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def euler_phi(n: int) -> int:
    """Euler's totient, the degree of the n-th cyclotomic polynomial; a
    ``ValueError`` for n < 1."""
    return len(cyclotomic_polynomial(n)) - 1


def _divmod_monic(num: list, den) -> tuple[list, list]:
    """Quotient and remainder of ``num`` by the monic ``den``, both given by
    their coefficients, lowest power first.  Int input gives int output."""
    deg = len(den) - 1
    num = list(num)
    quo = num[deg:]
    for i in range(len(num) - 1, deg - 1, -1):
        c = quo[i - deg] = num[i]
        if c:
            for k in range(deg):
                if den[k]:
                    num[i - deg + k] -= c * den[k]
    return quo, num[:deg]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the order-th cyclotomic polynomial.

    Computed by dividing q^order - 1 by the cyclotomic polynomials of all
    proper divisors of ``order``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    num = [0] * (order + 1)
    num[0], num[order] = -1, 1
    for d in range(1, order):
        if order % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("polynomial division was not exact")
    return tuple(num)


def _as_rational(value):
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"cannot coerce {value!r} into a cyclotomic coefficient")


class Cyclotomic:
    """An element of Q[q]/Phi_N(q), stored as its residue of degree < phi(N).

    Mixed arithmetic with ints and Fractions coerces them into the ring, so
    polynomial code can stay agnostic about which field it is running over.
    Residue entries are ints or Fractions, kept as given: integer residues
    stay ``int`` through ``+``, ``-`` and ``*``, so Z[q]/Phi_N(q) computes
    with no ``Fraction``.  Equality and hashing compare values, not types.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = [_as_rational(c) for c in coeffs]
        if len(coeffs) > phi:
            coeffs = _divmod_monic(coeffs, cyclotomic_polynomial(order))[1]
        coeffs += [0] * (phi - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _reduced(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        # a residue that is already reduced, a tuple of length phi(order)
        # of ints and Fractions: the operators build their results here
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic elements are immutable")

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._reduced(self.order, (other,) + (0,) * (len(self.coeffs) - 1))
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._reduced(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._reduced(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._reduced(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        residue = _divmod_monic(prod, cyclotomic_polynomial(self.order))[1]
        return Cyclotomic._reduced(self.order, tuple(residue))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; Phi_N is irreducible over Q, so every
        nonzero residue is invertible.

        Extended Euclid on Phi_N and the residue, each divisor first made
        monic: s_i * self = r_i mod Phi_N throughout, and the last nonzero
        remainder is the monic gcd 1, so its s_i is the inverse."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        r0, r1 = cyclotomic_polynomial(self.order), list(self.coeffs)
        s0, s1 = Cyclotomic(self.order, []), Cyclotomic(self.order, [1])
        while any(r1):
            while not r1[-1]:
                r1.pop()
            lead = Fraction(1) / r1[-1]
            r1, s1 = [c * lead for c in r1], s1 * lead
            quo, rem = _divmod_monic(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - Cyclotomic(self.order, quo) * s1
        return s0

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic(self.order, [1])
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a rational element equals the int or Fraction of its constant
        # residue, so it must hash like it
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)!r})"

    def __str__(self):
        return f"{self.poly_str()} (mod Phi_{self.order})"

    def poly_str(self) -> str:
        """Render the residue as a polynomial in q, highest power first."""
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            if power == 0:
                body = str(c if c > 0 else -c)
            else:
                mag = c if c > 0 else -c
                qpow = "q" if power == 1 else f"q^{power}"
                body = qpow if mag == 1 else f"{mag}*{qpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts) if parts else "0"


class CyclotomicField:
    """The zero, the one and the primitive root ``q`` of Q[q]/Phi_N(q)."""

    def __init__(self, order: int):
        self.order = order
        self.zero = Cyclotomic(order, [])
        self.one = Cyclotomic(order, [1])
        #: the distinguished primitive order-th root of unity; the rational
        #: root 1 or -1 when order is 1 or 2
        self.q = Cyclotomic(order, [0, 1])


# -- the diagonal rescaling of a system over Q or Q(zeta_N) -----------------
#
# Scaling by D is the algebra automorphism w -> D^(-e(w)) * w, where
# e(w) = sum of k #c(w) over the pairs (c, k) of ``weights``: the exponents
# k > 0 that a system's builder states per letter c.  It turns the systems
# of the builders over Q into ones with integer coefficients, and those over
# Q(zeta_N) into ones over Z[zeta_N]; ``scaled_integer`` checks each value,
# and these helpers move polynomials into and out of the integral system,
# with int arithmetic only.  They read a scalar by its rational entries
# (``entries``): the residue of a ``Cyclotomic``, or the rational itself.


def entries(value) -> tuple:
    """The rational entries of a scalar: a residue's, or the int or
    Fraction itself."""
    return value.coeffs if isinstance(value, Cyclotomic) else (value,)


def _with_entries(value, new):
    # the scalar of value's kind whose entries are the list new
    if isinstance(value, Cyclotomic):
        return Cyclotomic._reduced(value.order, tuple(new))
    return new[0]


def common_denominator(values) -> int | None:
    """The lcm of the denominators of ``values`` (1 when there are none), or
    None when one of them is not rational: a ``Cyclotomic`` has no
    denominator."""
    out = 1
    for value in values:
        den = getattr(value, "denominator", None)
        if den is None:
            return None
        out = out // gcd(out, den) * den
    return out


def scaled_integer(value, scale: int, power: int):
    """value * scale^power when that is integral, else None: an int for an
    int or a Fraction, and for a ``Cyclotomic`` one with int entries.
    ``power`` may be negative."""
    mul, div = (scale**power, 1) if power >= 0 else (1, scale**-power)
    out = []
    for entry in entries(value):
        quo, rem = divmod(entry.numerator * mul, entry.denominator * div)
        if rem:
            return None
        out.append(quo)
    return _with_entries(value, out)


def exponent(word, weights) -> int:
    """e(word): the sum of k #c(word) over the (c, k) pairs of ``weights``."""
    return sum(k * word.count(c) for c, k in weights)


def rescale(terms, scale: int, weights) -> tuple[dict, int]:
    """Move (word, c) pairs into the rescaled system:
    c -> c * m / scale^e(word), with m the least positive integer that makes
    every image integral.  Returns the images and m; the image of a
    ``Cyclotomic`` has int entries, that of a rational is an int."""
    rows = []
    m = 1
    for word, c in terms:
        e = exponent(word, weights)
        row = []
        for entry in entries(c):
            num, den = entry.numerator, entry.denominator
            if e:
                den *= scale**e
                common = gcd(num, den)
                num, den = num // common, den // common
            row.append((num, den))
            if den != 1:
                m = m // gcd(m, den) * den
        rows.append((word, c, row))
    return {w: _with_entries(c, [n * (m // d) for n, d in row]) for w, c, row in rows}, m


def divide_content(terms: dict, m: int) -> tuple[dict, int]:
    """``terms``, whose entries are integers, and the multiplier m, both
    divided by the gcd of m and every entry."""
    if m == 1:
        return terms, m
    common = gcd(m, *(k for c in terms.values() for k in entries(c)))
    if common > 1:
        m //= common
        terms = {w: _with_entries(c, [k // common for k in entries(c)]) for w, c in terms.items()}
    return terms, m


def unscale(terms: dict, scale: int, weights, m: int) -> dict:
    """The inverse of ``rescale``: c -> c * scale^e(word) / m, entry by
    entry; each entry is an int when m = 1 and a Fraction otherwise."""
    if m == 1 and scale == 1:
        return terms
    out = {}
    for w, c in terms.items():
        f = scale ** exponent(w, weights)
        out[w] = _with_entries(
            c, [k * f if m == 1 else Fraction(k * f, m) for k in entries(c)]
        )
    return out


def scalar_str(value) -> str:
    """Text form used in polynomial rendering and JSON reports."""
    if isinstance(value, Cyclotomic):
        if value.is_rational():
            return str(value.coeffs[0])
        return f"({value.poly_str()})"
    return str(value)
