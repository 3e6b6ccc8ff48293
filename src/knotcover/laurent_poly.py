"""
Exact integer Laurent polynomials, the package's one polynomial type, and
what is built on them: exact division, Alexander-polynomial symmetrization
and cyclotomic polynomials.

A Laurent polynomial is stored as a minimum degree plus a dense coefficient
tuple, so t - 1 + t^-1 is LaurentPoly(-1, (1, -1, 1)).  An ordinary integer
polynomial is a LaurentPoly with min_deg >= 0.  Polynomials go out as text
through to_text and are never read back in.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction
from typing import Sequence


class NotSymmetrizable(ValueError):
    """No unit multiple of the polynomial is invariant under t -> 1/t."""


class NotAKnotPolynomial(ValueError):
    """The symmetrized candidate does not take the value 1 at t = 1."""


class ZeroArgument(ZeroDivisionError):
    """Evaluation at 0 of a polynomial with genuine negative powers."""


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class LaurentPoly:
    """
    A Laurent polynomial over the integers, represented by a minimum degree and
    a dense list of coefficients going up from that degree.  The zero
    polynomial is represented by min_deg 0 and an empty coefficient tuple.

    >>> LaurentPoly(-1, (1, -1, 1))
    LaurentPoly('1*t^-1 - 1 + 1*t^1')
    >>> LaurentPoly(3, (0, 0))
    LaurentPoly('0')
    >>> LaurentPoly(0, (0, 5)) == LaurentPoly(1, (5,))
    True
    """

    min_deg: int
    coeffs: tuple[int, ...]

    def __init__(self, min_deg: int, coeffs: Sequence[int]):
        # Trim leading and trailing zeros so equality is coefficientwise.
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            min_deg += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1

        if lo == hi:
            self.min_deg = 0
            self.coeffs = ()
        else:
            self.min_deg = min_deg
            self.coeffs = tuple(coeffs[lo:hi])

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly(0, (1,))

    @staticmethod
    def t(k: int = 1, c: int = 1) -> LaurentPoly:
        """The monomial c*t^k."""
        return LaurentPoly(k, (c,))

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for numbers."""
        return bool(self.coeffs)

    def max_deg(self) -> int:
        """Degree of the top term, or min_deg - 1 (garbage) for zero."""
        return self.min_deg + len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        """The coefficient of t^k."""
        i = k - self.min_deg
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __repr__(self):
        return f"LaurentPoly('{self.to_text()}')"

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg(), other.max_deg())
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_deg + i - lo] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_deg + i - lo] += c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.min_deg, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        """
        >>> (LaurentPoly(0, (-1, 1)) * LaurentPoly(0, (1, 1)))
        LaurentPoly('-1 + 1*t^2')
        >>> LaurentPoly(-1, (1, 1)) * LaurentPoly.t()
        LaurentPoly('1 + 1*t^1')
        """
        if isinstance(other, int):
            return LaurentPoly(self.min_deg, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly(0, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for (i, c), (j, d) in itertools.product(enumerate(self.coeffs), enumerate(other.coeffs)):
            out[i + j] += c * d
        return LaurentPoly(self.min_deg + other.min_deg, out)

    __rmul__ = __mul__

    def __truediv__(self, other: int | LaurentPoly) -> LaurentPoly:
        """
        Exact division by schoolbook long division on the coefficient list,
        updated in place; raises ValueError when the division has a
        remainder.  There is no `//`: a Laurent quotient is either exact or
        an error, never a floor.

        >>> LaurentPoly(0, (-1, 0, 0, 1)) / LaurentPoly(0, (-1, 1))
        LaurentPoly('1 + 1*t^1 + 1*t^2')
        """
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        den = other.coeffs
        top = len(den) - 1
        lead = den[top]
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - top, 0)
        for i in range(len(quo) - 1, -1, -1):
            c, leftover = divmod(rem[i + top], lead)
            if leftover:
                raise ValueError(f"{self!r} is not divisible by {other!r}")
            if c:
                quo[i] = c
                for j in range(top):
                    rem[i + j] -= c * den[j]
        if any(rem[:top]):
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return LaurentPoly(self.min_deg - other.min_deg, quo)

    def involute(self) -> LaurentPoly:
        """
        Substitute t -> 1/t.

        >>> LaurentPoly(2, (1,)).involute()
        LaurentPoly('1*t^-2')
        >>> p = LaurentPoly(-1, (1, -1, 1)); p.involute() == p
        True
        """
        return LaurentPoly(-self.max_deg(), tuple(reversed(self.coeffs)))

    def eval_rational(self, x: Fraction | int) -> Fraction:
        """
        Exact evaluation at a rational point.

        >>> LaurentPoly(-1, (1, -1, 1)).eval_rational(1)
        Fraction(1, 1)
        >>> LaurentPoly(-1, (-1, 3, -1)).eval_rational(-1)
        Fraction(5, 1)
        """
        x = Fraction(x)
        if x == 0:
            if self.min_deg < 0:
                raise ZeroArgument("Laurent polynomial with negative powers evaluated at 0")
            return Fraction(self.coeff(0))
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.min_deg

    def eval_complex(self, z: complex) -> complex:
        """Double-precision evaluation at a nonzero complex point."""
        z = complex(z)
        if z == 0:
            if self.min_deg < 0:
                raise ZeroArgument("Laurent polynomial with negative powers evaluated at 0")
            return complex(self.coeff(0))
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z ** self.min_deg

    def to_text(self) -> str:
        """
        Render in the ascending textual format, e.g. "-1*t^-1 + 3 - 1*t^1".

        >>> LaurentPoly(-1, (-1, 3, -1)).to_text()
        '-1*t^-1 + 3 - 1*t^1'
        >>> LaurentPoly(0, ()).to_text()
        '0'
        """
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs, self.min_deg):
            if c == 0:
                continue
            sign = (" + " if c > 0 else " - ") if parts else ("" if c > 0 else "-")
            term = f"{abs(c)}" if i == 0 else f"{abs(c)}*t^{i}"
            parts.append(sign + term)
        return "".join(parts)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def cyclotomic(n: int) -> LaurentPoly:
        """
        The n-th cyclotomic polynomial, by exact division of t^n - 1 by the
        cyclotomic polynomials of the proper divisors of n.

        >>> LaurentPoly.cyclotomic(1)
        LaurentPoly('-1 + 1*t^1')
        >>> LaurentPoly.cyclotomic(12)
        LaurentPoly('1 - 1*t^2 + 1*t^4')
        """
        if n < 1:
            raise ValueError("cyclotomic index must be positive")
        poly = LaurentPoly(0, (-1,) + (0,) * (n - 1) + (1,))
        for d in (d for d in range(1, n) if n % d == 0):
            poly = poly / LaurentPoly.cyclotomic(d)
        return poly

    @staticmethod
    def all_ones(n: int) -> LaurentPoly:
        """1 + t + ... + t^(n-1), the characteristic polynomial of the
        root-lattice rotation; its roots are the nontrivial n-th roots of 1."""
        if n < 1:
            raise ValueError("need n >= 1")
        return LaurentPoly(0, (1,) * n)


def symmetrize_alexander(p: LaurentPoly) -> LaurentPoly:
    """
    Normalize a raw Alexander polynomial: the unique unit multiple e*t^m*p
    that is invariant under t -> 1/t and takes the value 1 at t = 1.

    >>> symmetrize_alexander(LaurentPoly(0, (-1, 1, -1)))
    LaurentPoly('1*t^-1 - 1 + 1*t^1')
    >>> symmetrize_alexander(LaurentPoly(0, (1, -3, 1)))
    LaurentPoly('-1*t^-1 + 3 - 1*t^1')
    """
    if p.is_zero():
        raise NotSymmetrizable("the zero polynomial has no palindromic unit multiple")
    if tuple(reversed(p.coeffs)) != p.coeffs:
        raise NotSymmetrizable("coefficients are not palindromic up to a unit")
    span = p.min_deg + p.max_deg()
    if span % 2 != 0:
        raise NotSymmetrizable("coefficient span is odd; no centered representative exists")
    q = LaurentPoly(p.min_deg - span // 2, p.coeffs)
    value = sum(q.coeffs)
    if value == 1:
        return q
    if value == -1:
        return -q
    raise NotAKnotPolynomial(f"normalized value at t=1 is {value}, not +-1")
