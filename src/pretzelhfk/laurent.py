"""Exact integer Laurent polynomial arithmetic.

Single-variable Laurent polynomials with arbitrary-precision integer
coefficients, stored sparsely as exponent -> coefficient.  Everything in
this module is exact; no floating point enters any code path.
"""

from __future__ import annotations


class LaurentError(ValueError):
    """An exact operation failed (inexact division, impossible normalization)."""


class LaurentPoly:
    """Integer Laurent polynomial ``sum(c[e] * t**e)`` in one variable t.

    Instances behave as immutable values: arithmetic returns new objects
    and zero coefficients are never stored.

    The constructor takes a dict from int exponents to int coefficients
    (or None for zero).  Its zero entries are dropped; keys and values are
    used as given, without coercion.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self._c = {e: c for e, c in coeffs.items() if c} if coeffs else {}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # ------------------------------------------------------------------
    # inspection

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def is_unit(self) -> bool:
        """True for the units of the ring, the monomials +-t**k."""
        return len(self._c) == 1 and abs(next(iter(self._c.values()))) == 1

    def min_exp(self) -> int:
        if not self._c:
            raise LaurentError("zero polynomial has no exponent span")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise LaurentError("zero polynomial has no exponent span")
        return max(self._c)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._c)
        for e, c in other._c.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._c)
        for e, c in other._c.items():
            acc[e] = acc.get(e, 0) - c
        return LaurentPoly(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    # ------------------------------------------------------------------
    # knot-theory specific helpers

    def evaluate_at(self, x: int) -> int:
        """Evaluate at a unit (x must be 1 or -1, the only exact unit points)."""
        if x == 1:
            return sum(self._c.values())
        if x == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self._c.items())
        raise LaurentError("exact evaluation is only supported at t = 1 and t = -1")

    def is_symmetric(self) -> bool:
        """True if p(t) == p(1/t) coefficient-wise."""
        return self._c == {-e: c for e, c in self._c.items()}

    def normalize_symmetric(self) -> "LaurentPoly":
        """Multiply by the unique unit ``+-t**k`` giving p(t) = p(1/t), p(1) = 1.

        Raises LaurentError if no such unit exists.
        """
        if not self._c:
            raise LaurentError("cannot normalize the zero polynomial")
        lo, hi = self.min_exp(), self.max_exp()
        if (lo + hi) % 2:
            raise LaurentError("exponent span is off-center; no symmetric shift exists")
        shifted = self * LaurentPoly({-(lo + hi) // 2: 1})
        if not shifted.is_symmetric():
            raise LaurentError("polynomial is not symmetric up to units")
        v = shifted.evaluate_at(1)
        if v == 1:
            return shifted
        if v == -1:
            return -shifted
        raise LaurentError(f"value at t=1 is {v}; cannot scale to 1 by a unit")

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises LaurentError on any remainder."""
        if divisor.is_zero():
            raise LaurentError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        num, nshift = self._dense()
        den, dshift = divisor._dense()
        nd, dd = len(num) - 1, len(den) - 1
        if nd < dd:
            raise LaurentError("nonzero remainder in exact division")
        dlead = den[-1]
        rem = list(num)
        quot = [0] * (nd - dd + 1)
        for i in range(nd - dd, -1, -1):
            coeff = rem[i + dd]
            if coeff == 0:
                continue
            if coeff % dlead:
                raise LaurentError("nonzero remainder in exact division")
            f = coeff // dlead
            quot[i] = f
            for j, dc in enumerate(den):
                rem[i + j] -= f * dc
        if any(rem):
            raise LaurentError("nonzero remainder in exact division")
        base = nshift - dshift
        return LaurentPoly({base + i: c for i, c in enumerate(quot) if c})

    def _dense(self) -> tuple[list[int], int]:
        """Dense coefficient list plus the exponent of its constant slot."""
        lo, hi = self.min_exp(), self.max_exp()
        out = [0] * (hi - lo + 1)
        for e, c in self._c.items():
            out[e - lo] = c
        return out, lo

    # ------------------------------------------------------------------
    # formatting

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self._c.items(), reverse=True):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
