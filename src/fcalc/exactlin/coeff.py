"""Coefficient rings: the integers, the rationals, and prime fields.

Every computation in the package is exact.  A scalar is held in the
cheapest exact form: an arbitrary-precision ``int`` over Z, an ``int``
reduced into ``range(p)`` over F_p, and over Q an ``int`` when it is
integral and a ``fractions.Fraction`` with denominator greater than 1
otherwise.  So a rational computation on integral data runs at the cost
of the same computation over Z.  ``Fraction(2) == 2`` with equal hashes
and ``str(Fraction(2)) == "2"``, so the choice shows in no output.
"""
from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Coeff:
    """A coefficient ring: ``Z``, ``Q`` or ``F<p>`` for a prime p.

    >>> Coeff.Z().is_field, Coeff.Q().is_field, Coeff.GF(5).is_field
    (False, True, True)
    >>> Coeff.parse("F7")
    Coeff('F7')
    """

    __slots__ = ("kind", "p")

    INTEGERS = "integers"
    RATIONALS = "rationals"
    PRIME_FIELD = "prime-field"

    def __init__(self, kind: str, p: int | None = None):
        if kind not in (self.INTEGERS, self.RATIONALS, self.PRIME_FIELD):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        if kind == self.PRIME_FIELD:
            if p is None or not _is_prime(p):
                raise ValueError(f"prime-field modulus must be prime, got {p!r}")
        elif p is not None:
            raise ValueError("modulus only makes sense for prime fields")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Coeff is immutable")

    @classmethod
    def Z(cls) -> "Coeff":
        return cls(cls.INTEGERS)

    @classmethod
    def Q(cls) -> "Coeff":
        return cls(cls.RATIONALS)

    @classmethod
    def GF(cls, p: int) -> "Coeff":
        return cls(cls.PRIME_FIELD, p)

    @classmethod
    def parse(cls, code: str) -> "Coeff":
        """Parse the wire code "Z", "Q" or "F<p>"."""
        if code == "Z":
            return cls.Z()
        if code == "Q":
            return cls.Q()
        if isinstance(code, str) and code.startswith("F"):
            return cls.GF(int(code[1:]))
        raise ValueError(f"unknown coefficient code {code!r}")

    @property
    def code(self) -> str:
        if self.kind == self.INTEGERS:
            return "Z"
        if self.kind == self.RATIONALS:
            return "Q"
        return f"F{self.p}"

    @property
    def is_field(self) -> bool:
        return self.kind != self.INTEGERS

    def zero(self):
        return 0

    def one(self):
        return 1

    def normalize(self, x):
        """Bring a raw scalar into canonical form for this ring.

        >>> Q = Coeff.Q()
        >>> Q.normalize(Fraction(4, 2)), Q.normalize(Fraction(1, 2))
        (2, Fraction(1, 2))
        """
        if self.kind == self.RATIONALS:
            if type(x) is int:
                return x
            if not isinstance(x, Fraction):
                x = Fraction(x)
            return x.numerator if x.denominator == 1 else x
        if self.kind == self.PRIME_FIELD:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"non-integer scalar {x} over Z")
            return x.numerator
        return x

    def invert(self, x):
        """Multiplicative inverse; only units are invertible over Z."""
        if self.kind == self.RATIONALS:
            if x == 0:
                raise ZeroDivisionError("inverting 0")
            return self.normalize(1 / Fraction(x))
        if self.kind == self.PRIME_FIELD:
            x %= self.p
            if x == 0:
                raise ZeroDivisionError("inverting 0")
            return pow(x, self.p - 2, self.p)
        if x in (1, -1):
            return x
        raise ZeroDivisionError(f"{x} is not a unit in Z")

    def parse_scalar(self, s):
        """Parse a serialized scalar (decimal string, "a/b" over Q, or int;
        JSON booleans are not scalars) into canonical form.

        >>> Q = Coeff.Q()
        >>> Q.parse_scalar("4/2"), Q.parse_scalar("3/6")
        (2, Fraction(1, 2))
        """
        if isinstance(s, str):
            if "/" in s:
                if self.kind != self.RATIONALS:
                    raise ValueError(f"fractional scalar {s!r} over {self.code}")
                try:
                    return self.normalize(Fraction(s))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {s!r}") from None
            return self.normalize(int(s))
        if isinstance(s, int) and not isinstance(s, bool):
            return self.normalize(s)
        raise ValueError(f"cannot parse scalar {s!r}")

    def scalar_str(self, x) -> str:
        """Serialize a scalar as a decimal string ("a/b" over Q)."""
        return str(x)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Coeff)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Coeff({self.code!r})"


Z = Coeff.Z()
Q = Coeff.Q()
F2 = Coeff.GF(2)
