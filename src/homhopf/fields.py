"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields GF(p).

Every computation in this package is exact; there are no tolerances
anywhere.  A scalar is either a `fractions.Fraction` (over Q) or a reduced
integer residue (over GF(p)); the field object owns the arithmetic.
"""

import re
from fractions import Fraction

__all__ = [
    "ExactError",
    "FieldMismatchError",
    "ShapeError",
    "SingularMatrixError",
    "RationalField",
    "PrimeField",
    "QQ",
    "GF",
    "is_prime",
]


class ExactError(Exception):
    """Base class for exact-arithmetic errors."""


class FieldMismatchError(ExactError):
    """Operands live over different fields."""


class ShapeError(ExactError):
    """Matrix shapes do not compose."""


class SingularMatrixError(ExactError):
    """A map that must be invertible is singular."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_BOUND (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Exact primality test for n < PRIME_BOUND; larger n raise ExactError."""
    if n >= PRIME_BOUND:
        raise ExactError(f"primality is decided only below {PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")


class RationalField:
    """The field Q; values are Fractions in lowest terms with positive denominator."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise ExactError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ExactError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ExactError("division by zero in Q")
        return a / b

    def parse(self, text):
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise ExactError(f"malformed rational scalar {text!r}")
        num, _, den = text.partition("/")
        if den:
            if int(den) == 0:
                raise ExactError(f"zero denominator in {text!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))

    def format(self, a):
        return str(a)


class PrimeField:
    """GF(p) for a verified prime p >= 2; values are integers in [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise ExactError(f"modulus {p!r} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ExactError(f"cannot coerce {x!r} into GF({self.p})")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ExactError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text):
        text = text.strip()
        if not _INTEGER_RE.match(text):
            raise ExactError(f"malformed GF({self.p}) scalar {text!r}")
        return int(text) % self.p

    def format(self, a):
        return str(a % self.p)


QQ = RationalField()

_GF_CACHE = {}


def GF(p):
    """Return the cached prime field of order p."""
    field = _GF_CACHE.get(p)
    if field is None:
        field = PrimeField(p)
        _GF_CACHE[p] = field
    return field
