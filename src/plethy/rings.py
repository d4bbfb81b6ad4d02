"""Exact coefficient rings.

Every scalar in this package is an exact object: a Python int, a
fractions.Fraction, a residue in a prime field, or an integer-coefficient
polynomial.  Floating point never appears.  A Ring instance interprets raw
payloads; elements and matrices carry the ring alongside the payloads.

A ring's JSON form is its kind and the constructor arguments named in
json_fields, each of its declared type; payload_to_json and
payload_from_json convert its payloads.
To add a ring, write one Ring subclass and add it to the ring_from_json
kind table, _KINDS.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when a computation contradicts something the library is supposed
    to certify (a vector that should lie in a kernel does not, a matrix that
    should be unitriangular is not).  Never swallowed.
    """


def binomial(a: int, b: int) -> int:
    """Binomial coefficient, zero when b > a, error on negative input."""
    if a < 0 or b < 0:
        raise ValueError(f"binomial needs nonnegative arguments, got ({a}, {b})")
    return math.comb(a, b)


def json_int(data, what: str) -> int:
    """data, which must be a JSON integer: not a float, not a bool."""
    if type(data) is not int:
        raise ValueError(f"{what} must be an int, got {data!r}")
    return data


def json_kind(data, kinds: dict):
    """The class that a kind table gives for data's "kind", or None when
    data is not a JSON object or its kind is not a known string."""
    kind = data.get("kind") if isinstance(data, dict) else None
    return kinds.get(kind) if isinstance(kind, str) else None


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class IntPoly:
    """Dense univariate polynomial over the integers.

    coeffs is a tuple, low degree first, with no trailing zeros; the zero
    polynomial has coeffs == ().  A coefficient that is not an int, a bool
    or a float say, raises ValueError.  Mixing variables in arithmetic is a
    ring mismatch and raises.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "q"):
        cs = list(coeffs)
        if not all(type(c) is int for c in cs):
            raise ValueError(f"IntPoly coefficients must be ints, got {cs!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is the sentinel -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly((other,), self.var)
        if not isinstance(other, IntPoly):
            raise TypeError(f"cannot combine IntPoly with {type(other).__name__}")
        if other.var != self.var and self.coeffs and other.coeffs:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        return other

    def __add__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return IntPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly((1,), self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, n: int) -> "IntPoly":
        """Multiply by var**n."""
        if self.is_zero():
            return self
        if n < 0:
            raise ValueError("negative shift")
        return IntPoly((0,) * n + self.coeffs, self.var)

    def __call__(self, x):
        """Evaluate; exact for int or Fraction arguments."""
        out = x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, "IntPoly"))

    def __repr__(self):
        return f"IntPoly({self.coeffs!r}, {self.var!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = self.var if k == 1 else f"{self.var}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = "+".join(parts)
        return out.replace("+-", "-")


class Ring:
    """Base interface: exact operations on raw scalar payloads."""

    name: str
    json_fields: dict[str, type] = {}
    is_field = False

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def reduce(self, a):
        """The canonical payload of a sum of products of payloads, built
        with the payloads' own + and *.  The identity unless overridden."""
        return a

    def is_zero(self, a) -> bool:
        return a == self.zero

    def eq(self, a, b) -> bool:
        return a == b

    def div(self, a, b):
        raise NotImplementedError

    def pow(self, a, n: int):
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def from_int(self, n: int):
        raise NotImplementedError

    def to_str(self, a) -> str:
        return str(a)

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f: getattr(self, f) for f in self.json_fields}}

    def payload_to_json(self, a):
        """A payload as a JSON value that payload_from_json reads back."""
        return a

    def payload_from_json(self, data):
        return json_int(data, f"a {self.name} payload")

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "ZZ"
    kind = "int"
    zero = 0
    one = 1

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in ZZ")
        raise ValueError("ZZ is not a field; divide over QQ or GF(p)")

    def from_int(self, n: int) -> int:
        return n


class RationalField(Ring):
    name = "QQ"
    kind = "rat"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / Fraction(b)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def payload_to_json(self, a) -> str:
        return str(Fraction(a))

    def payload_from_json(self, data) -> Fraction:
        """An int, or a string as payload_to_json writes it, str of a
        Fraction.  The pattern is matched before Fraction parses the string,
        so no exponent is ever expanded and no denominator is zero."""
        if type(data) is int:
            return Fraction(data)
        if type(data) is str and re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", data):
            value = Fraction(data)
            if str(value) == data:
                return value
        raise ValueError(f"a QQ payload is an int or str of a Fraction, got {data!r}")


class PrimeField(Ring):
    """GF(p) for p prime, p < 2**16.  Payloads are ints in [0, p)."""

    kind = "fp"
    json_fields = {"p": int}
    is_field = True

    def __init__(self, p: int):
        if not (2 <= p < 2**16):
            raise ValueError(f"modulus {p} out of supported range")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def reduce(self, a):
        return a % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return (a * pow(b, -1, self.p)) % self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def payload_from_json(self, data) -> int:
        if not 0 <= json_int(data, f"a {self.name} payload") < self.p:
            raise ValueError(f"a {self.name} payload must lie in 0..{self.p - 1}")
        return data

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class IntPolynomialRing(Ring):
    """Z[var] with IntPoly payloads, in JSON as coefficient lists."""

    kind = "poly"
    json_fields = {"var": str}

    def __init__(self, var: str):
        self.var = var
        self.name = f"ZZ[{var}]"
        self.zero = IntPoly((), var)
        self.one = IntPoly((1,), var)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def div(self, a, b):
        if b.is_zero():
            raise ZeroDivisionError(f"division by zero in {self.name}")
        raise ValueError(f"{self.name} is not a field")

    def from_int(self, n: int) -> IntPoly:
        return IntPoly((n,), self.var)

    def gen(self) -> IntPoly:
        return IntPoly((0, 1), self.var)

    def payload_to_json(self, a) -> list:
        return list(a.coeffs)

    def payload_from_json(self, data) -> IntPoly:
        if type(data) is not list:
            raise ValueError(f"a {self.name} payload is a list, got {data!r}")
        return IntPoly(data, self.var)

    def __eq__(self, other):
        return isinstance(other, IntPolynomialRing) and other.var == self.var

    def __hash__(self):
        return hash(("IntPolynomialRing", self.var))


ZZ = IntegerRing()
QQ = RationalField()
ZGAMMA = IntPolynomialRing("gamma")

_KINDS = {
    cls.kind: cls
    for cls in (IntegerRing, RationalField, PrimeField, IntPolynomialRing)
}


def ring_from_json(data) -> Ring:
    """The ring that Ring.to_json wrote as data, or ValueError: the keys are
    kind and the kind's json_fields, each of its type (an int not a bool)."""
    cls = json_kind(data, _KINDS)
    if cls is None:
        raise ValueError(f"not a ring of a known kind: {data!r}")
    fields = cls.json_fields
    if set(data) != {"kind", *fields} or any(type(data[f]) is not t for f, t in fields.items()):
        raise ValueError(f"not a {cls.kind} ring with the fields {list(fields)}: {data!r}")
    return cls(*(data[f] for f in fields))


def ring_by_name(name: str, p: int | None = None) -> Ring:
    """CLI-facing ring lookup: a ring kind (int, rat, or fp, which needs
    p), or polygamma for Z[gamma]."""
    if name == "polygamma":
        return ZGAMMA
    if name == "fp" and p is None:
        raise ValueError("ring fp needs a prime")
    return ring_from_json({"kind": name, **({"p": p} if name == "fp" else {})})
