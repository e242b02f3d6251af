"""Digitwise arithmetic on the compact group of b-adic digit sequences.

Elements of the group are sequences (z_1, z_2, ...) of digits in
{0, ..., b-1} added coordinatewise mod b.  A sequence is stored here in a
truncated form: the first n digits explicitly, plus a tail digit that
repeats forever afterwards.  Tail digit 0 recovers the plain "finitely
many nonzero digits" case, tail digit c > 0 encodes sequences such as
e_l = (l, l, l, ...), which arise from digit reflections.

The monitor map ``project_pi`` sends a sequence to sum(z_i * b^-i) in
[0, 1]; ``section_sigma`` inverts it on numbers whose canonical b-adic
expansion becomes constant after the stored precision.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _check_digit(d: int, b: int) -> None:
    if not 0 <= d < b:
        raise ValueError(f"digit {d} out of range for base {b}")


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for digit bases."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def int_digits(k: int, base: int) -> tuple[int, ...]:
    """Base-b digits of an integer k >= 0, least significant first.

    There is no trailing zero, so the length is the position of the most
    significant nonzero digit (0 for k = 0).
    """
    k = operator.index(k)
    if base < 2:
        raise ValueError("base must be >= 2")
    if k < 0:
        raise ValueError("negative integer has no digit expansion here")
    digits = []
    while k:
        k, d = divmod(k, base)
        digits.append(d)
    return tuple(digits)


def frequency_digits(ks: Sequence[Sequence[int]], base: int, s: int, depth: int) -> np.ndarray:
    """(T, s, d) int64 array of the int_digits of every component of T
    frequency vectors with s components each, zero padded to d digits:
    depth, or more when a component needs them."""
    if any(len(k) != s for k in ks):
        raise ValueError("incompatible elements: dimension mismatch")
    expansions = [[int_digits(kj, base) for kj in k] for k in ks]
    d = max([depth] + [len(e) for k in expansions for e in k])
    out = np.zeros((len(ks), s, d), dtype=np.int64)
    for t, k in enumerate(expansions):
        for j, e in enumerate(k):
            out[t, j, : len(e)] = e
    return out


@dataclass(frozen=True)
class GElement:
    """Truncated digit sequence: n explicit digits, then a constant tail.

    digits[i] is the digit at position i+1.  Every position past
    len(digits) holds the tail digit.
    """

    base: int
    digits: tuple[int, ...]
    tail: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if not self.digits:
            raise ValueError("precision must be >= 1")
        for d in self.digits:
            _check_digit(d, self.base)
        _check_digit(self.tail, self.base)

    @property
    def precision(self) -> int:
        return len(self.digits)

    def digit(self, i: int) -> int:
        """Digit at position i (1-based), falling back to the tail digit."""
        if i < 1:
            raise ValueError("digit positions are 1-based")
        return self.digits[i - 1] if i <= len(self.digits) else self.tail

    @classmethod
    def zero(cls, base: int, precision: int) -> "GElement":
        return cls(base, (0,) * precision, 0)

    @classmethod
    def constant(cls, base: int, precision: int, l: int) -> "GElement":
        """The element e_l = (l, l, l, ...)."""
        return cls(base, (l,) * precision, l)


def _compatible(z: GElement, w: GElement) -> None:
    if z.base != w.base or z.precision != w.precision:
        raise ValueError("incompatible elements: base or precision mismatch")


def g_add(z: GElement, w: GElement) -> GElement:
    """Digitwise sum mod b; tails add as well."""
    _compatible(z, w)
    b = z.base
    digits = tuple((a + c) % b for a, c in zip(z.digits, w.digits))
    return GElement(b, digits, (z.tail + w.tail) % b)


def g_sub(z: GElement, w: GElement) -> GElement:
    """Digitwise difference mod b."""
    _compatible(z, w)
    b = z.base
    digits = tuple((a - c) % b for a, c in zip(z.digits, w.digits))
    return GElement(b, digits, (z.tail - w.tail) % b)


def project_pi(z: GElement) -> Fraction:
    """Value sum(z_i * b^-i) in [0, 1], exact.

    The constant tail c past precision n contributes c * b^-n / (b - 1).
    """
    b, n = z.base, z.precision
    acc = 0
    for d in z.digits:
        acc = acc * b + d
    # acc / b^n plus geometric tail
    val = Fraction(acc, b**n)
    if z.tail:
        val += Fraction(z.tail, b**n * (b - 1))
    return val


def first_nonzero_position(z: GElement) -> int | None:
    """1-based position of the first nonzero digit, None if z = 0."""
    for i, d in enumerate(z.digits):
        if d:
            return i + 1
    if z.tail:
        return z.precision + 1
    return None


def section_sigma(x, base: int, precision: int) -> GElement:
    """Canonical digit expansion of x in [0, 1] at the given precision.

    Only numbers whose canonical expansion is constant from position
    precision+1 onwards are representable; anything else (or a tail that
    would force the non-canonical all-(b-1) form short of x = 1) raises
    ValueError("unsupported expansion ...").  x = 1 itself maps to the
    constant sequence e_{b-1}, the single point where pi is not injective
    on canonical expansions.
    """
    b, n = base, precision
    if b < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("precision must be >= 1")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("unsupported expansion: x outside [0, 1]")
    if x == 1:
        return GElement.constant(b, n, b - 1)
    digits = []
    rem = x
    for _ in range(n):
        rem *= b
        d = int(rem)  # floor: rem stays in [0, 1)
        digits.append(d)
        rem -= d
    # remainder must be a pure constant tail c/(b-1), c < b-1
    c_frac = rem * (b - 1)
    if c_frac.denominator != 1:
        raise ValueError(f"unsupported expansion: {x} is not eventually constant in base {b} at precision {n}")
    c = int(c_frac)
    return GElement(b, tuple(digits), c)


def minimal_precision(x, base: int, limit: int = 4096) -> int:
    """Smallest precision at which section_sigma can represent x, or raise.

    x is representable at precision n exactly when x * b^n * (b-1) is an
    integer, so the search just clears the denominator one factor of b at
    a time.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("unsupported expansion: x outside [0, 1]")
    scaled = x * (base - 1)
    for n in range(1, limit + 1):
        scaled *= base
        if scaled.denominator == 1:
            return n
    raise ValueError(f"unsupported expansion: {x} has no eventually constant base-{base} expansion")


def delta_digit_sum(k: int, base: int) -> int:
    """Sum of the base-b digits of k."""
    return sum(int_digits(k, base))


def in_E(k: int, base: int) -> bool:
    """True when the digit sum of k vanishes mod b."""
    return delta_digit_sum(k, base) % base == 0


@dataclass(frozen=True)
class GVector:
    """Tuple of group elements sharing one base and precision."""

    coords: tuple[GElement, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("empty vector")
        z0 = self.coords[0]
        for z in self.coords[1:]:
            if z.base != z0.base or z.precision != z0.precision:
                raise ValueError("incompatible elements: mixed base or precision")

    @property
    def base(self) -> int:
        return self.coords[0].base

    @property
    def s(self) -> int:
        return len(self.coords)

    @property
    def precision(self) -> int:
        return self.coords[0].precision

