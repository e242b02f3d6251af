"""Characters of the digit group and Walsh functions on [0, 1].

A nonnegative integer k with base-b digits (kappa_0, ..., kappa_{a-1})
defines the character

    W_k(z) = omega^(kappa_0 z_1 + kappa_1 z_2 + ... + kappa_{a-1} z_a),

omega = exp(2 pi i / b), on digit sequences z.  Walsh functions are the
pullback wal_k = W_k o sigma along the canonical digit expansion.
Exponents are kept as integers mod b wherever possible so orthogonality
statements can be tested without any floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from .badic import GElement, frequency_digits, int_digits, minimal_precision, section_sigma
from .nets import NetPoints, require_net_points

_TABLE_ENTRIES = 1 << 20  # exponent-table entries per chunk of frequencies in character_sums


@dataclass(frozen=True)
class UnityExponent:
    """A root of unity omega^e stored by its exponent mod base."""

    base: int
    e: int

    def __post_init__(self):
        object.__setattr__(self, "e", self.e % self.base)

    @property
    def value(self) -> complex:
        if self.base == 2:
            return complex(1.0 if self.e == 0 else -1.0)
        if self.e == 0:
            return complex(1.0)
        return cmath.exp(2j * math.pi * self.e / self.base)

    def __mul__(self, other: "UnityExponent") -> "UnityExponent":
        if self.base != other.base:
            raise ValueError("incompatible elements: root-of-unity base mismatch")
        return UnityExponent(self.base, self.e + other.e)

    def conj(self) -> "UnityExponent":
        return UnityExponent(self.base, -self.e)


def character(k: int, z: GElement) -> UnityExponent:
    """W_k evaluated at a digit sequence, as an exact exponent mod b."""
    e = 0
    for i, kappa in enumerate(int_digits(k, z.base), start=1):
        if kappa:
            e += kappa * z.digit(i)
    return UnityExponent(z.base, e)


def walsh_exponent(k, x, base: int) -> UnityExponent:
    """Exponent form of wal_k(x) via the canonical digit expansion of x."""
    n = minimal_precision(x, base)
    return character(k, section_sigma(x, base, n))


def walsh_eval(k, x, base: int) -> complex:
    """wal_k(x) as a complex number."""
    return walsh_exponent(k, x, base).value


# ---------------------------------------------------------------------------
# exact character sums


@lru_cache(maxsize=None)
def cyclotomic_coeffs(b: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the b-th cyclotomic polynomial."""
    if b == 1:
        return (-1, 1)
    poly = [-1] + [0] * (b - 1) + [1]  # x^b - 1
    for d in range(1, b):
        if b % d == 0:
            poly = _exact_poly_div(poly, list(cyclotomic_coeffs(d)))
    return tuple(poly)


def _exact_poly_div(num: list[int], den: list[int]) -> list[int]:
    # den is monic; remainder must vanish
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dc in enumerate(den):
                num[i + j] -= c * dc
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return q


def _is_multiple_of_cyclotomic(coeffs: Sequence[int], b: int) -> bool:
    phi = cyclotomic_coeffs(b)
    g = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, g - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j in range(g):
                work[i - g + j] -= c * phi[j]
    return not any(work[:g])


@dataclass(frozen=True)
class CharacterSum:
    """Character sum recorded as exact per-residue counts.

    counts[r] is the number of summands whose exponent is r mod b; the
    complex value of the sum is then sum(counts[r] * omega^r).  Integer
    identities (sum equals 0, or equals the number of points) are decided
    exactly by reduction mod the b-th cyclotomic polynomial.
    """

    base: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def value(self) -> complex:
        """sum(counts[r] * omega^r), real and imaginary parts each one
        math.fsum, correctly rounded."""
        vals = [UnityExponent(self.base, r).value * c for r, c in enumerate(self.counts) if c]
        return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))

    def equals_int(self, t: int) -> bool:
        c = list(self.counts)
        c[0] -= t
        return _is_multiple_of_cyclotomic(c, self.base)

    def is_zero(self) -> bool:
        return self.equals_int(0)

    def is_full(self) -> bool:
        return self.equals_int(self.total)


def character_sum_over(points: NetPoints, k: Sequence[int]) -> CharacterSum:
    """Sum of W_k over the net points, exactly; k holds one frequency per
    coordinate."""
    return character_sums(points, [k])[0]


def character_sums(points: NetPoints, ks: Sequence[Sequence[int]]) -> list[CharacterSum]:
    """Exact sums of W_k over the net points, shifted or not, one per
    frequency vector in ks.

    The digit arrays are built once.  The exponent table is built over
    chunks of frequencies of about _TABLE_ENTRIES entries, so memory stays
    bounded for any number of frequencies, and each chunk's residue
    counts take one vectorized compare per residue.
    """
    b = require_net_points(points, "character_sums").net.base
    digits, tails = points.digit_arrays()
    K = frequency_digits(ks, b, *digits.shape[1:])
    counts = np.empty((len(ks), b), dtype=np.int64)
    step = max(1, _TABLE_ENTRIES // len(digits))
    for lo in range(0, len(ks), step):
        E = _exponents(digits, tails, K[lo : lo + step], b)
        for r in range(b):
            counts[lo : lo + step, r] = (E == r).sum(axis=0)
    return [CharacterSum(b, tuple(c)) for c in counts.tolist()]


def character_exponent_table(points: NetPoints, ks: Sequence[Sequence[int]]) -> np.ndarray:
    """Integer exponent matrix E with E[i, j] = exponent of W_{ks[j]}(points[i])
    at the net points, shifted or not.

    Each frequency holds one nonnegative int per coordinate, in the
    points' base.  Vectorized over numpy; digits past the net's n digit
    rows are filled from each point's tail digit.
    """
    b = require_net_points(points, "character_exponent_table").net.base
    digits, tails = points.digit_arrays()
    return _exponents(digits, tails, frequency_digits(ks, b, *digits.shape[1:]), b)


def _exponents(digits: np.ndarray, tails: np.ndarray, K: np.ndarray, base: int) -> np.ndarray:
    """(N, T) exponents mod b of the frequencies with (T, s, d) digits K,
    d >= n, at the points with (N, s, n) digits and (N, s) tails; each
    position past n reads the point's tail digit."""
    n = digits.shape[-1]
    E = np.einsum("psd,tsd->pt", digits, K[:, :, :n])
    if K.shape[-1] > n:
        E += tails @ K[:, :, n:].sum(axis=2).T
    E %= base
    return E
