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
from collections.abc import Iterable, Sequence

import numpy as np

from .badic import DigitVec, GElement, GVector, as_digit_vec, minimal_precision, section_sigma
from .nets import NetPoints, digit_arrays


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


@dataclass(frozen=True)
class KVector:
    """Frequency vector: one digit expansion per coordinate."""

    base: int
    components: tuple[DigitVec, ...]

    def __post_init__(self):
        for c in self.components:
            if c.base != self.base:
                raise ValueError("incompatible elements: component base mismatch")

    @classmethod
    def of(cls, base: int, *ks) -> "KVector":
        return cls(base, tuple(as_digit_vec(k, base) for k in ks))

    @property
    def s(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(not c.digits for c in self.components)


def character(k, z: GElement) -> UnityExponent:
    """W_k evaluated at a digit sequence, as an exact exponent mod b."""
    kd = as_digit_vec(k, z.base)
    e = 0
    for i, kappa in enumerate(kd.digits, start=1):
        if kappa:
            e += kappa * z.digit(i)
    return UnityExponent(z.base, e)


def character_vec(k: KVector, z: GVector) -> UnityExponent:
    """Product character over coordinates (exponents add mod b)."""
    if k.base != z.base:
        raise ValueError("incompatible elements: base mismatch")
    if k.s != z.s:
        raise ValueError("incompatible elements: dimension mismatch")
    e = 0
    for kj, zj in zip(k.components, z.coords):
        e += character(kj, zj).e
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
        vals = [UnityExponent(self.base, r).value * c for r, c in enumerate(self.counts) if c]
        return compensated_sum(vals)

    def equals_int(self, t: int) -> bool:
        c = list(self.counts)
        c[0] -= t
        return _is_multiple_of_cyclotomic(c, self.base)

    def is_zero(self) -> bool:
        return self.equals_int(0)

    def is_full(self) -> bool:
        return self.equals_int(self.total)


def character_sum_over(points: Iterable[GVector], k: KVector) -> CharacterSum:
    """Sum of W_k over a finite multiset of digit vectors, exactly."""
    if not isinstance(points, Sequence):
        points = list(points)
    E = character_exponent_table(points, [k])
    return CharacterSum(k.base, tuple(int(c) for c in np.bincount(E[:, 0], minlength=k.base)))


def compensated_sum(values: Iterable[complex]) -> complex:
    """Neumaier summation on real and imaginary parts.

    Reordering the input moves the result by at most about 1e-12 relative
    to the magnitude sum, which is the reproducibility contract callers
    rely on.
    """
    sr = si = 0.0
    cr = ci = 0.0
    for v in values:
        x = float(v.real)
        t = sr + x
        if abs(sr) >= abs(x):
            cr += (sr - t) + x
        else:
            cr += (x - t) + sr
        sr = t
        y = float(v.imag)
        t = si + y
        if abs(si) >= abs(y):
            ci += (si - t) + y
        else:
            ci += (y - t) + si
        si = t
    return complex(sr + cr, si + ci)


def character_exponent_table(points: Sequence[GVector], ks: Sequence[KVector]) -> np.ndarray:
    """Integer exponent matrix E with E[i, j] = exponent of W_{ks[j]}(points[i]).

    Vectorized over numpy; digits past each point's stored precision are
    filled from its tail digit.
    """
    if not points or not ks:
        return np.zeros((len(points), len(ks)), dtype=np.int64)
    b = points.net.base if isinstance(points, NetPoints) else points[0].base
    digits, tails = digit_arrays(points)
    _, s, n = digits.shape
    depth = max([n] + [len(c.digits) for k in ks for c in k.components])
    Z = np.empty((len(points), s, depth), dtype=np.int64)
    Z[:, :, :n] = digits
    Z[:, :, n:] = tails[:, :, None]
    K = np.zeros((len(ks), s, depth), dtype=np.int64)
    for t, k in enumerate(ks):
        if k.base != b or k.s != s:
            raise ValueError("incompatible elements: frequency vector mismatch")
        for j, c in enumerate(k.components):
            K[t, j, : len(c.digits)] = c.digits
    return np.einsum("psd,tsd->pt", Z, K) % b
