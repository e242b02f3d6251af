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
from fractions import Fraction
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from .badic import GElement, add_mod, canonical_digits, frequency_digits, integer_array, mod_product
from .nets import NetPoints, require_net_points

_TABLE_ENTRIES = 1 << 20  # exponent-table entries per chunk of frequencies in residue_counts


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


def character(k: int, z: GElement) -> UnityExponent:
    """W_k evaluated at a digit sequence, as an exact exponent mod b: the
    _exponents of the one frequency (k,) at the one sequence z."""
    digits, tail = np.array([[z.digits]], dtype=object), np.array([[z.tail]], dtype=object)
    return UnityExponent(z.base, _exponents(digits, tail, frequency_digits([(k,)], z.base, 1, 0), z.base).item())


def walsh_exponent(k, x, base: int) -> UnityExponent:
    """Exponent form of wal_k(x): walsh_exponents of the one k at the one x."""
    x = Fraction(x)
    return UnityExponent(base, walsh_exponents([[x.numerator]], x.denominator, [(k,)], base).item())


def walsh_eval(k, x, base: int) -> complex:
    """wal_k(x) as a complex number."""
    return walsh_exponent(k, x, base).value


def walsh_exponents(nums, den: int, ks: Sequence[Sequence[int]], base: int) -> np.ndarray:
    """(N, T) exponents mod b of wal_k(x) = W_k(sigma(x)) at the points x of
    (N, s) numerators over den and the T frequency vectors ks: _exponents of
    their canonical_digits and frequency_digits, read first (they check b)."""
    K = frequency_digits(ks, base, np.shape(nums)[1], 0)
    return _exponents(*canonical_digits(nums, den, base), K, base)


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


def cyclotomic_remainders(b: int) -> list[list[int]]:
    """The b x phi(b) integer matrix whose row r holds the coefficients
    (ascending) of x^r mod the b-th cyclotomic polynomial, r = 0..b-1."""
    phi = cyclotomic_coeffs(b)
    g = len(phi) - 1
    rows, row = [], [1] + [0] * (g - 1)
    for _ in range(b):
        rows.append(row)
        top = row[-1]  # times x, x^g leaves as -top (phi_0 + ... + phi_{g-1} x^{g-1})
        row = [c - top * pc for c, pc in zip([0] + row[:-1], phi)]
    return rows


def sums_vanish(counts: np.ndarray, base: int) -> np.ndarray:
    """(T,) bool: True where sum_r counts[t, r] omega^r is exactly 0, for
    a (T, b) integer array of per-residue counts (entries of any sign),
    read by badic.integer_array.

    Phi_b is the minimal polynomial of omega = exp(2 pi i / b), so a row
    vanishes exactly when its polynomial sum_r counts[t, r] x^r is a
    multiple of Phi_b, that is when its remainder counts[t] @ M is zero,
    M = cyclotomic_remainders(b).  The product is exact in int64 while
    b max|M| max|counts| < 2^63 and runs in Python ints past that.
    """
    counts = integer_array(counts, "counts", shape=(None, base))
    M = cyclotomic_remainders(base)
    largest = int(np.abs(counts).max()) if counts.size else 0
    dtype = np.int64 if base * max(abs(v) for row in M for v in row) * largest < 1 << 63 else object
    return ~np.any(counts.astype(dtype) @ np.array(M, dtype=dtype), axis=1)


def sum_values(counts: np.ndarray, base: int) -> list[complex]:
    """sum_r counts[t, r] omega^r of every row of a (T, b) count array:
    each count times the real and the imaginary part of its root, and
    one math.fsum per row and part, correctly rounded."""
    roots = np.array([UnityExponent(base, r).value for r in range(base)])
    re, im = (counts * roots.real).tolist(), (counts * roots.imag).tolist()
    return [complex(math.fsum(x), math.fsum(y)) for x, y in zip(re, im)]


@dataclass(frozen=True)
class CharacterSum:
    """Character sum recorded as exact per-residue counts: one row of a
    residue_counts array.

    counts[r] is the number of summands whose exponent is r mod b; the
    complex value of the sum is then sum(counts[r] * omega^r).  Integer
    identities (sum equals 0, or equals the number of points) are decided
    exactly by reduction mod the b-th cyclotomic polynomial, sums_vanish
    on this one row.
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
        return sum_values(np.array([self.counts]), self.base)[0]

    def equals_int(self, t: int) -> bool:
        c = np.array([self.counts], dtype=object)
        c[0, 0] -= t
        return bool(sums_vanish(c, self.base)[0])

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
    frequency vector in ks: the rows of their residue_counts."""
    b = require_net_points(points, "character_sums").net.base
    digits, tails = points.digit_arrays()
    counts = residue_counts(digits, tails, frequency_digits(ks, b, *digits.shape[1:]), b)
    return [CharacterSum(b, tuple(c)) for c in counts.tolist()]


def residue_counts(digits: np.ndarray, tails: np.ndarray, K: np.ndarray, base: int) -> np.ndarray:
    """(T, b) residue counts of the exponents of the frequencies with
    (T, s, d) digits K at the points with (N, s, n) digits and (N, s)
    tails.  The exponent table is built over chunks of frequencies of
    about _TABLE_ENTRIES entries, so memory stays bounded for any number
    of frequencies, and each chunk's counts are one bincount, frequency t
    of the chunk counting its exponents offset by t b.  The three arrays
    pass badic.integer_array as digits in [0, b).  A (T, b) table that
    numpy cannot allocate is a ValueError that names its shape.
    """
    digits = integer_array(digits, "point digits", shape=(None, None, None), below=base)
    tails = integer_array(tails, "tails", shape=(len(digits), digits.shape[1]), below=base)
    K = integer_array(K, "frequency digits", shape=(None, digits.shape[1], None), below=base)
    try:
        counts = np.empty((len(K), base), dtype=np.int64)
    except (MemoryError, ValueError):  # past the address space, or past numpy's largest dimension
        raise ValueError(f"residue counts need a ({len(K)}, {base}) table") from None
    step = max(1, _TABLE_ENTRIES // len(digits))
    for lo in range(0, len(K), step):
        E = _exponents(digits, tails, K[lo : lo + step], base)
        E += np.arange(E.shape[1]) * base
        counts[lo : lo + step] = np.bincount(E.ravel(), minlength=E.shape[1] * base).reshape(-1, base)
    return counts


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
    """(N, T) exponents mod b of the frequencies with (T, s, d) digits K
    at the points with (N, s, n) digits and (N, s) tails: a mod_product of
    the digit rows, plus past n (where points read their tail digit) one of
    the tails with each coordinate's digit sum mod b, the two added by
    add_mod."""
    (N, s, n), (T, _, d) = digits.shape, K.shape
    w = min(n, d)
    E = mod_product(digits[:, :, :w].reshape(N, s * w), K[:, :, :w].reshape(T, s * w).T, base)
    if d > n:
        sums = mod_product(K[:, :, n:].reshape(T * s, d - n), np.ones((d - n, 1), dtype=np.int64), base)
        add_mod(E, mod_product(tails, sums.reshape(T, s).T, base), base)
    return E
