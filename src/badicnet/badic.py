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

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def integer_array(value, name: str, shape: tuple | None = None, below: int | None = None, rule: str | None = None) -> np.ndarray:
    """The one gate of integer input: a read-only copy of value, an ndarray
    of integer dtype or nested sequences (or an object array) whose every
    leaf is a Python or numpy integer, bool not counting as one.  shape,
    when given, is the shape value must have, None standing for any
    length, and below, when given, bounds every entry to [0, below).  The
    copy is int64, or Python ints in an object array when an entry does
    not fit.  Anything else is a ValueError: rule (by default what name
    must be), then the leaf, shape or entry of name that breaks it."""
    want = str(shape).replace("None", "*")
    if rule is None:
        kind = "an integer array" if shape is None else "an integer" if shape == () else f"a {want} integer array"
        rule = f"{name} must be {kind}" + (f" of digits in [0, {below})" if below is not None else "")
    a = value
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
        try:
            a = np.array(value, dtype=object)
        except ValueError:  # sequences of mismatched shapes that numpy cannot nest
            raise ValueError(f"{rule}: {name} is not a rectangular array") from None
    if shape is not None and (a.ndim != len(shape) or any(k not in (None, d) for k, d in zip(shape, a.shape))):
        raise ValueError(f"{rule}: {name} has shape {a.shape}, not {want}")
    if a.dtype == object:
        for v in a.flat:
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
                raise ValueError(f"{rule}: {name} holds {_leaf_text(v)}")
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    if below is not None and (lo < 0 or hi >= below):
        raise ValueError(f"{rule}: {name} holds {lo if lo < 0 else hi}")
    if -(1 << 63) <= lo and hi < 1 << 63:
        out = a.astype(np.int64)
    else:  # Python ints, numpy integer leaves included
        out = np.array(list(map(int, a.ravel().tolist())), dtype=object).reshape(a.shape)
    out.setflags(write=False)
    return out


def _leaf_text(v) -> str:
    """A rejected leaf as JSON writes it (true, null, 1.5), else its repr."""
    try:
        return json.dumps(v)
    except TypeError:
        return repr(v)


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
    depth, or more when a component needs them.

    Digit i of every component is one floor division by b^i and one
    remainder, over the whole (T, s) array at once: in int64 while b and
    every component are below 2^63, in Python ints past that, which the
    digits keep when b >= 2^63.  Components are read with operator.index,
    as int_digits reads them.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if any(len(k) != s for k in ks):
        raise ValueError("incompatible elements: dimension mismatch")
    flat = [operator.index(kj) for k in ks for kj in k]
    if flat and min(flat) < 0:
        raise ValueError("negative integer has no digit expansion here")
    largest = max(flat, default=0)
    top = len(int_digits(largest, base))
    wide = base >= 1 << 63  # a digit may not fit in int64
    dtype = object if wide or largest >= 1 << 63 else np.int64
    powers = np.array([base**i for i in range(top)], dtype=dtype)  # each at most the largest component
    out = np.zeros((len(ks), s, max(depth, top)), dtype=object if wide else np.int64)
    out[..., :top] = np.array(flat, dtype=dtype).reshape(len(ks), s, 1) // powers % base
    return out


def digit_values(digits: np.ndarray, base: int) -> np.ndarray:
    """The inverse of frequency_digits: the integers sum_i digits[..., i] b^i
    of an (..., d) digit array, least significant digit first, in int64
    while b^d <= 2^63 and in Python ints (an object array) past that."""
    d = digits.shape[-1]
    dtype = np.int64 if base**d <= 1 << 63 else object
    return digits.astype(dtype) @ np.array([base**i for i in range(d)], dtype=dtype)


def mod_product(digits: np.ndarray, rows: np.ndarray, base: int) -> np.ndarray:
    """(T, c) int64 residues digits @ rows mod b of (T, K) digits and (K, c)
    rows, a net's linear digit map at given vectors: in int64 while
    K (b - 1)^2 < 2^63 bounds every entry, in Python ints past that.
    int64 inputs are not copied and the product is reduced in place."""
    dtype = np.int64 if rows.shape[0] * (base - 1) ** 2 < 1 << 63 else object
    prod = digits.astype(dtype, copy=False) @ rows.astype(dtype, copy=False)
    return np.remainder(prod, base, out=prod).astype(np.int64, copy=False)


def add_mod(x: np.ndarray, y: np.ndarray, base: int) -> np.ndarray:
    """x + y mod b of residues in [0, b), added into x in place and
    returned; y, of x's dtype, broadcasts against x and is left unchanged.
    The sum u is formed in the unsigned view of x's dtype, which must hold
    2(b-1) (a linear_table's dtype, or int64 at any b <= 2^63), and
    reduced to the smaller of u and u - b: below b, u - b wraps past u."""
    u = x.view(f"u{x.dtype.itemsize}")
    u += y.view(u.dtype)
    np.minimum(u, u - u.dtype.type(base), out=u)
    return x


def linear_table(rows: np.ndarray, base: int) -> np.ndarray:
    """(b^k, c) array whose row v is the mod_product of the k digits of v
    (least significant first) with a (k, c) array of rows, for every
    v < b^k: row v + d b^i is row v add_mod row i times d, the multiples
    of every row being one mod_product, in the smallest unsigned dtype
    that holds 2(b-1), so any two tables' rows add_mod in place."""
    dtype = np.min_scalar_type(2 * (base - 1))
    k, c = rows.shape
    table = np.zeros((1, c), dtype=dtype)
    if k:  # the multiples take b rows, so k = 0 builds none at any base
        steps = mod_product(np.arange(base)[:, None], rows.reshape(1, k * c), base).astype(dtype).reshape(base, k, c)
        for i in range(k):
            table = add_mod(np.repeat(table[None], base, axis=0), steps[:, i, None], base).reshape(base * len(table), c)
    return table


_INT64_SAFE_DEN = 1 << 40  # past this, numerators switch to Python ints


def numerators(digits: np.ndarray, tails: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """Exact values of digit arrays as numerators over den = b^n (b - 1).

    A coordinate with digits d_1..d_n and constant tail c has value
    (sum_i d_i b^(n-i) (b - 1) + c) / (b^n (b - 1)).  The (..., s)
    numerators of (..., s, n) digits and (..., s) tails come from one
    matrix product, in int64 while den <= 2^40, where num / den in float64
    is the correctly rounded decimal of the point CSV, and in Python ints
    past that (not the 2^63 rule of the other entries).
    """
    b, n = base, digits.shape[-1]
    den = b**n * (b - 1)
    dtype = np.int64 if den <= _INT64_SAFE_DEN else object
    weights = np.array([b**e for e in range(n - 1, -1, -1)], dtype=dtype)
    nums = (digits.astype(dtype, copy=False) @ weights) * (b - 1) + tails.astype(dtype, copy=False)
    return nums, den


def canonical_digits(rows, den: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, s, n) digits, position 1 first, and (N, s) tails of the
    canonical base-b expansions of the values num/den of (N, s) integer
    numerators, at one precision n: the minimal_precision of g/den, g the
    gcd of den and every numerator (at most den.bit_length() digits).
    Over b^n (b - 1), a numerator's tail is num mod (b - 1) and its digits
    are those of num div (b - 1); the value 1 is all digits b - 1 with
    tail b - 1.  Both arrays are int64, or Python ints when b >= 2^63, as
    frequency_digits gives them.
    """
    b = base
    flat = [x for row in rows for x in row]
    if min(flat) < 0 or max(flat) > den:
        raise ValueError("unsupported expansion: x outside [0, 1]")
    g = math.gcd(den, *flat)
    n = minimal_precision(Fraction(g, den), b, limit=den.bit_length())
    top = b**n * (b - 1)
    nums = np.array(rows, dtype=object) // g * (top // (den // g))
    one = nums == top  # num div (b - 1) = b^n has n + 1 digits
    heads = np.where(one, 0, nums // (b - 1))
    digits = frequency_digits(heads.tolist(), b, nums.shape[1], n)[:, :, ::-1]
    tails = (nums % (b - 1)).astype(digits.dtype)
    digits[one], tails[one] = b - 1, b - 1
    return digits, tails


def first_positions(digits: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Depth of every sequence of (..., n) digits and (...) tails: the
    1-based position of its first nonzero digit, n + 1 where only the tail
    is nonzero, 0 where the sequence is 0."""
    nonzero = digits != 0
    any_digit = nonzero.any(axis=-1)
    pos = np.where(any_digit, nonzero.argmax(axis=-1) + 1, 0)
    return np.where(~any_digit & (tails != 0), nonzero.shape[-1] + 1, pos)


@dataclass(frozen=True)
class GElement:
    """Truncated digit sequence: n explicit digits, then a constant tail.

    digits[i] is the digit at position i+1.  Every position past
    len(digits) holds the tail digit.  Digits and tail pass
    integer_array and are kept as Python ints.
    """

    base: int
    digits: tuple[int, ...]
    tail: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if not len(self.digits):
            raise ValueError("precision must be >= 1")
        *digits, tail = integer_array((*self.digits, self.tail), "digits", below=self.base).tolist()
        object.__setattr__(self, "digits", tuple(digits))
        object.__setattr__(self, "tail", tail)

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
    """Value sum(z_i * b^-i) in [0, 1], exact: the numerators of the one
    sequence z.  The constant tail c past precision n contributes
    c * b^-n / (b - 1).
    """
    nums, den = numerators(np.array([[z.digits]], dtype=object), np.array([[z.tail]], dtype=object), z.base)
    return Fraction(int(nums[0, 0]), den)


def first_nonzero_position(z: GElement) -> int | None:
    """1-based position of the first nonzero digit, the tail counting as
    position n + 1, None if z = 0: first_positions of the one sequence z."""
    return first_positions(np.array(z.digits, dtype=object), np.array(z.tail, dtype=object)).item() or None


def section_sigma(x, base: int, precision: int) -> GElement:
    """Canonical digit expansion of x in [0, 1] at the given precision:
    the canonical_digits of x at its minimal precision, padded with the
    tail digit.  Only numbers whose canonical expansion is constant from
    position precision+1 onwards are representable; anything else raises
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
    if (x * b**n * (b - 1)).denominator != 1:
        raise ValueError(f"unsupported expansion: {x} is not eventually constant in base {b} at precision {n}")
    digits, tails = canonical_digits([[x.numerator]], x.denominator, b)
    tail = tails.item()
    return GElement(b, tuple(digits[0, 0].tolist()) + (tail,) * (n - digits.shape[2]), tail)


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
    """True when the digit sum of k vanishes mod b: rows_in_E of the one
    frequency (k,)."""
    return bool(rows_in_E(frequency_digits([(k,)], base, 1, 0), base)[0])


def rows_in_E(digits: np.ndarray, base: int) -> np.ndarray:
    """(T,) bool: True for the frequency vectors with (T, s, d) digits
    (frequency_digits) whose every component has a digit sum that
    vanishes mod b: one mod_product of the digit rows with ones.  The
    digits pass integer_array as digits in [0, b)."""
    digits = integer_array(digits, "frequency digits", shape=(None, None, None), below=base)
    T, s, d = digits.shape
    return ~np.any(mod_product(digits.reshape(T * s, d), np.ones((d, 1), dtype=np.int64), base).reshape(T, s), axis=1)


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

