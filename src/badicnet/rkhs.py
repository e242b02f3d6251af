"""Worst-case integration error in Walsh-based kernel spaces.

Two kernel families are provided.  A band-limited kernel stores its
full matrix of Walsh coefficients over frequencies below b^K per
coordinate, built as a Gram product so it is Hermitian and positive
semidefinite by construction.  A diagonal kernel has coefficients
r(k) = prod_j gamma_j b^(-2 alpha a1(k_j)) supported on the diagonal,
with a closed pointwise form through the per-coordinate series phi.

The squared worst-case error of a point multiset P is

    e^2 = II - (2/N) sum_x I(x) + (1/N^2) sum_{x,y} K(x,y),

(direct route) and equals the coefficient mass of the nonzero dual
frequencies of the generating net (spectral route); both are computed
independently so they can be checked against each other.

The direct route takes the points as NetPoints, shifted or not, and
nothing else.  A diagonal kernel depends on x and y only through the
digitwise difference x - y, and the points of a digital net form a group
under that subtraction, tails included: each y sees the same multiset
x - y.  A shifted net P + sigma is a coset, and
(x + sigma) - (y + sigma) = x - y.  So the direct route of a diagonal
kernel is

    e^2 = -1 + (1/N) sum_{x in P} K(x, 0),

in O(N s n) from the unshifted digit arrays, read a block of rows at a
time (J. Dick and F. Pillichshammer, Digital Nets and Sequences,
Cambridge University Press, 2010).  A band-limited kernel takes the
Walsh table of the points.  The spectral route takes the dual frequencies
from dual.dual_scan, which joins the image tables of the last two
coordinates on integer row keys and hands the hits back in
lexicographic order, so the compensated sum adds them in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence

import numpy as np

from .badic import int_digits
from .nets import _ROW_BLOCK, DigitalNet, NetPoints, PointSet2, point_digit_arrays, point_numerators, require_net_points
from .walsh import character_exponent_table, compensated_sum, walsh_eval
from . import dual as dualmod


@dataclass(frozen=True)
class WceResult:
    value: float
    method: str  # direct | spectral | monte_carlo
    tail_bound: float
    terms_used: int
    clamped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "tail_bound": self.tail_bound,
            "terms_used": self.terms_used,
        }


# ---------------------------------------------------------------------------
# kernels


def _tuple_to_flat(ks: Sequence[int], box: int) -> int:
    t = 0
    for k in reversed(ks):
        t = t * box + int(k)
    return t


def _digit_negate(k: int, base: int) -> int:
    """Digitwise negation mod b of k >= 0."""
    return sum((-d % base) * base**i for i, d in enumerate(int_digits(k, base)))


@dataclass(frozen=True, eq=False)
class BandLimitedKernel:
    """Kernel with finitely many Walsh coefficients.

    coeffs[t, u] is the coefficient at the frequency pair indexed by
    t and u; component j of index t is (t // box^j) % box with
    box = base^k_digits.  The matrix must be Hermitian positive
    semidefinite, which holds for anything built by from_gram.
    """

    base: int
    s: int
    k_digits: int
    coeffs: np.ndarray

    def __post_init__(self):
        box = self.base**self.k_digits
        T = box**self.s
        a = np.asarray(self.coeffs, dtype=complex)
        if a.shape != (T, T):
            raise ValueError(f"coefficient matrix must be {T} x {T}")
        if not np.allclose(a, a.conj().T, atol=1e-12):
            raise ValueError("coefficient matrix must be Hermitian")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @property
    def box(self) -> int:
        return self.base**self.k_digits

    @property
    def size(self) -> int:
        return self.box**self.s

    def frequency(self, t: int) -> tuple[int, ...]:
        return tuple((t // self.box**j) % self.box for j in range(self.s))

    @classmethod
    def from_gram(cls, base: int, s: int, k_digits: int, gram: np.ndarray) -> "BandLimitedKernel":
        V = np.asarray(gram, dtype=complex)
        return cls(base, s, k_digits, V @ V.conj().T)

    @classmethod
    def random(cls, base: int, s: int, k_digits: int, rank: int, rng) -> "BandLimitedKernel":
        """Random real symmetric PSD kernel of the given Gram rank.

        Realness of the pointwise kernel needs coeffs[neg k, neg l] to be
        the conjugate of coeffs[k, l] (neg = digitwise negation), so the
        raw Gram product is symmetrized across that involution.  Each
        component of a flat index fills exactly k_digits base-b digits
        (box = b^k_digits), so negating the index digitwise negates every
        component.
        """
        if k_digits < 0:
            raise ValueError("k_digits must be nonnegative")
        box = base**k_digits
        T = box**s
        W = rng.normal(size=(T, rank)) + 1j * rng.normal(size=(T, rank))
        W /= math.sqrt(2.0 * T)
        A = W @ W.conj().T
        perm = np.array([_digit_negate(t, base) for t in range(T)])
        sym = A + A[np.ix_(perm, perm)].conj()
        return cls(base, s, k_digits, sym)


@dataclass(frozen=True)
class SpectralDiagonalKernel:
    """Diagonal kernel of smoothness alpha with product weights.

    Coefficient at (k, k) is prod_j r_j(k_j), r_j(0) = 1 and
    r_j(k) = gamma_j * b^(-2 alpha a1(k)) with a1 the position of the
    highest nonzero digit.  alpha must exceed 1/2 or the coefficient
    mass diverges.
    """

    base: int
    s: int
    alpha: float
    gammas: tuple[float, ...]

    def __post_init__(self):
        if not self.alpha > 0.5:
            raise ValueError("alpha must exceed 1/2 for a summable kernel")
        if len(self.gammas) != self.s:
            raise ValueError("one weight per coordinate required")
        if not all(g >= 0 for g in self.gammas):
            raise ValueError("weights must be nonnegative")

    @property
    def q(self) -> float:
        """Geometric ratio of one digit level: b^(1-2 alpha)."""
        return float(self.base) ** (1.0 - 2.0 * self.alpha)

    def r1(self, k: int, j: int) -> float:
        if k == 0:
            return 1.0
        a1 = len(int_digits(k, self.base))
        return self.gammas[j] * float(self.base) ** (-2.0 * self.alpha * a1)

    def r(self, ks: Sequence[int]) -> float:
        out = 1.0
        for j, k in enumerate(ks):
            out *= self.r1(int(k), j)
        return out

    def phi(self, i0: int | None) -> float:
        """Per-coordinate series sum(b^(-2 alpha a1(k)) wal_k) at a point
        whose first nonzero digit sits at position i0 (None for 0)."""
        b, q = self.base, self.q
        if i0 is None:
            return (1.0 - 1.0 / b) * q / (1.0 - q)
        head = (1.0 - 1.0 / b) * (q * (1.0 - q ** (i0 - 1)) / (1.0 - q))
        return head - (q**i0) / b


def khat(kernel, k: Sequence[int], l: Sequence[int]) -> complex:
    """Walsh coefficient of the kernel at a frequency pair."""
    ks = tuple(int(v) for v in k)
    ls = tuple(int(v) for v in l)
    if len(ks) != kernel.s or len(ls) != kernel.s:
        raise ValueError("incompatible elements: dimension mismatch")
    if min(ks + ls) < 0:
        raise ValueError("frequencies are nonnegative")
    if isinstance(kernel, BandLimitedKernel):
        if any(v >= kernel.box for v in ks + ls):
            return 0j
        return complex(kernel.coeffs[_tuple_to_flat(ks, kernel.box), _tuple_to_flat(ls, kernel.box)])
    if isinstance(kernel, SpectralDiagonalKernel):
        return complex(kernel.r(ks)) if ks == ls else 0j
    raise TypeError("unknown kernel type")


def ds_invariant_coeffs(kernel):
    """Digit-shift averaged version of a kernel: off-diagonal Walsh
    coefficients vanish, the diagonal is untouched."""
    if isinstance(kernel, SpectralDiagonalKernel):
        return kernel
    if isinstance(kernel, BandLimitedKernel):
        diag = np.diag(np.diag(kernel.coeffs))
        return BandLimitedKernel(kernel.base, kernel.s, kernel.k_digits, diag)
    raise TypeError("unknown kernel type")


# ---------------------------------------------------------------------------
# pointwise evaluation


def _walsh_table(points: NetPoints, kernel: BandLimitedKernel) -> np.ndarray:
    """W[i, t] = W_k(points[i]) for the t-th flat frequency k, complex."""
    if points.net.base != kernel.base:
        raise ValueError("incompatible elements: base mismatch")
    E = character_exponent_table(points, [kernel.frequency(t) for t in range(kernel.size)])
    return np.exp(2j * math.pi * E / kernel.base)


# ---------------------------------------------------------------------------
# worst-case error, direct route


def _clamped(e2: float) -> tuple[float, bool]:
    return (0.0, True) if e2 < 0 else (e2, False)


def wce_direct(points: NetPoints, kernel) -> WceResult:
    """Three-term squared worst-case error from the net points, shifted
    or not.

    A diagonal kernel takes the group identity, N terms; a band-limited
    kernel takes the Walsh table of the points, N^2 terms_used.
    """
    N = len(require_net_points(points, "wce_direct"))
    if isinstance(kernel, BandLimitedKernel):
        u = _walsh_table(points, kernel).sum(axis=0)
        term1 = complex(kernel.coeffs[0, 0])
        col = kernel.coeffs[:, 0]
        row = kernel.coeffs[0, :]
        term2 = (complex(col @ u) + complex(row @ u.conj())) / N
        term3 = complex(u @ kernel.coeffs @ u.conj()) / (N * N)
        e2c = term1 - term2 + term3
        if abs(e2c.imag) > 1e-9 * max(1.0, abs(e2c.real)):
            raise ArithmeticError("squared error came out non-real")
        val, cl = _clamped(e2c.real)
        return WceResult(val, "direct", 0.0, N * N, cl)
    if isinstance(kernel, SpectralDiagonalKernel):
        val, cl = _clamped(-1.0 + _diag_group_sum(points.net, kernel) / N)
        return WceResult(val, "direct", 0.0, N, cl)
    raise TypeError("unknown kernel type")


def _phi_table(kernel: SpectralDiagonalKernel, n: int) -> np.ndarray:
    """phi per first-nonzero position: 1..n digits, n+1 the tail, 0 none."""
    return np.array([kernel.phi(None)] + [kernel.phi(i0) for i0 in range(1, n + 2)])


def _first_positions(nonzero: np.ndarray, tail_nonzero: np.ndarray) -> np.ndarray:
    """Index into _phi_table from (..., n) digit and (...) tail masks."""
    n = nonzero.shape[-1]
    any_digit = nonzero.any(axis=-1)
    pos = np.where(any_digit, nonzero.argmax(axis=-1) + 1, 0)
    return np.where(~any_digit & tail_nonzero, n + 1, pos)


def _diag_group_sum(net: DigitalNet, kernel: SpectralDiagonalKernel) -> float:
    """sum over the unshifted net points x of the diagonal kernel K(x, 0).

    The digit arrays are read _ROW_BLOCK rows at a time and the products
    of every block go into one math.fsum, which is correctly rounded, so
    the sum does not depend on the blocks.
    """
    table = _phi_table(kernel, net.n)

    def products():
        for lo in range(0, net.n_points, _ROW_BLOCK):
            digits, tails = point_digit_arrays(net, slice(lo, lo + _ROW_BLOCK))
            prod = np.ones(len(digits))
            for j in range(net.s):
                pos = _first_positions(digits[:, j, :] != 0, tails[:, j] != 0)
                prod *= 1.0 + kernel.gammas[j] * table[pos]
            yield from prod.tolist()

    return math.fsum(products())


# ---------------------------------------------------------------------------
# worst-case error, spectral route


def wce_spectral(net: DigitalNet, kernel, cap: int | None = None, max_candidates: int = dualmod.GUARD_DEFAULT) -> WceResult:
    """Squared worst-case error as coefficient mass over the dual net.

    The point multiset meant here is the image of the net's points; for
    a net built by symmetrize_matrices the dual membership test already
    encodes the digit-sum constraint of the symmetrization, so no extra
    filtering is needed.  Band-limited kernels are summed exactly
    (tail_bound 0).  Diagonal kernels are summed over dual frequencies
    of weight sum(a1(k_j)) at most cap (default n); everything heavier,
    dual or not, is absorbed into tail_bound via geometric series, so
    |direct - spectral| <= tail_bound always holds.
    """
    if isinstance(kernel, BandLimitedKernel):
        box = kernel.box
        t = np.arange(kernel.size)
        image = np.zeros((kernel.size, net.m), dtype=np.int64)
        for j in range(net.s):
            image += dualmod.image_table(net, j, kernel.k_digits)[(t // box**j) % box]
        idx = np.flatnonzero(np.all(image % net.base == 0, axis=1))[1:]  # t = 0 is the origin
        val = complex(kernel.coeffs[np.ix_(idx, idx)].sum()) if len(idx) else 0j
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ArithmeticError("squared error came out non-real")
        v, cl = _clamped(val.real)
        return WceResult(v, "spectral", 0.0, len(idx) ** 2, cl)
    if isinstance(kernel, SpectralDiagonalKernel):
        if cap is None:
            cap = net.n
        if not 1 <= cap <= net.n:
            raise ValueError("cap must lie in 1..n")
        count = _weighted_box_count(kernel.base, net.s, cap)
        if count > max_candidates:
            raise ValueError(f"guard exceeded: {count} candidates over cap {max_candidates}")
        hits = [ks for ks in dualmod.dual_scan(net, cap, weighted=True) if any(ks)]
        value = compensated_sum(complex(kernel.r(ks)) for ks in hits).real
        return WceResult(value, "spectral", _diag_tail(kernel, cap), len(hits))
    raise TypeError("unknown kernel type")


def _weighted_box_count(base: int, s: int, cap: int) -> int:
    # number of k-tuples with sum of top digit positions <= cap
    def level(a: int) -> int:
        return 1 if a == 0 else (base - 1) * base ** (a - 1)

    counts = [1] + [0] * cap
    for _ in range(s):
        new = [0] * (cap + 1)
        for w in range(cap + 1):
            if counts[w]:
                for a in range(cap - w + 1):
                    new[w + a] += counts[w] * level(a)
        counts = new
    return sum(counts)


def _diag_tail(kernel: SpectralDiagonalKernel, cap: int) -> float:
    b, q = kernel.base, kernel.q
    level_mass = [1.0] + [0.0] * cap  # per-weight coefficient mass, truncated
    total_all = 1.0
    for j in range(kernel.s):
        gj = kernel.gammas[j]
        new = [0.0] * (cap + 1)
        for w in range(cap + 1):
            if level_mass[w]:
                new[w] += level_mass[w]
                for a in range(1, cap - w + 1):
                    new[w + a] += level_mass[w] * gj * (1.0 - 1.0 / b) * q**a
        level_mass = new
        total_all *= 1.0 + gj * (1.0 - 1.0 / b) * q / (1.0 - q)
    under = math.fsum(level_mass)
    return max(total_all - under, 0.0)


def ms_wce_spectral(net: DigitalNet, kernel, cap: int | None = None, max_candidates: int = dualmod.GUARD_DEFAULT) -> WceResult:
    """Mean squared error over all digital shifts: the spectral sum of
    the shift-averaged kernel (diagonal coefficients only)."""
    return wce_spectral(net, ds_invariant_coeffs(kernel), cap=cap, max_candidates=max_candidates)


# ---------------------------------------------------------------------------
# random digital shifts and plain QMC integration


def random_digital_shift(points: NetPoints, seed_or_rng) -> NetPoints:
    """Shift every net point by one shared uniform digit vector.

    The shift has the net's precision and a zero tail, and shifts add
    mod b; pairwise digitwise differences between points are untouched.
    """
    net = require_net_points(points, "random_digital_shift").net
    rng = np.random.default_rng(seed_or_rng)  # a Generator passes through unchanged
    shift = rng.integers(0, net.base, size=(net.s, net.n))
    return NetPoints(net, shift if points.shift is None else (shift + points.shift) % net.base)


@dataclass(frozen=True)
class IntegrationResult:
    integrand: str
    value: complex
    exact: complex
    n_points: int

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.exact)


def qmc_integrate(points: PointSet2 | NetPoints, integrand: str, **params) -> IntegrationResult:
    """Equal-weight cubature of a few built-in integrands with known value,
    over a PointSet2 or net points, shifted or not.

    integrand is one of:
      prod-quadratic   prod_j (x_j^2 + c), exact (1/3 + c)^s   (param c, default 0)
      prod-exp         prod_j exp(x_j),    exact (e - 1)^s
      walsh            wal_k(x),           exact 1 if k = 0 else 0 (param k: tuple)
    """
    if isinstance(points, PointSet2):
        nums, den = points.nums, points.den
    else:
        nums, den = point_numerators(require_net_points(points, "qmc_integrate"))
    N = len(nums)
    if N == 0:
        raise ValueError("empty point set")
    rows = nums.tolist()
    s = nums.shape[1]
    if integrand == "prod-quadratic":
        # one exact ratio of integers per row; int / int rounds as float(Fraction)
        c = Fraction(params.get("c", 0))
        cn, cd = c.numerator * den * den, c.denominator
        scale = (cd * den * den) ** s
        vals = [complex(math.prod(cd * x * x + cn for x in row) / scale) for row in rows]
        exact = complex(float((Fraction(1, 3) + c) ** s))
    elif integrand == "prod-exp":
        vals = [complex(math.prod(math.exp(x / den) for x in row)) for row in rows]
        exact = complex((math.e - 1.0) ** s)
    elif integrand == "walsh":
        k = params["k"]
        if len(k) != s:
            raise ValueError("incompatible elements: dimension mismatch")
        base = params.get("base")
        if base is None:
            raise ValueError("walsh integrand needs the base")
        vals = [math.prod((walsh_eval(kj, Fraction(x, den), base) for kj, x in zip(k, row)), start=complex(1.0))
                for row in rows]
        exact = complex(1.0) if all(int(v) == 0 for v in k) else complex(0.0)
    else:
        raise ValueError(f"unknown integrand {integrand!r}")
    est = compensated_sum(vals) / N
    return IntegrationResult(integrand, est, exact, N)
