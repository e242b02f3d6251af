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
Cambridge University Press, 2010).  A band-limited kernel only needs
u_k = sum_{x in P} W_k(x) for the k in its box, the values of the exact
residue counts of walsh.residue_counts.  The spectral route takes the
dual frequencies of either kernel from the (T, s) components that
dual.dual_scan hands out: in the box of a band-limited kernel, under the
weight cap of a diagonal one.  Sums over the points and over the dual
hits of a diagonal kernel are
math.fsum, which is correctly rounded, so they do not depend on the
order of their terms.  Both routes take only kernels of the net's base
and dimension.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Sequence

import numpy as np

from .badic import add_mod, digit_values, first_positions, frequency_digits, int_digits, integer_array
from .nets import DigitalNet, NetPoints, PointSet, require_net_points, to_point_set
from .walsh import UnityExponent, residue_counts, sum_values, walsh_exponents
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


@dataclass(frozen=True, eq=False)
class BandLimitedKernel:
    """Kernel with finitely many Walsh coefficients.

    coeffs[t, u] is the coefficient at the frequency pair indexed by
    t and u; component j of index t is (t // box^j) % box with
    box = base^k_digits.  The matrix must be Hermitian positive
    semidefinite, which holds for anything built by random.  digits are
    the (T, s, k_digits) digit rows of the T frequencies, by flat index
    (_box_digits), built once with the kernel.
    """

    base: int
    s: int
    k_digits: int
    coeffs: np.ndarray
    digits: np.ndarray = field(init=False, repr=False)

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
        digits = _box_digits(self.base, self.s, self.k_digits)
        digits.setflags(write=False)
        object.__setattr__(self, "digits", digits)

    @property
    def box(self) -> int:
        return self.base**self.k_digits

    @property
    def size(self) -> int:
        return self.box**self.s

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
        perm = digit_values(-_box_digits(base, s, k_digits).reshape(T, s * k_digits) % base, base)
        sym = A + A[np.ix_(perm, perm)].conj()
        return cls(base, s, k_digits, sym)


def _box_digits(base: int, s: int, k_digits: int) -> np.ndarray:
    """(T, s, k_digits) digits of the T = b^(s k_digits) frequencies of a
    box, by flat index: component j of t is digits j k_digits to
    (j+1) k_digits - 1 of t."""
    T = base ** (s * k_digits)
    return frequency_digits([(t,) for t in range(T)], base, 1, s * k_digits).reshape(T, s, k_digits)


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
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.s < 1:
            raise ValueError("dimension must be >= 1")
        if not self.alpha > 0.5:
            raise ValueError("alpha must exceed 1/2 for a summable kernel")
        if len(self.gammas) != self.s:
            raise ValueError("one weight per coordinate required")
        if not all(0 <= g < math.inf for g in self.gammas):
            raise ValueError("weights must be finite and nonnegative")

    @property
    def q(self) -> float:
        """Geometric ratio of one digit level: b^(1-2 alpha)."""
        return float(self.base) ** (1.0 - 2.0 * self.alpha)

    def r_rows(self, ks: np.ndarray) -> np.ndarray:
        """r(k) of every row of a (T, s) array of frequency vectors (int64,
        or Python ints past 2^63): the product over the components of
        r_j(k_j), in coordinate order from 1.0.  A component's level a1 is
        the count of the powers b^0, ..., b^(d-1) at most it, d the digit
        count of the largest component, and r_j is gathered from the table
        of levels 0..d, [1.0] + [gamma_j b^(-2 alpha a1) for a1 in 1..d].
        Rows not of length s are a ValueError, as in khat."""
        if ks.shape[1:] != (self.s,):
            raise ValueError("incompatible elements: dimension mismatch")
        b = self.base
        d = len(int_digits(int(ks.max(initial=0)), b))
        levels = np.searchsorted(np.array([b**a for a in range(d)], dtype=ks.dtype), ks, side="right")
        out = np.ones(len(ks))
        for j, gamma in enumerate(self.gammas):
            table = np.array([1.0] + [gamma * float(b) ** (-2.0 * self.alpha * a) for a in range(1, d + 1)])
            out *= table[levels[:, j]]
        return out

    def phi(self, i0: int | None) -> float:
        """Per-coordinate series sum(b^(-2 alpha a1(k)) wal_k) at a point
        whose first nonzero digit sits at position i0 (None for 0)."""
        b, q = self.base, self.q
        if i0 is None:
            return (1.0 - 1.0 / b) * q / (1.0 - q)
        head = (1.0 - 1.0 / b) * (q * (1.0 - q ** (i0 - 1)) / (1.0 - q))
        return head - (q**i0) / b


def _band_limited(kernel, net: DigitalNet | None = None) -> bool:
    """True for a BandLimitedKernel, False for a SpectralDiagonalKernel,
    anything else a TypeError; given a net, a kernel of another base or
    dimension is a ValueError."""
    if not isinstance(kernel, (BandLimitedKernel, SpectralDiagonalKernel)):
        raise TypeError("unknown kernel type")
    if net is not None and kernel.base != net.base:
        raise ValueError("incompatible elements: base mismatch")
    if net is not None and kernel.s != net.s:
        raise ValueError("incompatible elements: dimension mismatch")
    return isinstance(kernel, BandLimitedKernel)


def khat(kernel, k: Sequence[int], l: Sequence[int]) -> complex:
    """Walsh coefficient of the kernel at a frequency pair."""
    band = _band_limited(kernel)
    ks = tuple(map(operator.index, k))
    ls = tuple(map(operator.index, l))
    if len(ks) != kernel.s or len(ls) != kernel.s:
        raise ValueError("incompatible elements: dimension mismatch")
    if min(ks + ls) < 0:
        raise ValueError("frequencies are nonnegative")
    if not band:
        return complex(kernel.r_rows(integer_array([ks], "frequencies", shape=(1, None)))[0]) if ks == ls else 0j
    if any(v >= kernel.box for v in ks + ls):
        return 0j
    t, u = digit_values(np.array([ks, ls]), kernel.box).tolist()  # flat indices, as in wce_spectral
    return complex(kernel.coeffs[t, u])


# ---------------------------------------------------------------------------
# worst-case error, direct route


def _clamped(e2: float) -> tuple[float, bool]:
    return (0.0, True) if e2 < 0 else (e2, False)


def wce_direct(points: NetPoints, kernel) -> WceResult:
    """Three-term squared worst-case error from the net points, shifted
    or not.

    A diagonal kernel takes the group identity, N terms.  A band-limited
    kernel takes u_k = sum_x W_k(x) for every one of the T frequencies k
    in its box, the values of the exact character sums, and reports the
    N T exponent entries counted into them as terms_used.  The frequency
    digits are the kernel's T digit rows.  Either route raises ValueError
    for a kernel of another base or dimension than the net's.
    """
    N = len(require_net_points(points, "wce_direct"))
    if _band_limited(kernel, points.net):
        digits, tails = points.digit_arrays()
        u = np.array(sum_values(residue_counts(digits, tails, kernel.digits, kernel.base), kernel.base))
        term1 = complex(kernel.coeffs[0, 0])
        col = kernel.coeffs[:, 0]
        row = kernel.coeffs[0, :]
        term2 = (complex(col @ u) + complex(row @ u.conj())) / N
        term3 = complex(u @ kernel.coeffs @ u.conj()) / (N * N)
        e2c = term1 - term2 + term3
        if abs(e2c.imag) > 1e-9 * max(1.0, abs(e2c.real)):
            raise ArithmeticError("squared error came out non-real")
        val, cl = _clamped(e2c.real)
        return WceResult(val, "direct", 0.0, N * kernel.size, cl)
    val, cl = _clamped(-1.0 + _diag_group_sum(points.net, kernel) / N)
    return WceResult(val, "direct", 0.0, N, cl)


def _diag_group_sum(net: DigitalNet, kernel: SpectralDiagonalKernel) -> float:
    """sum over the unshifted net points x of the diagonal kernel K(x, 0).

    The digit arrays are read from NetPoints.digit_blocks and the
    products of every block go into one math.fsum, which is correctly
    rounded, so the sum does not depend on the blocks.
    """
    table = np.array([kernel.phi(None)] + [kernel.phi(i0) for i0 in range(1, net.n + 2)])  # by depth, 0 for none

    def products():
        for digits, tails in NetPoints(net).digit_blocks():
            prod = np.ones(len(digits))
            for j in range(net.s):
                pos = first_positions(digits[:, j, :], tails[:, j])
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
    filtering is needed.  Both kernels are summed over dual_scan hits,
    whose guard counts the candidate tuples against max_candidates.  A
    band-limited kernel's are its box, by flat index, summed exactly
    (tail_bound 0).  A diagonal kernel's have weight sum(a1(k_j)) <= cap
    (default n); everything heavier, dual or not, is absorbed into
    tail_bound via geometric series, so |direct - spectral| <=
    tail_bound always holds.
    """
    if _band_limited(kernel, net):
        box = dualmod.dual_scan(net, kernel.k_digits, max_candidates=max_candidates)
        idx = np.sort(digit_values(box, kernel.box))[1:]  # flat indices; 0 is the origin
        val = complex(kernel.coeffs[np.ix_(idx, idx)].sum()) if len(idx) else 0j
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ArithmeticError("squared error came out non-real")
        v, cl = _clamped(val.real)
        return WceResult(v, "spectral", 0.0, len(idx) ** 2, cl)
    if cap is None:
        cap = net.n
    if not 1 <= cap <= net.n:
        raise ValueError("cap must lie in 1..n")
    hits = dualmod.dual_scan(net, cap, weighted=True, max_candidates=max_candidates)[1:]  # row 0 is the origin
    return WceResult(math.fsum(kernel.r_rows(hits).tolist()), "spectral", _diag_tail(kernel, cap), len(hits))


def _diag_tail(kernel: SpectralDiagonalKernel, cap: int) -> float:
    """Coefficient mass of every frequency of weight sum_j a1(k_j) above cap.

    Coordinate j holds mass c_j q^a at digit level a >= 1, with
    c_j = gamma_j (1 - 1/b), and so c_j q^a / (1 - q) at all levels from
    a on.  Adding a coordinate, the mass above cap is the old mass above
    cap times the coordinate's total, plus the mass at each weight w <= cap
    times the coordinate's mass from level cap - w + 1 on.  Every term is
    positive, so no digit is lost to cancellation, as it is in the total
    less the mass under cap once that mass nears the total.
    """
    b, q = kernel.base, kernel.q
    level_mass = [1.0] + [0.0] * cap  # coefficient mass per weight up to cap
    tail = 0.0
    for gj in kernel.gammas:
        c = gj * (1.0 - 1.0 / b)
        above = c / (1.0 - q)  # times q^a: the mass at levels a and up
        tail = tail * (1.0 + above * q) + math.fsum(mass * above * q ** (cap - w + 1) for w, mass in enumerate(level_mass))
        level_mass = [level_mass[w] + math.fsum(level_mass[w - a] * c * q**a for a in range(1, w + 1)) for w in range(cap + 1)]
    return tail


def ms_wce_spectral(net: DigitalNet, kernel, cap: int | None = None, max_candidates: int = dualmod.GUARD_DEFAULT) -> WceResult:
    """Mean squared error over all digital shifts: the spectral sum of
    the shift-averaged kernel, whose off-diagonal Walsh coefficients
    vanish and whose diagonal is untouched (a diagonal kernel is its own
    average)."""
    if _band_limited(kernel):
        kernel = BandLimitedKernel(kernel.base, kernel.s, kernel.k_digits, np.diag(np.diag(kernel.coeffs)))
    return wce_spectral(net, kernel, cap=cap, max_candidates=max_candidates)


# ---------------------------------------------------------------------------
# random digital shifts and plain QMC integration


def random_digital_shift(points: NetPoints, seed_or_rng) -> NetPoints:
    """Shift every net point by one shared uniform digit vector.

    The shift has the net's precision and a zero tail; shifts compose by
    badic.add_mod, and digitwise differences between points are untouched.
    """
    net = require_net_points(points, "random_digital_shift").net
    rng = np.random.default_rng(seed_or_rng)  # a Generator passes through unchanged
    shift = rng.integers(0, net.base, size=(net.s, net.n))
    return NetPoints(net, shift if points.shift is None else add_mod(shift, points.shift, net.base))


@dataclass(frozen=True)
class IntegrationResult:
    integrand: str
    value: complex
    exact: complex
    n_points: int

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.exact)


def qmc_integrate(points: PointSet | NetPoints, integrand: str, **params) -> IntegrationResult:
    """Equal-weight cubature of a few built-in integrands with known value,
    over a PointSet of any dimension s, or over net points, shifted or not,
    read as their to_point_set.

    integrand is one of:
      prod-quadratic   prod_j (x_j^2 + c), exact (1/3 + c)^s   (param c, default 0)
      prod-exp         prod_j exp(x_j),    exact (e - 1)^s
      walsh            wal_k(x),           exact 1 if k = 0 else 0 (param k: tuple)

    prod-quadratic takes every row as one exact product of Python ints,
    (c_d x^2 + c_n) over the coordinates, in one object-array pass, then
    one true division by the common scale, which is correctly rounded.
    The walsh integrand takes the walsh_exponents of the numerators and
    the root of each distinct exponent once.  The estimate is the mean of
    the row values, real and imaginary parts each summed by math.fsum (a
    real integrand's imaginary part sums no terms, to 0.0).
    """
    ps = points if isinstance(points, PointSet) else to_point_set(require_net_points(points, "qmc_integrate"))
    nums, den = ps.nums, ps.den
    N = len(nums)
    if N == 0:
        raise ValueError("empty point set")
    s = nums.shape[1]
    if integrand == "prod-quadratic":
        # one exact ratio of Python ints per row; int / int rounds as float(Fraction)
        c = Fraction(params.get("c", 0))
        cn, cd = c.numerator * den * den, c.denominator
        x = nums.astype(object)
        re, im = ((cd * x * x + cn).prod(axis=1) / (cd * den * den) ** s).tolist(), []
        exact = complex(float((Fraction(1, 3) + c) ** s))
    elif integrand == "prod-exp":
        re, im = [math.prod(math.exp(x / den) for x in row) for row in nums.tolist()], []
        exact = complex((math.e - 1.0) ** s)
    elif integrand == "walsh":
        k = params["k"]
        if len(k) != s:
            raise ValueError("incompatible elements: dimension mismatch")
        base = params.get("base")
        if base is None:
            raise ValueError("walsh integrand needs the base")
        # one frequency per coordinate, so that E[:, j] is coordinate j's exponent
        ks = [tuple(kj if i == j else 0 for i in range(s)) for j, kj in enumerate(k)]
        E = walsh_exponents(nums.tolist(), den, ks, base)
        present, index = np.unique(E, return_inverse=True)  # a root per exponent present, not per residue
        roots = [UnityExponent(base, e).value for e in present.tolist()]
        vals = [math.prod((roots[i] for i in row), start=complex(1.0)) for row in index.reshape(E.shape).tolist()]
        re, im = [v.real for v in vals], [v.imag for v in vals]
        exact = complex(1.0) if all(int(v) == 0 for v in k) else complex(0.0)
    else:
        raise ValueError(f"unknown integrand {integrand!r}")
    est = complex(math.fsum(re), math.fsum(im)) / N
    return IntegrationResult(integrand, est, exact, N)
