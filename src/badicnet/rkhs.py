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

A diagonal kernel depends on x and y only through the digitwise
difference x - y, and the points of a digital net form a group under
that subtraction, tails included: each y sees the same multiset x - y.
So on a net (the NetPoints that enumerate_points returns) the direct
route is

    e^2 = -1 + (1/N) sum_x K(x, 0),

in O(N s n) from the digit arrays (J. Dick and F. Pillichshammer,
Digital Nets and Sequences, Cambridge University Press, 2010).  Any
other point sequence, such as a digitally shifted net or an arbitrary
multiset, is not licensed for that identity and takes the O(N^2 s n)
sum over ordered point pairs.  The spectral route scans the dual
candidates coordinate by coordinate, testing the last coordinate's
whole block at once (dual.dual_scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence

import numpy as np

from .badic import GElement, GVector, first_nonzero_position, g_add, g_sub, project_pi
from .nets import DigitalNet, NetPoints, PointSet2, digit_arrays
from .walsh import KVector, character_exponent_table, compensated_sum
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


def _flat_to_tuple(t: int, box: int, s: int) -> tuple[int, ...]:
    out = []
    for _ in range(s):
        t, r = divmod(t, box)
        out.append(r)
    return tuple(out)


def _tuple_to_flat(ks: Sequence[int], box: int) -> int:
    t = 0
    for k in reversed(ks):
        t = t * box + int(k)
    return t


def _digit_negate(k: int, base: int) -> int:
    out = 0
    mult = 1
    while k:
        k, d = divmod(k, base)
        out += ((base - d) % base) * mult
        mult *= base
    return out


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
        return _flat_to_tuple(t, self.box, self.s)

    def kvectors(self) -> list[KVector]:
        return [KVector.of(self.base, *self.frequency(t)) for t in range(self.size)]

    @classmethod
    def from_gram(cls, base: int, s: int, k_digits: int, gram: np.ndarray) -> "BandLimitedKernel":
        V = np.asarray(gram, dtype=complex)
        return cls(base, s, k_digits, V @ V.conj().T)

    @classmethod
    def random(cls, base: int, s: int, k_digits: int, rank: int, rng) -> "BandLimitedKernel":
        """Random real symmetric PSD kernel of the given Gram rank.

        Realness of the pointwise kernel needs coeffs[neg k, neg l] to be
        the conjugate of coeffs[k, l] (neg = digitwise negation), so the
        raw Gram product is symmetrized across that involution.
        """
        box = base**k_digits
        T = box**s
        W = rng.normal(size=(T, rank)) + 1j * rng.normal(size=(T, rank))
        W /= math.sqrt(2.0 * T)
        A = W @ W.conj().T
        perm = np.array(
            [
                _tuple_to_flat([_digit_negate(k, base) for k in _flat_to_tuple(t, box, s)], box)
                for t in range(T)
            ]
        )
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
        if self.alpha <= 0.5:
            raise ValueError("alpha must exceed 1/2 for a summable kernel")
        if len(self.gammas) != self.s:
            raise ValueError("one weight per coordinate required")
        if any(g < 0 for g in self.gammas):
            raise ValueError("weights must be nonnegative")

    @property
    def q(self) -> float:
        """Geometric ratio of one digit level: b^(1-2 alpha)."""
        return float(self.base) ** (1.0 - 2.0 * self.alpha)

    def r1(self, k: int, j: int) -> float:
        if k == 0:
            return 1.0
        a1 = _top_position(k, self.base)
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


def _top_position(k: int, base: int) -> int:
    a = 0
    while k:
        k //= base
        a += 1
    return a


def khat(kernel, k: Sequence[int], l: Sequence[int]) -> complex:
    """Walsh coefficient of the kernel at a frequency pair."""
    ks = tuple(int(v) for v in k)
    ls = tuple(int(v) for v in l)
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


def _walsh_row(kernel: BandLimitedKernel, z: GVector) -> np.ndarray:
    E = character_exponent_table([z], kernel.kvectors())
    return np.exp(2j * math.pi * E[0] / kernel.base)


def kernel_eval(kernel, x: GVector, y: GVector):
    """K(x, y) from exact digit vectors.

    Band-limited kernels return complex (real up to rounding when the
    coefficient matrix has the negation symmetry); diagonal kernels
    return a float through the closed form of phi.
    """
    if isinstance(kernel, BandLimitedKernel):
        wx = _walsh_row(kernel, x)
        wy = _walsh_row(kernel, y)
        return complex(wx @ kernel.coeffs @ wy.conj())
    if isinstance(kernel, SpectralDiagonalKernel):
        out = 1.0
        for j in range(kernel.s):
            z = g_sub(x.coords[j], y.coords[j])
            out *= 1.0 + kernel.gammas[j] * kernel.phi(first_nonzero_position(z))
        return out
    raise TypeError("unknown kernel type")


# ---------------------------------------------------------------------------
# worst-case error, direct route


def _clamped(e2: float) -> tuple[float, bool]:
    return (0.0, True) if e2 < 0 else (e2, False)


def wce_direct(points: Sequence[GVector], kernel) -> WceResult:
    """Three-term squared worst-case error from the points themselves.

    A diagonal kernel on net points takes the group identity (N terms);
    on any other sequence it sums all N^2 ordered pairs.
    """
    N = len(points)
    if N == 0:
        raise ValueError("empty point set")
    if isinstance(kernel, BandLimitedKernel):
        E = character_exponent_table(points, kernel.kvectors())
        W = np.exp(2j * math.pi * E / kernel.base)
        u = W.sum(axis=0)
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
        if isinstance(points, NetPoints):
            e2, terms = -1.0 + _diag_group_sum(points, kernel) / N, N
        else:
            e2, terms = -1.0 + _diag_pair_sum(points, kernel) / (N * N), N * N
        val, cl = _clamped(e2)
        return WceResult(val, "direct", 0.0, terms, cl)
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


def _diag_group_sum(points: NetPoints, kernel: SpectralDiagonalKernel) -> float:
    """sum over the net points x of the diagonal kernel K(x, 0)."""
    digits, tails = points.digit_arrays()
    table = _phi_table(kernel, digits.shape[2])
    prod = np.ones(len(points))
    for j in range(digits.shape[1]):
        pos = _first_positions(digits[:, j, :] != 0, tails[:, j] != 0)
        prod *= 1.0 + kernel.gammas[j] * table[pos]
    return math.fsum(prod)


def _diag_pair_sum(points: Sequence[GVector], kernel: SpectralDiagonalKernel) -> float:
    """sum over ordered point pairs of the diagonal kernel, vectorized on
    the first-nonzero-difference position."""
    digits, tails = digit_arrays(points)
    table = _phi_table(kernel, digits.shape[2])
    total = 0.0
    for i in range(len(points)):
        prod = np.ones(len(points))
        for j in range(digits.shape[1]):
            pos = _first_positions(digits[:, j, :] != digits[i, j, :][None, :], tails[:, j] != tails[i, j])
            prod *= 1.0 + kernel.gammas[j] * table[pos]
        total += float(prod.sum())
    return total


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


def draw_shift(base: int, s: int, precision: int, rng) -> GVector:
    digits = rng.integers(0, base, size=(s, precision))
    return GVector(
        tuple(GElement(base, tuple(int(d) for d in digits[j]), 0) for j in range(s))
    )


def random_digital_shift(points: Sequence[GVector], seed_or_rng) -> list[GVector]:
    """Shift every point by one shared uniform digit vector.

    The shift has the points' precision and a zero tail; pairwise
    digitwise differences between points are untouched.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    if not points:
        return []
    sigma = draw_shift(points[0].base, points[0].s, points[0].precision, rng)
    return [GVector(tuple(g_add(zj, sj) for zj, sj in zip(z.coords, sigma.coords))) for z in points]


@dataclass(frozen=True)
class IntegrationResult:
    integrand: str
    value: complex
    exact: complex
    n_points: int

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.exact)


def _points_as_fraction_rows(points) -> list[tuple[Fraction, ...]]:
    if isinstance(points, PointSet2):
        return [tuple(pair) for pair in points.fractions()]
    return [tuple(project_pi(c) for c in z.coords) for z in points]


def qmc_integrate(points, integrand: str, **params) -> IntegrationResult:
    """Equal-weight cubature of a few built-in integrands with known value.

    integrand is one of:
      prod-quadratic   prod_j (x_j^2 + c), exact (1/3 + c)^s   (param c, default 0)
      prod-exp         prod_j exp(x_j),    exact (e - 1)^s
      walsh            wal_k(x),           exact 1 if k = 0 else 0 (param k: tuple)
    """
    rows = _points_as_fraction_rows(points)
    if not rows:
        raise ValueError("empty point set")
    s = len(rows[0])
    N = len(rows)
    if integrand == "prod-quadratic":
        c = Fraction(params.get("c", 0))
        vals = []
        for row in rows:
            v = Fraction(1)
            for x in row:
                v *= x * x + c
            vals.append(complex(float(v)))
        exact = complex(float((Fraction(1, 3) + c) ** s))
    elif integrand == "prod-exp":
        vals = [complex(math.prod(math.exp(float(x)) for x in row)) for row in rows]
        exact = complex((math.e - 1.0) ** s)
    elif integrand == "walsh":
        k = params["k"]
        if len(k) != s:
            raise ValueError("incompatible elements: dimension mismatch")
        from .walsh import walsh_eval

        base = params.get("base")
        if base is None:
            raise ValueError("walsh integrand needs the base")
        vals = []
        for row in rows:
            v = complex(1.0)
            for kj, x in zip(k, row):
                v *= walsh_eval(kj, x, base)
            vals.append(v)
        exact = complex(1.0) if all(int(v) == 0 for v in k) else complex(0.0)
    else:
        raise ValueError(f"unknown integrand {integrand!r}")
    est = compensated_sum(vals) / N
    return IntegrationResult(integrand, est, exact, N)
