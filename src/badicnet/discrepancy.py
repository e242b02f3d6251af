"""Star discrepancy of planar point sets, exactly where possible.

Everything here works on PointSet2, whose coordinates are integers over
one common denominator D.  Counting functions are then integer valued on
the grid spanned by the coordinate values, which makes the L_2 formula,
even-exponent L_p integrals, and the L_inf corner sweep exact integer
computations; only the square root and non-even exponents bring floats
in.  The local discrepancy convention is the strict half-open box
[0, t): points on the upper faces do not count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .nets import PointSet2

@dataclass(frozen=True)
class DiscrepancyResult:
    """A discrepancy value with its provenance.

    exact is the p-th power of the value as a rational for the exact
    methods (and the value itself for the sup norm); None when the number
    came out of quadrature.
    """

    p: float
    value: float
    method: str
    error_bound: float
    exact: Fraction | None = None


def local_discrepancy(ps: PointSet2, t: Sequence) -> Fraction:
    """count([0,t) cap P)/N - t1*t2, exact."""
    t1, t2 = Fraction(t[0]), Fraction(t[1])
    if not (0 <= t1 <= 1 and 0 <= t2 <= 1):
        raise ValueError("box corner outside the unit square")
    N = ps.n_points
    if N == 0:
        raise ValueError("empty point set")
    D = ps.den
    cnt = 0
    for a, c in ps.nums:
        if int(a) * t1.denominator < t1.numerator * D and int(c) * t2.denominator < t2.numerator * D:
            cnt += 1
    return Fraction(cnt, N) - t1 * t2


# ---------------------------------------------------------------------------
# L2 by the closed pair formula, summed by a dominance sweep


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """sum_i x_i y_i in Python ints, whatever the dtypes."""
    return int(np.dot(x.astype(object), y.astype(object)))


def _dominance_sums(r: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every k: #{i < k : r_i < r_k} and sum_{i < k, r_i < r_k} w_i.

    r holds integer ranks >= 0.  A pair with r_i < r_k is counted at the
    highest bit where the ranks differ, where r_i has a 0 and r_k a 1 under
    a common prefix.  So each bit costs one stable sort by prefix plus
    prefix sums inside every prefix group: O(N log N) per bit, no Python
    loop over points.  The sums keep the dtype of w.
    """
    N = r.shape[0]
    cnt = np.zeros(N, dtype=np.int64)
    tot = np.zeros(N, dtype=w.dtype)
    for bit in reversed(range(int(r.max()).bit_length())):
        prefix = r >> (bit + 1)
        order = np.argsort(prefix, kind="stable")  # index order inside a group
        keys = prefix[order]
        starts = np.concatenate(([True], keys[1:] != keys[:-1]))
        group = np.cumsum(starts) - 1
        low = ((r[order] >> bit) & 1) == 0
        wl = np.where(low, w[order], 0)
        c = np.cumsum(low)
        s = np.cumsum(wl)
        # inclusive sums minus the sums just before the group's first point
        c -= (c - low)[starts][group]
        s -= (s - wl)[starts][group]
        high = ~low
        cnt[order[high]] += c[high]
        tot[order[high]] += s[high]
    return cnt, tot


def _pair_min_sum(u: np.ndarray, v: np.ndarray) -> int:
    """sum over ordered pairs of min(u_i, u_k) min(v_i, v_k), exact.

    Sorted by u descending, an earlier point i has min(u_i, u_k) = u_k, and
    sum_{i<k} min(v_i, v_k) splits into the v_i below v_k plus v_k times
    the count of the rest; the dominance sweep gives both.
    """
    order = np.argsort(-u, kind="stable")
    u, v = u[order], v[order]
    ranks = np.unique(v, return_inverse=True)[1]
    below, below_sum = _dominance_sums(ranks, v)
    k = np.arange(u.shape[0], dtype=np.int64)
    earlier = below_sum + v * (k - below)
    return _exact_dot(u, v) + 2 * _exact_dot(u, earlier)


def l2_star(ps: PointSet2) -> DiscrepancyResult:
    """Exact L2 star discrepancy via the pairwise max formula.

    L2^2 = 1/9 - 2/N sum_x prod_j (1-x_j^2)/2 + 1/N^2 sum_{x,y} prod_j (1 - max(x_j, y_j))
    evaluated in integer arithmetic over the common denominator.  The pair
    sum runs as a dominance sweep in O(N log^2 N) (the planar case of
    S. Heinrich, Math. Comp. 65 (1996)); its partial sums stay in int64
    while N D <= 2^62 and move to Python ints past that.
    """
    N = ps.n_points
    if N == 0:
        raise ValueError("empty point set")
    D = ps.den
    x, y = ps.nums[:, 0].astype(object), ps.nums[:, 1].astype(object)
    s2 = _exact_dot(D * D - x * x, D * D - y * y)
    dtype = np.int64 if ps.nums.dtype != object and N * D <= (1 << 62) else object
    s3 = _pair_min_sum((D - x).astype(dtype), (D - y).astype(dtype))
    l2sq = Fraction(1, 9) - Fraction(s2, 2 * N * D**4) + Fraction(s3, N * N * D * D)
    value = math.sqrt(l2sq)
    return DiscrepancyResult(2.0, value, "warnock", 1e-14 * max(value, 1.0), l2sq)


# ---------------------------------------------------------------------------
# grid decomposition shared by L_p and L_inf


def _grids(ps: PointSet2):
    D = ps.den
    gx = np.unique(np.concatenate([np.array([0, D], dtype=ps.nums.dtype), ps.nums[:, 0]]))
    gy = np.unique(np.concatenate([np.array([0, D], dtype=ps.nums.dtype), ps.nums[:, 1]]))
    return gx, gy


def _cell_counts(ps: PointSet2, gx, gy) -> np.ndarray:
    """C[i, j] = number of points with x <= gx[i] and y <= gy[j]."""
    ix = np.searchsorted(gx, ps.nums[:, 0])
    iy = np.searchsorted(gy, ps.nums[:, 1])
    cnt = np.zeros((len(gx), len(gy)), dtype=np.int64)
    np.add.at(cnt, (ix, iy), 1)
    return cnt.cumsum(axis=0).cumsum(axis=1)


def lp_star(ps: PointSet2, p) -> DiscrepancyResult:
    """L_p star discrepancy on the cell decomposition of the unit square.

    The counting function is constant on every half-open grid cell, so
    even integer p reduces to exact rational integrals of polynomials.
    Other finite p >= 1 use per-cell quadrature of the one remaining
    outer variable (the inner integral has a closed form); the combined
    absolute quadrature error on the p-th power is kept below 1e-10.
    """
    if p == math.inf:
        return linf_star(ps)
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1 (or inf)")
    N = ps.n_points
    if N == 0:
        raise ValueError("empty point set")
    if p == int(p) and int(p) % 2 == 0:
        return _lp_even_exact(ps, int(p))
    return _lp_quadrature(ps, p)


def _lp_even_exact(ps: PointSet2, p: int) -> DiscrepancyResult:
    """Sum over q of (-1)^q C(p, q) dx_q^T (C^(p-q)) dy_q / (N^(p-q) (q+1)^2 D^(2q+2)).

    On cell (i, j) the integrand is (C_ij/N - t1 t2)^p; expanding the
    power leaves per-axis integrals of t^q, whose integer parts are
    dx_q[i] = gx[i+1]^(q+1) - gx[i]^(q+1) (dy_q alike), and C^(p-q) is the
    elementwise power of the cell counts.  Each q is then one integer
    bilinear form, taken as object-dtype matrix products.
    """
    N, D = ps.n_points, ps.den
    gx, gy = _grids(ps)
    counts = _cell_counts(ps, gx, gy)[:-1, :-1].astype(object)
    gx, gy = gx.astype(object), gy.astype(object)
    total = Fraction(0)
    power = np.ones_like(counts)  # counts^(p-q), built up as q falls
    for q in range(p, -1, -1):
        dx = gx[1:] ** (q + 1) - gx[:-1] ** (q + 1)
        dy = gy[1:] ** (q + 1) - gy[:-1] ** (q + 1)
        form = int(dx @ (power @ dy))
        total += Fraction((-1) ** q * comb(p, q) * form, N ** (p - q) * (q + 1) ** 2 * D ** (2 * q + 2))
        power = power * counts
    value = float(total) ** (1.0 / p)
    return DiscrepancyResult(float(p), value, "piecewise_exact", 1e-14 * max(value, 1.0), total)


def _lp_quadrature(ps: PointSet2, p: float) -> DiscrepancyResult:
    N, D = ps.n_points, ps.den
    gx, gy = _grids(ps)
    C = _cell_counts(ps, gx, gy)
    gxf = np.array([int(v) for v in gx], dtype=float) / D
    gyf = np.array([int(v) for v in gy], dtype=float) / D
    v_lo = gyf[:-1]
    v_hi = gyf[1:]

    def s_pow(w):
        return np.sign(w) * np.abs(w) ** (p + 1.0)

    pieces = []  # (t_lo, t_hi, counts row)
    for i in range(len(gx) - 1):
        t_lo, t_hi = gxf[i], gxf[i + 1]
        if t_hi <= t_lo:
            continue
        A = C[i, : len(gyf) - 1] / N
        # inner-integral kinks: t1 where A - t1 * v changes sign inside the cell
        cuts = {t_lo, t_hi}
        for Aj, vj, wj in zip(A, v_lo, v_hi):
            for v in (vj, wj):
                if v > 0 and Aj > 0:
                    t = Aj / v
                    if t_lo < t < t_hi:
                        cuts.add(t)
        cs = sorted(cuts)
        for lo, hi in zip(cs[:-1], cs[1:]):
            pieces.append((lo, hi, A))

    eps_each = 1e-10 / max(len(pieces), 1)
    total = 0.0
    err = 0.0
    for lo, hi, A in pieces:

        def outer(t1, A=A):
            if t1 <= 0:
                return float(np.sum(np.abs(A) ** p * (v_hi - v_lo)))
            inner = (s_pow(A - t1 * v_lo) - s_pow(A - t1 * v_hi)) / (t1 * (p + 1.0))
            return float(inner.sum())

        val, e = quad(outer, lo, hi, epsabs=eps_each, epsrel=1e-12, limit=200)
        total += val
        err += e
    err = max(err, 1e-15)
    value = total ** (1.0 / p)
    bound = (total + err) ** (1.0 / p) - value
    return DiscrepancyResult(p, value, "quadrature", bound + 1e-15, None)


def linf_star(ps: PointSet2) -> DiscrepancyResult:
    """Sup of |local discrepancy|, exact.

    On each grid cell the sup is attained in the limit at the lower
    corner (count held, box shrunk) or at the closed upper corner, so a
    sweep over both corner families suffices.  One grid row at a time,
    the scaled corner values count * D^2 - N u v are integers bounded by
    N D^2: int64 while that stays below 2^61, python ints past it.
    """
    N, D = ps.n_points, ps.den
    if N == 0:
        raise ValueError("empty point set")
    gx, gy = _grids(ps)
    dtype = np.int64 if ps.nums.dtype != object and N * D * D < (1 << 61) else object
    iy = np.searchsorted(gy, ps.nums[:, 1])
    ix = np.searchsorted(gx, ps.nums[:, 0])
    hist = np.zeros(len(gy), dtype=np.int64)
    gx, gy = gx.astype(dtype), gy.astype(dtype)
    best_num = 0
    order = np.argsort(ix, kind="stable")
    pos = 0
    for i in range(len(gx) - 1):
        while pos < len(order) and ix[order[pos]] == i:
            hist[iy[order[pos]]] += 1
            pos += 1
        row = np.cumsum(hist)[: len(gy) - 1].astype(dtype)
        v1 = row * (D * D) - N * gx[i] * gy[:-1]
        v2 = row * (D * D) - N * gx[i + 1] * gy[1:]
        best_num = max(best_num, int(np.abs(v1).max()), int(np.abs(v2).max()))
    best = Fraction(best_num, N * D * D)
    return DiscrepancyResult(math.inf, float(best), "corner_sweep", 0.0, best)


def truncation_bound(base: int, m: int, n: int, p) -> float:
    """Allowance b^-(m + 2(n-m-1)/p) (b^-m for p = inf) for the growth of
    L_p when the symmetrized Hammersley tail is cut at digit n.

    Cutting the tail moves every coordinate down by at most b^-n, so the
    local discrepancy changes by ΔD with ||ΔD||_1 <= b^-n and
    ||ΔD||_inf <= 2 b^-(m+1) <= b^-m.  Hölder's inequality then gives
    ||ΔD||_p <= b^-(m + (n-m)/p), which equals the allowance at n = m+2:
    there the value is proven.

    For 1 <= p < 2 and n > m+2 the allowance decays faster than b^-n,
    while the measured L_1 gap times b^n settles near 0.2 (b = 2, m = 3, 4;
    b = 3, m = 1, 2), so the allowance is exceeded from (2,3,8), (2,4,9),
    (3,1,5) and (3,2,6) on.  The value is still returned there, with a
    RuntimeWarning.  For p >= 2 and n > m+2 it is not proven, but no
    measurement has broken it, so it is returned silently.
    """
    if n < m + 2:
        raise ValueError("truncation too short: need n >= m + 2")
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 (or inf)")
    if p < 2 and n > m + 2:
        warnings.warn(
            f"truncation_bound(base={base}, m={m}, n={n}, p={p}): for 1 <= p < 2 "
            "and n > m+2 the allowance decays faster than the b^-n truncation "
            "gap and does not bound the growth of L_p",
            RuntimeWarning,
            stacklevel=2,
        )
    expo = float(m) if p == math.inf else m + 2.0 * (n - m - 1) / float(p)
    return float(base) ** (-expo)
