"""Star discrepancy of planar point sets, exactly where possible.

Everything here works on a PointSet of two coordinates (any other is a
ValueError of _planar), whose coordinates are integers over one common
denominator D.  Counting functions are then integer valued on
the grid spanned by the coordinate values, which makes the L_2 formula,
even-exponent L_p integrals, and the L_inf corner sweep exact integer
computations; only the square root and non-even exponents bring floats
in.  The local discrepancy convention is the strict half-open box
[0, t): points on the upper faces do not count.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb

import numpy as np

from .dual import GuardExceeded
from .nets import PointSet


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


def _planar(ps: PointSet) -> tuple[int, int]:
    """N and D of a nonempty point set of two coordinates, the one rule
    of l2_star, lp_star and linf_star; any other is a ValueError."""
    if ps.nums.shape[1] != 2:
        raise ValueError(f"star discrepancy needs a planar point set, not one of {ps.nums.shape[1]} coordinates")
    if ps.n_points == 0:
        raise ValueError("empty point set")
    return ps.n_points, ps.den


# ---------------------------------------------------------------------------
# L2 by the closed pair formula, summed by a dominance sweep


def _peak(a: np.ndarray) -> int:
    """max |a_i|, as a Python int (0 for an empty array)."""
    return max(-int(a.min()), int(a.max())) if len(a) else 0


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """sum_i x_i y_i, exact: as the arrays are while max|x| max|y| N < 2^63,
    which bounds every partial sum (int64 arrays stay in int64), in Python
    ints past that."""
    if _peak(x) * _peak(y) * len(x) < 1 << 63:
        return int(np.dot(x, y))
    return int(np.dot(x.astype(object), y.astype(object)))


def _narrow(a: np.ndarray) -> np.ndarray:
    """Integers >= 0 in the narrowest unsigned dtype that holds them
    (object past 2^64): numpy's stable sort is a radix sort up to 16 bits."""
    return a.astype(np.min_scalar_type(int(a.max())))


def _dominance_sums(r: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every k: #{i < k : r_i < r_k} and sum_{i < k, r_i < r_k} w_i.

    r holds integer ranks >= 0.  A pair with r_i < r_k is counted at the
    highest bit where the ranks differ, where r_i has a 0 and r_k a 1 under
    a common prefix.  So each bit costs one stable sort by prefix, a radix
    sort while the ranks fit in 16 bits; in that order a point with a 1
    counts the 0s before it in its prefix group, which are the 0s before it
    less the 0s of all lower prefixes, and sums their weights from one
    running sum over the 0s.  O(N) per bit besides the sort, no Python loop
    over points.  Past 16 bits of rank, each prefix that fits 16 bits is
    sorted as uint16, so radix sort again.  The sums keep the dtype of w.
    """
    N = r.shape[0]
    r = _narrow(r)
    top = int(r.max())
    cnt = np.zeros(N, dtype=np.int64)
    tot = np.zeros(N, dtype=w.dtype)
    for bit in reversed(range(top.bit_length())):
        key = r >> bit  # prefix, then the bit
        prefix = key >> 1
        if r.dtype.itemsize > 2 and top >> (bit + 1) < 1 << 16:
            prefix = prefix.astype(np.uint16)
        order = np.argsort(prefix, kind="stable")  # index order inside a group
        ones = (key[order] & 1) == 1
        high = np.flatnonzero(ones)
        zeros_before = high - np.arange(len(high))
        per_key = np.bincount(key)
        lower = np.cumsum(per_key[0::2]) - per_key[0::2]  # 0s under each lower prefix
        group_zeros = lower[key[order[high]] >> 1]
        running = np.concatenate(([0], np.cumsum(w[order[~ones]])))
        cnt[order[high]] += zeros_before - group_zeros
        tot[order[high]] += running[zeros_before] - running[group_zeros]
    return cnt, tot


def _pair_min_sum(u: np.ndarray, v: np.ndarray) -> int:
    """sum over ordered pairs of min(u_i, u_k) min(v_i, v_k), exact.

    Sorted by u descending, an earlier point i has min(u_i, u_k) = u_k, and
    sum_{i<k} min(v_i, v_k) splits into the v_i below v_k plus v_k times
    the count of the rest; the dominance sweep gives both.  Its sums, and
    the sums of v before the dots, are at most N max|v| in absolute value:
    they run in int64 while that is below 2^63 and in Python ints past it.
    """
    if v.dtype != object and len(v) * _peak(v) >= 1 << 63:
        v = v.astype(object)
    order = np.argsort(_narrow(u.max() - u), kind="stable")
    u, v = u[order], v[order]
    ranks = np.unique(v, return_inverse=True)[1]
    below, below_sum = _dominance_sums(ranks, v)
    k = np.arange(u.shape[0], dtype=np.int64)
    earlier = below_sum + v * (k - below)
    return _exact_dot(u, v) + 2 * _exact_dot(u, earlier)


def l2_star(ps: PointSet) -> DiscrepancyResult:
    """Exact L2 star discrepancy via the pairwise max formula.

    L2^2 = 1/9 - 2/N sum_x prod_j (1-x_j^2)/2 + 1/N^2 sum_{x,y} prod_j (1 - max(x_j, y_j))
    evaluated in integer arithmetic over the common denominator.  The pair
    sum runs as a dominance sweep in O(N log^2 N) (the planar case of
    S. Heinrich, Math. Comp. 65 (1996)), whose per-bit sorts are radix
    sorts while at most 2^16 distinct y values occur.  The numerators are
    read as PointSet holds them, int64 while D < 2^63; they lie in [0, D],
    and so do D - x and its sort key.  Each later step leaves int64 only
    past its own bound: a dot over N terms at max|x| max|y| N >= 2^63, so
    N D^4 for the first sum and N^2 D^2 for the pair sum; the sweep at N D.
    """
    N, D = _planar(ps)
    x, y = ps.nums.T
    s3 = _pair_min_sum(D - x, D - y)
    if D >= 1 << 31:  # D^2 - x^2 would leave int64
        x, y = x.astype(object), y.astype(object)
    s2 = _exact_dot(D * D - x * x, D * D - y * y)
    l2sq = Fraction(1, 9) - Fraction(s2, 2 * N * D**4) + Fraction(s3, N * N * D * D)
    value = math.sqrt(l2sq)
    return DiscrepancyResult(2.0, value, "warnock", 1e-14 * max(value, 1.0), l2sq)


# ---------------------------------------------------------------------------
# grid decomposition shared by L_p and L_inf


# grid cells counted, or integrand values evaluated, at once: this bounds
# the temporaries (~128 kB each) and keeps them in cache
_BLOCK = 1 << 14


def _grids(ps: PointSet):
    D = ps.den
    gx = np.unique(np.concatenate([np.array([0, D], dtype=ps.nums.dtype), ps.nums[:, 0]]))
    gy = np.unique(np.concatenate([np.array([0, D], dtype=ps.nums.dtype), ps.nums[:, 1]]))
    return gx, gy


def _count_blocks(ps: PointSet, gx, gy):
    """Yield (i0, C) over consecutive blocks of grid rows, about _BLOCK cells each.

    C[r, j] = number of points with x <= gx[i0 + r] and y <= gy[j], for the
    cells j < len(gy) - 1: the count on cell (i0 + r, j).  The blocks come
    from a running column histogram, so no G x G matrix is ever held.
    """
    n_rows, n_cols = len(gx) - 1, len(gy) - 1
    ix = np.searchsorted(gx, ps.nums[:, 0])
    iy = np.searchsorted(gy, ps.nums[:, 1])
    order = np.argsort(ix, kind="stable")
    ix, iy = ix[order], iy[order]
    hist = np.zeros(n_cols, dtype=np.int64)
    step = max(1, _BLOCK // n_cols)
    for i0 in range(0, n_rows, step):
        i1 = min(i0 + step, n_rows)
        lo, hi = np.searchsorted(ix, [i0, i1])
        on = iy[lo:hi] < n_cols  # points on y = 1 count in no cell
        inc = np.zeros((i1 - i0, n_cols), dtype=np.int64)
        np.add.at(inc, (ix[lo:hi][on] - i0, iy[lo:hi][on]), 1)
        inc[0] += hist
        # row by row: numpy's cumsum down the columns is strided and several times slower
        for r in range(1, len(inc)):
            inc[r] += inc[r - 1]
        hist = inc[-1].copy()
        yield i0, np.cumsum(inc, axis=1, out=inc)


def lp_star(ps: PointSet, p) -> DiscrepancyResult:
    """L_p star discrepancy on the cell decomposition of the unit square.

    The counting function is constant on every half-open grid cell, so
    even integer p reduces to exact rational integrals of polynomials.
    Every other finite p >= 1 integrates the one remaining outer variable
    numerically (the inner integral has a closed form over every run of
    equal counts in a grid row), by QUADPACK's 21-point Gauss–Kronrod rule
    batched over the pieces of a block of rows; a round costs O(G^2)
    integrand terms for G grid lines per axis, and the combined error
    estimate on the p-th power stays below 1e-10 + 1e-12 L_p^p (see
    _lp_quadrature).
    """
    if p == math.inf:
        return linf_star(ps)
    p = float(p)
    if not p >= 1:  # NaN included
        raise ValueError("p must be >= 1 (or inf)")
    _planar(ps)
    if p == int(p) and int(p) % 2 == 0:
        return _lp_even_exact(ps, int(p))
    return _lp_quadrature(ps, p)


# bits the per-axis powers of the p + 1 exact forms may take (512 MiB)
_FORM_BITS = 1 << 32


def _lp_even_exact(ps: PointSet, p: int) -> DiscrepancyResult:
    """Sum over q of (-1)^q C(p, q) dx_q^T (C^(p-q)) dy_q / (N^(p-q) (q+1)^2 D^(2q+2)).

    On cell (i, j) the integrand is (C_ij/N - t1 t2)^p; expanding the
    power leaves per-axis integrals of t^q, whose integer parts are
    dx_q[i] = gx[i+1]^(q+1) - gx[i]^(q+1) (dy_q alike), and C^(p-q) is the
    elementwise power of the cell counts.  Each q is then one integer
    bilinear form, taken as object-dtype matrix products over one block of
    grid rows at a time.  Before any is built, the powers are charged
    (G_x + G_y) (p+1)(p+2)/2 log2 D bits for G_x, G_y grid lines, the sum
    over q of (q+1) log2 D bits per line: past _FORM_BITS the call is a
    GuardExceeded.
    """
    N, D = ps.n_points, ps.den
    gx, gy = _grids(ps)
    bits = (len(gx) + len(gy)) * (p + 1) * (p + 2) // 2 * D.bit_length()
    if bits > _FORM_BITS:
        raise GuardExceeded(f"guard exceeded: the p + 1 = {p + 1} exact forms take {bits} bits over cap {_FORM_BITS}")
    gxo, gyo = gx.astype(object), gy.astype(object)
    dx = [gxo[1:] ** (q + 1) - gxo[:-1] ** (q + 1) for q in range(p + 1)]
    dy = [gyo[1:] ** (q + 1) - gyo[:-1] ** (q + 1) for q in range(p + 1)]
    forms = [0] * (p + 1)
    for i0, C in _count_blocks(ps, gx, gy):
        counts = C.astype(object)
        rows = slice(i0, i0 + len(C))
        power = np.ones_like(counts)  # counts^(p-q), built up as q falls
        for q in range(p, -1, -1):
            forms[q] += int(dx[q][rows] @ (power @ dy[q]))
            power = power * counts
    total = Fraction(0)
    for q, form in enumerate(forms):
        total += Fraction((-1) ** q * comb(p, q) * form, N ** (p - q) * (q + 1) ** 2 * D ** (2 * q + 2))
    # below the normal floats float(total) loses digits: take the root of the exact ratio in log space
    low = float(total) < sys.float_info.min
    value = math.exp((math.log(total.numerator) - math.log(total.denominator)) / p) if low else float(total) ** (1.0 / p)
    return DiscrepancyResult(float(p), value, "piecewise_exact", 1e-14 * max(value, 1.0), total)


# QUADPACK's qk21 rule (R. Piessens et al., QUADPACK, Springer 1983): the
# 21-point Kronrod nodes on [-1, 1] and their weights, listed from the
# outermost node in to the centre, and the 10-point Gauss weights on every
# second node.  Expanded below to all 21 nodes in ascending order, with a
# zero Gauss weight on the Kronrod-only nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600802224003, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate((-_XGK[:10], _XGK[::-1]))
_GK_KRONROD = np.concatenate((_WGK[:10], _WGK[::-1]))
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11::2] = _WG[::-1]

# intervals one piece may be split into, as QUADPACK's limit = 200
# subintervals; past it the piece's intervals are taken as they stand, their
# error estimates added to the bound
_MAX_INTERVALS = 200


def _gk21(A, v_lo, v_hi, p, term, a, b):
    """qk21 on every interval [a_k, b_k] of term term_k.

    Term n is the inner integral over one count run of a grid row,
    int_{v_lo_n}^{v_hi_n} |A_n - t1 t2|^p dt2 with A_n the run's count over
    N, which is (w_lo |w_lo|^p - w_hi |w_hi|^p) / (t1 (p+1)) with
    w = A_n - t1 v at v = v_lo_n and v_hi_n.  The intervals are evaluated
    _BLOCK // 21 at a time, about _BLOCK values.  Returns the Kronrod
    values and QUADPACK's error estimates.
    """
    hl = 0.5 * (b - a)
    # per interval: Kronrod and Gauss sums, and the Kronrod sums of |f| and |f - mean|
    sums = np.empty((4, len(a)))
    step = _BLOCK // 21
    for s in range(0, len(a), step):
        e = s + step
        n = term[s:e]
        # nodes down, intervals across, so that every per-interval factor
        # broadcasts along contiguous rows
        t = 0.5 * (a[s:e] + b[s:e]) + hl[s:e] * _GK_NODES[:, None]
        A_n = A[n]
        w = A_n - t * v_lo[n]
        aw = np.abs(w)  # named: on a temporary, numpy takes the power in place, several times slower
        f = w * aw**p
        w = A_n - t * v_hi[n]
        aw = np.abs(w)
        f -= w * aw**p
        f /= t * (p + 1.0)
        resk = _GK_KRONROD @ f
        sums[:, s:e] = resk, _GK_GAUSS @ f, _GK_KRONROD @ np.abs(f), _GK_KRONROD @ np.abs(f - 0.5 * resk)
    resk, resg, resabs, resasc = sums * hl
    err = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 200.0 * err / resasc
        scaled = resasc * np.minimum(1.0, ratio**1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    return resk, np.maximum(err, 50 * np.finfo(float).eps * resabs)


def _row_pieces(C, N, t_lo, t_hi, gyf):
    """The count runs of a block of grid rows and the pieces that integrate them.

    A run is a maximal stretch of cells in one row with the same count.  Its
    inner integral telescopes to the run's outer edges, so its only kinks
    are t1 = A / v_hi <= A / v_lo at its two ends.  Each run's pieces are
    its row's t1-interval cut at those kinks that fall strictly inside it:
    one to three pieces, each carrying only the run's term.  Returns the
    terms (A, v_lo, v_hi), and per piece its term, its interval [a, b) and
    its run's height v_hi - v_lo in t2.
    """
    flat = np.flatnonzero(np.diff(C, axis=1, prepend=-1))  # every row starts a run
    r, j = np.divmod(flat, C.shape[1])
    size = np.diff(flat, append=C.size)
    A = C.ravel()[flat] / N
    v_lo, v_hi = gyf[j], gyf[j + size]
    lo, hi = t_lo[r], t_hi[r]
    with np.errstate(divide="ignore", invalid="ignore"):
        # A / 0 and 0 / v never pass lo < t1, since counts and edges are >= 0
        k_lo, k_hi = A / v_lo, A / v_hi
    k_hi = np.where((lo < k_hi) & (k_hi < hi), k_hi, lo)
    k_lo = np.where((lo < k_lo) & (k_lo < hi), k_lo, hi)
    cuts = np.stack((lo, k_hi, k_lo, hi))
    a, b = cuts[:-1].ravel(), cuts[1:].ravel()
    term = np.tile(np.arange(len(A)), 3)
    wide = a < b
    term = term[wide]
    return (A, v_lo, v_hi), term, a[wide], b[wide], (v_hi - v_lo)[term]


def _lp_quadrature(ps: PointSet, p: float) -> DiscrepancyResult:
    """Integral of |local discrepancy|^p by batched adaptive Gauss–Kronrod.

    The inner variable t2 is integrated in closed form over every count run
    of a grid row, and the outer t1 over the pieces _row_pieces cuts at the
    runs' kinks: one run per piece, so the integrand is smooth on every
    piece.  All pieces of a block of rows go through QUADPACK's 21-point
    rule at once, and only the intervals whose error estimate is over their
    share of the 1e-10 budget are bisected: a piece of width w whose run
    covers height h in t2 is allowed max(1e-10 w h, 1e-12 |piece|) on the
    p-th power, shared among its intervals by width.  The areas w h sum to
    1 over the square.  A piece is split into at most _MAX_INTERVALS
    intervals; those still over their share then are kept, and their
    estimates go into the error bound.

    A round costs 21 integrand values per interval, and a run has at most
    three pieces.  On symmetrized Hammersley sets (G = N/4 + 1 lines per
    axis) the first round takes about 1.5 G^2 intervals and later rounds
    few more, so the cost grows like N^2 (on plain Hammersley sets, about
    G^2 / 2): on a 2-vCPU Xeon VM, sym_hammersley_points(2, m) takes
    0.02-0.035 s at N = 512, 0.06-0.08 s at N = 1024 and 0.8-0.95 /
    0.95-1.1 s at N = 4096 for p = 1 / 1.5.
    Counts, runs and pieces are built one block of rows at a time, and
    each block is integrated and summed before the next is built.
    """
    N, D = ps.n_points, ps.den
    gx, gy = _grids(ps)
    gxf = gx.astype(float) / D
    gyf = gy.astype(float) / D
    vals, errs = [], []  # per block of rows, so that no whole-grid table is held
    for i0, C in _count_blocks(ps, gx, gy):
        t_lo, t_hi = gxf[i0 : i0 + len(C)], gxf[i0 + 1 : i0 + 1 + len(C)]
        wide = t_lo < t_hi
        terms, term, a, b, height = _row_pieces(C[wide], N, t_lo[wide], t_hi[wide], gyf)
        n_pieces = len(a)
        piece = np.arange(n_pieces)
        held = np.ones(n_pieces, dtype=np.int64)  # intervals per piece
        allow = None
        block_vals, block_errs = [], []
        while len(a):
            val, err = _gk21(*terms, p, term, a, b)
            if allow is None:
                # the piece's allowance per unit of width
                allow = np.maximum(1e-10 * height, 1e-12 * np.abs(val) / (b - a))
            mid = 0.5 * (a + b)
            split = (err > allow[piece] * (b - a)) & (a < mid) & (mid < b)
            held += np.bincount(piece[split], minlength=n_pieces)
            split &= held[piece] <= _MAX_INTERVALS
            block_vals.append(val[~split])
            block_errs.append(err[~split])
            term, piece = (np.tile(x[split], 2) for x in (term, piece))
            a, b = np.concatenate((a[split], mid[split])), np.concatenate((mid[split], b[split]))
        vals.append(math.fsum(chain.from_iterable(block_vals)))
        errs.append(math.fsum(chain.from_iterable(block_errs)))
    total = math.fsum(vals)
    err = max(math.fsum(errs), 1e-15)
    value = total ** (1.0 / p)
    bound = (total + err) ** (1.0 / p) - value
    return DiscrepancyResult(p, value, "quadrature", bound + 1e-15, None)


def linf_star(ps: PointSet) -> DiscrepancyResult:
    """Sup of |local discrepancy|, exact.

    On each grid cell the sup is attained in the limit at the lower
    corner (count held, box shrunk) or at the closed upper corner, so a
    sweep over both corner families suffices.  One block of grid rows at a
    time, the scaled corner values count * D^2 - N u v are integers, and
    counts in [0, N] and u, v in [0, D] bound them and both terms by N D^2:
    int64 while N D^2 < 2^63, Python ints past it.
    """
    N, D = _planar(ps)
    gx, gy = _grids(ps)
    dtype = np.int64 if N * D * D < 1 << 63 else object
    nu, v = N * gx.astype(dtype), gy.astype(dtype)
    best_num = 0
    for i0, C in _count_blocks(ps, gx, gy):
        scaled = C.astype(dtype) * (D * D)
        # lower corners (gx[i], gy[j]), then upper corners (gx[i+1], gy[j+1])
        for corner in (nu[i0 : i0 + len(C), None] * v[:-1], nu[i0 + 1 : i0 + 1 + len(C), None] * v[1:]):
            np.subtract(scaled, corner, out=corner)
            best_num = max(best_num, int(np.abs(corner, out=corner).max()))
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
    if not p >= 1:  # NaN included
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
