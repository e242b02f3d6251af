"""Exact and quadrature discrepancy computations for planar point sets.

The brute-force oracles here integrate the local discrepancy cell by cell
in exact rational arithmetic, independently of the production formulas.
"""

import math
import random
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badicnet import (
    PointSet2,
    hammersley_point_set,
    l2_star,
    linf_star,
    lp_star,
    sym_hammersley_points,
    to_point_set,
    truncated_sym_hammersley,
    truncation_bound,
)
from badicnet import discrepancy
from badicnet.discrepancy import _lp_even_exact, _lp_quadrature
from oracles import local_discrepancy, numpy_spy


def _grid(vals):
    return sorted(set(vals) | {Fraction(0), Fraction(1)})


def brute_l2sq(ps: PointSet2) -> Fraction:
    pts = ps.fractions()
    N = len(pts)
    xs = _grid(x for x, _ in pts)
    ys = _grid(y for _, y in pts)
    total = Fraction(0)
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            a, b = xs[i], xs[i + 1]
            c, d = ys[j], ys[j + 1]
            cnt = sum(1 for x, y in pts if x <= a and y <= c)
            vol = (b - a) * (d - c)
            lin = Fraction(b * b - a * a, 2) * Fraction(d * d - c * c, 2)
            quad = Fraction(b**3 - a**3, 3) * Fraction(d**3 - c**3, 3)
            total += Fraction(cnt * cnt, N * N) * vol - 2 * Fraction(cnt, N) * lin + quad
    return total


def brute_linf(ps: PointSet2) -> Fraction:
    pts = ps.fractions()
    N = len(pts)
    xs = _grid(x for x, _ in pts)
    ys = _grid(y for _, y in pts)
    best = Fraction(0)
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            a, b = xs[i], xs[i + 1]
            c, d = ys[j], ys[j + 1]
            cnt = Fraction(sum(1 for x, y in pts if x <= a and y <= c), N)
            best = max(best, abs(cnt - a * c), abs(cnt - b * d))
    return best


def _random_sets(count, max_points, max_den, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_points + 1))
        den = int(rng.integers(2, max_den + 1))
        pairs = [
            (Fraction(int(rng.integers(0, den + 1)), den), Fraction(int(rng.integers(0, den + 1)), den))
            for _ in range(n)
        ]
        out.append(PointSet2.from_fractions(pairs))
    return out


def test_local_discrepancy_counts_strict_boxes():
    ps = PointSet2.from_fractions([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))])
    assert local_discrepancy(ps, (Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 2) - Fraction(1, 6)
    # both points sit strictly inside the 3/4 box
    assert local_discrepancy(ps, (Fraction(3, 4), Fraction(3, 4))) == 1 - Fraction(9, 16)
    # the boundary is excluded: t1 = 1/2 does not capture the center point
    assert local_discrepancy(ps, (Fraction(1, 2), Fraction(1))) == 0
    assert local_discrepancy(ps, (Fraction(0), Fraction(1))) == 0


def test_l2_single_point_at_origin():
    ps = PointSet2.from_fractions([(Fraction(0), Fraction(0))])
    res = l2_star(ps)
    assert res.method == "warnock"
    assert res.exact == Fraction(11, 18)
    assert math.isclose(res.value, math.sqrt(11 / 18), rel_tol=1e-15)


def test_l2_single_point_at_center():
    ps = PointSet2.from_fractions([(Fraction(1, 2), Fraction(1, 2))])
    assert l2_star(ps).exact == Fraction(23, 288)


def test_l2_matches_brute_force_cells():
    for ps in _random_sets(12, 7, 9, seed=5):
        assert l2_star(ps).exact == brute_l2sq(ps)


def test_l2_object_path_for_wide_denominators():
    big = 1 << 45
    ps = PointSet2.from_fractions(
        [(Fraction(1, big), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 3))]
    )
    assert ps.den >= big
    assert l2_star(ps).exact == brute_l2sq(ps)


def test_lp_even_matches_l2():
    for ps in _random_sets(6, 6, 8, seed=11):
        a = l2_star(ps).exact
        b = lp_star(ps, 2).exact
        assert a == b


def test_lp_p4_exact_vs_quadrature():
    # same integral through the rational path and the numeric path
    from badicnet.discrepancy import _lp_quadrature

    ps = hammersley_point_set(2, 2)
    exact = lp_star(ps, 4)
    assert exact.method == "piecewise_exact"
    assert lp_star(ps, 4.0).method == "piecewise_exact"  # dispatch is by value
    quad = _lp_quadrature(ps, 4.0)
    assert abs(exact.value - quad.value) < 1e-9


def test_lp_even_root_past_the_normal_floats():
    # L_p^p below the smallest normal float: float(exact) is 0.0 or
    # subnormal, so the root comes from the exact ratio in log space; the
    # reference is that root in 50-digit decimal arithmetic
    sym = sym_hammersley_points(2, 6)
    roots = []
    for ps, p in [(sym, 200), (hammersley_point_set(2, 2), 1040)]:
        res = lp_star(ps, p)
        assert float(res.exact) < sys.float_info.min
        with localcontext() as ctx:
            ctx.prec = 50
            want = float(((Decimal(res.exact.numerator).ln() - Decimal(res.exact.denominator).ln()) / p).exp())
        assert abs(res.value - want) <= 1e-14 * want
        assert lp_star(ps, 4).value <= res.value <= linf_star(ps).value
        roots.append(res.value)
    assert abs(roots[0] - 0.02060086285201239) <= 1e-14 * 0.02060086285201239
    # in the normal range the root stays float(exact) ** (1 / p), bit for bit
    res = lp_star(sym, 150)
    assert float(res.exact) >= sys.float_info.min
    assert res.value == float(res.exact) ** (1.0 / 150) <= roots[0]


def test_lp_odd_single_point_oracles():
    ps = PointSet2.from_fractions([(Fraction(0), Fraction(0))])
    r1 = lp_star(ps, 1)
    assert abs(r1.value - 0.75) < 1e-9
    r3 = lp_star(ps, 3)
    assert abs(r3.value - (Fraction(25, 48) ** Fraction(1, 1)) ** (1 / 3)) < 1e-9


def test_lp_rejects_small_p():
    ps = PointSet2.from_fractions([(Fraction(1, 2), Fraction(1, 2))])
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_star(ps, 0.5)


def test_lp_rejects_nan_p():
    ps = PointSet2.from_fractions([(Fraction(1, 2), Fraction(1, 2))])
    with pytest.raises(ValueError, match=r"p must be >= 1 \(or inf\)"):
        lp_star(ps, float("nan"))
    with pytest.raises(ValueError, match=r"p must be >= 1 \(or inf\)"):
        truncation_bound(2, 3, 5, float("nan"))


def test_lp_inf_routes_to_sup():
    ps = PointSet2.from_fractions([(Fraction(1, 2), Fraction(1, 2))])
    res = lp_star(ps, math.inf)
    assert res.method == "corner_sweep"
    assert res.exact == Fraction(3, 4)


def test_linf_oracles():
    ps = PointSet2.from_fractions([(Fraction(1, 2), Fraction(1, 2))])
    assert linf_star(ps).exact == Fraction(3, 4)
    origin = PointSet2.from_fractions([(Fraction(0), Fraction(0))])
    assert linf_star(origin).exact == 1


def test_linf_matches_brute_force():
    for ps in _random_sets(12, 7, 9, seed=23):
        assert linf_star(ps).exact == brute_linf(ps)
    ham = hammersley_point_set(2, 3)
    assert linf_star(ham).exact == brute_linf(ham)
    sym = sym_hammersley_points(2, 2)
    assert linf_star(sym).exact == brute_linf(sym)
    # N D^2 = 2^63 exactly: the first set whose row sweep runs in Python
    # ints; one digit less (N D^2 = 2^61) it runs in int64
    for n, python_ints in ((28, False), (29, True)):
        trunc = to_point_set(truncated_sym_hammersley(2, 3, n))
        assert trunc.nums.dtype == np.int64 and trunc.n_points * trunc.den**2 == 1 << (2 * n + 5)
        with numpy_spy(discrepancy) as spy:
            assert linf_star(trunc).exact == brute_linf(trunc)
        assert bool(spy.object_calls) == python_ints
    # numerators over den >= 2^45, given as Python ints, more than two points
    big = (1 << 45) + 7
    wide = PointSet2.from_fractions(
        [(Fraction(k * 7919 % big, big), Fraction((k * k * 104729 + 1) % big, big)) for k in range(9)]
        + [(Fraction(1), Fraction(1, 3)), (Fraction(0), Fraction(1))]
    )
    assert wide.den >= 1 << 45
    assert linf_star(wide).exact == brute_linf(wide)


def test_linf_object_path_for_wide_denominators():
    big = (1 << 31) + 1
    ps = PointSet2.from_fractions(
        [(Fraction(1, big), Fraction(1, 2)), (Fraction(3, 4), Fraction(2, 3))]
    )
    assert linf_star(ps).exact == brute_linf(ps)


def test_symmetrized_l2_is_smaller_than_plain():
    for m in (3, 4, 5):
        plain = l2_star(hammersley_point_set(2, m)).value
        sym = l2_star(sym_hammersley_points(2, m)).value
        assert sym < plain


# (N L_2)^2 = A m + B + C b^-m + D b^-2m for sym_hammersley_points(b, m),
# N = b^(m+2): the coefficients (A, B, C, D) solved exactly from m = 1..4
SYM_L2_COEFFS = {
    2: (Fraction(1, 6), Fraction(1, 2), Fraction(1), Fraction(-2, 9)),
    3: (Fraction(2, 3), Fraction(5, 12), Fraction(2), Fraction(-9, 32)),
    5: (Fraction(62, 15), Fraction(-49, 30), Fraction(13, 2), Fraction(-625, 1152)),
    7: (Fraction(44, 3), Fraction(-1087, 108), Fraction(140, 9), Fraction(-2401, 2592)),
}


@pytest.mark.parametrize("b, top", [(2, 13), (3, 9), (5, 5), (7, 4)])
def test_symmetrized_l2_closed_form(b, top):
    # a measured identity, not a proved one: it holds exactly at every m
    # computed, so it checks l2_star at N up to 2^15, 3^11, 5^7 and 7^6;
    # N L_2 = sqrt(A log_b N + O(1)) is the paper's sqrt(log N) order
    A, B, C, D = SYM_L2_COEFFS[b]
    assert A == Fraction((b * b - 1) * (b * b + 6), 180)
    assert D == Fraction(-(b**4), 72 * (b - 1) ** 2)
    for m in range(1, top + 1):
        ps = sym_hammersley_points(b, m)
        assert ps.n_points == b ** (m + 2)
        want = A * m + B + C / Fraction(b) ** m + D / Fraction(b) ** (2 * m)
        assert l2_star(ps).exact * ps.n_points**2 == want, (b, m)


def test_truncation_bound_values():
    assert truncation_bound(2, 3, 8, 2) == 2.0**-7
    assert truncation_bound(2, 3, 8, math.inf) == 2.0**-3
    assert truncation_bound(3, 2, 6, 1) == 3.0 ** -(2 + 2 * 3)
    # deeper truncation can only tighten the bound
    assert truncation_bound(2, 4, 12, 2) < truncation_bound(2, 4, 8, 2)


def test_truncation_bound_warns_where_p_below_two_fails():
    # 1 <= p < 2 past n = m+2: the allowance falls below the measured gap
    for args in [(2, 3, 8, 1), (3, 2, 6, 1)]:
        with pytest.warns(RuntimeWarning, match="does not bound"):
            value = truncation_bound(*args)
        b, m, n, p = args
        assert value == float(b) ** -(m + 2.0 * (n - m - 1) / p)
    # proven at n = m+2, unbroken for p >= 2: no warning
    for args in [(2, 3, 8, 2), (2, 3, 8, math.inf), (2, 3, 5, 1)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truncation_bound(*args)


# ---------------------------------------------------------------------------
# oracles for the exact kernels: the O(N^2) pair sum for L_2 and the
# per-cell Fraction loop for even p, as the library computed them before
# the dominance sweep and the bilinear forms


def pair_sum_l2sq(ps: PointSet2) -> Fraction:
    """Warnock's formula with the pair sum taken over all N^2 ordered pairs."""
    N, D = ps.n_points, ps.den
    pts = [(int(x), int(y)) for x, y in ps.nums]
    s2 = sum((D * D - a * a) * (D * D - c * c) for a, c in pts)
    s3 = 0
    for ax, ay in pts:
        for cx, cy in pts:
            s3 += (D - max(ax, cx)) * (D - max(ay, cy))
    return Fraction(1, 9) - Fraction(s2, 2 * N * D**4) + Fraction(s3, N * N * D * D)


def cell_loop_lp_even(ps: PointSet2, p: int) -> Fraction:
    """Integral of the p-th power of the local discrepancy, cell by cell."""
    N, D = ps.n_points, ps.den
    gx = sorted({0, D, *(int(x) for x in ps.nums[:, 0])})
    gy = sorted({0, D, *(int(y) for y in ps.nums[:, 1])})
    pts = [(int(x), int(y)) for x, y in ps.nums]
    total = Fraction(0)
    for i in range(len(gx) - 1):
        for j in range(len(gy) - 1):
            cf = Fraction(sum(1 for x, y in pts if x <= gx[i] and y <= gy[j]), N)
            for q in range(p + 1):
                xint = Fraction(gx[i + 1] ** (q + 1) - gx[i] ** (q + 1), (q + 1) * D ** (q + 1))
                yint = Fraction(gy[j + 1] ** (q + 1) - gy[j] ** (q + 1), (q + 1) * D ** (q + 1))
                total += math.comb(p, q) * (-1) ** q * cf ** (p - q) * xint * yint
    return total


@st.composite
def point_sets(draw, max_points=8):
    """Numerators over a drawn denominator, kept as drawn (not reduced).

    Coordinates favour 0, D and a small pool of values, so repeated x and y
    values and points on the faces are common.  Numerators over
    denominators in [2^45, 2^50] are handed over as Python ints, as
    PointSet2.from_fractions gives them.  PointSet2 keeps every numerator
    over a den below 2^63 in int64, and dens from 2^58 on push N D and
    N D^2 past 2^63; from den = 2^63 on the numerators are Python ints.
    """
    den = draw(
        st.one_of(
            st.integers(1, 16),
            st.integers(1 << 45, 1 << 50),
            st.integers(1 << 58, 1 << 62),
            st.integers(1 << 61, (1 << 63) - 1),
            st.integers(1 << 63, 1 << 70),
        )
    )
    pool = draw(st.lists(st.integers(0, den), min_size=1, max_size=3)) + [0, den]
    coord = st.one_of(st.sampled_from(pool), st.integers(0, den))
    nums = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=max_points))
    dtype = object if (1 << 45) <= den < (1 << 58) or den >= 1 << 63 else np.int64
    return PointSet2(np.array(nums, dtype=dtype).reshape(len(nums), 2), den)


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_l2_dominance_sweep_matches_pair_sum(ps):
    res = l2_star(ps)
    assert res.exact == pair_sum_l2sq(ps)
    assert res.value == math.sqrt(res.exact)


@settings(max_examples=60, deadline=None)
@given(point_sets(max_points=6))
def test_l2_dominance_sweep_matches_brute_cells(ps):
    assert l2_star(ps).exact == brute_l2sq(ps)


@settings(max_examples=60, deadline=None)
@given(point_sets(max_points=6))
def test_linf_sweep_matches_brute_force_on_drawn_sets(ps):
    assert linf_star(ps).exact == brute_linf(ps)


@settings(max_examples=60, deadline=None)
@given(point_sets(max_points=6), st.sampled_from([2, 4, 6]))
def test_lp_even_bilinear_matches_cell_loop(ps, p):
    res = lp_star(ps, p)
    assert res.method == "piecewise_exact"
    assert res.exact == cell_loop_lp_even(ps, p)
    assert res.value == float(res.exact) ** (1.0 / p)
    if p == 2:
        assert res.exact == pair_sum_l2sq(ps)


def test_exact_kernels_on_single_points_at_the_corners():
    for x, y in [(0, 0), (0, 5), (5, 0), (5, 5), (2, 5)]:
        ps = PointSet2(np.array([[x, y]], dtype=np.int64), 5)
        assert l2_star(ps).exact == pair_sum_l2sq(ps) == brute_l2sq(ps)
        for p in (2, 4, 6):
            assert lp_star(ps, p).exact == cell_loop_lp_even(ps, p)


def test_exact_kernels_on_object_numerators():
    den = (1 << 45) + 7
    nums = np.array([[1, den], [den // 3, 17], [den // 3, den], [0, 17], [den - 1, 0]], dtype=object)
    ps = PointSet2(nums, den)
    assert l2_star(ps).exact == pair_sum_l2sq(ps) == brute_l2sq(ps)
    for p in (2, 4, 6):
        assert lp_star(ps, p).exact == cell_loop_lp_even(ps, p)


def test_l2_dominance_sweep_on_larger_sets():
    # enough points for many rank bits and long runs of tied coordinates
    rng = np.random.default_rng(7)
    for den in (12, 1000):
        ps = PointSet2(rng.integers(0, den + 1, size=(300, 2)), den)
        assert l2_star(ps).exact == pair_sum_l2sq(ps)
    for ps in (hammersley_point_set(3, 4), sym_hammersley_points(2, 5)):
        assert l2_star(ps).exact == pair_sum_l2sq(ps)
        assert lp_star(ps, 4).exact == cell_loop_lp_even(ps, 4)


@st.composite
def tied_point_sets(draw, max_points=300):
    """Up to max_points points over a denominator drawn on both sides of
    each int64 bound of l2_star: N D^4 < 2^63 (first sum), N^2 D^2 < 2^63
    (pair sum), D < 2^31 (D^2 - x^2), N D < 2^63 (sweep), and D < 2^63
    (numerators).  Coordinates come from a small pool that holds 0 and D
    (ties, points on the upper faces) or at random, some points repeat
    earlier ones, and the numerators are sometimes handed over as Python
    ints."""
    den = draw(
        st.one_of(
            st.integers(1, 64),
            st.integers(1 << 10, 1 << 16),
            st.integers(1 << 20, 1 << 26),
            st.integers(1 << 29, 1 << 33),
            st.integers(1 << 52, (1 << 63) - 1),
            st.integers(1 << 63, 1 << 70),
        ),
        label="den",
    )
    pool = draw(st.lists(st.integers(0, den), min_size=1, max_size=4), label="pool") + [0, den]
    n = draw(st.integers(1, max_points), label="n")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    tie = draw(st.floats(0, 1), label="tie")
    nums = []
    for _ in range(n):
        if nums and rng.random() < 0.1:
            nums.append(rng.choice(nums))
        else:
            nums.append([rng.choice(pool) if rng.random() < tie else rng.randint(0, den) for _ in range(2)])
    dtype = object if den >= 1 << 63 or draw(st.booleans(), label="object") else np.int64
    return PointSet2(np.array(nums, dtype=dtype).reshape(n, 2), den)


@settings(max_examples=60, deadline=None)
@given(tied_point_sets())
def test_l2_int64_sweep_matches_pair_sum_on_tied_sets(ps):
    assert l2_star(ps).exact == pair_sum_l2sq(ps)


class SpiedArray(np.ndarray):
    """Numerators that record every astype target and every object-dtype
    array derived from them."""

    casts: list = []
    objects: list = []

    def astype(self, dtype, *args, **kwargs):
        SpiedArray.casts.append(np.dtype(dtype))
        return super().astype(dtype, *args, **kwargs)

    def __array_finalize__(self, obj):
        if self.dtype == object:
            SpiedArray.objects.append(self.shape)


def _spied_l2(ps):
    SpiedArray.casts, SpiedArray.objects = [], []
    with numpy_spy(discrepancy) as spy:
        res = l2_star(PointSet2(ps.nums.view(SpiedArray), ps.den))
    return res, spy


def test_l2_fast_path_stays_in_int64_with_narrow_keys():
    # pinned without timing: on the study sets no array leaves int64 and
    # every sort is a radix sort on a key of at most 16 bits
    for ps in (sym_hammersley_points(2, 10), hammersley_point_set(3, 6)):
        res, spy = _spied_l2(ps)
        assert res.exact == l2_star(ps).exact
        assert spy.object_calls == [] and SpiedArray.objects == []
        assert np.dtype(object) not in SpiedArray.casts
        assert spy.keys and all(key.kind == "u" and key.itemsize <= 2 for key in spy.keys)
    # past the int64 bound of the dots (D = 2^28 and 2^41, N = 1024) only
    # the three dots move to Python ints, not the work per rank bit
    for n in (28, 41):
        _, spy = _spied_l2(to_point_set(truncated_sym_hammersley(2, 8, n)))
        assert spy.object_calls == ["dot"] * 3
    # the spies see object arrays where there are some
    den = (1 << 45) + 7
    _, spy = _spied_l2(PointSet2(np.array([[1, den], [den // 3, 17]], dtype=object), den))
    assert "dot" in spy.object_calls and SpiedArray.objects


def test_linf_sweep_stays_in_int64_below_2_63():
    # pinned without timing: N D^2 = 2^62 (N = 1024, D = 2^26) sweeps its
    # corners in int64
    ps = to_point_set(truncated_sym_hammersley(2, 8, 26))
    assert ps.n_points * ps.den**2 == 1 << 62
    with numpy_spy(discrepancy) as spy:
        res = linf_star(ps)
    assert spy.object_calls == [] and res.exact == linf_star(ps).exact


def test_l2_sweep_widens_its_key_past_2_16_ranks():
    # 2^17 distinct y values need a 32-bit key; the Hammersley set's L_2
    # is known exactly (Halton & Zaremba, Monatsh. Math. 73 (1969))
    m = 17
    res, spy = _spied_l2(hammersley_point_set(2, m))
    assert np.dtype(np.uint32) in spy.keys
    want = (
        Fraction(m * m, 64)
        + Fraction(29 * m, 192)
        + Fraction(3, 8)
        - Fraction(m, 2 ** (m + 4))
        + Fraction(1, 2 ** (m + 2))
        - Fraction(1, 72 * 4**m)
    )
    assert res.exact * 4**m == want


# ---------------------------------------------------------------------------
# oracle for the batched quadrature: one scipy quad call per piece, as the
# library computed non-even p before the Gauss–Kronrod rule was batched


def per_piece_quad_lp(ps: PointSet2, p: float):
    """(value, error_bound) of L_p by a per-piece loop of scipy quad calls."""
    quad = pytest.importorskip("scipy.integrate").quad
    N, D = ps.n_points, ps.den
    gx = sorted({0, D, *(int(x) for x in ps.nums[:, 0])})
    gy = sorted({0, D, *(int(y) for y in ps.nums[:, 1])})
    pts = [(int(x), int(y)) for x, y in ps.nums]
    gxf = np.array(gx, dtype=float) / D
    gyf = np.array(gy, dtype=float) / D
    v_lo, v_hi = gyf[:-1], gyf[1:]

    def s_pow(w):
        return np.sign(w) * np.abs(w) ** (p + 1.0)

    pieces = []  # (t_lo, t_hi, counts row)
    for i in range(len(gx) - 1):
        t_lo, t_hi = gxf[i], gxf[i + 1]
        if t_hi <= t_lo:
            continue
        A = np.array([sum(1 for x, y in pts if x <= gx[i] and y <= c) for c in gy[:-1]]) / N
        cuts = {t_lo, t_hi}
        for Aj, vj, wj in zip(A, v_lo, v_hi):
            for v in (vj, wj):
                if v > 0 and Aj > 0 and t_lo < Aj / v < t_hi:
                    cuts.add(Aj / v)
        cs = sorted(cuts)
        pieces += [(lo, hi, A) for lo, hi in zip(cs[:-1], cs[1:])]

    eps_each = 1e-10 / len(pieces)
    total = err = 0.0
    for lo, hi, A in pieces:

        def outer(t1, A=A):
            if t1 <= 0:
                return float(np.sum(np.abs(A) ** p * (v_hi - v_lo)))
            return float(((s_pow(A - t1 * v_lo) - s_pow(A - t1 * v_hi)) / (t1 * (p + 1.0))).sum())

        val, e = quad(outer, lo, hi, epsabs=eps_each, epsrel=1e-12, limit=200)
        total += val
        err += e
    err = max(err, 1e-15)
    value = total ** (1.0 / p)
    return value, (total + err) ** (1.0 / p) - value + 1e-15


def _assert_quadrature_matches_oracle(ps, p):
    res = _lp_quadrature(ps, p)
    assert res.method == "quadrature" and res.exact is None and res.p == p
    value, bound = per_piece_quad_lp(ps, p)
    assert abs(res.value - value) <= res.error_bound + bound


@st.composite
def run_point_sets(draw):
    """Sets whose grid rows hold long runs of equal counts.

    A column of points far right draws many horizontal grid lines, while a
    few stacked points low in x, on a small pool of repeated values, keep
    the counts of the left rows constant across many cells.  Small
    denominators make kinks A / v land on grid lines and run ends.
    """
    den = draw(st.integers(2, 16))
    xs = draw(st.lists(st.integers(0, den), min_size=1, max_size=3))
    ys = draw(st.lists(st.integers(0, den), min_size=1, max_size=3))
    low = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), min_size=1, max_size=3))
    right = draw(st.integers(0, den))
    column = [(right, y) for y in draw(st.lists(st.integers(0, den), min_size=3, max_size=10))]
    nums = low * draw(st.integers(1, 3)) + column
    return PointSet2(np.array(nums, dtype=np.int64), den)


@settings(max_examples=120, deadline=None)
@given(st.one_of(point_sets(max_points=6), run_point_sets()), st.sampled_from([1.0, 1.5, 2.5, 3.0]))
def test_batched_quadrature_matches_per_piece_quad(ps, p):
    _assert_quadrature_matches_oracle(ps, p)


def test_batched_quadrature_on_faces_ties_and_wide_denominators():
    sets = [
        PointSet2(np.array([[x, y]], dtype=np.int64), 5)
        for x, y in [(0, 0), (0, 5), (5, 0), (5, 5), (2, 5), (0, 3)]
    ]
    # repeated x and y values, several points on x = 0 (the t1 -> 0 column)
    sets.append(PointSet2(np.array([[0, 2], [0, 2], [0, 9], [4, 2], [4, 9], [9, 0], [9, 9]], dtype=np.int64), 9))
    # object numerators over den >= 2^45, with a column next to 0 of width 1/den
    den = (1 << 45) + 7
    sets.append(PointSet2(np.array([[1, den], [den // 3, 17], [den // 3, den], [0, 17], [den - 1, 0]], dtype=object), den))
    sets.append(hammersley_point_set(3, 2))
    sets.append(sym_hammersley_points(2, 2))
    for ps in sets:
        for p in (1.0, 1.5, 2.5, 3.0):
            _assert_quadrature_matches_oracle(ps, p)


@settings(max_examples=120, deadline=None)
@given(st.one_of(point_sets(max_points=6), run_point_sets()), st.sampled_from([1 << 14, 1]))
def test_run_pieces_tile_their_rows(ps, block):
    # every interval carries one term, a run's pieces tile its row's
    # [t_lo, t_hi) cut exactly at its kinks A / v inside it, and widths
    # times run heights sum to the area of the square, on which the 1e-10
    # allowance of _lp_quadrature is shared out
    gx, gy = discrepancy._grids(ps)
    gxf, gyf = gx.astype(float) / ps.den, gy.astype(float) / ps.den
    areas = []
    with mock.patch.object(discrepancy, "_BLOCK", block):
        for i0, C in discrepancy._count_blocks(ps, gx, gy):
            t_lo, t_hi = gxf[i0 : i0 + len(C)], gxf[i0 + 1 : i0 + 1 + len(C)]
            wide = t_lo < t_hi
            C, t_lo, t_hi = C[wide], t_lo[wide], t_hi[wide]
            (A, v_lo, v_hi), term, a, b, height = discrepancy._row_pieces(C, ps.n_points, t_lo, t_hi, gyf)
            assert term.shape == a.shape == b.shape == height.shape and term.dtype.kind == "i"
            row = np.repeat(np.arange(len(C)), 1 + np.count_nonzero(np.diff(C, axis=1), axis=1))
            assert len(row) == len(A) and np.all(a < b)
            for n in range(len(A)):
                mine = np.flatnonzero(term == n)
                lo, hi = a[mine], b[mine]
                order = np.argsort(lo)
                lo, hi = lo[order], hi[order]
                assert lo[0] == t_lo[row[n]] and hi[-1] == t_hi[row[n]] and np.array_equal(hi[:-1], lo[1:])
                with np.errstate(divide="ignore", invalid="ignore"):
                    kinks = {k for k in (A[n] / v_lo[n], A[n] / v_hi[n]) if t_lo[row[n]] < k < t_hi[row[n]]}
                assert set(hi[:-1]) == kinks
                assert np.all(height[mine] == v_hi[n] - v_lo[n])
            areas += list((b - a) * height)
    assert abs(math.fsum(areas) - 1) <= 1e-12


def test_quadrature_matches_exact_even_p():
    # on the p-th power: |value^p - exact| <= (value + bound)^p - value^p
    sets = (
        _random_sets(8, 7, 9, seed=31)
        + [sym_hammersley_points(2, m) for m in range(1, 9)]
        + [hammersley_point_set(2, m) for m in range(1, 9)]
    )
    for ps in sets:
        for p, exact in ((2, l2_star(ps).exact), (4, _lp_even_exact(ps, 4).exact)):
            res = _lp_quadrature(ps, float(p))
            value = Fraction(res.value)
            assert abs(value**p - exact) <= (value + Fraction(res.error_bound)) ** p - value**p


def test_quadrature_cost_grows_like_the_cell_count(monkeypatch):
    # one term is one interval of one count run of a row, evaluated at 21
    # nodes.  Each run has at most three pieces, so the first round stays
    # within a small multiple of the cell count, and the total
    # grows like G^2 (4x per doubling of G), not like the G^3 (8x) of
    # summing every piece over all G cells of its row
    real_gk21, real_blocks = discrepancy._gk21, discrepancy._count_blocks
    tally = {}

    def count_blocks(*args):
        for block in real_blocks(*args):
            tally["fresh"] = True
            yield block

    def gk21(A, v_lo, v_hi, p, term, a, b):
        tally["total"] += len(term)
        if tally.pop("fresh", False):
            tally["first"] += len(term)
        return real_gk21(A, v_lo, v_hi, p, term, a, b)

    monkeypatch.setattr(discrepancy, "_count_blocks", count_blocks)
    monkeypatch.setattr(discrepancy, "_gk21", gk21)
    for p in (1.0, 1.5):
        totals = []
        for m in (5, 6, 7):
            ps = sym_hammersley_points(2, m)
            gx, gy = discrepancy._grids(ps)
            cells = (len(gx) - 1) * (len(gy) - 1)
            tally.update(first=0, total=0)
            _lp_quadrature(ps, p)
            assert 0 < tally["first"] <= 2 * cells
            totals.append(tally["total"])
        assert all(hi <= 4.5 * lo for lo, hi in zip(totals, totals[1:])), totals


def test_row_blocks_give_the_one_block_results(monkeypatch):
    # blocks of a few rows carry the running column histogram across block
    # edges, and chunks of three intervals split each round; the exact
    # kernels must not move, the quadrature only within its bounds (its
    # pieces and intervals are the same, but the per-block fsums differ,
    # and the BLAS node sums round differently with the chunk width)
    big = (1 << 45) + 7
    sets = _random_sets(6, 9, 9, seed=41) + [
        sym_hammersley_points(2, 4),
        hammersley_point_set(3, 3),
        PointSet2(np.array([[1, big], [big // 3, 17], [big // 3, big], [0, 17], [big - 1, 0]], dtype=object), big),
    ]
    whole = [(linf_star(ps), _lp_even_exact(ps, 4), _lp_quadrature(ps, 1.5)) for ps in sets]
    monkeypatch.setattr(discrepancy, "_BLOCK", 3 * 21)
    for ps, (linf, even, quad) in zip(sets, whole):
        assert linf_star(ps).exact == linf.exact
        assert _lp_even_exact(ps, 4).exact == even.exact
        blocked = _lp_quadrature(ps, 1.5)
        assert abs(blocked.value - quad.value) <= blocked.error_bound + quad.error_bound


def test_interval_limit_keeps_the_estimates(monkeypatch):
    # p = 1.5 splits pieces at their kinks; with one interval per piece the
    # unsplit values are kept and their larger estimates widen the bound
    ps = sym_hammersley_points(2, 3)
    full = _lp_quadrature(ps, 1.5)
    monkeypatch.setattr(discrepancy, "_MAX_INTERVALS", 1)
    capped = _lp_quadrature(ps, 1.5)
    assert capped.error_bound > full.error_bound
    assert abs(capped.value - full.value) <= capped.error_bound + full.error_bound
    value, bound = per_piece_quad_lp(ps, 1.5)
    assert abs(capped.value - value) <= capped.error_bound + bound


def test_gauss_kronrod_table():
    # the 10-point Gauss rule on its nodes, and the 21-point Kronrod rule
    # exact for every monomial up to degree 31
    x, w = np.polynomial.legendre.leggauss(10)
    gauss = discrepancy._GK_GAUSS > 0
    assert np.allclose(discrepancy._GK_NODES[gauss], x, rtol=0, atol=1e-15)
    assert np.allclose(discrepancy._GK_GAUSS[gauss], w, rtol=0, atol=1e-15)
    for k in range(32):
        moment = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(discrepancy._GK_NODES**k @ discrepancy._GK_KRONROD - moment) < 1e-15
