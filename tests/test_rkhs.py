"""Kernel machinery and worst-case integration error, two routes."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badicnet import (
    BandLimitedKernel,
    GElement,
    GVector,
    PointSet2,
    SpectralDiagonalKernel,
    DigitalNet,
    character_sum_over,
    ds_invariant_coeffs,
    dual_contains,
    dual_enumerate_below,
    enumerate_points,
    hammersley_matrices,
    khat,
    ms_wce_spectral,
    qmc_integrate,
    random_digital_shift,
    sym_hammersley_points,
    symmetrize_matrices,
    truncated_sym_hammersley,
    wce_direct,
    wce_spectral,
)
import badicnet
from badicnet.badic import frequency_digits
from badicnet.dual import GuardExceeded, _tuple_count, dual_scan
from badicnet.nets import point_numerators
from badicnet.rkhs import _diag_tail
from badicnet.walsh import character_exponent_table, character_sums
from oracles import (
    band_spectral_by_members,
    csv_text,
    diag_pair_sum,
    digit_negate,
    digital_nets,
    draw_shift,
    g_add_loop,
    g_sub_loop,
    gv_pi,
    kernel_eval,
    no_point_objects,
    pack_digit_arrays,
    per_point_csv,
    project_pi_loop,
    r_loop,
    tuple_to_flat,
    walsh_eval_loop,
    walsh_row,
)


def _sym_net(b, m, n=None):
    return symmetrize_matrices(hammersley_matrices(b, m, n))


def test_digit_negate():
    assert digit_negate(0, 3) == 0
    assert digit_negate(5, 3) == 7  # digits (2,1) -> (1,2)
    assert digit_negate(1, 2) == 1


@pytest.mark.parametrize("b, s, k_digits", [(2, 1, 3), (2, 2, 2), (3, 2, 1), (3, 3, 1), (5, 2, 1), (2, 3, 0)])
def test_flat_negation_negates_each_component(b, s, k_digits):
    # each component fills k_digits digits of the flat index (box = b^k_digits)
    kern = BandLimitedKernel.random(b, s, k_digits, 1, np.random.default_rng(0))
    flat = {kern.frequency(t): t for t in range(kern.size)}
    for t in range(kern.size):
        assert tuple_to_flat(kern.frequency(t), b, k_digits) == t
        neg = tuple(digit_negate(k, b) for k in kern.frequency(t))
        assert digit_negate(t, b) == flat[neg] == tuple_to_flat(neg, b, k_digits)
    # the kernel's digit rows are the frequencies' digits, by flat index
    want = frequency_digits([kern.frequency(t) for t in range(kern.size)], b, s, k_digits)
    assert np.array_equal(kern.digits, want)
    # built once with the kernel, read-only like coeffs
    assert kern.digits is kern.digits and not kern.digits.flags.writeable
    assert np.array_equal(ds_invariant_coeffs(kern).digits, want)


@pytest.mark.parametrize("b, s, k_digits", [(2, 1, 3), (2, 2, 2), (3, 2, 1), (3, 3, 1), (5, 2, 1), (2, 3, 0)])
def test_random_kernel_has_the_negation_symmetry(b, s, k_digits):
    # coeffs[neg t, neg u] = conj(coeffs[t, u]), the flat negation read
    # from the scalar oracle; khat reads the same entries by frequency
    kern = BandLimitedKernel.random(b, s, k_digits, 2, np.random.default_rng(1))
    neg = [tuple_to_flat([digit_negate(k, b) for k in kern.frequency(t)], b, k_digits) for t in range(kern.size)]
    for t in range(kern.size):
        for u in range(kern.size):
            assert kern.coeffs[neg[t], neg[u]] == kern.coeffs[t, u].conjugate()
            assert khat(kern, kern.frequency(t), kern.frequency(u)) == kern.coeffs[t, u]


def test_negative_frequencies_raise():
    diag = SpectralDiagonalKernel(2, 1, 1.0, (1.0,))
    band = BandLimitedKernel.random(2, 2, 1, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="negative"):
        diag.r((-1,))
    with pytest.raises(ValueError, match="negative"):
        diag.r1(-3, 0)
    for kern, k, l in [(diag, (-1,), (0,)), (diag, (-1,), (-1,)), (diag, (0,), (-2,)), (band, (-1, 0), (0, 0)), (band, (0, 0), (0, -1))]:
        with pytest.raises(ValueError, match="nonnegative"):
            khat(kern, k, l)
    with pytest.raises(ValueError, match="dimension"):
        khat(band, (1,), (0, 0))


def test_band_limited_kernel_needs_points_of_its_base():
    band = BandLimitedKernel.random(2, 2, 1, 2, np.random.default_rng(3))
    pts = enumerate_points(hammersley_matrices(3, 1))
    with pytest.raises(ValueError, match="incompatible elements"):
        wce_direct(pts, band)


def test_diagonal_kernel_weights():
    k = SpectralDiagonalKernel(2, 1, 1.0, (1.0,))
    assert k.q == 0.5
    assert k.r1(0, 0) == 1.0
    assert k.r1(1, 0) == 0.25  # top digit at position 1
    assert k.r1(2, 0) == 0.0625
    assert k.r1(3, 0) == 0.0625
    assert k.r((6,)) == 2.0 ** (-2 * 3)


def test_diagonal_kernel_needs_convergent_alpha():
    with pytest.raises(ValueError, match="alpha must exceed 1/2"):
        SpectralDiagonalKernel(2, 1, 0.5, (1.0,))


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, -1.0])
def test_diagonal_kernel_needs_finite_nonnegative_weights(gamma):
    # an infinite weight gave wce_spectral inf with a nan tail bound and
    # wce_direct an "-inf + inf in fsum" error
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        SpectralDiagonalKernel(2, 2, 1.0, (gamma, 1.0))


@pytest.mark.parametrize(
    "base, s, match", [(1, 2, "base must be >= 2"), (0, 2, "base must be >= 2"), (2, 0, "dimension must be >= 1")]
)
def test_diagonal_kernel_needs_a_base_and_a_coordinate(base, s, match):
    # base 1 or 0 reached phi and _diag_tail as a ZeroDivisionError
    with pytest.raises(ValueError, match=match):
        SpectralDiagonalKernel(base, s, 1.0, (1.0,) * s)


def test_phi_closed_form_binary():
    k = SpectralDiagonalKernel(2, 1, 1.0, (1.0,))
    assert k.phi(None) == 0.5
    assert k.phi(1) == -0.25
    assert k.phi(2) == 0.125
    assert k.phi(3) == pytest.approx(0.5 * (0.5 + 0.25) - 0.125 / 2, abs=1e-15)


def test_phi_matches_walsh_series():
    # phi(i0) = sum over k >= 1 of b^(-2 alpha a1(k)) wal_k at a point whose
    # first nonzero digit sits at i0; truncate the series at 14 digit levels
    b, alpha = 2, 1.0
    kern = SpectralDiagonalKernel(b, 1, alpha, (1.0,))
    for i0, x in [(1, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(1, 8))]:
        acc = 0.0
        for k in range(1, 2**14):
            acc += kern.r1(k, 0) * walsh_eval_loop(k, x, b).real
        assert abs(acc - kern.phi(i0)) < 1e-3


def test_diagonal_kernel_eval_uses_difference_position():
    kern = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    x = GVector((GElement(2, (0, 0)), GElement(2, (0, 0))))
    assert kernel_eval(kern, x, x) == pytest.approx((1 + 0.5) ** 2, abs=1e-14)
    y = GVector((GElement(2, (1, 0)), GElement(2, (0, 0))))
    assert kernel_eval(kern, x, y) == pytest.approx((1 - 0.25) * 1.5, abs=1e-14)


def test_band_limited_kernel_is_hermitian_psd_and_real():
    rng = np.random.default_rng(7)
    kern = BandLimitedKernel.random(3, 2, 1, 4, rng)
    A = kern.coeffs
    assert np.allclose(A, A.conj().T)
    assert np.linalg.eigvalsh(A).min() > -1e-10
    # realness: evaluating at digit points gives a real kernel
    pts = enumerate_points(hammersley_matrices(3, 1))
    for x in pts:
        for y in pts:
            assert abs(kernel_eval(kern, x, y).imag) < 1e-10


def test_khat_reads_coefficients():
    rng = np.random.default_rng(3)
    kern = BandLimitedKernel.random(2, 2, 1, 2, rng)
    got = khat(kern, (1, 0), (0, 1))
    # flat index: coordinate 0 is the low digit block
    t1 = 1 + 0 * 2
    t2 = 0 + 1 * 2
    assert got == kern.coeffs[t1, t2]
    assert khat(kern, (5, 0), (0, 0)) == 0  # outside the band
    assert khat(kern, (2**70, 0), (0, 0)) == 0


def test_frequencies_must_be_integers():
    # int() read the frequency 1.5 as 1, and 1.9 too: both gave r((1, 0)) = 0.25
    k = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    with pytest.raises(TypeError):
        khat(k, (1.5, 0), (1.5, 0))
    with pytest.raises(TypeError):
        k.r((1.9, 0))
    assert khat(k, (np.int64(1), 0), (1, 0)) == k.r(np.array([1, 0])) == 0.25


def test_coefficients_reject_a_vector_of_another_length():
    # r((1,)) on a kernel with s = 2 read the vector as (1, 0) and gave 0.25
    k = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    for ks in [(1,), (1, 0, 0)]:
        for entry in (lambda: k.r(ks), lambda: k.r_rows(np.array([ks])), lambda: khat(k, ks, ks)):
            with pytest.raises(ValueError, match="^incompatible elements: dimension mismatch$"):
                entry()


def test_non_kernels_are_a_type_error():
    net = _sym_net(2, 1, 4)
    routes = {
        "khat": lambda k: khat(k, (0, 0), (0, 0)),
        "ds_invariant_coeffs": ds_invariant_coeffs,
        "wce_direct": lambda k: wce_direct(enumerate_points(net), k),
        "wce_spectral": lambda k: wce_spectral(net, k),
    }
    # a look-alike with a kernel's base, dimension and box is no kernel either
    for fake in (object(), SimpleNamespace(base=2, s=2, box=4, k_digits=1, coeffs=np.eye(16))):
        for name, route in routes.items():
            with pytest.raises(TypeError, match="^unknown kernel type$"):
                route(fake)


def test_band_limited_eval_matches_expansion():
    rng = np.random.default_rng(11)
    kern = BandLimitedKernel.random(2, 1, 2, 3, rng)
    singles = [GVector((z.coords[0],)) for z in enumerate_points(hammersley_matrices(2, 2))]
    for x in singles[:3]:
        for y in singles[:3]:
            brute = 0j
            for kk in range(4):
                for ll in range(4):
                    brute += (
                        kern.coeffs[kk, ll]
                        * walsh_eval_loop(kk, project_pi_loop(x.coords[0]), 2)
                        * np.conj(walsh_eval_loop(ll, project_pi_loop(y.coords[0]), 2))
                    )
            assert abs(kernel_eval(kern, x, y) - brute) < 1e-12


def test_direct_error_vanishes_on_full_grid():
    # the full product grid integrates band-limited functions exactly
    from badicnet.nets import DigitalNet

    c1 = np.array([[1, 0], [0, 0]], dtype=np.int64)
    c2 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    grid = DigitalNet(2, (c1, c2))
    pts = enumerate_points(grid)
    assert len(pts) == 4
    rng = np.random.default_rng(5)
    kern = BandLimitedKernel.random(2, 2, 1, 3, rng)
    direct = wce_direct(pts, kern)
    spectral = wce_spectral(grid, kern)
    assert direct.value < 1e-12
    assert spectral.value < 1e-12


def test_direct_equals_spectral_for_band_limited():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = _sym_net(2, 2)
        kern = BandLimitedKernel.random(2, 2, 2, 3, rng)
        d = wce_direct(enumerate_points(net), kern)
        s = wce_spectral(net, kern)
        assert abs(d.value - s.value) < 1e-10
        assert s.tail_bound == 0.0


def test_direct_within_tail_of_spectral_for_diagonal():
    net = _sym_net(2, 2, 8)
    kern = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    d = wce_direct(enumerate_points(net), kern)
    for cap in (4, 6, 8):
        s = wce_spectral(net, kern, cap=cap)
        assert abs(d.value - s.value) <= s.tail_bound + 1e-12
    # deeper caps tighten the tail
    t4 = wce_spectral(net, kern, cap=4).tail_bound
    t8 = wce_spectral(net, kern, cap=8).tail_bound
    assert t8 < t4


def test_diagonal_spectral_is_the_fsum_of_its_hits_in_any_order():
    net = _sym_net(3, 2, 5)
    kern = SpectralDiagonalKernel(3, 2, 0.9, (1.0, 0.7))
    hits = [ks for ks in dual_scan(net, 4, weighted=True).tolist() if any(ks)]
    np.random.default_rng(0).shuffle(hits)
    res = wce_spectral(net, kern, cap=4)
    assert res.terms_used == len(hits) > 0
    assert res.value == math.fsum(r_loop(kern, ks) for ks in hits)


def _faure(b, s, m, n):
    """Faure net: C_j = P^(j-1) mod b, P the upper triangular Pascal
    matrix binom(c, r), with zero rows past m."""
    P = np.array([[math.comb(c, r) % b for c in range(m)] for r in range(m)], dtype=np.int64)
    mats, C = [], np.eye(m, dtype=np.int64)
    for _ in range(s):
        mats.append(np.vstack([C, np.zeros((n - m, m), dtype=np.int64)]))
        C = C @ P % b
    return DigitalNet(b, tuple(mats))


@pytest.mark.parametrize(
    "b, s, m, n, e2",
    [(3, 3, 6, 8, 2.08e-5), (5, 3, 4, 6, 1.09e-5), (5, 4, 3, 5, 4.72e-4)],
    ids=["b3-s3", "b5-s3", "b5-s4"],
)
def test_spectral_within_its_tail_on_faure_nets(b, s, m, n, e2):
    # the dual scan beyond the plane, at the largest cap: the spectral sum
    # lies within its own tail bound of the direct route, with no slack
    net = _faure(b, s, m, n)
    kern = SpectralDiagonalKernel(b, s, 1.0, (1.0,) * s)
    direct = wce_direct(enumerate_points(net), kern)
    spectral = wce_spectral(net, kern, cap=n)
    assert direct.value == pytest.approx(e2, rel=5e-3)
    assert spectral.terms_used > 0
    assert abs(direct.value - spectral.value) <= spectral.tail_bound


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.integers(1, 4), st.data())
def test_table_weights_equal_r_bit_for_bit(b, s, data):
    kern = data.draw(diagonal_kernels(b, s), label="kernel")
    # components past 2^63 are read as Python ints, and the powers at
    # either side of a level boundary land on the right level
    component = st.one_of(st.integers(0, b**8), st.sampled_from([0, 1, b - 1, b, 2**63 - 1]), st.integers(0, 2**90))
    ks = data.draw(st.lists(st.tuples(*[component] * s), min_size=1, max_size=20), label="ks")
    comps = np.array(ks, dtype=np.int64 if max(map(max, ks)) < 1 << 63 else object)
    got = kern.r_rows(comps).tolist()
    assert got == [r_loop(kern, k) for k in ks] == [kern.r(k) for k in ks]  # float ==: the same bits
    assert kern.r_rows(comps[:0]).shape == (0,)


def exact_diag_tail(kernel, cap):
    """The mass above cap as the total less the mass under it, in Fractions
    of the kernel's floats q and gamma_j: exact, whatever cancels."""
    q = Fraction(kernel.q)
    level_mass = [Fraction(1)] + [Fraction(0)] * cap
    total = Fraction(1)
    for g in kernel.gammas:
        c = Fraction(g) * (1 - Fraction(1, kernel.base))
        level_mass = [level_mass[w] + sum(level_mass[w - a] * c * q**a for a in range(1, w + 1)) for w in range(cap + 1)]
        total *= 1 + c * q / (1 - q)
    return total - sum(level_mass)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("base, gammas", [(2, (1.0, 1.0)), (3, (1.0, 0.7)), (5, (0.3,)), (2, (1.0, 0.5, 0.25))])
def test_diag_tail_matches_the_exact_tail(alpha, base, gammas):
    kern = SpectralDiagonalKernel(base, len(gammas), alpha, gammas)
    for cap in range(1, 41 if len(gammas) < 3 else 21):
        exact = exact_diag_tail(kern, cap)
        assert exact > 0
        # every term of the recursion is positive: a few roundings, relative
        assert _diag_tail(kern, cap) == pytest.approx(float(exact), rel=1e-14, abs=0), cap


def test_diag_tail_keeps_its_digits_where_the_difference_lost_them():
    # alpha = 2: total less mass under cap read 2.2e-16 at cap 17 and 0.0 from 18 on
    kern = SpectralDiagonalKernel(2, 2, 2.0, (1.0, 1.0))
    assert _diag_tail(kern, 18) == pytest.approx(4.3899124698188584e-17, rel=1e-14)
    assert _diag_tail(kern, 40) == pytest.approx(float(exact_diag_tail(kern, 40)), rel=1e-14)
    # at alpha = 1 (q = 1/2) every mass is a short dyadic fraction: no rounding at all
    kern = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    assert all(_diag_tail(kern, cap) == float(exact_diag_tail(kern, cap)) for cap in range(1, 41))


def test_band_limited_direct_memory_is_bounded():
    # a complex N x T table of the Walsh values took a 160 MB traced peak
    # here (N = 4096, T = 1024); the character sums count residues in chunks
    net = _sym_net(2, 10)
    kern = BandLimitedKernel.random(2, 2, 5, 2, np.random.default_rng(1))
    pts = enumerate_points(net)
    tracemalloc.start()
    try:
        res = wce_direct(pts, kern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.terms_used == net.n_points * kern.size  # N T exponent entries
    assert abs(res.value - wce_spectral(net, kern).value) < 1e-10
    assert peak < 40 * 2**20


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_band_limited_spectral_reads_the_box_scan_under_its_guard(data):
    # the T box vectors are the scan's candidates: refused at T - 1, and
    # at T the sum of the brute-force dual_members hits, bit for bit
    net = data.draw(digital_nets())
    b, s = net.base, net.s
    k_digits = data.draw(st.integers(0, net.n).filter(lambda k: b ** (k * s) <= 125), label="k_digits")
    kern = BandLimitedKernel.random(b, s, k_digits, 3, np.random.default_rng(data.draw(st.integers(0, 99), label="seed")))
    T = kern.size
    with pytest.raises(GuardExceeded, match=rf"^guard exceeded: {T} candidates over cap {T - 1}$"):
        wce_spectral(net, kern, max_candidates=T - 1)
    got = wce_spectral(net, kern, max_candidates=T)
    assert (got.value, got.terms_used) == band_spectral_by_members(net, kern)


def test_band_limited_direct_rejects_a_base_mismatch():
    kern = BandLimitedKernel.random(2, 2, 1, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="incompatible elements: base mismatch"):
        wce_direct(enumerate_points(_sym_net(3, 1)), kern)


@pytest.mark.parametrize(
    "kern, message",
    [
        (SpectralDiagonalKernel(3, 2, 1.0, (1.0, 1.0)), "base mismatch"),
        (SpectralDiagonalKernel(2, 3, 1.0, (1.0, 1.0, 1.0)), "dimension mismatch"),
        (BandLimitedKernel.random(3, 2, 1, 2, np.random.default_rng(0)), "base mismatch"),
        (BandLimitedKernel.random(2, 3, 1, 2, np.random.default_rng(0)), "dimension mismatch"),
    ],
    ids=["diagonal-base", "diagonal-dimension", "band-base", "band-dimension"],
)
def test_both_routes_reject_a_kernel_of_another_net(kern, message):
    # a kernel of another base or dimension used to give silently wrong
    # values, or a broadcast error in the direct route
    net = _sym_net(2, 3, 5)
    for route in (lambda: wce_direct(enumerate_points(net), kern), lambda: wce_spectral(net, kern), lambda: ms_wce_spectral(net, kern)):
        with pytest.raises(ValueError, match=f"^incompatible elements: {message}$"):
            route()


def test_spectral_validates_inputs():
    net = _sym_net(2, 1, 4)
    kern = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    with pytest.raises(ValueError, match="cap must lie"):
        wce_spectral(net, kern, cap=9)
    wide = BandLimitedKernel.random(2, 2, 5, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="digits exceed matrix rows"):
        wce_spectral(net, wide)


def test_shift_average_equals_diagonalized_spectral():
    # averaging the direct error over digital shifts lands on the invariant
    # coefficients; check against the dual sum of the diagonal
    net = _sym_net(2, 1, 3)
    rng = np.random.default_rng(17)
    kern = BandLimitedKernel.random(2, 2, 1, 3, rng)
    ms = ms_wce_spectral(net, kern)
    members = [k for k in dual_enumerate_below(net, 1).tolist() if k != [0, 0]]
    expected = sum(khat(kern, k, k).real for k in members)
    assert ms.value == pytest.approx(max(expected, 0.0), abs=1e-12)
    diag = ds_invariant_coeffs(kern)
    assert wce_spectral(net, diag).value == pytest.approx(ms.value, abs=1e-14)


def test_shift_preserves_differences_and_errors():
    net = _sym_net(2, 2)
    pts = enumerate_points(net)
    shifted = random_digital_shift(pts, 42)
    assert len(shifted) == len(pts)
    for i in (0, 3, 7):
        for j in (1, 5):
            assert g_sub_loop(pts[i].coords[0], pts[j].coords[0]) == g_sub_loop(
                shifted[i].coords[0], shifted[j].coords[0]
            )
    # a digit-difference kernel cannot see the shift
    kern = SpectralDiagonalKernel(2, 2, 1.0, (0.7, 1.3))
    assert wce_direct(shifted, kern).value == pytest.approx(
        wce_direct(pts, kern).value, abs=1e-12
    )


def test_mean_direct_over_shifts_approaches_invariant_value():
    net = _sym_net(2, 1, 3)
    pts = enumerate_points(net)
    kern = BandLimitedKernel.random(2, 2, 1, 2, np.random.default_rng(2))
    ms = ms_wce_spectral(net, kern)
    vals = [wce_direct(random_digital_shift(pts, seed), kern).value for seed in range(64)]
    mean = sum(vals) / len(vals)
    stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - ms.value) <= 4 * stderr + 1e-12


def test_qmc_integrate_known_products():
    net = hammersley_matrices(2, 6)
    pts = enumerate_points(net)
    res = qmc_integrate(pts, "prod-quadratic", c=0.0)
    assert res.exact == pytest.approx(1 / 9, abs=1e-15)
    assert res.n_points == 64
    assert res.abs_error < 0.02
    rese = qmc_integrate(pts, "prod-exp")
    assert rese.exact == pytest.approx((math.e - 1) ** 2, abs=1e-12)
    assert rese.abs_error < 0.05


def test_qmc_walsh_integrand_sees_the_dual():
    net = hammersley_matrices(2, 2)
    pts = enumerate_points(net)
    hit = qmc_integrate(pts, "walsh", k=(1, 2), base=2)
    assert hit.value == pytest.approx(1.0, abs=1e-12)
    assert hit.exact == 0.0
    miss = qmc_integrate(pts, "walsh", k=(1, 1), base=2)
    assert miss.value == pytest.approx(0.0, abs=1e-12)


def test_wce_result_report_shape():
    net = _sym_net(2, 1, 4)
    kern = SpectralDiagonalKernel(2, 2, 1.5, (1.0, 1.0))
    res = wce_spectral(net, kern)
    doc = res.to_json_dict()
    assert set(doc) >= {"method", "value", "tail_bound", "terms_used"}


# ---------------------------------------------------------------------------
# fast routes against their per-pair and per-candidate oracles


def weighted_box(base, s, cap):
    """All frequency tuples whose top-digit positions sum to at most cap,
    in lexicographic order."""

    def rec(j, budget, prefix):
        if j == s:
            yield prefix
            return
        yield from rec(j + 1, budget, prefix + (0,))
        for a in range(1, budget + 1):
            for k in range(base ** (a - 1), base**a):
                yield from rec(j + 1, budget - a, prefix + (k,))

    yield from rec(0, cap, ())


def spectral_by_candidates(net, kernel, cap=None):
    """wce_spectral's (value, terms_used), one dual_contains call per candidate."""
    if isinstance(kernel, BandLimitedKernel):
        members = [t for t in range(kernel.size) if t != 0 and dual_contains(net, kernel.frequency(t))]
        idx = np.array(members, dtype=np.intp)
        val = complex(kernel.coeffs[np.ix_(idx, idx)].sum()) if members else 0j
        return (0.0 if val.real < 0 else val.real), len(members) ** 2
    cap = net.n if cap is None else cap
    parts = [
        r_loop(kernel, ks)
        for ks in weighted_box(kernel.base, net.s, cap)
        if any(ks) and dual_contains(net, ks)
    ]
    return math.fsum(parts), len(parts)


def diagonal_kernels(b, s):
    return st.builds(
        SpectralDiagonalKernel,
        st.just(b),
        st.just(s),
        st.floats(0.75, 2.0),
        st.tuples(*[st.floats(0.0, 1.0)] * s),
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_direct_group_identity_matches_pair_sum(data):
    net = data.draw(digital_nets())
    kern = data.draw(diagonal_kernels(net.base, net.s))
    pts = enumerate_points(net)
    N = len(pts)
    with no_point_objects():  # the group route builds no point objects
        fast = wce_direct(pts, kern)
    assert fast.terms_used == N
    e2 = -1.0 + diag_pair_sum(list(pts), kern) / (N * N)
    # both sums hold terms up to K(0, 0); scale the tolerance by it
    scale = math.prod(1.0 + g * kern.phi(None) for g in kern.gammas)
    assert fast.value == pytest.approx(max(e2, 0.0), abs=1e-12 * scale)


def test_direct_group_identity_memory_is_bounded():
    # the whole (N, s, n) digit array and its float64 product took a 34 MB
    # traced peak here; blocks of rows hold a few hundred kB
    net = symmetrize_matrices(hammersley_matrices(2, 14, 16))  # N = 65536
    kern = SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0))
    tracemalloc.start()
    try:
        res = wce_direct(enumerate_points(net), kern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.terms_used == net.n_points and res.value > 0
    assert peak < 4 * 2**20


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_spectral_matches_candidate_scan(data):
    net = data.draw(digital_nets())
    b, s, n = net.base, net.s, net.n
    if data.draw(st.booleans(), label="band-limited"):
        k_digits = data.draw(st.integers(1, n).filter(lambda k: b ** (k * s) <= 125), label="k_digits")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        kern = BandLimitedKernel.random(b, s, k_digits, 3, np.random.default_rng(seed))
        cap = None
    else:
        kern = data.draw(diagonal_kernels(b, s))
        cap = data.draw(st.integers(1, n), label="cap")
        while cap > 1 and _tuple_count(level_sizes(b, cap), s, cap) > 3000:
            cap -= 1
        # hits come in the candidate generator's order, so the sum repeats bit for bit
        in_order = [ks for ks in weighted_box(b, s, cap) if dual_contains(net, ks)]
        assert list(map(tuple, dual_scan(net, cap, weighted=True).tolist())) == in_order
    got = wce_spectral(net, kern, cap=cap)
    value, terms = spectral_by_candidates(net, kern, cap)
    assert got.value == value
    assert got.terms_used == terms


@pytest.mark.parametrize("b, n, m, cap", [(2, 8, 68, 8), (3, 4, 43, 4)])
def test_spectral_on_object_keys_matches_candidate_scan(b, n, m, cap):
    # the symmetrized net has b^(m+2) > 2^62, so the dual join keys rows
    # by Python ints; inner rows share a rank-2 row space so the dual is
    # not just the origin
    rng = np.random.default_rng(4)
    basis = rng.integers(0, b, size=(2, m))
    net = symmetrize_matrices(DigitalNet(b, tuple(rng.integers(0, b, size=(n, 2)) @ basis % b for _ in range(2))))
    assert b**net.m > 1 << 62
    kern = SpectralDiagonalKernel(b, 2, 1.3, (0.7, 0.4))
    got = wce_spectral(net, kern, cap=cap)
    assert got.terms_used > 0
    assert (got.value, got.terms_used) == spectral_by_candidates(net, kern, cap)


def level_sizes(base, cap):
    """Frequencies per digit level 0..cap: the origin, then (b-1) b^(a-1)."""
    return [1] + [(base - 1) * base ** (a - 1) for a in range(1, cap + 1)]


def test_weighted_box_count_matches_generator():
    for b, s, cap in [(2, 1, 5), (2, 3, 4), (3, 2, 3), (5, 3, 2)]:
        assert len(list(weighted_box(b, s, cap))) == _tuple_count(level_sizes(b, cap), s, cap)
    # a box weighs nothing: all (b^k)^s tuples, whatever the cap
    for b, s, k in [(2, 1, 5), (2, 3, 4), (3, 2, 3), (5, 4, 2)]:
        assert _tuple_count([b**k], s, 0) == _tuple_count([b**k], s, 3) == (b**k) ** s


# ---------------------------------------------------------------------------
# digital shifts and QMC on digit arrays against the digit-vector objects


def shift_by_objects(points, sigma):
    """The shifted point list, one g_add_loop per coordinate of every point."""
    return [GVector(tuple(g_add_loop(zj, sj) for zj, sj in zip(z.coords, sigma.coords))) for z in points]


def fraction_rows(points):
    """Exact coordinates as Fraction rows: PointSet2 pairs or project_pi_loop per coordinate."""
    if isinstance(points, PointSet2):
        return [tuple(pair) for pair in points.fractions()]
    return [gv_pi(z) for z in points]


def qmc_by_fraction_rows(points, integrand, **params):
    """qmc_integrate's (value, exact) by Fraction arithmetic on each row."""
    rows = fraction_rows(points)
    s = len(rows[0])
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
    else:
        vals = []
        for row in rows:
            v = complex(1.0)
            for kj, x in zip(params["k"], row):
                v *= walsh_eval_loop(kj, x, params["base"])
            vals.append(v)
        exact = complex(1.0) if not any(params["k"]) else complex(0.0)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals)) / len(rows), exact


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shifted_net_points_match_the_object_path(data):
    net = data.draw(digital_nets())
    b, s, n = net.base, net.s, net.n
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    pts = enumerate_points(net)
    shifted = random_digital_shift(pts, seed)
    oracle = shift_by_objects(list(pts), draw_shift(b, s, n, np.random.default_rng(seed)))
    N = len(oracle)
    # the digit arrays every route reads are those of the object oracle
    for got, want in zip(shifted.digit_arrays(), pack_digit_arrays(oracle)):
        assert np.array_equal(got, want)
    # QMC: bit for bit, every integrand, without building point objects
    c = data.draw(st.one_of(st.floats(-2, 2), st.fractions(-2, 2, max_denominator=60)).filter(bool), label="c")
    k = data.draw(st.tuples(*[st.integers(0, b ** (n + 1) - 1)] * s), label="k")
    for integrand, params in (("prod-quadratic", {"c": c}), ("prod-exp", {}), ("walsh", {"k": k, "base": b})):
        with no_point_objects():
            got = qmc_integrate(shifted, integrand, **params)
        value, exact = qmc_by_fraction_rows(oracle, integrand, **params)
        assert (got.value, got.exact, got.n_points) == (value, exact, N)
    # diagonal kernels: the group identity on the coset, against the pair sum
    kern = data.draw(diagonal_kernels(b, s))
    with no_point_objects():
        fast = wce_direct(shifted, kern)
    assert fast.terms_used == N
    e2 = -1.0 + diag_pair_sum(oracle, kern) / (N * N)
    scale = math.prod(1.0 + g * kern.phi(None) for g in kern.gammas)
    assert fast.value == pytest.approx(max(e2, 0.0), abs=1e-12 * scale)
    # band-limited kernels see the shift through the exponent table; the
    # oracle forms K(x, y) for every ordered pair from character_vec
    k_digits = data.draw(st.integers(1, n).filter(lambda kd: b ** (kd * s) <= 125), label="k_digits")
    band = BandLimitedKernel.random(b, s, k_digits, 3, np.random.default_rng(seed))
    with no_point_objects():
        got = wce_direct(shifted, band)
    W = np.array([walsh_row(band, z) for z in oracle])
    pairs = W @ band.coeffs @ W.conj().T
    e2 = band.coeffs[0, 0] - 2 * (W @ band.coeffs[:, 0]).sum().real / N + pairs.sum() / (N * N)
    assert got.terms_used == N * band.size  # N T exponent entries
    assert got.value == pytest.approx(max(e2.real, 0.0), abs=1e-10)
    # the points themselves and their CSV
    assert csv_text(shifted) == per_point_csv(oracle)
    assert list(shifted) == oracle
    # two shifts are one shift by their sum
    seed2 = data.draw(st.integers(0, 2**32 - 1), label="seed2")
    twice = random_digital_shift(shifted, seed2)
    assert list(twice) == shift_by_objects(oracle, draw_shift(b, s, n, np.random.default_rng(seed2)))


def test_shifts_compose_exactly_past_int64():
    # two shifts by seed 0 add each digit to itself: past int64 at this base
    b = 2**63 - 25
    net = DigitalNet(b, (np.array([[1], [0]]),))
    once = random_digital_shift(enumerate_points(net), 0)
    twice = random_digital_shift(once, 0)
    drawn = np.random.default_rng(0).integers(0, b, size=(1, 2)).tolist()
    assert once.shift.tolist() == drawn
    assert twice.shift.tolist() == [[2 * d % b for d in row] for row in drawn]
    assert [z.digits for z in twice[0].coords] == [tuple(2 * d % b for d in row) for row in drawn]


def test_digital_shift_needs_net_points():
    pts = enumerate_points(_sym_net(2, 1))
    with pytest.raises(TypeError, match="enumerate_points"):
        random_digital_shift(list(pts), 0)
    with pytest.raises(TypeError, match="enumerate_points"):
        random_digital_shift([], 0)


@pytest.mark.parametrize(
    "entry, call",
    [
        ("wce_direct", lambda p: wce_direct(p, SpectralDiagonalKernel(2, 2, 1.0, (1.0, 1.0)))),
        ("wce_direct", lambda p: wce_direct(p, BandLimitedKernel.random(2, 2, 1, 2, np.random.default_rng(0)))),
        ("character_sums", lambda p: character_sums(p, [(1, 0)])),
        ("character_sums", lambda p: character_sum_over(p, (1, 0))),
        ("character_exponent_table", lambda p: character_exponent_table(p, [(1, 0)])),
        ("point_numerators", point_numerators),
        ("points_to_csv", csv_text),
        ("qmc_integrate", lambda p: qmc_integrate(p, "prod-exp")),
    ],
)
def test_point_entries_need_net_points(entry, call):
    # a list or iterator of the same points, an empty list or bare digit
    # arrays: every point input but NetPoints is refused by name
    pts = enumerate_points(_sym_net(2, 1))
    for other in (list(pts), iter(pts), [], pts.digit_arrays()):
        with pytest.raises(TypeError, match=f"^{entry} needs the net points of enumerate_points"):
            call(other)


def test_qmc_on_point_sets_matches_the_symmetrized_net():
    for b, m in ((2, 3), (3, 2), (5, 1)):
        ps = sym_hammersley_points(b, m)
        pts = enumerate_points(symmetrize_matrices(hammersley_matrices(b, m)))
        for integrand, params in (
            ("prod-quadratic", {"c": Fraction(1, 5)}),
            ("prod-exp", {}),
            ("walsh", {"k": (1, b), "base": b}),
        ):
            with no_point_objects():
                got = qmc_integrate(ps, integrand, **params)
            assert (got.value, got.exact) == qmc_by_fraction_rows(ps, integrand, **params)
            assert got == qmc_integrate(pts, integrand, **params)
    with pytest.raises(ValueError, match="empty point set"):
        qmc_integrate(PointSet2(np.zeros((0, 2), dtype=np.int64), 1), "prod-exp")
    for k in [(), (1,), (1, 0, 1)]:
        with pytest.raises(ValueError, match="^incompatible elements: dimension mismatch$"):
            qmc_integrate(sym_hammersley_points(2, 2), "walsh", k=k, base=2)
    # 1/7 has no eventually constant binary expansion
    with pytest.raises(ValueError, match="unsupported expansion"):
        qmc_integrate(PointSet2.from_fractions([(Fraction(1, 2), Fraction(1, 7))]), "walsh", k=(1, 1), base=2)



def test_qmc_walsh_at_a_huge_base_builds_no_root_per_residue():
    # the walsh integrand built the roots of all b residues: one point at
    # b = 2^64 + 13 passed 4 GB of memory.  A child process under a 1 GB
    # address-space limit fails on that, rather than taking the machine's memory.
    b = 2**64 + 13
    x = (project_pi_loop(GElement(b, (5, b - 1), 2)), project_pi_loop(GElement(b, (b - 2, 0), 0)))
    k = (b + 3, 1)
    script = "\n".join([
        "import resource",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "from fractions import Fraction",
        "from badicnet import PointSet2, qmc_integrate",
        f"ps = PointSet2.from_fractions([tuple(map(Fraction, {[str(v) for v in x]!r}))])",
        f"print(repr(qmc_integrate(ps, 'walsh', k={k!r}, base={b}).value))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(badicnet.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 0, run.stderr[-2000:]
    want = walsh_eval_loop(k[0], x[0], b) * walsh_eval_loop(k[1], x[1], b)
    assert abs(complex(run.stdout) - want) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, Fraction(1, 7), 2]), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_quadratic_rows_as_one_product_match_the_fraction_rows(c, s, sym, seed):
    # base 3: the scale b^n (b - 1) is not a power of two, so every row's
    # ratio rounds; the one object product keeps each ratio exact
    rng = np.random.default_rng(seed)
    m = 1 if sym else 3
    net = DigitalNet(3, tuple(rng.integers(0, 3, size=(m + 1, m)) for _ in range(s)))
    pts = enumerate_points(symmetrize_matrices(net) if sym else net)
    for points in (pts, random_digital_shift(pts, rng)):
        got = qmc_integrate(points, "prod-quadratic", c=c)
        value, exact = qmc_by_fraction_rows(list(points), "prod-quadratic", c=c)
        assert (got.value.real, got.value.imag, got.exact) == (value.real, value.imag, exact)


def band_limited_by_character_sums(points, kernel):
    """wce_direct of a band-limited kernel as it was: the T frequencies as
    tuples from kernel.frequency, u_k the value of each CharacterSum."""
    N = len(points)
    u = np.array([cs.value for cs in character_sums(points, [kernel.frequency(t) for t in range(kernel.size)])])
    term2 = (complex(kernel.coeffs[:, 0] @ u) + complex(kernel.coeffs[0, :] @ u.conj())) / N
    e2 = complex(kernel.coeffs[0, 0]) - term2 + complex(u @ kernel.coeffs @ u.conj()) / (N * N)
    return max(e2.real, 0.0)


@settings(max_examples=40, deadline=None)
@given(digital_nets(max_points=81), st.data())
def test_band_limited_frequencies_from_one_digit_pass(net, data):
    b, s = net.base, net.s
    k_digits = data.draw(st.integers(0, net.n + 1).filter(lambda kd: b ** (kd * s) <= 243), label="k_digits")
    kern = BandLimitedKernel.random(b, s, k_digits, 2, np.random.default_rng(data.draw(st.integers(0, 99))))
    pts = enumerate_points(net)
    for points in (pts, random_digital_shift(pts, 3)):
        assert wce_direct(points, kern).value == band_limited_by_character_sums(points, kern)
