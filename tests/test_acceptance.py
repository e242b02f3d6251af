"""Acceptance suite: one test per end-to-end target property.

Each test prints "ACCEPTANCE <id> <title>: PASS" when its checks and the
stated time budget both hold, so running with -v (or -s) gives a single
verdict line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from badicnet import (
    BandLimitedKernel,
    PointSet,
    SpectralDiagonalKernel,
    certify_rho2_via_independence,
    character_sum_over,
    dual_contains,
    dual_enumerate_below,
    enumerate_points,
    hammersley_matrices,
    hammersley_point_set,
    in_E,
    l2_star,
    lp_star,
    ms_wce_spectral,
    random_digital_shift,
    rho2_min_weight,
    sym_hammersley_points,
    symmetrize_matrices,
    to_point_set,
    truncated_sym_hammersley,
    truncation_bound,
    wce_direct,
    wce_spectral,
)
from badicnet.badic import GElement
from badicnet.walsh import character


class _Budget:
    def __init__(self, ident, title, seconds):
        self.ident, self.title, self.seconds = ident, title, seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None and elapsed <= self.seconds:
            print(f"ACCEPTANCE {self.ident} {self.title}: PASS ({elapsed:.1f}s)")
            return False
        print(f"ACCEPTANCE {self.ident} {self.title}: FAIL ({elapsed:.1f}s)")
        if exc_type is None:
            raise AssertionError(f"time budget exceeded: {elapsed:.1f}s > {self.seconds}s")
        return False


def test_c1_symmetrized_dual_identity():
    with _Budget(1, "symmetrized dual equals filtered inner dual", 30):
        for b in (2, 3):
            for m in (1, 2, 3):
                for n in (m + 2, 6):
                    inner = hammersley_matrices(b, m, n)
                    sym = symmetrize_matrices(inner)
                    for kd in range(1, min(4, n) + 1):
                        if (b**kd) ** 2 > 1 << 20:
                            continue
                        got = set(map(tuple, dual_enumerate_below(sym, kd).tolist()))
                        want = {
                            tuple(k)
                            for k in dual_enumerate_below(inner, kd).tolist()
                            if all(in_E(kj, b) for kj in k)
                        }
                        assert got == want, (b, m, n, kd)


def test_c2_character_sum_dichotomy():
    with _Budget(2, "character sums are full or zero, exactly", 10):
        rng = np.random.default_rng(0)
        for b, m in [(2, 3), (3, 2)]:
            for net in (hammersley_matrices(b, m, m + 2), symmetrize_matrices(hammersley_matrices(b, m, m + 2))):
                pts = enumerate_points(net)
                N = len(pts)
                n = net.n
                for _ in range(100):
                    ks = tuple(int(v) for v in rng.integers(0, b**n, size=2))
                    cs = character_sum_over(pts, ks)
                    if dual_contains(net, ks):
                        assert cs.equals_int(N), (b, m, ks)
                    else:
                        assert cs.is_zero(), (b, m, ks)


def test_c3_minimum_weight_certificates():
    with _Budget(3, "independence certificate reaches twice m plus one", 120):
        for b in (2, 3, 5):
            for m in (1, 2, 3, 4):
                for n in (2 * m + 1, 2 * m + 2, 2 * m + 3):
                    net = truncated_sym_hammersley(b, m, max(n, m + 2))
                    assert certify_rho2_via_independence(net, 2 * m + 1), (b, m, n)
        for b in (2, 3):
            for m in (1, 2, 3):
                net = truncated_sym_hammersley(b, m, 2 * m + 1 if 2 * m + 1 >= m + 2 else m + 2)
                res = rho2_min_weight(net, cap=2 * m + 1)
                assert res.exceeded, (b, m, res.weight)


def test_c4_direct_error_matches_spectral_error():
    with _Budget(4, "direct and dual-space errors agree within the tail", 60):
        rng = np.random.default_rng(1)
        done = 0
        while done < 20:
            m = 1 + done % 3
            kd = 1 + done % 3
            net = symmetrize_matrices(hammersley_matrices(2, m))
            kern = BandLimitedKernel.random(2, 2, kd, 2 + done % 3, rng)
            d = wce_direct(enumerate_points(net), kern)
            s = wce_spectral(net, kern)
            assert abs(d.value - s.value) <= s.tail_bound + 1e-10, (m, kd, done)
            done += 1
        for alpha in (1.0, 1.5):
            for m in (1, 2, 3):
                net = symmetrize_matrices(hammersley_matrices(2, m, m + 4))
                kern = SpectralDiagonalKernel(2, 2, alpha, (1.0, 1.0))
                d = wce_direct(enumerate_points(net), kern)
                s = wce_spectral(net, kern)
                assert abs(d.value - s.value) <= s.tail_bound + 1e-10, (alpha, m)


def test_c5_shift_mean_matches_invariant_error():
    with _Budget(5, "shift-averaged error meets the invariant prediction", 120):
        net = symmetrize_matrices(hammersley_matrices(2, 2, 4))
        pts = enumerate_points(net)
        for kseed in range(5):
            kern = BandLimitedKernel.random(2, 2, 2, 3, np.random.default_rng(100 + kseed))
            ms = ms_wce_spectral(net, kern)
            vals = [
                wce_direct(random_digital_shift(pts, 1000 * kseed + r), kern).value
                for r in range(200)
            ]
            mean = float(np.mean(vals))
            stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert abs(mean - ms.value) <= 3 * stderr + 1e-12, (kseed, mean, ms.value, stderr)


def test_c6_truncation_bound_controls_lp():
    # Known red at p = 1 for the deepest truncations: the measured L_1 gap
    # between the exact and truncated sets decays like 2^-(n-m), slower
    # than the allowance 2^-(m+2(n-m-1)), so (3,8,1), (4,9,1), (4,10,1)
    # exceed it.  Both L_p values are verified against an independent
    # high-precision per-cell oracle, so the numbers stand as computed.
    with _Budget(6, "truncated sets stay within the truncation bound", 120):
        violations = []
        for m in (2, 3, 4):
            exact = sym_hammersley_points(2, m)
            for p in (1, 2, 4):
                full = (l2_star(exact) if p == 2 else lp_star(exact, p)).value
                for n in range(m + 2, 2 * m + 3):
                    trunc_ps = to_point_set(truncated_sym_hammersley(2, m, n))
                    tr = (l2_star(trunc_ps) if p == 2 else lp_star(trunc_ps, p)).value
                    bound = truncation_bound(2, m, n, p)
                    if not full <= tr + bound + 1e-10:
                        violations.append((m, n, p, full, tr, bound))
        assert not violations, violations


def test_c7_l2_scaling_of_the_two_families():
    # Hammersley's N L_2 outgrows sqrt(m): by Halton & Zaremba, Monatsh.
    # Math. 73 (1969), the planar Hammersley set with N = 2^m points has
    #   (N L_2)^2 = m^2/64 + 29m/192 + 3/8 - m/2^(m+4) + 1/2^(m+2) - 1/(72 4^m)
    # exactly, whose m^2/64 term is that growth.  The symmetrized set
    # stays at sqrt(m) order (first band clause).
    with _Budget(7, "square-root log scaling separates the families", 180):
        ms = range(4, 13)
        sym_ratio = {}
        ham_ratio = {}
        mismatches = []
        for m in ms:
            sp = sym_hammersley_points(2, m)
            sym_ratio[m] = l2_star(sp).value * sp.n_points / math.sqrt(m + 2)
            hp = hammersley_point_set(2, m)
            hl2 = l2_star(hp)
            ham_ratio[m] = hl2.value * hp.n_points / m
            want = (
                Fraction(m * m, 64)
                + Fraction(29 * m, 192)
                + Fraction(3, 8)
                - Fraction(m, 2 ** (m + 4))
                + Fraction(1, 2 ** (m + 2))
                - Fraction(1, 72 * 4**m)
            )
            if hl2.exact * 4**m != want:
                mismatches.append((m, hl2.exact * 4**m, want))
        assert max(sym_ratio.values()) <= 2 * min(sym_ratio.values()), sym_ratio
        assert max(ham_ratio.values()) <= 2 * min(ham_ratio.values()), ham_ratio
        assert not mismatches, mismatches


def test_c8_two_l2_routes_agree():
    with _Budget(8, "closed form and cell decomposition produce one answer", 60):
        assert l2_star(PointSet.from_fractions([(Fraction(0), Fraction(0))])).exact == Fraction(11, 18)
        assert lp_star(PointSet.from_fractions([(Fraction(0), Fraction(0))]), 2).exact == Fraction(11, 18)
        rng = np.random.default_rng(8)
        for _ in range(20):
            npts = int(rng.integers(1, 9))
            den = int(rng.integers(2, 17))
            ps = PointSet.from_fractions(
                [
                    (Fraction(int(rng.integers(0, den + 1)), den), Fraction(int(rng.integers(0, den + 1)), den))
                    for _ in range(npts)
                ]
            )
            a = l2_star(ps)
            b = lp_star(ps, 2)
            assert a.exact == b.exact
            assert abs(a.value - b.value) <= 1e-10


def test_c9_finite_character_identities():
    with _Budget(9, "finite character identities hold digit for digit", 60):
        from itertools import product as iproduct

        from badicnet import GVector
        from badicnet.walsh import CharacterSum
        from oracles import character_vec

        for b in (2, 3):
            for n in (2, 3):
                # averaging over all frequencies detects a zero digit prefix
                for digits in iproduct(range(b), repeat=n):
                    z = GElement(b, digits, 0)
                    counts = [0] * b
                    for k in range(b**n):
                        counts[character(k, z).e] += 1
                    cs = CharacterSum(b, tuple(counts))
                    assert cs.is_full() if not any(digits) else cs.is_zero()
                # summing a fixed character over the digit space detects k = 0
                for k in (0, 1, b**n - 1, b ** (n - 1)):
                    counts = [0] * b
                    for digits in iproduct(range(b), repeat=n):
                        counts[character(k, GElement(b, digits, 0)).e] += 1
                    cs = CharacterSum(b, tuple(counts))
                    assert cs.equals_int(b**n) if k == 0 else cs.is_zero()
            # two coordinates: the box sum is b^(s n) exactly on zero prefixes
            n, s = 2, 2
            for zdig in [((0, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 0), (2 % b, 0))]:
                z = GVector(tuple(GElement(b, d, 0) for d in zdig))
                counts = [0] * b
                for k1 in range(b**n):
                    for k2 in range(b**n):
                        counts[character_vec((k1, k2), z).e] += 1
                cs = CharacterSum(b, tuple(counts))
                if all(not any(d) for d in zdig):
                    assert cs.equals_int(b ** (s * n))
                else:
                    assert cs.is_zero()
