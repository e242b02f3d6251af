"""Dual net membership, minimal weights, and independence certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badicnet import (
    KVector,
    certify_rho2_via_independence,
    check_independence_sets,
    character_sum_over,
    dual_contains,
    dual_enumerate_below,
    enumerate_points,
    hammersley_matrices,
    mu2,
    mu2_total,
    rho2_min_weight,
    symmetrize_matrices,
    truncated_sym_hammersley,
)
from badicnet.badic import in_E
from badicnet.dual import _k_image, dual_scan, image_table, rank_mod_p
from badicnet.nets import DigitalNet


def test_membership_on_hammersley():
    net = hammersley_matrices(2, 2)
    assert dual_contains(net, (0, 0))
    assert dual_contains(net, (1, 2))
    assert dual_contains(net, (2, 1))
    assert not dual_contains(net, (1, 1))
    assert not dual_contains(net, (1, 0))


def test_membership_rejects_wide_frequencies():
    net = hammersley_matrices(2, 2)
    with pytest.raises(ValueError, match="digits exceed matrix rows"):
        dual_contains(net, (4, 0))


def test_enumeration_below_box():
    net = hammersley_matrices(2, 2)
    assert dual_enumerate_below(net, 2) == [(0, 0), (1, 2), (2, 1), (3, 3)]


def test_enumeration_guard():
    net = hammersley_matrices(2, 3, 6)
    with pytest.raises(ValueError, match="guard exceeded"):
        dual_enumerate_below(net, 6, max_candidates=100)


def test_membership_agrees_with_character_sums():
    # k is dual exactly when the character sum over the net hits full size
    for b, m in [(2, 2), (3, 1), (2, 3)]:
        net = hammersley_matrices(b, m)
        pts = enumerate_points(net)
        N = len(pts)
        for k1 in range(b**net.n):
            for k2 in range(b**net.n):
                cs = character_sum_over(pts, KVector.of(b, k1, k2))
                if dual_contains(net, (k1, k2)):
                    assert cs.equals_int(N)
                else:
                    assert cs.is_zero()


def test_symmetrized_dual_is_filtered_inner_dual():
    # within the common box, the symmetrized dual keeps exactly the
    # zero-digit-sum frequencies of the inner dual
    for b, m, kd in [(2, 2, 3), (3, 1, 2)]:
        inner = hammersley_matrices(b, m, m + 2)
        sym = symmetrize_matrices(inner)
        got = set(dual_enumerate_below(sym, kd))
        want = {
            k
            for k in dual_enumerate_below(inner, kd)
            if all(in_E(kj, b) for kj in k)
        }
        assert got == want


def test_weight_profiles():
    assert mu2(0, 2).mu2 == 0 and mu2(0, 2).positions == ()
    assert mu2(4, 2).positions == (3,) and mu2(4, 2).mu2 == 3
    assert mu2(6, 2).positions == (3, 2) and mu2(6, 2).mu2 == 5
    assert mu2(5, 3).positions == (2, 1) and mu2(5, 3).mu2 == 3
    assert mu2_total((6, 4), 2) == 8
    with pytest.raises(ValueError):
        mu2(-1, 2)


def test_minimal_weight_of_hammersley():
    res = rho2_min_weight(hammersley_matrices(2, 2))
    assert res.weight == 3
    assert mu2_total(res.witness, 2) == 3
    assert not res.exceeded
    assert res.to_json_dict()["rho2"] == 3


def test_minimal_weight_trivial_net_is_one():
    z = np.zeros((2, 2), dtype=np.int64)
    net = DigitalNet(2, (z, z.copy()))
    res = rho2_min_weight(net)
    assert res.weight == 1


def test_minimal_weight_brute_force_cross_check():
    # independent oracle: scan the whole box and take the smallest weight
    for b, m in [(2, 2), (2, 3), (3, 2)]:
        net = hammersley_matrices(b, m)
        best = None
        for k1 in range(b**net.n):
            for k2 in range(b**net.n):
                if (k1, k2) != (0, 0) and dual_contains(net, (k1, k2)):
                    w = mu2_total((k1, k2), b)
                    best = w if best is None else min(best, w)
        res = rho2_min_weight(net)
        assert res.weight == best


def test_minimal_weight_of_truncated_family():
    res = rho2_min_weight(truncated_sym_hammersley(2, 1, 3), cap=6)
    assert res.weight == 5
    res = rho2_min_weight(truncated_sym_hammersley(2, 1, 3), cap=3)
    assert res.exceeded
    assert res.to_json_dict()["rho2"] == "exceeds"


def test_cap_validation():
    net = hammersley_matrices(2, 2)
    with pytest.raises(ValueError, match="cap must lie"):
        rho2_min_weight(net, cap=0)
    with pytest.raises(ValueError, match="two coordinates"):
        rho2_min_weight(DigitalNet(2, (np.zeros((1, 1), dtype=np.int64),)))


def test_rank_mod_p():
    assert rank_mod_p(np.eye(3, dtype=np.int64), 2) == 3
    assert rank_mod_p(np.array([[1, 1], [1, 1]], dtype=np.int64), 2) == 1
    # rows that cancel only mod the prime
    assert rank_mod_p(np.array([[1, 2], [2, 4]], dtype=np.int64), 3) == 1
    assert rank_mod_p(np.array([[1, 2], [2, 4]], dtype=np.int64), 5) == 1
    assert rank_mod_p(np.array([[1, 2], [2, 1]], dtype=np.int64), 3) == 1  # det = -3
    assert rank_mod_p(np.array([[1, 2], [2, 2]], dtype=np.int64), 3) == 2
    with pytest.raises(ValueError, match="prime"):
        rank_mod_p(np.eye(2, dtype=np.int64), 4)


def test_independence_families_pass_for_the_family():
    for b, m in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        n = 2 * m + 1
        report = check_independence_sets(truncated_sym_hammersley(b, m, max(n, m + 2)))
        assert report.all_passed, report.to_json_dict()
        names = {f.name for f in report.families}
        assert names == {"head-head", "full-single", "deep-row", "two-block"}


def test_independence_rejects_other_matrices():
    with pytest.raises(ValueError, match="expected truncated symmetrized Hammersley"):
        check_independence_sets(hammersley_matrices(2, 3))
    with pytest.raises(ValueError, match="prime"):
        check_independence_sets(truncated_sym_hammersley(4, 1, 4))


def test_certificate_matches_enumeration():
    net = truncated_sym_hammersley(2, 1, 3)
    # enumeration puts the minimum weight at 5; the row certificate reaches 3
    assert certify_rho2_via_independence(net, 3)
    with pytest.raises(ValueError, match="rho must lie"):
        certify_rho2_via_independence(net, 7)


def test_certificate_sees_dependent_rows():
    # the second matrix has a zero second row, giving a weight-2 dual element
    c1 = np.array([[1, 0], [1, 0], [0, 0]], dtype=np.int64)
    c2 = np.array([[0, 1], [0, 0], [0, 1]], dtype=np.int64)
    net = DigitalNet(2, (c1, c2))
    assert not certify_rho2_via_independence(net, 2)
    assert not certify_rho2_via_independence(net, 3)
    res = rho2_min_weight(net, cap=4)
    assert res.weight == 2  # k2 = 2 hits the zero row alone
    assert res.witness == (0, 2)


def test_certificate_respects_matrix_depth():
    # rows past the stored depth read as zero, so the certificate declines
    # weights that would touch them even when enumeration rules them out
    net = truncated_sym_hammersley(2, 1, 3)
    assert not certify_rho2_via_independence(net, 4)
    assert not certify_rho2_via_independence(net, 5)
    assert rho2_min_weight(net, cap=6).weight == 5


def per_k_enumerate_below(net, k_digits):
    """dual_enumerate_below as it was: one _k_image call per k, then the
    last coordinate's whole box against each prefix."""
    b, s = net.base, net.s
    box = b**k_digits
    images = [np.array([_k_image(net, j, k) for k in range(box)], dtype=np.int64).reshape(box, net.m) for j in range(s)]
    out = []

    def rec(j, partial, prefix):
        if j == s - 1:
            hits = np.nonzero(np.all((partial + images[j]) % b == 0, axis=1))[0]
            out.extend(prefix + (int(k),) for k in hits)
            return
        for k in range(box):
            rec(j + 1, partial + images[j][k], prefix + (k,))

    rec(0, np.zeros(net.m, dtype=np.int64), ())
    return sorted(out)


@st.composite
def nets_and_digits(draw):
    """Random generating matrices, b in {2, 3, 5}, s in {1, 2, 3}, and a
    digit count whose box holds at most 1000 candidates."""
    b = draw(st.sampled_from([2, 3, 5]))
    s = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    digit = st.integers(0, b - 1)
    mats = tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(s))
    k_digits = draw(st.integers(1, n).filter(lambda k: b ** (k * s) <= 1000))
    return DigitalNet(b, mats), k_digits


@settings(max_examples=80, deadline=None)
@given(nets_and_digits())
def test_batched_enumeration_matches_per_k_scan(case):
    net, k_digits = case
    got = dual_enumerate_below(net, k_digits)
    assert got == per_k_enumerate_below(net, k_digits)
    for j in range(net.s):
        table = image_table(net, j, k_digits)
        for k in range(net.base**k_digits):
            assert np.array_equal(table[k], _k_image(net, j, k))


@settings(max_examples=80, deadline=None)
@given(nets_and_digits())
def test_weighted_scan_is_the_box_scan_within_budget(case):
    net, budget = case

    def digit_count(k):
        return len(np.base_repr(k, net.base)) if k else 0

    within = [ks for ks in dual_scan(net, budget) if sum(map(digit_count, ks)) <= budget]
    assert dual_scan(net, budget, weighted=True) == within


def test_image_table_rows_for_a_base_past_one_byte():
    # residues up to 2(b-1) = 512 need more than a byte while the table is built
    b = 257
    rng = np.random.default_rng(3)
    net = DigitalNet(b, (rng.integers(0, b, size=(3, 2)),))
    table = image_table(net, 0, 2)
    assert table.shape == (b * b, 2)
    for k in [0, 1, b - 1, b, b * b - 1, *rng.integers(0, b * b, size=200)]:
        assert np.array_equal(table[k], _k_image(net, 0, int(k)))
