"""Dual net membership, minimal weights, and independence certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from badicnet import (
    certify_rho2_via_independence,
    check_independence_sets,
    character_sum_over,
    dual_contains,
    dual_enumerate_below,
    enumerate_points,
    hammersley_matrices,
    mu2,
    rho2_min_weight,
    symmetrize_matrices,
    truncated_sym_hammersley,
)
from badicnet.badic import frequency_digits, in_E, int_digits, linear_table, mod_product
from badicnet.dual import _class_images, _class_members, _profiles, dual_scan, rank_mod_p
from badicnet import dual, walsh
from badicnet.dual import GuardExceeded, dual_members
from badicnet.nets import DigitalNet
from badicnet.walsh import character_sums
from oracles import brute_rho2, character_vec, digital_nets, loop_rank_mod_p, mu2_total


def _k_image(net, j, k):
    """vec(k) C_j mod b for one coordinate, from int_digits: the oracle of
    dual_scan's linear_table of C_j and of dual_members."""
    vec = np.zeros(net.n, dtype=np.int64)
    kd = int_digits(k, net.base)
    vec[: len(kd)] = kd
    return (vec @ net.matrices[j]) % net.base


def _tuples(scan):
    """The rows of a (T, s) dual scan as tuples, the walk's form."""
    return list(map(tuple, scan.tolist()))


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
    got = dual_enumerate_below(net, 2)
    assert got.dtype == np.int64 and got.tolist() == [[0, 0], [1, 2], [2, 1], [3, 3]]


def test_enumeration_guard():
    net = hammersley_matrices(2, 3, 6)
    with pytest.raises(GuardExceeded, match="guard exceeded"):
        dual_enumerate_below(net, 6, max_candidates=100)


def test_membership_agrees_with_character_sums():
    # k is dual exactly when the character sum over the net hits full size
    for b, m in [(2, 2), (3, 1), (2, 3)]:
        net = hammersley_matrices(b, m)
        pts = enumerate_points(net)
        N = len(pts)
        for k1 in range(b**net.n):
            for k2 in range(b**net.n):
                cs = character_sum_over(pts, (k1, k2))
                if dual_contains(net, (k1, k2)):
                    assert cs.equals_int(N)
                else:
                    assert cs.is_zero()


def per_sample_orthogonality(net, ks):
    """Residue counts and dual membership one frequency at a time: W_k by
    character_vec on every point object, membership by summing the
    per-coordinate images vec(k_j) C_j."""
    points = list(enumerate_points(net))
    out = []
    for k in ks:
        counts = [0] * net.base
        for z in points:
            counts[character_vec(k, z).e] += 1
        image = sum(_k_image(net, j, kj) for j, kj in enumerate(k)) % net.base
        out.append((tuple(counts), not np.any(image)))
    return out


@settings(max_examples=80, deadline=None)
@given(digital_nets(), st.data())
def test_batched_orthogonality_matches_the_per_sample_loop(net, data):
    b, n, s = net.base, net.n, net.s
    ks = data.draw(st.lists(st.tuples(*[st.integers(0, b**n - 1)] * s), max_size=12), label="ks")
    # table chunks of one frequency, of several, or of all of them
    entries = data.draw(st.integers(1, 4 * net.n_points), label="entries")
    pts = enumerate_points(net)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walsh, "_TABLE_ENTRIES", entries)
        sums = character_sums(pts, ks)
    members = dual_members(net, frequency_digits(ks, b, s, n))
    assert members.dtype == bool and members.shape == (len(ks),)
    got = [(cs.counts, hit) for cs, hit in zip(sums, members.tolist())]
    assert got == per_sample_orthogonality(net, ks)
    for k, cs, hit in zip(ks, sums, members.tolist()):
        assert character_sum_over(pts, k) == cs and dual_contains(net, k) == hit
        assert cs.equals_int(len(pts)) if hit else cs.is_zero()


def test_dual_members_checks_every_frequency():
    net = hammersley_matrices(2, 2)

    def members(ks, depth=0):
        return dual_members(net, frequency_digits(ks, 2, 2, depth))

    assert members([]).shape == (0,)
    assert members([(1, 2), (1, 1), (0, 0)]).tolist() == [True, False, True]
    # zero digits past the n rows are no part of a frequency
    assert members([(1, 2), (1, 1), (0, 0)], depth=6).tolist() == [True, False, True]
    with pytest.raises(ValueError, match="dimension mismatch"):
        dual_members(net, frequency_digits([(1,)], 2, 1, 2))
    with pytest.raises(ValueError, match="digits exceed matrix rows"):
        members([(0, 0), (1, 4)])
    with pytest.raises(ValueError, match="negative integer"):
        dual_contains(net, (-1, 0))


def test_dual_members_past_int64_products():
    # d (b-1)^2 >= 2^63: the int64 product wrapped and lost this hit
    b = 2**31 - 1
    net = DigitalNet(b, (np.full((4, 1), b - 1),))
    k = (b - 1) + (b - 1) * b + (b - 1) * b**2 + 3 * b**3  # digits (b-1, b-1, b-1, 3)
    assert sum(d * (b - 1) for d in (b - 1, b - 1, b - 1, 3)) % b == 0
    assert dual_members(net, frequency_digits([(k,)], b, 1, 4)).tolist() == [True]
    assert dual_contains(net, (k,))
    assert not dual_contains(net, (k + 1,))  # digits (0, 0, 0, 4)


def test_symmetrized_dual_is_filtered_inner_dual():
    # within the common box, the symmetrized dual keeps exactly the
    # zero-digit-sum frequencies of the inner dual
    for b, m, kd in [(2, 2, 3), (3, 1, 2)]:
        inner = hammersley_matrices(b, m, m + 2)
        sym = symmetrize_matrices(inner)
        got = set(_tuples(dual_enumerate_below(sym, kd)))
        want = {
            k
            for k in _tuples(dual_enumerate_below(inner, kd))
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


@pytest.mark.parametrize("b, top", [(2, 10), (3, 8)])
def test_sym_hammersley_rho2_is_2m_plus_2_by_both_routes(b, top):
    # the paper proves rho2 >= 2m + 2 only; the equality is a measurement.
    # The certificate proves rho2 > 2m + 1 and the search finds weight 2m + 2.
    for m in range(2, top + 1):
        net = truncated_sym_hammersley(b, m, 2 * m + 3)
        assert certify_rho2_via_independence(net, 2 * m + 1), (b, m)
        res = rho2_min_weight(net, cap=2 * m + 2)
        assert (res.exceeded, res.weight) == (False, 2 * m + 2), (b, m)
    # m = 1 is the exception: weight 5, not 4
    assert rho2_min_weight(truncated_sym_hammersley(2, 1, 5)).weight == 5


def test_cap_validation():
    net = hammersley_matrices(2, 2)
    with pytest.raises(ValueError, match="cap must lie"):
        rho2_min_weight(net, cap=0)
    # one coordinate and three: the search has no planar limit
    res = rho2_min_weight(DigitalNet(2, (np.zeros((1, 1), dtype=np.int64),)))
    assert (res.weight, res.witness) == (1, (1,))
    eye = np.eye(2, dtype=np.int64)
    res = rho2_min_weight(DigitalNet(2, (eye, eye, eye)))
    assert (res.weight, res.witness) == (2, (0, 1, 1))


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


def test_rank_mod_p_past_int64_products():
    # p^2 > 2^63: int64 products of two residues wrapped and found rank 2
    p = 4294967311
    r1 = [p - 1, p - 2, p - 7]
    rows = np.array([r1, [3 * x % p for x in r1]], dtype=object)
    assert rank_mod_p(rows, p) == 1
    assert rank_mod_p(np.stack([rows, rows[::-1], np.array([r1, [1, 0, 0]], dtype=object)]), p).tolist() == [1, 1, 2]
    # the int64 bound is (p-1)^2 + (p-1) < 2^63: 3037000493 is the largest prime inside it
    assert rank_mod_p(np.array([[3037000492, 1], [1, 3037000492]], dtype=np.int64), 3037000493) == 1


def test_rank_mod_p_takes_a_stack():
    stack = np.array([np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64), [[0, 0, 1], [0, 2, 0], [0, 4, 1]]])
    got = rank_mod_p(stack, 7)
    assert got.dtype == np.int64 and got.tolist() == [3, 1, 2]
    assert rank_mod_p(np.zeros((0, 4, 3), dtype=np.int64), 3).shape == (0,)
    assert rank_mod_p(np.zeros((2, 0, 3), dtype=np.int64), 3).tolist() == [0, 0]
    assert rank_mod_p(np.zeros((0, 3), dtype=np.int64), 3) == 0
    with pytest.raises(ValueError, match="stack of matrices"):
        rank_mod_p(np.ones(3, dtype=np.int64), 3)


def test_rank_mod_p_refuses_fractions():
    # an int64 cast ranked [[1.5, 0], [0, 0.4]] as [[1, 0], [0, 0]], rank 1
    with pytest.raises(ValueError, match="rows holds 1.5"):
        rank_mod_p(np.array([[1.5, 0], [0, 0.4]]), 3)


@st.composite
def rank_stacks(draw):
    """A stack of 0-40 matrices mod p with 0-9 rows and columns; a matrix
    may hold zero rows, rows that repeat an earlier row or a multiple of
    it, and trailing zero rows as padding."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 4294967311]))
    S, R, C = draw(st.integers(0, 40)), draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entry = st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1])
    stack = np.zeros((S, R, C), dtype=object)
    for i in range(S):
        pad = draw(st.integers(0, R))
        for r in range(R - pad):
            kind = draw(st.sampled_from(["new", "zero", "repeat"])) if r else "new"
            if kind == "new":
                stack[i, r] = draw(st.lists(entry, min_size=C, max_size=C))
            elif kind == "repeat":
                stack[i, r] = stack[i, draw(st.integers(0, r - 1))] * draw(st.integers(1, p - 1)) % p
    return p, stack


@settings(max_examples=150, deadline=None)
@given(rank_stacks(), st.booleans())
def test_stacked_ranks_match_the_loop(case, as_int64):
    p, stack = case
    want = [loop_rank_mod_p(a, p) for a in stack]
    if as_int64 and p < 1 << 31:
        stack = stack.astype(np.int64)
    assert rank_mod_p(stack, p).tolist() == want
    assert [rank_mod_p(a, p) for a in stack] == want


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
    assert _tuples(got) == per_k_enumerate_below(net, k_digits)
    for j in range(net.s):
        table = linear_table(net.matrices[j][:k_digits], net.base)
        for k in range(net.base**k_digits):
            assert np.array_equal(table[k], _k_image(net, j, k))


@settings(max_examples=80, deadline=None)
@given(nets_and_digits())
def test_weighted_scan_is_the_box_scan_within_budget(case):
    net, budget = case

    def digit_count(k):
        return len(np.base_repr(k, net.base)) if k else 0

    within = [ks for ks in _tuples(dual_scan(net, budget)) if sum(map(digit_count, ks)) <= budget]
    assert _tuples(dual_scan(net, budget, weighted=True)) == within


def test_linear_table_rows_for_a_base_past_one_byte():
    # residues up to 2(b-1) = 512 need more than a byte while the table is built
    b = 257
    rng = np.random.default_rng(3)
    net = DigitalNet(b, (rng.integers(0, b, size=(3, 2)),))
    table = linear_table(net.matrices[0][:2], b)
    assert table.shape == (b * b, 2)
    for k in [0, 1, b - 1, b, b * b - 1, *rng.integers(0, b * b, size=200)]:
        assert np.array_equal(table[k], _k_image(net, 0, int(k)))


def walk_dual_scan(net, k_digits, weighted=False):
    """dual_scan as it was: the first s-1 coordinates walked one value at
    a time, the last one's admissible block compared row by row."""
    b, s = net.base, net.s
    tables = [linear_table(C[:k_digits], b) for C in net.matrices]
    out = []

    def rec(j, budget, need, prefix):
        block = tables[j][: b**budget]
        if j == s - 1:
            hits = np.flatnonzero(np.all(block == need, axis=1))
            out.extend(prefix + (int(k),) for k in hits)
            return
        lo = 0
        for a in range(budget + 1):
            for k in range(lo, b**a):
                rec(j + 1, budget - a if weighted else budget, (need - block[k]) % b, prefix + (k,))
            lo = b**a

    rec(0, k_digits, np.zeros(net.m, dtype=np.int64), ())
    return out


def _candidates_by_weight(base: int, n: int, cap: int, budget: int) -> dict[int, list[int]]:
    """Frequencies k < b^n grouped by mu2(k) <= cap, built one at a time
    as rho2_min_weight did before it counted its classes.

    Digits at the two highest positions are pinned nonzero; anything below
    the second position is free and cannot change the weight.
    """
    b = base
    by_w: dict[int, list[int]] = {0: [0]}
    made = 1
    for a in range(1, min(cap, n) + 1):
        lst = by_w.setdefault(a, [])
        for kappa in range(1, b):
            lst.append(kappa * b ** (a - 1))
            made += 1
            if made > budget:
                raise ValueError(f"guard exceeded: candidate count over cap {budget}")
    for a1 in range(2, min(cap - 1, n) + 1):
        for a2 in range(1, min(a1 - 1, cap - a1) + 1):
            lst = by_w.setdefault(a1 + a2, [])
            high = b ** (a1 - 1)
            mid = b ** (a2 - 1)
            for k1 in range(1, b):
                for k2 in range(1, b):
                    head = k1 * high + k2 * mid
                    for low in range(mid):
                        lst.append(head + low)
                        made += 1
                        if made > budget:
                            raise ValueError(f"guard exceeded: candidate count over cap {budget}")
    return by_w


def per_k_rho2(net, cap):
    """rho2_min_weight as it was: one _k_image call per candidate, then
    one row of the first coordinate at a time against a whole class."""
    b = net.base
    by_w = _candidates_by_weight(b, net.n, cap, 1 << 26)
    img = [{w: np.array([_k_image(net, j, k) for k in ks], dtype=np.int64) for w, ks in by_w.items()} for j in (0, 1)]
    for W in range(1, cap + 1):
        for w1 in range(0, W + 1):
            w2 = W - w1
            if w1 not in by_w or w2 not in by_w:
                continue
            for i1, k1 in enumerate(by_w[w1]):
                hits = np.nonzero(np.all((img[0][w1][i1] + img[1][w2]) % b == 0, axis=1))[0]
                for h in hits:
                    k2 = by_w[w2][int(h)]
                    if k1 or k2:
                        return W, (k1, k2)
    return None, None


@st.composite
def scan_cases(draw):
    """Random generating matrices, b in {2, 3, 5}, s in {1, 2, 3, 4}, and
    a digit count whose walked prefixes number at most 1000."""
    b = draw(st.sampled_from([2, 3, 5]))
    s = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 6))
    digit = st.integers(0, b - 1)
    mats = tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(s))
    k_digits = draw(st.integers(1, n).filter(lambda k: b ** (k * (s - 1)) <= 1000))
    return DigitalNet(b, mats), k_digits, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_join_scan_matches_the_walk(case):
    # list-equal, order included: lexicographic order is part of the
    # contract, though the spectral sum is a math.fsum, which needs none
    net, k_digits, weighted = case
    got = dual_scan(net, k_digits, weighted)
    assert got.dtype == np.int64 and got.shape[1] == net.s
    assert _tuples(got) == walk_dual_scan(net, k_digits, weighted)


def _low_rank_net(b, s, n, m, rank, seed):
    """Matrices whose rows share a rank-`rank` row space, so that many
    image rows collide and the join sees long runs of equal keys."""
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, b, size=(rank, m))
    return DigitalNet(b, tuple(rng.integers(0, b, size=(n, rank)) @ basis % b for _ in range(s)))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "net, k_digits",
    [
        (_low_rank_net(2, 2, 10, 6, 2, 1), 10),
        (_low_rank_net(3, 2, 6, 5, 2, 2), 6),
        (_low_rank_net(3, 3, 3, 4, 1, 3), 3),
        (_low_rank_net(5, 3, 2, 3, 2, 4), 2),
    ],
    ids=["b2-s2", "b3-s2", "b3-s3", "b5-s3"],
)
def test_join_keeps_index_order_within_equal_keys(net, k_digits, weighted):
    assert _tuples(dual_scan(net, k_digits, weighted)) == walk_dual_scan(net, k_digits, weighted)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "net, k_digits, origin_only",
    [
        # images touch the columns past 2^63 and cancel only at the origin
        (truncated_sym_hammersley(2, 68, 70), 5, True),
        (truncated_sym_hammersley(3, 43, 45), 3, True),
        (_low_rank_net(2, 2, 8, 70, 3, 5), 8, False),
        (_low_rank_net(3, 3, 3, 45, 2, 6), 3, False),
        (_low_rank_net(2, 1, 8, 70, 3, 7), 8, False),
    ],
    ids=["sym-b2-m70", "sym-b3-m45", "low-rank-b2-m70", "low-rank-b3-m45", "low-rank-b2-s1-m70"],
)
def test_join_on_object_keys(net, k_digits, origin_only, weighted):
    # b^m > 2^63: the keys are Python ints, and the scan must not change
    assert net.base**net.m > 1 << 63
    got = _tuples(dual_scan(net, k_digits, weighted))
    assert got == walk_dual_scan(net, k_digits, weighted)
    assert (got == [(0,) * net.s]) == origin_only
    assert all(dual_contains(net, ks) for ks in got)


@pytest.mark.parametrize("weighted", [False, True])
def test_join_for_a_base_past_one_byte(weighted):
    # b = 257 builds uint16 image tables
    b = 257
    rng = np.random.default_rng(8)
    net = DigitalNet(b, tuple(rng.integers(0, b, size=(2, 1)) for _ in range(2)))
    assert linear_table(net.matrices[0][:1], b).dtype == np.uint16
    got = _tuples(dual_scan(net, 1, weighted))
    assert got == walk_dual_scan(net, 1, weighted)
    # the box pairs every k1 with one k2; a budget of one digit leaves the origin
    assert len(got) == b if not weighted else got == [(0, 0)]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_one_join_per_weight_of_the_left_half(s, weighted):
    # the two halves meet in at most k_digits + 1 joins, one per weight of
    # the left half, whatever the dimension
    net = _low_rank_net(2, s, 4, 3, 2, s)
    join, calls = dual._join, []

    def spy(side, targets):
        calls.append(len(targets))
        return join(side, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual, "_join", spy)
        got = dual_scan(net, 4, weighted)
    assert 1 <= len(calls) <= 4 + 1
    assert _tuples(got) == walk_dual_scan(net, 4, weighted)


@st.composite
def planar_nets_and_caps(draw):
    """Random two-coordinate matrices, b in {2, 3, 5}, and a weight cap."""
    b = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5 if b == 2 else 3))
    digit = st.integers(0, b - 1)
    mats = tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(2))
    return DigitalNet(b, mats), draw(st.integers(1, 2 * n))


@settings(max_examples=120, deadline=None)
@given(planar_nets_and_caps())
def test_rho2_join_matches_per_k_search(case):
    net, cap = case
    res = rho2_min_weight(net, cap)
    assert (res.weight, res.witness) == per_k_rho2(net, cap)


@pytest.mark.parametrize("seed", range(4))
def test_rho2_join_on_low_rank_nets(seed):
    # collisions inside every weight class: the witness is the first hit in class order
    net = _low_rank_net(2, 2, 9, 6, 2, seed)
    for cap in (4, 9, 18):
        res = rho2_min_weight(net, cap)
        assert (res.weight, res.witness) == per_k_rho2(net, cap)


@st.composite
def nets_and_caps(draw):
    """Random matrices, b in {2, 3}, s in {1, 2, 3, 4}, n with at most 4096
    tuples of k < b^n, and a weight cap.  From s = 4 on, a left half of
    two coordinates holds tuples that are lexicographically smaller but
    heavier than others."""
    b = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 4))
    n = draw(st.integers(1, max(k for k in range(1, 13) if b ** (k * s) <= 4096)))
    m = draw(st.integers(0, 4))
    digit = st.integers(0, b - 1)
    mats = tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(s))
    return DigitalNet(b, mats), draw(st.integers(1, 2 * n))


_LEFT_PAIR_NET = DigitalNet(
    2, tuple(np.array(C) for C in ([[1, 1, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 0]], [[1, 0, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 0]]))
)


@settings(max_examples=150, deadline=None)
@given(nets_and_caps())
# weight 2 is hit by (1, 0, 0, 1) at left weight 1 and by the witness
# (0, 2, 0, 0) at left weight 2: a budget cut below the least total loses it
@example((_LEFT_PAIR_NET, 4))
def test_rho2_matches_the_brute_force_tuples(case):
    net, cap = case
    res = rho2_min_weight(net, cap)
    assert (res.weight, res.witness) == brute_rho2(net, cap)


def test_rho2_joins_only_left_weights_up_to_its_weight():
    # rho2 = 10 < cap = 18: once a hit of weight 10 is found, no heavier
    # left weight is joined; in the plane the left half is the first
    # coordinate's candidates, so each join takes one weight's class members
    net = truncated_sym_hammersley(3, 4, 9)
    sizes = {w: len(ks) for w, ks in classes_by_weight(3, 9, 18).items()}
    join, calls = dual._join, []

    def spy(side, targets):
        calls.append(len(targets))
        return join(side, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual, "_join", spy)
        res = rho2_min_weight(net, 18)
    assert res.weight == 10
    assert calls == [sizes[w] for w in range(11)]


def test_class_members_past_int64():
    # b^a1 > 2^63: the members are Python ints, in class order
    for b, pos in [(2, (70,)), (2, (66, 3)), (3, (41, 2))]:
        high = b ** (pos[0] - 1)
        if len(pos) == 1:
            want = [k1 * high for k1 in range(1, b)]
        else:
            mid = b ** (pos[1] - 1)
            want = [k1 * high + k2 * mid + low for k1 in range(1, b) for k2 in range(1, b) for low in range(mid)]
        got = _class_members(b, pos)
        assert got.dtype == object and got.tolist() == want
        assert all(mu2(k, b).positions[:2] == pos for k in want)


@pytest.mark.parametrize(
    "b, m, witness",
    [(2, 3, (3, 6)), (2, 4, (3, 12)), (2, 5, (3, 24)), (2, 6, (3, 48)), (3, 2, (5, 5)), (3, 3, (5, 15)), (3, 4, (5, 45))],
)
def test_rho2_of_truncated_family_is_2m_plus_2(b, m, witness):
    # A measured regression value, not the paper's bound: PAPER.md holds only
    # the abstract, and C3 certifies no more than rho2 > 2m+1.
    res = rho2_min_weight(truncated_sym_hammersley(b, m, 2 * m + 1), cap=2 * m + 2)
    assert res.weight == 2 * m + 2
    assert res.witness == witness
    assert mu2_total(witness, b) == 2 * m + 2


def classes_by_weight(b, n, cap):
    """The members of every mu2 class of weight <= cap whose top digit fits
    in n rows, concatenated per weight in profile order."""
    by_w = {}
    for w, pos in _profiles(cap):
        if not pos or pos[0] <= n:
            by_w.setdefault(w, []).extend(_class_members(b, pos))
    return by_w


def closed_form_count(b, n, cap):
    """Number of k < b^n with mu2(k) <= cap: the origin, (b-1) single
    digits per position, and (b-1)^2 b^(a2-1) per two-digit profile."""
    singles = (b - 1) * min(cap, n)
    pairs = sum((b - 1) ** 2 * b ** (a2 - 1) for a1 in range(2, min(cap - 1, n) + 1) for a2 in range(1, min(a1 - 1, cap - a1) + 1))
    return 1 + singles + pairs


@pytest.mark.parametrize("b", [2, 3, 5])
def test_class_members_are_the_enumerated_candidates(b):
    for n in range(1, 7):
        for cap in range(1, 2 * n + 1):
            old = _candidates_by_weight(b, n, cap, 1 << 26)
            new = classes_by_weight(b, n, cap)
            assert list(new.items()) == list(old.items())
            assert sum(map(len, old.values())) == closed_form_count(b, n, cap)
            for w, ks in new.items():
                assert all(mu2(k, b).mu2 == w for k in ks)


@pytest.mark.parametrize("b, m, n", [(2, 2, 6), (2, 3, 7), (3, 2, 5), (5, 1, 3)])
def test_rho2_guards_count_what_the_lists_hold(b, m, n):
    net = truncated_sym_hammersley(b, m, n)
    cap = 2 * n
    by_w = _candidates_by_weight(b, n, cap, 1 << 26)
    count = sum(map(len, by_w.values()))
    pairs = sum(len(l1) * len(l2) for w1, l1 in by_w.items() for w2, l2 in by_w.items() if w1 + w2 <= cap)
    assert pairs > count
    with pytest.raises(GuardExceeded, match=rf"^guard exceeded: {count} candidates over cap {count - 1}$"):
        rho2_min_weight(net, cap, max_candidates=count - 1)
    with pytest.raises(GuardExceeded, match=rf"^guard exceeded: {pairs} candidate pairs over cap {pairs - 1}$"):
        rho2_min_weight(net, cap, max_candidates=pairs - 1)
    res = rho2_min_weight(net, cap, max_candidates=pairs)
    assert (res.weight, res.witness) == per_k_rho2(net, cap)


def test_rho2_tuple_guard_names_the_tuples_beyond_the_plane():
    # the b = 3, m = n = 4 Faure net in three coordinates, C_j = P^(j-1) mod 3
    P = np.array([[math.comb(c, r) % 3 for c in range(4)] for r in range(4)], dtype=np.int64)
    net = DigitalNet(3, tuple(np.linalg.matrix_power(P, j) % 3 for j in range(3)))
    with pytest.raises(GuardExceeded, match=r"^guard exceeded: 4913 candidate 3-tuples over cap 1000$"):
        rho2_min_weight(net, 8, max_candidates=1000)


@st.composite
def matrices_and_classes(draw):
    """One random n x m matrix over b in {2, 3, 5} and the positions of
    every mu2 class of weight <= 2n whose top digit fits in its n rows."""
    b = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6 if b == 2 else 4))
    m = draw(st.integers(0, 4))
    C = np.array(draw(st.lists(st.integers(0, b - 1), min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m)
    return b, C, [pos for _, pos in _profiles(2 * n) if not pos or pos[0] <= n]


@settings(max_examples=100, deadline=None)
@given(matrices_and_classes())
def test_class_images_are_the_products_of_the_class_members(case):
    b, C, classes = case
    images = _class_images(C, b, classes)
    assert images.dtype == linear_table(C[:0], b).dtype
    want = []
    for pos in classes:
        digits = frequency_digits([(int(k),) for k in _class_members(b, pos)], b, 1, len(C))[:, 0]
        want.append(mod_product(digits, C, b))
        assert np.array_equal(_class_images(C, b, [pos]), want[-1])
    assert np.array_equal(images, np.concatenate(want))


def test_rho2_guard_trips_before_any_class_is_built(monkeypatch):
    # 2^40 candidates: the guard must come from the class sizes alone
    def refuse(*_):
        raise AssertionError("a class was built")

    monkeypatch.setattr("badicnet.dual._class_members", refuse)
    net = truncated_sym_hammersley(2, 10, 40)
    count = closed_form_count(2, 40, 80)
    assert count == 2**40
    with pytest.raises(GuardExceeded, match=rf"^guard exceeded: {count} candidates over cap 1000$"):
        rho2_min_weight(net, max_candidates=1000)


def _row(net, j, l):
    """l-th digit row of coordinate j (1-based); zero beyond the stored rows."""
    if l <= net.n:
        return net.matrices[j][l - 1]
    return np.zeros(net.m, dtype=np.int64)


def loop_independence_families(net, rank):
    """check_independence_sets' four families as they were written: one
    loop nest each, with its own checked/passed/failures count.  `rank`
    is the rank function, so the labels of failing selections can be
    compared too."""
    b, m, n = net.base, net.m - 2, net.n

    def indep(rows):
        return rank(np.array(rows), b) == len(rows)

    families = []

    def record(name, cases):
        fails = [label for label, rows in cases if not indep(rows)]
        families.append({"name": name, "checked": len(cases), "passed": len(cases) - len(fails), "failures": fails})

    cases = []
    for r in range(0, m + 2):
        rows = [_row(net, 0, l) for l in range(1, r + 1)]
        rows += [_row(net, 1, l) for l in range(1, m + 2 - r)]
        cases.append((f"r={r}", rows))
    record("head-head", cases)
    cases = []
    for j, other in ((0, 1), (1, 0)):
        for r in range(1, m + 1):
            rows = [_row(net, j, l) for l in range(1, m + 2)]
            rows.append(_row(net, other, r))
            cases.append((f"j={j + 1},r={r}", rows))
    record("full-single", cases)
    cases = []
    for j in (0, 1):
        for r in range(0, m + 1):
            for t in range(m + 1, n + 1):
                rows = [_row(net, 0, l) for l in range(1, r + 1)]
                rows += [_row(net, 1, l) for l in range(1, m - r + 1)]
                rows.append(_row(net, j, t))
                cases.append((f"j={j + 1},r={r},t={t}", rows))
    record("deep-row", cases)
    cases = []
    for r11 in range(2, m + 1):
        for r12 in range(1, r11):
            for r21 in range(2, m + 1):
                for r22 in range(1, r21):
                    if r11 + r12 + r21 + r22 > 2 * m + 1:
                        continue
                    rows = [_row(net, 0, l) for l in range(1, r12 + 1)] + [_row(net, 0, r11)]
                    rows += [_row(net, 1, l) for l in range(1, r22 + 1)] + [_row(net, 1, r21)]
                    cases.append((f"{(r11, r12, r21, r22)}", rows))
    record("two-block", cases)
    return {"all_passed": all(f["checked"] == f["passed"] for f in families), "families": families}


def _weighted_sum_rank(rows, p):
    """A stand-in rank that calls a selection dependent when the entries,
    weighted by their column, sum to a multiple of 3.  The sum does not
    depend on the row order, but it tells the two matrices' rows apart.

    It takes a matrix or a stack, as rank_mod_p does, and applies the rule
    to each matrix with its unpadded row count: the padding rows are zero
    and every row of the truncated symmetrized Hammersley matrices is not
    (see the test), so that count is the number of nonzero rows."""
    stack = np.asarray(rows)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    counts = (stack != 0).any(axis=2).sum(axis=1)
    dependent = (stack @ np.arange(1, stack.shape[2] + 1)).sum(axis=1) % 3 == 0
    ranks = counts - dependent
    return int(ranks[0]) if single else ranks


@pytest.mark.parametrize("b, m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1)])
def test_independence_selections_match_the_family_loops(monkeypatch, b, m):
    for n in (m + 2, 2 * m + 1, 2 * m + 3):
        net = truncated_sym_hammersley(b, m, n)
        if n <= 2 * m:
            with pytest.raises(ValueError, match="need n > 2m digit rows"):
                check_independence_sets(net)
            continue
        assert check_independence_sets(net).to_json_dict() == loop_independence_families(net, rank_mod_p)
    # with some selections failing, the failure labels and counts must agree too
    net = truncated_sym_hammersley(b, m, 2 * m + 3)
    assert all(np.any(C != 0, axis=1).all() for C in net.matrices)  # what _weighted_sum_rank counts on
    want = loop_independence_families(net, _weighted_sum_rank)
    monkeypatch.setattr("badicnet.dual.rank_mod_p", _weighted_sum_rank)
    got = check_independence_sets(net).to_json_dict()
    assert got == want
    assert not got["all_passed"]


def listed_profiles_certificate(net, rho):
    """certify_rho2_via_independence with its hand-built profile list."""
    profiles = [(0, [])]
    for a in range(1, rho + 1):
        profiles.append((a, [a]))
    for a1 in range(2, rho):
        for a2 in range(1, min(a1 - 1, rho - a1) + 1):
            profiles.append((a1 + a2, list(range(1, a2 + 1)) + [a1]))
    for w1, s1 in profiles:
        for w2, s2 in profiles:
            if w1 + w2 > rho or (not s1 and not s2):
                continue
            rows = [_row(net, 0, l) for l in s1] + [_row(net, 1, l) for l in s2]
            if loop_rank_mod_p(np.array(rows), net.base) != len(rows):
                return False
    return True


@pytest.mark.parametrize("b, m, n", [(2, 1, 3), (2, 2, 5), (2, 3, 7), (3, 1, 3), (3, 2, 5), (5, 1, 3), (2, 3, 5)])
def test_certificate_matches_the_listed_profiles_on_the_family(b, m, n):
    net = truncated_sym_hammersley(b, m, n)
    for rho in range(1, 2 * net.m + 1):
        assert certify_rho2_via_independence(net, rho) == listed_profiles_certificate(net, rho)


@st.composite
def planar_prime_nets(draw):
    """Random two-coordinate matrices over a prime base with m >= 1."""
    b = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    digit = st.integers(0, b - 1)
    return DigitalNet(b, tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(2)))


@settings(max_examples=100, deadline=None)
@given(planar_prime_nets())
def test_certificate_matches_the_listed_profiles_on_random_nets(net):
    for rho in range(1, 2 * net.m + 1):
        assert certify_rho2_via_independence(net, rho) == listed_profiles_certificate(net, rho)


@st.composite
def prime_nets(draw):
    """Random matrices or Faure nets (C_j = P^(j-1) mod b, zero rows past
    m) over b in {2, 3, 5}, s in {1, 2, 3}, m >= 1, with at most 4096
    tuples of k < b^n."""
    b = draw(st.sampled_from([2, 3, 5]))
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, max(k for k in range(1, 13) if b ** (k * s) <= 4096)))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        m = min(m, n)
        P = np.array([[math.comb(c, r) % b for c in range(m)] for r in range(m)], dtype=np.int64)
        mats = [np.vstack([np.linalg.matrix_power(P, j) % b, np.zeros((n - m, m), dtype=np.int64)]) for j in range(s)]
        return DigitalNet(b, tuple(mats))
    digit = st.integers(0, b - 1)
    return DigitalNet(b, tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(s)))


@settings(max_examples=150, deadline=None)
@given(prime_nets())
def test_certificate_implies_the_search_exceeds(net):
    # a certified rho forces rho2 > rho, in any dimension
    for rho in range(1, min(2 * net.m, 2 * net.n) + 1):
        if certify_rho2_via_independence(net, rho):
            assert rho2_min_weight(net, rho).exceeded


@pytest.mark.parametrize("entries", [1, 40, 1 << 20])
def test_certificate_ranks_in_bounded_chunks(monkeypatch, entries):
    # one stacked rank call per chunk of about `entries` stack entries,
    # and none after the first chunk that holds a dependent selection
    calls = []

    def spy(rows, p):
        calls.append(rows.shape)
        return rank_mod_p(rows, p)

    monkeypatch.setattr(dual, "_RANK_ENTRIES", entries)
    monkeypatch.setattr(dual, "rank_mod_p", spy)
    net = truncated_sym_hammersley(2, 3, 7)
    for rho in range(1, 2 * net.m + 1):
        calls.clear()
        assert certify_rho2_via_independence(net, rho) == listed_profiles_certificate(net, rho)
        assert all(S * R * C <= max(entries, R * C) for S, R, C in calls)
    # a repeated row: rows 1 and 2 of the first matrix are equal, so the
    # class of positions (2, 1), weight 3, pins two equal rows
    c1, c2 = net.matrices
    c1 = c1.copy()
    c1[1] = c1[0]
    net = DigitalNet(2, (c1, c2))
    for rho in range(3, 2 * net.m + 1):
        calls.clear()
        assert certify_rho2_via_independence(net, rho) is listed_profiles_certificate(net, rho) is False
        if entries == 1 and rho > 3:  # one selection per chunk: ranking stopped before the last one
            profiles = list(_profiles(rho))
            assert len(calls) < sum(1 for w1, p1 in profiles for w2, p2 in profiles if w1 + w2 <= rho and p1 + p2)
