"""Digital net construction, symmetrization, and point enumeration."""

import io
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badicnet import (
    DigitalNet,
    PointSet2,
    enumerate_points,
    hammersley_matrices,
    hammersley_point_set,
    net_from_json,
    net_to_json,
    points_to_csv,
    project_pi,
    sym_hammersley_points,
    symmetrize_matrices,
    to_point_set,
    truncated_sym_hammersley,
)
from badicnet.badic import GElement, GVector
from badicnet.nets import NetPoints, point_digit_arrays
from oracles import csv_text, digital_nets, gv_add, gv_pi, no_point_objects, per_point_csv, symmetrize_points


def frac_pairs(points):
    return Counter(tuple(gv_pi(z)) for z in points)


def test_hammersley_b2_m2_points():
    pts = to_point_set(hammersley_matrices(2, 2))
    expect = {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(3, 4)),
    }
    assert set(pts.fractions()) == expect


def test_hammersley_padding_rows_do_not_move_points():
    a = sorted(to_point_set(hammersley_matrices(3, 2)).fractions())
    b = sorted(to_point_set(hammersley_matrices(3, 2, n=5)).fractions())
    assert a == b


def test_net_validation():
    with pytest.raises(ValueError):
        DigitalNet(2, (np.array([[2]]),))  # digit out of range
    with pytest.raises(ValueError):
        DigitalNet(2, (np.zeros((2, 1), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)))
    with pytest.raises(ValueError, match="sym_columns must be nonnegative"):
        DigitalNet(2, (np.eye(2, dtype=np.int64),), sym_columns=-1)


def test_enumerate_matches_point_set():
    net = hammersley_matrices(3, 2)
    via_enum = Counter(tuple(gv_pi(z)) for z in enumerate_points(net))
    via_ps = Counter(to_point_set(net).fractions())
    assert via_enum == via_ps
    assert net.n_points == 9


def test_point_set_from_fractions_round_trips():
    pairs = [(Fraction(1, 3), Fraction(0)), (Fraction(5, 6), Fraction(1, 2))]
    ps = PointSet2.from_fractions(pairs)
    assert sorted(ps.fractions()) == sorted(pairs)
    assert ps.den % 6 == 0


def test_symmetrized_matrices_shape_and_tail_rows():
    # one shift column per coordinate, each driving its own e_l translate
    net = hammersley_matrices(2, 2, 4)
    sym = symmetrize_matrices(net)
    assert sym.m == net.m + net.s
    assert sym.n == net.n
    assert sym.sym_columns == net.s
    assert sym.n_points == net.base**net.s * net.n_points
    for j, mat in enumerate(sym.matrices):
        own = net.m + j
        assert (mat[:, own] == 1).all()
        other = net.m + 1 - j
        assert (mat[:, other] == 0).all()
        assert sym.tail_rows[j][own] == 1
        assert sym.tail_rows[j].sum() == 1


def test_matrix_symmetrization_equals_point_symmetrization():
    # the appended ones column reproduces {z + e_l} exactly, tails included
    for b, m in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        net = hammersley_matrices(b, m)
        direct = frac_pairs(symmetrize_points(enumerate_points(net)))
        via_matrix = frac_pairs(enumerate_points(symmetrize_matrices(net)))
        assert direct == via_matrix


def test_double_symmetrization_multiplies_count():
    net = hammersley_matrices(2, 1)
    twice = symmetrize_matrices(symmetrize_matrices(net))
    assert twice.sym_columns == 4
    assert twice.n_points == 16 * net.n_points


def test_truncated_family_matrices():
    net = truncated_sym_hammersley(2, 1, 3)
    assert net.matrices[0].tolist() == [[1, 1, 0], [0, 1, 0], [0, 1, 0]]
    assert net.matrices[1].tolist() == [[1, 0, 1], [0, 0, 1], [0, 0, 1]]
    with pytest.raises(ValueError, match="truncation too short"):
        truncated_sym_hammersley(2, 3, 4)


def test_truncated_points_approximate_exact_symmetrization():
    # truncation at n digits moves each coordinate by at most b^-n, downward;
    # both enumerations run over the same index digits, so rows correspond
    b, m, n = 2, 2, 6
    exact = sym_hammersley_points(b, m).fractions()
    trunc = to_point_set(truncated_sym_hammersley(b, m, n)).fractions()
    assert len(exact) == len(trunc)
    for (x, y), (xt, yt) in zip(exact, trunc):
        for u, ut in ((x, xt), (y, yt)):
            assert 0 <= u - ut <= Fraction(1, b**n)


def test_closed_form_matches_matrix_symmetrization():
    for b, m in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        closed = Counter(sym_hammersley_points(b, m).fractions())
        generated = frac_pairs(enumerate_points(symmetrize_matrices(hammersley_matrices(b, m))))
        assert closed == generated


def test_symmetrized_set_touches_the_right_endpoint():
    xs = {x for x, _ in sym_hammersley_points(2, 2).fractions()}
    assert Fraction(1) in xs
    assert Fraction(0) in xs


def test_hammersley_point_set_closed_form():
    assert sorted(hammersley_point_set(2, 2).fractions()) == sorted(
        to_point_set(hammersley_matrices(2, 2)).fractions()
    )


def test_net_closed_under_digit_addition():
    # column spans form a group, so the point multiset is shift-closed
    for net in [hammersley_matrices(2, 3), symmetrize_matrices(hammersley_matrices(3, 1))]:
        pts = enumerate_points(net)
        base_counts = frac_pairs(pts)
        for w in pts[: min(len(pts), 6)]:
            shifted = Counter(tuple(gv_pi(gv_add(z, w))) for z in pts)
            assert shifted == base_counts


def test_json_round_trip_keeps_tail_rows():
    net = symmetrize_matrices(hammersley_matrices(3, 2, 4))
    back = net_from_json(net_to_json(net))
    assert back.base == net.base
    assert back.sym_columns == net.sym_columns
    for a, b in zip(back.matrices, net.matrices):
        assert (a == b).all()
    for a, b in zip(back.tail_rows, net.tail_rows):
        assert (a == b).all()
    assert frac_pairs(enumerate_points(back)) == frac_pairs(enumerate_points(net))


def test_json_rejects_bad_shapes():
    net = hammersley_matrices(2, 2)
    doc = net_to_json(net).replace('"m": 2', '"m": 3')
    with pytest.raises(ValueError):
        net_from_json(doc)


def test_points_csv_layout():
    buf = io.StringIO()
    points_to_csv(enumerate_points(hammersley_matrices(2, 1)), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "x1_frac,x1,x2_frac,x2"
    assert len(lines) == 4
    assert lines[2].split(",")[0] in {"0/1", "1/2"}


def eager_points(net):
    """enumerate_points as it was: the whole list of digit vectors at once."""
    digits, tails = point_digit_arrays(net)
    return [
        GVector(tuple(GElement(net.base, tuple(int(d) for d in digits[i, j]), int(tails[i, j])) for j in range(net.s)))
        for i in range(digits.shape[0])
    ]


def test_net_points_agree_with_the_eager_list():
    tailed = DigitalNet(3, (np.array([[1, 2], [0, 1], [2, 2]]),), (np.array([2, 1]),))
    for net in (hammersley_matrices(2, 3), symmetrize_matrices(hammersley_matrices(3, 2, 4)), truncated_sym_hammersley(2, 2, 5), tailed):
        pts = enumerate_points(net)
        want = eager_points(net)
        assert isinstance(pts, NetPoints)
        assert len(pts) == len(want) == net.n_points
        # digit arrays come straight from the net, no objects are built
        with no_point_objects():
            for got, ref in zip(pts.digit_arrays(), point_digit_arrays(net)):
                assert np.array_equal(got, ref)
        assert [pts[i] for i in range(len(pts))] == want
        assert pts[-1] == want[-1] and pts[-len(want)] == want[0]
        assert pts[1:3] == want[1:3] and pts[::-2] == want[::-2]
        assert list(pts) == want and list(pts) == want  # iteration repeats
        assert vars(pts).keys() == {"net", "shift"}  # and keeps no objects
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                pts[i]


def test_net_points_iterate_block_by_block():
    from badicnet.nets import _ROW_BLOCK

    net = symmetrize_matrices(hammersley_matrices(2, 9, 11))  # 2048 points, two blocks
    pts = enumerate_points(net)
    it = iter(pts)
    head = [next(it) for _ in range(_ROW_BLOCK + 1)]
    assert head == eager_points(net)[: _ROW_BLOCK + 1]
    assert len(list(it)) == len(pts) - _ROW_BLOCK - 1


def int64_digit_arrays(net):
    """point_digit_arrays as it was: an int64 product per coordinate."""
    nu = (np.arange(net.n_points)[:, None] // net.base ** np.arange(net.m)) % net.base
    digits = np.stack([(nu @ C.T) % net.base for C in net.matrices], axis=1)
    tails = np.zeros((net.n_points, net.s), dtype=np.int64)
    if net.tail_rows is not None:
        tails = np.stack([(nu @ t) % net.base for t in net.tail_rows], axis=1)
    return digits, tails


@settings(max_examples=80, deadline=None)
@given(digital_nets(), st.data())
def test_float64_digit_arrays_match_the_int64_product(net, data):
    digits, tails = point_digit_arrays(net)
    want_digits, want_tails = int64_digit_arrays(net)
    assert digits.dtype == tails.dtype == np.int64
    assert np.array_equal(digits, want_digits) and np.array_equal(tails, want_tails)
    lo = data.draw(st.integers(0, net.n_points - 1), label="lo")
    rows = slice(lo, data.draw(st.integers(lo, net.n_points), label="hi"))
    got = point_digit_arrays(net, rows)
    assert np.array_equal(got[0], want_digits[rows]) and np.array_equal(got[1], want_tails[rows])


def test_float64_digit_arrays_bound():
    # m (b - 1)^2 < 2^53 keeps every entry of the product exact
    b = (1 << 26) + 1  # (b - 1)^2 = 2^52
    below = DigitalNet(b, (np.array([[b - 1], [b - 2]]),), (np.array([b - 1]),))
    digits, tails = point_digit_arrays(below, slice(b - 3, None))
    assert digits[:, 0].tolist() == [[(k * (b - 1)) % b, (k * (b - 2)) % b] for k in range(b - 3, b)]
    assert tails[:, 0].tolist() == [(k * (b - 1)) % b for k in range(b - 3, b)]
    past = DigitalNet(b, (np.array([[b - 1, 1]]),))  # m (b - 1)^2 = 2^53
    with pytest.raises(ValueError, match="2\\^53"):
        point_digit_arrays(past, slice(0, 2))


def test_points_csv_from_digit_arrays_matches_per_point_writer():
    tailed = DigitalNet(3, (np.array([[1, 2], [0, 1], [2, 2]]),), (np.array([2, 1]),))
    nets = [
        symmetrize_matrices(hammersley_matrices(2, 3, 6)),
        symmetrize_matrices(hammersley_matrices(3, 2, 4)),
        symmetrize_matrices(hammersley_matrices(5, 1, 3)),
        tailed,
        truncated_sym_hammersley(3, 2, 6),
        truncated_sym_hammersley(2, 2, 45),  # den 2^45: numerators in python ints
    ]
    for net in nets:
        pts = enumerate_points(net)
        with no_point_objects():  # written without building a point object
            text = csv_text(pts)
        assert text == per_point_csv(eager_points(net))


def test_points_csv_over_several_blocks_matches_per_point_writer():
    # each block of rows comes from its own digit arrays: the cells must not
    # change where a block starts
    from badicnet.nets import _ROW_BLOCK
    from badicnet.rkhs import random_digital_shift

    net = symmetrize_matrices(hammersley_matrices(2, 9, 11))  # 2048 points, two blocks
    tailed = DigitalNet(3, (np.array([[1, 2, 0, 1, 2, 0, 1], [0, 1, 1, 2, 0, 1, 2]]),), (np.array([2, 1, 0, 2, 1, 0, 2]),))
    shifted = random_digital_shift(enumerate_points(net), 5)
    for pts in (enumerate_points(net), enumerate_points(tailed), shifted):
        assert len(pts) > _ROW_BLOCK
        digits, tails = pts.digit_arrays()
        for rows in (slice(0, _ROW_BLOCK), slice(_ROW_BLOCK, 2 * _ROW_BLOCK), slice(len(pts) - 3, None)):
            got = pts.digit_arrays(rows)
            assert np.array_equal(got[0], digits[rows]) and np.array_equal(got[1], tails[rows])
        assert csv_text(pts) == per_point_csv(list(pts))


@pytest.mark.parametrize(
    "net, distinct",  # at most this many distinct values per coordinate
    [
        # each value repeats 3 times per coordinate, 3^6 or 3^5 rows apart, across blocks
        (symmetrize_matrices(hammersley_matrices(3, 5, 7)), 3**6),
        (hammersley_matrices(2, 11, 13), 2**11),  # every value distinct
        (truncated_sym_hammersley(2, 2, 45), 2**3),  # den 2^45: numerators in python ints
    ],
)
def test_deduplicated_csv_matches_per_point_writer(net, distinct):
    from badicnet.nets import _ROW_BLOCK, point_numerators

    pts = enumerate_points(net)
    nums, _ = point_numerators(pts)
    counts = [len(set(col)) for col in nums.T.tolist()]
    assert max(counts) <= distinct and (min(counts) == len(pts)) == (distinct == len(pts))
    with no_point_objects():
        text = csv_text(pts)
    assert text == per_point_csv(eager_points(net))
    blocks = {}
    for i, v in enumerate(nums[:, 0].tolist()):
        blocks.setdefault(v, set()).add(i // _ROW_BLOCK)
    crosses = any(len(seen) > 1 for seen in blocks.values())  # a value repeats in another block
    assert crosses == (distinct < len(pts) > _ROW_BLOCK)


def test_point_set_past_int64_matches_projection():
    # den 2^45 without tails; den 4 * 5^25 with tails and values past 2^53
    for net in (truncated_sym_hammersley(2, 2, 45), symmetrize_matrices(hammersley_matrices(5, 1, 25))):
        ps = to_point_set(net)
        assert ps.den > 1 << 40 and ps.nums.dtype == object
        want = [tuple(project_pi(c) for c in z.coords) for z in enumerate_points(net)]
        assert ps.fractions() == want


def test_closed_form_families_reject_degenerate_parameters():
    for family in (hammersley_point_set, sym_hammersley_points):
        with pytest.raises(ValueError, match="need m >= 1"):
            family(2, 0)
        with pytest.raises(ValueError, match="base must be >= 2"):
            family(1, 2)
