"""Digital net construction, symmetrization, and point enumeration."""

import io
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from badicnet import (
    DigitalNet,
    PointSet2,
    enumerate_points,
    hammersley_matrices,
    hammersley_point_set,
    net_from_json,
    net_to_json,
    points_to_csv,
    sym_hammersley_points,
    symmetrize_matrices,
    to_point_set,
    truncated_sym_hammersley,
)
from badicnet import badic as badicmod, nets as netsmod
from badicnet.badic import GElement, GVector
from badicnet.nets import NetPoints
from oracles import (
    _index_digit_rows,
    csv_text,
    digital_nets,
    gv_add,
    gv_pi,
    hammersley_closed_form,
    no_point_objects,
    numpy_spy,
    per_point_csv,
    project_pi_loop,
    sym_hammersley_closed_form,
    symmetrize_points,
)


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


def test_point_set_rejects_points_outside_the_unit_square():
    # linf_star read 1.5 for the point (3/2, 1/2), past any local discrepancy
    for nums in ([[3, 1]], [[-1, 0]]):
        with pytest.raises(ValueError, match="outside the unit square"):
            PointSet2(np.array(nums), 2)
    assert PointSet2(np.array([[0, 2]], dtype=np.uint8), 2).n_points == 1  # the faces are in


def test_point_set_rejects_numerators_that_are_not_integers():
    # l2_star cast 0.5 and 0.25 to int64 and gave the value of the point (0, 0)
    for nums in (np.array([[0.5, 0.25]]), np.array([[Fraction(1, 2), 0]], dtype=object), np.array([[True, False]])):
        with pytest.raises(ValueError, match="numerators must be integers"):
            PointSet2(nums, 1)
    assert PointSet2(np.array([[1, 2**70]], dtype=object), 2**70).n_points == 1


def test_point_set_rejects_a_denominator_that_is_not_positive():
    # den = 0 was a ZeroDivisionError in the first value read, and den = True was read as 1
    for den in (0, -3, 1.0, Fraction(1), True):
        with pytest.raises(ValueError, match="den must be a positive integer"):
            PointSet2(np.array([[0, 0]]), den)


@pytest.mark.parametrize(
    "matrix, leaf",
    [(np.array([[1.5, 0], [0, 1]]), "1.5"), ([[True, 0], [0, 1]], "true"), ([["1", 0], [0, 1]], '"1"')],
    ids=["float", "bool", "string"],
)
def test_matrix_entries_must_be_integers(matrix, leaf):
    # an int64 cast stored [[1.5, 0], [0, 1]] as the identity
    with pytest.raises(ValueError, match=f"generating matrix holds {leaf}$"):
        DigitalNet(3, (matrix,))


def test_tail_rows_must_be_integers():
    # an int64 cast stored the tail row [0.7, 2.2] as [0, 2]
    with pytest.raises(ValueError, match="tail rows holds 0.7$"):
        DigitalNet(3, (np.eye(2, dtype=np.int64),), tail_rows=(np.array([0.7, 2.2]),))


def test_base_and_sym_columns_must_be_integers():
    # base 3.0 gave n_points 9.0, and sym_columns 1.5 was stored as given
    with pytest.raises(ValueError, match="base must be an integer: base holds 3.0"):
        DigitalNet(3.0, (np.eye(2, dtype=np.int64),))
    with pytest.raises(ValueError, match="sym_columns must be an integer: sym_columns holds 1.5"):
        DigitalNet(3, (np.eye(2, dtype=np.int64),), sym_columns=1.5)
    net = DigitalNet(np.int16(3), (np.eye(2, dtype=np.int64),), sym_columns=np.uint8(1))
    assert (type(net.base), type(net.sym_columns), net.n_points) == (int, int, 9)


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
    # the closed forms of the two families against the generating matrices,
    # as exact multisets, for every m with N <= 2^12
    for b in (2, 3, 5, 7):
        for family, closed_form, extra in (
            (hammersley_point_set, hammersley_closed_form, 0),
            (sym_hammersley_points, sym_hammersley_closed_form, 2),
        ):
            m = 1
            while b ** (m + extra) <= 1 << 12:
                got = family(b, m)
                assert got.den == b**m * (b - 1)
                assert Counter(got.fractions()) == Counter(closed_form(b, m).fractions()), (family.__name__, b, m)
                m += 1


def test_symmetrized_set_touches_the_right_endpoint():
    xs = {x for x, _ in sym_hammersley_points(2, 2).fractions()}
    assert Fraction(1) in xs
    assert Fraction(0) in xs


def test_hammersley_point_set_closed_form():
    F = Fraction
    assert sorted(hammersley_point_set(2, 2).fractions()) == [(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(3, 4), F(3, 4))]
    ps = hammersley_point_set(3, 2)
    assert ps.den == 18
    assert ps.fractions()[1:4] == [(F(1, 3), F(1, 9)), (F(2, 3), F(2, 9)), (F(1, 9), F(1, 3))]


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


def vectors(base, digits, tails):
    """GVectors of (N, s, n) digits and (N, s) tails, one point at a time."""
    return [
        GVector(tuple(GElement(base, tuple(int(d) for d in digits[i, j]), int(tails[i, j])) for j in range(digits.shape[1])))
        for i in range(digits.shape[0])
    ]


def eager_points(net):
    """enumerate_points as it was: the whole list of digit vectors at once."""
    return vectors(net.base, *int64_digit_arrays(net))


def test_net_points_agree_with_the_eager_list():
    tailed = DigitalNet(3, (np.array([[1, 2], [0, 1], [2, 2]]),), (np.array([2, 1]),))
    for net in (hammersley_matrices(2, 3), symmetrize_matrices(hammersley_matrices(3, 2, 4)), truncated_sym_hammersley(2, 2, 5), tailed):
        pts = enumerate_points(net)
        want = eager_points(net)
        assert isinstance(pts, NetPoints)
        assert len(pts) == len(want) == net.n_points
        # digit arrays come straight from the net, no objects are built
        with no_point_objects():
            for got, ref in zip(pts.digit_arrays(), int64_digit_arrays(net)):
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


def int64_digit_arrays(net, idx=None):
    """The digit arrays as they once were read: an int64 product per
    coordinate of the index digits, of every point or of the indices idx."""
    nu = _index_digit_rows(net.base, net.m, idx)
    digits = np.stack([(nu @ C.T) % net.base for C in net.matrices], axis=1)
    tails = np.zeros((len(nu), net.s), dtype=np.int64)
    if net.tail_rows is not None:
        tails = np.stack([(nu @ t) % net.base for t in net.tail_rows], axis=1)
    return digits, tails


@st.composite
def nets_and_row_slices(draw):
    """A random net over b in 2..7 with m in 0..9 index digits, with or
    without tail rows, and a slice of its indices.  The slice starts near a
    multiple of b^ceil(m/2), where the high half index of a point changes,
    and is short enough for the oracle at any N."""
    b, m = draw(st.integers(2, 7), label="b"), draw(st.integers(0, 9), label="m")
    s, n = draw(st.integers(1, 3), label="s"), draw(st.integers(1, 4), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    tails = list(rng.integers(0, b, size=(s, m))) if draw(st.booleans(), label="tails") else None
    net = DigitalNet(b, tuple(rng.integers(0, b, size=(s, n, m))), tails)
    N, half = b**m, b ** ((m + 1) // 2)
    edge = half * draw(st.integers(0, N // half), label="edge")
    lo = min(max(edge + draw(st.integers(-half - 2, half + 2), label="offset"), 0), N)
    hi = min(lo + draw(st.integers(0, 3 * half + 5), label="length"), N)
    step = draw(st.sampled_from([1, 1, 2, 3, -1]), label="step")
    if step > 0:
        rows = slice(lo, hi, step)
    elif hi > lo:
        rows = slice(hi - 1, lo - 1 if lo else None, -1)
    else:
        rows = slice(lo, lo)
    if N <= 4096 and draw(st.booleans(), label="whole"):
        rows = slice(None)
    return net, rows


@settings(max_examples=200, deadline=None)
@given(nets_and_row_slices(), st.data())
def test_indexing_matches_the_direct_product(net_rows, data):
    net, rows = net_rows
    idx = np.arange(*rows.indices(net.n_points))
    want_digits, want_tails = int64_digit_arrays(net, idx)
    assert NetPoints(net)[rows] == vectors(net.base, want_digits, want_tails)
    shift = np.array(data.draw(st.lists(st.integers(0, net.base - 1), min_size=net.s * net.n, max_size=net.s * net.n), label="shift"))
    shift = shift.reshape(net.s, net.n)
    shifted = vectors(net.base, (want_digits + shift) % net.base, want_tails)
    pts = NetPoints(net, shift)
    assert pts[rows] == shifted
    if len(idx):
        k = data.draw(st.integers(0, len(idx) - 1), label="k")
        assert pts[int(idx[k])] == pts[int(idx[k]) - net.n_points] == shifted[k]


@pytest.mark.parametrize("b", [2**62 + 135, 2**63 - 25])
def test_shift_adds_exactly_past_int64(b):
    # digit b - 1 plus shift b - 1 is 2b - 2, past int64 at both bases
    pts = NetPoints(DigitalNet(b, (np.array([[1], [0]]),)), np.array([[b - 1, 0]]))
    assert [z.digits for z in pts[b - 1].coords] == [(b - 2, 0)]
    assert [z.digits for z in pts[-1].coords] == [(b - 2, 0)]


def test_shift_must_be_digits_of_the_net():
    net = hammersley_matrices(3, 2)  # base 3, s = n = 2
    # a fraction, one row broadcast to every coordinate, digits past b - 1 and below 0
    for bad in ([[0.5, 0], [0, 0]], [1, 2], [[5, 0], [0, 0]], [[-1, 0], [0, 0]]):
        with pytest.raises(ValueError, match=r"shift must be a \(2, 2\) integer array of digits in \[0, 3\)"):
            NetPoints(net, np.array(bad))
    given_shift = np.array([[2, 0], [1, 1]], dtype=np.int32)
    pts = NetPoints(net, given_shift)
    given_shift[0, 0] = 0  # the points keep their own read-only int64 copy
    assert pts.shift.dtype == np.int64 and not pts.shift.flags.writeable
    assert pts.shift.tolist() == [[2, 0], [1, 1]]


@settings(max_examples=150, deadline=None)
@given(digital_nets(max_points=729), st.integers(1, 40))
def test_digit_blocks_match_the_direct_product_for_every_block_size(net, block):
    want_digits, want_tails = int64_digit_arrays(net)
    blocks = list(NetPoints(net).digit_blocks(block))
    assert len(blocks) == -(-net.n_points // block)
    assert all(len(d) == len(t) == block for d, t in blocks[:-1])
    digits = np.concatenate([d for d, _ in blocks])
    tails = np.concatenate([t for _, t in blocks])
    assert np.array_equal(digits, want_digits) and np.array_equal(tails, want_tails)
    assert list(NetPoints(net)) == vectors(net.base, want_digits, want_tails)


def test_digit_blocks_of_the_whole_net_build_two_tables(monkeypatch):
    tables, products = [], []
    linear_table, mod_product = netsmod.linear_table, netsmod.mod_product
    monkeypatch.setattr(netsmod, "linear_table", lambda rows, b: tables.append(b ** len(rows)) or linear_table(rows, b))
    monkeypatch.setattr(netsmod, "mod_product", lambda digits, *args: products.append(len(digits)) or mod_product(digits, *args))
    net = symmetrize_matrices(hammersley_matrices(3, 6, 8))  # 3^8 points, 7 blocks
    pts = enumerate_points(net)
    blocks = list(pts.digit_blocks())
    assert len(blocks) == 7 and tables == [3**4, 3**4] and products == []  # one table per half index, each over every half index
    digits, tails = int64_digit_arrays(net)
    assert np.array_equal(np.concatenate([d for d, _ in blocks]), digits)
    assert np.array_equal(np.concatenate([t for _, t in blocks]), tails)
    tables.clear()
    assert pts[5] == eager_points(net)[5]  # one point: one product of one row, no table
    assert tables == [] and products == [1]


@settings(max_examples=80, deadline=None)
@given(digital_nets(), st.data())
def test_float64_digit_arrays_match_the_int64_product(net, data):
    pts = NetPoints(net)
    digits, tails = pts.digit_arrays()
    want_digits, want_tails = int64_digit_arrays(net)
    assert digits.dtype == tails.dtype == np.int64
    assert np.array_equal(digits, want_digits) and np.array_equal(tails, want_tails)
    lo = data.draw(st.integers(0, net.n_points - 1), label="lo")
    rows = slice(lo, data.draw(st.integers(lo, net.n_points), label="hi"))
    assert pts[rows] == vectors(net.base, want_digits[rows], want_tails[rows])


def test_indexing_past_the_float64_bound_is_exact():
    # m (b - 1)^2 = 2^53: a float64 product of the index digits would round;
    # only indexing is read, since the blocks build tables of b rows
    b = (1 << 26) + 1
    net = DigitalNet(b, (np.array([[b - 1, 1]]),), (np.array([1, b - 1]),))
    assert net.m * (b - 1) ** 2 == 1 << 53
    pts = NetPoints(net)

    def want(i):  # in Python ints: index digits (nu_0, nu_1), the row and the tail row
        nu1, nu0 = divmod(i, b)
        return ((nu0 * (b - 1) + nu1) % b,), (nu0 + nu1 * (b - 1)) % b

    for i in [0, 1, b - 1, b, b * b - 2, b * b - 1, 12345678 * b + 7654321]:
        assert (pts[i].coords[0].digits, pts[i].coords[0].tail) == want(i)
    assert [(z.coords[0].digits, z.coords[0].tail) for z in pts[b * b - 3 :]] == [want(i) for i in range(b * b - 3, b * b)]
    # entries past 2^53: the float64 product of the last index rounds to digit 1
    b = 100000007
    last = NetPoints(DigitalNet(b, (np.array([[b - 1, b - 2]]),)))[-1]
    assert last.coords[0].digits == (((b - 1) * (b - 1) + (b - 1) * (b - 2)) % b,) == (3,)
    # m = 0: the one point's blocks are tables of one row at any base
    b = 1 << 40
    digits, tails = NetPoints(DigitalNet(b, (np.zeros((2, 0), dtype=np.int64),)), np.array([[b - 1, 1]])).digit_arrays()
    assert digits.tolist() == [[[b - 1, 1]]] and tails.tolist() == [[0]]


def test_points_csv_from_digit_arrays_matches_per_point_writer():
    tailed = DigitalNet(3, (np.array([[1, 2], [0, 1], [2, 2]]),), (np.array([2, 1]),))
    nets = [
        symmetrize_matrices(hammersley_matrices(2, 3, 6)),
        symmetrize_matrices(hammersley_matrices(3, 2, 4)),
        symmetrize_matrices(hammersley_matrices(5, 1, 3)),
        tailed,
        truncated_sym_hammersley(3, 2, 6),
        truncated_sym_hammersley(2, 2, 45),  # den 2^45: int64 numerators, exact float64 quotients
        truncated_sym_hammersley(3, 4, 32),  # den 2 3^32 < 2^53: quotients in float64
        truncated_sym_hammersley(3, 4, 34),  # den 2 3^34 > 2^53: quotients of Python ints
        truncated_sym_hammersley(2, 2, 63),  # den 2^63: numerators in Python ints
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
        blocks = list(pts.digit_blocks())
        for k, rows in enumerate((slice(0, _ROW_BLOCK), slice(_ROW_BLOCK, 2 * _ROW_BLOCK))):
            assert np.array_equal(blocks[k][0], digits[rows]) and np.array_equal(blocks[k][1], tails[rows])
        assert pts[len(pts) - 3 :] == vectors(pts.net.base, digits[-3:], tails[-3:])
        assert csv_text(pts) == per_point_csv(list(pts))


@pytest.mark.parametrize(
    "net, distinct",  # at most this many distinct values per coordinate
    [
        # each value repeats 3 times per coordinate, 3^6 or 3^5 rows apart, across blocks
        (symmetrize_matrices(hammersley_matrices(3, 5, 7)), 3**6),
        (hammersley_matrices(2, 11, 13), 2**11),  # every value distinct
        (truncated_sym_hammersley(2, 2, 45), 2**3),  # den 2^45: int64 numerators
        (truncated_sym_hammersley(3, 4, 32), 3**5),  # den 2 3^32 < 2^53: quotients in float64
        # den 2 3^34 > 2^53: a float64 quotient would change 175 of the 243 decimals
        (truncated_sym_hammersley(3, 4, 34), 3**5),
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


@st.composite
def net_points(draw):
    """The points of a random net (s = 1..3), shifted or not."""
    net = draw(digital_nets())
    shift = draw(st.none() | st.lists(st.integers(0, net.base - 1), min_size=net.s * net.n, max_size=net.s * net.n), label="shift")
    return NetPoints(net, None if shift is None else np.array(shift).reshape(net.s, net.n))


# shifted so that x1 takes 1/2 and 3/4, x2 takes 0 and 1/4
_DISJOINT = NetPoints(DigitalNet(2, (np.array([[0], [1]]), np.array([[0], [1]]))), np.array([[1, 0], [0, 0]]))
_FOUR_COORDINATES = NetPoints(symmetrize_matrices(DigitalNet(2, tuple(np.array([[1, 0], [j % 2, 1]]) for j in range(4)))))


@settings(max_examples=80, deadline=None)
@given(net_points())
@example(_DISJOINT)
@example(_FOUR_COORDINATES)
def test_points_csv_matches_per_point_writer(pts):
    # one table of formatted values serves every coordinate, whether the
    # coordinates share their values or not
    with no_point_objects():
        text = csv_text(pts)
    assert text == per_point_csv(list(pts))


def test_points_csv_examples_cover_disjoint_and_wide_nets():
    nums, _ = netsmod.point_numerators(_DISJOINT)
    assert not set(nums[:, 0].tolist()) & set(nums[:, 1].tolist())
    assert _FOUR_COORDINATES.net.s == 4


def test_point_set_past_int64_matches_projection():
    # den 2^45 without tails and den 4 * 5^25 with tails and values past
    # 2^53 keep int64 numerators; den 2^63 does not fit int64
    nets = [
        (truncated_sym_hammersley(2, 2, 45), np.int64),
        (symmetrize_matrices(hammersley_matrices(5, 1, 25)), np.int64),
        (truncated_sym_hammersley(2, 2, 63), object),
    ]
    for net, dtype in nets:
        ps = to_point_set(net)
        assert ps.nums.dtype == dtype and (ps.den < 1 << 63) == (dtype == np.int64)
        want = [tuple(project_pi_loop(c) for c in z.coords) for z in enumerate_points(net)]
        assert ps.fractions() == want


def test_point_set_and_csv_stay_in_int64_below_den_2_53():
    # pinned without timing: below den = 2^53 the only numpy calls that see
    # an object array are the integer gate reading den as a 0-d array and
    # the CSV building its table of cell strings
    for net in (truncated_sym_hammersley(2, 8, 41), truncated_sym_hammersley(3, 4, 25)):
        with numpy_spy(badicmod, netsmod) as spy:
            ps = to_point_set(net)
        assert ps.nums.dtype == np.int64 and spy.object_calls == ["array"]
        with numpy_spy(badicmod, netsmod) as spy:
            csv_text(enumerate_points(net))
        assert spy.object_calls == ["array"]


def test_net_points_refuse_more_points_than_an_index_holds():
    # len() of 2^63 points raised OverflowError wherever it was taken
    assert len(NetPoints(hammersley_matrices(2, 62))) == 2**62
    for net in (hammersley_matrices(2, 63), hammersley_matrices(3, 40)):
        with pytest.raises(ValueError, match=r"^net has \d+\^\d+ points, more than an index holds"):
            NetPoints(net)


def test_closed_form_families_reject_degenerate_parameters():
    for family in (hammersley_point_set, sym_hammersley_points):
        with pytest.raises(ValueError, match="need m >= 1"):
            family(2, 0)
        with pytest.raises(ValueError, match="base must be >= 2"):
            family(1, 2)
