"""Digit group arithmetic, projection, and the canonical section."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from badicnet import (
    DigitalNet,
    GElement,
    GVector,
    delta_digit_sum,
    dual_contains,
    g_add,
    g_sub,
    in_E,
    PointSet2,
    int_digits,
    is_prime,
    minimal_precision,
    net_from_json,
    net_to_json,
    project_pi,
    section_sigma,
    walsh_exponent,
)
from badicnet.badic import add_mod, digit_values, first_nonzero_position, frequency_digits, linear_table, mod_product, rows_in_E
from badicnet.dual import dual_members, rank_mod_p
from badicnet.nets import NetPoints
from badicnet.walsh import character, residue_counts, sums_vanish, walsh_eval
from oracles import (
    character_loop,
    csv_text,
    dual_contains_loop,
    first_nonzero_loop,
    g_add_loop,
    g_neg,
    g_sub_loop,
    gv_add,
    gv_sub,
    in_E_loop,
    project_pi_loop,
    section_sigma_loop,
    walsh_eval_loop,
    walsh_exponent_loop,
)


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13


def test_int_digits_examples():
    assert int_digits(11, 2) == (1, 1, 0, 1)
    assert int_digits(0, 5) == ()
    assert int_digits(2**64, 2) == (0,) * 64 + (1,)
    with pytest.raises(ValueError, match="base"):
        int_digits(3, 1)
    with pytest.raises(TypeError):
        int_digits(1.0, 2)


@given(st.integers(-(2**200), 2**200), st.integers(2, 40))
def test_int_digits_rebuild_k(k, b):
    if k < 0:
        with pytest.raises(ValueError, match="negative"):
            int_digits(k, b)
        return
    digits = int_digits(k, b)
    assert sum(d * b**i for i, d in enumerate(digits)) == k
    assert all(type(d) is int and 0 <= d < b for d in digits)
    assert not digits or digits[-1] != 0
    assert k == 0 or b ** (len(digits) - 1) <= k < b ** len(digits)


def test_element_digit_reads_tail_beyond_precision():
    # W_k at k = 3^(i-1) is omega to the digit at position i
    z = GElement(3, (2, 0, 1), tail=2)
    assert [character(3 ** (i - 1), z).e for i in range(1, 6)] == [2, 0, 1, 2, 2]
    assert z.precision == 3


def test_element_digits_must_be_integers():
    # a digit 1.5 was compared with the base and stored as given
    with pytest.raises(ValueError, match="digits holds 1.5"):
        GElement(3, (1.5, 0))
    with pytest.raises(ValueError, match="digits holds true"):
        GElement(3, (0,), True)
    z = GElement(3, np.array([2, 0], dtype=np.uint8), np.int64(1))
    assert z == GElement(3, (2, 0), 1) and [type(d) for d in (*z.digits, z.tail)] == [int, int, int]


def test_add_with_constant_sequence():
    z = GElement(3, (2, 1), 0)
    e2 = GElement.constant(3, 2, 2)
    r = g_add(z, e2)
    assert r.digits == (1, 0)
    assert r.tail == 2


def test_sub_wraps_digits():
    r = g_sub(GElement(3, (0, 1)), GElement(3, (2, 2)))
    assert r.digits == (1, 2)
    assert r.tail == 0


def test_mixed_precision_rejected():
    with pytest.raises(ValueError, match="incompatible elements"):
        g_add(GElement(2, (1,)), GElement(2, (1, 0)))
    with pytest.raises(ValueError, match="incompatible elements"):
        g_add(GElement(2, (1,)), GElement(3, (1,)))


def test_projection_includes_geometric_tail():
    # digits 1,0 then constant 1 tail: 1/2 + 1/8 + 1/16 + ... = 3/4
    assert project_pi(GElement(2, (1, 0), tail=1)) == Fraction(3, 4)
    assert project_pi(GElement.constant(2, 3, 1)) == 1
    assert project_pi(GElement.zero(5, 4)) == 0


def test_section_extracts_canonical_digits():
    z = section_sigma(Fraction(3, 8), 2, 4)
    assert z.digits == (0, 1, 1, 0)
    assert z.tail == 0
    # digits past int64 stay Python ints
    b = 2**64 + 13
    for x, digits in ((Fraction(5, b), (5, 0)), (Fraction(b - 1, b), (b - 1, 0))):
        z = section_sigma(x, b, 2)
        assert (z.digits, z.tail) == (digits, 0)


def test_section_of_one_is_the_top_constant():
    z = section_sigma(1, 3, 2)
    assert z.digits == (2, 2)
    assert z.tail == 2


def test_section_finds_constant_tails():
    # x = 5/12 repeats with period 2 in base 2, never constant
    with pytest.raises(ValueError, match="unsupported expansion"):
        section_sigma(Fraction(5, 12), 2, 6)
    # 1/2 = sum 3^-i is the constant-1 sequence in base 3
    z = section_sigma(Fraction(1, 2), 3, 2)
    assert z.digits == (1, 1) and z.tail == 1
    # a value that needs more than 4096 digits
    assert section_sigma(Fraction(1, 2**5000), 2, 5001).digits[4999:] == (1, 0)


def test_section_rejects_out_of_range():
    with pytest.raises(ValueError, match="unsupported expansion"):
        section_sigma(Fraction(3, 2), 2, 4)


def test_minimal_precision_examples():
    assert minimal_precision(Fraction(3, 8), 2) == 3
    assert minimal_precision(Fraction(3, 4), 2) == 2
    assert minimal_precision(Fraction(1, 2), 3) == 1  # constant-1 tail
    assert minimal_precision(0, 2) == 1
    assert minimal_precision(1, 7) == 1
    assert minimal_precision(Fraction(1, 3), 3) == 1
    with pytest.raises(ValueError, match="unsupported expansion"):
        minimal_precision(Fraction(1, 3), 2)
    # the search runs to the bit length of the denominator, past any fixed limit
    assert minimal_precision(Fraction(1, 2**5000), 2) == 5000
    assert minimal_precision(Fraction(1, 3**4000), 3) == 4000
    with pytest.raises(ValueError, match="unsupported expansion"):
        minimal_precision(Fraction(1, 2**5000 * 7), 2)


def test_digit_sum_and_zero_sum_set():
    assert delta_digit_sum(3, 2) == 2
    assert delta_digit_sum(5, 3) == 3
    assert in_E(3, 2)
    assert in_E(5, 3)
    assert not in_E(1, 2)
    assert in_E(0, 4)


def test_first_nonzero_position_scans_into_tail():
    assert first_nonzero_position(GElement.zero(2, 3)) is None
    assert first_nonzero_position(GElement(2, (0, 1, 0))) == 2
    assert first_nonzero_position(GElement(2, (0, 0, 0), tail=1)) == 4


def test_vector_ops_are_coordinatewise():
    z = GVector((GElement(2, (1, 0)), GElement(2, (0, 1))))
    w = GVector((GElement(2, (1, 1)), GElement(2, (0, 1))))
    assert gv_add(z, w).coords[0].digits == (0, 1)
    assert gv_sub(z, w).coords[1].digits == (0, 0)
    assert z.s == 2 and z.base == 2 and z.precision == 2


# ---------------------------------------------------------------------------
# properties

elements = st.integers(2, 7).flatmap(
    lambda b: st.tuples(
        st.lists(st.integers(0, b - 1), min_size=1, max_size=8),
        st.integers(0, b - 1),
        st.just(b),
    )
)


def _mk(spec) -> GElement:
    digits, tail, b = spec
    return GElement(b, tuple(digits), tail)


@given(elements, st.data())
def test_group_laws(spec, data):
    z = _mk(spec)
    b, n = z.base, z.precision
    w = GElement(
        b,
        tuple(data.draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n))),
        data.draw(st.integers(0, b - 1)),
    )
    zero = GElement.zero(b, n)
    assert g_add(z, zero) == z
    assert g_add(z, w) == g_add(w, z)
    assert g_add(z, g_neg(z)) == zero
    assert g_sub(g_add(z, w), w) == z


@given(elements)
def test_binary_complement_mirrors_projection(spec):
    z = _mk(spec)
    if z.base != 2:
        return
    flipped = g_add(z, GElement.constant(2, z.precision, 1))
    assert project_pi(z) + project_pi(flipped) == 1


@given(elements)
def test_projection_stays_in_unit_interval(spec):
    z = _mk(spec)
    assert 0 <= project_pi(z) <= 1


@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(1, 6))
def test_section_inverts_projection(num, b, extra):
    x = Fraction(num % (b**3), b**3)
    n = minimal_precision(x, b)
    z = section_sigma(x, b, n + extra)
    assert project_pi(z) == x


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 10, 257, 2**64 + 13]), st.data())
def test_scalar_entries_match_their_loops(b, data):
    # g_add, g_sub, character, project_pi, first_nonzero_position and
    # section_sigma are one-row calls of add_mod, walsh._exponents,
    # numerators, first_positions and canonical_digits
    n = data.draw(st.integers(1, 6), label="n")
    digit = st.integers(0, b - 1) | st.sampled_from([0, b - 1])
    z, w = (GElement(b, tuple(data.draw(st.lists(digit, min_size=n, max_size=n), label="digits")), data.draw(digit, label="tail")) for _ in "zw")
    assert g_add(z, w) == g_add_loop(z, w) and g_sub(z, w) == g_sub_loop(z, w)
    k = data.draw(st.integers(0, b ** (n + 2)), label="frequency")
    assert character(k, z) == character_loop(k, z)
    assert project_pi(z) == project_pi_loop(z)
    assert first_nonzero_position(z) == first_nonzero_loop(z)
    # the value of z, a few of its neighbours, and values past [0, 1]
    x = project_pi_loop(z) + data.draw(st.sampled_from([0, 0, Fraction(1, 3), Fraction(-1, 7), Fraction(1, b**n), 1]), label="step")
    precision = data.draw(st.integers(1, n + 3), label="precision")
    assert outcome(section_sigma, x, b, precision) == outcome(section_sigma_loop, x, b, precision)
    if 0 <= x <= 1 and (x * b**n * (b - 1)).denominator == 1:
        k = data.draw(st.integers(0, b ** (n + 1)), label="k")
        assert walsh_eval(k, x, b) == walsh_eval_loop(k, x, b)


@given(st.integers(2, 7), st.integers(0, 5000), st.integers(0, 5000))
def test_digit_sum_additive_without_carries(b, k1, k2):
    # digitwise sum mod b of disjoint-support numbers adds digit sums mod b
    shifted = k2 * b ** len(int_digits(k1, b))
    total = k1 + shifted
    assert delta_digit_sum(total, b) == delta_digit_sum(k1, b) + delta_digit_sum(shifted, b)


def frequency_digits_by_int_digits(ks, base, s, depth):
    """frequency_digits as it was: one int_digits per component, copied
    into a zero array wide enough for the longest."""
    expansions = [[int_digits(kj, base) for kj in k] for k in ks]
    d = max([depth] + [len(e) for k in expansions for e in k])
    out = np.zeros((len(ks), s, d), dtype=np.int64)
    for t, k in enumerate(expansions):
        for j, e in enumerate(k):
            out[t, j, : len(e)] = e
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 11), st.integers(1, 3), st.integers(0, 12), st.data())
def test_array_frequency_digits_match_int_digits(b, s, depth, data):
    # components on both sides of 2^63, where the array switches to Python ints
    component = st.one_of(st.integers(0, b**6), st.integers(2**63 - 3, 2**63 + 3), st.integers(0, 2**80))
    ks = data.draw(st.lists(st.tuples(*[component] * s), max_size=6), label="ks")
    got = frequency_digits(ks, b, s, depth)
    want = frequency_digits_by_int_digits(ks, b, s, depth)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_frequency_digits_reject_what_int_digits_rejects():
    with pytest.raises(ValueError, match="incompatible elements"):
        frequency_digits([(1, 2), (3,)], 2, 2, 4)  # ragged
    with pytest.raises(ValueError, match="incompatible elements"):
        frequency_digits([(1, 2, 3)], 2, 2, 4)
    with pytest.raises(ValueError, match="negative"):
        frequency_digits([(1, -1)], 2, 2, 4)
    with pytest.raises(ValueError, match="negative"):
        frequency_digits([(0, -(2**70))], 3, 2, 4)
    with pytest.raises(ValueError, match="base"):
        frequency_digits([(1,)], 1, 1, 4)
    with pytest.raises(TypeError):
        frequency_digits([(1.5,)], 2, 1, 4)  # operator.index, as int_digits
    # too deep for the net's digit rows: n = 3 rows hold k < 2^3
    net = DigitalNet(2, (np.eye(3, 2, dtype=np.int64),))
    assert dual_members(net, frequency_digits([(7,)], 2, 1, 3)).shape == (1,)
    with pytest.raises(ValueError, match="exceed matrix rows"):
        dual_members(net, frequency_digits([(8,)], 2, 1, 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 11), st.integers(1, 3), st.integers(0, 70), st.data())
def test_digit_values_invert_frequency_digits(b, s, depth, data):
    # components on both sides of 2^63, and depths on both sides of b^d = 2^63
    component = st.one_of(st.integers(0, b**6), st.integers(2**63 - 3, 2**63 + 3), st.integers(0, 2**80))
    ks = data.draw(st.lists(st.tuples(*[component] * s), max_size=6), label="ks")
    digits = frequency_digits(ks, b, s, depth)
    got = digit_values(digits, b)
    assert got.shape == (len(ks), s)
    assert got.dtype == (np.int64 if b ** digits.shape[-1] <= 2**63 else object)
    assert got.tolist() == [list(k) for k in ks]


def test_digit_values_switch_to_python_ints_past_2_63():
    # keys of b^d <= 2^63 all fit in int64: the largest is b^d - 1
    for b, d, dtype in [(2, 63, np.int64), (2, 64, object), (3, 39, np.int64), (3, 40, object)]:
        rows = np.zeros((3, d), dtype=np.uint8)
        rows[1, -1] = b - 1
        rows[2] = b - 1
        keys = digit_values(rows, b)
        assert keys.dtype == dtype
        assert keys.tolist() == [0, (b - 1) * b ** (d - 1), b**d - 1]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 11), st.integers(1, 3), st.data())
def test_rows_in_E_match_the_digit_sums(b, s, data):
    # components on both sides of 2^63, where the digits switch to Python ints
    component = st.one_of(st.integers(0, b**6), st.integers(2**63 - 3, 2**63 + 3), st.integers(0, 2**80))
    ks = data.draw(st.lists(st.tuples(*[component] * s), max_size=8), label="ks")
    got = rows_in_E(frequency_digits(ks, b, s, 0), b)
    assert got.dtype == bool and got.shape == (len(ks),)
    assert got.tolist() == [all(sum(int_digits(kj, b)) % b == 0 for kj in k) for k in ks]
    assert [in_E(k[0], b) for k in ks] == [sum(int_digits(k[0], b)) % b == 0 for k in ks]


def test_in_E_does_not_wrap_past_int64():
    # the digits b - 1, b - 1 and 2 sum to 2b, past int64 at this base
    b = 2**62 + 135
    assert in_E(2 + (b - 1) * b + (b - 1) * b**2, b)
    assert not in_E(1 + (b - 1) * b + (b - 1) * b**2, b)
    assert rows_in_E(frequency_digits([(2 + (b - 1) * b + (b - 1) * b**2, 0), (b - 1, 1)], b, 2, 0), b).tolist() == [True, False]


@pytest.mark.parametrize("b", [2, 3, 2**62 + 135, 2**63, 2**63 + 29, 2**64 + 13], ids=["2", "3", "2^62+135", "2^63", "2^63+29", "2^64+13"])
def test_one_row_entries_match_their_loops_at_every_base(b):
    # at 2^64 + 13, dual_contains(net, (b - 2, 1)) and in_E(0, b) and, at
    # 2^63 + 29, in_E(b - 1, b) raised OverflowError: residues were cast to int64
    rng = random.Random(b)

    def digit():
        return rng.choice([0, 1, b - 2, b - 1, rng.randrange(b)]) % b

    def value(digits):
        return sum(d * b**i for i, d in enumerate(digits))

    C = np.array([[digit() for _ in range(2)] for _ in range(2)], dtype=object)
    net = DigitalNet(b, (C, np.eye(2, dtype=np.int64)))
    ks = [(b - 2, 1), (value([b - 1, 1]), value([1, b - 1]))]
    for miss in (0, 1, 0, 1, 0, 1):  # the second component cancels the image of the first, or misses by one
        d = [digit(), digit()]
        ks.append((value(d), value([(miss * (l == 0) - sum(x * c for x, c in zip(d, col))) % b for l, col in enumerate(C.T.tolist())])))
    members = [dual_contains_loop(net, k) for k in ks]
    assert True in members and False in members
    assert [dual_contains(net, k) for k in ks] == members
    assert dual_members(net, frequency_digits(ks, b, 2, 2)).tolist() == members
    flat = [kj for k in ks for kj in k] + [0, b - 1, value([1, b - 1]), value([b - 1, b - 1, 2]), value([digit() for _ in range(4)])]
    in_e = [in_E_loop(k, b) for k in flat]
    assert True in in_e and False in in_e
    assert [in_E(k, b) for k in flat] == in_e
    assert rows_in_E(frequency_digits([(k,) for k in flat], b, 1, 0), b).tolist() == in_e
    for _ in range(8):
        z, w = (GElement(b, (digit(), digit(), digit()), digit()) for _ in "zw")
        assert g_add(z, w) == g_add_loop(z, w) and g_sub(z, w) == g_sub_loop(z, w)
        k = value([digit() for _ in range(rng.randrange(6))])
        assert character(k, z) == character_loop(k, z)
        x = rng.choice([project_pi_loop(z), Fraction(digit(), b), 1])
        assert walsh_exponent(k, x, b) == walsh_exponent_loop(k, x, b)


def test_in_E_rejects_what_int_digits_rejects():
    assert in_E(2**64 + 2**63, 2) and not in_E(2**64 + 1 + 2**70, 2)
    with pytest.raises(ValueError, match="negative"):
        in_E(-3, 2)
    with pytest.raises(ValueError, match="base"):
        in_E(3, 1)
    with pytest.raises(TypeError):
        in_E(1.5, 2)
    assert rows_in_E(frequency_digits([], 3, 2, 0), 3).shape == (0,)


@st.composite
def digit_matrices(draw, bases, rows, width):
    """A base and a (rows, width) array of digits in it, each size drawn
    from its range."""
    b = draw(st.sampled_from(bases), label="b")
    shape = (draw(st.integers(*rows), label="rows"), draw(st.integers(*width), label="width"))
    flat = draw(st.lists(st.integers(0, b - 1), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return b, np.array(flat, dtype=np.int64).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(digit_matrices([2, 3, 4, 5, 6, 7], (0, 4), (0, 4)))
@example((257, np.array([[1, 256, 0], [256, 256, 3]])))
@example((2, np.zeros((0, 3), dtype=np.int64)))
@example((3, np.zeros((2, 0), dtype=np.int64)))
@example((2**62, np.zeros((0, 3), dtype=np.int64)))  # one zero row, no multiples of b entries
# both sides of the uint8 and uint16 bounds on 2(b - 1), digits b - 1 and 1
@example((128, np.array([[1, 127, 0], [127, 127, 3]])))
@example((129, np.array([[1, 128, 0], [128, 128, 3]])))
@example((256, np.array([[1, 255, 0], [255, 255, 3]])))
def test_linear_table_matches_the_digit_expansion(case):
    b, rows = case
    k, c = rows.shape
    table = linear_table(rows, b)
    assert table.shape == (b**k, c) and table.dtype == np.min_scalar_type(2 * (b - 1))
    for v in range(b**k):
        digits = int_digits(v, b) + (0,) * k
        assert table[v].tolist() == [sum(digits[i] * int(rows[i, j]) for i in range(k)) % b for j in range(c)]


_ADD_MOD_TOP = {np.uint8: 128, np.uint16: 2**15, np.uint64: 2**63 - 25, np.int64: 2**63 - 25}


@st.composite
def residue_pairs(draw):
    """A dtype, a base whose 2(b - 1) the dtype's unsigned view holds (up
    to 2^63 - 25 in 64 bits), and residues x and y of that dtype in it,
    y's shape broadcasting against x's."""
    dtype = draw(st.sampled_from(list(_ADD_MOD_TOP)), label="dtype")
    top = _ADD_MOD_TOP[dtype]
    b = draw(st.sampled_from([2, 3, top - 1, top]) | st.integers(2, top), label="b")
    shape = (draw(st.integers(0, 4), label="rows"), draw(st.integers(1, 4), label="cols"))
    y_shape = draw(st.sampled_from([shape, (1, shape[1]), (shape[1],), (shape[0], 1), ()]), label="y_shape")
    digit = st.sampled_from([0, b - 1]) | st.integers(0, b - 1)
    x, y = (np.array(draw(st.lists(digit, min_size=math.prod(sh), max_size=math.prod(sh))), dtype=dtype).reshape(sh) for sh in (shape, y_shape))
    return b, x, y


@settings(max_examples=200, deadline=None)
@given(residue_pairs())
def test_add_mod_matches_python_int_sums(case):
    b, x, y = case
    want = [[(int(u) + int(v)) % b for u, v in zip(xr, yr)] for xr, yr in zip(x.tolist(), np.broadcast_to(y, x.shape).tolist())]
    y_before, dtype = y.copy(), x.dtype
    assert add_mod(x, y, b) is x
    assert x.dtype == dtype and x.tolist() == want
    assert y.dtype == dtype and np.array_equal(y, y_before)


@st.composite
def digit_products(draw):
    """A base, (T, K) digits and (K, c) rows in it, on both sides of the
    int64 bound K (b - 1)^2 < 2^63."""
    b, rows = draw(digit_matrices([2, 3, 257, 2**31 - 1, 2**32 + 15], (0, 5), (0, 5)))
    _, digits = draw(digit_matrices([b], (0, 4), (len(rows), len(rows))))
    return b, digits, rows


@settings(max_examples=150, deadline=None)
@given(digit_products())
@example((2**32 + 15, np.full((3, 1), 2**32 + 14), np.full((1, 2), 2**32 + 14)))  # (b - 1)^2 > 2^63: int64 wraps
def test_mod_product_matches_python_int_sums(case):
    b, digits, rows = case
    got = mod_product(digits, rows, b)
    assert got.dtype == np.int64 and got.shape == (len(digits), rows.shape[1])
    assert got.tolist() == [[sum(int(d) * int(r) for d, r in zip(v, col)) % b for col in rows.T] for v in digits]


# ---------------------------------------------------------------------------
# the integer gate

_INTEGER_FORMS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64, list, object)
_SPOILS = ("float", "half", "bool", "str", "shape", "negative", "past")


@st.composite
def gated_values(draw):
    """A prime base b and an int64 value for every gated entry, small
    enough for int8: the (s, n, m) matrices and (s, m) tail rows of a net
    over b, an (s, n) shift, n + 1 GElement digits, a PointSet2 den and
    its (N, 2) numerators, (T, b) residue counts and the (T, s, n) digits
    of T frequency vectors."""
    b = draw(st.sampled_from([2, 3, 5]), label="b")
    s, n, m = (draw(st.integers(1, top)) for top in (2, 3, 3))

    def ints(shape, top):
        size = math.prod(shape)
        return np.array(draw(st.lists(st.integers(0, top - 1), min_size=size, max_size=size)), dtype=np.int64).reshape(shape)

    den = draw(st.integers(1, 120), label="den")
    rows = draw(st.integers(1, 4), label="rows")
    return {
        "b": b,
        "matrices": ints((s, n, m), b),
        "tail_rows": ints((s, m), b),
        "shift": ints((s, n), b),
        "digits": ints((n + 1,), b),
        "den": den,
        "nums": ints((rows, 2), den + 1),
        "counts": ints((rows, b), 100),
        "frequencies": ints((rows, s, n), b),
    }


def gated_entries(v):
    """(name, value, bound, read) of every gated entry.  read(x) puts x in
    the entry's place, the drawn values in every other, and returns what a
    caller sees: stored arrays, their dtype and write flag, net JSON and
    point CSV text.  bound is the exclusive top of the entry's range,
    math.inf for a lower bound only, None for entries of any sign."""
    b, mats, tails, den, nums = v["b"], v["matrices"], v["tail_rows"], v["den"], v["nums"]
    net = DigitalNet(b, tuple(mats), tuple(tails))
    digits, point_tails = NetPoints(net).digit_arrays()

    def seen_net(x):
        return net_to_json(x), [(a.dtype, a.flags.writeable) for a in (*x.matrices, *(x.tail_rows or ()))], type(x.base), type(x.sym_columns)

    def seen_points(pts):
        return csv_text(pts), pts.shift.dtype, pts.shift.flags.writeable

    def seen_point_set(ps):
        return ps.nums.tolist(), ps.nums.dtype, ps.nums.flags.writeable, ps.den, type(ps.den)

    def from_json(x):
        doc = {"base": b, "s": net.s, "m": net.m, "n": net.n, "matrices": np.array(x, dtype=object).tolist()}
        return seen_net(net_from_json(json.dumps(doc)))

    def element(x):
        z = GElement(b, x, int(v["digits"][0]))
        return z, [type(d) for d in (*z.digits, z.tail)]

    return [
        ("base", b, math.inf, lambda x: seen_net(DigitalNet(x, net.matrices, net.tail_rows))),
        ("sym_columns", 0, math.inf, lambda x: seen_net(DigitalNet(b, net.matrices, net.tail_rows, sym_columns=x))),
        ("matrices", mats, b, lambda x: seen_net(DigitalNet(b, tuple(x), net.tail_rows))),
        ("tail_rows", tails, b, lambda x: seen_net(DigitalNet(b, net.matrices, x))),
        ("net JSON", mats, b, from_json),
        ("shift", v["shift"], b, lambda x: seen_points(NetPoints(net, x))),
        ("numerators", nums, den + 1, lambda x: seen_point_set(PointSet2(x, den))),
        ("den", den, math.inf, lambda x: seen_point_set(PointSet2(nums, x))),
        ("GElement digits", v["digits"], b, element),
        ("rank_mod_p", mats[0], None, lambda x: rank_mod_p(x, b)),
        ("sums_vanish", v["counts"], None, lambda x: sums_vanish(x, b).tolist()),
        ("dual_members", v["frequencies"], b, lambda x: dual_members(net, x).tolist()),
        ("rows_in_E", v["frequencies"], b, lambda x: rows_in_E(x, b).tolist()),
        ("residue_counts", v["frequencies"], b, lambda x: residue_counts(digits, point_tails, x, b).tolist()),
        ("residue_counts points", digits, b, lambda x: residue_counts(x, point_tails, v["frequencies"], b).tolist()),
    ]


def in_form(value, form):
    """The integers of an int64 array, or of an int, given as form: an
    array (for an int, a scalar) of a numpy integer dtype, nested lists
    (the int itself) or an object array of Python ints."""
    if isinstance(value, int):
        return value if form is list else np.array(value, dtype=object) if form is object else form(value)
    return value.tolist() if form is list else value.astype(form)


def spoiled(value, how, bound, at):
    """value with one flaw: all floats or all bools, a leaf at flat index
    at (mod size) made a fraction, a string, -1 or bound, or two more axes
    (a doubly nested list for an int)."""
    if how == "shape":
        return [[value]] if isinstance(value, int) else value[None, None]
    if how in ("float", "bool"):
        return (float if how == "float" else bool)(value) if isinstance(value, int) else value.astype(how)
    a = np.array(value, dtype=object)
    flat = a.reshape(-1)
    i = at % flat.size
    flat[i] = {"half": flat[i] + 0.5, "str": str(flat[i]), "negative": -1, "past": bound}[how]
    return a[()] if isinstance(value, int) else a


@settings(max_examples=40, deadline=None)
@given(gated_values(), st.data())
def test_integer_gate_on_every_entry(values, data):
    # the same integers in any integer form read alike; a float, bool or
    # string leaf, a wrong shape or an entry out of range is a ValueError
    for name, value, bound, read in gated_entries(values):
        form = data.draw(st.sampled_from(_INTEGER_FORMS), label=f"{name} form")
        assert read(in_form(value, form)) == read(value), name
        how = data.draw(st.sampled_from(_SPOILS), label=f"{name} flaw")
        if bound is None and how in ("negative", "past") or bound is math.inf and how == "past":
            continue
        bad = spoiled(value, how, bound, data.draw(st.integers(0, 99), label=f"{name} at"))
        with pytest.raises(ValueError):
            read(bad)
