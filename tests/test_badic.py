"""Digit group arithmetic, projection, and the canonical section."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from badicnet import (
    GElement,
    GVector,
    delta_digit_sum,
    g_add,
    g_sub,
    in_E,
    int_digits,
    is_prime,
    minimal_precision,
    project_pi,
    section_sigma,
)
from badicnet.badic import first_nonzero_position
from oracles import g_neg, gv_add, gv_sub


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
    z = GElement(3, (2, 0, 1), tail=2)
    assert [z.digit(i) for i in range(1, 6)] == [2, 0, 1, 2, 2]
    assert z.precision == 3


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
        minimal_precision(Fraction(1, 3), 2, limit=64)


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


@given(st.integers(2, 7), st.integers(0, 5000), st.integers(0, 5000))
def test_digit_sum_additive_without_carries(b, k1, k2):
    # digitwise sum mod b of disjoint-support numbers adds digit sums mod b
    shifted = k2 * b ** len(int_digits(k1, b))
    total = k1 + shifted
    assert delta_digit_sum(total, b) == delta_digit_sum(k1, b) + delta_digit_sum(shifted, b)
