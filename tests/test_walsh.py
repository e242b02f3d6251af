"""Character values, Walsh functions, and exact character sums."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badicnet import (
    CharacterSum,
    GElement,
    GVector,
    UnityExponent,
    character,
    DigitalNet,
    character_sum_over,
    delta_digit_sum,
    enumerate_points,
    hammersley_matrices,
    random_digital_shift,
    symmetrize_matrices,
    walsh_eval,
    walsh_exponent,
)
from badicnet.walsh import (
    character_exponent_table,
    compensated_sum,
    cyclotomic_coeffs,
)
from oracles import character_vec


def test_unity_exponent_normalizes_and_multiplies():
    w = UnityExponent(5, 7)
    assert w.e == 2
    assert (w * UnityExponent(5, 4)).e == 1
    assert w.conj().e == 3
    assert UnityExponent(2, 1).value == -1
    assert abs(UnityExponent(3, 1).value - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def test_character_on_constant_sequence_uses_digit_sum():
    # W_k(e_l) = omega^(l * digit sum of k)
    for b, k, l in [(2, 3, 1), (3, 4, 2), (3, 5, 1), (5, 19, 3)]:
        z = GElement.constant(b, 6, l)
        assert character(k, z).e == (l * delta_digit_sum(k, b)) % b


def test_character_example_base3():
    assert character(4, GElement.constant(3, 4, 2)).e == 1


def test_walsh_values_at_simple_points():
    assert walsh_eval(1, Fraction(1, 2), 2) == -1
    assert walsh_eval(0, Fraction(1, 4), 2) == 1
    w = walsh_eval(1, Fraction(1, 3), 3)
    assert abs(w - cmath.exp(2j * cmath.pi / 3)) < 1e-15
    # k = 2 reads the same digit with weight 2
    assert walsh_exponent(2, Fraction(1, 3), 3).e == 2


def test_walsh_of_one_matches_constant_sequence():
    # x = 1 maps to e_{b-1}; exponent is (b-1) * digit sum
    assert walsh_exponent(5, 1, 3).e == (2 * delta_digit_sum(5, 3)) % 3


def test_character_is_homomorphism_on_fixed_cases():
    z = GElement(3, (1, 2, 0), 1)
    w = GElement(3, (2, 2, 1), 2)
    from badicnet import g_add

    for k in range(1, 30):
        lhs = character(k, g_add(z, w))
        rhs = character(k, z) * character(k, w)
        assert lhs.e == rhs.e


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_character_sum_zero_tests_are_exact():
    # full orbit of omega_b sums to zero
    for b in (2, 3, 4, 5, 6):
        assert CharacterSum(b, tuple([1] * b)).is_zero()
    # composite base: proper sub-sums can vanish too
    assert CharacterSum(6, (1, 0, 1, 0, 1, 0)).is_zero()  # cube roots inside 6th roots
    assert CharacterSum(6, (1, 0, 0, 1, 0, 0)).is_zero()  # omega^3 = -1
    assert CharacterSum(6, (0, 1, 0, 0, 1, 0)).is_zero()  # omega^4 = -omega
    assert not CharacterSum(6, (1, 1, 0, 0, 0, 0)).is_zero()
    assert not CharacterSum(5, (1, 1, 1, 1, 0)).is_zero()


def test_character_sum_integer_identity():
    cs = CharacterSum(3, (4, 1, 1))
    assert cs.equals_int(3)
    assert not cs.equals_int(4)
    assert cs.total == 6
    assert abs(cs.value - 3.0) < 1e-12
    assert CharacterSum(2, (5, 0)).is_full()
    assert not CharacterSum(2, (4, 1)).is_full()


def test_character_sum_over_points_counts_residues():
    # the symmetrized net of one coordinate with no index digits is {e_0, e_1}
    pts = enumerate_points(symmetrize_matrices(DigitalNet(2, (np.zeros((3, 0), dtype=np.int64),))))
    assert list(pts) == [GVector((GElement.constant(2, 3, l),)) for l in (0, 1)]
    cs = character_sum_over(pts, (1,))
    assert cs.counts == (1, 1)
    assert cs.is_zero()


def test_compensated_sum_matches_fsum():
    import math

    vals = [complex(1e16, 1.0), complex(1.0, -1e16), complex(-1e16, 1e16), complex(3.0, 7.0)]
    out = compensated_sum(vals)
    assert out.real == math.fsum(v.real for v in vals)
    assert out.imag == math.fsum(v.imag for v in vals)


def test_exponent_table_matches_scalar_characters():
    # two digit rows, tails in both coordinates, shifted; 26 reads a tail digit
    b = 3
    net = DigitalNet(b, (np.array([[1, 2], [0, 1]]), np.array([[2, 0], [1, 1]])), (np.array([2, 1]), np.array([0, 2])))
    pts = random_digital_shift(enumerate_points(net), 4)
    ks = [(4, 7), (0, 1), (26, 2)]
    table = character_exponent_table(pts, ks)
    assert table.shape == (9, 3)
    assert character_exponent_table(pts, []).shape == (9, 0)
    for i, z in enumerate(pts):
        for j, k in enumerate(ks):
            assert table[i, j] == character_vec(k, z).e


def test_vector_character_dimension_checks():
    pts = enumerate_points(DigitalNet(2, (np.array([[1]]),)))
    with pytest.raises(ValueError, match="incompatible elements"):
        character_exponent_table(pts, [(1,), (1, 1)])
    with pytest.raises(ValueError, match="incompatible elements"):
        character_sum_over(pts, (1, 1))
    with pytest.raises(ValueError, match="negative"):
        character_exponent_table(pts, [(-1,)])


# ---------------------------------------------------------------------------
# finite orthogonality identities


def _all_elements(b: int, n: int):
    from itertools import product

    for digits in product(range(b), repeat=n):
        yield GElement(b, digits, 0)


def test_averaging_characters_detects_zero_prefix():
    # (1/b^n) sum_{k < b^n} W_k(z) is 1 when the first n digits of z vanish, else 0
    b, n = 3, 3
    for z in [GElement(b, (0, 0, 0), 2), GElement(b, (0, 1, 0), 0), GElement(b, (2, 0, 0), 1)]:
        counts = [0] * b
        for k in range(b**n):
            counts[character(k, z).e] += 1
        cs = CharacterSum(b, tuple(counts))
        if all(d == 0 for d in z.digits):
            assert cs.is_full()
        else:
            assert cs.is_zero()


def test_summing_character_over_group_detects_k_zero():
    # sum over all n-digit z of W_k(z) is b^n for k = 0 mod the window, else 0
    b, n = 2, 4
    for k in (0, 1, 5, 9, 15):
        counts = [0] * b
        for z in _all_elements(b, n):
            counts[character(k, z).e] += 1
        cs = CharacterSum(b, tuple(counts))
        if k == 0:
            assert cs.equals_int(b**n)
        else:
            assert cs.is_zero()


@given(st.integers(2, 5), st.integers(0, 400), st.data())
def test_character_homomorphism_property(b, k, data):
    n = data.draw(st.integers(1, 5))
    dz = tuple(data.draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n)))
    dw = tuple(data.draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n)))
    tz = data.draw(st.integers(0, b - 1))
    tw = data.draw(st.integers(0, b - 1))
    from badicnet import g_add

    z, w = GElement(b, dz, tz), GElement(b, dw, tw)
    assert character(k, g_add(z, w)).e == (character(k, z) * character(k, w)).e


@given(st.integers(2, 4), st.data())
def test_walsh_pulls_back_group_translation(b, data):
    # wal_k(pi(z)) equals W_k(z) whenever pi(z) has z as canonical expansion
    from badicnet import project_pi

    n = data.draw(st.integers(1, 4))
    digits = tuple(data.draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n)))
    tail = data.draw(st.integers(0, b - 2))  # avoid the non-canonical top tail
    z = GElement(b, digits, tail)
    k = data.draw(st.integers(0, b**n - 1))
    x = project_pi(z)
    assert walsh_exponent(k, x, b).e == character(k, z).e


def character_loop(points, k):
    """Residue counts of W_k over the points, one character_vec at a time."""
    counts = [0] * points[0].base
    for z in points:
        counts[character_vec(k, z).e] += 1
    return tuple(counts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3, 5), (3, 2, 4), (5, 1, 3)]), st.data())
def test_character_sums_match_the_character_loop(shape, data):
    b, m, n = shape
    net = symmetrize_matrices(hammersley_matrices(b, m, n))
    # frequencies reach past the stored digits, into the tails
    ks = data.draw(st.tuples(st.integers(0, b ** (n + 2)), st.integers(0, b ** (n + 2))))
    pts = enumerate_points(net)
    want = character_loop(list(pts), ks)
    assert character_sum_over(pts, ks).counts == want


def test_character_sum_over_frequencies_past_int64():
    # frequencies are Python ints: digits past 2^63 read the points' tails
    net = symmetrize_matrices(hammersley_matrices(3, 2, 4))
    pts = enumerate_points(net)
    for ks in [(2**64 + 5, 3), (0, 3**45 - 1), (2**70, 2**63), (3**50, 3**41 + 2)]:
        counts = [0] * 3
        for z in pts:
            counts[character_vec(ks, z).e] += 1
        assert character_sum_over(pts, ks).counts == tuple(counts)
    # a single 3-adic digit far past the stored precision reads the tail digit
    z = GVector((GElement(3, (1, 2), 2),))
    assert character_vec((2 * 3**60,), z).e == (2 * 2) % 3
