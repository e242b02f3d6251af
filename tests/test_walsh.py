"""Character values, Walsh functions, and exact character sums."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    enumerate_points,
    hammersley_matrices,
    random_digital_shift,
    symmetrize_matrices,
    walsh_eval,
    walsh_exponent,
)
import badicnet
from badicnet import walsh
from badicnet.badic import delta_digit_sum, frequency_digits
from badicnet.nets import NetPoints
from badicnet.walsh import (
    character_exponent_table,
    character_sums,
    cyclotomic_coeffs,
    cyclotomic_remainders,
    residue_counts,
    sum_values,
    sums_vanish,
)
from oracles import character_vec, is_multiple_of_cyclotomic, residue_count_loop, walsh_exponent_loop


def test_unity_exponent_normalizes_and_multiplies():
    w = UnityExponent(5, 7)
    assert w.e == 2
    # roots multiply by adding exponents, and conjugate by negating them
    assert abs(w.value * UnityExponent(5, 4).value - UnityExponent(5, 1).value) < 1e-15
    assert abs(w.value.conjugate() - UnityExponent(5, -7).value) < 1e-15
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
    # 5000 digits, past the 4096 that minimal_precision searched by default
    assert walsh_exponent(1, Fraction(1, 2**5000), 2).e == 0 == walsh_exponent_loop(1, Fraction(1, 2**5000), 2).e
    assert walsh_exponent(2**4999, Fraction(1, 2**5000), 2).e == 1


def test_walsh_of_one_matches_constant_sequence():
    # x = 1 maps to e_{b-1}; exponent is (b-1) * digit sum
    assert walsh_exponent(5, 1, 3).e == (2 * delta_digit_sum(5, 3)) % 3


def test_character_is_homomorphism_on_fixed_cases():
    z = GElement(3, (1, 2, 0), 1)
    w = GElement(3, (2, 2, 1), 2)
    from badicnet import g_add

    for k in range(1, 30):
        assert character(k, g_add(z, w)).e == (character(k, z).e + character(k, w).e) % 3


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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(lambda b: st.lists(st.integers(0, 10**12), min_size=b, max_size=b)))
def test_character_sum_value_is_the_fsum_of_its_terms(counts):
    b = len(counts)
    terms = [UnityExponent(b, r).value * c for r, c in enumerate(counts)]
    terms.reverse()  # a correctly rounded sum does not depend on the order
    value = CharacterSum(b, tuple(counts)).value
    assert value.real == math.fsum(t.real for t in terms)
    assert value.imag == math.fsum(t.imag for t in terms)


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


PAIRING_BASES = [2, 3, 5, 257, 2**31 - 1, 2**32 + 15]


@st.composite
def pairing_cases(draw):
    """A net over one of PAIRING_BASES with at most 257 points, shifted or
    not, and frequencies of up to n + 2 digits per coordinate; digits b - 1
    and frequencies of all digits b - 1 are drawn often."""
    b = draw(st.sampled_from(PAIRING_BASES))
    s, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    m = draw(st.integers(0, {2: 4, 3: 3, 5: 2, 257: 1}.get(b, 0)))
    digit = st.integers(0, b - 1) | st.just(b - 1)
    mats = tuple(np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(s))
    tails = [draw(st.lists(digit, min_size=m, max_size=m)) for _ in range(s)] if draw(st.booleans()) else None
    shift = np.array(draw(st.lists(digit, min_size=s * n, max_size=s * n)), dtype=np.int64).reshape(s, n) if draw(st.booleans()) else None
    component = st.integers(0, b ** (n + 2) - 1) | st.sampled_from([b**n - 1, b ** (n + 2) - 1])
    ks = draw(st.lists(st.tuples(*[component] * s), max_size=4))
    return NetPoints(DigitalNet(b, mats, tails), shift), ks


@settings(max_examples=120, deadline=None)
@given(pairing_cases())
def test_exponent_table_matches_scalar_characters_at_any_base(case):
    # each entry against walsh.character over the GVector of the point,
    # at bases whose digit products pass int64, frequencies past n included
    pts, ks = case
    table = character_exponent_table(pts, ks)
    assert table.dtype == np.int64 and table.shape == (len(pts), len(ks))
    assert table.tolist() == [[character_vec(k, z).e for k in ks] for z in pts]


def test_exponent_table_does_not_wrap_past_int64():
    # one point, all eight digits b - 1 and a frequency of eight digits b - 1:
    # the exponent is 8 (b - 1)^2 = 8 mod b, where 8 (b - 1)^2 = 2^63
    b = 2**30 + 1
    pts = NetPoints(DigitalNet(b, (np.zeros((8, 0), dtype=np.int64),)), np.full((1, 8), b - 1))
    assert character_exponent_table(pts, [(b**8 - 1,)]).tolist() == [[8]]
    assert character_vec((b**8 - 1,), pts[0]).e == 8


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
    assert character(k, g_add(z, w)).e == (character(k, z).e + character(k, w).e) % b


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


def test_cyclotomic_remainders_reduce_each_power():
    assert cyclotomic_remainders(2) == [[1], [-1]]
    assert cyclotomic_remainders(3) == [[1, 0], [0, 1], [-1, -1]]
    assert cyclotomic_remainders(4) == [[1, 0], [0, 1], [-1, 0], [0, -1]]
    for b in range(2, 13):
        M = cyclotomic_remainders(b)
        g = len(cyclotomic_coeffs(b)) - 1
        assert len(M) == b and all(len(row) == g for row in M)
        for r, row in enumerate(M):  # x^r less its remainder is a multiple of Phi_b
            diff = [(r == i) - (row[i] if i < g else 0) for i in range(b)]
            assert is_multiple_of_cyclotomic(diff, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12).flatmap(lambda b: st.lists(st.lists(st.integers(-(10**12), 10**12), min_size=b, max_size=b), max_size=8)), st.data())
def test_identities_match_the_division_loop(rows, data):
    b = len(rows[0]) if rows else data.draw(st.integers(2, 12))
    if data.draw(st.booleans()):  # rows that vanish: multiples of Phi_b
        phi = cyclotomic_coeffs(b)
        for row in rows:
            c = data.draw(st.integers(-(10**9), 10**9))
            shift = data.draw(st.integers(0, b - len(phi)))
            for i, p in enumerate(phi):
                row[shift + i] = c * p
    counts = np.array(rows, dtype=np.int64).reshape(-1, b)
    want = [is_multiple_of_cyclotomic(row, b) for row in rows]
    assert sums_vanish(counts, b).tolist() == want
    t = data.draw(st.integers(0, 10**12))
    assert [CharacterSum(b, tuple(row)).equals_int(t) for row in rows] == [
        is_multiple_of_cyclotomic([row[0] - t, *row[1:]], b) for row in rows
    ]


def test_identities_past_int64_run_in_python_ints():
    # b max|M| max|counts| past 2^63: the product runs in Python ints
    big = 2**62
    for b in (2, 3, 6, 12):
        phi = cyclotomic_coeffs(b)
        rows = [[big * p for p in phi] + [0] * (b - len(phi)), [big] + [0] * (b - 1), [2**200] * b, [2**200] * (b - 1) + [2**200 + 1]]
        want = [is_multiple_of_cyclotomic(row, b) for row in rows]
        assert want[0] and not want[1] and want[2] and not want[3]
        assert sums_vanish(np.array(rows, dtype=object), b).tolist() == want
        assert CharacterSum(b, (big,) + (0,) * (b - 1)).equals_int(big)
        assert not CharacterSum(b, (big,) + (0,) * (b - 1)).equals_int(big + 1)


def test_sums_vanish_refuses_fractions():
    # an int64 cast read the counts [0.5, 0.5] as [0, 0], a vanishing sum
    with pytest.raises(ValueError, match="counts holds 0.5"):
        sums_vanish(np.array([[0.5, 0.5]]), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(lambda b: st.lists(st.lists(st.integers(0, 10**12), min_size=b, max_size=b), min_size=1, max_size=6)))
def test_row_values_are_the_character_sum_values(rows):
    b = len(rows[0])
    got = sum_values(np.array(rows, dtype=np.int64), b)
    for value, row in zip(got, rows):
        want = CharacterSum(b, tuple(row)).value
        assert (value.real, value.imag) == (want.real, want.imag)
        terms = [UnityExponent(b, r).value * c for r, c in enumerate(row) if c]
        assert value == complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def test_residue_counts_are_the_character_sums():
    pts = enumerate_points(symmetrize_matrices(hammersley_matrices(3, 2, 4)))
    ks = [(0, 0), (1, 2), (5, 80), (3**45, 7)]
    digits, tails = pts.digit_arrays()
    # frequencies of fewer digits than the points hold, and of more
    for depth in (0, 6, 100):
        counts = residue_counts(digits, tails, frequency_digits(ks, 3, 2, depth), 3)
        assert counts.dtype == np.int64 and counts.shape == (4, 3)
        assert [tuple(c) for c in counts.tolist()] == [cs.counts for cs in character_sums(pts, ks)]
    per_point = [tuple(sum(character_vec(k, z).e == r for z in pts) for r in range(3)) for k in ks]
    assert [cs.counts for cs in character_sums(pts, ks)] == per_point
    assert residue_counts(digits, tails, frequency_digits([], 3, 2, 0), 3).shape == (0, 3)


def test_residue_counts_name_a_table_numpy_cannot_allocate():
    # one frequency at one point needs a (1, b) count table: 8 TiB at
    # b = 2^40 + 15, past numpy's largest dimension at b = 2^64 + 13.  A
    # child process under a 1 GB address-space limit fails on the first,
    # rather than taking the machine's memory.
    script = "\n".join([
        "import resource",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "import numpy as np",
        "from badicnet import DigitalNet, enumerate_points",
        "from badicnet.walsh import character_sums",
        "for b in (2**40 + 15, 2**64 + 13):",
        "    net = DigitalNet(b, (np.zeros((1, 0), dtype=np.int64),) * 2)",
        "    try:",
        "        character_sums(enumerate_points(net), [(1, 0)])",
        "    except ValueError as exc:",
        "        print(exc)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(badicnet.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines() == [
        f"residue counts need a (1, {2**40 + 15}) table",
        f"residue counts need a (1, {2**64 + 13}) table",
    ]


@pytest.mark.parametrize("b, m, n, entries", [(3, 3, 4, 1 << 20), (257, 1, 2, 1000), (2, 5, 6, 64)])
def test_residue_counts_match_the_per_residue_loop(b, m, n, entries, monkeypatch):
    # a small table bound splits the frequencies into several chunks
    # (three frequencies a chunk at b = 257, two at b = 2)
    monkeypatch.setattr(walsh, "_TABLE_ENTRIES", entries)
    pts = random_digital_shift(enumerate_points(hammersley_matrices(b, m, n)), 5)
    rng = np.random.default_rng(b)
    ks = [(0, 0), (b**n - 1, b ** (n + 2) - 1)] + rng.integers(0, b ** (n + 1), size=(10, 2)).tolist()
    digits, tails = pts.digit_arrays()
    counts = residue_counts(digits, tails, frequency_digits(ks, b, 2, n), b)
    assert counts.dtype == np.int64
    assert counts.tolist() == residue_count_loop(list(pts), ks).tolist()
