"""Object-level references for the array paths of the library.

The library takes points only as NetPoints and computes on their digit
arrays.  The functions here work on GElement and GVector digit vectors,
one point, coordinate or pair at a time, as the definitions read; the
tests compare the array paths against them.  The scalar loops of the
group sum and difference, the characters W_k, the projection pi, the
section sigma, the depth of a sequence, the diagonal coefficient r,
wal_k, dual membership and the set E are here too: the library's entries
of the same names are one-row calls of its array paths, and no function
here calls one of them (tests/test_oracles.py checks that).  Also here:
the closed forms of the two Hammersley point sets, the local discrepancy
and the mu2 sum of a frequency vector, the random nets the property
tests draw, the guard that fails a call building point objects, the
numpy spy that records object-dtype work, the CSV helpers, and the scalar
loops behind the stacked ranks over F_p and the cyclotomic identities:
one Gauss elimination per matrix and one polynomial division per
character sum.
"""

import io
import operator
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from badicnet import DigitalNet, PointSet2, mu2, points_to_csv, symmetrize_matrices
from badicnet.badic import GElement, GVector, int_digits, minimal_precision
from badicnet.dual import dual_members
from badicnet.rkhs import BandLimitedKernel, SpectralDiagonalKernel
from badicnet.walsh import UnityExponent, cyclotomic_coeffs

# ---------------------------------------------------------------------------
# the scalar definitions


def _compatible(z: GElement, w: GElement) -> None:
    if z.base != w.base or z.precision != w.precision:
        raise ValueError("incompatible elements: base or precision mismatch")


def g_add_loop(z: GElement, w: GElement) -> GElement:
    """Digitwise sum mod b, one digit at a time; tails add as well."""
    _compatible(z, w)
    b = z.base
    digits = tuple((a + c) % b for a, c in zip(z.digits, w.digits))
    return GElement(b, digits, (z.tail + w.tail) % b)


def g_sub_loop(z: GElement, w: GElement) -> GElement:
    """Digitwise difference mod b, one digit at a time."""
    _compatible(z, w)
    b = z.base
    digits = tuple((a - c) % b for a, c in zip(z.digits, w.digits))
    return GElement(b, digits, (z.tail - w.tail) % b)


def character_loop(k: int, z: GElement) -> UnityExponent:
    """W_k at a digit sequence, as an exact exponent mod b: kappa_{i-1}
    times digit i of z, summed over the digits of k, the tail standing in
    for every digit past the precision."""
    e = 0
    for i, kappa in enumerate(int_digits(k, z.base), start=1):
        if kappa:
            e += kappa * (z.digits[i - 1] if i <= z.precision else z.tail)
    return UnityExponent(z.base, e)


def project_pi_loop(z: GElement) -> Fraction:
    """sum(z_i * b^-i) in [0, 1], one digit at a time (Horner), plus the
    constant tail c past precision n as c * b^-n / (b - 1)."""
    b, n = z.base, z.precision
    acc = 0
    for d in z.digits:
        acc = acc * b + d
    val = Fraction(acc, b**n)
    if z.tail:
        val += Fraction(z.tail, b**n * (b - 1))
    return val


def first_nonzero_loop(z: GElement) -> int | None:
    """1-based position of the first nonzero digit, n + 1 for a nonzero
    tail past them, None if z = 0."""
    for i, d in enumerate(z.digits):
        if d:
            return i + 1
    if z.tail:
        return z.precision + 1
    return None


def section_sigma_loop(x, base: int, precision: int) -> GElement:
    """Canonical digits of x in [0, 1] at the given precision, one digit
    at a time: digit i is the floor of b times the remainder, and what is
    left past the last digit must be a constant tail c / (b - 1), c < b - 1;
    x = 1 is the constant sequence e_{b-1}."""
    b, n = base, precision
    if b < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("precision must be >= 1")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("unsupported expansion: x outside [0, 1]")
    if x == 1:
        return GElement.constant(b, n, b - 1)
    digits = []
    rem = x
    for _ in range(n):
        rem *= b
        d = int(rem)  # floor: rem stays in [0, 1)
        digits.append(d)
        rem -= d
    c_frac = rem * (b - 1)
    if c_frac.denominator != 1:
        raise ValueError(f"unsupported expansion: {x} is not eventually constant in base {b} at precision {n}")
    return GElement(b, tuple(digits), int(c_frac))


def r_loop(kernel: SpectralDiagonalKernel, ks) -> float:
    """The diagonal coefficient at a frequency vector: r1 of each
    component, multiplied in coordinate order from 1.0."""
    out = 1.0
    for j, k in enumerate(ks):
        out *= kernel.r1(operator.index(k), j)
    return out


def walsh_exponent_loop(k, x, base: int) -> UnityExponent:
    """wal_k(x) as an exponent: character_loop at section_sigma_loop of x,
    at its minimal precision."""
    return character_loop(k, section_sigma_loop(x, base, minimal_precision(x, base)))


def walsh_eval_loop(k, x, base: int) -> complex:
    """wal_k(x) as a complex number, from walsh_exponent_loop."""
    return walsh_exponent_loop(k, x, base).value


# ---------------------------------------------------------------------------
# digit vectors


def g_neg(z: GElement) -> GElement:
    b = z.base
    return GElement(b, tuple((-d) % b for d in z.digits), (-z.tail) % b)


def gv_add(z: GVector, w: GVector) -> GVector:
    if z.s != w.s:
        raise ValueError("incompatible elements: dimension mismatch")
    return GVector(tuple(g_add_loop(a, c) for a, c in zip(z.coords, w.coords)))


def gv_sub(z: GVector, w: GVector) -> GVector:
    if z.s != w.s:
        raise ValueError("incompatible elements: dimension mismatch")
    return GVector(tuple(g_sub_loop(a, c) for a, c in zip(z.coords, w.coords)))


def gv_pi(z: GVector) -> tuple[Fraction, ...]:
    return tuple(project_pi_loop(c) for c in z.coords)


def symmetrize_points(points) -> list[GVector]:
    """All shifts z + e_l, outer loop over l in lexicographic order."""
    if not points:
        return []
    b = points[0].base
    s = points[0].s
    n = points[0].precision
    out = []
    for l in product(range(b), repeat=s):
        shift = GVector(tuple(GElement.constant(b, n, lj) for lj in l))
        for z in points:
            out.append(gv_add(z, shift))
    return out


def pack_digit_arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """(N, s, n) digits and (N, s) tails of digit vectors of one precision,
    packed one by one: what NetPoints.digit_arrays gives for net points."""
    digits = np.array([[zj.digits for zj in z.coords] for z in points], dtype=np.int64)
    tails = np.array([[zj.tail for zj in z.coords] for z in points], dtype=np.int64)
    return digits, tails


def draw_shift(base: int, s: int, precision: int, rng) -> GVector:
    """The shift random_digital_shift draws from the same rng state, as a
    digit vector with a zero tail."""
    digits = rng.integers(0, base, size=(s, precision)).tolist()
    return GVector(tuple(GElement(base, tuple(row), 0) for row in digits))


# ---------------------------------------------------------------------------
# Hammersley closed forms, local discrepancy and weights


def _index_digit_rows(base: int, m: int, idx=None) -> np.ndarray:
    """(b^m, m) index digits, least significant first, in index order; or
    the rows of the indices idx."""
    idx = np.arange(base**m, dtype=np.int64) if idx is None else np.asarray(idx, dtype=np.int64)
    return idx[:, None] // base ** np.arange(m, dtype=np.int64) % base


def hammersley_closed_form(base: int, m: int) -> PointSet2:
    """Plain Hammersley point set from its closed form: index digits
    (a_1, ..., a_m) give x = sum a_i b^-i and y the same digits reversed,
    over b^m."""
    a = _index_digit_rows(base, m)
    powers = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return PointSet2(np.stack([a @ powers, a[:, ::-1] @ powers], axis=1), base**m)


def sym_hammersley_closed_form(base: int, m: int) -> PointSet2:
    """Symmetrized Hammersley point set from its closed form, over
    b^m (b - 1).  For index digits (a_1, ..., a_{m+2}):
      x = sum_{i<=m} ((a_i + a_{m+1}) mod b) b^-i  +  a_{m+1} / (b^m (b-1))
      y = same with reversed digits and a_{m+2}.
    """
    b = base
    a = _index_digit_rows(b, m + 2)
    powers = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
    xs = ((a[:, :m] + a[:, [m]]) % b) @ powers
    ys = ((a[:, m - 1 :: -1] + a[:, [m + 1]]) % b) @ powers
    return PointSet2(np.stack([xs * (b - 1) + a[:, m], ys * (b - 1) + a[:, m + 1]], axis=1), b**m * (b - 1))


def local_discrepancy(ps: PointSet2, t) -> Fraction:
    """count([0,t) cap P)/N - t1*t2, exact, one point at a time."""
    t1, t2 = Fraction(t[0]), Fraction(t[1])
    x1, x2 = t1 * ps.den, t2 * ps.den
    count = sum(1 for a, c in ps.nums.tolist() if a < x1 and c < x2)
    return Fraction(count, ps.n_points) - t1 * t2


def dual_contains_loop(net: DigitalNet, k) -> bool:
    """Dual membership of a frequency vector: the image sum_j vec(k_j) C_j
    mod b, added one digit row at a time, is zero.  A component with more
    digits than the n stored rows is a ValueError."""
    b = net.base
    image = [0] * net.m
    for kj, C in zip(k, net.matrices):
        digits = int_digits(kj, b)
        if len(digits) > net.n:
            raise ValueError("digits exceed matrix rows")
        for d, row in zip(digits, C.tolist()):
            image = [(v + d * c) % b for v, c in zip(image, row)]
    return not any(image)


def in_E_loop(k: int, base: int) -> bool:
    """True when the digit sum of k, added one digit at a time, vanishes mod b."""
    return sum(int_digits(k, base)) % base == 0


def mu2_total(ks, base: int) -> int:
    """Sum of mu2 over the components of a frequency vector."""
    return sum(mu2(int(k), base).mu2 for k in ks)


def brute_rho2(net: DigitalNet, cap: int):
    """rho2_min_weight by brute force in any dimension, as (weight,
    witness), or (None, None) when no nonzero dual tuple weighs at most cap.

    Every coordinate's candidates are the k < b^n with mu2(k) <= cap, in
    the search's class order: by mu2, a single nonzero digit before two,
    then by top position, then by k.  Every s-tuple of candidates is
    imaged from its digits, and the least (weight, positions) among the
    nonzero dual tuples of weight <= cap is taken.
    """
    b, n, s = net.base, net.n, net.s
    profiles = [p for p in (mu2(k, b) for k in range(b**n)) if p.mu2 <= cap]
    profiles.sort(key=lambda p: (p.mu2, len(p.positions) > 1, p.positions[:1], p.k))
    digits = np.array([[p.k // b**i % b for i in range(n)] for p in profiles], dtype=np.int64)
    weights = np.array([p.mu2 for p in profiles])
    tuples = np.indices((len(profiles),) * s).reshape(s, -1).T  # every s-tuple of positions, lexicographic
    image = sum((digits @ C % b)[tuples[:, j]] for j, C in enumerate(net.matrices)) % b
    total = weights[tuples].sum(axis=1)
    hits = np.flatnonzero(~image.any(axis=1) & (total > 0) & (total <= cap))
    if not len(hits):
        return None, None
    first = hits[np.argmin(total[hits])]  # the first of the least weight, in position order
    return int(total[first]), tuple(profiles[i].k for i in tuples[first].tolist())


# ---------------------------------------------------------------------------
# characters and kernels


def character_vec(k, z: GVector) -> UnityExponent:
    """Product character over coordinates (exponents add mod b)."""
    if len(k) != z.s:
        raise ValueError("incompatible elements: dimension mismatch")
    e = 0
    for kj, zj in zip(k, z.coords):
        e += character_loop(kj, zj).e
    return UnityExponent(z.base, e)


def residue_count_loop(points, ks) -> np.ndarray:
    """(T, b) counts of the exponents of W_k over the points for each
    frequency vector k: one character_vec per point and frequency, then
    one compare per residue."""
    b = points[0].base
    E = np.array([[character_vec(k, z).e for k in ks] for z in points], dtype=np.int64).reshape(len(points), len(ks))
    return np.stack([(E == r).sum(axis=0) for r in range(b)], axis=1)


def digit_negate(k: int, base: int) -> int:
    """Digitwise negation mod b of k >= 0, from int_digits."""
    return sum((-d % base) * base**i for i, d in enumerate(int_digits(k, base)))


def tuple_to_flat(ks, base: int, k_digits: int) -> int:
    """Flat index of a frequency vector in a box of b^k_digits per
    coordinate: component j fills digits j k_digits to (j+1) k_digits - 1,
    from int_digits."""
    return sum(d * base ** (j * k_digits + i) for j, k in enumerate(ks) for i, d in enumerate(int_digits(k, base)))


def walsh_row(kernel: BandLimitedKernel, z: GVector) -> np.ndarray:
    """W_k(z) for every flat frequency of the kernel, one character_vec each."""
    return np.array([character_vec(kernel.frequency(t), z).value for t in range(kernel.size)])


def kernel_eval(kernel, x: GVector, y: GVector):
    """K(x, y) from exact digit vectors.

    Band-limited kernels return complex (real up to rounding when the
    coefficient matrix has the negation symmetry); diagonal kernels
    return a float through the closed form of phi.
    """
    if isinstance(kernel, BandLimitedKernel):
        return complex(walsh_row(kernel, x) @ kernel.coeffs @ walsh_row(kernel, y).conj())
    if isinstance(kernel, SpectralDiagonalKernel):
        out = 1.0
        for j in range(kernel.s):
            z = g_sub_loop(x.coords[j], y.coords[j])
            out *= 1.0 + kernel.gammas[j] * kernel.phi(first_nonzero_loop(z))
        return out
    raise TypeError("unknown kernel type")


def band_spectral_by_members(net: DigitalNet, kernel: BandLimitedKernel) -> tuple[float, int]:
    """Band-limited wce_spectral as (value, terms_used) by brute force:
    dual_members over all T digit rows of the kernel's box, the nonzero
    hits' coefficients summed by increasing flat index."""
    idx = np.flatnonzero(dual_members(net, kernel.digits))[1:]  # flat index 0 is the origin
    val = complex(kernel.coeffs[np.ix_(idx, idx)].sum()) if len(idx) else 0j
    return max(val.real, 0.0), len(idx) ** 2


def diag_pair_sum(points, kernel: SpectralDiagonalKernel) -> float:
    """sum over ordered point pairs of the diagonal kernel, vectorized on
    the first position where two points differ: the first True of the n
    digit and one tail mismatch flags, 0 where none is."""
    digits, tails = pack_digit_arrays(points)
    n = digits.shape[2]
    phi = np.array([kernel.phi(None)] + [kernel.phi(i0) for i0 in range(1, n + 2)])
    total = 0.0
    for i in range(len(points)):
        prod = np.ones(len(points))
        for j in range(digits.shape[1]):
            differ = np.hstack([digits[:, j, :] != digits[i, j, :], (tails[:, j] != tails[i, j])[:, None]])
            depth = np.where(differ.any(axis=1), differ.argmax(axis=1) + 1, 0)
            prod *= 1.0 + kernel.gammas[j] * phi[depth]
        total += float(prod.sum())
    return total


# ---------------------------------------------------------------------------
# random nets


@st.composite
def digital_nets(draw, max_points=243):
    """Random generating matrices over b in {2, 3, 5}, s in {1, 2, 3},
    optionally with random tail rows and optionally symmetrized, with at
    most max_points points."""
    b = draw(st.sampled_from([2, 3, 5]))
    s = draw(st.integers(1, 3))
    sym = draw(st.booleans())
    m_max = 0
    while b ** (m_max + 1 + (s if sym else 0)) <= max_points:
        m_max += 1
    m = draw(st.integers(0, m_max))
    n = draw(st.integers(1, m + 3))
    digit = st.integers(0, b - 1)
    mats = [np.array(draw(st.lists(digit, min_size=n * m, max_size=n * m)), dtype=np.int64).reshape(n, m) for _ in range(s)]
    tails = None
    if draw(st.booleans()):
        tails = [draw(st.lists(digit, min_size=m, max_size=m)) for _ in range(s)]
    net = DigitalNet(b, tuple(mats), tails)
    return symmetrize_matrices(net) if sym else net


# ---------------------------------------------------------------------------
# guards and CSV


@contextmanager
def no_point_objects(classes=(GElement, GVector)):
    """Inside, constructing any of the classes raises, so code that
    builds a point object (by default a GVector or any GElement) fails."""

    def refuse(self):
        raise AssertionError(f"a {type(self).__name__} was built")

    with pytest.MonkeyPatch.context() as mp:
        for cls in classes:
            mp.setattr(cls, "__post_init__", refuse)
        yield


class NumpySpy:
    """Stands in for numpy in a module: records the key dtype of every
    argsort and the name of every numpy function or ufunc call that takes
    or returns an object-dtype array.  A ufunc's methods (np.add.at) and
    array methods and operators are not seen."""

    def __init__(self):
        self.keys, self.object_calls = [], []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn) or isinstance(fn, type):
            return fn
        return _SpiedCall(self, name, fn)


class _SpiedCall:
    """One numpy callable seen through a NumpySpy; its attributes are the callable's."""

    def __init__(self, spy: NumpySpy, name: str, fn):
        self.spy, self.name, self.fn = spy, name, fn

    def __getattr__(self, attr):
        return getattr(self.fn, attr)

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        if self.name == "argsort":
            self.spy.keys.append(np.asarray(args[0]).dtype)
        seen = (*args, *kwargs.values(), *(out if isinstance(out, tuple) else (out,)))
        if any(isinstance(a, np.ndarray) and a.dtype == object for a in seen):
            self.spy.object_calls.append(self.name)
        return out


@contextmanager
def numpy_spy(*modules):
    """Inside, the numpy of every module given is one NumpySpy, yielded."""
    spy = NumpySpy()
    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "np", spy)
        yield spy


def csv_text(points) -> str:
    buf = io.StringIO()
    points_to_csv(points, buf)
    return buf.getvalue()


def per_point_csv(points) -> str:
    """points_to_csv as it was: project_pi_loop on every coordinate of every GVector."""
    lines = ["# schema=1", ",".join(f"x{j}_frac,x{j}" for j in range(1, points[0].s + 1))]
    for z in points:
        cells = []
        for c in z.coords:
            v = project_pi_loop(c)
            cells += [f"{v.numerator}/{v.denominator}", repr(float(v))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ranks over F_p and cyclotomic identities, one item at a time


def loop_rank_mod_p(rows, p: int) -> int:
    """Row rank of one matrix over the field with p elements: Gauss
    elimination on Python ints, one row operation at a time."""
    a = [[int(v) % p for v in row] for row in np.asarray(rows).tolist()]
    r = 0
    n_cols = len(a[0]) if a else 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def is_multiple_of_cyclotomic(coeffs, b: int) -> bool:
    """True when sum coeffs[r] x^r is a multiple of the b-th cyclotomic
    polynomial: long division by it, one coefficient at a time."""
    phi = cyclotomic_coeffs(b)
    g = len(phi) - 1
    work = [int(c) for c in coeffs]
    for i in range(len(work) - 1, g - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j in range(g):
                work[i - g + j] -= c * phi[j]
    return not any(work[:g])
