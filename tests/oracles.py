"""Object-level references for the array paths of the library.

The library takes points only as NetPoints and computes on their digit
arrays.  The functions here work on GElement and GVector digit vectors,
one point, coordinate or pair at a time, as the definitions read; the
tests compare the array paths against them.  Also here: the random nets
the property tests draw, the guard that fails a call building point
objects, and the CSV helpers.
"""

import io
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from badicnet import DigitalNet, points_to_csv, symmetrize_matrices
from badicnet.badic import GElement, GVector, first_nonzero_position, g_add, g_sub, project_pi
from badicnet.rkhs import BandLimitedKernel, SpectralDiagonalKernel, _first_positions, _phi_table
from badicnet.walsh import UnityExponent, character

# ---------------------------------------------------------------------------
# digit vectors


def g_neg(z: GElement) -> GElement:
    b = z.base
    return GElement(b, tuple((-d) % b for d in z.digits), (-z.tail) % b)


def gv_add(z: GVector, w: GVector) -> GVector:
    if z.s != w.s:
        raise ValueError("incompatible elements: dimension mismatch")
    return GVector(tuple(g_add(a, c) for a, c in zip(z.coords, w.coords)))


def gv_sub(z: GVector, w: GVector) -> GVector:
    if z.s != w.s:
        raise ValueError("incompatible elements: dimension mismatch")
    return GVector(tuple(g_sub(a, c) for a, c in zip(z.coords, w.coords)))


def gv_pi(z: GVector) -> tuple[Fraction, ...]:
    return tuple(project_pi(c) for c in z.coords)


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
# characters and kernels


def character_vec(k, z: GVector) -> UnityExponent:
    """Product character over coordinates (exponents add mod b)."""
    if len(k) != z.s:
        raise ValueError("incompatible elements: dimension mismatch")
    e = 0
    for kj, zj in zip(k, z.coords):
        e += character(kj, zj).e
    return UnityExponent(z.base, e)


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
            z = g_sub(x.coords[j], y.coords[j])
            out *= 1.0 + kernel.gammas[j] * kernel.phi(first_nonzero_position(z))
        return out
    raise TypeError("unknown kernel type")


def diag_pair_sum(points, kernel: SpectralDiagonalKernel) -> float:
    """sum over ordered point pairs of the diagonal kernel, vectorized on
    the first-nonzero-difference position."""
    digits, tails = pack_digit_arrays(points)
    table = _phi_table(kernel, digits.shape[2])
    total = 0.0
    for i in range(len(points)):
        prod = np.ones(len(points))
        for j in range(digits.shape[1]):
            pos = _first_positions(digits[:, j, :] != digits[i, j, :][None, :], tails[:, j] != tails[i, j])
            prod *= 1.0 + kernel.gammas[j] * table[pos]
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


def csv_text(points) -> str:
    buf = io.StringIO()
    points_to_csv(points, buf)
    return buf.getvalue()


def per_point_csv(points) -> str:
    """points_to_csv as it was: project_pi on every coordinate of every GVector."""
    lines = ["# schema=1", ",".join(f"x{j}_frac,x{j}" for j in range(1, points[0].s + 1))]
    for z in points:
        cells = []
        for c in z.coords:
            v = project_pi(c)
            cells += [f"{v.numerator}/{v.denominator}", repr(float(v))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
