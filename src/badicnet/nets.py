"""Digital net construction over Z_b, plus digit-reflection symmetrization.

A net is given by one n x m generating matrix per coordinate.  The point
for index digits nu = (nu_0, ..., nu_{m-1}) has coordinate digits
C_j @ nu mod b.  Symmetrization adjoins, per coordinate j, one extra
column that is all ones in rows 1..n *and* keeps contributing beyond the
stored rows; that infinite continuation is recorded in ``tail_rows`` so
enumerated points carry the correct constant tail digit and symmetrizing
at matrix level agrees with adding e_l at point level exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from collections.abc import Iterable, Sequence

import numpy as np

from .badic import GElement, GVector, g_add

_INT64_SAFE_DEN = 1 << 40  # past this, numerators switch to python ints


def _as_matrix(mat, base: int) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("generating matrix must be two dimensional")
    if a.size and (a.min() < 0 or a.max() >= base):
        raise ValueError(f"matrix entries out of range for base {base}")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DigitalNet:
    """Digital net: shared-shape generating matrices, one per coordinate.

    tail_rows[j], when present, is a length-m vector t with the meaning
    that the point for index digits nu has constant tail digit t @ nu
    mod b in coordinate j (all-zero tail when absent).  sym_columns
    counts how many trailing columns were added by symmetrization.
    """

    base: int
    matrices: tuple[np.ndarray, ...]
    tail_rows: tuple[np.ndarray, ...] | None = None
    sym_columns: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if not self.matrices:
            raise ValueError("net needs at least one coordinate")
        mats = tuple(_as_matrix(m, self.base) for m in self.matrices)
        shape = mats[0].shape
        for m in mats:
            if m.shape != shape:
                raise ValueError("generating matrices must share one shape")
        if shape[0] < 1:
            raise ValueError("need at least one digit row")
        object.__setattr__(self, "matrices", mats)
        if self.tail_rows is not None:
            rows = []
            for t in self.tail_rows:
                a = np.asarray(t, dtype=np.int64)
                if a.shape != (shape[1],):
                    raise ValueError("tail row length must match matrix columns")
                if a.size and (a.min() < 0 or a.max() >= self.base):
                    raise ValueError("tail row entries out of range")
                a = a.copy()
                a.setflags(write=False)
                rows.append(a)
            if len(rows) != len(mats):
                raise ValueError("one tail row per coordinate required")
            object.__setattr__(self, "tail_rows", tuple(rows))

    @property
    def s(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def m(self) -> int:
        return self.matrices[0].shape[1]

    @property
    def n_points(self) -> int:
        return self.base**self.m


def _index_digits(base: int, m: int) -> np.ndarray:
    """(b^m, m) array of index digit expansions, least significant first."""
    count = base**m
    idx = np.arange(count, dtype=np.int64)
    out = np.empty((count, m), dtype=np.int64)
    for c in range(m):
        out[:, c] = (idx // base**c) % base
    return out


def point_digit_arrays(net: DigitalNet) -> tuple[np.ndarray, np.ndarray]:
    """All net points as digit arrays: (N, s, n) digits and (N, s) tails."""
    nu = _index_digits(net.base, net.m)
    N = nu.shape[0]
    digits = np.empty((N, net.s, net.n), dtype=np.int64)
    tails = np.zeros((N, net.s), dtype=np.int64)
    for j, C in enumerate(net.matrices):
        digits[:, j, :] = (nu @ C.T) % net.base
        if net.tail_rows is not None:
            tails[:, j] = (nu @ net.tail_rows[j]) % net.base
    return digits, tails


class NetPoints(Sequence[GVector]):
    """Read-only sequence of a net's points in index order.

    It holds the net only.  Indexing or iterating builds the GVector
    objects once, on first use, and keeps them; digit_arrays() gives the
    same points as arrays without building any object.
    """

    def __init__(self, net: DigitalNet):
        self.net = net
        self._points: list[GVector] | None = None

    def __len__(self) -> int:
        return self.net.n_points

    def __getitem__(self, i):
        return self._objects()[i]

    def __iter__(self):
        return iter(self._objects())

    def digit_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, s, n) digits and (N, s) tails, as point_digit_arrays."""
        return point_digit_arrays(self.net)

    def _objects(self) -> list[GVector]:
        if self._points is None:
            digits, tails = point_digit_arrays(self.net)
            b = self.net.base
            out = []
            for i in range(digits.shape[0]):
                coords = tuple(
                    GElement(b, tuple(int(d) for d in digits[i, j]), int(tails[i, j]))
                    for j in range(self.net.s)
                )
                out.append(GVector(coords))
            self._points = out
        return self._points


def enumerate_points(net: DigitalNet) -> NetPoints:
    """Net points in index order, as exact digit vectors."""
    return NetPoints(net)


def digit_arrays(points: Sequence[GVector]) -> tuple[np.ndarray, np.ndarray]:
    """(N, s, n) digits and (N, s) tails of a point sequence.

    Net points come from their net without building any object.  Other
    digit vectors are packed one by one, each padded with its tail digit
    to the largest precision among them.
    """
    if isinstance(points, NetPoints):
        return points.digit_arrays()
    s, n = points[0].s, max(z.precision for z in points)
    digits = np.empty((len(points), s, n), dtype=np.int64)
    tails = np.empty((len(points), s), dtype=np.int64)
    for i, z in enumerate(points):
        for j, zj in enumerate(z.coords):
            digits[i, j] = zj.digits + (zj.tail,) * (n - len(zj.digits))
            tails[i, j] = zj.tail
    return digits, tails


# ---------------------------------------------------------------------------
# exact rational point sets (two dimensional)


@dataclass(frozen=True, eq=False)
class PointSet2:
    """Planar multiset of exact rationals, stored as numerators over one
    common denominator.  Numerator dtype falls back to python ints when
    the denominator is large enough to threaten int64 arithmetic."""

    nums: np.ndarray  # (N, 2)
    den: int

    def __post_init__(self):
        a = np.asarray(self.nums)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError("expected an (N, 2) numerator array")
        object.__setattr__(self, "nums", a)

    @property
    def n_points(self) -> int:
        return self.nums.shape[0]

    def fractions(self) -> list[tuple[Fraction, Fraction]]:
        d = self.den
        return [(Fraction(int(x), d), Fraction(int(y), d)) for x, y in self.nums]

    @classmethod
    def from_fractions(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "PointSet2":
        pairs = [(Fraction(x), Fraction(y)) for x, y in pairs]
        den = 1
        for x, y in pairs:
            den = _lcm(_lcm(den, x.denominator), y.denominator)
        dtype = object if den > _INT64_SAFE_DEN else np.int64
        nums = np.array(
            [[x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)] for x, y in pairs],
            dtype=dtype,
        ).reshape(len(pairs), 2)
        return cls(nums, den)


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def to_point_set(net: DigitalNet) -> PointSet2:
    """Exact rational image of a two dimensional net."""
    if net.s != 2:
        raise ValueError("planar point set needs two coordinates")
    digits, tails = point_digit_arrays(net)
    b, n = net.base, net.n
    den = b**n * (b - 1)
    weights = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
    if den > _INT64_SAFE_DEN:
        N = digits.shape[0]
        nums = np.empty((N, 2), dtype=object)
        wl = [b**e for e in range(n - 1, -1, -1)]
        for i in range(N):
            for j in (0, 1):
                acc = sum(int(d) * w for d, w in zip(digits[i, j], wl))
                nums[i, j] = acc * (b - 1) + int(tails[i, j])
        return PointSet2(nums, den)
    nums = (digits @ weights) * (b - 1) + tails
    return PointSet2(nums.astype(np.int64), den)


# ---------------------------------------------------------------------------
# constructions


def hammersley_matrices(base: int, m: int, n: int | None = None) -> DigitalNet:
    """Two dimensional Hammersley net: identity and reversed identity.

    Coordinate one reads the index digits as written, coordinate two in
    reverse.  Rows past m (when n > m) are zero.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if n is None:
        n = m
    if n < m:
        raise ValueError("need n >= m to keep all index digits")
    C1 = np.zeros((n, m), dtype=np.int64)
    C2 = np.zeros((n, m), dtype=np.int64)
    for i in range(m):
        C1[i, i] = 1
        C2[i, m - 1 - i] = 1
    return DigitalNet(base, (C1, C2))


def symmetrize_matrices(net: DigitalNet) -> DigitalNet:
    """Adjoin the digit-reflection columns: D_j = (C_j | E_j).

    E_j is all ones in column j (through every digit row and onward into
    the tail, recorded in tail_rows) and zero in the other appended
    columns, so the enlarged net enumerates z + e_l for every original
    point z and every l in Z_b^s.
    """
    b, s, n, m = net.base, net.s, net.n, net.m
    mats = []
    tails = []
    for j, C in enumerate(net.matrices):
        E = np.zeros((n, s), dtype=np.int64)
        E[:, j] = 1
        mats.append(np.hstack([C, E]))
        told = net.tail_rows[j] if net.tail_rows is not None else np.zeros(m, dtype=np.int64)
        tnew = np.zeros(s, dtype=np.int64)
        tnew[j] = 1
        tails.append(np.concatenate([told, tnew]))
    return DigitalNet(b, tuple(mats), tuple(tails), sym_columns=net.sym_columns + s)


def symmetrize_points(points: Sequence[GVector]) -> list[GVector]:
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
            out.append(GVector(tuple(g_add(zj, sj) for zj, sj in zip(z.coords, shift.coords))))
    return out


def truncated_sym_hammersley(base: int, m: int, n: int) -> DigitalNet:
    """Symmetrized Hammersley net cut off after n digit rows.

    Matrices are n x (m+2); the two appended columns are all ones in
    rows 1..n for their own coordinate and nothing is carried past row n
    (genuine truncation, unlike symmetrize_matrices).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if n < m + 2:
        raise ValueError("truncation too short: need n >= m + 2")
    C1 = np.zeros((n, m + 2), dtype=np.int64)
    C2 = np.zeros((n, m + 2), dtype=np.int64)
    for i in range(m):
        C1[i, i] = 1
        C2[i, m - 1 - i] = 1
    C1[:, m] = 1
    C2[:, m + 1] = 1
    return DigitalNet(base, (C1, C2))


def sym_hammersley_points(base: int, m: int) -> PointSet2:
    """Exact closed form of the symmetrized Hammersley point set.

    For index digits (a_1, ..., a_{m+2}):
      x = sum_{i<=m} ((a_i + a_{m+1}) mod b) b^-i  +  a_{m+1} / (b^m (b-1))
      y = same with reversed digits and a_{m+2}.
    The trailing term is the value of the constant digit tail.
    """
    b = base
    if m < 1:
        raise ValueError("need m >= 1")
    a = _index_digits(b, m + 2)
    powers = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
    xs = ((a[:, :m] + a[:, [m]]) % b) @ powers
    ys = ((a[:, m - 1 :: -1] + a[:, [m + 1]]) % b) @ powers
    den = b**m * (b - 1)
    nums = np.stack([xs * (b - 1) + a[:, m], ys * (b - 1) + a[:, m + 1]], axis=1)
    if den > _INT64_SAFE_DEN:
        nums = nums.astype(object)
    return PointSet2(nums, den)


def hammersley_point_set(base: int, m: int) -> PointSet2:
    """Exact closed form of the plain Hammersley point set."""
    b = base
    a = _index_digits(b, m)
    powers = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
    nums = np.stack([a @ powers, a[:, ::-1] @ powers], axis=1)
    return PointSet2(nums, b**m)


# ---------------------------------------------------------------------------
# serialization


def dumps_compact(doc) -> str:
    """json.dumps with indent 1, but every list of integers on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+((?:-?\d+,?\s+)*-?\d+)\s+\]", lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)


def net_to_json(net: DigitalNet) -> str:
    doc = {
        "base": net.base,
        "s": net.s,
        "m": net.m,
        "n": net.n,
        "matrices": [m.tolist() for m in net.matrices],
    }
    if net.tail_rows is not None:
        doc["tail_rows"] = [t.tolist() for t in net.tail_rows]
    if net.sym_columns:
        doc["sym_columns"] = net.sym_columns
    return dumps_compact(doc)


def net_from_json(text: str) -> DigitalNet:
    doc = json.loads(text)
    mats = tuple(np.array(m, dtype=np.int64) for m in doc["matrices"])
    if len(mats) != doc["s"]:
        raise ValueError("coordinate count does not match matrices")
    for m in mats:
        if m.shape != (doc["n"], doc["m"]):
            raise ValueError("matrix shape does not match declared n, m")
    tails = None
    if "tail_rows" in doc:
        tails = tuple(np.array(t, dtype=np.int64) for t in doc["tail_rows"])
    return DigitalNet(doc["base"], mats, tails, sym_columns=doc.get("sym_columns", 0))


def points_to_csv(points: Sequence[GVector], stream) -> None:
    """Exact p/q columns next to decimal columns, one row per point."""
    stream.write("# schema=1\n")
    if not points:
        return
    s = points[0].s
    head = []
    for j in range(1, s + 1):
        head += [f"x{j}_frac", f"x{j}"]
    stream.write(",".join(head) + "\n")
    from .badic import project_pi

    for z in points:
        cells = []
        for c in z.coords:
            v = project_pi(c)
            cells += [f"{v.numerator}/{v.denominator}", repr(float(v))]
        stream.write(",".join(cells) + "\n")
