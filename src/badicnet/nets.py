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
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Sequence

import numpy as np

from .badic import GElement, GVector

_INT64_SAFE_DEN = 1 << 40  # past this, numerators switch to python ints
_FLOAT64_EXACT = 1 << 53  # integers below this are exact in float64
# net point rows per block of digit arrays (numerators, the diagonal-kernel
# group sum), of GVectors when iterating and of CSV rows per write: larger
# blocks raised the peak RSS
_ROW_BLOCK = 1024


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
        if self.sym_columns < 0:
            raise ValueError("sym_columns must be nonnegative")
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


def _index_digits(base: int, m: int, rows: slice = slice(None)) -> np.ndarray:
    """(b^m, m) array of index digit expansions, least significant first,
    or its rows for the indices in the slice rows."""
    idx = np.arange(*rows.indices(base**m), dtype=np.int64)
    out = np.empty((len(idx), m), dtype=np.int64)
    for c in range(m):
        out[:, c] = (idx // base**c) % base
    return out


def point_digit_arrays(net: DigitalNet, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Net points as digit arrays: (N, s, n) digits and (N, s) tails, all
    of them or those whose indices are in the slice rows.

    Every digit and tail comes from one float64 product of the index
    digits with all matrices and tail rows.  It is exact because each
    entry is an integer of at most m (b - 1)^2, which must stay below
    2^53; a net past that bound is a ValueError.
    """
    b, s, n, m = net.base, net.s, net.n, net.m
    if m * (b - 1) ** 2 >= _FLOAT64_EXACT:
        raise ValueError(f"net too large for exact float64 digits: m (b-1)^2 = {m * (b - 1) ** 2} >= 2^53")
    cols = [C.T for C in net.matrices]
    if net.tail_rows is not None:
        cols.append(np.stack(net.tail_rows, axis=1))
    prod = (_index_digits(b, m, rows).astype(np.float64) @ np.hstack(cols).astype(np.float64)).astype(np.int64)
    prod %= b
    digits = prod[:, : s * n].reshape(-1, s, n)
    tails = prod[:, s * n :] if net.tail_rows is not None else np.zeros((len(prod), s), dtype=np.int64)
    return digits, tails


class NetPoints(Sequence[GVector]):
    """Read-only sequence of a net's points in index order: the one point
    input of point_numerators, points_to_csv, the character sums and
    exponent tables of walsh, and wce_direct and qmc_integrate in rkhs.

    It holds the net and an optional digital shift ((s, n) digits, zero
    tail), and is never empty.  digit_arrays() gives the points as
    arrays.  Indexing and iteration build GVector objects from the digit
    arrays of the rows asked for, _ROW_BLOCK rows at a time when
    iterating, and keep none.
    """

    def __init__(self, net: DigitalNet, shift: np.ndarray | None = None):
        self.net = net
        self.shift = shift

    def __len__(self) -> int:
        return self.net.n_points

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._vectors(i)
        N = len(self)
        i = operator.index(i)
        if not -N <= i < N:
            raise IndexError("net point index out of range")
        return self._vectors(slice(i % N, i % N + 1))[0]

    def __iter__(self):
        for lo in range(0, len(self), _ROW_BLOCK):
            yield from self._vectors(slice(lo, lo + _ROW_BLOCK))

    def digit_arrays(self, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(N, s, n) digits and (N, s) tails, as point_digit_arrays, shift added."""
        digits, tails = point_digit_arrays(self.net, rows)
        return (digits if self.shift is None else (digits + self.shift) % self.net.base), tails

    def _vectors(self, rows: slice) -> list[GVector]:
        digits, tails = self.digit_arrays(rows)
        b = self.net.base
        return [
            GVector(tuple(GElement(b, tuple(d), t) for d, t in zip(point, tail)))
            for point, tail in zip(digits.tolist(), tails.tolist())
        ]


def enumerate_points(net: DigitalNet) -> NetPoints:
    """Net points in index order, as exact digit vectors."""
    return NetPoints(net)


def require_net_points(points, entry: str) -> NetPoints:
    """points itself when it is a NetPoints; any other input to entry is a
    TypeError."""
    if not isinstance(points, NetPoints):
        raise TypeError(f"{entry} needs the net points of enumerate_points, not {type(points).__name__}")
    return points


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


def _numerators(digits: np.ndarray, tails: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """Exact values of digit arrays as numerators over den = b^n (b - 1).

    A coordinate with digits d_1..d_n and constant tail c has value
    (sum_i d_i b^(n-i) (b - 1) + c) / (b^n (b - 1)).  The (N, s)
    numerators come from one matrix product, in int64 while den fits
    comfortably and in python ints past that.
    """
    b, n = base, digits.shape[-1]
    den = b**n * (b - 1)
    dtype = np.int64 if den <= _INT64_SAFE_DEN else object
    weights = np.array([b**e for e in range(n - 1, -1, -1)], dtype=dtype)
    nums = (digits.astype(dtype) @ weights) * (b - 1) + tails.astype(dtype)
    return nums, den


def point_numerators(points: NetPoints) -> tuple[np.ndarray, int]:
    """(N, s) numerators of net points over one den, as _numerators.  The
    digit arrays are read _ROW_BLOCK rows at a time, so no (N, s, n)
    array is held."""
    b = require_net_points(points, "point_numerators").net.base
    blocks = [_numerators(*points.digit_arrays(slice(lo, lo + _ROW_BLOCK)), b) for lo in range(0, len(points), _ROW_BLOCK)]
    return np.concatenate([nums for nums, _ in blocks]), blocks[0][1]


def to_point_set(net: DigitalNet) -> PointSet2:
    """Exact rational image of a two dimensional net."""
    if net.s != 2:
        raise ValueError("planar point set needs two coordinates")
    return PointSet2(*point_numerators(NetPoints(net)))


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


def _check_family(base: int, m: int) -> None:
    if base < 2:
        raise ValueError("base must be >= 2")
    if m < 1:
        raise ValueError("need m >= 1")


def sym_hammersley_points(base: int, m: int) -> PointSet2:
    """Exact closed form of the symmetrized Hammersley point set.

    For index digits (a_1, ..., a_{m+2}):
      x = sum_{i<=m} ((a_i + a_{m+1}) mod b) b^-i  +  a_{m+1} / (b^m (b-1))
      y = same with reversed digits and a_{m+2}.
    The trailing term is the value of the constant digit tail.
    """
    b = base
    _check_family(b, m)
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
    _check_family(b, m)
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


def _check_integer_entries(value, key: str) -> None:
    """Reject any entry of the nested lists that is not a JSON integer:
    an int64 cast would truncate 1.5 to 1 and read true as 1."""
    if isinstance(value, list):
        for item in value:
            _check_integer_entries(item, key)
    elif type(value) is not int:
        raise ValueError(f"net JSON matrices and tail_rows must hold integer rows: {key!r} holds {json.dumps(value)}")


def net_from_json(text: str) -> DigitalNet:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("net JSON must be an object")
    for key in ("base", "s", "m", "n", "matrices"):
        if type(doc.get(key)) is not (list if key == "matrices" else int):
            raise ValueError(f"net JSON field {key!r} is missing or of the wrong type")
    for key in ("matrices", "tail_rows"):
        if key in doc:
            _check_integer_entries(doc[key], key)
    sym_columns = doc.get("sym_columns", 0)
    if type(sym_columns) is not int or sym_columns < 0:
        raise ValueError(f"net JSON field 'sym_columns' must be a nonnegative integer, not {json.dumps(sym_columns)}")
    try:
        mats = tuple(np.array(m, dtype=np.int64) for m in doc["matrices"])
        tails = tuple(np.array(t, dtype=np.int64) for t in doc["tail_rows"]) if "tail_rows" in doc else None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"net JSON matrices and tail_rows must hold integer rows: {exc}") from None
    if len(mats) != doc["s"]:
        raise ValueError("coordinate count does not match matrices")
    for m in mats:
        if m.shape != (doc["n"], doc["m"]):
            raise ValueError("matrix shape does not match declared n, m")
    return DigitalNet(doc["base"], mats, tails, sym_columns=sym_columns)


def points_to_csv(points: NetPoints, stream) -> None:
    """Exact p/q columns next to decimal columns, one row per net point.

    The cells come from the (N, s) numerators of point_numerators.  Each
    coordinate's distinct values are formatted once (a symmetrized net
    repeats each value at least b^(s-1) times) and the rows are assembled from
    them by lookup, _ROW_BLOCK rows per write.  Each value num/den is
    reduced by gcd(num, den), so the cells do not depend on the number n
    of the net's digit rows, and its decimal is the correctly rounded
    quotient: int64 numerators and den <= 2^40 are exact in float64, and
    Python ints divide exactly rounded too.
    """
    nums, den = point_numerators(require_net_points(points, "points_to_csv"))
    stream.write("# schema=1\n")
    s = nums.shape[1]
    stream.write(",".join(f"x{j}_frac,x{j}" for j in range(1, s + 1)) + "\n")
    columns = []
    for j in range(s):
        values, inverse = np.unique(nums[:, j], return_inverse=True)
        g = np.gcd(values, den)
        end = "," if j < s - 1 else "\n"
        cells = [f"{p}/{q},{x!r}{end}" for p, q, x in zip((values // g).tolist(), (den // g).tolist(), (values / den).tolist())]
        columns.append((np.array(cells, dtype=object), inverse))
    for lo in range(0, len(nums), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        stream.write("".join(map("".join, zip(*(cells[inverse[rows]].tolist() for cells, inverse in columns)))))
