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
import sys
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Iterator

import numpy as np

from .badic import GElement, GVector, add_mod, frequency_digits, integer_array, linear_table, mod_product, numerators

# net point rows per block of digit arrays (numerators, the diagonal-kernel
# group sum), of GVectors when iterating and of CSV rows per write: larger
# blocks raised the peak RSS.  The blocks of one NetPoints.digit_blocks
# call share its two half-index tables
_ROW_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class DigitalNet:
    """Digital net: shared-shape generating matrices, one per coordinate.

    tail_rows[j], when present, is a length-m vector t with the meaning
    that the point for index digits nu has constant tail digit t @ nu
    mod b in coordinate j (all-zero tail when absent).  sym_columns
    counts how many trailing columns were added by symmetrization.
    Every field passes badic.integer_array: base and sym_columns become
    Python ints, matrices and tail rows read-only int64 digits in [0, b).
    """

    base: int
    matrices: tuple[np.ndarray, ...]
    tail_rows: tuple[np.ndarray, ...] | None = None
    sym_columns: int = 0

    def __post_init__(self):
        base = integer_array(self.base, "base", shape=()).item()
        sym_columns = integer_array(self.sym_columns, "sym_columns", shape=()).item()
        if base < 2:
            raise ValueError("base must be >= 2")
        if sym_columns < 0:
            raise ValueError("sym_columns must be nonnegative")
        if not len(self.matrices):
            raise ValueError("net needs at least one coordinate")
        mats = tuple(integer_array(m, "generating matrix", shape=(None, None), below=base) for m in self.matrices)
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ValueError("generating matrices must share one shape")
        if shape[0] < 1:
            raise ValueError("need at least one digit row")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sym_columns", sym_columns)
        object.__setattr__(self, "matrices", mats)
        if self.tail_rows is not None:
            tails = integer_array(self.tail_rows, "tail rows", shape=(len(mats), shape[1]), below=base)
            object.__setattr__(self, "tail_rows", tuple(tails))

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


class NetPoints:
    """Read-only sequence of a net's points in index order: the one point
    input of to_point_set, points_to_csv, the character sums and
    exponent tables of walsh, and wce_direct and qmc_integrate in rkhs.

    It holds the net and an optional digital shift, an (s, n) integer
    array of digits in [0, b) (zero tail) kept as the read-only int64 copy
    of badic.integer_array, and is never empty.  A net of more points than
    an index holds (sys.maxsize) is a ValueError.  digit_blocks()
    gives the digit arrays of every point, _ROW_BLOCK rows at a time, and
    digit_arrays() the same rows as one block.  Every digit and tail is
    linear in the index digits, so the row of index nu = nu_hi b^h + nu_lo,
    h = ceil(m/2), is the sum mod b of a row read for the high digits nu_hi
    and one for the low digits nu_lo: digit_blocks builds the
    badic.linear_table of these rows over all b^(m-h) and b^h half indices
    once, before its first block, and a block is then one gather and one
    badic.add_mod in the tables' unsigned type.  Indexing reads the rows
    asked for with one badic.mod_product of their m index digits, no table.
    The shift is one add_mod more.  Both are exact at every base.
    Indexing and iteration build GVector objects from the digit arrays of
    the rows asked for, a block at a time when iterating, and keep none.
    """

    def __init__(self, net: DigitalNet, shift: np.ndarray | None = None):
        if net.n_points > sys.maxsize:
            raise ValueError(f"net has {net.base}^{net.m} points, more than an index holds ({sys.maxsize})")
        self.net = net
        self.shift = None if shift is None else integer_array(shift, "shift", shape=(net.s, net.n), below=net.base)

    def __len__(self) -> int:
        return self.net.n_points

    def __getitem__(self, i):
        index = range(len(self))[i]
        if isinstance(index, int):
            return self[index : index + 1][0]
        digits = frequency_digits([(v,) for v in index], self.net.base, 1, self.net.m)[:, 0]
        return self._vectors(*self._split(mod_product(digits, self._weights(), self.net.base)))

    def __iter__(self):
        for digits, tails in self.digit_blocks():
            yield from self._vectors(digits, tails)

    def _weights(self) -> np.ndarray:
        """(m, s n [+ s]) rows: the digits and tails index digit c adds."""
        net = self.net
        cols = [C.T for C in net.matrices]
        if net.tail_rows is not None:
            cols.append(np.stack(net.tail_rows, axis=1))
        return np.hstack(cols)

    def _split(self, prod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, s, n) digits, shift added, and (B, s) tails of rows mod b."""
        net = self.net
        prod = prod.astype(np.int64, copy=False)
        digits = prod[:, : net.s * net.n].reshape(-1, net.s, net.n)
        if self.shift is not None:
            digits = add_mod(digits, self.shift, net.base)
        tails = prod[:, net.s * net.n :] if net.tail_rows is not None else np.zeros((len(prod), net.s), dtype=np.int64)
        return digits, tails

    def digit_blocks(self, block: int = _ROW_BLOCK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(B, s, n) digits and (B, s) tails of every point in index
        order, block rows at a time, from the two half-index tables."""
        weights = self._weights()
        b, m, N = self.net.base, self.net.m, len(self)
        h = (m + 1) // 2
        hi_rows, lo_rows = linear_table(weights[h:], b), linear_table(weights[:h], b)
        for start in range(0, N, block):
            hi, lo = np.divmod(np.arange(start, min(start + block, N), dtype=np.int64), b**h)
            yield self._split(add_mod(np.take(hi_rows, hi, axis=0), np.take(lo_rows, lo, axis=0), b))

    def digit_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, s, n) digits and (N, s) tails: the one block of digit_blocks."""
        return next(self.digit_blocks(len(self)))

    def _vectors(self, digits: np.ndarray, tails: np.ndarray) -> list[GVector]:
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
# exact rational point sets


@dataclass(frozen=True, eq=False)
class PointSet:
    """Multiset of exact rationals in [0, 1]^s, stored as (N, s) integer
    numerators in [0, den] over one common positive denominator, both read
    by badic.integer_array.  The numerators are int64 exactly when
    den < 2^63, which bounds them, and Python ints when den does not fit."""

    nums: np.ndarray  # (N, s)
    den: int

    def __post_init__(self):
        rule = "den must be a positive integer"
        den = integer_array(self.den, "den", shape=(), rule=rule).item()
        if den <= 0:
            raise ValueError(f"{rule}: den holds {den}")
        rule = "numerators must be integers in [0, den], which puts no point outside the unit cube [0, 1]^s"
        nums = integer_array(self.nums, "numerators", shape=(None, None), below=den + 1, rule=rule)
        if den >= 1 << 63 and nums.dtype != object:
            nums = nums.astype(object)
            nums.setflags(write=False)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def n_points(self) -> int:
        return self.nums.shape[0]

    def fractions(self) -> list[tuple[Fraction, ...]]:
        return [tuple(Fraction(v, self.den) for v in row) for row in self.nums.tolist()]

    @classmethod
    def from_fractions(cls, rows: Iterable[Iterable[Fraction]]) -> "PointSet":
        """Rows of one length s over the lcm of their denominators."""
        rows = [[Fraction(v) for v in row] for row in rows]
        den = math.lcm(*(v.denominator for row in rows for v in row))
        return cls(np.array([[v.numerator * (den // v.denominator) for v in row] for row in rows], dtype=object), den)


PointSet2 = PointSet  # the name the benchmark's output check imports


def to_point_set(points: DigitalNet | NetPoints) -> PointSet:
    """Exact rational image of a net or of its NetPoints, shifted or not:
    the numerators of badic.numerators, read from digit_blocks, so no
    (N, s, n) array is held."""
    points = NetPoints(points) if isinstance(points, DigitalNet) else require_net_points(points, "to_point_set")
    blocks = [numerators(digits, tails, points.net.base) for digits, tails in points.digit_blocks()]
    return PointSet(np.concatenate([nums for nums, _ in blocks]), blocks[0][1])


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
    C = np.eye(n, m, dtype=np.int64)
    return DigitalNet(base, (C, C[:, ::-1]))


def symmetrize_matrices(net: DigitalNet) -> DigitalNet:
    """Adjoin the digit-reflection columns: D_j = (C_j | E_j).

    E_j is all ones in column j (through every digit row and onward into
    the tail, recorded in tail_rows) and zero in the other appended
    columns, so the enlarged net enumerates z + e_l for every original
    point z and every l in Z_b^s.
    """
    s, n = net.s, net.n
    E = np.eye(s, dtype=np.int64)
    mats = np.concatenate([np.stack(net.matrices), np.broadcast_to(E[:, None], (s, n, s))], axis=2)
    told = np.stack(net.tail_rows) if net.tail_rows is not None else np.zeros((s, net.m), dtype=np.int64)
    return DigitalNet(net.base, tuple(mats), tuple(np.hstack([told, E])), sym_columns=net.sym_columns + s)


def truncated_sym_hammersley(base: int, m: int, n: int) -> DigitalNet:
    """Symmetrized Hammersley net cut off after n digit rows.

    The n x (m+2) matrices of symmetrize_matrices(hammersley_matrices(base,
    m, n)) without its tail rows: the two appended columns are all ones
    in rows 1..n for their own coordinate and nothing is carried past
    row n (genuine truncation).
    """
    if n < m + 2:
        raise ValueError("truncation too short: need n >= m + 2")
    return DigitalNet(base, symmetrize_matrices(hammersley_matrices(base, m, n)).matrices)


def sym_hammersley_points(base: int, m: int) -> PointSet:
    """Symmetrized Hammersley point set: to_point_set of the symmetrized
    Hammersley matrices, b^(m+2) points over den b^m (b - 1)."""
    return to_point_set(symmetrize_matrices(hammersley_matrices(base, m)))


def hammersley_point_set(base: int, m: int) -> PointSet:
    """Plain Hammersley point set: to_point_set of hammersley_matrices,
    b^m points over den b^m (b - 1)."""
    return to_point_set(hammersley_matrices(base, m))


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
    if not isinstance(doc, dict):
        raise ValueError("net JSON must be an object")
    for key in ("base", "s", "m", "n", "matrices"):
        if type(doc.get(key)) is not (list if key == "matrices" else int):
            raise ValueError(f"net JSON field {key!r} is missing or of the wrong type")
    sym_columns = doc.get("sym_columns", 0)
    if type(sym_columns) is not int or sym_columns < 0:
        raise ValueError(f"net JSON field 'sym_columns' must be a nonnegative integer, not {json.dumps(sym_columns)}")
    rule, s, n, m = "net JSON matrices and tail_rows must hold integer rows", doc["s"], doc["n"], doc["m"]
    mats = integer_array(doc["matrices"], "'matrices'", shape=(s, n, m), rule=rule)
    tails = integer_array(doc["tail_rows"], "'tail_rows'", shape=(s, m), rule=rule) if "tail_rows" in doc else None
    return DigitalNet(doc["base"], tuple(mats), tails, sym_columns=sym_columns)


def points_to_csv(points: NetPoints, stream) -> None:
    """Exact p/q columns next to decimal columns, one row per net point.

    The cells come from the (N, s) numerators of to_point_set.  One
    np.unique over all N s numerators finds the distinct values, and each
    is formatted once and shared by every coordinate that holds it (a
    symmetrized net repeats each value at least b^(s-1) times within a
    coordinate, and its coordinates share their values).  The rows are
    assembled from the cells by lookup, _ROW_BLOCK rows per write.  Each
    value num/den is reduced by gcd(num, den), so the cells do not depend
    on the number n of the net's digit rows, and its decimal is the
    correctly rounded quotient: in float64 while den <= 2^53, where both
    operands are exact, and as a true division of Python ints past that.
    """
    ps = to_point_set(require_net_points(points, "points_to_csv"))
    nums, den = ps.nums, ps.den
    stream.write("# schema=1\n")
    s = nums.shape[1]
    stream.write(",".join(f"x{j}_frac,x{j}" for j in range(1, s + 1)) + "\n")
    values, inverse = np.unique(nums, return_inverse=True)
    g = np.gcd(values, den)
    quotients = (values if den <= 1 << 53 else values.astype(object)) / den
    cells = [f"{p}/{q},{x!r}" for p, q, x in zip((values // g).tolist(), (den // g).tolist(), quotients.tolist())]
    # cell k + U (U distinct values) is cell k closing its row
    table = np.array([c + "," for c in cells] + [c + "\n" for c in cells], dtype=object)
    keys = inverse.reshape(nums.shape)
    keys[:, -1] += len(cells)
    for lo in range(0, len(nums), _ROW_BLOCK):
        stream.write("".join(table[keys[lo : lo + _ROW_BLOCK]].ravel().tolist()))
