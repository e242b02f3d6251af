"""Dual nets, the reduced Dick weight mu2, and independence certificates.

The dual of a digital net collects the frequency vectors k whose digit
expansions annihilate the generating matrices:
sum_j vec(k_j) C_j = 0 over Z_b.  Only frequencies with fewer than n
digits are meaningful against n stored rows; larger ones are rejected
rather than zero padded.

mu2 adds the positions of the two highest nonzero digits (one position
for a single nonzero digit, zero for k = 0).  rho2 is the minimum of
mu2(k_1) + mu2(k_2) over the dual without the origin; it can be found by
bounded enumeration or certified indirectly through linear independence
of generating-matrix rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .badic import digit_values, frequency_digits, int_digits, is_prime
from .nets import DigitalNet, truncated_sym_hammersley

GUARD_DEFAULT = 1 << 26


def dual_contains(net: DigitalNet, k: Sequence[int]) -> bool:
    """Exact dual membership of a frequency vector (one int per coordinate)."""
    return bool(dual_members(net, frequency_digits([k], net.base, net.s, net.n))[0])


def dual_members(net: DigitalNet, digits: np.ndarray) -> np.ndarray:
    """Exact dual membership of the frequency vectors with (T, s, d)
    digits (frequency_digits), as a (T,) bool array.

    Every component must fit in the digit rows (no nonzero digit past
    n).  The images sum_j vec(k_j) C_j mod b of all vectors come from one
    (T, d) @ (d, m) product per coordinate, in int64 while d (b-1)^2 <
    2^63 bounds its entries and in Python ints past that.
    """
    if digits.shape[1] != net.s:
        raise ValueError("incompatible elements: dimension mismatch")
    b, n = net.base, net.n
    if digits[..., n:].any():
        raise ValueError("digits exceed matrix rows")
    d = min(digits.shape[-1], n)
    dtype = np.int64 if d * (b - 1) ** 2 < 1 << 63 else object
    acc = np.zeros((len(digits), net.m), dtype=np.int64)
    for j, C in enumerate(net.matrices):
        acc += (digits[:, j, :d].astype(dtype) @ C[:d].astype(dtype) % b).astype(np.int64)
    return ~np.any(acc % b, axis=1)


def image_table(net: DigitalNet, j: int, k_digits: int) -> np.ndarray:
    """(b^k_digits, m) array whose row k is vec(k) C_j mod b.

    Built one digit at a time (row k + d b^a is row k plus d times row a
    of C_j) in the smallest unsigned dtype that holds 2(b-1), so that no
    int64 digit matrix of b^k_digits rows is ever held.  Sums of several
    tables must be taken in a wider dtype.
    """
    if k_digits > net.n:
        raise ValueError("digits exceed matrix rows")
    b = net.base
    dtype = np.min_scalar_type(2 * (b - 1))
    table = np.zeros((1, net.m), dtype=dtype)
    for row in net.matrices[j][:k_digits]:
        table = np.concatenate([(table + (d * row % b).astype(dtype)) % b for d in range(b)])
    return table


def _sorted_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of keys and the keys in that order, so equal keys
    keep their index order."""
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _matches(side: tuple[np.ndarray, np.ndarray], targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per target, where its run of equal keys starts in the sorted side
    and how long it is (zero when no key matches)."""
    lo = np.searchsorted(side[1], targets, side="left")
    return lo, np.searchsorted(side[1], targets, side="right") - lo


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of runs of counts[0], counts[1], ... entries: its run and its place in it."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)


def _join(side: tuple[np.ndarray, np.ndarray], targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, k) with keys[k] == targets[i], ordered by i, then k."""
    lo, counts = _matches(side, targets)
    i, place = _runs(counts)
    return i, side[0][lo[i] + place]


def _half(tables: list[np.ndarray], m: int, b: int, budget: int, weighted: bool):
    """A half's admissible tuples by weight (summed digit levels, 0 in a
    box), lexicographic within one: the keys of their image rows summed
    mod b, their components, and where each weight 0..budget+1 starts.
    Each row takes the k < b^(budget - weight) of the next table, added
    in the tables' narrow dtype and reduced by one conditional subtract."""
    levels = np.searchsorted(b ** np.arange(budget), np.arange(b**budget), side="right") * weighted
    rows, weights, comps = np.zeros((1, m), dtype=np.uint8), levels[:1], np.zeros((1, 0), dtype=np.int64)
    if tables:
        rows, weights, comps = tables[0], levels, np.arange(len(levels))[:, None]
    for table in tables[1:]:
        i, k = _runs(b ** (budget - weights))
        rows = rows[i] + table[k]
        rows -= (rows >= b) * rows.dtype.type(b)
        weights, comps = weights[i] + levels[k], np.column_stack([comps[i], k])
    order = np.argsort(weights, kind="stable")
    return digit_values(rows, b)[order], comps[order], np.searchsorted(weights[order], np.arange(budget + 2))


def dual_scan(net: DigitalNet, k_digits: int, weighted: bool = False) -> np.ndarray:
    """Dual vectors in a box, as a (T, s) int64 array in lexicographic order, origin included.

    Unweighted, every component ranges over k < b^k_digits.  Weighted,
    k_digits is a budget on the sum of the components' digit counts.  The
    first s // 2 coordinates, negated, and the rest are folded into two
    halves; the left half's keys of weight w are joined with the right
    half's of weight at most budget - w, a prefix of it.
    """
    b, s = net.base, net.s
    tables = [image_table(net, j, k_digits) for j in range(s)]
    l_keys, l_comps, l_bounds = _half([(b - t) % b for t in tables[: s // 2]], net.m, b, k_digits, weighted)
    r_keys, r_comps, r_bounds = _half(tables[s // 2 :], net.m, b, k_digits, weighted)
    out = []
    for w in np.flatnonzero(np.diff(l_bounds)):  # the weights the left half holds
        i, k = _join(_sorted_keys(r_keys[: r_bounds[k_digits - w + 1]]), l_keys[l_bounds[w] : l_bounds[w + 1]])
        out.append(np.column_stack([l_comps[l_bounds[w] + i], r_comps[k]]))
    out = np.concatenate(out)
    return out[np.lexsort(out.T[::-1])]


def dual_enumerate_below(net: DigitalNet, k_digits: int, max_candidates: int = GUARD_DEFAULT) -> np.ndarray:
    """All dual vectors with every component below b^k_digits, as a
    (T, s) int64 array in lexicographic order.

    k_digits may not exceed the stored rows n; the box size b^(s*k_digits)
    is capped by max_candidates.
    """
    b, s = net.base, net.s
    if k_digits < 1:
        raise ValueError("need at least one digit")
    if k_digits > net.n:
        raise ValueError("digits exceed matrix rows")
    box = b**k_digits
    if box**s > max_candidates:
        raise ValueError(f"guard exceeded: {box**s} candidates over cap {max_candidates}")
    return dual_scan(net, k_digits)


# ---------------------------------------------------------------------------
# Dick weight


@dataclass(frozen=True)
class WeightProfile:
    """Nonzero digit positions of k (descending, 1-based) and its mu2."""

    k: int
    positions: tuple[int, ...]
    mu2: int


def mu2(k: int, base: int) -> WeightProfile:
    if k < 0:
        raise ValueError("frequencies are nonnegative")
    digits = int_digits(k, base)
    pos = tuple(i for i in range(len(digits), 0, -1) if digits[i - 1])
    if not pos:
        w = 0
    elif len(pos) == 1:
        w = pos[0]
    else:
        w = pos[0] + pos[1]
    return WeightProfile(k, pos, w)


@dataclass(frozen=True)
class Rho2Result:
    """Outcome of the bounded minimum-weight search over the dual."""

    weight: int | None  # None when every dual vector under the cap is trivial
    cap: int
    witness: tuple[int, int] | None = None
    certified_by: str = "enumeration"

    @property
    def exceeded(self) -> bool:
        return self.weight is None

    def to_json_dict(self) -> dict:
        return {
            "rho2": "exceeds" if self.exceeded else self.weight,
            "cap": self.cap,
            "certified_by": self.certified_by,
            "witness": list(self.witness) if self.witness else None,
        }


def _profiles(cap: int):
    """The mu2 classes of weight <= cap as (weight, positions).

    positions holds the one or two highest nonzero digit positions,
    descending: () for k = 0, (a,) for a single digit, (a1, a2) with
    a1 > a2 otherwise.  A class has (b-1)^len(positions) members, times
    b^(a2-1) for the free digits below a2.
    """
    yield 0, ()
    for a in range(1, cap + 1):
        yield a, (a,)
    for a1 in range(2, cap):
        for a2 in range(1, min(a1 - 1, cap - a1) + 1):
            yield a1 + a2, (a1, a2)


def _class_members(base: int, positions: tuple[int, ...]) -> list[int]:
    """The k of one mu2 class in (top digit, second digit, low digits) order."""
    b = base
    if not positions:
        return [0]
    high = b ** (positions[0] - 1)
    if len(positions) == 1:
        return [k1 * high for k1 in range(1, b)]
    mid = b ** (positions[1] - 1)
    return [k1 * high + k2 * mid + low for k1 in range(1, b) for k2 in range(1, b) for low in range(mid)]


def rho2_min_weight(net: DigitalNet, cap: int | None = None, max_candidates: int = GUARD_DEFAULT) -> Rho2Result:
    """Minimum mu2(k1) + mu2(k2) over nontrivial dual vectors, by search.

    Enumerates candidate pairs in increasing total weight and stops at the
    first dual hit, so the reported weight is exact whenever it is at most
    cap (default and maximum: 2n).  Both guards are counted from the class
    sizes before any class is built.  Each mu2 class is imaged in one
    product, and each class pair (w1, w2) of a total weight is a join:
    the first k1 in class order whose cancelling row is among the keys of
    class w2, with the first such k2.
    """
    if net.s != 2:
        raise ValueError("weight search is implemented for two coordinates")
    b, n = net.base, net.n
    if cap is None:
        cap = 2 * n
    if not 1 <= cap <= 2 * n:
        raise ValueError("cap must lie in 1..2n")
    classes = [(w, pos) for w, pos in _profiles(cap) if not pos or pos[0] <= n]
    sizes: dict[int, int] = {}
    for w, pos in classes:
        sizes[w] = sizes.get(w, 0) + (b - 1) ** len(pos) * (b ** (pos[1] - 1) if len(pos) == 2 else 1)
    count = sum(sizes.values())
    if count > max_candidates:
        raise ValueError(f"guard exceeded: {count} candidates over cap {max_candidates}")
    pair_count = sum(c1 * c2 for w1, c1 in sizes.items() for w2, c2 in sizes.items() if w1 + w2 <= cap)
    if pair_count > max_candidates:
        raise ValueError(f"guard exceeded: {pair_count} candidate pairs over cap {max_candidates}")
    by_w: dict[int, list[int]] = {w: [] for w in sizes}
    for w, pos in classes:  # within a weight, single digits come first
        by_w[w] += _class_members(b, pos)
    # candidates are below b^d, so only the first d digit rows matter
    d = min(cap, n)
    neg_keys, sides = {}, {}
    for w, ks in by_w.items():
        digits = frequency_digits([(k,) for k in ks], b, 1, d)[:, 0]
        neg_keys[w] = digit_values(-(digits @ net.matrices[0][:d]) % b, b)
        sides[w] = _sorted_keys(digit_values(digits @ net.matrices[1][:d] % b, b))
    for W in range(1, cap + 1):  # W >= 1, so the origin is never a candidate pair
        for w1 in range(0, W + 1):
            w2 = W - w1
            if w1 not in by_w or w2 not in by_w:
                continue
            lo, counts = _matches(sides[w2], neg_keys[w1])
            hit = np.flatnonzero(counts)
            if len(hit):
                i1 = hit[0]
                return Rho2Result(W, cap, (by_w[w1][i1], by_w[w2][sides[w2][0][lo[i1]]]))
    return Rho2Result(None, cap)


# ---------------------------------------------------------------------------
# linear-algebra certificates


def rank_mod_p(rows: np.ndarray, p: int) -> int | np.ndarray:
    """Row ranks over the field with p elements, of one (r, c) matrix (an
    int) or of every matrix of an (S, r, c) stack (an (S,) int64 array).

    One Gauss-Jordan elimination runs over the whole stack, column by
    column.  In each matrix the pivot is the first nonzero row at or below
    its current rank; it moves up to that rank, is scaled by the inverse
    of its entry, and clears its column in every other row.  The work is
    in int64 while (p-1)^2 + (p-1) < 2^63, which bounds every product and
    difference, and in Python ints past that, so no entry overflows.
    """
    if not is_prime(p):
        raise ValueError("requires prime base")
    a = np.asarray(rows)
    if a.ndim not in (2, 3):
        raise ValueError("expected a matrix or a stack of matrices")
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.dtype.kind not in "iuO":
        a = a.astype(np.int64)
    dtype = np.int64 if (p - 1) ** 2 + (p - 1) < 1 << 63 else object
    a = (a % p).astype(dtype)
    S, R, C = a.shape
    rank = np.zeros(S, dtype=np.int64)
    below = np.ones((S, R), dtype=bool)  # rows at or below each matrix's rank
    for c in range(C):
        if not below.any():
            break
        candidates = (a[:, :, c] != 0) & below
        idx = np.flatnonzero(candidates.any(axis=1))
        if not len(idx):
            continue
        top, piv = rank[idx], candidates[idx].argmax(axis=1)
        row = a[idx, piv]
        a[idx, piv] = a[idx, top]
        row = row * _inverses(row[:, c, None], p) % p
        a[idx] = (a[idx] - a[idx, :, c, None] * row[:, None, :]) % p
        a[idx, top] = row
        rank[idx] += 1
        below[idx, top] = False
    return int(rank[0]) if single else rank


def _inverses(v: np.ndarray, p: int) -> np.ndarray:
    """v^(p-2) mod p for an array of nonzero residues: their inverses
    mod the prime p, by square and multiply over the array.  Every
    product is of two residues, so it stays in v's dtype."""
    out = np.ones_like(v)
    e = p - 2
    while e:
        if e & 1:
            out = out * v % p
        v = v * v % p
        e >>= 1
    return out


def _selection(j: int, positions: tuple[int, ...]) -> list[tuple[int, int]]:
    """The rows (j, l) a mu2 class pins in coordinate j: {1..a2} + {a1}
    for two positions, the one position, or none."""
    low = range(1, positions[1] + 1) if len(positions) == 2 else ()
    return [(j, l) for l in (*low, *positions[:1])]


_RANK_ENTRIES = 1 << 20  # stack entries per rank_mod_p call


def _independent_chunks(net: DigitalNet, selections: list[list[tuple[int, int]]]):
    """Per chunk of about _RANK_ENTRIES stack entries, a bool array that
    is True where the selected rows (j, l) are linearly independent mod b.

    Every selection is gathered from one (s, n+2, m) row table, in which
    index l of coordinate j is digit row l (1-based) and indices 0 and
    n+1 are zero rows: rows past n read n+1, since a row the matrix does
    not store is zero, and each selection is padded to the longest with
    zero rows, which leave its rank unchanged.
    """
    b, n = net.base, net.n
    table = np.zeros((net.s, n + 2, net.m), dtype=np.int64)
    table[:, 1 : n + 1] = net.matrices
    width = max(map(len, selections), default=0)
    step = max(1, _RANK_ENTRIES // max(1, width * net.m))
    for lo in range(0, len(selections), step):
        chunk = selections[lo : lo + step]
        counts = np.array([len(rows) for rows in chunk], dtype=np.int64)
        which, place = _runs(counts)
        J = np.zeros((len(chunk), width), dtype=np.intp)
        L = np.zeros((len(chunk), width), dtype=np.intp)
        jl = np.array([pair for rows in chunk for pair in rows], dtype=np.intp).reshape(-1, 2)
        J[which, place], L[which, place] = jl[:, 0], np.minimum(jl[:, 1], n + 1)
        yield rank_mod_p(table[J, L], b) == counts


@dataclass(frozen=True)
class FamilyReport:
    name: str
    checked: int
    passed: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.checked == self.passed


@dataclass(frozen=True)
class IndependenceReport:
    families: tuple[FamilyReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(f.ok for f in self.families)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "families": [
                {"name": f.name, "checked": f.checked, "passed": f.passed, "failures": list(f.failures)}
                for f in self.families
            ],
        }


def check_independence_sets(net: DigitalNet) -> IndependenceReport:
    """Rank-check the four row families behind the weight bound for the
    truncated symmetrized Hammersley matrices.

    Families (rows c_{j,l} of coordinate j, m the Hammersley digit count):
      head-head    first r rows of one matrix with the first m+1-r of the other
      full-single  first m+1 rows of one matrix plus any single early row of the other
      deep-row     first r and m-r rows plus one row from the truncated band
      two-block    first r_2 rows plus row r_1 from each matrix, weight <= 2m+1

    The selections of all four families are ranked together, as stacks.
    """
    b = net.base
    if not is_prime(b):
        raise ValueError("requires prime base")
    m = net.m - 2
    n = net.n
    if m < 1:
        raise ValueError("expected truncated symmetrized Hammersley matrices")
    expected = truncated_sym_hammersley(b, m, n)
    for got, want in zip(net.matrices, expected.matrices):
        if not np.array_equal(got, want):
            raise ValueError("expected truncated symmetrized Hammersley matrices")
    if n <= 2 * m:
        raise ValueError("need n > 2m digit rows")

    def head(j: int, r: int) -> list[tuple[int, int]]:
        return [(j, l) for l in range(1, r + 1)]

    twos = [pos for _, pos in _profiles(2 * m) if len(pos) == 2 and pos[0] <= m]
    families = {
        "head-head": [(f"r={r}", head(0, r) + head(1, m + 1 - r)) for r in range(m + 2)],
        "full-single": [(f"j={j + 1},r={r}", head(j, m + 1) + [(1 - j, r)]) for j in (0, 1) for r in range(1, m + 1)],
        "deep-row": [
            (f"j={j + 1},r={r},t={t}", head(0, r) + head(1, m - r) + [(j, t)])
            for j in (0, 1) for r in range(m + 1) for t in range(m + 1, n + 1)
        ],
        "two-block": [
            (f"{p + q}", _selection(0, p) + _selection(1, q)) for p in twos for q in twos if sum(p + q) <= 2 * m + 1
        ],
    }
    rows = [rows for selections in families.values() for _, rows in selections]
    passed = iter(np.concatenate([np.ones(0, dtype=bool), *_independent_chunks(net, rows)]).tolist())
    reports = []
    for name, selections in families.items():  # each family takes its own run of the results
        fails = tuple(label for label, _ in selections if not next(passed))
        reports.append(FamilyReport(name, len(selections), len(selections) - len(fails), fails))
    return IndependenceReport(tuple(reports))


def certify_rho2_via_independence(net: DigitalNet, rho: int) -> bool:
    """True when every admissible row selection of weight <= rho is
    linearly independent, which forces rho2(net) > rho.

    Per coordinate the selection keeps an arbitrary index set whose two
    largest members i_1 > i_2 satisfy the weight budget; rows below i_2
    are free, so it suffices to rank-check the maximal selections
    {1..i_2} + {i_1}.  Rows past n are zero, hence any selection touching
    them fails and the certificate stays sound for rho >= n too.
    """
    if net.s != 2:
        raise ValueError("certificate is implemented for two coordinates")
    if not is_prime(net.base):
        raise ValueError("requires prime base")
    if not 1 <= rho <= 2 * net.m:
        raise ValueError("rho must lie in 1..2m for the row bound to apply")

    profiles = list(_profiles(rho))
    selections = [
        _selection(0, p1) + _selection(1, p2) for w1, p1 in profiles for w2, p2 in profiles if w1 + w2 <= rho and p1 + p2
    ]
    return all(ok.all() for ok in _independent_chunks(net, selections))
