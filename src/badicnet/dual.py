"""Dual nets, the reduced Dick weight mu2, and independence certificates.

The dual of a digital net collects the frequency vectors k whose digit
expansions annihilate the generating matrices:
sum_j vec(k_j) C_j = 0 over Z_b.  Only frequencies with fewer than n
digits are meaningful against n stored rows; larger ones are rejected
rather than zero padded.

mu2 adds the positions of the two highest nonzero digits (one position
for a single nonzero digit, zero for k = 0).  rho2 is the minimum of
mu2(k_1) + ... + mu2(k_s) over the dual without the origin; it can be
found by bounded enumeration, on the same half join as the dual scan,
or certified indirectly through linear independence of generating-matrix
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .badic import add_mod, digit_values, frequency_digits, int_digits, integer_array, is_prime, linear_table, mod_product
from .nets import DigitalNet, truncated_sym_hammersley

GUARD_DEFAULT = 1 << 26


class GuardExceeded(ValueError):
    """A resource guard tripped: the counted cost of a call is over its cap."""


def dual_contains(net: DigitalNet, k: Sequence[int]) -> bool:
    """Exact dual membership of a frequency vector (one int per coordinate)."""
    return bool(dual_members(net, frequency_digits([k], net.base, net.s, net.n))[0])


def dual_members(net: DigitalNet, digits: np.ndarray) -> np.ndarray:
    """Exact dual membership of the frequency vectors with (T, s, d)
    digits (frequency_digits), none nonzero past n, as a (T,) bool array:
    their images sum_j vec(k_j) C_j mod b are one badic.mod_product of
    the (T, s d) digits with the stacked C_j[:d].  The digits pass
    badic.integer_array as digits in [0, b)."""
    digits = integer_array(digits, "frequency digits", shape=(None, None, None), below=net.base)
    if digits.shape[1] != net.s:
        raise ValueError("incompatible elements: dimension mismatch")
    if digits[..., net.n :].any():
        raise ValueError("digits exceed matrix rows")
    d = min(digits.shape[-1], net.n)
    rows = np.concatenate([C[:d] for C in net.matrices])  # stacked like the (T, s d) digits
    return ~mod_product(digits[..., :d].reshape(len(digits), net.s * d), rows, net.base).any(axis=1)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of runs of counts[0], counts[1], ... entries: its run and its place in it."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)


def _join(side: tuple[np.ndarray, np.ndarray], targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, k) with keys[k] == targets[i], ordered by i, then k,
    from a side (stable argsort of keys, keys in that order): each
    target's run of equal keys, found by two searchsorted calls."""
    lo = np.searchsorted(side[1], targets, side="left")
    i, place = _runs(np.searchsorted(side[1], targets, side="right") - lo)
    return i, side[0][lo[i] + place]


def _tuple_count(sizes: Sequence[int], s: int, cap: int) -> int:
    """Number of s-tuples of total weight <= cap when each coordinate has
    sizes[w] members of weight w, exact in Python ints."""
    counts = [1] + [0] * cap  # tuples of the coordinates so far, per total weight
    for _ in range(s):
        counts = [sum(counts[v] * sizes[w - v] for v in range(w + 1) if w - v < len(sizes)) for w in range(cap + 1)]
    return sum(counts)


def _half(tables: list[np.ndarray], weights: np.ndarray, m: int, b: int, budget: int):
    """A half's tuples of rows, one row per table, of total weight at most
    budget, by weight and lexicographic within one: the keys of their
    image rows summed mod b, their row indices and their weights.  The
    tables share the weights, sorted, so a row of weight w takes the
    next table's prefix of weight <= budget - w; rows are added by
    add_mod in the tables' narrow dtype.  An empty half is one zero row."""
    ends = np.searchsorted(weights, np.arange(budget + 1), side="right")
    rows, totals, comps = np.zeros((1, m), dtype=np.uint8), np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    if tables:
        rows, totals, comps = tables[0], weights, np.arange(len(weights))[:, None]
    for table in tables[1:]:
        i, k = _runs(ends[budget - totals])
        rows = add_mod(rows[i], table[k], b)
        totals, comps = totals[i] + weights[k], np.column_stack([comps[i], k])
    order = np.argsort(totals, kind="stable")
    return digit_values(rows, b)[order], comps[order], totals[order]


def _half_join(tables: list[np.ndarray], weights: np.ndarray, m: int, b: int, budget: int, least: bool = False):
    """Row indices (T, s) and total weights (T,) of the tuples, one row of
    each table, of total weight <= budget whose image rows sum to zero
    mod b, the origin among them.

    The first s // 2 tables, negated, and the rest fold into two halves.
    Each weight w of the left half, increasing, is joined with the right
    half's prefix of weight <= budget - w, sorted by key.  With least,
    the budget then shrinks to the least nonzero total found so far,
    skipping heavier left weights but no tuple of the least total.
    """
    s = len(tables)
    l_keys, l_comps, l_weights = _half([(b - t) % b for t in tables[: s // 2]], weights, m, b, budget)
    r_keys, r_comps, r_weights = _half(tables[s // 2 :], weights, m, b, budget)
    l_bounds = np.searchsorted(l_weights, np.arange(budget + 2))
    r_ends = np.searchsorted(r_weights, np.arange(budget + 1), side="right")
    comps, totals = [], []
    for w in np.flatnonzero(np.diff(l_bounds)).tolist():  # the weights the left half holds
        if w > budget:
            break
        order = np.argsort(r_keys[: r_ends[budget - w]], kind="stable")  # equal keys keep their index order
        i, k = _join((order, r_keys[order]), l_keys[l_bounds[w] : l_bounds[w + 1]])
        comps.append(np.column_stack([l_comps[l_bounds[w] + i], r_comps[k]]))
        totals.append(w + r_weights[k])
        if least and totals[-1].any():
            budget = min(budget, int(totals[-1][totals[-1] > 0].min()))
    return np.concatenate(comps), np.concatenate(totals)


def dual_scan(net: DigitalNet, k_digits: int, weighted: bool = False, max_candidates: int = GUARD_DEFAULT) -> np.ndarray:
    """Dual vectors in a box, as a (T, s) int64 array in lexicographic order, origin included.

    Unweighted, every component ranges over k < b^k_digits; weighted,
    k_digits is a budget on the sum of the components' digit counts.  The
    s-tuples this admits are counted against max_candidates before any
    table is built.  Coordinate j's table, row k the image vec(k) C_j mod b,
    is the badic.linear_table of the first k_digits rows of C_j, which
    must exist; the tables go through _half_join.
    """
    b, s = net.base, net.s
    sizes, budget = ([1] + [(b - 1) * b**a for a in range(k_digits)], k_digits) if weighted else ([b**k_digits], 0)
    count = _tuple_count(sizes, s, budget)
    if count > max_candidates:
        raise GuardExceeded(f"guard exceeded: {count} candidates over cap {max_candidates}")
    if k_digits > net.n:
        raise ValueError("digits exceed matrix rows")
    levels = np.searchsorted(b ** np.arange(k_digits), np.arange(b**k_digits), side="right") * weighted
    out = _half_join([linear_table(C[:k_digits], b) for C in net.matrices], levels, net.m, b, budget)[0]
    return out[np.lexsort(out.T[::-1])]


def dual_enumerate_below(net: DigitalNet, k_digits: int, max_candidates: int = GUARD_DEFAULT) -> np.ndarray:
    """All dual vectors with every component below b^k_digits, as
    dual_scan's (T, s) array; k_digits may not exceed the stored rows n,
    and the box size b^(s*k_digits) is capped by max_candidates."""
    if k_digits < 1:
        raise ValueError("need at least one digit")
    if k_digits > net.n:
        raise ValueError("digits exceed matrix rows")
    return dual_scan(net, k_digits, max_candidates=max_candidates)


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
    witness: tuple[int, ...] | None = None
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


def _class_members(base: int, positions: tuple[int, ...]) -> np.ndarray:
    """The k of one mu2 class in (top digit, second digit, low digits)
    order, in int64 while b^a1 <= 2^63 and in Python ints past that."""
    b = base
    if not positions:
        return np.zeros(1, dtype=np.int64)
    dtype = np.int64 if b ** positions[0] <= 1 << 63 else object
    top = np.arange(1, b, dtype=dtype) * b ** (positions[0] - 1)
    if len(positions) == 1:
        return top
    mid = b ** (positions[1] - 1)
    return (top[:, None, None] + np.arange(1, b, dtype=dtype)[:, None] * mid + np.arange(mid, dtype=dtype)).ravel()


def _class_images(C: np.ndarray, base: int, positions: list[tuple[int, ...]]) -> np.ndarray:
    """Image rows vec(k) C mod b (linear_table's dtype) of the members of
    the mu2 classes at these positions, in class and _class_members order.
    Member k1 b^(a1-1) + k2 b^(a2-1) + low adds rows k1 (n+1) + a1 and
    k2 (n+1) + a2 of one linear_table of C's multiples below a zero row
    (a = 0 where a class has none) and row low of one of the free digits."""
    b, (n, m) = base, C.shape
    a = np.array([(*pos, 0, 0)[:2] for pos in positions]).reshape(-1, 2)
    low = linear_table(C[: a[:, 1].max(initial=1) - 1], b)
    multiples = linear_table(np.vstack([np.zeros((1, m), dtype=C.dtype), C]).reshape(1, -1), b).reshape(b * (n + 1), m)
    lows = b ** np.maximum(a[:, 1] - 1, 0)
    run, place = _runs((b - 1) ** (a > 0).sum(axis=1) * lows)
    head, low_rows = np.divmod(place, lows[run])
    k1, k2 = np.divmod(head, np.where(a[:, 1] > 0, b - 1, 1)[run])
    out = add_mod(multiples[(k1 + 1) * (n + 1) + a[run, 0]], multiples[(k2 + 1) * (n + 1) + a[run, 1]], b)
    return add_mod(out, low[low_rows], b)


def rho2_min_weight(net: DigitalNet, cap: int | None = None, max_candidates: int = GUARD_DEFAULT) -> Rho2Result:
    """Minimum of sum_j mu2(k_j) over nontrivial dual vectors, by search.

    The weight is exact whenever it is at most cap (default and maximum:
    2n).  Both guards, on the candidates per coordinate and on their
    s-tuples of weight <= cap, are counted from the class sizes before
    any class is built.  The classes' _class_images, by weight and in
    class order within one, go through _half_join weighted by mu2, which
    stops at the least nonzero total.  The witness is its least tuple of
    member indices, decoded by _class_members: in the plane the first k1
    of the least w1, with the first k2.
    """
    b, n, s = net.base, net.n, net.s
    if cap is None:
        cap = 2 * n
    if not 1 <= cap <= 2 * n:
        raise ValueError("cap must lie in 1..2n")
    # sorted by weight, in profile order within one
    classes = sorted(((w, pos) for w, pos in _profiles(cap) if not pos or pos[0] <= n), key=lambda c: c[0])
    counts = [(b - 1) ** len(pos) * (b ** (pos[1] - 1) if len(pos) == 2 else 1) for _, pos in classes]
    sizes = [sum(c for (v, _), c in zip(classes, counts) if v == w) for w in range(cap + 1)]
    count = sum(sizes)
    if count > max_candidates:
        raise GuardExceeded(f"guard exceeded: {count} candidates over cap {max_candidates}")
    tuple_count = _tuple_count(sizes, s, cap)
    if tuple_count > max_candidates:
        raise GuardExceeded(f"guard exceeded: {tuple_count} candidate {'pairs' if s == 2 else f'{s}-tuples'} over cap {max_candidates}")
    tables = [_class_images(C, b, [pos for _, pos in classes]) for C in net.matrices]
    comps, totals = _half_join(tables, np.repeat(np.arange(cap + 1), sizes), net.m, b, cap, least=True)
    if not totals.any():
        return Rho2Result(None, cap)
    weight = int(totals[totals > 0].min())
    hits = comps[totals == weight]
    starts = np.cumsum([0] + counts)
    first = [(i, np.searchsorted(starts, i, side="right") - 1) for i in hits[np.lexsort(hits.T[::-1])[0]].tolist()]
    return Rho2Result(weight, cap, tuple(int(_class_members(b, classes[c][1])[i - starts[c]]) for i, c in first))


# ---------------------------------------------------------------------------
# linear-algebra certificates


def rank_mod_p(rows: np.ndarray, p: int) -> int | np.ndarray:
    """Row ranks over the field with p elements, of one (r, c) matrix (an
    int) or of every matrix of an (S, r, c) stack (an (S,) int64 array) of
    integers, read by badic.integer_array.

    One Gauss-Jordan elimination runs over the whole stack, column by
    column.  In each matrix the pivot is the first nonzero row at or below
    its current rank; it moves up to that rank, is scaled by the inverse
    of its entry, and clears its column in every other row.  The work is
    in int64 while (p-1)^2 + (p-1) < 2^63, which bounds every product and
    difference, and in Python ints past that, so no entry overflows.
    """
    if not is_prime(p):
        raise ValueError("requires prime base")
    a = integer_array(rows, "rows")
    if a.ndim not in (2, 3):
        raise ValueError("expected a matrix or a stack of matrices")
    single = a.ndim == 2
    if single:
        a = a[None]
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
    them fails and the certificate stays sound for rho >= n too.  The
    selections come from the s-tuples of mu2 profiles of total weight
    <= rho, one coordinate at a time within the weight left, never from
    the whole product of the profiles; in the plane they are every pair
    (p1, p2) in profile order.
    """
    if not is_prime(net.base):
        raise ValueError("requires prime base")
    if not 1 <= rho <= 2 * net.m:
        raise ValueError("rho must lie in 1..2m for the row bound to apply")
    profiles = list(_profiles(rho))

    def selections(j: int, budget: int) -> list[list[tuple[int, int]]]:
        # coordinates j.. of the profile tuples of weight <= budget, in profile order
        if j == net.s:
            return [[]]
        return [_selection(j, pos) + rest for w, pos in profiles if w <= budget for rest in selections(j + 1, budget - w)]

    return all(ok.all() for ok in _independent_chunks(net, [rows for rows in selections(0, rho) if rows]))
