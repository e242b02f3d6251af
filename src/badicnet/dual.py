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

from .badic import as_digit_vec, is_prime
from .nets import DigitalNet, truncated_sym_hammersley

GUARD_DEFAULT = 1 << 26


def _k_image(net: DigitalNet, j: int, k: int) -> np.ndarray:
    """vec(k) C_j mod b for one coordinate; k must fit in the digit rows."""
    b, n = net.base, net.n
    if not 0 <= k < b**n:
        raise ValueError("digits exceed matrix rows")
    kd = as_digit_vec(k, b).digits
    vec = np.zeros(n, dtype=np.int64)
    vec[: len(kd)] = kd
    return (vec @ net.matrices[j]) % b


def dual_contains(net: DigitalNet, k: Sequence[int]) -> bool:
    """Exact dual membership of a frequency vector (one int per coordinate)."""
    ks = tuple(int(x) for x in k)
    if len(ks) != net.s:
        raise ValueError("incompatible elements: dimension mismatch")
    acc = np.zeros(net.m, dtype=np.int64)
    for j, kj in enumerate(ks):
        acc += _k_image(net, j, kj)
    return not np.any(acc % net.base)


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


def dual_scan(net: DigitalNet, k_digits: int, weighted: bool = False) -> list[tuple[int, ...]]:
    """Dual vectors in a box, in lexicographic order, origin included.

    Unweighted, every component ranges over k < b^k_digits.  Weighted,
    k_digits is a budget on the sum of the components' digit counts, so
    each component ranges over k < b^(budget left).  The first s-1
    components are walked one value at a time; the last one's whole
    admissible block is tested in one comparison against the image that
    would cancel the prefix.
    """
    b, s = net.base, net.s
    tables = [image_table(net, j, k_digits) for j in range(s)]
    out: list[tuple[int, ...]] = []

    def rec(j: int, budget: int, need: np.ndarray, prefix: tuple[int, ...]):
        block = tables[j][: b**budget]
        if j == s - 1:
            hits = np.flatnonzero(np.all(block == need, axis=1))
            out.extend(prefix + (int(k),) for k in hits)
            return
        lo = 0
        for a in range(budget + 1):  # the k with a digits
            for k in range(lo, b**a):
                rec(j + 1, budget - a if weighted else budget, (need - block[k]) % b, prefix + (k,))
            lo = b**a

    rec(0, k_digits, np.zeros(net.m, dtype=np.int64), ())
    return out


def dual_enumerate_below(net: DigitalNet, k_digits: int, max_candidates: int = GUARD_DEFAULT) -> list[tuple[int, ...]]:
    """All dual vectors with every component below b^k_digits, sorted.

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
    digits = as_digit_vec(k, base).digits
    pos = tuple(i for i in range(len(digits), 0, -1) if digits[i - 1])
    if not pos:
        w = 0
    elif len(pos) == 1:
        w = pos[0]
    else:
        w = pos[0] + pos[1]
    return WeightProfile(k, pos, w)


def mu2_total(ks: Sequence[int], base: int) -> int:
    return sum(mu2(int(k), base).mu2 for k in ks)


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


def _candidates_by_weight(base: int, n: int, cap: int, budget: int) -> dict[int, list[int]]:
    """Frequencies k < b^n grouped by mu2(k) <= cap.

    Digits at the two highest positions are pinned nonzero; anything below
    the second position is free and cannot change the weight.
    """
    b = base
    by_w: dict[int, list[int]] = {0: [0]}
    made = 1
    for a in range(1, min(cap, n) + 1):
        lst = by_w.setdefault(a, [])
        for kappa in range(1, b):
            lst.append(kappa * b ** (a - 1))
            made += 1
            if made > budget:
                raise ValueError(f"guard exceeded: candidate count over cap {budget}")
    for a1 in range(2, min(cap - 1, n) + 1):
        for a2 in range(1, min(a1 - 1, cap - a1) + 1):
            lst = by_w.setdefault(a1 + a2, [])
            high = b ** (a1 - 1)
            mid = b ** (a2 - 1)
            for k1 in range(1, b):
                for k2 in range(1, b):
                    head = k1 * high + k2 * mid
                    for low in range(mid):
                        lst.append(head + low)
                        made += 1
                        if made > budget:
                            raise ValueError(f"guard exceeded: candidate count over cap {budget}")
    return by_w


def rho2_min_weight(net: DigitalNet, cap: int | None = None, max_candidates: int = GUARD_DEFAULT) -> Rho2Result:
    """Minimum mu2(k1) + mu2(k2) over nontrivial dual vectors, by search.

    Enumerates candidate pairs in increasing total weight and stops at the
    first dual hit, so the reported weight is exact whenever it is at most
    cap (default and maximum: 2n).
    """
    if net.s != 2:
        raise ValueError("weight search is implemented for two coordinates")
    b, n = net.base, net.n
    if cap is None:
        cap = 2 * n
    if not 1 <= cap <= 2 * n:
        raise ValueError("cap must lie in 1..2n")
    by_w = _candidates_by_weight(b, n, cap, max_candidates)
    pair_count = 0
    for w1, l1 in by_w.items():
        for w2, l2 in by_w.items():
            if w1 + w2 <= cap:
                pair_count += len(l1) * len(l2)
    if pair_count > max_candidates:
        raise ValueError(f"guard exceeded: {pair_count} candidate pairs over cap {max_candidates}")
    img = []
    for j in (0, 1):
        img.append({w: np.array([_k_image(net, j, k) for k in ks], dtype=np.int64) for w, ks in by_w.items()})
    for W in range(1, cap + 1):
        for w1 in range(0, W + 1):
            w2 = W - w1
            if w1 not in by_w or w2 not in by_w:
                continue
            arr2 = img[1][w2]
            for i1, k1 in enumerate(by_w[w1]):
                if k1 == 0 and w2 == 0:
                    continue
                row = img[0][w1][i1]
                hits = np.nonzero(np.all((row + arr2) % b == 0, axis=1))[0]
                for h in hits:
                    k2 = by_w[w2][int(h)]
                    if k1 or k2:
                        return Rho2Result(W, cap, (k1, k2))
    return Rho2Result(None, cap)


# ---------------------------------------------------------------------------
# linear-algebra certificates


def rank_mod_p(rows: np.ndarray, p: int) -> int:
    """Row rank over the field with p elements, by Gauss elimination."""
    if not is_prime(p):
        raise ValueError("requires prime base")
    a = np.array(rows, dtype=np.int64) % p
    if a.size == 0:
        return 0
    r = 0
    n_rows, n_cols = a.shape
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(n_rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == n_rows:
            break
    return r


def _row(net: DigitalNet, j: int, l: int) -> np.ndarray:
    """l-th digit row of coordinate j (1-based); zero beyond the stored rows."""
    if l <= net.n:
        return net.matrices[j][l - 1]
    return np.zeros(net.m, dtype=np.int64)


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

    def indep(rows: list[np.ndarray]) -> bool:
        return rank_mod_p(np.array(rows), b) == len(rows)

    reports = []

    checked = passed = 0
    fails: list[str] = []
    for r in range(0, m + 2):
        rows = [_row(net, 0, l) for l in range(1, r + 1)]
        rows += [_row(net, 1, l) for l in range(1, m + 2 - r)]
        checked += 1
        if indep(rows):
            passed += 1
        else:
            fails.append(f"r={r}")
    reports.append(FamilyReport("head-head", checked, passed, tuple(fails)))

    checked = passed = 0
    fails = []
    for j, other in ((0, 1), (1, 0)):
        for r in range(1, m + 1):
            rows = [_row(net, j, l) for l in range(1, m + 2)]
            rows.append(_row(net, other, r))
            checked += 1
            if indep(rows):
                passed += 1
            else:
                fails.append(f"j={j + 1},r={r}")
    reports.append(FamilyReport("full-single", checked, passed, tuple(fails)))

    checked = passed = 0
    fails = []
    for j in (0, 1):
        for r in range(0, m + 1):
            for t in range(m + 1, n + 1):
                rows = [_row(net, 0, l) for l in range(1, r + 1)]
                rows += [_row(net, 1, l) for l in range(1, m - r + 1)]
                rows.append(_row(net, j, t))
                checked += 1
                if indep(rows):
                    passed += 1
                else:
                    fails.append(f"j={j + 1},r={r},t={t}")
    reports.append(FamilyReport("deep-row", checked, passed, tuple(fails)))

    checked = passed = 0
    fails = []
    for r11 in range(2, m + 1):
        for r12 in range(1, r11):
            for r21 in range(2, m + 1):
                for r22 in range(1, r21):
                    if r11 + r12 + r21 + r22 > 2 * m + 1:
                        continue
                    rows = [_row(net, 0, l) for l in range(1, r12 + 1)] + [_row(net, 0, r11)]
                    rows += [_row(net, 1, l) for l in range(1, r22 + 1)] + [_row(net, 1, r21)]
                    checked += 1
                    if indep(rows):
                        passed += 1
                    else:
                        fails.append(f"{(r11, r12, r21, r22)}")
    reports.append(FamilyReport("two-block", checked, passed, tuple(fails)))

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

    profiles = [(0, [])]
    for a in range(1, rho + 1):
        profiles.append((a, [a]))
    for a1 in range(2, rho):
        for a2 in range(1, min(a1 - 1, rho - a1) + 1):
            profiles.append((a1 + a2, list(range(1, a2 + 1)) + [a1]))

    for w1, s1 in profiles:
        for w2, s2 in profiles:
            if w1 + w2 > rho or (not s1 and not s2):
                continue
            rows = [_row(net, 0, l) for l in s1] + [_row(net, 1, l) for l in s2]
            if rank_mod_p(np.array(rows), net.base) != len(rows):
                return False
    return True
