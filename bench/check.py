"""Output checks of the badicnet benchmark.

Deterministic tasks are compared with reference values recorded from the
seed commit (reference.json, written by record_reference.py).  Numeric
cells may differ from the reference by the row's own error_bound or
tail_bound; the method column, dual counts, rho2 weight and witness, pass
flags and every other non-numeric cell must match exactly, and point CSV
and net JSON must stay byte-identical.  Seeded tasks have no reference:
they are judged by the command's own verdict, so any seed can be run.

A guard trip is a failure: exit code 3, or a "skipped ... over --max-ops"
warning, which would otherwise let a change look faster by doing less.

`record(task, out)` makes a reference entry and `verify(task, out, ref)`
returns the list of problems (empty when the output is right).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CliOutput:
    rc: int
    stdout: str
    stderr: str


# The direct WCE route is a float pair sum of exact kernel values with no
# truncation, so its reference is far tighter than the spectral tail bound
# (0.04 against values near 1e-6 on the N = 4096 row).  1e-8 covers any
# summation order at N <= 4096: N^2 terms times 2^-52 is under 4e-9.
DIRECT_TOL = 1e-8


# the l2_star error bound, which the convergence CSV does not print
def _warnock(v: float) -> float:
    return 1e-14 * max(abs(v), 1.0)


def _scaled(col: str, value_col: str, bound):
    """Tolerance of a column that is value_col times a constant."""
    return lambda r: bound(r) * abs(r[col] / r[value_col]) if r[value_col] else bound(r)


SKIP = "skip"
# column -> tolerance from the reference row (numeric cells as floats);
# SKIP: must parse as a number; columns not named must match exactly
_CSV_RULES = {
    "convergence": {
        "l2_ham": lambda r: _warnock(r["l2_ham"]),
        "ham_n_over_logn": _scaled("ham_n_over_logn", "l2_ham", lambda r: _warnock(r["l2_ham"])),
        "l2_sym": lambda r: _warnock(r["l2_sym"]),
        "sym_n_over_sqrt_logn": _scaled("sym_n_over_sqrt_logn", "l2_sym", lambda r: _warnock(r["l2_sym"])),
    },
    "discrepancy": {
        "value": lambda r: r["error_bound"],
        "error_bound": SKIP,
        "value_n_over_sqrt_logn": _scaled("value_n_over_sqrt_logn", "value", lambda r: r["error_bound"]),
    },
    "wce": {
        "value_direct": lambda r: min(r["tail_bound"], DIRECT_TOL),
        "value_spectral": lambda r: r["tail_bound"],
        "tail_bound": lambda r: 1e-9 * r["tail_bound"],
    },
}
# columns of the seeded band-limited WCE rows that do not depend on the seed
_SEEDED_WCE_COLS = ("base", "m", "n", "N", "kernel")


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines or lines[0] != "# schema=1":
        raise ValueError("missing '# schema=1' line")
    rows = list(csv.reader(lines[1:]))
    if not rows:
        raise ValueError("missing CSV header")
    return rows[0], rows[1:]


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _cli_problems(out) -> list[str]:
    if not isinstance(out, CliOutput):
        return [f"raised {out!r}"]
    problems = []
    if out.rc == 3:
        problems.append("resource guard tripped (exit code 3)")
    elif out.rc != 0:
        problems.append(f"exit code {out.rc}")
    for line in out.stderr.splitlines():
        if "skipped" in line or line.startswith("error"):
            problems.append(f"stderr: {line}")
    return problems


def _verify_csv(kind: str, out: CliOutput, ref: dict) -> list[str]:
    header, rows = _parse_csv(out.stdout)
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    rules = _CSV_RULES[kind]
    problems = []
    for i, (got, want) in enumerate(zip(rows, ref["rows"])):
        if len(got) != len(header):
            problems.append(f"row {i}: {len(got)} cells")
            continue
        r = {c: _num(v) for c, v in zip(header, want)}
        for col, g, w in zip(header, got, want):
            rule = rules.get(col)
            if rule is None:
                if g != w:
                    problems.append(f"row {i} {col}: {g!r} != {w!r}")
                continue
            gv = float(g)
            if rule == SKIP:
                continue
            if not abs(gv - float(w)) <= rule(r) + 1e-15 * abs(float(w)):
                problems.append(f"row {i} {col}: {g} differs from {w} by more than {rule(r):.3g}")
    return problems


def _verify_seeded_wce(out: CliOutput, ref: dict) -> list[str]:
    header, rows = _parse_csv(out.stdout)
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    problems = []
    for i, (got, want) in enumerate(zip(rows, ref["rows"])):
        cell = dict(zip(header, got))
        if [cell[c] for c in _SEEDED_WCE_COLS] != want:
            problems.append(f"row {i}: {got[:len(want)]} != {want}")
        direct, spectral, tail = (float(cell[c]) for c in ("value_direct", "value_spectral", "tail_bound"))
        # the command's own verdict, recomputed from the printed values
        if cell["within_tail"] != "True" or not abs(direct - spectral) <= tail + 1e-10:
            problems.append(f"row {i}: direct {direct} and spectral {spectral} differ by more than {tail}")
    return problems


def _verify_orthogonality(task, out: CliOutput) -> list[str]:
    doc = json.loads(out.stdout)
    samples = int(task.argv[task.argv.index("--samples") + 1])
    problems = []
    if doc.get("passed") is not True or doc.get("failures") != 0:
        problems.append(f"orthogonality failed: {doc}")
    if doc.get("samples") != samples or doc.get("dual_hits", 0) + doc.get("nondual", 0) != samples:
        problems.append(f"sample counts do not add up to {samples}: {doc}")
    return problems


def _verify_qmc(out) -> list[str]:
    """Judge a digitally shifted QMC estimate by routes independent of it.

    The shifted set minus its first point must be the net itself (a
    digital shift keeps every pairwise digit difference); the estimate
    must equal the exact mean of x^2 y^2 over the shifted points; and its
    error must lie within the Koksma-Hlawka bound V(f) D*_N, where
    V(x^2 y^2) = 3 and D*_N is the exact star discrepancy of the shifted
    points from linf_star.
    """
    import numpy as np

    from badicnet.discrepancy import linf_star
    from badicnet.nets import PointSet2

    net, shifted, res = out
    b, n, m, N = net.base, net.n, net.m, net.n_points
    if len(shifted) != N or res.n_points != N:
        return [f"{len(shifted)} shifted points and n_points {res.n_points}, expected {N}"]
    digits = np.array([[c.digits for c in z.coords] for z in shifted], dtype=np.int64)
    tails = np.array([[c.tail for c in z.coords] for z in shifted], dtype=np.int64)
    nu = (np.arange(N)[:, None] // b ** np.arange(m)) % b
    want = np.concatenate(
        [np.concatenate([(nu @ C.T) % b, ((nu @ t) % b)[:, None]], axis=1) for C, t in zip(net.matrices, net.tail_rows)],
        axis=1,
    )
    got = np.concatenate(
        [np.concatenate([(digits[:, j] - digits[0, j]) % b, ((tails[:, j] - tails[0, j]) % b)[:, None]], axis=1) for j in range(net.s)],
        axis=1,
    )
    problems = []
    if sorted(map(tuple, got.tolist())) != sorted(map(tuple, want.tolist())):
        problems.append("shifted points are not one digital shift of the net")
    den = b**n * (b - 1)
    nums = (digits @ (b ** np.arange(n - 1, -1, -1))) * (b - 1) + tails
    mean = Fraction(sum((int(x) * int(y)) ** 2 for x, y in nums.tolist()), N * den**4)
    if res.exact != complex(1 / 9) or res.value.imag != 0 or not math.isclose(res.value.real, float(mean), rel_tol=1e-12):
        problems.append(f"estimate {res.value} (exact {res.exact}) is not the mean {float(mean)} of x^2 y^2")
    d_star = linf_star(PointSet2(nums, den)).value
    if not abs(float(mean - Fraction(1, 9))) <= 3 * d_star:
        problems.append(f"error {abs(float(mean - Fraction(1, 9)))} over the Koksma-Hlawka bound {3 * d_star}")
    return problems


def record(task, out) -> dict:
    """Reference entry for one output; seeded tasks keep only what is
    independent of the seed."""
    kind = task.check
    entry: dict = {"what": task.what}
    if kind in _CSV_RULES:
        entry["header"], entry["rows"] = _parse_csv(out.stdout)
    elif kind == "wce-seeded":
        header, rows = _parse_csv(out.stdout)
        idx = [header.index(c) for c in _SEEDED_WCE_COLS]
        entry["header"], entry["rows"] = header, [[row[i] for i in idx] for row in rows]
    elif kind == "json":
        entry["doc"] = json.loads(out.stdout)
    elif kind == "sha256":
        data = out.stdout.encode()
        entry["sha256"], entry["bytes"] = hashlib.sha256(data).hexdigest(), len(data)
    elif kind == "l2":
        entry.update(value=out.value, error_bound=out.error_bound, method=out.method)
    return entry


def verify(task, out, ref: dict | None) -> list[str]:
    """Problems with one task's output; an empty list means it is right."""
    kind = task.check
    if ref is None or ref["what"] != task.what:
        return [f"no reference recorded for {task.what!r}"]
    if task.argv:
        problems = _cli_problems(out)
        if problems:
            return problems
    elif isinstance(out, Exception):
        return [f"raised {out!r}"]
    try:
        if kind in _CSV_RULES:
            return _verify_csv(kind, out, ref)
        if kind == "wce-seeded":
            return _verify_seeded_wce(out, ref)
        if kind == "json":
            doc = json.loads(out.stdout)
            return [] if doc == ref["doc"] else [f"{doc} != {ref['doc']}"]
        if kind == "sha256":
            data = out.stdout.encode()
            digest = hashlib.sha256(data).hexdigest()
            return [] if digest == ref["sha256"] else [f"output differs: {len(data)} bytes, sha256 {digest}"]
        if kind == "orthogonality":
            return _verify_orthogonality(task, out)
        if kind == "l2":
            problems = [] if out.method == ref["method"] else [f"method {out.method} != {ref['method']}"]
            if not abs(out.value - ref["value"]) <= ref["error_bound"]:
                problems.append(f"value {out.value} differs from {ref['value']} by more than {ref['error_bound']}")
            return problems
        if kind == "qmc":
            return _verify_qmc(out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]
    raise KeyError(f"unknown check {kind!r}")
