"""Span tracing for the traced benchmark run, from outside the library.

`Tracer.install` wraps each public function named in TARGETS and rebinds
the wrapper in every badicnet namespace that holds the function (for
example `cli.l2_star` and `discrepancy.l2_star`, or `cli.dual_contains`
and the `dual` module that `rkhs` reaches as `dualmod`).  A span records
its group, function, start, end, parent and counts; counts come from the
call's arguments and result only, never from library internals, so they
repeat exactly.  Spans stay in memory until `write` saves them at the end
of the run.

`layer_metrics` turns one pass of spans into the per-layer metrics.  A
layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cells(ps) -> int:
    """Grid cells of a point set: (Gx - 1)(Gy - 1) from its unique coordinates."""
    gx = len({0, ps.den, *ps.nums[:, 0].tolist()})
    gy = len({0, ps.den, *ps.nums[:, 1].tolist()})
    return (gx - 1) * (gy - 1)


def _l2_info(args, kwargs, result):
    ps = _arg(args, kwargs, 0, "ps")
    N = ps.n_points
    return {"N": N, "pairs": N * N, "object_calls": int(ps.nums.dtype == object or N * ps.den**2 > 1 << 61)}


_LP_GROUPS = {"piecewise_exact": "discrepancy.lp_even", "quadrature": "discrepancy.lp_quadrature"}


def _lp_info(args, kwargs, result):
    # the layer is the method the call took; p = inf delegates to
    # linf_star, whose own span counts the grid
    if math.isinf(float(_arg(args, kwargs, 1, "p"))):
        return {}
    return {"group": _LP_GROUPS.get(result.method, "discrepancy.lp_star"), "grid_cells": _cells(_arg(args, kwargs, 0, "ps"))}


def _wce_direct_info(args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    diagonal = type(_arg(args, kwargs, 1, "kernel")).__name__ == "SpectralDiagonalKernel"
    return {"N": len(points), "pairs": result.terms_used, "diagonal": diagonal}


def _wce_spectral_info(args, kwargs, result):
    # band-limited results count coefficient pairs, members^2
    diagonal = type(_arg(args, kwargs, 1, "kernel")).__name__ == "SpectralDiagonalKernel"
    return {"hits": result.terms_used if diagonal else math.isqrt(result.terms_used)}


def _enum_below_info(args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    return {"candidates": net.base ** (net.s * _arg(args, kwargs, 1, "k_digits"))}


# (module, function, span group, counts from arguments and result)
TARGETS = (
    ("cli", "main", "cli", None),
    ("discrepancy", "l2_star", "discrepancy.l2_star", _l2_info),
    ("discrepancy", "lp_star", "discrepancy.lp_star", _lp_info),
    ("discrepancy", "linf_star", "discrepancy.linf_star", lambda a, k, r: {"grid_cells": _cells(_arg(a, k, 0, "ps"))}),
    ("nets", "hammersley_point_set", "nets.point_set", None),
    ("nets", "sym_hammersley_points", "nets.point_set", None),
    ("nets", "to_point_set", "nets.point_set", None),
    ("nets", "enumerate_points", "nets.enumerate_points", lambda a, k, r: {"points": len(r)}),
    ("nets", "points_to_csv", "nets.serialize", None),
    ("nets", "net_to_json", "nets.serialize", None),
    ("nets", "net_from_json", "nets.serialize", None),
    ("badic", "project_pi", "badic", None),
    ("badic", "g_add", "badic", None),
    ("badic", "g_sub", "badic", None),
    ("walsh", "character_sum_over", "walsh.character_sum_over", lambda a, k, r: {"terms": len(_arg(a, k, 0, "points"))}),
    (
        "walsh",
        "character_exponent_table",
        "walsh.character_exponent_table",
        lambda a, k, r: {"entries": len(_arg(a, k, 0, "points")) * len(_arg(a, k, 1, "ks"))},
    ),
    ("rkhs", "wce_direct", "rkhs.wce_direct", _wce_direct_info),
    ("rkhs", "wce_spectral", "rkhs.wce_spectral", _wce_spectral_info),
    ("dual", "dual_contains", "dual.dual_contains", None),
    ("dual", "dual_enumerate_below", "dual.dual_enumerate_below", _enum_below_info),
    ("dual", "rho2_min_weight", "dual.rho2_min_weight", None),
    ("dual", "check_independence_sets", "dual.certificates", None),
    ("dual", "certify_rho2_via_independence", "dual.certificates", None),
    ("rkhs", "random_digital_shift", "rkhs.qmc", None),
    ("rkhs", "qmc_integrate", "rkhs.qmc", None),
)

# self time is reported for each of these groups
SELF_GROUPS = (
    "discrepancy.l2_star",
    "discrepancy.lp_even",
    "discrepancy.lp_quadrature",
    "discrepancy.linf_star",
    "nets.point_set",
    "nets.enumerate_points",
    "nets.serialize",
    "badic",
    "walsh.character_sum_over",
    "walsh.character_exponent_table",
    "rkhs.wce_direct",
    "rkhs.wce_spectral",
    "dual.dual_contains",
    "dual.dual_enumerate_below",
    "dual.rho2_min_weight",
    "dual.certificates",
    "rkhs.qmc",
    "cli",
)
# counts summed over spans: metric -> (group, count key); "calls" counts spans
COUNTS = {
    "discrepancy.l2_star.pairs": ("discrepancy.l2_star", "pairs"),
    "discrepancy.l2_star.object_calls": ("discrepancy.l2_star", "object_calls"),
    "discrepancy.grid_cells": (None, "grid_cells"),
    "nets.enumerate_points.points": ("nets.enumerate_points", "points"),
    "badic.calls": ("badic", "calls"),
    "walsh.character_sum_over.terms": ("walsh.character_sum_over", "terms"),
    "walsh.character_exponent_table.entries": ("walsh.character_exponent_table", "entries"),
    "rkhs.wce_direct.pairs": ("rkhs.wce_direct", "pairs"),
    "rkhs.wce_spectral.hits": ("rkhs.wce_spectral", "hits"),
    "dual.dual_contains.calls": ("dual.dual_contains", "calls"),
    "dual.dual_enumerate_below.candidates": ("dual.dual_enumerate_below", "candidates"),
    "cli.out_bytes": ("task", "out_bytes"),
}
# only rows this large enter the scaling fits
FIT_MIN_N = 256


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [group, function, start, end, parent, counts]
        self.stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, group: str, function: str) -> int:
        sid = len(self.spans)
        self.spans.append([group, function, perf_counter(), None, self.stack[-1] if self.stack else -1, {}])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict | None = None) -> None:
        span = self.spans[sid]
        span[3] = perf_counter()
        self.stack.pop()
        if counts:
            span[5] = counts

    def _wrap(self, fn, group, function, info):
        def traced(*args, **kwargs):
            sid = self.open(group, function)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid)
                raise
            self.close(sid)
            if info is not None:
                self.spans[sid][5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every badicnet namespace that holds it."""
        namespaces = [mod for name, mod in sys.modules.items() if name == "badicnet" or name.startswith("badicnet.")]
        for module, function, group, info in TARGETS:
            fn = getattr(sys.modules[f"badicnet.{module}"], function)
            wrapper = self._wrap(fn, group, function, info)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._saved.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()


def write(path, tracers) -> None:
    """Save the spans of every traced pass as tab-separated lines, gzipped."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass\tid\tgroup\tfunction\tstart\tend\tparent\tcounts\n")
        for n, tracer in enumerate(tracers):
            for sid, (group, function, start, end, parent, counts) in enumerate(tracer.spans):
                fh.write(f"{n}\t{sid}\t{group}\t{function}\t{start!r}\t{end!r}\t{parent}\t{json.dumps(counts)}\n")


def scaling_rows(rows: list[tuple[int, float]]) -> tuple[list[dict], float]:
    """Per-row N, time and local exponent, plus the least-squares exponent.

    A row's exponent is the slope of log time against log N from the
    nearest smaller N.  The fit uses rows with N >= FIT_MIN_N and is 0.0
    when they hold fewer than two distinct N.
    """
    out = []
    prev = None
    for N, t in sorted(rows):
        slope = None
        if prev is not None and prev[0] < N and prev[1] > 0 and t > 0:
            slope = math.log(t / prev[1]) / math.log(N / prev[0])
        out.append({"N": N, "time_s": t, "exponent": slope})
        if prev is None or N > prev[0]:
            prev = (N, t)
    big = [(math.log(N), math.log(t)) for N, t in rows if N >= FIT_MIN_N and t > 0]
    if len({x for x, _ in big}) < 2:
        return out, 0.0
    mx = sum(x for x, _ in big) / len(big)
    my = sum(y for _, y in big) / len(big)
    slope = sum((x - mx) * (y - my) for x, y in big) / sum((x - mx) ** 2 for x, _ in big)
    return out, slope


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, list[tuple[int, float]]]]:
    """Per-layer self times and counts of one pass, and the rows (N, self
    time) that the scaling exponents are fitted on."""
    child = [0.0] * len(spans)
    for group, function, start, end, parent, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    totals: dict[tuple[str, str], int] = defaultdict(int)
    rows: dict[str, list[tuple[int, float]]] = {"discrepancy.l2_star": [], "rkhs.wce_direct": []}
    candidates = 0
    for sid, (group, function, start, end, parent, counts) in enumerate(spans):
        own = end - start - child[sid]
        group = counts.get("group", group)
        self_s[group] += own
        totals[(group, "calls")] += 1
        for key, value in counts.items():
            if key != "group":
                totals[(group, key)] += value
                totals[(None, key)] += value
        if group == "discrepancy.l2_star" and counts.get("object_calls") == 0:
            rows[group].append((counts["N"], own))
        if group == "rkhs.wce_direct" and counts.get("diagonal"):
            rows[group].append((counts["N"], own))
        if group == "dual.dual_contains":
            p = parent
            while p >= 0 and spans[p][0] != "rkhs.wce_spectral":
                p = spans[p][4]
            candidates += p >= 0
    metrics = {f"{g}.self_s": self_s[g] for g in SELF_GROUPS}
    metrics.update({name: totals[key] for name, key in COUNTS.items()})
    metrics["rkhs.wce_spectral.candidates"] = candidates
    hits = metrics["rkhs.wce_spectral.hits"]
    metrics["dual.spectral_hit_ratio"] = hits / candidates if candidates else 0.0
    return metrics, rows
