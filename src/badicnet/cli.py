"""Command line front end: net generation, verification, and studies.

Exit codes: 0 success / checks passed, 1 a verification failed,
2 usage or parameter error, 3 a resource guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager

import numpy as np

from .badic import frequency_digits, rows_in_E
from .dual import (
    GUARD_DEFAULT,
    GuardExceeded,
    certify_rho2_via_independence,
    check_independence_sets,
    dual_enumerate_below,
    dual_members,
    rho2_min_weight,
)
from .discrepancy import l2_star, lp_star
from .nets import (
    DigitalNet,
    dumps_compact,
    enumerate_points,
    hammersley_matrices,
    net_from_json,
    net_to_json,
    points_to_csv,
    symmetrize_matrices,
    to_point_set,
    truncated_sym_hammersley,
)
from .rkhs import (
    BandLimitedKernel,
    SpectralDiagonalKernel,
    wce_direct,
    wce_spectral,
)
from .walsh import residue_counts, sums_vanish


@contextmanager
def _out_stream(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _dump_json(args, doc) -> None:
    with _out_stream(args.out) as fh:
        fh.write(dumps_compact(doc) + "\n")


def _load_net(args) -> DigitalNet:
    if args.infile is not None:
        with open(args.infile) as fh:
            return net_from_json(fh.read())
    if args.kind == "custom-json":
        raise ValueError("custom-json needs --in")
    if args.base is None or args.m is None:
        raise ValueError("need --base and --m (or --in)")
    return _net_by_kind(args.kind, args.base, args.m, args.n)


def _net_by_kind(kind: str, base: int, m: int, n: int | None) -> DigitalNet:
    if kind == "hammersley":
        return hammersley_matrices(base, m, n)
    if kind == "sym-hammersley":
        return symmetrize_matrices(hammersley_matrices(base, m, n))
    if kind == "sym-hammersley-truncated":
        return truncated_sym_hammersley(base, m, m + 2 if n is None else n)
    raise ValueError(f"unknown net kind {kind!r}")


def _parse_m_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        hi = lo
    if int(lo) > int(hi):
        raise ValueError(f"empty --m-range {text!r}: start is past end")
    return range(int(lo), int(hi) + 1)


_KERNEL_KEYS = {"diagonal": {"alpha", "gamma"}, "bandlimited": {"k", "rank"}}


def _parse_kernel(args, s: int):
    """The kernel of --kernel over s coordinates in base --base.  A
    band-limited kernel holds b^(k s) x b^(k s) coefficients, a count
    held to --max-candidates before anything is built."""
    spec, base = args.kernel, args.base
    name, _, rest = spec.partition(":")
    if name not in _KERNEL_KEYS:
        raise ValueError(f"unknown kernel spec {spec!r}")
    kv = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in _KERNEL_KEYS[name]:
                raise ValueError(f"unknown key {key!r} in kernel spec {spec!r}")
            kv[key] = val.strip()
    if name == "diagonal":
        alpha = float(kv.get("alpha", 1.0))
        gamma = float(kv.get("gamma", 1.0))
        return SpectralDiagonalKernel(base, s, alpha, (gamma,) * s)
    kd = int(kv.get("k", 2))
    rank = int(kv.get("rank", 4))
    e, cap = 2 * kd * s, args.max_candidates
    # b^e is never formed past the cap's bit length: a huge k costs nothing
    if kd >= 0 and base ** min(e, cap.bit_length() + 1) > cap:
        raise GuardExceeded(f"guard exceeded: {base}^{e} kernel coefficients over cap {cap}")
    rng = np.random.default_rng(args.seed)
    return BandLimitedKernel.random(base, s, kd, rank, rng)


# ---------------------------------------------------------------------------
# net commands


def _write_net(args, net: DigitalNet) -> int:
    """Write the net's JSON to --out and, given --points-csv, its points."""
    with _out_stream(args.out) as fh:
        fh.write(net_to_json(net) + "\n")
    if args.points_csv:
        with _out_stream(args.points_csv) as fh:
            points_to_csv(enumerate_points(net), fh)
    return 0


def cmd_net_gen(args) -> int:
    return _write_net(args, _load_net(args))


def cmd_net_symmetrize(args) -> int:
    return _write_net(args, symmetrize_matrices(_load_net(args)))


def cmd_net_points(args) -> int:
    net = _load_net(args)
    with _out_stream(args.out) as fh:
        points_to_csv(enumerate_points(net), fh)
    return 0


# ---------------------------------------------------------------------------
# verify commands


def cmd_verify_dual(args) -> int:
    inner = _load_net(args)
    sym = symmetrize_matrices(inner)
    kb = args.kbound
    # both sides are lexicographic arrays, so equal sets are equal arrays
    sym_side = dual_enumerate_below(sym, kb, args.max_candidates)
    raw = dual_enumerate_below(inner, kb, args.max_candidates)
    filtered = raw[rows_in_E(frequency_digits(raw, inner.base, inner.s, 0), inner.base)]
    passed = np.array_equal(sym_side, filtered)
    report = {
        "passed": passed,
        "kbound_digits": kb,
        "dual_sym": len(sym_side),
        "dual_inner_in_E": len(filtered),
        "examples": sym_side[:5].tolist(),
    }
    _dump_json(args, report)
    return 0 if passed else 1


def cmd_verify_orthogonality(args) -> int:
    net = _load_net(args)
    b, n, s = net.base, net.n, net.s
    rng = np.random.default_rng(args.seed)
    # one draw of all samples: the same stream as one draw per sample
    if b**n <= 1 << 63:
        K = frequency_digits(rng.integers(0, b**n, size=(args.samples, s)).tolist(), b, s, n)
    else:
        # rng.integers cannot draw past int64: draw each component's n digits
        K = rng.integers(0, b, size=(args.samples, s, n))
    digits, tails = enumerate_points(net).digit_arrays()
    counts = residue_counts(digits, tails, K, b)
    members = dual_members(net, K)
    # a dual hit sums to N, any other frequency to 0
    counts[:, 0] -= net.n_points * members
    bad = int(np.count_nonzero(~sums_vanish(counts, b)))
    full = int(np.count_nonzero(members))
    report = {"passed": bad == 0, "samples": args.samples, "dual_hits": full, "nondual": args.samples - full, "failures": bad}
    _dump_json(args, report)
    return 0 if bad == 0 else 1


def cmd_verify_independence(args) -> int:
    net = truncated_sym_hammersley(args.base, args.m, args.n if args.n is not None else 2 * args.m + 1)
    report = check_independence_sets(net)
    _dump_json(args, report.to_json_dict())
    return 0 if report.all_passed else 1


def cmd_verify_rho2(args) -> int:
    net = _load_net(args)
    res = rho2_min_weight(net, args.cap, args.max_candidates)
    certified = res.certified_by
    if res.exceeded:
        try:
            if certify_rho2_via_independence(net, res.cap):
                certified = "enumeration+independence"
        except ValueError:
            pass
    doc = res.to_json_dict()
    doc["certified_by"] = certified
    _dump_json(args, doc)
    return 0


# ---------------------------------------------------------------------------
# study commands


def _over_cap(args, label: str, charge: str, ops: int) -> bool:
    """Is a study row's estimate ops, by the formula that charge names,
    over --max-ops?  If so the caller skips the row, and a warning on
    stderr states the estimate and the cap."""
    if ops <= args.max_ops:
        return False
    print(f"warning: skipped {label}: {charge} = {ops} over --max-ops {args.max_ops}", file=sys.stderr)
    return True


def _l2_ops(N: int) -> int:
    """The charge of an L_2 row: N log^2 N with log N = ceil(log2 N), the
    cost of l2_star's sweep."""
    return N * (N - 1).bit_length() ** 2


def _write_study(args, header: str, rows) -> None:
    """Write the CSV of the study rows, once every row is computed, so an
    error leaves stdout empty."""
    with _out_stream(args.out) as fh:
        fh.write("# schema=1\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f'"{t}"' if "," in t else t for t in map(str, row)) + "\n")


def cmd_study_discrepancy(args) -> int:
    """One row per (kind, m, p).  The guard reads N from the matrices and
    charges a row N^2, N log^2 N (_l2_ops) for p = 2, or N^2 p^2 for an
    even p >= 4, whose p + 1 exact forms act on integers that widen with
    p.  A (kind, m) builds its point set once, at its first row that
    fits, and none if no row fits."""
    kinds = args.kinds.split(",")
    ps = [int(p) if p.lstrip("+-").isdigit() else float(p) for p in args.p.split(",")]
    ms = _parse_m_range(args.m_range)
    rows = []
    for kind in kinds:
        if kind not in ("hammersley", "sym-hammersley"):
            raise ValueError(f"unknown study kind {kind!r}")
        for m in ms:
            net = _net_by_kind(kind, args.base, m, None)
            N = net.n_points
            pts = None
            # log_b N: m digits for Hammersley, m+2 after symmetrization
            logn = m if kind == "hammersley" else m + 2
            for p in ps:
                even = p >= 4 and p % 2 == 0  # False for inf and nan
                ops = _l2_ops(N) if p == 2 else N * N * int(p) ** 2 if even else N * N
                if _over_cap(args, str((kind, m, p)), "N log^2 N" if p == 2 else "N^2 p^2" if even else "N^2", ops):
                    continue
                if pts is None:
                    pts = to_point_set(net)
                res = l2_star(pts) if p == 2 else lp_star(pts, p)
                scaled = res.value * N / math.sqrt(logn)
                rows.append((kind, args.base, m, N, p, res.method, res.value, res.error_bound, scaled))

    header = "kind,base,m,N,p,method,value,error_bound,value_n_over_sqrt_logn"
    _write_study(args, header, rows)
    return 0


def cmd_study_wce(args) -> int:
    """One row per m.  The guard charges a row N T s (n+1), the digit
    entries wce_direct reads: T is 1 for a diagonal kernel and the
    b^(k s) frequencies of a band-limited one, which alone has a size.
    The spectral route keeps its own --max-candidates guard."""
    # the study nets are planar: symmetrized two dimensional Hammersley
    kernel = _parse_kernel(args, 2)
    T = getattr(kernel, "size", 1)
    rows = []
    for m in _parse_m_range(args.m_range):
        n = m + args.n_extra
        net = symmetrize_matrices(hammersley_matrices(args.base, m, n))
        if _over_cap(args, f"m={m}", "N T s (n+1)", net.n_points * T * net.s * (net.n + 1)):
            continue
        direct = wce_direct(enumerate_points(net), kernel)
        cap = min(args.cap, n) if args.cap is not None else None
        spectral = wce_spectral(net, kernel, cap=cap, max_candidates=args.max_candidates)
        ok = abs(direct.value - spectral.value) <= spectral.tail_bound + 1e-10
        rows.append(
            (
                args.base,
                m,
                n,
                net.n_points,
                args.kernel,
                direct.value,
                spectral.value,
                spectral.tail_bound,
                spectral.terms_used,
                ok,
            )
        )

    header = "base,m,n,N,kernel,value_direct,value_spectral,tail_bound,terms_used,within_tail"
    _write_study(args, header, rows)
    return 0 if all(row[-1] for row in rows) else 1


def cmd_study_convergence(args) -> int:
    rows = []
    for m in _parse_m_range(args.m_range):
        # the guard reads N from the matrices, before any point set is built
        ham_net = hammersley_matrices(args.base, m)
        sym_net = symmetrize_matrices(ham_net)
        if _over_cap(args, f"m={m}", "N log^2 N", _l2_ops(max(ham_net.n_points, sym_net.n_points))):
            continue
        ham, sym = to_point_set(ham_net), to_point_set(sym_net)
        l2h = l2_star(ham).value
        l2s = l2_star(sym).value
        rows.append(
            (
                args.base,
                m,
                ham.n_points,
                l2h,
                l2h * ham.n_points / m,
                sym.n_points,
                l2s,
                l2s * sym.n_points / math.sqrt(m + 2),
            )
        )

    header = "base,m,N_ham,l2_ham,ham_n_over_logn,N_sym,l2_sym,sym_n_over_sqrt_logn"
    _write_study(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and kept: parsing
    leaves it unchanged, so repeated main(argv) calls in one process share
    it."""
    p = argparse.ArgumentParser(prog="badicnet", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    # flags shared by several subcommands, each declared once in a parent
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")
    net_out = argparse.ArgumentParser(add_help=False, parents=[out])
    net_out.add_argument("--points-csv")
    net_args = argparse.ArgumentParser(add_help=False)
    net_args.add_argument("--kind", default="hammersley",
                          choices=["hammersley", "sym-hammersley", "sym-hammersley-truncated", "custom-json"])
    net_args.add_argument("--base", type=int)
    net_args.add_argument("--m", type=int)
    net_args.add_argument("--n", type=int)
    net_args.add_argument("--in", dest="infile")
    candidates = argparse.ArgumentParser(add_help=False)
    candidates.add_argument("--max-candidates", type=int, default=GUARD_DEFAULT)
    study_args = argparse.ArgumentParser(add_help=False, parents=[out])
    study_args.add_argument("--base", type=int, required=True)
    study_args.add_argument("--m-range", required=True, help="A:B inclusive, or one value")
    study_args.add_argument("--max-ops", type=int, default=1 << 28)

    net = sub.add_parser("net", help="generate and transform nets")
    netsub = net.add_subparsers(dest="sub", required=True)
    g = netsub.add_parser("gen", parents=[net_args, net_out])
    g.set_defaults(func=cmd_net_gen)
    sy = netsub.add_parser("symmetrize", parents=[net_out])
    sy.add_argument("--in", dest="infile", required=True)
    sy.set_defaults(func=cmd_net_symmetrize)
    pp = netsub.add_parser("points", parents=[net_args, out])
    pp.set_defaults(func=cmd_net_points)

    ver = sub.add_parser("verify", help="exact identity checks")
    versub = ver.add_subparsers(dest="sub", required=True)
    vd = versub.add_parser("dual", parents=[net_args, candidates, out])
    vd.add_argument("--kbound", type=int, required=True, help="digits per component in the search box")
    vd.set_defaults(func=cmd_verify_dual)
    vo = versub.add_parser("orthogonality", parents=[net_args, out])
    vo.add_argument("--samples", type=int, default=200)
    vo.add_argument("--seed", type=int, default=0)
    vo.set_defaults(func=cmd_verify_orthogonality)
    vi = versub.add_parser("independence", parents=[out])
    vi.add_argument("--base", type=int, required=True)
    vi.add_argument("--m", type=int, required=True)
    vi.add_argument("--n", type=int)
    vi.set_defaults(func=cmd_verify_independence)
    vr = versub.add_parser("rho2", parents=[net_args, candidates, out])
    vr.add_argument("--cap", type=int)
    vr.set_defaults(func=cmd_verify_rho2)

    study = sub.add_parser("study", help="tabulated computations over families")
    stsub = study.add_subparsers(dest="sub", required=True)
    sd = stsub.add_parser("discrepancy", parents=[study_args])
    sd.add_argument("--p", default="2")
    sd.add_argument("--kinds", default="hammersley,sym-hammersley")
    sd.set_defaults(func=cmd_study_discrepancy)
    sw = stsub.add_parser("wce", parents=[study_args, candidates])
    sw.add_argument("--kernel", default="diagonal:alpha=1,gamma=1")
    sw.add_argument("--n-extra", type=int, default=8)
    sw.add_argument("--cap", type=int)
    sw.add_argument("--seed", type=int, default=0)
    sw.set_defaults(func=cmd_study_wce)
    sc = stsub.add_parser("convergence", parents=[study_args])
    sc.set_defaults(func=cmd_study_convergence)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
