"""Workload task lists of the badicnet benchmark.

A task is one `badicnet` CLI invocation, run in-process through
`badicnet.cli.main(argv)`, or one library call written like the README's
"Library use".  Library calls look their functions up on the module at
call time (`discrepancy.l2_star`, not a bound name), so the traced run
sees them through the same rebinding as the CLI.

The task lists come in four parts, one per layer group: l2-scaling,
lp-grid, wce and points.  The workloads BENCHMARK.json runs join them two
by two, so that each run is long enough to average out the host's speed
swings: `discrepancy` is l2-scaling then lp-grid, `wce-points` is wce then
points.  Each part also runs on its own under its own name.

`build` is the set-up step that `setup_s` measures: it imports
`badicnet.cli` (and with it numpy and scipy) and builds the library-task
inputs.  Every part has a tiny variant with the same task names, used by
the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

PARTS = ("l2-scaling", "lp-grid", "wce", "points")
JOINED = {"discrepancy": ("l2-scaling", "lp-grid"), "wce-points": ("wce", "points")}
WORKLOADS = (*JOINED, *PARTS)


@dataclass(frozen=True)
class Task:
    """One unit of work with its output check.

    what is the task as written, with `{seed}` where the seed goes.  The
    reference entry the output is compared with is `key`, the part and the
    task name.  check selects the checker in check.py.
    """

    name: str
    what: str
    check: str
    argv: tuple[str, ...] = ()
    call: Callable[[], object] | None = None
    part: str = ""

    @property
    def key(self) -> str:
        return f"{self.part}/{self.name}"


def _cli(name: str, what: str, check: str, seed: int) -> Task:
    return Task(name, what, check, argv=tuple(what.format(seed=seed).split()))


def _l2_scaling(seed: int, tiny: bool) -> list[Task]:
    from badicnet import discrepancy, nets

    # n = 28 puts N * D^2 past 2^61, so l2_star takes its Python-object loop
    m, ns = (4, (8, 28)) if tiny else (8, (12, 20, 28))
    tasks = [
        _cli("convergence-b2", f"study convergence --base 2 --m-range {'2:6' if tiny else '2:12'}", "convergence", seed),
        # base 3 stops at m=6: m=7 trips the default --max-ops guard
        _cli("convergence-b3", f"study convergence --base 3 --m-range {'2:3' if tiny else '2:6'}", "convergence", seed),
    ]
    for n in ns:
        ps = nets.to_point_set(nets.truncated_sym_hammersley(2, m, n))
        tasks.append(
            Task(
                f"l2-truncated-n{n}",
                f"l2_star(to_point_set(truncated_sym_hammersley(2, {m}, {n})))",
                "l2",
                call=lambda ps=ps: discrepancy.l2_star(ps),
            )
        )
    return tasks


def _lp_grid(seed: int, tiny: bool) -> list[Task]:
    return [
        _cli(
            "discrepancy-b2",
            f"study discrepancy --base 2 --m-range {'2:3' if tiny else '2:6'} --p 1,1.5,2,4,inf --kinds hammersley,sym-hammersley",
            "discrepancy",
            seed,
        ),
        _cli(
            "discrepancy-b3",
            f"study discrepancy --base 3 --m-range {'1:1' if tiny else '1:3'} --p 1,4,inf --kinds hammersley,sym-hammersley",
            "discrepancy",
            seed,
        ),
    ]


def _wce(seed: int, tiny: bool) -> list[Task]:
    if tiny:
        direct, cap, spectral, band = "5:6", 4, "1:2", "1:3"
        rho2_b2, rho2_b3, dual, indep = "--m 3 --n 8 --cap 8", "--m 2 --n 5 --cap 5", "--m 2 --n 6 --kbound 3", "--m 3 --n 7"
    else:
        # the spectral scan stops at m=5, not 6, so that a run holds three passes
        direct, cap, spectral, band = "9:10", 6, "1:5", "1:8"
        rho2_b2, rho2_b3, dual, indep = "--m 6 --n 14 --cap 14", "--m 3 --n 8 --cap 8", "--m 4 --n 9 --kbound 8", "--m 5 --n 11"
    return [
        # direct route: N = 2048 and 4096 pair sums, a small spectral scan
        _cli("wce-direct", f"study wce --base 2 --m-range {direct} --n-extra 2 --cap {cap}", "wce", seed),
        # spectral route: the dual_contains scan over every candidate frequency
        _cli("wce-spectral", f"study wce --base 2 --m-range {spectral}", "wce", seed),
        _cli(
            "wce-bandlimited",
            f"study wce --base 2 --m-range {band} --n-extra 4 --kernel bandlimited:k=3,rank=4 --seed {{seed}}",
            "wce-seeded",
            seed,
        ),
        _cli("rho2-b2", f"verify rho2 --kind sym-hammersley-truncated --base 2 {rho2_b2}", "json", seed),
        _cli("rho2-b3", f"verify rho2 --kind sym-hammersley-truncated --base 3 {rho2_b3}", "json", seed),
        _cli("dual-b2", f"verify dual --kind sym-hammersley --base 2 {dual}", "json", seed),
        _cli("independence-b2", f"verify independence --base 2 {indep}", "json", seed),
    ]


def _points(seed: int, tiny: bool) -> list[Task]:
    from badicnet import nets, rkhs

    gen, pts, samples, (m, n) = ("--m 4 --n 6", "--m 2 --n 5", 20, (4, 6)) if tiny else ("--m 13 --n 16", "--m 7 --n 10", 400, (11, 15))
    net = nets.symmetrize_matrices(nets.hammersley_matrices(2, m, n))

    def shifted_qmc():
        shifted = rkhs.random_digital_shift(nets.enumerate_points(net), seed)
        return net, shifted, rkhs.qmc_integrate(shifted, "prod-quadratic")

    return [
        _cli("net-gen", f"net gen --kind sym-hammersley --base 2 {gen} --points-csv -", "sha256", seed),
        _cli("net-points", f"net points --kind sym-hammersley-truncated --base 3 {pts}", "sha256", seed),
        _cli(
            "orthogonality",
            f"verify orthogonality --kind sym-hammersley --base 3 --m 3 --n 8 --samples {samples} --seed {{seed}}",
            "orthogonality",
            seed,
        ),
        Task(
            "qmc-shift",
            f'qmc_integrate(random_digital_shift(enumerate_points(symmetrize_matrices(hammersley_matrices(2, {m}, {n}))), {{seed}}), "prod-quadratic")',
            "qmc",
            call=shifted_qmc,
        ),
    ]


_BUILDERS = {"l2-scaling": _l2_scaling, "lp-grid": _lp_grid, "wce": _wce, "points": _points}


def build(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """Import the CLI and build the workload's tasks and library inputs."""
    import badicnet.cli  # noqa: F401  -- part of what set-up measures

    parts = JOINED.get(workload, (workload,))
    return [replace(task, part=part) for part in parts for task in _BUILDERS[part](seed, tiny)]
