"""The benchmark's span tracer names only functions that exist, its
output check still reads the shifted net points the way the library
hands them out (iteration and slicing of NetPoints), every task of the
benchmark, tiny and full size, still gives its recorded reference output."""

import importlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    # the bench scripts are not package modules: load them by path,
    # registered first, since dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench_module("spans")


def test_every_traced_function_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        f"{module}.{function}"
        for module, function, _, _ in targets
        if not callable(getattr(importlib.import_module(f"badicnet.{module}"), function, None))
    ]
    assert missing == []


def test_qmc_check_reads_the_shifted_points():
    from badicnet import enumerate_points, hammersley_matrices, qmc_integrate, random_digital_shift, symmetrize_matrices

    verify_qmc = load_bench_module("check")._verify_qmc
    net = symmetrize_matrices(hammersley_matrices(2, 3, 5))
    shifted = random_digital_shift(enumerate_points(net), 7)
    res = qmc_integrate(shifted, "prod-quadratic")
    assert verify_qmc((net, shifted, res)) == []
    # one point swapped for a copy of another: no longer one digital shift
    assert verify_qmc((net, shifted[:-1] + shifted[:1], res))


def run_task(check, task):
    """A task's output in-process: a library call's value, or what the CLI
    printed and returned."""
    from badicnet import cli

    if not task.argv:
        return task.call()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(task.argv))
    return check.CliOutput(rc, out.getvalue(), err.getvalue())


def test_tiny_tasks_match_the_reference():
    # each tiny task of the four parts, run in-process at seed 3 as the
    # benchmark's self-test runs them, against reference.json["tiny"]
    check, workloads = load_bench_module("check"), load_bench_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text())["tiny"]
    tasks = [task for part in workloads.PARTS for task in workloads.build(part, 3, tiny=True)]
    assert sorted(task.key for task in tasks) == sorted(reference)
    problems = {task.key: check.verify(task, run_task(check, task), reference[task.key]) for task in tasks}
    assert {key: found for key, found in problems.items() if found} == {}


def test_full_dual_side_tasks_match_the_reference():
    # every full-size task against reference.json["full"]: the dual-side
    # tasks, the point-side tasks on the linear digit map and its shift
    # add, both WCE routes, the L_2 convergence tables, the truncated L_2
    # sums (Python-int dots at n = 28) and the L_p grid tasks (even-p roots
    # past p = 2), a few tens of ms each: at tiny size rho2-b3 exceeds its
    # cap, so only the full task checks a base-3 witness
    check, workloads = load_bench_module("check"), load_bench_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text())["full"]
    tasks = [task for part in workloads.PARTS for task in workloads.build(part, 3)]
    assert sorted(task.key for task in tasks) == sorted(reference)
    assert {"l2-scaling/l2-truncated-n12", "l2-scaling/l2-truncated-n20", "l2-scaling/l2-truncated-n28"} <= set(reference)
    assert reference["wce/rho2-b3"]["doc"]["witness"]
    problems = {task.key: check.verify(task, run_task(check, task), reference[task.key]) for task in tasks}
    assert {key: found for key, found in problems.items() if found} == {}
