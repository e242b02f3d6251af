"""Benchmark of badicnet: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Workloads (see workloads.py and README.md): discrepancy and
wce-points, which BENCHMARK.json runs, and their parts l2-scaling,
lp-grid, wce and points.  The run is one process with one thread.  It repeats the
workload's task list for about S seconds (at least once), checks each
pass's outputs, and prints human-readable lines followed by one JSON
line with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
untraced passes of wall and CPU time, the median of fresh-process set-up
times (one before each pass, at least five), peak resident memory and the share of tasks that passed.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics; spans are saved to bench/out/.  --tiny runs the small
variant of the workload that the benchmark's tests use.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# one process, one thread: pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QMC_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small variant of the workload, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def _setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rc = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def _run_task(task):
    import badicnet.cli as cli

    if task.argv:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(task.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            return exc
        return check.CliOutput(rc, out.getvalue(), err.getvalue())
    try:
        return task.call()
    except Exception as exc:
        return exc


def _timed_pass(tasks, tracer=None):
    """Run every task once; wall and CPU seconds and the outputs."""
    outputs = []
    wall, cpu = time.perf_counter(), time.process_time()
    for task in tasks:
        sid = tracer.open("task", task.name) if tracer else None
        out = _run_task(task)
        if tracer:
            tracer.close(sid, {"out_bytes": len(out.stdout.encode())} if isinstance(out, check.CliOutput) else None)
        outputs.append(out)
    return time.perf_counter() - wall, time.process_time() - cpu, outputs


class _Tally:
    """Attempted and failed tasks over a run, with the first problems seen."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, tasks, outputs) -> None:
        for task, out in zip(tasks, outputs):
            found = check.verify(task, out, self.reference.get(task.key))
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += [f"{task.key}: {p}" for p in found[:3]]


def _loop(seconds: float, one_pass) -> None:
    """Repeat one_pass while another one still fits in the run's seconds."""
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return


def _untraced(args, tasks, tally) -> dict:
    walls, cpus, setups = [], [], []

    def one_pass():
        # set-up probes are spread over the run, one before each pass, so
        # their median does not hang on the host's speed at one moment
        setups.append(_setup_probe(args))
        wall, cpu, outputs = _timed_pass(tasks)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(tasks, outputs)

    _loop(args.seconds, one_pass)
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_probe(args))
    print(f"passes {len(walls)}: run_s {[round(w, 4) for w in walls]}")
    print(f"setup probes {len(setups)}: setup_s {[round(t, 4) for t in setups]}")
    return {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def _traced(args, tasks, tally) -> dict:
    plain, traced, tracers, per_pass = [], [], [], []

    def one_pass():
        wall, _, outputs = _timed_pass(tasks)
        plain.append(wall)
        tally.add(tasks, outputs)
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, _, outputs = _timed_pass(tasks, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tally.add(tasks, outputs)
        tracers.append(tracer)
        per_pass.append(spans.layer_metrics(tracer.spans))

    _loop(args.seconds, one_pass)
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{args.workload}{'-tiny' if args.tiny else ''}.tsv.gz", tracers)

    metrics = {}
    for name, value in per_pass[0][0].items():
        values = [m[name] for m, _ in per_pass]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            tally.problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = value
    for group in per_pass[0][1]:
        # rows come in call order, so row i is the same call in every pass
        passes = [rows[group] for _, rows in per_pass]
        median_rows = [(row[0][0], statistics.median(t for _, t in row)) for row in zip(*passes)]
        table, exponent = spans.scaling_rows(median_rows)
        metrics[f"{group}.exponent"] = exponent
        for r in table:
            slope = "-" if r["exponent"] is None else f"{r['exponent']:.3f}"
            print(f"row {group} N={r['N']} time_s={r['time_s']:.6f} exponent={slope}")
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    print(f"passes {len(traced)}: untraced run_s {[round(w, 4) for w in plain]}, traced {[round(w, 4) for w in traced]}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "badicnet" / "__init__.py").is_file():
        print(f"error: no badicnet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0
    env = _environment()
    print("env " + json.dumps(env))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())["tiny" if args.tiny else "full"]
    tasks = workloads.build(args.workload, args.seed, args.tiny)
    import badicnet

    if Path(badicnet.__file__).resolve().parent != (SRC / "badicnet").resolve():
        print(f"error: badicnet was imported from {badicnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tally = _Tally(reference)
    if args.trace:
        measured, wanted = _traced(args, tasks, tally), spec["per_layer"]
    else:
        measured, wanted = _untraced(args, tasks, tally), spec["end_to_end"]
    print(f"fail_ratio {tally.failed / tally.attempted} (1): {tally.failed} of {tally.attempted} tasks failed")
    for problem in tally.problems[:20]:
        print(f"problem {problem}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {measured[m['name']]} {m['unit']}")
    print(f"loadavg_1m at end {os.getloadavg()[0]}")
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
