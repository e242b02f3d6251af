"""Tests of the benchmark itself.

    python3 -m pytest bench/selftest.py -q

The file name keeps these out of the library's own test run: they start
benchmark processes and take about a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  -- pins the thread counts before numpy loads

sys.path.insert(0, str(run.SRC))
import check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((run.HERE / "reference.json").read_text())["tiny"]


def _bench(workload: str, trace: int, seed: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_completes(workload):
    result = _bench(workload, 0, seed=11)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.JOINED))
def test_traced_counts_repeat(workload):
    def counts(result):
        timed = (".self_s", ".exponent", "trace.overhead")
        return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith(timed)}

    first, second = _bench(workload, 1, seed=5), _bench(workload, 1, seed=5)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert counts(first) == counts(second)


def test_joined_workloads_run_their_parts():
    for workload, parts in workloads.JOINED.items():
        keys = [task.key for task in workloads.build(workload, 3, tiny=True)]
        assert keys == [task.key for part in parts for task in workloads.build(part, 3, tiny=True)]
        assert all(key in REFERENCE for key in keys)


@pytest.fixture(scope="module")
def outputs():
    """Each tiny task's output, from one in-process run."""
    return {
        task.key: (task, run._run_task(task)) for part in workloads.PARTS for task in workloads.build(part, 3, tiny=True)
    }


def _cell(col: str, change):
    """Corrupt one cell of the first CSV data row."""

    def corrupt(out):
        schema, *lines = out.stdout.splitlines()
        rows = list(csv.reader(lines))
        i = rows[0].index(col)
        rows[1][i] = change(rows[1][i])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return dataclasses.replace(out, stdout=f"{schema}\n{buf.getvalue()}")

    return corrupt


def _json(change):
    def corrupt(out):
        doc = json.loads(out.stdout)
        change(doc)
        return dataclasses.replace(out, stdout=json.dumps(doc))

    return corrupt


CORRUPTIONS = {
    "discrepancy value": ("lp-grid", "discrepancy-b2", _cell("value", lambda v: repr(float(v) * (1 + 1e-9)))),
    "discrepancy method": ("lp-grid", "discrepancy-b2", _cell("method", lambda v: "corner_sweep" if v != "corner_sweep" else "quadrature")),
    "convergence value": ("l2-scaling", "convergence-b2", _cell("l2_sym", lambda v: repr(float(v) * (1 + 1e-12)))),
    "wce dual hits": ("wce", "wce-spectral", _cell("terms_used", lambda v: str(int(v) + 1))),
    "wce direct value": ("wce", "wce-direct", _cell("value_direct", lambda v: repr(float(v) + 1e-6))),
    "wce seeded verdict": ("wce", "wce-bandlimited", _cell("value_spectral", lambda v: repr(float(v) + 1e-3))),
    "rho2 witness": ("wce", "rho2-b2", _json(lambda d: d.update(witness=[1, 2]))),
    "orthogonality verdict": ("points", "orthogonality", _json(lambda d: d.update(passed=False))),
    "point CSV byte": ("points", "net-gen", lambda o: dataclasses.replace(o, stdout=o.stdout[:-2] + "7\n")),
    "skipped rows": (
        "lp-grid",
        "discrepancy-b3",
        lambda o: dataclasses.replace(o, stderr="warning: skipped ('sym-hammersley', 3, 1, 4): N^2 over --max-ops\n"),
    ),
    "guard exit code": ("wce", "dual-b2", lambda o: dataclasses.replace(o, rc=3)),
    "l2 value": ("l2-scaling", "l2-truncated-n28", lambda r: dataclasses.replace(r, value=r.value * (1 + 1e-9))),
    "qmc estimate": ("points", "qmc-shift", lambda o: (o[0], o[1], dataclasses.replace(o[2], value=o[2].value + 1e-9))),
    "qmc shift": ("points", "qmc-shift", lambda o: (o[0], o[1][:-1] + o[1][:1], o[2])),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_fails(outputs, case):
    workload, name, corrupt = CORRUPTIONS[case]
    task, out = outputs[f"{workload}/{name}"]
    ref = REFERENCE[task.key]
    assert check.verify(task, out, ref) == []
    assert check.verify(task, corrupt(out), ref)


def test_real_guard_trip_fails(outputs):
    task, _ = outputs["wce/dual-b2"]
    tripped = dataclasses.replace(task, argv=task.argv + ("--max-candidates", "4"))
    out = run._run_task(tripped)
    assert out.rc == 3
    assert check.verify(tripped, out, REFERENCE["wce/dual-b2"])

