"""End-to-end command line behavior: exit codes, formats, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badicnet import (
    character_sum_over,
    dual_contains,
    enumerate_points,
    hammersley_matrices,
    qmc_integrate,
    random_digital_shift,
    symmetrize_matrices,
)
from badicnet import cli
from badicnet.cli import _net_by_kind, build_parser, main
from badicnet.dual import GUARD_DEFAULT, GuardExceeded
from badicnet.nets import dumps_compact
from oracles import no_point_objects


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_net_gen_emits_json(capsys):
    code, out, _ = run(capsys, "net", "gen", "--kind", "hammersley", "--base", "2", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 2 and doc["m"] == 2 and len(doc["matrices"]) == 2


def test_net_gen_writes_points_csv(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    csv_file = tmp_path / "pts.csv"
    code, _, _ = run(
        capsys, "net", "gen", "--kind", "sym-hammersley", "--base", "2", "--m", "1",
        "--out", str(net_file), "--points-csv", str(csv_file),
    )
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert len(lines) == 2 + 8  # header rows plus 2 * 2^2 points


def test_net_gen_points_csv_dash_is_stdout(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    code, out, _ = run(
        capsys, "net", "gen", "--kind", "hammersley", "--base", "2", "--m", "1",
        "--out", str(net_file), "--points-csv", "-",
    )
    assert code == 0
    assert out.startswith("# schema=1\n")
    assert len(out.strip().splitlines()) == 2 + 2


def test_net_symmetrize_round_trip(tmp_path, capsys):
    inner = tmp_path / "in.json"
    outer = tmp_path / "out.json"
    assert run(capsys, "net", "gen", "--base", "3", "--m", "1", "--out", str(inner))[0] == 0
    code, _, _ = run(capsys, "net", "symmetrize", "--in", str(inner), "--out", str(outer))
    assert code == 0
    doc = json.loads(outer.read_text())
    assert doc["sym_columns"] == 2
    assert doc["m"] == 3


def test_custom_json_requires_input(capsys):
    code, _, err = run(capsys, "net", "gen", "--kind", "custom-json")
    assert code == 2
    assert "error:" in err
    # every command that reads a net says so, with or without --base/--m
    for sub in ("gen", "points"):
        code, out, err = run(capsys, "net", sub, "--kind", "custom-json", "--base", "2", "--m", "1")
        assert code == 2
        assert err == "error: custom-json needs --in\n"
        assert out == ""


def test_verify_dual_passes(capsys):
    code, out, _ = run(capsys, "verify", "dual", "--base", "2", "--m", "2", "--n", "4", "--kbound", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["dual_sym"] == doc["dual_inner_in_E"]


def test_verify_dual_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "verify", "dual", "--base", "2", "--m", "3", "--n", "6", "--kbound", "6",
        "--max-candidates", "100",
    )
    assert code == 3
    assert "guard exceeded" in err


def test_exit_three_follows_the_guard_type(capsys, monkeypatch):
    # exit 3 is read from the type of the error, not from its message
    for exc, code in ((GuardExceeded("over its cap"), 3), (ValueError("guard exceeded: by message only"), 2)):

        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_load_net", fail)
        assert run(capsys, "net", "gen", "--kind", "hammersley", "--base", "2", "--m", "2") == (code, "", f"error: {exc}\n")


def test_verify_orthogonality_deterministic(capsys):
    args = ("verify", "orthogonality", "--base", "2", "--m", "2", "--n", "4", "--samples", "40", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["failures"] == 0


def orthogonality_by_samples(net, samples, seed):
    """verify orthogonality's report as it was: one frequency draw, one
    character_sum_over and one dual_contains per sample."""
    b, n, s, N = net.base, net.n, net.s, net.n_points
    rng = np.random.default_rng(seed)
    points = enumerate_points(net)
    full = bad = 0
    for _ in range(samples):
        ks = tuple(int(v) for v in rng.integers(0, b**n, size=s))
        cs = character_sum_over(points, ks)
        hit = dual_contains(net, ks)
        full += hit
        bad += not (cs.equals_int(N) if hit else cs.is_zero())
    return {"passed": bad == 0, "samples": samples, "dual_hits": full, "nondual": samples - full, "failures": bad}


@pytest.mark.parametrize(
    "kind, base, m, n, samples, seed",
    [
        ("sym-hammersley", 3, 3, 8, 60, 3),
        ("hammersley", 2, 2, 4, 40, 7),
        ("sym-hammersley-truncated", 5, 1, 3, 50, 11),
        ("hammersley", 2, 3, 63, 30, 5),  # b^n = 2^63, the largest one-integer draw
    ],
)
def test_verify_orthogonality_matches_the_per_sample_report(capsys, kind, base, m, n, samples, seed):
    argv = ["--kind", kind, "--base", str(base), "--m", str(m), "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
    code, out, _ = run(capsys, "verify", "orthogonality", *argv)
    net = _net_by_kind(kind, base, m, n)
    assert code == 0
    assert out == dumps_compact(orthogonality_by_samples(net, samples, seed)) + "\n"


@pytest.mark.parametrize("argv", [
    ("--kind", "sym-hammersley", "--base", "5", "--m", "2", "--n", "30"),
    ("--kind", "hammersley", "--base", "3", "--m", "2", "--n", "45"),
])
def test_verify_orthogonality_draws_digits_past_int64(capsys, argv):
    code, out, err = run(capsys, "verify", "orthogonality", *argv, "--samples", "50", "--seed", "2")
    doc = json.loads(out)
    assert code == 0, err
    assert doc["passed"] is True and doc["failures"] == 0
    assert doc["samples"] == doc["dual_hits"] + doc["nondual"] == 50


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 5]), st.sampled_from([3**8, 2**40, 2**63]), st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_one_draw_of_all_samples_is_the_per_sample_stream(s, bound, seed, samples):
    # verify orthogonality draws all its samples at once; the recorded
    # benchmark counts hold only while that is the per-sample stream
    rng = np.random.default_rng(seed)
    per_sample = [rng.integers(0, bound, size=s).tolist() for _ in range(samples)]
    assert np.random.default_rng(seed).integers(0, bound, size=(samples, s)).tolist() == per_sample
    # past int64 the draw is each component's digits
    rng = np.random.default_rng(seed)
    per_sample = [rng.integers(0, 5, size=(s, 30)).tolist() for _ in range(samples)]
    assert np.random.default_rng(seed).integers(0, 5, size=(samples, s, 30)).tolist() == per_sample


def test_verify_orthogonality_past_int64_matches_the_per_sample_draw(capsys):
    argv = ("--kind", "sym-hammersley", "--base", "5", "--m", "2", "--n", "30", "--samples", "30", "--seed", "4")
    code, out, _ = run(capsys, "verify", "orthogonality", *argv)
    net = _net_by_kind("sym-hammersley", 5, 2, 30)
    rng = np.random.default_rng(4)
    weights = [5**i for i in range(30)]
    ks = [tuple(sum(d * w for d, w in zip(row, weights)) for row in rng.integers(0, 5, size=(2, 30)).tolist()) for _ in range(30)]
    points, N = enumerate_points(net), net.n_points
    hits = [dual_contains(net, k) for k in ks]
    sums = [character_sum_over(points, k) for k in ks]
    bad = sum(not (cs.equals_int(N) if hit else cs.is_zero()) for cs, hit in zip(sums, hits))
    assert code == 0
    assert json.loads(out) == {"passed": bad == 0, "samples": 30, "dual_hits": sum(hits), "nondual": 30 - sum(hits), "failures": bad}


def test_verify_orthogonality_memory_is_bounded(capsys):
    # one unchunked 32768 x 400 int64 exponent table would take 105 MB
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "verify", "orthogonality", "--kind", "sym-hammersley",
            "--base", "2", "--m", "13", "--n", "16", "--samples", "400",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["passed"] is True
    assert peak < 40 * 2**20


def test_verify_independence(capsys):
    code, out, _ = run(capsys, "verify", "independence", "--base", "3", "--m", "2", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True


def test_verify_rho2_reports_exceeds_with_certificate(capsys):
    code, out, _ = run(
        capsys, "verify", "rho2", "--kind", "sym-hammersley-truncated",
        "--base", "2", "--m", "2", "--n", "5", "--cap", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rho2"] == "exceeds"
    assert doc["certified_by"] == "enumeration+independence"
    assert doc["cap"] == 5


def test_verify_rho2_certifies_only_where_the_certificate_applies(capsys, monkeypatch):
    # at b = 4 the certificate does not apply, so the enumeration stands alone
    code, out, _ = run(
        capsys, "verify", "rho2", "--kind", "sym-hammersley-truncated",
        "--base", "4", "--m", "2", "--n", "6", "--cap", "2",
    )
    assert code == 0
    assert out == '{\n "rho2": "exceeds",\n "cap": 2,\n "certified_by": "enumeration",\n "witness": null\n}\n'

    # where it applies, whatever it raises is the command's error, not a
    # silent "enumeration": a guard inside it exits 3
    def tripped(net, rho):
        raise GuardExceeded("guard exceeded: 2 selections over cap 1")

    monkeypatch.setattr(cli, "certify_rho2_via_independence", tripped)
    code, out, err = run(
        capsys, "verify", "rho2", "--kind", "sym-hammersley-truncated",
        "--base", "2", "--m", "2", "--n", "5", "--cap", "5",
    )
    assert (code, out, err) == (3, "", "error: guard exceeded: 2 selections over cap 1\n")


def test_verify_rho2_finds_weight(capsys):
    code, out, _ = run(capsys, "verify", "rho2", "--kind", "hammersley", "--base", "2", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rho2"] == 3
    assert doc["witness"] == [1, 2]


def test_verify_rho2_beyond_the_plane(tmp_path, capsys):
    # the b = 3, m = n = 4 Faure net in three coordinates, C_j = P^(j-1)
    # mod 3 with P the 4x4 upper triangular Pascal matrix binom(c, r)
    P = np.array([[math.comb(c, r) for c in range(4)] for r in range(4)])
    mats = [(np.linalg.matrix_power(P, j) % 3).tolist() for j in range(3)]
    net_file = tmp_path / "faure.json"
    net_file.write_text(json.dumps({"base": 3, "s": 3, "m": 4, "n": 4, "matrices": mats}))
    argv = ("verify", "rho2", "--kind", "custom-json", "--in", str(net_file))
    code, out, _ = run(capsys, *argv, "--cap", "8")
    assert code == 0
    assert out == '{\n "rho2": 6,\n "cap": 8,\n "certified_by": "enumeration",\n "witness": [0, 9, 18]\n}\n'
    code, out, _ = run(capsys, *argv, "--cap", "4")
    assert code == 0
    assert out == '{\n "rho2": "exceeds",\n "cap": 4,\n "certified_by": "enumeration+independence",\n "witness": null\n}\n'


def test_study_discrepancy_schema_and_determinism(capsys):
    args = ("study", "discrepancy", "--base", "2", "--m-range", "2:4", "--p", "2,inf")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    assert header[:6] == ["kind", "base", "m", "N", "p", "method"]
    assert len(lines) == 2 + 3 * 2 * 2  # kinds x m x p


def test_study_discrepancy_max_ops_skips(capsys):
    code, out, err = run(
        capsys, "study", "discrepancy", "--base", "2", "--m-range", "2:6", "--p", "2",
        "--max-ops", "4000",
    )
    assert code == 0
    assert "skipped" in err
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    # sym-hammersley m=5 has 128 points, charged 128 * 7^2 = 6272 > 4000 ops
    assert not any(l.startswith("sym-hammersley,2,5") for l in lines)


def test_study_wce_quotes_kernel_and_passes(capsys):
    code, out, _ = run(
        capsys, "study", "wce", "--base", "2", "--m-range", "1:2",
        "--kernel", "diagonal:alpha=1,gamma=1", "--n-extra", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert '"diagonal:alpha=1,gamma=1"' in lines[2]
    assert lines[2].endswith("True")


def test_study_wce_band_limited_seeded(capsys):
    args = ("study", "wce", "--base", "2", "--m-range", "2:2", "--kernel",
            "bandlimited:k=2,rank=3", "--seed", "5", "--n-extra", "4")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# Outputs recorded before the digit codec was shared: the diagonal levels
# read from digit arrays, the band-limited spectral route over the
# kernel's digit rows, and the dual and rho2 row keys must keep every byte.
GOLDEN = [
    ('study wce --base 2 --m-range 1:4', (
        '# schema=1\n'
        'base,m,n,N,kernel,value_direct,value_spectral,tail_bound,terms_used,within_tail\n'
        '2,1,9,8,"diagonal:alpha=1,gamma=1",0.072265625,0.0712890625,0.0068359375,415,True\n'
        '2,2,10,16,"diagonal:alpha=1,gamma=1",0.021728515625,0.0214691162109375,0.003662109375,447,True\n'
        '2,3,11,32,"diagonal:alpha=1,gamma=1",0.006622314453125,0.00655364990234375,0.001953125,479,True\n'
        '2,4,12,64,"diagonal:alpha=1,gamma=1",0.001987457275390625,0.0019693374633789062,0.00103759765625,511,True\n'
    )),
    ('study wce --base 2 --m-range 1:4 --n-extra 4 --kernel bandlimited:k=2,rank=3 --seed 5', (
        '# schema=1\n'
        'base,m,n,N,kernel,value_direct,value_spectral,tail_bound,terms_used,within_tail\n'
        '2,1,5,8,"bandlimited:k=2,rank=3",0.5598917513661019,0.5598917513661019,0.0,1,True\n'
        '2,2,6,16,"bandlimited:k=2,rank=3",0.5598917513661019,0.5598917513661019,0.0,1,True\n'
        '2,3,7,32,"bandlimited:k=2,rank=3",0.0,0.0,0.0,0,True\n'
        '2,4,8,64,"bandlimited:k=2,rank=3",0.0,0.0,0.0,0,True\n'
    )),
    ('study wce --base 3 --m-range 1:2 --n-extra 2 --kernel bandlimited:k=2,rank=3 --seed 1', (
        '# schema=1\n'
        'base,m,n,N,kernel,value_direct,value_spectral,tail_bound,terms_used,within_tail\n'
        '3,1,3,27,"bandlimited:k=2,rank=3",0.22700771490533295,0.22700771490533292,0.0,4,True\n'
        '3,2,4,81,"bandlimited:k=2,rank=3",0.12376333156052335,0.12376333156052344,0.0,4,True\n'
    )),
    ('verify dual --kind sym-hammersley --base 3 --m 2 --n 5 --kbound 3', (
        '{\n'
        ' "passed": true,\n'
        ' "kbound_digits": 3,\n'
        ' "dual_sym": 9,\n'
        ' "dual_inner_in_E": 9,\n'
        ' "examples": [\n'
        '  [0, 0],\n'
        '  [5, 5],\n'
        '  [7, 7],\n'
        '  [11, 21],\n'
        '  [13, 26]\n'
        ' ]\n'
        '}\n'
    )),
    ('verify rho2 --kind sym-hammersley-truncated --base 2 --m 4 --n 10', (
        '{\n'
        ' "rho2": 10,\n'
        ' "cap": 20,\n'
        ' "certified_by": "enumeration",\n'
        ' "witness": [3, 12]\n'
        '}\n'
    )),
]


@pytest.mark.parametrize("argv, want", GOLDEN, ids=["wce-diagonal", "wce-band-b2", "wce-band-b3", "dual", "rho2"])
def test_outputs_are_byte_identical_to_the_recorded_ones(capsys, argv, want):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == want


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["net", "gen", "--kind", "not-a-kind"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # the thread pool option is gone
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "study", "convergence", "--base", "2", "--m-range", "2:3"])
    assert exc.value.code == 2


def test_parameter_errors_exit_two(capsys):
    code, _, err = run(capsys, "net", "gen", "--kind", "hammersley")
    assert code == 2
    assert "need --base and --m" in err
    code, _, err = run(capsys, "study", "discrepancy", "--base", "2", "--m-range", "2:3", "--kinds", "bogus")
    assert code == 2


def test_study_skip_warnings_state_cost_and_cap(capsys):
    code, _, err = run(
        capsys, "study", "discrepancy", "--base", "2", "--m-range", "4:4", "--p", "2",
        "--max-ops", "2000",
    )
    assert code == 0
    # sym-hammersley m=4 has 64 points; hammersley m=4 (16 points) runs
    assert err == "warning: skipped ('sym-hammersley', 4, 2): N log^2 N = 2304 over --max-ops 2000\n"
    # m=3: 32 symmetrized points, charged 32 * 5^2 by the L_2 study; the WCE
    # study (n = 11, s = 2, a diagonal kernel) 32 * 1 * 2 * 12 digit entries
    for study, charge in (("convergence", "N log^2 N = 800"), ("wce", "N T s (n+1) = 768")):
        code, out, err = run(capsys, "study", study, "--base", "2", "--m-range", "3:3", "--max-ops", "100")
        assert code == 0
        assert err == f"warning: skipped m=3: {charge} over --max-ops 100\n"
        assert [l for l in out.splitlines() if not l.startswith("#")][1:] == []


def test_study_wce_is_charged_the_digit_entries_it_reads(capsys):
    # N T s (n+1): the digit entries wce_direct reads, T frequencies per
    # point; m=3 has N = 32, s = 2 and n = 11
    code, out, err = run(capsys, "study", "wce", "--base", "2", "--m-range", "3:3", "--max-ops", "1000")
    assert (code, err) == (0, "")
    assert [l.split(",")[:4] for l in out.splitlines()[2:]] == [["2", "3", "11", "32"]]
    # a band-limited kernel with k=1 has T = 2^(1*2) = 4 frequencies
    code, out, err = run(
        capsys, "study", "wce", "--base", "2", "--m-range", "3:3", "--max-ops", "3000",
        "--kernel", "bandlimited:k=1,rank=2",
    )
    assert code == 0
    assert err == "warning: skipped m=3: N T s (n+1) = 3072 over --max-ops 3000\n"
    assert out == "# schema=1\nbase,m,n,N,kernel,value_direct,value_spectral,tail_bound,terms_used,within_tail\n"
    code, out, err = run(
        capsys, "study", "wce", "--base", "2", "--m-range", "3:3", "--max-ops", "3072",
        "--kernel", "bandlimited:k=1,rank=2",
    )
    assert (code, err) == (0, "") and len(out.splitlines()) == 3


def _patch_point_sets(monkeypatch, to_point_set):
    # the library builds a study's point sets through to_point_set, from the
    # cli module or from nets.hammersley_point_set and nets.sym_hammersley_points
    import badicnet.cli
    import badicnet.nets

    monkeypatch.setattr(badicnet.cli, "to_point_set", to_point_set)
    monkeypatch.setattr(badicnet.nets, "to_point_set", to_point_set)


def test_skipped_study_rows_build_no_point_set(capsys, monkeypatch):
    def refuse(net):
        raise AssertionError("a skipped row built a point set")

    _patch_point_sets(monkeypatch, refuse)
    code, out, err = run(
        capsys, "study", "discrepancy", "--base", "2", "--m-range", "19:19", "--p", "1,2,4",
        "--kinds", "sym-hammersley",
    )
    assert code == 0
    assert err == (
        f"warning: skipped ('sym-hammersley', 19, 1): N^2 = {2**42} over --max-ops {1 << 28}\n"
        f"warning: skipped ('sym-hammersley', 19, 2): N log^2 N = {2**21 * 21**2} over --max-ops {1 << 28}\n"
        f"warning: skipped ('sym-hammersley', 19, 4): N^2 p^2 = {2**46} over --max-ops {1 << 28}\n"
    )
    assert out == "# schema=1\nkind,base,m,N,p,method,value,error_bound,value_n_over_sqrt_logn\n"
    code, out, err = run(capsys, "study", "convergence", "--base", "2", "--m-range", "20:20")
    assert code == 0
    assert err == f"warning: skipped m=20: N log^2 N = {2**22 * 22**2} over --max-ops {1 << 28}\n"


def test_huge_even_p_is_charged_its_width(capsys, monkeypatch):
    # the p + 1 exact forms of an even p act on integers of about p log2 D
    # bits: p = 1e20 at N = 4 is charged N^2 p^2, far over the cap, and
    # never reaches lp_star
    import badicnet.cli

    def refuse(ps, p):
        raise AssertionError("a skipped row ran lp_star")

    monkeypatch.setattr(badicnet.cli, "lp_star", refuse)
    code, out, err = run(
        capsys, "study", "discrepancy", "--base", "2", "--m-range", "2:2", "--p", "1e20", "--kinds", "hammersley"
    )
    assert code == 0
    assert err == f"warning: skipped ('hammersley', 2, 1e+20): N^2 p^2 = {16 * 10**40} over --max-ops {1 << 28}\n"
    assert out == "# schema=1\nkind,base,m,N,p,method,value,error_bound,value_n_over_sqrt_logn\n"


def test_study_builds_each_point_set_once(capsys, monkeypatch):
    from badicnet.nets import to_point_set

    built = []

    def counted(net):
        built.append((net.n, net.m, tuple(C.tobytes() for C in net.matrices)))
        return to_point_set(net)

    _patch_point_sets(monkeypatch, counted)
    code, out, _ = run(
        capsys, "study", "discrepancy", "--base", "2", "--m-range", "1:3", "--p", "1,2,inf",
    )
    assert code == 0 and len(out.splitlines()) == 2 + 2 * 3 * 3
    assert len(built) == len(set(built)) == 2 * 3  # one per (kind, m)
    built.clear()
    code, _, _ = run(capsys, "study", "convergence", "--base", "3", "--m-range", "1:2")
    assert code == 0 and len(built) == 2 * 2


def test_degenerate_families_exit_two(capsys):
    # m = 0 and base 1 are parameter errors, not failed verifications
    for base, m_range, message in (("2", "0:1", "need m >= 1"), ("1", "1:1", "base must be >= 2")):
        for kind in ("hammersley", "sym-hammersley"):
            code, out, err = run(
                capsys, "study", "discrepancy", "--base", base, "--m-range", m_range,
                "--kinds", kind, "--p", "2",
            )
            assert code == 2
            assert err == f"error: {message}\n"
            assert out == ""
        code, _, err = run(capsys, "study", "convergence", "--base", base, "--m-range", m_range)
        assert code == 2
        assert message in err


def test_nan_p_exits_two(capsys):
    code, out, err = run(capsys, "study", "discrepancy", "--base", "2", "--m-range", "2:2", "--p", "nan")
    assert code == 2
    assert err == "error: p must be >= 1 (or inf)\n"
    assert out == ""
    # the guard warns as it skips a row; a later error still leaves stdout empty
    code, out, err = run(
        capsys, "study", "discrepancy", "--base", "2", "--m-range", "3:3", "--p", "4,nan",
        "--max-ops", "100", "--kinds", "hammersley",
    )
    assert (code, out) == (2, "")
    assert err == "warning: skipped ('hammersley', 3, 4): N^2 p^2 = 1024 over --max-ops 100\nerror: p must be >= 1 (or inf)\n"


def test_cli_import_leaves_scipy_out():
    # scipy is a test oracle only; importing it would cost the CLI its set-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"import sys; sys.path.insert(0, {src!r}); import badicnet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_reversed_m_range_exits_two(capsys):
    for study in ("convergence", "discrepancy", "wce"):
        code, out, err = run(capsys, "study", study, "--base", "2", "--m-range", "3:2")
        assert code == 2
        assert "'3:2'" in err
        assert out == ""
    # one value, or a range of one, is still a row
    for spec in ("3", "3:3"):
        code, out, _ = run(capsys, "study", "convergence", "--base", "2", "--m-range", spec)
        assert code == 0
        assert [l.split(",")[1] for l in out.splitlines()[2:]] == ["3"]


def test_unknown_kernel_keys_exit_two(capsys):
    for spec, key in (
        ("diagonal:alpah=3", "alpah"),
        ("diagonal:alpha=1,k=2", "k"),
        ("bandlimited:k=2,gamma=1", "gamma"),
    ):
        code, out, err = run(capsys, "study", "wce", "--base", "2", "--m-range", "1:1", "--kernel", spec)
        assert code == 2
        assert f"unknown key {key!r}" in err
        assert out == ""
    code, _, err = run(capsys, "study", "wce", "--base", "2", "--m-range", "1:1", "--kernel", "gaussian:alpha=1")
    assert code == 2
    assert "unknown kernel spec" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"base": 2, "matrices": [[[1]]]}', "net JSON field 's' is missing or of the wrong type"),
        ("[1, 2]", "net JSON must be an object"),
        ('{"base": 2, "s": 1, "m": 1, "n": 1, "matrices": 5}', "net JSON field 'matrices' is missing or of the wrong type"),
        ('{"base": 2, "s": 1, "m": 1, "n": 1, "matrices": [[[1]]], "tail_rows": [null]}', "net JSON matrices and tail_rows"),
        ('{"base": 2, "s": 1, "m": 1, "n": 1, "matrices": [[[1]]], "sym_columns": 1.5}', "net JSON field 'sym_columns' must be a nonnegative integer, not 1.5"),
        ('{"base": 2, "s": 1, "m": 1, "n": 1, "matrices": [[[1]]], "sym_columns": -3}', "net JSON field 'sym_columns' must be a nonnegative integer, not -3"),
    ],
    ids=["missing-key", "not-an-object", "matrices-not-a-list", "null-tail-row", "float-sym-columns", "negative-sym-columns"],
)
def test_malformed_net_json_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "net", "points", "--in", str(path))
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert out == ""


@pytest.mark.parametrize("spec", ["diagonal:alpha=nan", "diagonal:gamma=nan", "bandlimited:k=-1"])
def test_nan_and_negative_kernel_specs_exit_two(capsys, spec):
    # NaN fails every comparison, so the checks must be written to reject it
    code, out, err = run(capsys, "study", "wce", "--base", "2", "--m-range", "1:1", "--kernel", spec)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_infinite_kernel_weight_exits_two(capsys):
    # the weight is refused when the kernel is built, not deep in a sum
    code, out, err = run(capsys, "study", "wce", "--base", "2", "--m-range", "1:1", "--kernel", "diagonal:gamma=inf")
    assert (code, out) == (2, "")
    assert err == "error: weights must be finite and nonnegative\n"


def test_band_limited_kernel_size_guard(capsys, monkeypatch):
    # b^(2 k s) coefficients are counted before the kernel is built
    import badicnet.cli as cli

    def build_nothing(*args):
        raise AssertionError("kernel built past the guard")

    monkeypatch.setattr(cli.BandLimitedKernel, "random", build_nothing)
    for k, cap, power in [("8", None, "2^32"), ("2", "255", "2^8"), ("1000000000", None, "2^4000000000")]:
        argv = ["study", "wce", "--base", "2", "--m-range", "1:1", "--kernel", f"bandlimited:k={k}"]
        code, out, err = run(capsys, *argv, *(["--max-candidates", cap] if cap else []))
        assert code == 3
        assert err == f"error: guard exceeded: {power} kernel coefficients over cap {cap or 1 << 26}\n"
        assert out == ""
    monkeypatch.undo()
    code, out, _ = run(capsys, "study", "wce", "--base", "2", "--m-range", "1:1", "--kernel", "bandlimited:k=2",
                       "--max-candidates", "256")
    assert code == 0
    assert out.count("\n") == 3


def test_net_gen_and_points_load_the_same_net(tmp_path, capsys):
    # --in takes precedence over --kind/--base/--m in both commands
    path = tmp_path / "net.json"
    code, text, _ = run(capsys, "net", "gen", "--kind", "sym-hammersley", "--base", "3", "--m", "1")
    assert code == 0
    path.write_text(text)
    for sub in ("gen", "points"):
        code, out, _ = run(capsys, "net", sub, "--kind", "hammersley", "--base", "2", "--m", "1", "--in", str(path))
        assert code == 0
        code, want, _ = run(capsys, "net", sub, "--kind", "custom-json", "--in", str(path))
        assert code == 0
        assert out == want
    code, out, _ = run(capsys, "net", "gen", "--kind", "hammersley", "--base", "2", "--m", "1", "--in", str(path))
    assert out == text


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"base": 2, "s": 1, "m": 1, "n": 1, "matrices": [[[1.5]]]}', "'matrices' holds 1.5"),
        ('{"base": 2, "s": 1, "m": 1, "n": 1, "matrices": [[[1]]], "tail_rows": [[true]]}', "'tail_rows' holds true"),
    ],
    ids=["float-entry", "bool-tail-entry"],
)
def test_non_integer_net_json_entries_exit_two(tmp_path, capsys, text, message):
    # an int64 cast would read 1.5 as 1 and true as 1
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "net", "points", "--in", str(path))
    assert code == 2
    assert err == f"error: net JSON matrices and tail_rows must hold integer rows: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "rho2", "--kind", "sym-hammersley-truncated", "--base", "2", "--m", "2", "--n", "5", "--cap", "0"), "cap must lie in 1..2n"),
        (("study", "wce", "--base", "2", "--m-range", "1:1", "--cap", "0"), "cap must lie in 1..n"),
        (("verify", "independence", "--base", "3", "--m", "2", "--n", "0"), "truncation too short: need n >= m + 2"),
    ],
    ids=["verify-rho2-cap", "study-wce-cap", "verify-independence-n"],
)
def test_zero_flags_are_values_not_defaults(capsys, argv, message):
    # 0 is out of range for each flag, so it must not fall back to the default
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_no_point_object_on_any_cli_path(tmp_path, capsys):
    # every command computes on digit arrays: under a guard that refuses
    # each GElement and GVector, each one still runs, and so does QMC on a
    # digitally shifted net
    inner, sym = tmp_path / "inner.json", tmp_path / "sym.json"
    commands = [
        ["net", "gen", "--kind", "hammersley", "--base", "3", "--m", "2", "--out", str(inner), "--points-csv", str(tmp_path / "inner.csv")],
        ["net", "symmetrize", "--in", str(inner), "--out", str(sym), "--points-csv", str(tmp_path / "sym.csv")],
        ["net", "points", "--in", str(sym), "--out", str(tmp_path / "points.csv")],
        ["verify", "dual", "--kind", "sym-hammersley", "--base", "2", "--m", "2", "--n", "4", "--kbound", "2"],
        ["verify", "orthogonality", "--kind", "sym-hammersley", "--base", "3", "--m", "1", "--n", "3", "--samples", "20", "--seed", "1"],
        ["verify", "independence", "--base", "2", "--m", "2", "--n", "5"],
        ["verify", "rho2", "--kind", "sym-hammersley-truncated", "--base", "2", "--m", "2", "--n", "5", "--cap", "5"],
        ["study", "discrepancy", "--base", "2", "--m-range", "1:2", "--p", "1,2,4,inf"],
        ["study", "wce", "--base", "2", "--m-range", "1:2", "--n-extra", "2"],
        ["study", "wce", "--base", "2", "--m-range", "1:2", "--n-extra", "2", "--kernel", "bandlimited:k=1,rank=2", "--seed", "3"],
        ["study", "convergence", "--base", "2", "--m-range", "2:3"],
    ]
    with no_point_objects():
        codes = [main(argv) for argv in commands]
        shifted = random_digital_shift(enumerate_points(symmetrize_matrices(hammersley_matrices(2, 3, 5))), 7)
        results = [qmc_integrate(shifted, integrand) for integrand in ("prod-quadratic", "prod-exp")]
    _, err = capsys.readouterr()
    assert codes == [0] * len(commands), err
    assert [r.n_points for r in results] == [32, 32]


def _fresh_run(argv, env):
    """main(argv) in a new interpreter: exit code, stdout, stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"import sys; sys.path.insert(0, {src!r}); from badicnet.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_many_main_calls(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a run of calls through it,
    # an argparse error and a default --out after an explicit one among
    # them, gives what a new process gives for each call
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both processes
    calls = [
        ["net", "gen", "--kind", "hammersley", "--base", "2", "--m", "2", "--out", "{dir}/net.json"],
        ["net", "gen", "--kind", "hammersley", "--base", "2", "--m", "2"],
        ["study", "convergence", "--base", "3", "--m-range", "1:2"],
        ["net", "gen", "--kind", "not-a-kind"],
        ["verify", "dual", "--kind", "sym-hammersley", "--base", "2", "--m", "2", "--n", "4", "--kbound", "2"],
        ["study", "discrepancy", "--base", "2", "--m-range", "2:2", "--kinds", "bogus"],
        ["net", "points", "--kind", "sym-hammersley-truncated", "--base", "3", "--m", "1", "--out", "{dir}/points.csv"],
        ["net", "points", "--kind", "sym-hammersley-truncated", "--base", "3", "--m", "1"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    got, want = [], []
    for argv in calls:
        try:
            code = main([a.format(dir=here) for a in argv])
        except SystemExit as exc:
            code = exc.code
        got.append((code, *capsys.readouterr()))
        want.append(_fresh_run([a.format(dir=fresh) for a in argv], dict(os.environ)))
    assert [c for c, _, _ in got] == [0, 0, 0, 2, 0, 2, 0, 0]
    assert got == want
    for name in ("net.json", "points.csv"):
        assert (here / name).read_text() == (fresh / name).read_text() != ""
    assert build_parser() is build_parser()


def _commands(parser, path=()):
    """(command words, parser) of every leaf subcommand under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sp in action.choices.items():
            yield from _commands(sp, path + (name,))


def test_shared_flags_are_stated_once():
    # a flag taken from a parent parser is one argparse action, shared by
    # every subcommand that takes it, with its one default
    options = {cmd: {s: a for a in sp._actions for s in a.option_strings} for cmd, sp in _commands(build_parser())}
    assert len(options) == 10
    for flag, default, want in (
        ("--out", "-", set(options)),
        ("--max-ops", 1 << 28, {"study discrepancy", "study wce", "study convergence"}),
        ("--max-candidates", GUARD_DEFAULT, {"verify dual", "verify rho2", "study wce"}),
    ):
        actions = {cmd: opts[flag] for cmd, opts in options.items() if flag in opts}
        assert set(actions) == want, flag
        assert len({id(a) for a in actions.values()}) == 1, flag
        assert next(iter(actions.values())).default == default, flag
    studies = [options[f"study {name}"] for name in ("discrepancy", "wce", "convergence")]
    for flag in ("--base", "--m-range", "--max-ops"):
        assert len({id(opts[flag]) for opts in studies}) == 1, flag
    # the net flags are one set of actions too
    nets = [opts for opts in options.values() if "--kind" in opts]
    assert len(nets) == 5
    for flag in ("--kind", "--base", "--m", "--n", "--in"):
        assert len({id(opts[flag]) for opts in nets}) == 1, flag


def test_an_empty_in_path_is_read(capsys):
    # every net command reads the --in it is given, as net symmetrize
    # always did: an empty path is a missing file, not "no --in"
    for argv in (("net", "gen", "--base", "2", "--m", "2"), ("net", "points", "--base", "2", "--m", "2"), ("net", "symmetrize")):
        code, out, err = run(capsys, *argv, "--in", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("net", "points", "--kind", "hammersley", "--base", "2", "--m", "70"),
        ("net", "gen", "--base", "2", "--m", "64", "--points-csv", os.devnull),
        ("verify", "orthogonality", "--kind", "hammersley", "--base", "2", "--m", "64", "--samples", "3"),
        ("study", "wce", "--base", "2", "--m-range", "70:70", "--max-ops", str(1 << 160)),
    ],
    ids=["net-points", "net-gen-csv", "verify-orthogonality", "study-wce"],
)
def test_nets_past_an_index_exit_two(capsys, argv):
    # len(NetPoints) was b^m, an OverflowError traceback with exit 1, the
    # code of a failed verification
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: net has 2^") and "more than an index holds" in err


def test_net_gen_of_a_net_past_an_index(capsys):
    # without --points-csv no point is enumerated
    code, out, _ = run(capsys, "net", "gen", "--base", "2", "--m", "64")
    assert code == 0 and json.loads(out)["m"] == 64
