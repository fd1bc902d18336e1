"""Tests of the benchmark itself: the oracle, the output checks, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each output check must reject an output that is wrong by one, so that no
check passes by construction.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import oracle
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = [(1, 22), (2, 5), (2, 7), (3, 5)]  # (n, b2) of the four specs


def _phl(args, traced, tmp_path):
    """Run one phl command from the repository root, under tracing.py if traced."""
    if traced:
        cmd = [sys.executable, "perfbench/tracing.py", "--summary", str(tmp_path / "s.json"), "--"]
    else:
        cmd = [sys.executable, "-m", "phl.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd + args, cwd=ROOT, env=env, capture_output=True, timeout=300)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,b2", SHIPPED)
def test_oracle_total_is_traceless_sym_n(n, b2):
    m = b2 + 2
    want = comb(m + n - 1, n) - (comb(m + n - 3, n - 2) if n >= 2 else 0)
    assert sum(oracle.llv_cube(n, b2).values()) == want


@pytest.mark.parametrize("n,b2", SHIPPED)
def test_oracle_has_the_48_octahedral_symmetries(n, b2):
    c = oracle.llv_cube(n, b2)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            moved = {}
            for (i, k, d), h in c.items():
                v = (i, k, d - n)
                w = tuple(signs[r] * v[perm[r]] for r in range(3))
                moved[(w[0], w[1], w[2] + n)] = h
            assert moved == c


@pytest.mark.parametrize("spec", ["k3_b22", "verbitsky_n2_b5", "verbitsky_n2_b7", "verbitsky_n3_b5"])
def test_oracle_is_phl_cube_on_every_shipped_spec(spec, tmp_path):
    op = run.load_op("cube", spec)
    out = tmp_path / "cube.json"
    proc = _phl(["cube", "--spec", f"specs/{spec}.json", "--out", str(out)], False, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert run.check_cube(out.read_text(), op.n, op.b2) == []


def test_oracle_k3_diamond():
    # h^{1,1} = 20 of K3 splits as 18 in the middle and two perverse ends.
    c = oracle.llv_cube(1, 22)
    assert c[(0, 0, 1)] == 18
    assert set(oracle.vertices(1, 22).values()) == {1}
    assert oracle.so_dim(24) == 276


# ---------------------------------------------------------------------------
# output checks reject an output that is off by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,b2", SHIPPED)
def test_check_cube_accepts_oracle_and_rejects_each_entry_off_by_one(n, b2):
    want = oracle.llv_cube(n, b2)
    assert run.check_cube(oracle.cube_json(n, want), n, b2) == []
    for key in want:
        for delta in (1, -1):
            bad = dict(want)
            bad[key] += delta
            if not bad[key]:
                del bad[key]
            assert run.check_cube(oracle.cube_json(n, bad), n, b2), (key, delta)
    extra = {**want, (n + 1, 0, n): 1}
    assert run.check_cube(oracle.cube_json(n, extra), n, b2)


def _report(n, b2, so6=15, vertices=None, status="pass"):
    checks = [
        {"name": "algebra_unit", "status": status, "witnesses": [], "data": {}},
        {"name": "conjecture_vertices", "status": "pass", "witnesses": [],
         "data": {"vertices": vertices or oracle.vertices(n, b2)}},
        {"name": "so6_dimension", "status": "pass", "witnesses": [], "data": {"dim": so6}},
    ]
    return json.dumps({"checks": checks}, indent=2)


def test_check_report_accepts_a_passing_report():
    assert run.check_report(_report(2, 5), 2, 5) == []


def test_check_report_rejects_so6_dimension_off_by_one():
    assert run.check_report(_report(2, 5, so6=16), 2, 5)
    assert run.check_report(_report(2, 5, so6=14), 2, 5)


def test_check_report_rejects_each_vertex_off_by_one():
    for label in oracle.vertices(2, 5):
        v = oracle.vertices(2, 5)
        v[label] += 1
        assert run.check_report(_report(2, 5, vertices=v), 2, 5), label


def test_check_report_rejects_a_failed_check():
    assert run.check_report(_report(2, 5, status="fail"), 2, 5)


def test_check_closure_rejects_dimension_off_by_one_and_missing_l_beta():
    def doc(dim, has_beta=True):
        return json.dumps({"b2": 22, "closure_dim": dim, "contains_l_beta": has_beta})

    assert run.check_closure(doc(276), 22) == []
    assert run.check_closure(doc(275), 22)
    assert run.check_closure(doc(277), 22)
    assert run.check_closure(doc(276, False), 22)


def test_tally_rejects_bytes_that_change_between_passes():
    op = run.Op("check", "verbitsky_n2_b5", 2, 5)
    tally = run.Tally()
    assert tally.record(op, 0, _report(2, 5))
    assert tally.record(op, 0, _report(2, 5) + " ")
    assert tally.problems and tally.attempted == 2 and tally.failed == 0
    assert not tally.record(op, 1, "")
    assert tally.failed == 1


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [
        ["models.build_model", 0.0, 10.0, None],
        ["models.validate", 1.0, 7.0, 0],
        ["linalg.kernel", 2.0, 5.0, 1],
        ["models.validate", 3.0, 4.0, 2],
    ]
    s = tr.summary()
    assert s["models.build_model_s"] == 10.0
    assert s["models.validate_s"] == 6.0  # inclusive, outermost calls only
    assert s["models.self_s"] == (10 - 6) + (6 - 3) + 1
    assert s["linalg.self_s"] == 3 - 1
    assert s["linalg.calls"] == 1


def test_tracing_leaves_cube_and_report_bytes_unchanged(tmp_path):
    for verb in ("cube", "check"):
        outs = []
        for traced in (False, True):
            out = tmp_path / f"{verb}-{traced}.json"
            proc = _phl([verb, "--spec", "specs/k3_b22.json", "--out", str(out)], traced, tmp_path)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        if verb == "cube":
            assert outs[0].decode() == oracle.cube_json(1, oracle.llv_cube(1, 22))
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["checks.run_check_suite_s"] > 0
    assert summary["lie.sl2_complete_calls"] == 5
    assert summary["lie.closure_dim"] == 15
    assert summary["linalg.calls"] > 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure_k3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
