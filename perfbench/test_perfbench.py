"""Self-tests of the benchmark: gates can fail, wrappers reach every
layer and vanish when untraced, per-op results repeat exactly.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sc = run.import_singscat()


def _workload(name, tmp_path, seed=3):
    wl = workloads.make(name, sc, seed, str(tmp_path), os.path.join(run.ROOT, "configs"))
    wl.setup()
    return wl


# ------------------------------------------------------------------ gates

def _fake_report(case):
    ex = sc.oracle.isp_exact(case["theta"], case["k"], case["mu"])
    return {
        "checks": [{"name": "su11", "status": "pass"}, {"name": "structure", "status": "skipped"}],
        "transfer_matrix": {"a": [ex.a.real, ex.a.imag], "b": [ex.b.real, ex.b.imag],
                            "residuals": {"r_min_used": 1e-5}},
    }


def test_solve_gate_passes_exact_and_fails_controls(tmp_path):
    wl = _workload("conformal_k_sweep", tmp_path)
    case = wl.cases[0]
    good = {"rc": 0, "report": _fake_report(case)}
    assert wl.gate(case, good) == []

    for key in ("a", "b"):
        bad = copy.deepcopy(good)
        bad["report"]["transfer_matrix"][key][0] += 10.0 * case["tol"]
        assert any("isp_exact" in f for f in wl.gate(case, bad))

    bad = copy.deepcopy(good)
    bad["report"]["checks"][0]["status"] = "fail"
    assert wl.gate(case, bad) == ["check su11 fail"]

    assert "exit code 1" in wl.gate(case, dict(good, rc=1))
    assert "no report written" in wl.gate(case, {"rc": 1})


@pytest.fixture(scope="module")
def disk_op(tmp_path_factory):
    wl = _workload("disk_reconstruct", tmp_path_factory.mktemp("disk"))
    case = wl.cases[0]
    return wl, case, wl.outcome(case, wl.op(case))


def test_disk_gate_passes_and_fails_controls(disk_op):
    wl, case, out = disk_op
    assert wl.gate(case, out) == []
    rank_deficient = sc.errors.RankDeficient

    def perturbed(name, recs=None, fit=None):
        bad = {"result": dict(out["result"])}
        old_recs, old_fit = bad["result"][name]
        bad["result"][name] = (old_recs if recs is None else recs,
                               old_fit if fit is None else fit)
        return wl.gate(case, bad)

    for name in wl.MAPS:
        tol = wl.maps[name]["config"].tol
        recs, _ = out["result"][name]
        shifted = [(recs[0][0] + 1000.0 * tol, recs[0][1])] + recs[1:]
        assert any("|rec - direct|" in f for f in perturbed(name, recs=shifted))

    # a global phase error in the extraction keeps |a|^2 - |b|^2 = 1 and
    # passes the direct check; only the exact map catches it
    theta1 = wl.maps["isp_theta1"]
    m = theta1["m"]
    phase = complex(math.cos(1e-6), math.sin(1e-6))
    theta1["m"] = sc.connect.TransferMatrix(a=m.a * phase, b=m.b * phase,
                                            residuals=m.residuals)
    try:
        fails = wl.gate(case, wl.outcome(case, wl.op(case)))
    finally:
        theta1["m"] = m
    assert fails and all("|rec - exact|" in f for f in fails)

    deg = wl.maps["degenerate_barrier"]
    wrong = rank_deficient("x", constant_value=deg["Rp"] + 100.0 * deg["config"].tol)
    assert any("constant - R'" in f for f in perturbed("degenerate_barrier", fit=wrong))
    fit = out["result"]["isp_theta1"][1]
    assert any("did not raise" in f for f in perturbed("degenerate_barrier", fit=fit))
    assert any("unexpected RankDeficient" in f
               for f in perturbed("isp_theta1", fit=rank_deficient("x", 0j)))
    off = sc.disk.MobiusFit(a=fit.a + 1e-6, b=fit.b, residual=0.0)
    assert any("fitted (a, b)" in f for f in perturbed("isp_theta1", fit=off))


# -------------------------------------------------------- wrapper reach

@pytest.mark.parametrize("name", workloads.NAMES)
def test_wrappers_reach_every_layer_and_vanish_untraced(name, tmp_path):
    wl = _workload(name, tmp_path)
    originals = {(w, a): w.__dict__[a] for w, a in _patched_places()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = run.run_pass(wl, seconds=0.0)  # one op, through the wrappers
    finally:
        tracer.uninstall()
    assert len(ops) == 1 and ops[0]["fails"] == []
    reached = {n for n, hits in tracer.hits.items() if hits}
    assert spans.EXPECTED_REACH[name] <= reached

    hits = dict(tracer.hits)
    n_spans = len(tracer.spans)
    run.run_pass(wl, seconds=0.0)
    assert tracer.hits == hits and len(tracer.spans) == n_spans
    assert all(w.__dict__[a] is orig for (w, a), orig in originals.items())


def _patched_places():
    for _, owner, attr, importers in spans.TARGETS:
        for where in (owner, *importers):
            yield spans._owner(where), attr


def test_reimported_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(sc.cli, "validate", lambda config: config)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="singscat.cli.validate"):
        tracer.install()
    tracer.uninstall()


# -------------------------------------------------------------- metrics

def test_self_time_and_coverage():
    legs = {"kind": "inner_leg", "steps": 10, "rejected": 1, "retried": False}
    fake = [
        ["cli.main", -1, 0.0, 1.0, None],
        ["connect.transfer_matrix", 0, 0.1, 0.9, None],
        ["bases.choose_r_min", 1, 0.1, 0.2, {"r_min": 1e-3}],
        ["integrate.propagate", 1, 0.2, 0.8, legs],
        ["oracle.isp_exact", -1, 1.5, 1.6, None],  # a gate, outside the op
    ]
    assert spans.self_times(fake) == pytest.approx([0.2, 0.1, 0.1, 0.6, 0.1])
    m = spans.layer_metrics(fake, [(0.0, 1.0)], j_evals=90, overhead_frac=0.1,
                            fit_peak_alloc=2 ** 21)
    assert m["trace.coverage"] == pytest.approx(1.0)
    assert m["integrate.inner_leg.steps"] == 10
    assert m["integrate.inner_leg.us_per_step"] == pytest.approx(6e4)
    assert m["integrate.accept_ratio"] == pytest.approx(10 / 11)
    assert m["connect.levels.mean"] == 1 and m["connect.noise_restarts"] == 0
    assert m["bases.r_min.p50"] == 1e-3 and m["model.j_evals"] == 90
    assert m["oracle.isp_exact.self_s"] == pytest.approx(0.1)
    assert m["disk.fit_mobius.peak_alloc_mb"] == 2
    assert {n for n, _ in run.metric_units("per_layer")} <= set(m)


def test_j_evals_counts_closure_calls(tmp_path):
    cfg = _workload("conformal_k_sweep", tmp_path).cases[0]["path"]
    config = sc.model.validate(sc.model.ProblemConfig.from_json(cfg))
    radii = (0.5, 1.0, 2.0)
    plain = [sc.integrate.invariant_callable(config)(r) for r in radii]
    tracer = spans.Tracer()
    tracer.install()
    try:
        j = sc.integrate.invariant_callable(config)
        assert [j(r) for r in radii] == plain
    finally:
        tracer.uninstall()
    assert tracer.j_evals == len(radii)


# ------------------------------------------------------ exact repetition

def _run(workload, cwd=run.ROOT):
    """A traced run with --seconds 0: one whole cycle of the workload."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


EXACT = ("integrate.inner_leg.steps", "integrate.inner_leg.rejected",
         "integrate.doubling_leg.steps", "integrate.projection_leg.steps",
         "model.j_evals", "connect.levels.mean", "bases.r_min.p50",
         "connect.s_matrix.calls", "disk.cauchy_reconstruct.calls")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_repeats_exactly(workload, tmp_path):
    cycle = len(_workload(workload, tmp_path, seed=5).cases)
    path = os.path.join(run.OUT, f"{workload}-seed5-trace1.json")
    results = []
    for _ in range(2):
        proc = _run(workload)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert line["correct"] and line["failed"] == 0 and line["attempted"] == cycle
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        assert spans.EXPECTED_REACH[workload] <= set(rec["reached"])
        for op in rec["ops"]:
            del op["wall"]
        results.append(({k: line["metrics"][k]["value"] for k in EXACT}, rec["ops"]))
    assert results[0] == results[1]
    if workload != "disk_reconstruct":
        op = results[0][1][0]
        assert op["j_evals"] > 0 and op["inner_leg.steps"] > 0 and len(op["a"]) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("conformal_k_sweep", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""
