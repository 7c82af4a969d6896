"""Self-tests of the benchmark (not collected by the repository's test run).

    python3 -m pytest -q bench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = run.ROOT


def _main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_unit(capsys, workload, trace):
    notes, result = _main(capsys, "--workload", workload, "--seed", "3",
                          "--seconds", "0.2", "--trace", trace, "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 20
    spec = _benchmark_json()["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in spec] == list(result["metrics"])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in notes), m["name"]
    assert any(line.startswith("failed_frac 0 ") for line in notes)
    if trace == "1":
        assert any("end-to-end metrics come only from untraced runs" in line for line in notes)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_same_seed_gives_same_inputs():
    ctx = workloads.Context.build(run.load_program())
    for workload in workloads.WORKLOADS:
        a = workloads.make_pass(workload, ctx, 5, 1)
        b = workloads.make_pass(workload, ctx, 5, 1)
        c = workloads.make_pass(workload, ctx, 6, 1)
        assert [j.label for j in a] == [j.label for j in b]
        assert sorted(j.label for j in a) == sorted(j.label for j in c)
        assert [j.label for j in a] != [j.label for j in c]


def test_calibrated_pass_times_the_reference_before_every_job():
    ctx = workloads.Context.build(run.load_program())
    jobs = workloads.make_pass("queries", ctx, 4, 0, tiny=True)
    res = run.run_pass(jobs, calibrate=True)
    assert res.failed == 0
    assert len(res.refs) == len(jobs) and min(res.refs) > 0
    # the pass wall time leaves the reference loops out but keeps every job
    assert sum(res.latencies) <= res.wall
    assert run.host_speed([run.REF_NOMINAL_S] * 3) == pytest.approx(1)
    assert run.host_speed([2 * run.REF_NOMINAL_S, 1, 0]) == pytest.approx(0.5)


def test_wrong_closed_form_shows_in_failed_frac(capsys, monkeypatch):
    real = workloads.expected_cohomology

    def wrong(ctx, name, n):
        return ((7,), 0) if (name, n) == ("Z3", 2) else real(ctx, name, n)

    monkeypatch.setattr(workloads, "expected_cohomology", wrong)
    notes, result = _main(capsys, "--workload", "hn-regular", "--seed", "1",
                          "--seconds", "0", "--tiny")
    assert result["correct"] is False
    assert result["failed"] == 1
    frac = next(line for line in notes if line.startswith("failed_frac"))
    assert frac.split()[1] == f"{1 / result['attempted']:.6g}"


def test_wrong_reference_entry_shows_in_failed_frac(monkeypatch):
    ctx = workloads.Context.build(run.load_program())
    key = workloads.relative_key("Z8", (4,), 0)
    assert ctx.reference[key] == ((4,), 0)
    ctx.reference[key] = ((2,), 0)
    res = run.run_pass(workloads.make_pass("hn-relative", ctx, 1, 0, tiny=True))
    assert res.failed == 1


def test_reference_covers_relative_deck():
    ref = workloads.load_reference()
    for name, gens, n, _copies in workloads.RELATIVE_DECK:
        if gens:
            assert workloads.relative_key(name, gens, n) in ref


def test_tracer_restores_the_program():
    mods = run.load_program()
    before = {short: dict(vars(mod)) for short, mod in mods.items()}
    init = mods["groups"].OrbitStructure.__init__
    tracer = spans.Tracer()
    tracer.install(mods)
    assert mods["cochain"].coset_space is not before["cochain"]["coset_space"]
    assert mods["cochain"].coset_space is mods["groups"].coset_space
    tracer.uninstall()
    assert {short: dict(vars(mod)) for short, mod in mods.items()} == before
    assert mods["groups"].OrbitStructure.__init__ is init


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_account_for_traced_wall(workload):
    ctx = workloads.Context.build(run.load_program())
    jobs = workloads.make_pass(workload, ctx, 2, 0, tiny=True)
    tracer = spans.Tracer()
    tracer.install(ctx.mods)
    try:
        res = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) > -1e-6
    roots = sum(r[spans.END] - r[spans.START] for r in tracer.spans if r[spans.PARENT] < 0)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)
    m = spans.layer_metrics(tracer.spans)
    layers = sum(v for k, v in m.items() if k.endswith("_s"))
    assert layers == pytest.approx(roots, rel=1e-9)
    # what no span covers is the loop between jobs: small against the wall time
    assert 0 <= res.wall - roots < 0.05 * res.wall


def test_bare_directory_exits_nonzero_without_result():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in _benchmark_json()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = _benchmark_json()["command"] + ["--workload", "queries", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
