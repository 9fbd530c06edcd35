"""Tests of the benchmark itself: metric names, tracer hygiene, check sensitivity.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import diffreg.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from diffreg import gof, ingest, kernels, sim  # noqa: E402
from diffreg.regress import RidgeSystem  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a whole cycle runs in well under a second."""
    monkeypatch.setattr(workloads, "MAX_CYCLES", 2)
    monkeypatch.setattr(workloads, "MC_SETTINGS", {
        **workloads.MC_SETTINGS, "n": 30, "p": 3, "B": 100, "reps": 2, "omegas": [0.0, 1.0],
    })
    monkeypatch.setattr(workloads, "ANALYSIS", {
        **workloads.ANALYSIS, "n": 25, "p": 3, "n_quad": 101, "B": 100, "top_m": 4,
    })
    monkeypatch.setattr(workloads, "INGEST_SUBJECTS", 20)


def _run_cycle(plan, cycle=0, suffix=""):
    records = []
    for command in plan.cycles[cycle]["commands"]:
        out = command["out"] + suffix
        assert cli.main([*command["argv"], "--out", out]) == 0
        records.append({**command, "out": out, "cycle": cycle, "rc": 0})
    return records


def _plan(name, tmp_path, seed=3):
    work = tmp_path / name
    work.mkdir()
    return workloads.WORKLOADS[name].build(seed, str(work))


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    fake = [{"units": 2, "seconds": 1.0}, {"units": 2, "seconds": 3.0}]
    reported = run.end_to_end(fake, elapsed=4.0, failed=0, peak_rss_mb=10.0, setup=[0.5])
    assert set(reported) == {m["name"] for m in bench["end_to_end"]}
    assert reported["throughput_per_s"]["value"] == 1.0


def _patchable():
    """Copies of every namespace the tracer patches."""
    return {
        "cli": dict(cli.__dict__),
        "sim": dict(sim.__dict__),
        "ingest": dict(ingest.__dict__),
        "RidgeSystem": dict(RidgeSystem.__dict__),
        "COMMANDS": dict(cli.COMMANDS),
    }


def test_traced_outputs_match_and_tracer_restores_everything(tiny, tmp_path):
    before = _patchable()
    for name in workloads.WORKLOADS:
        plan = _plan(name, tmp_path)
        plain = _run_cycle(plan, suffix="_plain")
        for path in plan.cycles[0]["clear"]:
            os.remove(path)
        tracer = Tracer()
        with tracer:
            assert cli.COMMANDS[plain[0]["name"]] is not before["COMMANDS"][plain[0]["name"]]
            assert RidgeSystem.__init__ is not before["RidgeSystem"]["__init__"]
            for command, rec in zip(plan.cycles[0]["commands"], plain):
                traced = command["out"] + "_traced"
                assert tracer.span("cli.main", cli.main, [*command["argv"], "--out", traced]) == 0
                assert run.same_files(rec["out"], traced)
        assert tracer.spans
        for span_name, totals in tracer.totals().items():
            assert totals["self"] <= totals["incl"] + 1e-12, span_name
    after = _patchable()
    for owner, old in before.items():
        assert old.keys() == after[owner].keys()
        assert all(after[owner][key] is value for key, value in old.items()), owner


def test_layer_counts_repeat_exactly(tiny, tmp_path):
    plan = _plan("analysis_large", tmp_path)
    counts = []
    for attempt in range(2):
        tracer = Tracer()
        for path in plan.cycles[0]["clear"]:
            if os.path.exists(path):
                os.remove(path)
        with tracer:
            for command in plan.cycles[0]["commands"]:
                tracer.span("cli.main", cli.main,
                            [*command["argv"], "--out", f"{command['out']}_{attempt}"])
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".ms")})
    assert counts[0] == counts[1]
    assert counts[0]["regress.factor.calls"] == 4
    assert counts[0]["kernels.assemble.calls"] == 1
    assert counts[0]["gof.replicates"] == 100
    assert counts[0]["kernels.cache_bytes"] > 0
    assert counts[0]["ingest.rows"] == 20 * workloads.INGEST_LEVELS


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale_cell(rows, row, col, factor):
    rows[row][col] = repr(float(rows[row][col]) * factor)
    return rows


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_analysis_checks_catch_corrupted_outputs(tiny, tmp_path):
    plan = _plan("analysis_large", tmp_path)
    records = {rec["name"]: rec for rec in _run_cycle(plan)}
    check = workloads.check_analysis_large
    for rec in records.values():
        assert check(plan, rec) == (0, [])

    out = records["sweep"]["out"]
    _rewrite_csv(os.path.join(out, "sweep.csv"), lambda rows: _scale_cell(rows, 2, 1, 1 + 1e-4))
    assert check(plan, records["sweep"])[0] == 1
    _edit_json(os.path.join(records["fit"]["out"], "fit.json"),
               lambda doc: doc["fit"]["c_hat"].__setitem__(0, doc["fit"]["c_hat"][0] * 1.01 + 1e-3))
    assert check(plan, records["fit"])[0] == 1
    _edit_json(os.path.join(records["test"]["out"], "gof.json"),
               lambda doc: doc["gof"].__setitem__("q_n", doc["gof"]["q_n"] * (1 + 1e-4)))
    assert check(plan, records["test"])[0] == 1
    _rewrite_csv(os.path.join(records["spectrum"]["out"], "spectrum.csv"),
                 lambda rows: _scale_cell(rows, 1, 1, 1 + 1e-4))
    assert check(plan, records["spectrum"])[0] == 1
    _rewrite_csv(os.path.join(records["test"]["out"], "bootstrap_values.csv"),
                 lambda rows: _scale_cell(rows, 50, 0, 1 + 1e-4))
    gof_json = os.path.join(records["test"]["out"], "gof.json")
    _edit_json(gof_json, lambda doc: doc["gof"].__setitem__("q_n", doc["gof"]["q_n"] / (1 + 1e-4)))
    assert check(plan, records["test"])[1] == ["1 bootstrap values differ from the oracle"]


def test_oracle_kernels_match_the_package():
    basis = workloads.make_cosine_basis(4, 61)
    km = kernels.assemble(basis, kernels.neg_laplacian(), kernels.identity_op(),
                          kernels.neg_laplacian(), kernels.KernelSpec(h=workloads.KERNEL_H))
    K, K_L = workloads.oracle_kernels(4, 61)
    np.testing.assert_allclose(K, km.K, rtol=1e-12, atol=1e-12 * np.abs(km.K).max())
    np.testing.assert_allclose(K_L, km.K_L, rtol=1e-12, atol=1e-12 * np.abs(km.K_L).max())


def _sabotage(monkeypatch, what):
    """Make the package wrong in one layer, as a fast but faulty change might."""
    if what == "kernels":
        factor = kernels._factor_matrices
        monkeypatch.setattr(kernels, "_factor_matrices",
                            lambda *a, **k: (lambda C, M: (C * (1 + 1e-3), M))(*factor(*a, **k)))
    else:  # Rademacher instead of golden-ratio multipliers
        monkeypatch.setattr(gof, "wild_multipliers",
                            lambda n, rng: np.where(rng.random(n) < 0.5, 1.0, -1.0))


@pytest.mark.parametrize("what", ["kernels", "bootstrap"])
def test_checks_catch_a_wrong_layer(tiny, tmp_path, monkeypatch, what):
    analysis, mc = _plan("analysis_large", tmp_path), _plan("mc_power", tmp_path)
    _sabotage(monkeypatch, what)
    records = {rec["name"]: rec for rec in _run_cycle(analysis)}
    assert workloads.check_analysis_large(analysis, records["test"])[0] == 1
    if what == "kernels":
        assert workloads.check_analysis_large(analysis, records["sweep"])[0] == 1
    (rec,) = _run_cycle(mc)
    assert workloads.check_mc_power(mc, rec)[0] >= 1


def test_sweep_check_catches_a_wrong_lambda_choice():
    want = {1.0: {"rss": 1.0, "trace": 2.0, "gcv": 3.0},
            10.0: {"rss": 1.0, "trace": 2.0, "gcv": 1.0}}
    rows = [{"lambda": lam, **row} for lam, row in want.items()]
    assert workloads.check_sweep(want, rows, 10.0) == []
    assert workloads.check_sweep(want, rows, 1.0)


def test_mc_power_checks_catch_corrupted_outputs(tiny, tmp_path):
    plan = _plan("mc_power", tmp_path)
    (rec,) = _run_cycle(plan)
    assert workloads.check_mc_power(plan, rec) == (0, [])
    path = os.path.join(rec["out"], "records_omega0.csv")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    # rss_lam_1 of replication 0 is the 8th column after rep and 6 ess columns
    _rewrite_csv(path, lambda rows: _scale_cell(rows, 1, 7, 1 + 1e-4))
    assert workloads.check_mc_power(plan, rec)[0] == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original)
    _rewrite_csv(path, lambda rows: rows[:-1])  # a replication goes missing
    assert workloads.check_mc_power(plan, rec)[0] >= 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original)
    q_n = original.splitlines()[0].split(",").index("q_n")
    _rewrite_csv(path, lambda rows: _scale_cell(rows, 1, q_n, 1 + 1e-4))
    assert workloads.check_mc_power(plan, rec)[0] == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original)
    _rewrite_csv(os.path.join(rec["out"], "bootstrap_omega0_rep0.csv"),
                 lambda rows: _scale_cell(rows, 7, 0, 1 + 1e-4))
    assert workloads.check_mc_power(plan, rec)[0] == 1


def test_ingest_checks_catch_corrupted_outputs(tiny, tmp_path):
    plan = _plan("analysis_large", tmp_path)
    command = plan.cycles[0]["commands"][0]
    assert command["name"] == "ingest"
    assert cli.main([*command["argv"], "--out", command["out"]]) == 0
    expect, out = plan.expect["ingest"], command["out"]
    assert len(expect["skipped"]) == 2
    assert workloads.check_ingest(expect, out) == (0, [])

    u_csv = os.path.join(out, "U.csv")
    with open(u_csv, encoding="utf-8") as fh:
        original = fh.read()
    _rewrite_csv(u_csv, lambda rows: _scale_cell(rows, 3, 0, 1.01))
    assert workloads.check_ingest(expect, out)[0] == 1
    assert workloads.check_analysis_large(plan, command)[0] == 1  # one failed command
    with open(u_csv, "w", encoding="utf-8") as fh:
        fh.write(original)
    _rewrite_csv(u_csv, lambda rows: rows[:-1])  # a subject is dropped
    assert workloads.check_ingest(expect, out)[0] >= 1
    with open(u_csv, "w", encoding="utf-8") as fh:
        fh.write(original)
    _edit_json(os.path.join(out, "ingest.json"),
               lambda doc: doc["report"]["subjects_skipped"].pop())
    assert workloads.check_ingest(expect, out)[0] >= 1


def test_generated_inputs_follow_the_seed(tmp_path):
    a = workloads.thermo_csv(5, str(tmp_path / "a.csv"), 12, 20)
    b = workloads.thermo_csv(5, str(tmp_path / "b.csv"), 12, 20)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a["skipped"] == b["skipped"]
    assert all(np.array_equal(a["kept"][s], b["kept"][s]) for s in a["kept"])


def test_refuses_to_run_without_the_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "tracer.py", "workloads.py"):
        (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_power", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
