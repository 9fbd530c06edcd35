"""Tests for the output comparison tool and the layer harness in ``tools/``."""

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

import bench_layers
import compare_outputs
import diffreg
from diffreg import make_cosine_basis
from diffreg.basis import DataSet
from diffreg.ingest import save_dataset

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def write_tree(out, U):
    """An output tree with one command folder holding a dataset and its sidecars."""
    folder = out / "simulate_cell"
    folder.mkdir(parents=True)
    data = DataSet(U=U, F=-U, basis=make_cosine_basis(p=U.shape[1], n_quad=11))
    save_dataset(data, str(folder / "U.csv"), str(folder / "F.csv"))
    return folder


def test_compare_outputs_reads_sidecars_array_by_array(tmp_path, capsys):
    U = np.arange(1.0, 13.0).reshape(4, 3)
    write_tree(tmp_path / "a", U)
    folder = write_tree(tmp_path / "b", U)
    # tree b's U sidecar differs from tree a's in one entry, under the same digest
    sidecar = folder / "U.csv.npz"
    with np.load(sidecar, allow_pickle=False) as archive:
        values, digest = archive["values"], archive["sha256"]
    values[1, 2] += 1.2e-3
    np.savez(sidecar, values=values, sha256=digest)

    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if line.endswith("6.0 -> 6.0012")]
    assert len(moved) == 1
    assert moved[0].split() == [
        "0.0001", "0.0001", "values", "simulate_cell/U.csv.npz", "values[1,", "2]:", "6.0", "->",
        "6.0012",
    ]
    assert "simulate/U.csv.npz  1/1  0.0001  0.0001" in lines


def test_compare_outputs_reads_a_rewritten_sidecar_by_its_values(tmp_path, capsys):
    U = np.arange(1.0, 13.0).reshape(4, 3)
    write_tree(tmp_path / "a", U)
    moved = U.copy()
    moved[1, 2] += 1.2e-3
    write_tree(tmp_path / "b", moved)  # the CSVs, and so the sidecars' digests, differ too

    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("U.csv.npz", "F.csv.npz"):
        assert f"simulate/{name}  1/1  0.0001  0.0001" in lines
        (line,) = [line for line in lines if f"simulate_cell/{name}" in line]
        assert line.split()[:4] == ["0.0001", "0.0001", "values", f"simulate_cell/{name}"]


def test_npz_entries_keep_the_digest_a_string(tmp_path):
    folder = write_tree(tmp_path, np.array([[1e5, 2.0]]))
    found = compare_outputs.entries(str(folder / "U.csv.npz"))
    by_key = {key: value for _, key, value in found if key == "sha256"}
    with open(folder / "U.csv", "rb") as fh:
        assert by_key == {"sha256": hashlib.sha256(fh.read()).hexdigest()}
    assert [(loc, value) for loc, key, value in found if key == "values"] == [
        ("values[0, 0]", 1e5), ("values[0, 1]", 2.0)
    ]


SMALL_CASES = {"streams": {"n": 30, "B": 8}, "ridge": {"p": 4, "n": 30},
               "dataset_io": {"p": 4, "n": 30}, "simulate": {"n": 30, "p": 4, "B": 100, "reps": 2},
               "path": {"n": 30, "p": 4}, "setup": {"p": 4, "n_quad": 41},
               "kernels": {"p": 4, "n_quad": 41, "h": 0.01}}


def check_layer(layer, case, work):
    """Run each route of this tree once on ``case``, then the layer's check."""
    routes_of, check, _ = bench_layers.LAYERS[layer]
    os.makedirs(work, exist_ok=True)
    routes = routes_of(diffreg, case, str(work))
    for route in routes.values():
        route()
    return check(case, str(work), routes)


def bools(result):
    return {key: value for key, value in result.items() if isinstance(value, bool)}


@pytest.mark.parametrize("layer", sorted(SMALL_CASES))
def test_each_layer_check_passes_on_this_tree(layer, tmp_path):
    result = check_layer(layer, SMALL_CASES[layer], tmp_path)
    assert bools(result) and all(bools(result).values())


def test_the_ingest_checks_pass_on_this_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_layers, "SUBJECTS", 60)
    for layout in ("presorted", "shuffled"):
        result = check_layer("ingest", {"layout": layout}, tmp_path / layout)
    assert result == {"identical": True, "layouts_agree": True}


def test_scaled_norms_fail_the_oracle(tmp_path, monkeypatch):
    norms = diffreg.RidgeSystem.smoothed_sq_norms
    monkeypatch.setattr(diffreg.RidgeSystem, "smoothed_sq_norms",
                        lambda self, *args: norms(self, *args) * (1 + 1e-6))
    assert check_layer("ridge", SMALL_CASES["ridge"], tmp_path)["agrees"] is False


def test_a_factor_one_ulp_off_fails_the_kernels_check(tmp_path, monkeypatch):
    factors = diffreg.kernels._factor_matrices

    def nudged(*args):
        C, (M, M_L) = factors(*args)
        M_L = M_L.copy()
        M_L[0, 0] = np.nextafter(M_L[0, 0], np.inf)
        return C, (M, M_L)

    monkeypatch.setattr(diffreg.kernels, "_factor_matrices", nudged)
    assert check_layer("kernels", SMALL_CASES["kernels"], tmp_path) == {"factors_identical": False}


def test_swapped_multiplier_rows_fail_the_stream_check(tmp_path, monkeypatch):
    derive = diffreg.gof.bootstrap_multipliers
    monkeypatch.setattr(diffreg.gof, "bootstrap_multipliers",
                        lambda n, B, seed: derive(n, B, seed)[[1, 0, *range(2, B)]])
    assert check_layer("streams", SMALL_CASES["streams"], tmp_path)["blocks_equal"] is False


def test_a_perturbed_load_fails_the_dataset_check(tmp_path, monkeypatch):
    load = diffreg.ingest.load_dataset

    def perturbed(*args):
        data = load(*args)
        U = data.U.copy()
        U[0, 0] = np.nextafter(U[0, 0], np.inf)
        return dataclasses.replace(data, U=U)

    monkeypatch.setattr(diffreg.ingest, "load_dataset", perturbed)
    assert check_layer("dataset_io", SMALL_CASES["dataset_io"], tmp_path)["identical"] is False


def test_a_tree_writing_other_bytes_fails_the_simulate_check(tmp_path):
    result = check_layer("simulate", SMALL_CASES["simulate"], tmp_path)
    assert result == {"moved": {}, "moves_small": True, "decisions_identical": True}
    ours, other = tmp_path / diffreg.__name__ / "command", tmp_path / "other" / "command"
    shutil.copytree(ours, other)
    records = other / "records_omega0.csv"
    header, row, *rest = records.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    _, check, _ = bench_layers.LAYERS["simulate"]
    # a last-digit move of an ESS is reported and passes; a moved p-value fails both checks
    for column, value, small in (("ess_lam_1", float(cells["ess_lam_1"]) * (1 + 1e-14), True),
                                 ("p_value", float(cells["p_value"]) + 0.5, False)):
        edited = {**cells, column: repr(value)}
        records.write_text("\n".join([header, ",".join(edited.values()), *rest]) + "\n")
        result = check(SMALL_CASES["simulate"], str(tmp_path), {})
        assert result["moved"].keys() == {"records_omega0.csv"}
        assert result["moves_small"] is result["decisions_identical"] is small


def test_a_perturbed_rss_fails_the_path_check(tmp_path, monkeypatch):
    norms = diffreg.RidgeSystem.residual_sq_norms
    monkeypatch.setattr(diffreg.RidgeSystem, "residual_sq_norms",
                        lambda self, operators: norms(self, operators) * (1 + 1e-9))
    result = check_layer("path", SMALL_CASES["path"], tmp_path)
    assert result["agrees"] is False and result["rss_gap"] > 1e-10


def test_a_tree_loading_jsonschema_fails_the_setup_check(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_layers, "SETUP_PROBE", "import jsonschema\n" + bench_layers.SETUP_PROBE)
    assert check_layer("setup", SMALL_CASES["setup"], tmp_path) == {"no_jsonschema": False}


def test_bench_layers_times_a_layer_against_a_baseline(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    argv = ["--layer", "streams", "--repeats", "1", "--baseline", REPO, "--out", str(out)]
    assert bench_layers.main(argv) == 0
    doc = json.loads(out.read_text())
    assert [case["layer"] for case in doc["cases"]] == ["streams", "streams"]
    for case in doc["cases"]:
        assert case["blocks_equal"] is True
        for route in ("spawn_loop", "derived"):
            assert case[f"baseline_{route}_ms"] > 0
            assert case[f"{route}_speedup"] > 0
            # one repeat: the median is the minimum
            assert case[f"{route}_spread"] == case[f"baseline_{route}_spread"] == 0
