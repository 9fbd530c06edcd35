"""Tests for the output comparison tool in ``tools/``."""

import hashlib
import os
import sys

import numpy as np

from diffreg import make_cosine_basis
from diffreg.basis import DataSet
from diffreg.ingest import save_dataset

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
import compare_outputs  # noqa: E402


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


def test_npz_entries_keep_the_digest_a_string(tmp_path):
    folder = write_tree(tmp_path, np.array([[1e5, 2.0]]))
    found = compare_outputs.entries(str(folder / "U.csv.npz"))
    by_key = {key: value for _, key, value in found if key == "sha256"}
    with open(folder / "U.csv", "rb") as fh:
        assert by_key == {"sha256": hashlib.sha256(fh.read()).hexdigest()}
    assert [(loc, value) for loc, key, value in found if key == "values"] == [
        ("values[0, 0]", 1e5), ("values[0, 1]", 2.0)
    ]
