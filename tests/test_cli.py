"""End-to-end CLI tests: exit codes, determinism, file contracts."""

import csv
import json

import numpy as np
import pytest

from diffreg.cli import main
from diffreg.presets import PRESETS, get_preset

from test_ingest import synthetic_rows, write_rows


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sim_config(**overrides):
    doc = {
        "n": 40,
        "p": 10,
        "snr": 3.0,
        "omegas": [0.0],
        "lambda_grid": [1e2, 1e3, 1e4],
        "B": 100,
        "reps": 2,
        "seed": 11,
        "eigen_sign": "plus",
        "run_test": True,
        "test_lambda": 1e3,
        "refine_rounds": 0,
    }
    doc.update(overrides)
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_writes_records_and_summary(tmp_path):
    cfg = write_config(tmp_path, "sim.json", sim_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "records_omega0.csv")
    assert len(rows) == 3  # header + 2 reps
    assert rows[0][0] == "rep"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == 40
    assert "omega=0" in summary["cells"]
    assert summary["cells"]["omega=0"]["reps"] == 2


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, "sim.json", sim_config(reps=3))
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert main(["simulate", "--config", cfg, "--threads", "2", "--out", str(out3)]) == 0
    for name in ("records_omega0.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes()


def test_simulate_invalid_snr_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", sim_config(snr=0))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "snr" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", sim_config(mystery=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_missing_config_and_preset(capsys):
    assert main(["simulate", "--out", "."]) == 2
    assert "config" in capsys.readouterr().err.lower()


def test_unknown_preset(capsys):
    assert main(["simulate", "--preset", "table9"]) == 2


def test_preset_command_mismatch(capsys):
    assert main(["fit", "--preset", "table1"]) == 2
    assert "simulate" in capsys.readouterr().err


def test_presets_validate_against_schemas(tmp_path):
    # every preset must pass its own schema once required inputs are set
    import jsonschema

    from diffreg.cli import SCHEMAS

    for name in PRESETS:
        doc = get_preset(name)
        command = doc.pop("command")
        if name == "era5":
            doc["input"] = "tracks.csv"
        jsonschema.validate(doc, SCHEMAS[command])


@pytest.fixture
def dataset_dir(tmp_path):
    cfg = write_config(
        tmp_path,
        "gen.json",
        sim_config(n=200, reps=1, seed=5, run_test=False, dump_dataset=True,
                   lambda_grid=[1e0, 1e1, 1e2, 1e3, 1e4, 1e5]),
    )
    out = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "U.csv").exists() and (out / "F.csv").exists()
    return out


def ds_section(dataset_dir):
    return {
        "dataset": {"u_csv": str(dataset_dir / "U.csv"), "f_csv": str(dataset_dir / "F.csv")},
        "basis": {"p": 10, "n_quad": 201},
    }


def test_fit_command(tmp_path, dataset_dir):
    cfg = write_config(tmp_path, "fit.json", {**ds_section(dataset_dir), "lambda": 1e3})
    out = tmp_path / "fitout"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["fit"]["lambda"] == 1e3
    assert len(doc["fit"]["c_hat"]) == 100
    assert doc["config"]["lambda"] == 1e3


def test_sweep_command_finds_table_optimum(tmp_path, dataset_dir):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {**ds_section(dataset_dir), "lambda_grid": [1e0, 1e1, 1e2, 1e3, 1e4, 1e5]},
    )
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["lambda", "rss", "gcv", "trace"]
    assert len(rows) == 7
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["best_lambda"] == 1000.0


def test_test_command_contract(tmp_path, dataset_dir):
    cfg = write_config(
        tmp_path,
        "test.json",
        {**ds_section(dataset_dir), "lambda": 1e3, "B": 150, "strategy": "mixed", "seed": 4},
    )
    out = tmp_path / "testout"
    assert main(["test", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "gof.json").read_text())
    assert 0.0 <= doc["gof"]["p_value"] <= 1.0
    assert doc["gof"]["n_bootstrap"] == 150
    values = read_csv(out / "bootstrap_values.csv")
    assert len(values) == 151


def test_spectrum_command_sorted_output(tmp_path, dataset_dir):
    cfg = write_config(tmp_path, "spec.json", {**ds_section(dataset_dir), "top_m": 20})
    out = tmp_path / "specout"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    gammas = json.loads((out / "spectrum.json").read_text())["gammas"]
    assert len(gammas) == 20
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))
    assert all(g >= 0 for g in gammas)


def test_kernel_cache_round_trip(tmp_path, dataset_dir):
    cache = str(tmp_path / "kernels.npz")
    base = {**ds_section(dataset_dir), "lambda_grid": [1e2, 1e3], "kernel": {"cache": cache}}
    cfg = write_config(tmp_path, "sweep.json", base)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert (tmp_path / "kernels.npz").exists()
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_stale_kernel_cache_is_a_data_error(tmp_path, dataset_dir, capsys):
    cache = str(tmp_path / "kernels.npz")

    def fit_config(name, L):
        doc = {**ds_section(dataset_dir), "lambda": 1e3}
        return write_config(tmp_path, name, {**doc, "kernel": {"cache": cache, "L": {"kind": L}}})

    built, stale = fit_config("identity.json", "identity"), fit_config("lap.json", "neg_laplacian")
    assert main(["fit", "--config", built, "--out", str(tmp_path / "first")]) == 0
    out = tmp_path / "second"
    assert main(["fit", "--config", stale, "--out", str(out)]) == 3
    assert f"kernel cache {cache} was built with different L" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_non_finite_data_is_a_data_error(tmp_path, dataset_dir, capsys):
    rows = read_csv(dataset_dir / "U.csv")
    rows[3][2] = "nan"
    with open(dataset_dir / "U.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    cfg = write_config(tmp_path, "fit.json", {**ds_section(dataset_dir), "lambda": 1e3})
    out = tmp_path / "fitout"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 3
    assert "U.csv: non-finite entry in data row 3" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_data_error_leaves_no_partial_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "test.json",
        {
            "dataset": {"u_csv": str(tmp_path / "missing.csv"), "f_csv": str(tmp_path / "also.csv")},
            "basis": {"p": 10, "n_quad": 201},
            "lambda": 1e3,
        },
    )
    out = tmp_path / "failed"
    assert main(["test", "--config", cfg, "--out", str(out)]) == 3
    assert not any(out.glob("*.json")) and not any(out.glob("*.csv"))


def test_ingest_command_end_to_end(tmp_path):
    rng = np.random.default_rng(7)
    rows = []
    for i in range(4):
        # ordinates inside the era5 gates: start in (6.29, 6.31), end in (6.89, 6.91)
        rows += synthetic_rows(
            f"s{i}", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), m=121, x_range=(6.295, 6.905)
        )
    tracks = tmp_path / "tracks.csv"
    write_rows(tracks, rows)
    cfg = write_config(tmp_path, "ingest.json", {"input": str(tracks)})
    out = tmp_path / "ingout"
    code = main(["ingest", "--preset", "era5", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "ingest.json").read_text())
    assert report["report"]["subjects_in"] == 4
    u_rows = read_csv(out / "U.csv")
    assert len(u_rows) == 1 + report["report"]["subjects_out"]
    assert u_rows[0][0] == "u_1"


def test_ingest_requires_input(tmp_path):
    out = tmp_path / "noin"
    assert main(["ingest", "--preset", "era5", "--out", str(out)]) == 3
