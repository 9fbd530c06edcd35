"""End-to-end CLI tests: exit codes, determinism, file contracts."""

import contextlib
import csv
import functools
import io
import json
import operator
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffreg.basis import DataSet, make_cosine_basis
from diffreg.cli import SCHEMAS, main
from diffreg.fileio import csv_bytes
from diffreg.gof import STRATEGIES
from diffreg.ingest import save_dataset
from diffreg.kernels import OP_KINDS, load_kernel_matrices
from diffreg.presets import PRESETS, get_preset

import dense
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
    lams = ["100", "1000", "10000"]
    assert rows[0] == (
        ["rep"]
        + [f"{stat}_lam_{lam}" for stat in ("ess", "rss", "gcv", "trace") for lam in lams]
        + ["gcv_best_lambda", "ess_min_lambda", "ess_min_value", "theta_hat", "ess_theta"]
        + ["tss", "test_lambda", "q_n", "p_value", "reject"]
    )
    assert all(len(row) == len(rows[0]) for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == 40
    assert "omega=0" in summary["cells"]
    assert summary["cells"]["omega=0"]["reps"] == 2


def _fmt(value) -> str:
    """One field as the CLI formatted it before the one-template writer, kept as its oracle."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 1e16, 2.0**53 + 2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_writer_gives_the_bytes_of_the_per_value_writer(data):
    rows = data.draw(st.integers(1, 5), label="rows")
    floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
    kinds = st.lists(st.sampled_from(["float", "wide", "int", "bool", "absent"]), min_size=1,
                     max_size=6)
    # csv.writer quotes a lone empty field, a row no command writes: one column is always present
    kinds = data.draw(kinds.filter(lambda ks: set(ks) != {"absent"}), label="kinds")
    columns, header = [], []
    for j, kind in enumerate(kinds):
        width = data.draw(st.integers(1, 3), label="width") if kind == "wide" else 1
        header += [f"c{j}_{k}" for k in range(width)]
        if kind == "absent":
            columns.append(None)
            continue
        entry = {"int": st.integers(-(2**63), 2**63 - 1), "bool": st.booleans()}.get(kind, floats)
        values = data.draw(st.lists(entry, min_size=rows * width, max_size=rows * width))
        column = np.array(values, dtype={"int": np.int64, "bool": bool}.get(kind, float))
        columns.append(column.reshape(rows, width) if kind == "wide" else column)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    want = io.StringIO()
    writer = csv.writer(want, lineterminator=newline)
    writer.writerow(header)
    for i in range(rows):
        fields = []
        for col in columns:
            fields += [None] if col is None else np.reshape(col[i], -1).tolist()
        writer.writerow([_fmt(v) for v in fields])
    assert csv_bytes(header, columns, "%.12g", newline) == want.getvalue().encode("utf-8")


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


def test_simulate_grid_points_sharing_a_label_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", sim_config(lambda_grid=[1e2, 1.0000001e2, 1e3]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: lambda_grid values must have distinct" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_simulate_omegas_sharing_a_label_is_a_config_error(tmp_path, capsys):
    # two cells would write one records_omega0.84.csv and one summary.json key
    cfg = write_config(tmp_path, "sim.json", sim_config(omegas=[0.0, 0.84, 0.8400001]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: omegas values must have distinct %g labels" in err
    assert "['0', '0.84', '0.84']" in err
    assert not any(out.iterdir())


def test_simulate_with_every_replication_skipped_is_a_runtime_error(tmp_path, capsys):
    doc = {"n": 2, "p": 10, "snr": 3.0, "omegas": [0.0], "reps": 2, "run_test": False,
           "lambda_grid": [1e-300], "skip_failures": True}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, "sim.json", doc),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: all 2 replications were skipped; replication 0 failed: GCV denominator" in err
    assert os.listdir(out) == []


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


@pytest.mark.parametrize("command", ["simulate", "fit", "test", "sweep", "spectrum", "ingest"])
def test_each_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out and "--out" in out
    assert "evaluate the GCV criterion over a lambda grid" in out  # the blurbs of every command


def test_an_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["regress", "--preset", "table1"])
    assert exc.value.code == 2
    assert "invalid choice: 'regress'" in capsys.readouterr().err


def test_an_option_before_the_command_is_accepted(tmp_path):
    out, config = tmp_path / "out", write_config(tmp_path, "sim.json", sim_config(reps=1))
    assert main(["--out", str(out), "--seed", "4", "simulate", "--config", config]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == 4


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


def test_threads_flag_changes_no_output(tmp_path, dataset_dir):
    cfg = write_config(tmp_path, "spectrum.json", {**ds_section(dataset_dir), "top_m": 5})
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(["spectrum", "--config", cfg, "--out", str(plain)]) == 0
    assert main(["spectrum", "--config", cfg, "--threads", "4", "--out", str(flagged)]) == 0
    for name in ("spectrum.csv", "spectrum.json"):
        assert (plain / name).read_bytes() == (flagged / name).read_bytes()


def test_dataset_sidecars_change_no_output(tmp_path, dataset_dir):
    assert sorted(p.name for p in dataset_dir.glob("*.csv.npz")) == ["F.csv.npz", "U.csv.npz"]
    cfg = write_config(tmp_path, "fit.json", {**ds_section(dataset_dir), "lambda": 1e3})
    fast, parsed = tmp_path / "fast", tmp_path / "parsed"
    assert main(["fit", "--config", cfg, "--out", str(fast)]) == 0
    for sidecar in dataset_dir.glob("*.csv.npz"):
        sidecar.unlink()
    assert main(["fit", "--config", cfg, "--out", str(parsed)]) == 0
    assert (fast / "fit.json").read_bytes() == (parsed / "fit.json").read_bytes()


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


def test_kernel_cache_of_the_old_jitter_policy_is_stale(tmp_path, dataset_dir, capsys):
    cache = str(tmp_path / "kernels.npz")
    doc = {**ds_section(dataset_dir), "lambda": 1e3, "kernel": {"cache": cache}}
    cfg = write_config(tmp_path, "fit.json", doc)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "first")]) == 0
    # a cache written while the jitter sat on K itself
    km = load_kernel_matrices(cache)
    old = {**km.provenance, "jitter_policy": "1e-10 * trace(K) / p^2 added before factorization"}
    np.savez_compressed(cache, C=km.C, M=km.M, M_L=km.M_L, provenance=json.dumps(old))
    out = tmp_path / "second"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 3
    assert f"kernel cache {cache} was built with different jitter_policy" in capsys.readouterr().err
    assert not any(out.iterdir())


def _old_layout(path, good, data):
    km = load_kernel_matrices(good)
    np.savez_compressed(path, K=dense.K(km), K_L=dense.K_L(km),
                        provenance=json.dumps(km.provenance))


def _truncated(path, good, data):
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])


def _not_npz(path, good, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("this is not a kernel cache\n")


def _wrong_shape(path, good, data):
    km = load_kernel_matrices(good)
    small = km.C[:3, :3]
    np.savez_compressed(path, C=small, M=small, M_L=small, provenance=json.dumps(km.provenance))


def _non_finite(path, good, data):
    km = load_kernel_matrices(good)
    M_L = km.M_L.copy()
    M_L[2, 3] = np.inf
    np.savez_compressed(path, C=km.C, M=km.M, M_L=M_L, provenance=json.dumps(km.provenance))


def _huge_header(path, good, data):
    """The good cache with C's array header claiming 2^36 rows."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (2**36, 10)}
    )
    with zipfile.ZipFile(good) as source, zipfile.ZipFile(path, "w") as archive:
        for member in source.infolist():
            payload = source.read(member)
            if member.filename == "C.npy":
                payload = header.getvalue() + b"\0" * 64
            archive.writestr(member, payload)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_old_layout, "holds dense K/K_L matrices"),
        (_truncated, "is not a readable .npz archive"),
        (_not_npz, "is not a readable .npz archive"),
        (_wrong_shape, "expected p x p for the recorded p = 10"),
        (_non_finite, "kernel factor M_L has a non-finite entry"),
        (_huge_header, "is corrupt"),
    ],
    ids=["old_layout", "truncated", "not_npz", "wrong_shape", "non_finite", "huge_header"],
)
# an unreadable cache must not leave its file open on any path
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.filterwarnings("error::ResourceWarning")
def test_unreadable_kernel_cache_is_a_data_error(tmp_path, dataset_dir, capsys, corrupt, message):
    good, cache = str(tmp_path / "good.npz"), str(tmp_path / "kernels.npz")
    doc = {**ds_section(dataset_dir), "lambda": 1e3}
    build = write_config(tmp_path, "build.json", {**doc, "kernel": {"cache": good}})
    assert main(["fit", "--config", build, "--out", str(tmp_path / "first")]) == 0
    with open(good, "rb") as fh:
        corrupt(cache, good, fh.read())
    cfg = write_config(tmp_path, "fit.json", {**doc, "kernel": {"cache": cache}})
    out = tmp_path / "second"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"kernel cache {cache} " in err
    assert message in err
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


def test_ingest_reads_a_csv_that_starts_with_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one; the header then still
    # names the subject column
    rng = np.random.default_rng(7)
    rows = []
    for i in range(3):
        rows += synthetic_rows(
            f"s{i}", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), m=61, x_range=(6.295, 6.905)
        )
    write_rows(tmp_path / "plain.csv", rows)
    (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    outputs = {}
    for name in ("plain", "marked"):
        cfg = write_config(tmp_path, f"{name}.json", {"input": str(tmp_path / f"{name}.csv")})
        out = tmp_path / f"out_{name}"
        assert main(["ingest", "--preset", "era5", "--config", cfg, "--out", str(out)]) == 0
        outputs[name] = {f: (out / f).read_bytes() for f in ("U.csv", "F.csv", "U.csv.npz")}
        report = json.loads((out / "ingest.json").read_text())["report"]
        assert report["subjects_out"] == 3
    assert outputs["marked"] == outputs["plain"]


def test_ingest_output_is_the_same_at_every_cpu_dispatch_level(tmp_path):
    import subprocess
    import sys

    # numpy's default sort is unstable and picks its kernel by SIMD level, so
    # which of two tied samples ingest keeps must not rest on it; nor may the
    # pressure weight of F rest on numpy's SIMD exp or power
    rng = np.random.default_rng(5)
    rows = []
    for i in range(3):
        samples = synthetic_rows(
            f"s{i}", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), m=40, x_range=(6.295, 6.905)
        )
        # every ordinate twice, the second time with other values, rows shuffled
        samples += [[s, x, f"{float(a) + 0.5:.12g}", f"{float(b) - 0.5:.12g}"]
                    for s, x, a, b in samples]
        rows += [samples[j] for j in rng.permutation(len(samples))]
    tracks = tmp_path / "tracks.csv"
    write_rows(tracks, rows)
    cfg = write_config(tmp_path, "ingest.json", {"input": str(tracks)})
    src = str(Path(__file__).resolve().parents[1] / "src")
    disabled = "AVX512_ICL AVX512_SPR X86_V4 X86_V3"
    outputs = []
    for features in ({}, {"NPY_DISABLE_CPU_FEATURES": disabled}):
        env = {**os.environ, "PYTHONPATH": src, **features}
        probe = subprocess.run(
            [sys.executable, "-c", "import numpy"], capture_output=True, text=True, env=env
        )
        if probe.returncode != 0:
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled!r}: {probe.stderr}")
        out = tmp_path / f"out{len(outputs)}"
        command = ["ingest", "--preset", "era5", "--config", cfg, "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-m", "diffreg.cli", *command],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append([(out / name).read_bytes() for name in ("U.csv", "F.csv")])
    assert outputs[0] == outputs[1]


_THERMO_DEFAULTS = {"type": "thermo", "variable": "T_real"}
_THERMO_SET = {"type": "thermo", "variable": "T_real", "kappa": 0.2, "p0": 900.0}
_RECIPE_SET = {
    "start_gate": [6.28, 6.31], "derivative_gate": 1e6, "center": False, "penalty": 1e-6,
}


@pytest.mark.parametrize(
    "response, settings, expect",
    [
        (_THERMO_DEFAULTS, {}, {
            "response": {"kappa": 0.286, "p0": 1000.0},
            "start_gate": None, "derivative_gate": None, "center": True, "penalty": 0.0,
        }),
        (_THERMO_SET, _RECIPE_SET, {"response": {"kappa": 0.2, "p0": 900.0}, **_RECIPE_SET}),
    ],
    ids=["defaults", "set"],
)
def test_ingest_recipe_takes_config_values_and_dataclass_defaults(
    tmp_path, response, settings, expect
):
    tracks = tmp_path / "tracks.csv"
    write_rows(tracks, synthetic_rows("s0", [0.5], [0.2], x_range=(6.295, 6.905)))
    common = {"predictor": "T_pot", "interval": [6.3, 6.9], "end_gate": [6.89, 6.91]}
    doc = {
        "input": str(tracks),
        "schema": {"subject": "subject", "ordinate": "log_p", "variables": ["T_real", "T_pot"]},
        "recipe": {**common, "response": response, **settings},
        "basis": {"p": 4},
    }
    out = tmp_path / "out"
    assert main(["ingest", "--config", write_config(tmp_path, "ingest.json", doc), "--out", str(out)]) == 0
    recipe = json.loads((out / "ingest.json").read_text())["recipe"]
    response_doc = {"type": "ThermoResponse", "variable": "T_real", **expect["response"]}
    assert recipe == {**common, **expect, "response": response_doc}


def test_ingest_requires_input(tmp_path):
    out = tmp_path / "noin"
    assert main(["ingest", "--preset", "era5", "--out", str(out)]) == 3


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("fit", {"basis": {"p": 10, "n_quad": 11}, "lambda": 1e3}, "n_quad must be >= 2p+1"),
        ("spectrum", {"top_m": 101}, "top_m must be at most p^2 = 100"),
    ],
    ids=["basis", "top_m"],
)
def test_config_values_the_command_cannot_use_exit_2(
    tmp_path, dataset_dir, capsys, command, section, message
):
    cfg = write_config(tmp_path, "cfg.json", {**ds_section(dataset_dir), **section})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "recipe, message",
    [
        ({"predictor": "T_dew"}, "recipe predictor 'T_dew' is not one of the schema variables"),
        (
            {"response": {"type": "spectral", "variable": "T_real", "multipliers": [1.0, 2.0]}},
            "spectral response has 2 multipliers but basis p = 10",
        ),
    ],
    ids=["predictor", "multipliers"],
)
def test_ingest_recipe_mismatch_is_a_config_error(tmp_path, capsys, recipe, message):
    tracks = tmp_path / "tracks.csv"
    write_rows(tracks, synthetic_rows("s0", [0.5], [0.2], x_range=(6.295, 6.905)))
    doc = get_preset("era5")
    del doc["command"]
    doc["input"] = str(tracks)
    doc["recipe"].update(recipe)
    cfg = write_config(tmp_path, "ingest.json", doc)
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_value_error_inside_the_numerics_is_a_runtime_error(
    tmp_path, dataset_dir, capsys, monkeypatch
):
    def broken_fit(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("diffreg.cli.fit", broken_fit)
    cfg = write_config(tmp_path, "fit.json", {**ds_section(dataset_dir), "lambda": 1e3})
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    assert "error: operands could not be broadcast together" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_import_leaves_scipy_unloaded():
    import subprocess
    import sys

    # nor a thread pool: replications run in one loop
    probe = "import sys, diffreg.cli; print({'scipy', 'concurrent.futures'} & set(sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "set()"


def _no_traceback_and_no_outputs(err, out):
    assert "Traceback" not in err
    assert not out.is_dir() or not any(out.iterdir())


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_is_not_an_object", "out_is_a_file"])
def test_unusable_config_or_out_is_a_config_error(tmp_path, capsys, case):
    doc = {"dataset": {"u_csv": "U.csv", "f_csv": "F.csv"}, "basis": {"p": 4}, "lambda": 1e3}
    cfg = write_config(tmp_path, "fit.json", [doc] if case == "config_is_not_an_object" else doc)
    if case == "config_is_a_directory":
        cfg = str(tmp_path)
    out = tmp_path / "out"
    if case == "out_is_a_file":
        out.write_text("")
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    _no_traceback_and_no_outputs(err, out)
    assert case != "out_is_a_file" or out.read_text() == ""


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "command, setting",
    [("fit", '"lambda": {}'), ("sweep", '"lambda_grid": [1.0, {}]'),
     ("test", '"lambda": 1.0, "kernel": {{"h": {}}}')],
    ids=["fit", "sweep", "test"],
)
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, command, setting, literal):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(
        '{"dataset": {"u_csv": "U.csv", "f_csv": "F.csv"}, "basis": {"p": 4}, '
        + setting.format(literal) + "}"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: non-finite number {literal}")
    _no_traceback_and_no_outputs(err, out)


_BAD_H = "bandwidth h must be positive with h^4 finite and nonzero, got "


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("fit", {"kernel": {"h": 1e300}}, _BAD_H + "1e+300"),
        ("fit", {"kernel": {"h": 1e-300}}, _BAD_H + "1e-300"),
        ("fit", {"kernel": {"h": 1e-170}}, _BAD_H + "1e-170"),
        ("fit", {"basis": {"p": 10, "interval": [0, 1e-320]}},
         "kernel factor C has a non-finite entry on the basis interval [0, 1e-320] "
         "with bandwidth h = 0.01"),
        ("simulate", {"h": 1e300}, _BAD_H + "1e+300"),
        ("simulate", {"h": 1e-300}, _BAD_H + "1e-300"),
        ("simulate", {"p": 10, "n_quad": 15}, "n_quad must be >= 2p+1 = 21, got 15"),
    ],
    ids=["fit_h_huge", "fit_h_tiny", "fit_h4_underflows", "fit_interval_tiny",
         "simulate_h_huge", "simulate_h_tiny", "simulate_n_quad"],
)
def test_a_kernel_the_config_cannot_build_is_a_config_error(
    tmp_path, capsys, command, section, message
):
    if command == "fit":
        doc = {"dataset": {"u_csv": "U.csv", "f_csv": "F.csv"}, "basis": {"p": 10}, "lambda": 1.0}
    else:
        doc = sim_config()
    cfg = write_config(tmp_path, "cfg.json", {**doc, **section})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    _no_traceback_and_no_outputs(err, out)


_HUGE = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "command, setting, path",
    [("fit", f'"lambda": {_HUGE}', "$.lambda"),
     ("sweep", f'"lambda_grid": [1.0, {_HUGE}]', "$.lambda_grid[1]"),
     ("test", f'"lambda": 1.0, "kernel": {{"h": {_HUGE}}}', "$.kernel.h")],
    ids=["fit", "sweep", "test"],
)
def test_number_too_large_for_a_float_is_a_config_error(tmp_path, capsys, command, setting, path):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(
        '{"dataset": {"u_csv": "U.csv", "f_csv": "F.csv"}, "basis": {"p": 4}, ' + setting + "}"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    message = "an integer of 401 digits does not fit in a float"
    assert err.startswith(f"config error at {path}: {message}")
    _no_traceback_and_no_outputs(err, out)


def test_number_too_large_for_a_float_is_a_config_error_where_null_is_allowed_too(
    tmp_path, capsys
):
    # derivative_gate is {"type": ["number", "null"]}; the schema rejects it before any input is read
    cfg = tmp_path / "ingest.json"
    cfg.write_text('{"input": "tracks.csv", "recipe": {"derivative_gate": ' + _HUGE + "}}")
    out = tmp_path / "out"
    assert main(["ingest", "--preset", "era5", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error at $.recipe.derivative_gate: an integer of 401 digits does not fit in a float\n"
    )
    _no_traceback_and_no_outputs(err, out)


def test_huge_snr_is_the_noiseless_design(tmp_path, capsys):
    # snr**2 of a float raised OverflowError past about 1.3e154; the noise scale is now 0
    cfg = write_config(tmp_path, "sim.json", sim_config(snr=1e300, reps=1))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err

    def strict(literal):
        raise ValueError(f"summary.json holds {literal}")

    json.loads((out / "summary.json").read_text(), parse_constant=strict)


@pytest.mark.parametrize(
    "command, setting, message",
    [("fit", {"lambda": 1.7e308}, "lambda must keep n * lambda finite for n = 200, got 1.7e+308"),
     ("test", {"lambda": 1.7e308, "B": 100},
      "lambda must keep n * lambda finite for n = 200, got 1.7e+308"),
     ("sweep", {"lambda_grid": [1.0, 1.7e308]},
      "lambda_grid must keep n * lambda finite for n = 200, got [1.0, 1.7e+308]")],
    ids=["fit", "test", "sweep"],
)
def test_lambda_whose_n_lambda_overflows_is_a_config_error(
    tmp_path, capsys, dataset_dir, command, setting, message
):
    # before, fit exited 0 with two RuntimeWarnings and "cond_estimate": NaN in fit.json
    cfg = write_config(tmp_path, "cfg.json", {**ds_section(dataset_dir), **setting})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    _no_traceback_and_no_outputs(err, out)


@pytest.mark.parametrize("setting", [{"lambda_grid": [1.0, 1.7e308]}, {"test_lambda": 1.7e308}])
def test_simulate_lambda_whose_n_lambda_overflows_is_a_config_error(tmp_path, capsys, setting):
    cfg = write_config(tmp_path, "sim.json", sim_config(**setting))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {next(iter(setting))} must keep n * lambda finite")
    _no_traceback_and_no_outputs(err, out)


@pytest.mark.parametrize("p", [4, 30])
def test_an_output_operator_the_ridge_cannot_whiten_is_a_config_error(tmp_path, capsys, p):
    # H_w'H_w overflows: eigh raised "Eigenvalues did not converge" at p = 4 and returned NaN at 30
    rng = np.random.default_rng(p)
    for name in ("U.csv", "F.csv"):
        rows = [",".join(f"{v!r}" for v in row) for row in rng.standard_normal((8, p)).tolist()]
        header = ",".join(f"{name[0].lower()}_{k + 1}" for k in range(p))
        (tmp_path / name).write_text("\n".join([header, *rows]) + "\n")
    cache = tmp_path / "kernels.npz"
    doc = {
        "dataset": {"u_csv": str(tmp_path / "U.csv"), "f_csv": str(tmp_path / "F.csv")},
        "basis": {"p": p},
        "kernel": {"L": {"kind": "neg_laplacian_minus_const", "param": 1e200}, "cache": str(cache)},
        "lambda": 1.0,
    }
    out = tmp_path / "out"
    assert main(["fit", "--config", write_config(tmp_path, "fit.json", doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: kernel L (neg_laplacian_minus_const, param 1e+200) ")
    assert "H_w'H_w overflows" in err
    _no_traceback_and_no_outputs(err, out)
    assert not cache.exists()


@pytest.mark.parametrize("param", [1e152, 1e154])
def test_a_design_whose_gram_eigenvalues_overflow_is_a_runtime_error(tmp_path, capsys, param):
    # the kernel whitens, but a_j * b_k or the rank threshold overflows: the fit was zeroed
    rng = np.random.default_rng(5)
    for name in ("U.csv", "F.csv"):
        rows = [",".join(f"{v!r}" for v in row) for row in rng.standard_normal((20, 4)).tolist()]
        header = ",".join(f"{name[0].lower()}_{k + 1}" for k in range(4))
        (tmp_path / name).write_text("\n".join([header, *rows]) + "\n")
    doc = {
        "dataset": {"u_csv": str(tmp_path / "U.csv"), "f_csv": str(tmp_path / "F.csv")},
        "basis": {"p": 4},
        "kernel": {"L": {"kind": "neg_laplacian_minus_const", "param": param}},
        "lambda": 1.0,
    }
    out = tmp_path / "out"
    assert main(["fit", "--config", write_config(tmp_path, "fit.json", doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the whitened design's Gram eigenvalues overflow\n"
    _no_traceback_and_no_outputs(err, out)


def test_integer_fields_keep_big_values_and_their_minimum(tmp_path, capsys):
    ok = write_config(tmp_path, "ok.json", sim_config(reps=1, seed=10**400))
    assert main(["simulate", "--config", ok, "--out", str(tmp_path / "ok")]) == 0
    bad = write_config(tmp_path, "bad.json", sim_config(p=-(10**400)))
    out = tmp_path / "bad"
    assert main(["simulate", "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.p: ") and "less than the minimum of 1" in err
    _no_traceback_and_no_outputs(err, out)


def _integer_paths(schema, path=()):
    """The key path of every "integer" field of ``schema``; an array's items sit at index 0."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_paths(sub, (*path, key))
    if "items" in schema:
        yield from _integer_paths(schema["items"], (*path, 0))
    for sub in schema.get("oneOf", ()):
        yield from _integer_paths(sub, path)


INTEGER_FIELDS = [(command, path) for command, schema in SCHEMAS.items()
                  for path in _integer_paths(schema)]


@pytest.fixture(scope="module")
def integer_configs(tmp_path_factory):
    """A config per command that sets every integer field, on small inputs; each exits 0."""
    folder = tmp_path_factory.mktemp("inputs")
    U, F = np.random.default_rng(8).standard_normal((2, 12, 4))
    save_dataset(DataSet(U=U, F=F, basis=make_cosine_basis(4, 41)), str(folder / "U.csv"),
                 str(folder / "F.csv"))
    rng = np.random.default_rng(9)
    rows = []
    for i in range(4):
        rows += synthetic_rows(f"s{i}", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), m=121,
                               x_range=(6.295, 6.905))
    write_rows(folder / "tracks.csv", rows)
    data = {"dataset": {"u_csv": str(folder / "U.csv"), "f_csv": str(folder / "F.csv")},
            "basis": {"p": 4, "n_quad": 41}, "seed": 3}
    return {
        "simulate": sim_config(n=20, p=4, reps=1, seed=3, n_quad=41, refine_rounds=1,
                               keep_bootstrap=1),
        "fit": {**data, "lambda": 1e2},
        "sweep": {**data, "lambda_grid": [1e1, 1e2]},
        "test": {**data, "lambda": 1e2, "B": 100},
        "spectrum": {**data, "top_m": 3},
        "ingest": {"input": str(folder / "tracks.csv"), "basis": {"p": 4, "n_quad": 41},
                   "seed": 3},
    }


@pytest.mark.parametrize("command, path", INTEGER_FIELDS,
                         ids=[f"{command}-{'.'.join(map(str, path))}"
                              for command, path in INTEGER_FIELDS])
def test_an_integral_float_in_an_integer_field_runs_as_its_int(
    tmp_path, capsys, integer_configs, command, path
):
    # JSON Schema counts 2.0 as an integer, so the checker admits it where the command needs an int
    doc = integer_configs[command]
    twin = json.loads(json.dumps(doc))
    *parents, key = path
    field = functools.reduce(operator.getitem, parents, twin)
    field[key] = float(field[key])
    runs = []
    for name, config in (("int", doc), ("float", twin)):
        out = tmp_path / name
        argv = [command, "--config", write_config(tmp_path, f"{name}.json", config),
                "--out", str(out), *(["--preset", "era5"] if command == "ingest" else [])]
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        runs.append((code, err, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0][0] == 0, runs[0][1]
    # the provenance of every output records the int
    assert runs[1] == runs[0]


@pytest.mark.parametrize("via", ["config", "flag"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, via):
    cfg = write_config(tmp_path, "sim.json", sim_config(seed=-3 if via == "config" else 11))
    out = tmp_path / "out"
    flag = ["--seed", "-5"] if via == "flag" else []
    assert main(["simulate", "--config", cfg, "--out", str(out), *flag]) == 2
    err = capsys.readouterr().err
    seed = -3 if via == "config" else -5
    assert err.startswith(f"config error at $.seed: {seed} is less than the minimum of 0")
    _no_traceback_and_no_outputs(err, out)


@pytest.mark.parametrize("command", ["fit", "ingest"])
def test_input_that_is_a_directory_is_a_data_error(tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    if command == "fit":
        doc = {
            "dataset": {"u_csv": str(folder), "f_csv": str(folder)},
            "basis": {"p": 4, "n_quad": 41},
            "lambda": 1e3,
        }
        argv = ["fit", "--config", write_config(tmp_path, "fit.json", doc)]
    else:
        argv = ["ingest", "--preset", "era5", "--config",
                write_config(tmp_path, "ingest.json", {"input": str(folder)})]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(folder) in err
    _no_traceback_and_no_outputs(err, out)


@pytest.mark.parametrize("at_line", [1, 400])
@pytest.mark.parametrize("command", ["fit", "ingest"])
def test_csv_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command, at_line):
    # the byte 0xff starts no UTF-8 sequence; at line 400 it lies past the
    # first read buffer, so it reaches the bulk parse, whose ValueError
    # handler must not take it for a malformed row
    rng = np.random.default_rng(3)
    if command == "fit":
        path = tmp_path / "U.csv"
        lines = ["u_1,u_2"] + [f"{a!r},{b!r}" for a, b in rng.uniform(-1, 1, (500, 2))]
        doc = {
            "dataset": {"u_csv": str(path), "f_csv": str(path)},
            "basis": {"p": 2, "n_quad": 41},
            "lambda": 1e3,
        }
        argv = ["fit", "--config", write_config(tmp_path, "fit.json", doc)]
    else:
        path = tmp_path / "tracks.csv"
        rows = []
        for i in range(4):
            rows += synthetic_rows(f"s{i}", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        lines = ["subject,log_p,T_real,T_pot"] + [",".join(row) for row in rows]
        argv = ["ingest", "--preset", "era5", "--config",
                write_config(tmp_path, "ingest.json", {"input": str(path)})]
    payload = "\n".join(lines).encode()
    cut = payload.index(b"\n", len("\n".join(lines[:at_line]).encode())) + 1
    path.write_bytes(payload[:cut] + b"\xff" + payload[cut:])
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: not UTF-8 text: ")
    assert "can't decode byte 0xff" in err
    _no_traceback_and_no_outputs(err, out)


def test_every_schema_passes_the_metaschema():
    import jsonschema

    from diffreg.cli import SCHEMAS

    for schema in SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


# -- fuzz: schema-valid configs over corrupted inputs -------------------------

CORRUPTIONS = ("none", "truncated", "ragged", "non_numeric", "non_finite", "empty", "directory")

_op = st.sampled_from(OP_KINDS).flatmap(
    lambda kind: st.fixed_dictionaries({"kind": st.just(kind)}, optional={"param": st.floats(-2, 2)})
)
_kernel = st.fixed_dictionaries(
    {},
    optional={
        "h": st.floats(0.02, 1.0),
        "include_boundary": st.booleans(),
        "P": _op,
        "B": _op,
        "L": _op,
    },
)
_lambda = st.floats(1e-3, 1e6)
_sections = {
    "fit": st.fixed_dictionaries({"lambda": _lambda}),
    "sweep": st.fixed_dictionaries({"lambda_grid": st.lists(_lambda, min_size=1, max_size=3)}),
    "test": st.fixed_dictionaries(
        {"lambda": _lambda, "B": st.just(100)},
        optional={"strategy": st.sampled_from(STRATEGIES), "seed": st.integers(0, 9)},
    ),
    "spectrum": st.fixed_dictionaries({"top_m": st.integers(1, 20)}),
}


def _corrupt(data, path, corruption):
    """Write ``path`` from its intended text with one corruption applied."""
    text = path.read_text()
    lines = text.splitlines()
    if corruption == "truncated":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    elif corruption == "empty":
        text = ""
    elif corruption in ("ragged", "non_numeric", "non_finite") and len(lines) > 1:
        i = data.draw(st.integers(1, len(lines) - 1), label="line")
        fields = lines[i].split(",")
        if corruption == "ragged":
            fields = fields[:-1] if data.draw(st.booleans(), label="shorter") else fields + ["1"]
        else:
            j = data.draw(st.integers(0, len(fields) - 1), label="field")
            bad = ["x1", ""] if corruption == "non_numeric" else ["nan", "inf", "-inf"]
            fields[j] = data.draw(st.sampled_from(bad), label="value")
        lines[i] = ",".join(fields)
        text = "\n".join(lines) + "\n"
    if corruption == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_text(text)


def _run_fuzzed(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 0:
        assert "Traceback" not in err.getvalue()
    else:
        _no_traceback_and_no_outputs(err.getvalue(), out)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_dataset_commands_over_corrupted_csvs(data):
    command = data.draw(st.sampled_from(sorted(_sections)), label="command")
    p = data.draw(st.integers(1, 4), label="p")
    n = data.draw(st.integers(2, 6), label="n")
    basis = data.draw(
        st.fixed_dictionaries({"p": st.just(p)}, optional={"n_quad": st.integers(2 * p, 21)}),
        label="basis",
    )
    doc = {
        "basis": basis,
        "kernel": data.draw(_kernel, label="kernel"),
        **data.draw(_sections[command], label="section"),
    }
    columns = data.draw(st.sampled_from([p, p + 1]), label="columns")
    target = data.draw(st.sampled_from(["U.csv", "F.csv"]), label="target")
    corruption = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    rng = np.random.default_rng(n * 10 + p)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, prefix in (("U.csv", "u"), ("F.csv", "f")):
            rows = [[f"{prefix}_{k + 1}" for k in range(columns)]]
            rows += [[repr(float(v)) for v in rng.standard_normal(columns)] for _ in range(n)]
            (tmp / name).write_text("".join(",".join(row) + "\n" for row in rows))
        _corrupt(data, tmp / target, corruption)
        doc["dataset"] = {"u_csv": str(tmp / "U.csv"), "f_csv": str(tmp / "F.csv")}
        _run_fuzzed([command, "--config", write_config(tmp, "cfg.json", doc)], tmp / "out")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_ingest_over_corrupted_trajectories(data):
    p = data.draw(st.integers(1, 5), label="p")
    response = data.draw(
        st.sampled_from(["thermo", "identity", "spectral"]).flatmap(
            lambda kind: st.fixed_dictionaries(
                {
                    "type": st.just(kind),
                    "variable": st.sampled_from(["T_real", "T_pot"]),
                    **(
                        {"multipliers": st.lists(st.floats(-3, 3), min_size=p, max_size=p + 1)}
                        if kind == "spectral"
                        else {}
                    ),
                },
                optional={"kappa": st.floats(0, 1), "p0": st.floats(1, 2000)}
                if kind == "thermo"
                else {},
            )
        ),
        label="response",
    )
    recipe = data.draw(
        st.fixed_dictionaries(
            {
                "predictor": st.sampled_from(["T_real", "T_pot"]),
                "response": st.just(response),
                "interval": st.just([6.3, 6.9]),
            },
            optional={
                "start_gate": st.one_of(st.none(), st.just([6.28, 6.32])),
                "end_gate": st.one_of(st.none(), st.just([6.88, 6.92])),
                "derivative_gate": st.one_of(st.none(), st.floats(0.1, 100)),
                "center": st.booleans(),
                "penalty": st.floats(0, 1e-3),
            },
        ),
        label="recipe",
    )
    doc = {
        "lenient": data.draw(st.booleans(), label="lenient"),
        "schema": {"subject": "subject", "ordinate": "log_p", "variables": ["T_real", "T_pot"]},
        "recipe": recipe,
        "basis": {"p": p, "n_quad": data.draw(st.integers(max(3, 2 * p), 41), label="n_quad")},
    }
    corruption = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    rows = []
    for i in range(data.draw(st.integers(1, 3), label="subjects")):
        rows += synthetic_rows(f"s{i}", [0.5, -0.2], [0.1, 0.3], m=25, x_range=(6.295, 6.905))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc["input"] = str(tmp / "tracks.csv")
        write_rows(tmp / "tracks.csv", rows)
        _corrupt(data, tmp / "tracks.csv", corruption)
        _run_fuzzed(["ingest", "--config", write_config(tmp, "cfg.json", doc)], tmp / "out")
