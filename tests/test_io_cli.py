import csv
import json
import os

import numpy as np
import pytest

from spdconn import InvalidInputError, SimConfig, fit_from_matrices, sample_population, sample_time_series
from spdconn import io as sio
from spdconn.cli import main


def write_series_csv(path, ts, delimiter=","):
    with open(path, "w", newline="") as f:
        w = csv.writer(f, delimiter=delimiter)
        w.writerow(ts.region_names)
        w.writerows(ts.values.tolist())


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """Six control CSVs plus one patient CSV from the generative model."""
    root = tmp_path_factory.mktemp("demo")
    cfg = SimConfig(n=5, n_controls=7, sigma=0.08, seed=42, k_diffs=3)
    series = sample_time_series(cfg, t=60)
    paths = []
    for k, ts in enumerate(series):
        p = root / f"subj{k}.csv"
        write_series_csv(p, ts)
        paths.append(str(p))
    return {"controls": paths[:-1], "patient": paths[-1], "root": root}


class TestTimeSeriesIO:
    def test_roundtrip(self, tmp_path, rng):
        from spdconn import TimeSeries

        ts = TimeSeries(rng.standard_normal((20, 3)), ("a", "b", "c"))
        path = tmp_path / "x.csv"
        write_series_csv(path, ts)
        back = sio.read_time_series(path)
        assert back.region_names == ("a", "b", "c")
        np.testing.assert_allclose(back.values, ts.values, rtol=1e-15)

    @pytest.mark.parametrize("delimiter", [",", "\t", ";"])
    def test_delimiters(self, tmp_path, rng, delimiter):
        from spdconn import TimeSeries

        ts = TimeSeries(rng.standard_normal((10, 2)))
        path = tmp_path / "x.txt"
        write_series_csv(path, ts, delimiter=delimiter)
        assert sio.read_time_series(path).values.shape == (10, 2)

    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("a b\n1.0 2.0\n3.0 4.0\n")
        back = sio.read_time_series(path)
        assert back.region_names == ("a", "b")
        assert np.array_equal(back.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_name_file_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(InvalidInputError) as err:
            sio.read_time_series(path)
        assert "bad.csv" in str(err.value) and "row 3" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,oops\n2.0,3.0\n")
        with pytest.raises(InvalidInputError) as err:
            sio.read_time_series(path)
        assert "bad.csv" in str(err.value)


class TestModelIO:
    def test_roundtrip_exact(self, tmp_path, rng):
        cfg = SimConfig(n=6, n_controls=5, sigma=0.07, seed=3, k_diffs=3)
        mats, _ = sample_population(cfg)
        model = fit_from_matrices(mats, region_names=[f"area{k}" for k in range(6)])
        path = tmp_path / "model.json"
        sio.write_model(path, model)
        back = sio.read_model(path)
        assert np.array_equal(back.mean, model.mean)
        assert back.sigma == model.sigma
        assert back.n_subjects == model.n_subjects
        assert back.region_names == model.region_names

    def test_schema_fields(self, tmp_path, rng):
        cfg = SimConfig(n=4, n_controls=4, sigma=0.05, seed=1, k_diffs=2)
        mats, _ = sample_population(cfg)
        path = tmp_path / "model.json"
        sio.write_model(path, fit_from_matrices(mats))
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "schema_version", "n", "region_names", "sigma_star", "sigma", "n_subjects",
        }
        assert doc["schema_version"] == 1
        assert len(doc["sigma_star"]) == 16

    def test_rejects_corrupt_matrix(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n": 2,
            "region_names": None,
            "sigma_star": [1.0, 2.0, 2.0, 1.0],  # indefinite
            "sigma": 0.1,
            "n_subjects": 3,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception):
            sio.read_model(path)


class TestCliFit:
    def test_identical_inputs_report_zero_dispersion(self, tmp_path, rng, capsys):
        from spdconn import TimeSeries

        ts = TimeSeries(rng.standard_normal((40, 3)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(a, ts)
        write_series_csv(b, ts)
        out = tmp_path / "model.json"
        assert main(["fit", "--controls", str(a), str(b), "--out", str(out)]) == 0
        lines = dict(
            line.split(": ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["sigma"]) <= 1e-12
        assert lines["subjects"] == "2"

    def test_fit_writes_model(self, demo, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", "--controls", *demo["controls"], "--out", str(out)])
        assert code == 0
        model = sio.read_model(out)
        assert model.n == 5 and model.n_subjects == 6

    def test_ragged_input_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        good = tmp_path / "good.csv"
        good.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        code = main(
            ["fit", "--controls", str(good), str(bad), "--out", str(tmp_path / "m.json")]
        )
        assert code != 0
        assert "bad.csv" in capsys.readouterr().err

    def test_confounds_accepted(self, demo, tmp_path, rng):
        conf_paths = []
        for k in range(len(demo["controls"])):
            p = tmp_path / f"conf{k}.csv"
            with open(p, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["drift"])
                w.writerows([[float(v)] for v in rng.standard_normal(60)])
            conf_paths.append(str(p))
        out = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--controls",
                *demo["controls"],
                "--confounds",
                *conf_paths,
                "--out",
                str(out),
            ]
        )
        assert code == 0


class TestCliTest:
    def test_report_and_determinism(self, demo, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = [
            "test",
            "--controls",
            *demo["controls"],
            "--patient",
            demo["patient"],
            "--m",
            "30",
            "--seed",
            "7",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "# seed: 7" in text and "# m: 30" in text
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows[0] == "region_i,region_j,t,p_raw,p_corrected,direction"
        assert len(rows) - 1 == 5 * 4 // 2

    def test_seed_changes_report(self, demo, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        base = [
            "test", "--controls", *demo["controls"], "--patient", demo["patient"], "--m", "20",
        ]
        main(base + ["--seed", "1", "--out", str(out1)])
        main(base + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_flat_parametrization_runs(self, demo, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "test", "--controls", *demo["controls"], "--patient", demo["patient"],
                "--m", "15", "--parametrization", "flat", "--out", str(out),
            ]
        )
        assert code == 0
        assert "# parametrization: flat" in out.read_text()


class TestCliLikelihood:
    def test_model_mode(self, demo, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--controls", *demo["controls"], "--out", str(model_path)])
        capsys.readouterr()
        code = main(["likelihood", "--model", str(model_path), demo["patient"]])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "subject\tlog_likelihood"
        float(out[1].split("\t")[1])

    def test_loo_mode(self, demo, capsys):
        # positional subjects go before the variadic --controls flag
        code = main(
            ["likelihood", demo["patient"], "--loo", "--controls", *demo["controls"]]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "control\tloo_log_likelihood" in out
        assert "subject\tmean_loo_log_likelihood" in out

    def test_model_mode_rejects_flat(self, demo, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--controls", *demo["controls"], "--out", str(model_path)])
        capsys.readouterr()
        code = main(
            ["likelihood", "--model", str(model_path), demo["patient"],
             "--parametrization", "flat"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "--parametrization flat" in captured.err
        assert captured.out == ""

    def test_missing_model_fails(self, demo, capsys):
        code = main(["likelihood", "--model", "/nonexistent/m.json", demo["patient"]])
        assert code != 0
        assert capsys.readouterr().err


class TestCliSimulate:
    def test_table_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        args = [
            "simulate", "--n", "7", "--n-controls", "8", "--k-diffs", "3",
            "--d-sigma", "0.0", "0.2", "--m", "15", "--seed", "4",
            "--n-patients", "2", "--parametrization", "both",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.DictReader(out1.read_text().splitlines()))
        auc_rows = [r for r in rows if r["record"] == "auc"]
        assert len(auc_rows) == 4  # 2 d_sigma x 2 parametrizations
        assert {r["parametrization"] for r in auc_rows} == {"tangent", "flat"}
        point_rows = [r for r in rows if r["record"] == "point"]
        assert len(point_rows) == 4 * 17  # thresholds 0 .. 1 at m = 15

    def test_config_file(self, tmp_path):
        cfg = {
            "n": 6, "n_controls": 8, "sigma": 0.1, "d_sigma": [0.0],
            "k_diffs": 3, "m": 10, "seed": 1, "n_patients": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 6, "n_controls": 8, "bogus": 1}))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")])
        assert code != 0
        assert "bogus" in capsys.readouterr().err
