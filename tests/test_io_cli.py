import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdconn import (
    InvalidInputError, PairTest, SimConfig, TestReport, build_null, fit_from_matrices,
    sample_population, sample_time_series, test_patient,
)
from spdconn import io as sio
from spdconn import cli, exceptions
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

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n\n1.5,2\n  \n3,4.25\n",
            "a\tb\n1.5\t2\n\n3\t4.25\n",
            "a;b\n1.5;2\n3;4.25\n\n",
            "a  b\n 1.5   2\n\n3\t4.25\n",
            "a,b\r\n1.5,2\r\n3,4.25\r\n",
            '"a","b"\n"1.5",2\n3,"4.25"\n',
            "a,b\n1_5e-1,2\n3,4.25\n",
        ],
        ids=["blank-lines", "tab", "semicolon", "whitespace", "crlf", "quoted", "underscore"],
    )
    def test_layouts(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        back = sio.read_time_series(path)
        assert back.region_names == ("a", "b")
        assert np.array_equal(back.values, [[1.5, 2.0], [3.0, 4.25]])

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        # spreadsheet exports start UTF-8 files with a byte-order mark
        text = "a,b\n1.5,2\n3,4.25\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(text.encode("utf-8-sig"))
        back, marked_back = sio.read_time_series(plain), sio.read_time_series(marked)
        assert marked_back.region_names == back.region_names == ("a", "b")
        assert np.array_equal(marked_back.values, back.values)

    def test_error_rows_count_non_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n\n1.0,2.0\n\n3.0,x\n4,5\n")
        with pytest.raises(InvalidInputError, match="bad.csv: row 3: .*'x'"):
            sio.read_time_series(path)

    def test_ragged_rows_name_file_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(InvalidInputError) as err:
            sio.read_time_series(path)
        assert "bad.csv" in str(err.value) and "row 3" in str(err.value)

    @pytest.mark.parametrize(
        "text", ["", "a,b\n", "a,b\n\n1.0,2.0\n\n"], ids=["empty", "header", "one-row"]
    )
    def test_needs_a_header_and_two_time_points(self, tmp_path, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as err:
            sio.read_time_series(path)
        assert str(err.value) == f"{path}: need a header row and at least 2 time points"

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,oops\n2.0,3.0\n")
        with pytest.raises(InvalidInputError) as err:
            sio.read_time_series(path)
        assert "bad.csv" in str(err.value)

    def test_nan_cell_is_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b\n1.0,nan\n2.0,3.0\n")
        with pytest.raises(InvalidInputError) as err:
            sio.read_time_series(path)
        assert str(err.value) == f"{path}: time series contains non-finite values"


def three_region_report(subject_id="p", region_names=None):
    pairs = tuple(PairTest(i, j, 0.5, 0.25, 0.75, 1) for i, j in ((1, 0), (2, 0), (2, 1)))
    return TestReport(subject_id, 0.05, pairs, region_names)


class TestReportIO:
    def test_a_report_without_names_names_its_regions_r00_on(self):
        text = sio.format_report(three_region_report(), m=9, seed=1)
        rows = [line.split(",")[:2] for line in text.splitlines()[6:]]
        assert rows == [["r01", "r00"], ["r02", "r00"], ["r02", "r01"]]
        named = sio.format_report(three_region_report(region_names=("a", "b", "c")), m=9, seed=1)
        assert named.splitlines()[6].startswith("b,a,")

    def test_a_failed_write_leaves_no_file_behind(self, tmp_path):
        path = tmp_path / "report.csv"
        sio.write_report(path, three_region_report(), m=9, seed=1)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write raises midway
        with pytest.raises(UnicodeEncodeError):
            sio.write_report(path, three_region_report(subject_id="\ud800"), m=9, seed=1)
        assert os.listdir(tmp_path) == ["report.csv"]
        assert path.read_bytes() == before


def write_model_doc(tmp_path, **fields):
    """A valid two-region model document with ``fields`` replaced."""
    doc = {
        "schema_version": 1,
        "n": 2,
        "region_names": ["a", "b"],
        "sigma_star": [1.0, 0.3, 0.3, 1.0],
        "sigma": 0.1,
        "n_subjects": 3,
        **fields,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


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

    def test_refuses_a_flat_model_before_writing(self, tmp_path):
        # the document stores no parametrization and reloads as tangent,
        # where the same subject would score another likelihood
        mats, _ = sample_population(SimConfig(n=4, n_controls=6, seed=1, k_diffs=2))
        model = fit_from_matrices(mats, parametrization="flat")
        with pytest.raises(InvalidInputError, match="only a tangent model can be saved, got 'flat'"):
            sio.write_model(tmp_path / "model.json", model)
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize(
        "sigma_star",
        [[1.0, 2.0, 2.0, 1.0], [1.0, float("nan"), float("nan"), 1.0]],
        ids=["indefinite", "nan"],
    )
    def test_rejects_corrupt_matrix(self, tmp_path, sigma_star):
        doc = {
            "schema_version": 1,
            "n": 2,
            "region_names": None,
            "sigma_star": sigma_star,
            "sigma": 0.1,
            "n_subjects": 3,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="model.json"):
            sio.read_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma", float("nan")),
            ("sigma", float("inf")),
            ("sigma", float("-inf")),
            ("sigma", -0.1),
            ("region_names", ["a"]),
            ("region_names", ["a", "b", "c"]),
            ("region_names", ["a", "a"]),
            ("region_names", "ab"),
            ("region_names", {"a": 0, "b": 1}),
            ("region_names", [True, None]),
            ("region_names", [1, 2]),
            ("region_names", [["a"], "b"]),
            ("region_names", []),
            ("schema_version", 1.0),
            ("n", 2.9),
            ("n", "2"),
            ("n_subjects", 3.7),
            ("n_subjects", -5),
            ("n_subjects", 1),
        ],
        ids=[
            "nan-sigma", "inf-sigma", "minus-inf-sigma", "negative-sigma",
            "too-few-names", "too-many-names", "repeated-names", "string-names",
            "object-names", "bool-and-null-names", "number-names", "nested-names",
            "empty-names", "float-schema-version", "fractional-n", "string-n",
            "fractional-subjects",
            "negative-subjects", "one-subject",
        ],
    )
    def test_rejects_untrustworthy_fields(self, tmp_path, rng, field, value):
        from spdconn import TimeSeries

        path = write_model_doc(tmp_path, **{field: value})
        with pytest.raises(InvalidInputError, match="model.json"):
            sio.read_model(path)
        subject = tmp_path / "s.csv"
        write_series_csv(subject, TimeSeries(rng.standard_normal((30, 2)), ("a", "b")))
        assert main(["likelihood", "--model", str(path), str(subject)]) == 1

    @pytest.mark.parametrize("n", [0, -1, True])
    def test_cli_refuses_a_bad_region_count(self, tmp_path, rng, capsys, n):
        from spdconn import TimeSeries

        # sigma_star has n * n values, so only the count check refuses it
        path = write_model_doc(tmp_path, n=n, sigma_star=[1.0] * n * n, region_names=None)
        subject = tmp_path / "s.csv"
        write_series_csv(subject, TimeSeries(rng.standard_normal((30, 2)), ("a", "b")))
        assert main(["likelihood", "--model", str(path), str(subject)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed model document: n must be an integer >= 1, got {n}\n"
        )

    @staticmethod
    def assert_refused(tmp_path, rng, capsys, path):
        from spdconn import TimeSeries

        with pytest.raises(InvalidInputError, match="model.json"):
            sio.read_model(path)
        subject = tmp_path / "s.csv"
        write_series_csv(subject, TimeSeries(rng.standard_normal((30, 2)), ("a", "b")))
        assert main(["likelihood", "--model", str(path), str(subject)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_rejects_a_boolean_schema_version(self, tmp_path, rng, capsys):
        # True == 1, so a plain comparison with the schema version lets it in
        self.assert_refused(tmp_path, rng, capsys, write_model_doc(tmp_path, schema_version=True))

    @pytest.mark.parametrize("sigma", [True, "0.1", 10**400], ids=["bool", "string", "huge-int"])
    def test_rejects_a_sigma_that_is_not_a_number(self, tmp_path, rng, capsys, sigma):
        self.assert_refused(tmp_path, rng, capsys, write_model_doc(tmp_path, sigma=sigma))

    @pytest.mark.parametrize(
        "sigma_star",
        [
            [True, False, False, True],
            [True, 0, 0, 1],  # numpy would make this an integer array
            ["1", "0", "0", "1"],
            [1.0, None, None, 1.0],
            [[1.0], [0.0, 1.0, 0.0]],
        ],
        ids=["bools", "bool-among-ints", "strings", "nulls", "ragged"],
    )
    def test_rejects_a_sigma_star_that_is_not_numbers(self, tmp_path, rng, capsys, sigma_star):
        self.assert_refused(tmp_path, rng, capsys, write_model_doc(tmp_path, sigma_star=sigma_star))

    @pytest.mark.parametrize("sigma_star", [[1.0, 0.3, 1.0], [1.0] * 9], ids=["short", "long"])
    def test_rejects_a_sigma_star_of_the_wrong_size(self, tmp_path, rng, capsys, sigma_star):
        path = write_model_doc(tmp_path, sigma_star=sigma_star)
        message = f"{path}: sigma_star has {len(sigma_star)} values, expected 4"
        with pytest.raises(InvalidInputError) as err:
            sio.read_model(path)
        assert str(err.value) == message
        self.assert_refused(tmp_path, rng, capsys, path)

    def test_accepts_integer_entries_in_sigma_star(self, tmp_path):
        model = sio.read_model(write_model_doc(tmp_path, sigma_star=[[2, 0], [0, 1]], sigma=1))
        assert model.mean.dtype == np.float64 and model.mean.tolist() == [[2.0, 0.0], [0.0, 1.0]]
        assert model.sigma == 1.0 and type(model.sigma) is float

    def test_accepts_zero_sigma(self, tmp_path):
        # a fit to identical subjects writes sigma 0
        assert sio.read_model(write_model_doc(tmp_path, sigma=0.0)).sigma == 0.0

    @pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"), ("[1]", "list")])
    def test_rejects_a_document_that_is_not_an_object(self, tmp_path, text, kind):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as err:
            sio.read_model(path)
        assert str(err.value) == f"{path}: expected a JSON object, got {kind}"


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

    def test_confounds_must_match_the_controls(self, demo, tmp_path, capsys):
        out = tmp_path / "model.json"
        controls, confounds = demo["controls"], demo["controls"][:2]
        code = main(["fit", "--controls", *controls, "--confounds", *confounds, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: 2 confound files for {len(controls)} subjects\n"
        assert not out.exists()


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

    @pytest.mark.usefixtures("one_worker")
    def test_estimates_each_subject_once(self, demo, tmp_path, monkeypatch):
        from spdconn import estimators

        calls = []
        original = estimators.correlation_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimators, "correlation_matrix", counting)
        args = [
            "test", "--controls", *demo["controls"], "--patient", demo["patient"],
            "--m", "5", "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 0
        assert len(calls) == len(demo["controls"]) + 1

    @pytest.mark.usefixtures("one_worker")
    def test_validates_each_stack_once(self, demo, tmp_path, monkeypatch):
        # the controls and the patient are each estimated, validated, and
        # fitted or scored once, and the model carries the regions' names
        from spdconn import geometry

        calls, reports = [], []
        original = geometry.validate_spd_stack

        def counting(mats):
            calls.append(1)
            return original(mats)

        for name, module in list(sys.modules.items()):
            if name.startswith("spdconn") and getattr(module, "validate_spd_stack", None) is original:
                monkeypatch.setattr(module, "validate_spd_stack", counting)
        write = sio.write_report
        monkeypatch.setattr(sio, "write_report",
                            lambda path, report, **kw: reports.append(report) or write(path, report, **kw))
        args = [
            "test", "--controls", *demo["controls"], "--patient", demo["patient"],
            "--m", "5", "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 0
        assert len(calls) == 2
        with open(demo["controls"][0]) as handle:
            header = tuple(handle.readline().strip().split(","))
        assert [r.region_names for r in reports] == [header]

    def test_controls_with_a_byte_order_mark_pair_with_a_patient_without(self, demo, tmp_path):
        marked = []
        for path in demo["controls"]:
            copy = tmp_path / os.path.basename(path)
            with open(path, "rb") as handle:
                copy.write_bytes(b"\xef\xbb\xbf" + handle.read())
            marked.append(str(copy))
        reports = []
        for controls in (demo["controls"], marked):
            out = tmp_path / f"r{len(reports)}.csv"
            args = ["test", "--controls", *controls, "--patient", demo["patient"], "--m", "5"]
            assert main(args + ["--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("case", ["constant", "renamed"])
    def test_a_refused_control_fails_before_the_warning(self, demo, tmp_path, capsys, case):
        from spdconn import TimeSeries

        ts = sio.read_time_series(demo["controls"][0])
        bad = str(tmp_path / "bad.csv")
        if case == "constant":
            write_series_csv(bad, TimeSeries(np.ones_like(ts.values), ts.region_names))
            message = "error: all-constant input: covariance has zero trace"
        else:
            write_series_csv(bad, TimeSeries(ts.values, ts.region_names[::-1]))
            message = "error: subjects have inconsistent region names"
        out = tmp_path / "r.csv"
        # --m 5 warns on controls that can be estimated
        args = [
            "test", "--controls", *demo["controls"], bad, "--patient", demo["patient"],
            "--m", "5", "--out", str(out),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_too_few_controls_fail_without_a_warning(self, demo, tmp_path, monkeypatch, capsys):
        from spdconn import group, inference

        fits = []
        for module in (cli, group, inference):
            monkeypatch.setattr(module, "fit_stack", lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "r.csv"
        # 2 controls would also warn that no pair can be significant
        args = [
            "test", "--controls", *demo["controls"][:2], "--patient", demo["patient"],
            "--m", "5", "--out", str(out),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == ["error: need at least 3 controls to build a null"]
        assert not out.exists()
        assert fits == []

    def test_refuses_one_region(self, tmp_path, rng, capsys):
        from spdconn import TimeSeries

        paths = []
        for k in range(5):
            paths.append(str(tmp_path / f"s{k}.csv"))
            write_series_csv(paths[-1], TimeSeries(rng.standard_normal((30, 1)), ("a",)))
        out = tmp_path / "r.csv"
        args = ["test", "--controls", *paths[:4], "--patient", paths[4], "--m", "5", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: need at least 2 regions")
        assert not out.exists()
        # a fit takes one region
        assert main(["fit", "--controls", *paths, "--out", str(tmp_path / "model.json")]) == 0

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("case", ["alpha", "regions", "m", "seed"])
    def test_rejects_bad_arguments_before_bootstrap(self, demo, tmp_path, monkeypatch, capsys, case):
        from spdconn import TimeSeries, group, inference

        fits = []
        original = group.fit_stack

        def counting(*args, **kwargs):
            fits.append(1)
            return original(*args, **kwargs)

        for module in (cli, group, inference):
            monkeypatch.setattr(module, "fit_stack", counting)
        patient = demo["patient"]
        extra = {"alpha": ["--alpha", "1.5"], "m": ["--m", "0"], "seed": ["--seed", "-1"]}.get(case, [])
        if case == "regions":
            ts = sio.read_time_series(patient)
            patient = str(tmp_path / "permuted.csv")
            write_series_csv(patient, TimeSeries(ts.values, ts.region_names[::-1]))
        reads = []
        read = sio.read_time_series
        monkeypatch.setattr(sio, "read_time_series", lambda path: reads.append(path) or read(path))
        args = [
            "test", "--controls", *demo["controls"], "--patient", patient,
            "--m", "50", "--out", str(tmp_path / "r.csv"), *extra,
        ]
        assert main(args) == 1
        assert fits == []
        assert capsys.readouterr().err.startswith("error: ")
        # the arguments are checked before any CSV is read
        assert (reads == []) == (case != "regions")

    def test_seed_changes_report(self, demo, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        base = [
            "test", "--controls", *demo["controls"], "--patient", demo["patient"], "--m", "20",
        ]
        main(base + ["--seed", "1", "--out", str(out1)])
        main(base + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("m, warns", [(199, True), (200, False)])
    def test_warns_when_bonferroni_cannot_reject(self, demo, tmp_path, capsys, m, warns):
        # n=5 regions, P=10 pairs: a corrected p-value can fall below 0.05
        # only when m + 1 > P / alpha = 200
        out = tmp_path / "r.csv"
        args = [
            "test", "--controls", *demo["controls"], "--patient", demo["patient"],
            "--m", str(m), "--seed", "3", "--parametrization", "flat", "--out", str(out),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        if warns:
            (line,) = captured.err.splitlines()
            assert line.startswith("warning: ") and line.endswith("use --m 200 or more")
        else:
            assert captured.err == ""
        # stdout and the report are those of scoring a stored null
        controls = [sio.read_time_series(path) for path in demo["controls"]]
        null = build_null(controls, m, 3, parametrization="flat")
        patient = sio.read_time_series(demo["patient"])
        subject_id = os.path.splitext(os.path.basename(demo["patient"]))[0]
        report = test_patient(patient, null, subject_id=subject_id)
        expected = tmp_path / "expected.csv"
        sio.write_report(expected, report, m=m, seed=3)
        assert out.read_bytes() == expected.read_bytes()
        assert captured.out.splitlines() == [
            "pairs_tested: 10",
            f"significant_corrected: {report.n_significant(corrected=True)}",
            f"significant_raw: {report.n_significant(corrected=False)}",
        ]

    @pytest.fixture(scope="class")
    def fifteen_regions(self, tmp_path_factory):
        """21 subjects with 15 regions, P=105 pairs: the first 20 are
        controls, the last is the patient."""
        root = tmp_path_factory.mktemp("fifteen")
        paths = []
        for k, ts in enumerate(sample_time_series(SimConfig(n=15, n_controls=21, sigma=0.05, seed=8), t=60)):
            paths.append(str(root / f"s{k}.csv"))
            write_series_csv(paths[-1], ts)
        return paths

    @pytest.mark.parametrize("s_count, warns", [(4, True), (5, True), (20, False)])
    def test_warns_when_few_controls_cannot_reject(self, fifteen_regions, tmp_path, capsys, s_count, warns):
        # a resample of one control happens with probability (S-1)**(1-S),
        # and 105 times that is below alpha = 0.05 from 6 controls on; m=2100
        # puts the Bonferroni floor of m below alpha
        args = [
            "test", "--controls", *fifteen_regions[:s_count], "--patient", fifteen_regions[-1],
            "--m", "2100", "--parametrization", "flat", "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 0
        err = capsys.readouterr().err
        if warns:
            (line,) = err.splitlines()
            assert line.startswith(f"warning: no pair can be significant: with {s_count} controls")
            assert line.endswith("use 6 controls or more")
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "alpha, advice",
        [
            ("1e-20", "use --m 1000000000000000196608 or more"),
            ("1e-30", "use --m 10000000000000000198846248386561 or more"),
            ("5e-324", "no --m can reach it"),
        ],
    )
    def test_warning_ends_at_any_alpha(self, demo, tmp_path, alpha, advice):
        # P / alpha is beyond 2**53, where m + 1.0 stops growing by 1, and
        # beyond the largest float; a subprocess with a timeout makes a
        # search that never ends fail instead of hanging the suite
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        args = [
            "test", "--controls", *demo["controls"], "--patient", demo["patient"],
            "--m", "5", "--alpha", alpha, "--out", str(tmp_path / "r.csv"),
        ]
        result = subprocess.run(
            [sys.executable, "-m", "spdconn.cli", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        (line,) = result.stderr.splitlines()
        assert line.startswith("warning: no pair can be significant") and line.endswith(advice)

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

    def test_model_mode_rejects_permuted_columns(self, demo, tmp_path, capsys):
        from spdconn import TimeSeries

        model_path = tmp_path / "model.json"
        main(["fit", "--controls", *demo["controls"], "--out", str(model_path)])
        capsys.readouterr()
        patient = sio.read_time_series(demo["patient"])
        perm = [1, 0, 2, 3, 4]
        permuted = tmp_path / "permuted.csv"
        write_series_csv(permuted, TimeSeries(
            patient.values[:, perm], [patient.region_names[k] for k in perm]
        ))
        code = main(["likelihood", "--model", str(model_path), str(permuted)])
        assert code == 1
        captured = capsys.readouterr()
        assert "regions" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["constant", "four_regions"])
    def test_model_mode_prints_nothing_when_a_subject_fails(self, demo, tmp_path, capsys, case):
        from spdconn import TimeSeries

        model_path = tmp_path / "model.json"
        main(["fit", "--controls", *demo["controls"], "--out", str(model_path)])
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        if case == "constant":
            write_series_csv(bad, TimeSeries(np.ones((60, 5))))
        else:
            # a model without region names cannot refuse by name, only by dimension
            doc = json.loads(model_path.read_text())
            model_path.write_text(json.dumps({**doc, "region_names": None}))
            write_series_csv(bad, TimeSeries(np.random.default_rng(0).standard_normal((60, 4))))
        code = main(["likelihood", "--model", str(model_path), demo["patient"], str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--loo"], "--loo requires --controls"),
            ([], "either --model or --loo is required"),
            (["--model", "m.json"], "no subject files given"),
            (["--loo", "--model", "m.json", "--controls", "c.csv"],
             "--loo reads no --model; give one of them"),
            (["--model", "m.json", "--controls", "c.csv"],
             "--model reads no --controls; leave-one-out needs --loo"),
        ],
        ids=["loo-without-controls", "no-mode", "no-subjects", "loo-with-model", "model-with-controls"],
    )
    def test_refuses_incomplete_arguments(self, demo, capsys, argv, message):
        subjects = [] if "--model" in argv else [demo["patient"]]
        assert main(["likelihood", *subjects, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
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

    def test_config_sigma_star_is_the_group_matrix(self, tmp_path):
        # the default matrix written out reproduces the table; another one
        # changes the draws
        from spdconn import default_group_correlation

        cfg = {
            "n": 6, "n_controls": 8, "sigma": 0.1, "d_sigma": [0.3],
            "k_diffs": 3, "m": 10, "seed": 1, "n_patients": 2,
        }
        tables = []
        for sigma_star in (None, default_group_correlation(6).tolist(), np.eye(6).tolist()):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**cfg, "sigma_star": sigma_star}))
            out = tmp_path / f"table{len(tables)}.csv"
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[1] == tables[0]
        assert tables[2] != tables[0]

    @pytest.mark.parametrize("source, seed", [("flag", -1), ("config", -1), ("config", 2.7), ("config", True)])
    def test_bad_seed_fails(self, tmp_path, capsys, source, seed):
        args = ["simulate", "--n", "6", "--n-controls", "8"]
        if source == "flag":
            args += ["--seed", str(seed)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"seed": seed}))
            args += ["--config", str(cfg_path)]
        out = tmp_path / "t.csv"
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert not out.exists()

    def test_non_integer_config_count_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 6, "n_controls": 8, "k_diffs": 3, "m": 2.5}))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: m must be an integer >= 1, got 2.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("sigma", "0.1", "sigma must be a finite number, got '0.1'"),
        ("sigma", True, "sigma must be a finite number, got True"),
        ("d_sigma", ["a"], "d_sigma must be a finite number, got 'a'"),
        ("d_sigma", [0.5, None], "d_sigma must be a finite number, got None"),
        ("d_sigma", "0.5", "d_sigma must be a finite number, got '0.5'"),
        ("d_sigma", None, "d_sigma must be a finite number, got None"),
    ])
    def test_non_numeric_config_amplitude_fails(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 6, "n_controls": 8, "k_diffs": 3, "m": 5, key: value}))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("{", "not valid JSON: "),
        ("5", "expected a JSON object, got int"),
        ("null", "expected a JSON object, got NoneType"),
        (
            json.dumps({"n": 3, "n_controls": 8, "k_diffs": 1,
                        "sigma_star": [["a", 0, 0], [0, 1, 0], [0, 0, 1]]}),
            "sigma_star: could not convert string to float: 'a'",
        ),
    ], ids=["malformed-json", "number", "null", "non-numeric-sigma-star"])
    def test_malformed_config_fails_naming_the_file(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: {message}")
        assert not out.exists()

    def test_empty_d_sigma_grid_fails_before_any_experiment(self, tmp_path, monkeypatch, capsys):
        experiments = []
        monkeypatch.setattr(cli, "roc_experiment", experiments.append)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 6, "n_controls": 8, "k_diffs": 3, "m": 5, "d_sigma": []}))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: d_sigma grid is empty; give at least one value\n"
        assert experiments == []
        assert not out.exists()

    def test_every_pair_injected_fails_without_a_table(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        args = ["simulate", "--n", "3", "--n-controls", "6", "--k-diffs", "3", "--m", "20",
                "--n-patients", "2", "--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.startswith("error: k_diffs must be at most 2 for n=3: ")
        assert not out.exists()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 6, "n_controls": 8, "bogus": 1}))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")])
        assert code != 0
        assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "test", "likelihood", "likelihood-model", "simulate"])
def test_input_that_is_not_utf8_fails_naming_the_file(demo, tmp_path, capsys, command):
    controls, out = demo["controls"], str(tmp_path / "out")
    bad = tmp_path / ("bad.json" if command in ("likelihood-model", "simulate") else "bad.csv")
    if bad.suffix == ".csv":
        bad.write_bytes(b"a,b\n1.0,2.0\n3.0,\xff\n")
    else:
        bad.write_bytes(b'{"n": 6, "region_names": ["\xff"]}')
    argv = {
        "fit": ["fit", "--controls", *controls, str(bad), "--out", out],
        "test": ["test", "--controls", *controls, "--patient", str(bad), "--m", "5", "--out", out],
        "likelihood": ["likelihood", "--loo", "--controls", *controls, str(bad)],
        "likelihood-model": ["likelihood", "--model", str(bad), demo["patient"]],
        "simulate": ["simulate", "--config", str(bad), "--out", out],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid UTF-8: ")
    assert not os.path.exists(out)


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("command, is_directory", [  # or --out names a directory
    pytest.param(command, is_directory, id=command + "-directory" * is_directory)
    for is_directory in (False, True) for command in ("fit", "test", "simulate")
])
def test_out_in_a_missing_directory_fails_before_any_work(demo, tmp_path, monkeypatch, capsys, command,
                                                          is_directory):
    from spdconn import group, inference

    fits = []
    original = group.fit_stack

    def counting(*args, **kwargs):
        fits.append(1)
        return original(*args, **kwargs)

    for module in (cli, group, inference):
        monkeypatch.setattr(module, "fit_stack", counting)
    reads = []
    read = sio.read_time_series
    monkeypatch.setattr(sio, "read_time_series", lambda path: reads.append(path) or read(path))
    missing = tmp_path / "missing"
    out, problem = str(missing / "out.csv"), "its directory does not exist"
    if is_directory:
        out, problem = str(tmp_path), "it is a directory"
    # --m 5 would warn that Bonferroni cannot reject
    argv = {
        "fit": ["fit", "--controls", *demo["controls"], "--out", out],
        "test": ["test", "--controls", *demo["controls"], "--patient", demo["patient"], "--m", "5",
                 "--out", out],
        "simulate": ["simulate", "--n", "6", "--n-controls", "8", "--k-diffs", "3", "--m", "5",
                     "--out", out],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --out {out}: {problem}\n"
    assert fits == [] and reads == []
    assert not missing.exists()


@pytest.mark.parametrize("command, flag", [
    ("fit", "--controls"), ("fit", "--confounds"), ("test", "--controls"), ("test", "--patient"),
    ("simulate", "--config"),
])
def test_out_that_names_an_input_fails_before_any_work(demo, tmp_path, monkeypatch, capsys, command,
                                                       flag):
    from spdconn import group, inference

    fits = []
    for module in (cli, group, inference):
        monkeypatch.setattr(module, "fit_stack", lambda *args, **kwargs: fits.append(args))
    reads = []
    read = sio.read_time_series
    monkeypatch.setattr(sio, "read_time_series", lambda path: reads.append(path) or read(path))
    # copies, so that a failure leaves the shared demo files as they are
    controls = []
    for k, path in enumerate(demo["controls"]):
        controls.append(str(tmp_path / f"s{k}.csv"))
        Path(controls[-1]).write_bytes(Path(path).read_bytes())
    patient = str(tmp_path / "patient.csv")
    Path(patient).write_bytes(Path(demo["patient"]).read_bytes())
    confounds = []
    for k in range(len(controls)):
        confounds.append(str(tmp_path / f"c{k}.csv"))
        Path(confounds[-1]).write_text("drift\n" + "".join(f"{v}.0\n" for v in range(60)))
    config = str(tmp_path / "cfg.json")
    Path(config).write_text(json.dumps({"n": 6, "n_controls": 8, "k_diffs": 3, "m": 5}))
    target = {"--controls": controls[1], "--confounds": confounds[2], "--patient": patient,
              "--config": config}[flag]
    before = Path(target).read_bytes()
    # another spelling of the same file
    out = os.path.join(os.path.dirname(target), ".", os.path.basename(target))
    argv = {
        "fit": ["fit", "--controls", *controls, "--confounds", *confounds, "--out", out],
        "test": ["test", "--controls", *controls, "--patient", patient, "--m", "5", "--out", out],
        "simulate": ["simulate", "--config", config, "--out", out],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --out {out}: it is the input {target}\n"
    assert fits == [] and reads == []
    assert Path(target).read_bytes() == before


@pytest.mark.parametrize("command", ["fit", "test", "simulate"])
def test_outputs_take_the_umask(demo, tmp_path, capsys, command):
    # written as open() writes: 0o666 less the umask, not mkstemp's 0o600
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--controls", *demo["controls"], "--out", str(out)],
        "test": ["test", "--controls", *demo["controls"], "--patient", demo["patient"], "--m", "5",
                 "--out", str(out)],
        "simulate": ["simulate", "--n", "6", "--n-controls", "8", "--k-diffs", "3", "--m", "5",
                     "--out", str(out)],
    }[command]
    umask = os.umask(0o022)
    try:
        assert main(argv) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o644


SPDCONN_ERRORS = [
    cls for cls in vars(exceptions).values()
    if isinstance(cls, type) and cls.__module__ == exceptions.__name__
]


@pytest.mark.parametrize("error", SPDCONN_ERRORS, ids=lambda cls: cls.__name__)
def test_cli_reports_every_spdconn_error(tmp_path, monkeypatch, capsys, error):
    # a new exception class cannot slip past the CLI's catch
    assert issubclass(error, exceptions.SpdconnError)

    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_fit", fail)
    assert main(["fit", "--controls", "a.csv", "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err == "error: boom\n"
