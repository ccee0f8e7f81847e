"""File formats for the command-line workflows.

Time series are delimited text with one row per time point, one column per
region, and region names in the first row.  Fitted models are single JSON
documents with full-precision numbers.  Reports and simulation tables are
delimited text with a header; all files are written atomically.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile

import numpy as np

from .estimators import TimeSeries, as_region_names
from .exceptions import InvalidInputError, NearSingularError, check_finite, check_integer
from .geometry import validate_spd
from .group import TANGENT, GroupModel
from .inference import TestReport

MODEL_SCHEMA_VERSION = 1


def _atomic_write_text(path, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # as open() would; mkstemp gives 0o600
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, line ends untranslated and a leading
    byte-order mark dropped; a file that does not decode is refused by name."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid UTF-8: {exc}") from None


def read_json_object(path) -> dict:
    """Load a JSON object from a UTF-8 file; a file that does not decode,
    does not parse or holds another JSON value raises ``InvalidInputError``
    naming it."""
    path = os.fspath(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _detect_delimiter(line: str) -> str | None:
    for candidate in ("\t", ",", ";"):
        if candidate in line:
            return candidate
    return None  # whitespace


def _fields(line: str, delimiter: str | None) -> list[str]:
    if delimiter is None:
        return line.split()
    return next(csv.reader([line], delimiter=delimiter))


def _parse_rows(path, lines, delimiter, width) -> np.ndarray:
    """Data rows parsed one at a time with ``float``; names the first
    faulty row (1-based among the non-blank lines, header first)."""
    values = np.empty((len(lines) - 1, width))
    for r, line in enumerate(lines[1:], start=2):
        row = _fields(line, delimiter)
        if len(row) != width:
            raise InvalidInputError(
                f"{path}: row {r} has {len(row)} fields, expected {width}"
            )
        try:
            values[r - 2] = [float(c) for c in row]
        except ValueError as exc:
            raise InvalidInputError(f"{path}: row {r}: {exc}") from None
    return values


def read_time_series(path) -> TimeSeries:
    """Load a delimited time-series table; first row holds region names.

    Blank lines are skipped.  The data rows go through ``np.loadtxt``; a
    table it refuses is parsed again row by row, which either reads it
    (``float`` also takes quoted cells and a few spellings ``loadtxt``
    does not) or names the first faulty row.
    """
    path = os.fspath(path)
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if len(lines) < 3:
        raise InvalidInputError(
            f"{path}: need a header row and at least 2 time points"
        )
    delimiter = _detect_delimiter(lines[0])
    names = [c.strip() for c in _fields(lines[0], delimiter)]
    width = len(names)
    try:
        values = np.loadtxt(lines[1:], delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape[1] != width:
        values = _parse_rows(path, lines, delimiter, width)
    try:
        return TimeSeries(values, tuple(names))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def write_model(path, model: GroupModel):
    """Persist the fitted group model as a JSON document.

    Numbers round-trip exactly: JSON floats are written with Python's
    shortest-repr encoding.  The document stores no parametrization and
    :func:`read_model` loads a tangent model, so a flat model raises
    ``InvalidInputError`` before any file is written.
    """
    if model.parametrization != TANGENT:
        raise InvalidInputError(f"only a tangent model can be saved, got {model.parametrization!r}")
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n": model.n,
        "region_names": list(model.region_names or ()) or None,
        "sigma_star": [float(x) for x in model.mean.ravel()],
        "sigma": float(model.sigma),
        "n_subjects": int(model.n_subjects),
    }
    _atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def read_model(path) -> GroupModel:
    """Load a model document; the stored matrix must pass the SPD check."""
    path = os.fspath(path)
    doc = read_json_object(path)
    version = doc.get("schema_version")
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:  # refuses True and 1.0
        raise InvalidInputError(f"{path}: unsupported schema_version {version!r}")
    try:
        n, n_subjects, sigma = doc["n"], doc["n_subjects"], doc["sigma"]
        check_integer("n", n, 1)
        check_integer("n_subjects", n_subjects, 2)  # as fit_stack requires
        check_finite("sigma", sigma)
        # JSON gives int or float for a number; a bool or string is refused
        stored = np.asarray(doc["sigma_star"], dtype=object)
        bad = [x for x in stored.flat if type(x) not in (int, float)]
        if bad:
            raise InvalidInputError(f"sigma_star must hold only numbers, got {bad[0]!r}")
        values = stored.astype(np.float64)
        names = doc.get("region_names")
        if names is not None:  # an empty list is a wrong count, not null
            if type(names) is not list or any(type(x) is not str for x in names):
                raise InvalidInputError(f"region_names must be a list of strings, got {names!r}")
            names = as_region_names(names, n)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{path}: malformed model document: {exc}") from None
    # sigma == 0 is legitimate: a fit to identical subjects writes it
    if sigma < 0:
        raise InvalidInputError(f"{path}: sigma must be >= 0, got {sigma!r}")
    if values.size != n * n:
        raise InvalidInputError(
            f"{path}: sigma_star has {values.size} values, expected {n * n}"
        )
    try:
        mean = validate_spd(values.reshape(n, n))
    except (InvalidInputError, NearSingularError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    return GroupModel(
        mean=mean,
        sigma=float(sigma),
        n_subjects=n_subjects,
        parametrization=TANGENT,
        region_names=names,
    )


def format_report(report: TestReport, m: int, seed: int) -> str:
    """Render a test report as commented metadata plus a CSV table."""
    names = report.region_names or tuple(
        f"r{k:02d}" for k in range(max(p.i for p in report.pairs) + 1)
    )
    buf = _io.StringIO()
    buf.write(f"# subject_id: {report.subject_id}\n")
    buf.write(f"# alpha: {report.alpha!r}\n")
    buf.write(f"# m: {m}\n")
    buf.write(f"# seed: {seed}\n")
    buf.write(f"# parametrization: {report.parametrization}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["region_i", "region_j", "t", "p_raw", "p_corrected", "direction"])
    for p in report.pairs:
        writer.writerow(
            [names[p.i], names[p.j], repr(p.t), repr(p.p_raw), repr(p.p_corrected), p.direction]
        )
    return buf.getvalue()


def write_report(path, report: TestReport, m: int, seed: int):
    _atomic_write_text(path, format_report(report, m, seed))


ROC_TABLE_HEADER = (
    "record",
    "parametrization",
    "d_sigma",
    "sigma",
    "n_controls",
    "threshold",
    "fpr",
    "tpr",
    "auc",
)


def format_roc_table(rows) -> str:
    """Render simulation results: curve point rows and AUC summary rows."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROC_TABLE_HEADER)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_roc_table(path, rows):
    _atomic_write_text(path, format_roc_table(rows))
