"""Every numeric file the package reads (bundle coefficients, convergence
records, points and samples) is parsed by ``grid._read_table``, by one rule
set: commas or whitespace separate numbers, ``#`` starts a comment, the first
line that is neither blank nor a comment is a header if none of its fields is
a number, and a non-finite number is named by its line."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

from mvnewton.analysis import ConvergenceRecord
from mvnewton.cli import main
from mvnewton.grid import _read_table, axes_for, build_grid
from mvnewton.multi_index import make_lp_set
from mvnewton.newton import interpolate, load_bundle, save_bundle

SRC = Path(__file__).resolve().parents[1] / "src" / "mvnewton"

INDEX_SET = make_lp_set(2, 3, 2)


def run(argv):
    return main([str(a) for a in argv])


def _save_bundle(directory):
    grid = build_grid(INDEX_SET, axes_for(INDEX_SET, "lcl"))
    save_bundle(interpolate(lambda x: np.exp(x[:, 0] - 0.3 * x[:, 1]), grid), directory)


def _bundle_file(tmp_path):
    _save_bundle(tmp_path / "b")
    path = tmp_path / "b" / "coefficients.csv"
    return path, path.read_text(), ["a1", "a2", "c"]


def _read_bundle(path):
    poly = load_bundle(path.parent)
    axes = [axis.points.view(np.int64).tolist() for axis in poly.grid.axes]
    return poly.grid.index_set.exponents.tolist(), poly.coeffs.view(np.int64).tolist(), axes


def _record_file(tmp_path):
    meta = {"function": "runge", "deriv_order": "0,0"}
    record = ConvergenceRecord((2, 4, 6), (6, 15, 28), (0.125, 1.5e-3, 2.5e-307), meta)
    path = tmp_path / "record.csv"
    path.write_text(record.to_csv_text(), newline="")
    return path, path.read_text(), ["n", "num_coeffs", "error"]


def _points_file(tmp_path):
    _save_bundle(tmp_path / "b")
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2\n0.5,-0.25\n-1,0.125\n1e-3,0\n")
    return path, path.read_text(), ["x1", "x2"]


def _read_points(path):
    out = path.with_name("values.csv")
    out.unlink(missing_ok=True)
    assert run(["eval", "--bundle", path.with_name("b"), "--points", path, "--out", out]) == 0
    return out.read_bytes()


def _samples_file(tmp_path):
    path = tmp_path / "samples.txt"
    values = np.cos(np.arange(len(INDEX_SET)) / 3.0)
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
    return path, path.read_text(), ["value"]


def _read_samples(path):
    out = path.with_name("bundle")
    assert run(["interpolate", "-m", 2, "-n", 3, "--values", path, "--out", out]) == 0
    return (out / "coefficients.csv").read_bytes()


CALLERS = {
    "bundle coefficients": (_bundle_file, _read_bundle),
    "convergence record": (_record_file, ConvergenceRecord.from_csv),
    "points": (_points_file, _read_points),
    "samples": (_samples_file, _read_samples),
}


def _variants(text):
    """The table of ``text`` (its leading ``#`` lines, a header, then rows)
    written in the other ways the reader accepts."""
    lines = text.splitlines()
    lead = [line for line in lines if line.startswith("#")]
    header, *rows = lines[len(lead):]
    yield "whitespace", [*lead, *(line.replace(",", " \t ") for line in [header, *rows])]
    yield "comments", [*lead, "", header + "  # the names", *(f"{row} # row" for row in rows),
                       "", "# the end"]
    yield "no header", [*lead, *rows]
    yield "spaces, no header", [*lead, "", *(row.replace(",", " ") for row in rows)]


@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_reads_every_layout_of_the_same_numbers_alike(tmp_path, caller):
    make, read = CALLERS[caller]
    path, text, header = make(tmp_path)
    assert _read_table(path)[1] == header
    expected = read(path)
    for name, lines in _variants(text):
        path.write_text("\n".join(lines) + "\n")
        assert read(path) == expected, name


def test_a_malformed_first_row_is_no_header(tmp_path, capsys):
    _save_bundle(tmp_path / "b")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,oops\n0.1,0.2\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert "malformed file" in capsys.readouterr().err
    assert not out.exists()
    # a line with a number among other fields is a row, however it is placed
    pts.write_text("# note\n\nx1, 2\n0.1,0.2\n")
    with pytest.raises(ValueError, match="could not convert string 'x1'"):
        _read_table(pts)


@pytest.mark.parametrize(
    "text, line",
    [
        ("0.5,oops\n0.1,0.2\n", 1),  # a field that is no number
        ("# note\n\nx1, 2\n0.1,0.2\n", 3),  # below a comment and a blank line
        ("x1,x2\n0.1,0.2\n0.3\n", 3),  # a row one number short, under a header
        ("x\n1\n2_0\n", 3),  # float() reads 2_0, np.loadtxt does not
    ],
)
def test_a_malformed_row_is_named_by_its_file_line(tmp_path, text, line):
    path = tmp_path / "table.csv"
    path.write_text(text)
    message = f"^malformed file {re.escape(str(path))} at line {line}: "
    with pytest.raises(ValueError, match=message) as err:
        _read_table(path)
    assert " row " not in str(err.value)


def test_a_record_needs_integral_counts_and_finite_numbers(tmp_path):
    path, text, _ = _record_file(tmp_path)
    lines = text.splitlines()
    assert lines[2] == "n,num_coeffs,error" and lines[3].startswith("2,6,")
    for bad in ("2.5,6,0.125", "2,6.5,0.125", "-2,6,0.125"):
        path.write_text("\n".join([*lines[:3], bad, *lines[4:]]))
        with pytest.raises(ValueError, match="non-negative integers"):
            ConvergenceRecord.from_csv(path)
    path.write_text("\n".join([*lines[:4], "4,15,inf", *lines[5:]]))
    message = f"line 5 of {path} holds a number that is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConvergenceRecord.from_csv(path)


def test_a_coefficient_file_needs_integral_exponents_and_finite_numbers(tmp_path, capsys):
    path, text, _ = _bundle_file(tmp_path)
    lines = text.splitlines()
    assert lines[2].startswith("1,0,")  # an exponent, read as a float, must be integral
    path.write_text("\n".join([*lines[:2], "0.5" + lines[2][1:], *lines[3:]]) + "\n")
    with pytest.raises(ValueError, match="^exponents must be non-negative integers$"):
        load_bundle(path.parent)
    lines[3] = lines[3].rpartition(",")[0] + ",-inf"
    path.write_text("\n".join(lines) + "\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    message = f"line 4 of {path} holds a number that is not finite"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_numeric_text_is_parsed_at_one_call_site():
    # np.loadtxt in grid._read_table; a second parser would bring a second rule set back
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("loadtxt", "genfromtxt", "fromstring")
    ]
    assert len(sites) == 1 and sites[0].startswith("grid.py:"), sites
