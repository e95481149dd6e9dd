import argparse
import contextlib
import io
import json
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run
from mvnewton import cli, multi_index
from mvnewton.cli import parse_degrees, parse_p
from mvnewton.grid import Nodes1D, build_grid, chebyshev_lobatto, leja_order
from mvnewton.multi_index import make_lp_set
from mvnewton.newton import NewtonPolynomial, interpolate, load_bundle, save_bundle

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_p():
    assert parse_p("1") == 1
    assert parse_p("2") == 2
    assert parse_p("inf") == math.inf
    assert parse_p("2.5") == 2.5
    with pytest.raises(Exception):
        parse_p("zero")
    with pytest.raises(Exception):
        parse_p("nan")


def test_parse_degrees():
    assert parse_degrees("4:8") == [4, 5, 6, 7, 8]
    assert parse_degrees("4:10:2") == [4, 6, 8, 10]
    assert parse_degrees("3,5,9") == [3, 5, 9]
    assert parse_degrees("0:2") == [0, 1, 2]
    for text in ("4,-1", "-2:3", "-3:-1"):
        with pytest.raises(argparse.ArgumentTypeError, match="^degrees must be non-negative"):
            parse_degrees(text)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lebesgue", "-m", 2, "--degrees", "4,-1"], "--degrees"),
        (["lebesgue", "-m", 2, "--degrees=-2:3"], "--degrees"),
        (["convergence", "-m", 1, "--function", "runge", "--degrees", "4,5,6,-1"], "--degrees"),
        (["nodes", "-m", 2, "-n", -1], "-n/--degree"),
        (["interpolate", "-m", 2, "-n", -1, "--function", "runge"], "-n/--degree"),
    ],
)
def test_negative_degrees_are_refused_before_any_computation(tmp_path, capsys, argv, flag):
    # lebesgue printed the row of degree 4 and only then failed on -1
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err and "must be non-negative" in captured.err
    assert not out.exists()


def test_nodes_writes_grid_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run(["nodes", "-m", 2, "-n", 5, "-p", 2, "--family", "lcl", "--out", out]) == 0
    assert f"num_indices={len(make_lp_set(2, 5, 2))}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "a1,a2,x1,x2"
    assert len(lines) - 1 == len(make_lp_set(2, 5, 2))


def test_nodes_1d_axis_is_leja_ordered(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run(["nodes", "-m", 1, "-n", 2, "--family", "lcl", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "axis1: 1 -1 0" in printed


def test_nodes_rejects_zero_dimension(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["nodes", "-m", 0, "-n", 2, "--out", out]) == 2
    assert not out.exists()  # no partial output


def test_interpolate_and_eval_round_trip(tmp_path):
    bundle = tmp_path / "bundle"
    code = run(
        ["interpolate", "-m", 2, "-n", 10, "-p", 2, "--family", "lcl",
         "--function", "runge", "--out", bundle]
    )
    assert code == 0
    assert (bundle / "header.json").exists()
    header = json.loads((bundle / "header.json").read_text())
    assert header["m"] == 2
    # the header carries the points of each axis, and no family or set tag
    assert set(header) == {"m", "num_coeffs", "axes"}
    assert header["axes"] == [leja_order(chebyshev_lobatto(10)).points.tolist()] * 2

    # re-evaluation at the grid nodes reproduces the samples
    grid_lines = (bundle / "grid.csv").read_text().splitlines()[1:]
    pts_file = tmp_path / "nodes.csv"
    pts_file.write_text("\n".join(",".join(l.split(",")[2:4]) for l in grid_lines))
    out = tmp_path / "vals.csv"
    assert run(["eval", "--bundle", bundle, "--points", pts_file, "--out", out]) == 0
    rows = out.read_text().splitlines()[1:]
    for line in rows:
        x1, x2, value = (float(v) for v in line.split(","))
        truth = 1.0 / (1.0 + x1 * x1 + x2 * x2)
        assert abs(float(value) - truth) <= 1e-11


def test_eval_derivative_of_product_bundle(tmp_path):
    a = make_lp_set(2, 1, math.inf)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0]))] * 2)
    poly = interpolate(lambda p: p[:, 0] * p[:, 1], grid)
    bundle = tmp_path / "xy"
    save_bundle(poly, bundle)
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", bundle, "--points", pts, "--out", out]) == 0
    assert out.read_text().splitlines()[1].endswith("-0.125")
    assert run(
        ["eval", "--bundle", bundle, "--points", pts, "--deriv", "1,0", "--out", out]
    ) == 0
    assert out.read_text().splitlines()[1].endswith("-0.25")


def test_eval_empty_points_file(tmp_path):
    a = make_lp_set(1, 1, 1)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0]))])
    poly = interpolate(lambda p: p[:, 0], grid)
    bundle = tmp_path / "b"
    save_bundle(poly, bundle)
    pts = tmp_path / "empty.csv"
    pts.write_text("")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", bundle, "--points", pts, "--out", out]) == 0
    assert out.read_text().splitlines() == ["x1,value"]


def test_eval_outside_cube_warns_but_succeeds(tmp_path, capsys):
    a = make_lp_set(1, 1, 1)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0]))])
    save_bundle(interpolate(lambda p: p[:, 0], grid), tmp_path / "b")
    pts = tmp_path / "pts.csv"
    pts.write_text("1.5\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 0
    assert "outside" in capsys.readouterr().err
    assert out.read_text().splitlines()[1] == "1.5,1.5"


def test_eval_malformed_points(tmp_path):
    a = make_lp_set(1, 1, 1)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0]))])
    save_bundle(interpolate(lambda p: p[:, 0], grid), tmp_path / "b")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1\nbad,row\n")
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts,
                "--out", tmp_path / "v.csv"]) == 2


def test_eval_rejects_header_contradicting_coefficients(tmp_path, capsys):
    a = make_lp_set(2, 3, 2)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0, 0.0, 0.5]))] * 2)
    save_bundle(interpolate(lambda p: p[:, 0] * p[:, 1], grid), tmp_path / "b")
    header_file = tmp_path / "b" / "header.json"
    header = json.loads(header_file.read_text())
    assert (header["m"], header["num_coeffs"]) == (2, 11)
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    # three axes and m=3 agree with each other, not with the a1,a2,c columns
    for update, words in (
        ({"num_coeffs": 999}, ("num_coeffs=999", "11 rows")),
        ({"m": 3, "axes": [*header["axes"], header["axes"][0]]}, ("m=3", "2 exponent columns")),
    ):
        header_file.write_text(json.dumps({**header, **update}))
        assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(word in err for word in words), err


@pytest.mark.parametrize(
    "provenance",
    [{"m": 2, "n": 2, "p": 1}, {"m": 2, "n": 3, "p": 2}, {"m": 2, "n": 2, "p": "inf"},
     {"m": 3, "n": 2, "p": 1}, {"m": 2, "n": 10**6, "p": 1}, {"m": 2, "n": 2}, [2, 2, 1], "l1",
     None],
    ids=["its own", "n", "p", "m", "huge n", "no p", "a list", "a string", "null"],
)
def test_load_bundle_ignores_an_older_headers_provenance(tmp_path, capsys, provenance):
    poly = _xy_bundle(tmp_path / "new")  # the l_1 ball of degree 2
    header = json.loads((tmp_path / "new" / "header.json").read_text())
    older = {"m": header["m"], "num_coeffs": header["num_coeffs"], "provenance": provenance,
             "axes": header["axes"]}
    _xy_bundle(tmp_path / "b")
    (tmp_path / "b" / "header.json").write_text(json.dumps(older, indent=2) + "\n")
    back = load_bundle(tmp_path / "b")
    assert np.array_equal(back.grid.index_set.exponents, poly.grid.index_set.exponents)
    assert np.array_equal(back.coeffs.view(np.int64), poly.coeffs.view(np.int64))
    for ours, theirs in zip(back.grid.axes, poly.grid.axes):
        assert np.array_equal(ours.points.view(np.int64), theirs.points.view(np.int64))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 0
    # saved again, the bundle is the one written today, with no provenance
    save_bundle(back, tmp_path / "again")
    for name in ("header.json", "coefficients.csv", "grid.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


@pytest.mark.parametrize(
    "command, deriv",
    [("eval", "1"), ("eval", "0,-1,0"), ("eval", "a,b"), ("convergence", "-1,0"),
     ("convergence", "2,1")],
)
def test_bad_derivative_orders_exit_2_and_write_nothing(tmp_path, capsys, command, deriv):
    if command == "eval":  # a 3D bundle and no points: the order is still checked
        grid = build_grid(make_lp_set(3, 1, 1), [Nodes1D(np.array([1.0, -1.0]))] * 3)
        save_bundle(NewtonPolynomial(grid, [1.0, 2.0, 3.0, 4.0]), tmp_path / "b")
        pts = tmp_path / "empty.csv"
        pts.write_text("")
        argv = ["eval", "--bundle", tmp_path / "b", "--points", pts]
    else:
        argv = ["convergence", "-m", 2, "--function", "runge", "--degrees", "2:8:2",
                "--samples", 50]
    out = tmp_path / "out.csv"
    # with "=", argparse takes a leading "-" as the value, not as a flag
    assert run([*argv, f"--deriv={deriv}", "--out", out]) == 2
    assert "derivative order" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".fit.json").exists()


def test_interpolate_constant_values_file(tmp_path):
    vals = tmp_path / "vals.txt"
    count = len(make_lp_set(2, 2, 1))
    vals.write_text("\n".join(["3.0"] * count))
    bundle = tmp_path / "const"
    assert run(
        ["interpolate", "-m", 2, "-n", 2, "-p", 1, "--values", vals, "--out", bundle]
    ) == 0
    rows = (bundle / "coefficients.csv").read_text().splitlines()[1:]
    nonzero = [r for r in rows if float(r.split(",")[-1]) != 0.0]
    assert len(nonzero) == 1


def test_interpolate_misaligned_values_file(tmp_path, capsys):
    vals = tmp_path / "vals.txt"
    count = len(make_lp_set(2, 2, 1))
    vals.write_text("\n".join(["1.0"] * (count - 1)))
    bundle = tmp_path / "b"
    assert run(
        ["interpolate", "-m", 2, "-n", 2, "-p", 1, "--values", vals, "--out", bundle]
    ) == 2
    assert str(count) in capsys.readouterr().err
    assert not bundle.exists()


def test_numerical_failure_exits_1_and_bad_samples_exit_2(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, yet it is a numerical failure (exit 1)
    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "make_lp_set", singular)
        assert run(["nodes", "-m", 2, "-n", 2, "--out", tmp_path / "g.csv"]) == 1
    assert "numerical failure: singular matrix" in capsys.readouterr().err
    # a non-finite sample (NonFiniteSampleError, also a ValueError) stays exit 2;
    # a samples file never gets this far, since its reader names the line
    bundle = tmp_path / "b"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_function", lambda args: lambda x: np.full(len(x), np.nan))
        assert run(["interpolate", "-m", 1, "-n", 2, "--function", "runge",
                    "--out", bundle]) == 2
    assert capsys.readouterr().err.startswith("error: f returned ")
    assert not bundle.exists()


def test_lebesgue_past_the_double_range_exits_1_and_writes_nothing(tmp_path, capsys):
    # it wrote lambda = 0 and exited 0
    out = tmp_path / "leb.csv"
    assert run(["lebesgue", "-m", 1, "-p", 2, "--degrees", 1100, "--out", out]) == 1
    assert "|alpha|_1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("function, flag, value", [("runge", "r", "nan"), ("f4", "a", "inf")])
def test_convergence_names_a_non_finite_parameter(tmp_path, capsys, function, flag, value):
    out = tmp_path / "c.csv"
    code = run(["convergence", "-m", 2, "--function", function, f"--{flag}", value,
                "--degrees", "2:6", "--out", out])
    assert code == 2
    assert f"parameter {flag}={value} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_interpolate_requires_exactly_one_source(tmp_path):
    assert run(["interpolate", "-m", 1, "-n", 2, "--out", tmp_path / "b"]) == 2
    vals = tmp_path / "v.txt"
    vals.write_text("1\n2\n3\n")
    assert run(
        ["interpolate", "-m", 1, "-n", 2, "--function", "runge", "--values", vals,
         "--out", tmp_path / "b"]
    ) == 2


def test_convergence_writes_record_and_fit(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run(
        ["convergence", "-m", 1, "-p", 2, "--family", "lcl", "--function", "runge",
         "--degrees", "2:14:2", "--samples", 500, "--seed", 3, "--out", out]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "rho=" in printed and "reference_rho=" in printed
    fit = json.loads((tmp_path / "conv.fit.json").read_text())
    assert 1.5 <= fit["rho"] <= 3.5
    lines = out.read_text().splitlines()
    assert any(l.startswith("# function: runge") for l in lines)
    assert "n,num_coeffs,error" in lines


def test_convergence_makes_its_two_outputs_in_one_temporary_directory(tmp_path, monkeypatch):
    made = []
    real = tempfile.TemporaryDirectory

    def counted(*args, **kwargs):
        made.append(kwargs["dir"])
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryDirectory", counted)
    code = run(["convergence", "-m", 1, "--function", "runge", "--degrees", "2:8:2",
                "--samples", 50, "--out", tmp_path / "conv.csv"])
    assert code == 0
    assert made == [str(tmp_path)]
    assert sorted(os.listdir(tmp_path)) == ["conv.csv", "conv.fit.json"]


def test_a_failing_writer_publishes_nothing_and_leaves_nothing_behind(tmp_path):
    (tmp_path / "b.txt").write_text("old")

    def fail(path):
        Path(path).write_text("half")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._publish({tmp_path / "a.txt": cli._text("new"), tmp_path / "b.txt": fail})
    assert sorted(os.listdir(tmp_path)) == ["b.txt"]
    assert (tmp_path / "b.txt").read_text() == "old"
    with pytest.raises(ValueError, match="outputs must share one directory"):
        cli._publish({tmp_path / "a.txt": cli._text("a"), tmp_path / "sub" / "b.txt": fail})
    assert sorted(os.listdir(tmp_path)) == ["b.txt"]


def _fail_first_move_to(monkeypatch, target) -> list:
    """Make the first ``os.replace`` onto ``target`` fail; the list it
    returns gets that move's source."""
    real, failed = os.replace, []

    def replace(source, destination):
        if os.fspath(destination) == str(target) and not failed:
            failed.append(source)
            raise OSError("no space left on device")
        return real(source, destination)

    monkeypatch.setattr(os, "replace", replace)
    return failed


def test_a_failed_move_puts_back_what_it_replaced(tmp_path, monkeypatch, capsys):
    # the record moved in before the fit's move failed, and stayed
    out, fit = tmp_path / "conv.csv", tmp_path / "conv.fit.json"
    argv = ["convergence", "-m", 1, "--function", "runge", "--degrees", "2:8:2",
            "--samples", 50, "--out", out, "--seed"]
    assert run([*argv, 3]) == 0
    before = {path: path.read_bytes() for path in (out, fit)}
    failed = _fail_first_move_to(monkeypatch, fit)
    assert run([*argv, 4]) == 2  # another seed, so another record
    assert "no space left on device" in capsys.readouterr().err
    assert failed and {path: path.read_bytes() for path in (out, fit)} == before
    assert sorted(os.listdir(tmp_path)) == ["conv.csv", "conv.fit.json"]


def test_a_failed_move_keeps_the_bundle_it_would_replace(tmp_path, monkeypatch):
    # the old bundle directory was deleted before the new one moved in
    bundle = tmp_path / "b"
    argv = ["interpolate", "-m", 2, "-p", 1, "--function", "runge", "--out", bundle, "-n"]
    assert run([*argv, 3]) == 0
    before = {path.name: path.read_bytes() for path in bundle.iterdir()}
    failed = _fail_first_move_to(monkeypatch, bundle)
    assert run([*argv, 5]) == 2
    assert failed and {path.name: path.read_bytes() for path in bundle.iterdir()} == before
    assert os.listdir(tmp_path) == ["b"]


def test_a_failed_output_removes_only_the_directories_made_for_it(tmp_path, capsys):
    (tmp_path / "kept").mkdir()  # empty, and there before the run
    out = tmp_path / "kept" / "new" / "sub" / ("x" * 300)  # a name too long to make
    assert run(["nodes", "-m", 1, "-n", 2, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["kept"] and os.listdir(tmp_path / "kept") == []
    # a run that succeeds keeps the directories it made
    assert run(["nodes", "-m", 1, "-n", 2, "--out", tmp_path / "kept" / "a" / "b" / "g.csv"]) == 0
    assert os.listdir(tmp_path / "kept" / "a" / "b") == ["g.csv"]


@pytest.mark.parametrize("n, p", [(2**62, "2"), (2**63, "1")])
def test_a_degree_whose_budget_overflows_is_a_usage_error(tmp_path, capsys, n, p):
    assert run(["nodes", "-m", 1, "-n", n, "-p", p, "--out", tmp_path / "g.csv"]) == 2
    assert capsys.readouterr().err == f"error: degree n={n} is too large for p={p}: n**p overflows\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["nodes", "-m", 1, "-n", 2],
    ["interpolate", "-m", 1, "-n", 2, "--function", "runge"],  # a bundle directory
])
def test_a_failed_output_is_named_by_its_target(tmp_path, capsys, command):
    out = tmp_path / "new" / ("x" * 300)  # a name too long to make
    assert run(command + ["--out", out]) == 2
    # the path asked for, not its stand-in in the temporary directory
    assert capsys.readouterr().err.endswith(f": '{out}'\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["convergence", "--function", "runge", "--degrees", "2:6"],
    ["lebesgue", "--degrees", "2:6"],
])
def test_negative_seed_is_a_usage_error_naming_the_flag(tmp_path, capsys, command):
    # numpy's "expected non-negative integer" named no flag
    argv = command + ["-m", 1, "--seed", -1, "--out", tmp_path / "out.csv"]
    assert run(argv) == 2
    assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_convergence_rejects_single_degree(tmp_path):
    assert run(
        ["convergence", "-m", 1, "-p", 2, "--function", "runge",
         "--degrees", "8", "--out", tmp_path / "c.csv"]
    ) == 2


def test_convergence_unknown_reference_prints_unknown(tmp_path, capsys):
    code = run(
        ["convergence", "-m", 2, "-p", 2, "--function", "f5", "--degrees", "1:8",
         "--samples", 200, "--out", tmp_path / "c.csv"]
    )
    assert code == 0
    assert "reference_rho=unknown" in capsys.readouterr().out


def test_lebesgue_sweep(tmp_path, capsys):
    out = tmp_path / "leb.csv"
    code = run(
        ["lebesgue", "-m", 1, "-p", "inf", "--degrees", "0,4", "--samples", 2000,
         "--out", out]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,p,n,num_coeffs,lambda"
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["lambda"]) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_cap_skips_rows(tmp_path, capsys, monkeypatch):
    # every MultiIndexSet builds its layout, so counting layouts counts sets
    builds = []
    build = multi_index._build_layout
    monkeypatch.setattr(
        multi_index,
        "_build_layout",
        lambda exps, *key: builds.append(len(exps)) or build(exps, *key),
    )
    out = tmp_path / "leb.csv"
    code = run(
        ["lebesgue", "-m", 2, "-p", "1,inf", "--degrees", "2,8", "--samples", 200,
         "--cap", 30, "--out", out]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "skipping" in err
    lines = out.read_text().splitlines()
    assert len(lines) - 1 == 2  # n=8 rows exceed the cap for both p values
    kept = {(row.split(",")[1], row.split(",")[2]) for row in lines[1:]}
    assert kept == {("1", "2"), ("inf", "2")}
    # a row above the cap is skipped before its set is built
    assert sorted(builds) == sorted(int(row.split(",")[3]) for row in lines[1:]) == [6, 9]


def test_lebesgue_labels_a_fractional_p_as_convergence_does(tmp_path, capsys):
    leb = tmp_path / "leb.csv"
    argv = ["lebesgue", "-m", 2, "-p", "0.3", "--degrees", "2,4", "--samples", 200]
    assert run([*argv, "--out", leb]) == 0
    assert [row.split(",")[1] for row in leb.read_text().splitlines()[1:]] == ["0.3"] * 2
    assert all(" p=0.3 " in line for line in capsys.readouterr().out.splitlines())
    conv = tmp_path / "conv.csv"
    argv = ["convergence", "-m", 1, "-p", "0.3", "--function", "runge", "--degrees", "4:16:4"]
    assert run([*argv, "--samples", 200, "--out", conv]) == 0
    assert "# p: 0.3\n" in conv.read_text()


@pytest.mark.parametrize("cap", [0, -3])
def test_lebesgue_rejects_cap_below_one(tmp_path, capsys, cap):
    out = tmp_path / "leb.csv"
    argv = ["lebesgue", "-m", 2, "-p", "1", "--degrees", "2", "--cap", cap, "--out", out]
    assert run(argv) == 2
    assert "--cap" in capsys.readouterr().err
    assert not out.exists()


def test_identical_flags_identical_bytes(tmp_path):
    _xy_bundle(tmp_path / "xy")
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.5,-0.25\n-1,0.125\n")
    commands = [
        ["nodes", "-m", 2, "-n", 5, "--family", "leja"],
        ["eval", "--bundle", tmp_path / "xy", "--points", pts, "--deriv", "1,0"],
        ["lebesgue", "-m", 2, "-p", "1,inf", "--degrees", "1,3", "--samples", 300,
         "--seed", 17],
    ]
    runs = [(argv + fmt, ".csv") for argv in commands for fmt in ([], ["--format", "json"])]
    runs += [
        (["convergence", "-m", 2, "-p", 2, "--function", "runge", "--r", 2,
          "--degrees", "2:12:2", "--samples", 300, "--seed", 17], ".csv"),
        (["interpolate", "-m", 2, "-n", 6, "-p", 1, "--function", "f4", "--a", 1.5], ""),
    ]
    for i, (argv, suffix) in enumerate(runs):
        out_a, out_b = tmp_path / f"{i}a{suffix}", tmp_path / f"{i}b{suffix}"
        assert run(argv + ["--out", out_a]) == 0
        assert run(argv + ["--out", out_b]) == 0
        if argv[0] == "interpolate":  # a second run into the same bundle
            assert run(argv + ["--out", out_a]) == 0
        written = [(out_a, out_b)]
        if argv[0] == "convergence":
            written.append((out_a.with_suffix(".fit.json"), out_b.with_suffix(".fit.json")))
        if argv[0] == "interpolate":
            names = sorted(p.name for p in out_b.iterdir())
            assert sorted(p.name for p in out_a.iterdir()) == names and len(names) == 3
            written = [(out_a / name, out_b / name) for name in names]
        for a, b in written:
            assert a.read_bytes() == b.read_bytes(), argv


def test_out_refuses_a_directory_holding_other_files(tmp_path, monkeypatch, capsys):
    # `--out .` deleted every file of the working directory, `--out D` replaced D
    target = tmp_path / "D"
    target.mkdir()
    (target / "keep.txt").write_text("mine\n")
    interpolate = ["interpolate", "-m", 2, "-n", 3, "--function", "runge", "--out"]
    nodes = ["nodes", "-m", 2, "-n", 3, "--out"]
    for argv in ([*interpolate, target], [*nodes, target], [*interpolate, "."]):
        if argv[-1] == ".":
            monkeypatch.chdir(target)
        assert run(argv) == 2
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in target.iterdir()] == ["keep.txt"]
        assert (target / "keep.txt").read_text() == "mine\n"
        assert [p.name for p in tmp_path.iterdir()] == ["D"]  # no temporary entry left
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run([*interpolate, link]) == 0  # a link at the target is replaced, not followed
    assert not link.is_symlink() and (link / "header.json").exists()
    assert [p.name for p in target.iterdir()] == ["keep.txt"]


def test_interpolate_again_replaces_the_bundle(tmp_path, monkeypatch):
    bundle, fresh = tmp_path / "b", tmp_path / "fresh"
    argv = ["interpolate", "-m", 2, "-p", 1, "--function", "runge", "-n"]
    assert run([*argv, 3, "--out", bundle]) == 0
    monkeypatch.chdir(bundle)  # the second run names the bundle "."
    assert run([*argv, 5, "--out", "."]) == 0
    monkeypatch.chdir(tmp_path)
    assert run([*argv, 5, "--out", fresh]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in bundle.iterdir()) == names and len(names) == 3
    assert all((bundle / name).read_bytes() == (fresh / name).read_bytes() for name in names)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "fresh"]


def test_convergence_writes_both_outputs_or_neither(tmp_path, capsys):
    # the record was written before the fit failed
    out = tmp_path / "X.csv"
    (tmp_path / "X.fit.json").mkdir()
    argv = ["convergence", "-m", 1, "--function", "runge", "--degrees", "2:8:2",
            "--samples", 50, "--out", out]
    assert run(argv) == 2
    assert "X.fit.json is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["X.fit.json"]
    assert not any((tmp_path / "X.fit.json").iterdir())


def test_outputs_get_the_modes_of_the_umask(tmp_path):
    # outputs were 0600 files and 0700 bundle directories
    old = os.umask(0o022)
    try:
        assert run(["nodes", "-m", 2, "-n", 3, "--out", tmp_path / "g.csv"]) == 0
        assert run(["interpolate", "-m", 2, "-n", 2, "-p", 1, "--function", "runge",
                    "--out", tmp_path / "b"]) == 0
        _xy_bundle(tmp_path / "direct")
    finally:
        os.umask(old)

    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    assert mode(tmp_path / "g.csv") == 0o644
    assert mode(tmp_path / "b") == mode(tmp_path / "direct") == 0o755
    for path in (tmp_path / "direct").iterdir():
        assert mode(tmp_path / "b" / path.name) == mode(path) == 0o644


def test_numeric_files_may_carry_a_header_and_name_a_non_finite_line(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    pts = tmp_path / "pts.csv"
    argv = ["eval", "--bundle", tmp_path / "b", "--points", pts, "--out"]
    pts.write_text("0.5,-0.25\n")
    assert run([*argv, tmp_path / "plain.csv"]) == 0
    pts.write_text("# note\nx1,x2\n0.5,-0.25\n")  # the header is below a comment
    assert run([*argv, tmp_path / "headed.csv"]) == 0
    assert (tmp_path / "headed.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    vals = tmp_path / "vals.txt"
    argv = ["interpolate", "-m", 1, "-n", 2, "--values", vals, "--out"]
    vals.write_text("# samples\nvalue\n1\n2\n3\n")
    assert run([*argv, tmp_path / "c"]) == 0
    vals.write_text("1.0\n2.0\nnan\n")
    assert run([*argv, tmp_path / "d"]) == 2
    err = capsys.readouterr().err
    assert "line 3 of" in err and "not finite" in err
    assert not (tmp_path / "d").exists()


def test_json_format_output(tmp_path):
    out = tmp_path / "grid.json"
    assert run(
        ["nodes", "-m", 1, "-n", 2, "--format", "json", "--out", out]
    ) == 0
    data = json.loads(out.read_text())
    assert len(data) == 3
    assert set(data[0]) == {"a1", "x1"}


def _xy_bundle(path):
    a = make_lp_set(2, 2, 1)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0, 0.5]))] * 2)
    poly = interpolate(lambda p: p[:, 0] * p[:, 1], grid)
    save_bundle(poly, path)
    return poly


def test_eval_rejects_header_that_is_not_an_object(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    (tmp_path / "b" / "header.json").write_text("[]\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert not out.exists()
    assert "JSON object" in capsys.readouterr().err


def test_eval_rejects_header_axis_repeating_a_point(tmp_path, capsys):
    # eval never runs the sweep, so the axis check is the only guard against a near repeat
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    for i, repeat in enumerate([0.5, 0.5 + 5e-15]):
        _xy_bundle(tmp_path / f"b{i}")
        header_file = tmp_path / f"b{i}" / "header.json"
        header = json.loads(header_file.read_text())
        assert header["axes"][1] == [1.0, -1.0, 0.5]
        header["axes"][1][1] = repeat
        header_file.write_text(json.dumps(header))
        out = tmp_path / f"v{i}.csv"
        assert run(["eval", "--bundle", tmp_path / f"b{i}", "--points", pts, "--out", out]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nodes must be pairwise at least 1e-14 apart\n"


def test_eval_names_a_v1_bundle_and_how_to_rewrite_it(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    header_file = tmp_path / "b" / "header.json"
    header = json.loads(header_file.read_text())
    del header["axes"]  # what a v1 writer left: the axes only in grid.csv
    header_file.write_text(json.dumps(header))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "v1 bundle" in err and "mvnewton interpolate" in err


@pytest.mark.parametrize("key", ["m", "num_coeffs"])
@pytest.mark.parametrize("value", [True, 1.0])
def test_eval_rejects_counts_that_are_not_json_integers(tmp_path, capsys, key, value):
    # a one-node bundle, where both counts are 1: true and 1.0 equal 1
    grid = build_grid(make_lp_set(1, 0, 1), [Nodes1D(np.array([0.5]))])
    save_bundle(NewtonPolynomial(grid, [0.25]), tmp_path / "b")
    header_file = tmp_path / "b" / "header.json"
    header = json.loads(header_file.read_text())
    assert header[key] == 1
    header[key] = value
    header_file.write_text(json.dumps(header))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{key}={value!r}" in err and "must be JSON integers" in err


_JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.just("0.5"),
    st.just(10**400),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_eval_exits_2_on_every_broken_header(data):
    kind = data.draw(st.sampled_from([
        "no axes", "axes not a list", "axis not a list", "junk point", "short axis",
        "repeated point", "point outside", "m against axes", "m against columns",
        "num_coeffs against rows", "count not an integer",
    ]))
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "b"
        _xy_bundle(bundle)
        header_file = bundle / "header.json"
        header = json.loads(header_file.read_text())
        axes = header["axes"]
        i = data.draw(st.integers(0, 1))
        j, k = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
        if kind == "no axes":
            del header["axes"]
        elif kind == "axes not a list":
            header["axes"] = data.draw(_JSON_JUNK.filter(lambda v: not isinstance(v, list)))
        elif kind == "axis not a list":
            axes[i] = data.draw(_JSON_JUNK.filter(lambda v: not isinstance(v, list)))
        elif kind == "junk point":
            axes[i][j] = data.draw(_JSON_JUNK)
        elif kind == "short axis":  # the set needs 3 points per axis
            axes[i] = axes[i][: data.draw(st.integers(0, 2))]
        elif kind == "repeated point":
            axes[i][j] = axes[i][k]
        elif kind == "point outside":
            axes[i][j] = data.draw(st.one_of(
                st.floats(min_value=1.0, exclude_min=True),
                st.floats(max_value=-1.0, exclude_max=True),
                st.just(math.nan),
            ))
        elif kind == "m against axes":
            header["m"] = data.draw(st.integers().filter(lambda v: v != 2))
        elif kind == "m against columns":
            count = data.draw(st.sampled_from([0, 1, 3, 4]))
            header["m"], header["axes"] = count, (axes * 2)[:count]
        elif kind == "num_coeffs against rows":
            header["num_coeffs"] = data.draw(st.integers().filter(lambda v: v != 6))
        else:
            key = data.draw(st.sampled_from(["m", "num_coeffs"]))
            value = data.draw(st.one_of(_JSON_JUNK, st.just(float(header[key]))))
            header[key] = value
        header_file.write_text(json.dumps(header))
        pts = Path(tmp) / "pts.csv"
        pts.write_text("0.5,-0.25\n")
        out = Path(tmp) / "v.csv"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(["eval", "--bundle", bundle, "--points", pts, "--out", out])
        assert code == 2, (kind, header)
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert not out.exists()


def test_eval_rejects_coefficient_rows_out_of_canonical_order(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    argv = ["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]
    assert run(argv) == 0
    out.unlink()
    coeff_file = tmp_path / "b" / "coefficients.csv"
    lines = coeff_file.read_text().splitlines()
    assert lines[0] == "a1,a2,c" and lines[2].startswith("1,0,")
    lines[2], lines[3] = lines[3], lines[2]  # the same indices, two rows swapped
    coeff_file.write_text("\n".join(lines) + "\n")
    assert run(argv) == 2
    assert not out.exists()
    assert "canonical order" in capsys.readouterr().err


def test_eval_rejects_non_finite_points(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    pts = tmp_path / "pts.csv"
    out = tmp_path / "v.csv"
    for text, line in (("x1,x2\n0.1,0.2\n# note\nnan,0.2\n", 4), ("0.5 0\ninf 0\n", 2)):
        pts.write_text(text)
        argv = ["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]
        assert run(argv) == 2
        assert not out.exists()
        assert f"line {line} " in capsys.readouterr().err


class _RecordingNamespace(argparse.Namespace):
    """A namespace that records the public attributes read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _subparser_dests(parser, name):
    (subparsers,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in subparsers.choices[name]._actions if a.dest != "help"}


def test_every_command_reads_every_flag(tmp_path):
    _xy_bundle(tmp_path / "b")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    vals = tmp_path / "vals.txt"
    vals.write_text("1\n2\n3\n")
    branches = {
        "nodes": [
            ["-m", 1, "-n", 2, "--family", "lcl"],
            ["-m", 1, "-n", 2, "--family", "leja", "--format", "json"],
        ],
        "interpolate": [
            ["-m", 1, "-n", 2, "--family", "leja", "--values", vals],
            ["-m", 1, "-n", 2, "--function", "runge", "--r", 2, "--s", 1],
            ["-m", 1, "-n", 2, "--function", "f4", "--a", 1.5],
            ["-m", 1, "-n", 2, "--function", "f5", "--k1", 1, "--k2", 2],
        ],
        "eval": [
            ["--bundle", tmp_path / "b", "--points", pts],
            ["--bundle", tmp_path / "b", "--points", pts, "--deriv", "1,0"],
        ],
        "convergence": [
            ["-m", 1, "--function", "runge", "--degrees", "2:12:2", "--samples", 50],
            ["-m", 1, "--family", "leja", "--function", "runge", "--degrees", "2:12:2",
             "--deriv", "1", "--samples", 50, "--seed", 3],
        ],
        "lebesgue": [
            ["-m", 1, "-p", "1,inf", "--degrees", "1,2", "-k", 1, "--cap", 10,
             "--samples", 50, "--seed", 3, "--format", "json"],
            ["-m", 1, "--family", "leja", "--degrees", "1,2", "--samples", 50],
        ],
    }
    parser = cli.build_parser()
    unread = {}
    for command, runs in branches.items():
        read = set()
        for i, argv in enumerate(runs):
            out = tmp_path / f"{command}{i}"
            argv = [command, *argv, "--out", out]
            args = parser.parse_args([str(a) for a in argv], _RecordingNamespace())
            args._read.clear()  # parsing itself reads the defaults
            assert args.func(args) == 0, argv
            read |= args._read
        missing = _subparser_dests(parser, command) - read
        if missing:
            unread[command] = sorted(missing)
    assert unread == {}


def test_the_readme_flag_table_is_the_command_table():
    # each row of README's table names each flag of its subcommand once, and no other
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n\n")
    table = next(block for block in section if block.startswith("| subcommand |"))
    rows = {}
    for line in table.split("\n")[2:]:
        name, flags = line.split("|")[1:3]
        rows[name.strip().strip("`")] = re.findall(r"`(-[^`]*)`", flags)
    assert list(rows) == list(cli._COMMANDS)
    for name, tokens in rows.items():
        options = [cli._FLAGS[flag][0] for flag in cli._COMMANDS[name][2]]
        assert {t for t in tokens if not any(t in o for o in options)} == set(), name
        assert [sum(map(tokens.count, o)) for o in options] == [1] * len(options), name


def test_text_outputs_keep_their_line_endings(tmp_path):
    # tables end their lines in \r\n; a platform newline must not be added to either
    cli._text("a,b\r\n1,2\r\n# c\n")(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n1,2\r\n# c\n"


@pytest.mark.parametrize(
    "command, flag",
    [
        ("nodes", ["--leja-resolution", 0]),
        ("nodes", ["--seed", 3]),
        ("eval", ["--samples", 5]),
        ("interpolate", ["--format", "json"]),
        ("convergence", ["--format", "json"]),
    ],
)
def test_flags_no_command_reads_are_rejected(tmp_path, capsys, command, flag):
    _xy_bundle(tmp_path / "b")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    argv = {
        "nodes": ["-m", 2, "-n", 3, "--family", "leja"],
        "eval": ["--bundle", tmp_path / "b", "--points", pts],
        "interpolate": ["-m", 2, "-n", 3, "--function", "runge"],
        "convergence": ["-m", 1, "--function", "runge", "--degrees", "2:12:2",
                        "--samples", 50],
    }[command]
    out = tmp_path / "out"
    assert run([command, *argv, *flag, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(map(str, flag))}" in err
    assert not out.exists()
    assert not out.with_suffix(".fit.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            (["lebesgue", "-m", 2, f"--degrees={text}"], "cannot parse degree range")
            for text in ("1:2:3:4", "5:2", "1:9:0", "a:b")
        ),
        (["lebesgue", "-m", 2, "--degrees", ","], "empty degree list"),
        (["lebesgue", "-m", 2, "-p", ",", "--degrees", "2"], "empty p list"),
        (["convergence", "-m", 2, "--degrees", "2:5"], "a builtin function id is required"),
        (
            ["convergence", "-m", 2, "--function", "f5", "--k1=-1", "--degrees", "2:5"],
            "requires non-negative k1, k2",
        ),
    ],
)
def test_a_bad_argument_exits_2_with_its_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_points_with_the_wrong_column_count(tmp_path, capsys):
    bundle, points, out = tmp_path / "b", tmp_path / "pts.csv", tmp_path / "v.csv"
    assert run(["interpolate", "-m", 2, "-n", 2, "--function", "runge", "--out", bundle]) == 0
    points.write_text("0.5,0.5,0.5\n")
    capsys.readouterr()
    assert run(["eval", "--bundle", bundle, "--points", points, "--out", out]) == 2
    assert "pts.csv has 3 numbers per line, expected 2" in capsys.readouterr().err
    assert not out.exists()


def test_interpolate_refuses_a_values_file_with_two_numbers_per_line(tmp_path, capsys):
    values, out = tmp_path / "v.csv", tmp_path / "b"
    values.write_text("1.0,2.0\n" * 3)  # one row per node of the 1D degree-2 grid
    argv = ["interpolate", "-m", 1, "-n", 2, "--values", values, "--out", out]
    assert run(argv) == 2
    assert "v.csv has 2 numbers per line, expected 1" in capsys.readouterr().err
    assert not out.exists()
