import argparse
import json
import math

import numpy as np
import pytest

from mvnewton import cli, multi_index
from mvnewton.cli import main, parse_degrees, parse_p
from mvnewton.grid import Nodes1D, build_grid
from mvnewton.multi_index import make_lp_set
from mvnewton.newton import interpolate, save_bundle


def run(argv):
    return main([str(a) for a in argv])


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
    assert header["node_family"] == "leja_ordered_chebyshev_lobatto"

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


def test_eval_rejects_header_contradicting_grid(tmp_path, capsys):
    a = make_lp_set(2, 3, 2)
    grid = build_grid(a, [Nodes1D(np.array([1.0, -1.0, 0.0, 0.5]))] * 2)
    save_bundle(interpolate(lambda p: p[:, 0] * p[:, 1], grid), tmp_path / "b")
    header_file = tmp_path / "b" / "header.json"
    header = json.loads(header_file.read_text())
    assert (header["m"], header["num_coeffs"]) == (2, 11)
    header.update(m=5, num_coeffs=999)
    header_file.write_text(json.dumps(header))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "m=5" in err and "num_coeffs=999" in err


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
    # a non-finite sample (NonFiniteSampleError, also a ValueError) stays exit 2
    vals = tmp_path / "vals.txt"
    vals.write_text("1.0\nnan\n1.0\n")
    bundle = tmp_path / "b"
    assert run(["interpolate", "-m", 1, "-n", 2, "--values", vals, "--out", bundle]) == 2
    assert capsys.readouterr().err.startswith("error: sample values must be finite")
    assert not bundle.exists()


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
        multi_index, "_build_layout", lambda exps: builds.append(len(exps)) or build(exps)
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


@pytest.mark.parametrize("cap", [0, -3])
def test_lebesgue_rejects_cap_below_one(tmp_path, capsys, cap):
    out = tmp_path / "leb.csv"
    argv = ["lebesgue", "-m", 2, "-p", "1", "--degrees", "2", "--cap", cap, "--out", out]
    assert run(argv) == 2
    assert "--cap" in capsys.readouterr().err
    assert not out.exists()


def test_identical_flags_identical_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["convergence", "-m", 2, "-p", 2, "--function", "runge", "--r", 2,
            "--degrees", "2:12:2", "--samples", 300, "--seed", 17]
    assert run(args + ["--out", out_a]) == 0
    assert run(args + ["--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.fit.json").read_bytes() == (tmp_path / "b.fit.json").read_bytes()


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
    save_bundle(interpolate(lambda p: p[:, 0] * p[:, 1], grid), path)


def test_eval_rejects_header_that_is_not_an_object(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    (tmp_path / "b" / "header.json").write_text("[]\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert not out.exists()
    assert "JSON object" in capsys.readouterr().err


def test_eval_rejects_grid_rows_disagreeing_about_an_axis_point(tmp_path, capsys):
    _xy_bundle(tmp_path / "b")
    grid_file = tmp_path / "b" / "grid.csv"
    lines = grid_file.read_text().splitlines()
    assert lines[5] == "1,1,-1,-1"
    lines[5] = "1,1,-1,-0.75"
    grid_file.write_text("\n".join(lines) + "\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.25\n")
    out = tmp_path / "v.csv"
    assert run(["eval", "--bundle", tmp_path / "b", "--points", pts, "--out", out]) == 2
    assert not out.exists()
    assert "axis 2 at level 1" in capsys.readouterr().err


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
