"""End-to-end command-line behavior: reports, exit codes, determinism, schemas."""

import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from conftest import count_calls
import mixed_milnor
from mixed_milnor import FamilySpec, build_family, certify_smooth_shell, check_transversality, cli
from mixed_milnor.cli import SUBCOMMANDS, parse_t_grid, run
from mixed_milnor.errors import InputError
from mixed_milnor.report import dumps


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def family_spec(tmp_path):
    return _write(tmp_path / "family.json", {"family": "brieskorn", "a": [2, 3], "b": [1, 0]})


@pytest.fixture
def cyclic_spec(tmp_path):
    return _write(tmp_path / "cyclic.json", {"family": "type_ii", "a": [2, 2], "b": [1, 1]})


@pytest.fixture
def poly_spec(tmp_path):
    return _write(
        tmp_path / "poly.json", {"n": 1, "monomials": [{"c": [4, 0], "nu": [3], "mu": [1]}]}
    )


@pytest.fixture
def points_file(tmp_path):
    # two sphere points; build-isotopy accepts any point of the sphere
    return _write(tmp_path / "points.json", [[[0.6, 0], [0, 0.8]], [[0.5, 0.5], [0.5, -0.5]]])


def _validate(report, subcommand):
    ref = resources.files("mixed_milnor") / "schemas" / f"{subcommand}.schema.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(report, schema)


def _run_json(argv, out_path):
    code = run(argv + ["--out", str(out_path), "--canonical"])
    return code, json.loads(out_path.read_text())


def test_parse_t_grid():
    assert parse_t_grid("0:1:0.5") == (0.0, 0.5, 1.0)
    assert parse_t_grid("0,0.25,1") == (0.0, 0.25, 1.0)
    with pytest.raises(InputError):
        parse_t_grid("0:1")
    with pytest.raises(InputError):
        parse_t_grid("0:1:-0.1")
    with pytest.raises(InputError):
        parse_t_grid("0,2")


@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1:5e-324", "0:1:0.00001", "0:0.5:1e-12"])
def test_parse_t_grid_refuses_huge_grids_before_building_them(grid):
    with pytest.raises(InputError):
        parse_t_grid(grid)


@pytest.mark.parametrize(
    "subcommand", ["certify-smooth", "check-transversality", "explore-conjecture"]
)
@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1:0.000001"])
def test_huge_t_grid_exits_2(capsys, family_spec, cyclic_spec, subcommand, grid):
    spec = cyclic_spec if subcommand == "explore-conjecture" else family_spec
    assert run([subcommand, "--family", spec, "--t-grid", grid]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "points, over 100000" in captured.err
    assert captured.out == ""


def test_analyze_family(tmp_path, family_spec):
    code, report = _run_json(["analyze", family_spec], tmp_path / "r.json")
    assert code == 0
    res = report["result"]
    assert res["polar"] == {"weights": [3, 2], "degree": 6}
    assert res["radial"] == {"weights": [3, 4], "degree": 12}
    assert res["simplicial"] is True
    assert res["family_kind"] == "brieskorn"
    assert report["manifest"]["subcommand"] == "analyze"
    assert "started_at" not in report["manifest"]
    _validate(report, "analyze")


def test_analyze_explicit_polynomial(tmp_path):
    spec = _write(
        tmp_path / "poly.json",
        {"n": 1, "monomials": [{"c": [4, 0], "nu": [3], "mu": [1]}]},
    )
    code, report = _run_json(["analyze", spec], tmp_path / "r.json")
    assert code == 0
    assert report["result"]["monomial_count"] == 1


def test_missing_file_exits_2(capsys):
    assert run(["analyze", "/nonexistent/spec.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["confabulate"]) == 2


def test_normalize(tmp_path, capsys):
    spec = _write(
        tmp_path / "poly.json",
        {"n": 1, "monomials": [{"c": [4, 0], "nu": [3], "mu": [1]}]},
    )
    out = tmp_path / "r.json"
    code = run(["normalize", spec, "--out", str(out), "--canonical"])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["alpha"][0][0] == pytest.approx(4 ** 0.25)
    report = json.loads(out.read_text())
    assert report["result"]["residual"] <= 1e-12
    _validate(report, "normalize")


def test_normalize_without_out_prints_report(poly_spec, capsys):
    assert run(["normalize", poly_spec, "--canonical"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["residual"] <= 1e-12
    _validate(report, "normalize")


def test_normalize_non_simplicial_exits_2(tmp_path, capsys):
    spec = _write(
        tmp_path / "poly.json",
        {
            "n": 1,
            "monomials": [
                {"c": [1, 0], "nu": [1], "mu": [1]},
            ],
        },
    )
    # precondition violations are input errors
    assert run(["normalize", spec]) == 2


def test_certify_smooth(tmp_path, family_spec):
    code, report = _run_json(
        [
            "certify-smooth",
            "--family",
            family_spec,
            "--t-grid",
            "0,0.5,1",
            "--restarts",
            "4",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    assert report["result"]["certified"] is True
    assert report["result"]["min_residual_found"] > 1e-3
    _validate(report, "certify-smooth")


def test_certify_smooth_below_threshold_exits_1(tmp_path, family_spec):
    code, report = _run_json(
        [
            "certify-smooth",
            "--family",
            family_spec,
            "--t-grid",
            "0.5",
            "--restarts",
            "2",
            "--tolerance",
            "10",
        ],
        tmp_path / "r.json",
    )
    assert code == 1
    assert report["result"]["certified"] is False
    assert len(report["result"]["argmin_point"]) == 2


@pytest.mark.parametrize(
    "options",
    [
        ["--restarts", "0"],
        ["--t-grid", "a:b:c"],
        ["--t-grid", "1:0:0.1"],
        ["--t-grid", ""],
        ["--radius", "nan"],
        ["--radius", "inf"],
        ["--tolerance", "-1"],
    ],
)
def test_certify_smooth_bad_input_exits_2(family_spec, capsys, options):
    assert run(["certify-smooth", "--family", family_spec, *options]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec",
    [
        {"n": 1, "monomials": [{"c": "x", "nu": [3], "mu": [1]}]},
        {"n": 1, "monomials": [{"c": [1, 0, 2], "nu": [3], "mu": [1]}]},
        {"n": 1, "monomials": [{"c": [float("nan"), 0], "nu": [3], "mu": [1]}]},
        {"n": "1", "monomials": [{"c": [1, 0], "nu": [3], "mu": [1]}]},
        {"n": 1, "monomials": [{"c": [1, 0], "nu": [3.0], "mu": [1]}]},
        {"family": "brieskorn", "a": "23"},
        {"family": "brieskorn", "a": [2.7, 3]},
        {"family": "brieskorn", "a": [2, 3], "b": [1, True]},
        {"family": "brieskorn"},
        {"n": 1, "monomials": [{"c": 10**400, "nu": [1], "mu": [0]}]},  # past the float range
        {"n": 1, "monomials": [{"c": [0, -(10**400)], "nu": [1], "mu": [0]}]},
        # unknown keys: a misspelt b, extra keys, and a family spec with monomials
        {"family": "brieskorn", "a": [2, 3], "B": [1, 1]},
        {"n": 1, "monomials": [{"c": [4, 0], "nu": [3], "mu": [1]}], "note": "x"},
        {"n": 1, "monomials": [{"c": [4, 0], "nu": [3], "mu": [1], "m": [0]}]},
        {"family": "brieskorn", "a": [2, 3], "n": 2, "monomials": []},
    ],
)
def test_malformed_spec_exits_2(tmp_path, capsys, spec):
    assert run(["analyze", _write(tmp_path / "spec.json", spec)]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert captured.out == ""


def test_unknown_spec_keys_are_named(tmp_path, capsys):
    """The message names the unknown keys, at most 60 characters of them."""
    long_keys = {"k" * 50 + str(i): 0 for i in range(3)}
    spec = {"family": "brieskorn", "a": [2, 3], "B": [1, 1], **long_keys}
    assert run(["analyze", _write(tmp_path / "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: family spec has unknown keys: 'B', 'kkk")
    assert err.endswith("...\n") and len(err) < 140


@pytest.mark.parametrize("coefficient", [10**4000, [0, -(10**4000)]], ids=["real", "pair"])
def test_huge_coefficient_message_is_short(tmp_path, capsys, coefficient):
    """A 4,000-digit coefficient exits 2 with a short message: the echo of the
    value stops after 60 characters."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 1, "monomials": [{"c": coefficient, "nu": [1], "mu": [0]}]}))
    assert run(["analyze", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: coefficient must be a finite number")
    assert len(captured.err) < 200 and captured.out == ""


@pytest.mark.parametrize(
    "raw",
    [
        b'{"n": 1, "monomials": [{"c": ' + b"9" * 5000 + b', "nu": [1], "mu": [0]}]}',
        b'\xff{"family": "brieskorn", "a": [2, 3]}',
    ],
    ids=["integer-past-digit-limit", "not-utf-8"],
)
def test_unreadable_spec_exits_2(tmp_path, capsys, raw):
    spec = tmp_path / "spec.json"
    spec.write_bytes(raw)
    assert run(["analyze", str(spec)]) == 2
    captured = capsys.readouterr()
    assert "is not valid JSON" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{poly}", "--tolerance", "1"],
        ["normalize", "{poly}", "--tolerance", "nan"],
        ["check-transversality", "--family", "{family}", "--radius", "nan"],
        ["check-transversality", "--family", "{family}", "--samples", "-1"],
        ["check-transversality", "--family", "{family}", "--method", "guess"],
        ["explore-conjecture", "--family", "{cyclic}", "--radius", "inf"],
        ["explore-conjecture", "--family", "{cyclic}", "--samples", "-3"],
        ["build-isotopy", "--family", "{family}", "--points", "{points}", "--radius", "nan"],
        ["build-isotopy", "--family", "{family}", "--points", "{points}", "--eta0", "nan"],
        ["build-isotopy", "--family", "{family}", "--points", "{points}", "--t-end", "2"],
        ["build-isotopy", "--family", "{family}", "--points", "{points}", "--steps", "0"],
        ["trace-link", "--family", "{family}", "--t", "2"],
        ["trace-link", "--family", "{family}", "--t", "nan"],
        ["trace-link", "--family", "{family}", "--radius", "nan"],
        ["trace-link", "--family", "{family}", "--seeds", "-1"],
    ],
)
def test_bad_option_exits_2(
    capsys, family_spec, cyclic_spec, poly_spec, points_file, argv
):
    paths = {"family": family_spec, "cyclic": cyclic_spec, "poly": poly_spec}
    paths["points"] = points_file
    assert run([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert captured.out == ""


def test_certify_smooth_matches_library(tmp_path, family_spec):
    code, report = _run_json(
        [
            "certify-smooth",
            "--family",
            family_spec,
            "--t-grid",
            "0:1:0.5",
            "--restarts",
            "3",
            "--seed",
            "7",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    fam = build_family(FamilySpec("brieskorn", (2, 3), (1, 0)))
    rep = certify_smooth_shell(fam, (0.0, 0.5, 1.0), 1.0, restarts=3, seed=7)
    res = report["result"]
    assert res["min_residual_found"] == rep.min_residual_found
    assert res["argmin_t"] == rep.argmin_t
    assert res["argmin_restart"] == rep.argmin_restart
    assert 0 <= rep.argmin_restart < 3
    assert res["argmin_point"] == [[z.real, z.imag] for z in rep.argmin_point]
    assert res["iterations"] == rep.iterations
    assert res["converged"] == rep.converged
    assert res["certified"] is rep.certified is True
    assert report["manifest"]["seed"] == 7
    _validate(report, "certify-smooth")


# the shell search's own bits: recorded with one halving and one probe per
# kernel call, and kept by any block size of the search
@pytest.mark.parametrize(
    "seed, iterations, residual, point, restart",
    [
        (
            3,
            1353,
            "1.016280820098278",
            [
                [0.43933325423861097, -0.5891714686196138],
                [-0.06530121872956603, -0.6749807575902833],
            ],
            4,
        ),
        (
            7,
            1324,
            "1.0162808200982782",
            [
                [-0.46820525664610424, 0.5664985156593286],
                [-0.6075043289227448, -0.3013333034114525],
            ],
            2,
        ),
    ],
)
def test_certify_smooth_golden_search(tmp_path, seed, iterations, residual, point, restart):
    spec = _write(tmp_path / "spec.json", {"family": "brieskorn", "a": [2, 3], "b": [1, 1]})
    options = ["--t-grid", "0:1:0.1", "--restarts", "10", "--seed", str(seed)]
    code, report = _run_json(["certify-smooth", "--family", spec, *options], tmp_path / "r.json")
    assert code == 0
    res = report["result"]
    assert res["iterations"] == iterations
    assert repr(res["min_residual_found"]) == residual
    assert res["argmin_point"] == point
    assert res["argmin_t"] == 0.0
    assert res["argmin_restart"] == restart
    assert res["converged"] is True


# (family, radius) -> the t at which build-isotopy from link points still
# exits 3: the member's own scale falls far below the common blend scale
# there, and the 1e-10 rank floor is absolute (ROADMAP item 3)
_RANK_DEFICIENT_AT = {
    ("brieskorn", "1e-40"): "0.0",
    ("brieskorn", "1e-70"): "0.0",
    ("type_i", "1e40"): "1.0",
    ("type_i", "1e-40"): "0.0",
    ("type_i", "1e70"): "1.0",
    ("type_i", "1e-70"): "0.0",
}


@pytest.mark.parametrize(
    "command",
    ["certify-smooth", "check-transversality", "trace-link-0", "trace-link-1", "build-isotopy"],
)
@pytest.mark.parametrize("radius", ["1e40", "1e-40", "1e70", "1e-70"])
@pytest.mark.parametrize("kind, b", [("brieskorn", [1, 1]), ("type_i", [1, 0])])
def test_huge_and_tiny_spheres_run_clean(tmp_path, capsys, kind, b, radius, command):
    """Every engine works on the unit-scale form of its sphere, so huge and
    tiny radii run with no numpy warning and no traceback, and write a
    schema-valid report with a verdict; build-isotopy runs from the first
    point of each traced orbit at t = 0."""
    spec = _write(tmp_path / "spec.json", {"family": kind, "a": [2, 3], "b": b})
    subcommand, _, t = command.partition("-link-")
    subcommand = "trace-link" if t else command
    argv = {
        "certify-smooth": ["--t-grid", "0:1:0.5", "--restarts", "4"],
        "check-transversality": ["--samples", "4"],
        "trace-link": ["--t", t or "0", "--seeds", "16"],
    }.get(subcommand, [])
    if subcommand == "build-isotopy":
        code, link = _run_json(
            ["trace-link", "--family", spec, "--radius", radius, "--seeds", "16"],
            tmp_path / "link.json",
        )
        assert code == 0
        points = [[row[:2], row[2:]] for row in (orbit[0] for orbit in link["result"]["orbits"])]
        argv = ["--points", _write(tmp_path / "points.json", points), "--steps", "20"]
    else:
        argv += ["--radius", radius]
    out = tmp_path / "r.json"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([subcommand, "--family", spec, *argv, "--out", str(out), "--canonical"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    at = _RANK_DEFICIENT_AT.get((kind, radius)) if subcommand == "build-isotopy" else None
    if at is not None:
        assert code == 3 and not out.exists()
        message = f"constraint matrix rank-deficient inside the tube at t={at} for point 0"
        assert err.startswith(f"internal error: {message}")
        return
    assert code in (0, 1) and err == ""
    _validate(json.loads(out.read_text()), subcommand)


def test_check_transversality_both_methods(tmp_path, family_spec):
    code, report = _run_json(
        [
            "check-transversality",
            "--family",
            family_spec,
            "--t-grid",
            "0,0.5,1",
            "--method",
            "both",
            "--samples",
            "4",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    res = report["result"]
    assert res["all_transverse"] is True
    assert res["min_margin"] > 0
    assert len(res["certificates"]) + res["sampler_failures"] == 12
    for entry in res["certificates"]:
        assert entry["rank_transverse"] and entry["witness_transverse"]
    _validate(report, "check-transversality")


def test_check_transversality_rejects_cyclic_witness(cyclic_spec, capsys):
    code = run(
        ["check-transversality", "--family", cyclic_spec, "--method", "witness"]
    )
    assert code == 2
    assert "open problem" in capsys.readouterr().err


def test_explore_conjecture_deterministic(tmp_path, cyclic_spec):
    argv = [
        "explore-conjecture",
        "--family",
        cyclic_spec,
        "--t-grid",
        "0,0.5,1",
        "--samples",
        "10",
        "--seed",
        "3",
    ]
    code, report = _run_json(argv, tmp_path / "a.json")
    assert code == 0
    assert report["result"]["min_margin"] > 0
    assert report["result"]["note"] == "evidence only - open problem"
    run(argv + ["--out", str(tmp_path / "b.json"), "--canonical"])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    _validate(report, "explore-conjecture")


def test_explore_conjecture_rejects_other_kinds(family_spec, capsys):
    assert run(["explore-conjecture", "--family", family_spec]) == 2
    assert capsys.readouterr().err == "input error: conjecture search requires a type_ii family\n"


@pytest.mark.parametrize(
    "option, target",
    [("--out", "missing"), ("--out", "directory"), ("--csv", "missing"), ("--svg", "missing")],
)
def test_unwritable_output_path_exits_2(
    tmp_path, capsys, monkeypatch, family_spec, option, target
):
    """An output path that cannot be written is one input error naming it,
    raised before the engine runs: nothing is sampled and no other output
    (here a writable --csv) is written."""
    calls = count_calls(monkeypatch, cli, "sample_link")
    path = str(tmp_path / "no-such-dir" / "x") if target == "missing" else str(tmp_path)
    csv = tmp_path / "ok.csv"
    argv = ["trace-link", "--family", family_spec, "--seeds", "4", option, path]
    if option != "--csv":
        argv += ["--csv", str(csv)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {path!r}: ")
    assert err.count("\n") == 1
    assert calls == []
    assert not csv.exists()


def test_trace_link(tmp_path, family_spec):
    svg = tmp_path / "link.svg"
    code, report = _run_json(
        ["trace-link", "--family", family_spec, "--t", "0", "--svg", str(svg)],
        tmp_path / "r.json",
    )
    assert code == 0
    res = report["result"]
    assert res["component_count"] == 1
    assert res["polar_weights"] == [3, 2]
    assert svg.read_text().count("<polyline") == res["orbit_count"]
    _validate(report, "trace-link")


def test_trace_link_csv(tmp_path, family_spec):
    csv = tmp_path / "link.csv"
    code, _ = _run_json(
        ["trace-link", "--family", family_spec, "--csv", str(csv)],
        tmp_path / "r.json",
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "orbit,re_z1,im_z1,re_z2,im_z2"
    assert len(lines) > 1


def test_build_isotopy(tmp_path, family_spec):
    from conftest import brieskorn
    from mixed_milnor import sample_link

    fam = brieskorn((2, 3), (1, 0))
    pts = sample_link(fam, 0.0, 1.0).points[:3]
    points_file = _write(
        tmp_path / "points.json", [[[z.real, z.imag] for z in pt] for pt in pts]
    )
    code, report = _run_json(
        [
            "build-isotopy",
            "--family",
            family_spec,
            "--points",
            points_file,
            "--steps",
            "50",
            "--endpoints-only",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    res = report["result"]
    assert res["partial"] is False
    assert res["worst_value_residual"] <= 1e-6
    assert all("endpoint" in tr for tr in res["traces"])
    _validate(report, "build-isotopy")


def test_build_isotopy_empty_points_exits_2(tmp_path, family_spec):
    points_file = _write(tmp_path / "points.json", [])
    assert run(["build-isotopy", "--family", family_spec, "--points", points_file]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[[[true, 0], [0, 1]]]",  # a boolean is not a coordinate
        "[[[1, 0, 5], [0, 1]]]",  # an extra entry is not dropped
        "[[[NaN, 0], [0, 1]]]",
        "[[[Infinity, 0], [0, 1]]]",
        "[[[0.6, -Infinity], [0, 0.8]]]",
        "[[[1e999, 0], [0, 1]]]",
        pytest.param("[[[" + "1" * 400 + ", 0], [0, 1]]]", id="integer-beyond-float"),
        pytest.param("[[[" + "1" * 5000 + ", 0], [0, 1]]]", id="integer-past-digit-limit"),
        pytest.param(b"\xff[[[0.6, 0], [0, 0.8]]]", id="not-utf-8"),
        "[[[1, 0], [0, 0]], [[1, 0]]]",  # ragged points
        "[[[1, 0], [0, 0], [0, 0]]]",  # three coordinates for a family in two
        "[[1, 0], [0, 1]]",  # coordinates that are not pairs
        '[[["1", 0], [0, 1]]]',
        '{"points": []}',
        "[[[0.6, 0], [0, 0.8]]",  # not JSON
    ],
)
def test_bad_points_file_exits_2(capsys, tmp_path, family_spec, text):
    points_file = tmp_path / "points.json"
    points_file.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["build-isotopy", "--family", family_spec, "--points", str(points_file)]
    assert run(argv + ["--steps", "5"]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert captured.out == ""


def test_huge_coordinate_message_is_short(capsys, tmp_path, family_spec, monkeypatch):
    """A 4,000-digit coordinate exits 2 with a short message: the echo of the
    value stops after 60 characters (the file's path is echoed whole)."""
    monkeypatch.chdir(tmp_path)
    Path("points.json").write_text("[[[" + "7" * 4000 + ", 0], [0, 1]]]")
    assert run(["build-isotopy", "--family", family_spec, "--points", "points.json"]) == 2
    captured = capsys.readouterr()
    assert "is not a pair [re, im] of finite numbers" in captured.err
    assert len(captured.err) < 200 and captured.out == ""


@pytest.mark.parametrize(
    "radius, message",
    [
        ([], "the norm of start point 0 overflows"),
        (["--radius", "1"], "start point 0 has norm 1e+200, off the sphere of radius 1.0"),
    ],
    ids=["radius-from-point", "radius-given"],
)
def test_build_isotopy_huge_start_point_exits_2(tmp_path, capsys, family_spec, radius, message):
    """A start point whose squared norm overflows is one input error, with no
    traceback and no numpy warning, whether or not the radius is given."""
    points = _write(tmp_path / "points.json", [[[1e200, 0], [0, 0]]])
    out = tmp_path / "r.json"
    argv = ["build-isotopy", "--family", family_spec, "--points", points, *radius]
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_build_isotopy_traces_name_their_failure_step(tmp_path, family_spec, points_file):
    code, report = _run_json(
        ["build-isotopy", "--family", family_spec, "--points", points_file, "--steps", "5"],
        tmp_path / "r.json",
    )
    assert code == 0
    assert [tr["failure_step"] for tr in report["result"]["traces"]] == [None, None]
    _validate(report, "build-isotopy")


def test_build_isotopy_coarse_steps_accept_rk4_stage_states(tmp_path, family_spec, capsys):
    """An RK4 stage state leaves the sphere by O(h^2); with coarse steps that
    must not become an input error, while an off-sphere start point still is."""
    from conftest import brieskorn
    from mixed_milnor import sample_link

    pts = sample_link(brieskorn((2, 3), (1, 0)), 0.0, 1.0, seeds=16, seed=0).points
    rows = [[[z.real, z.imag] for z in pt] for pt in pts[:: max(1, len(pts) // 12)][:12]]
    argv = ["build-isotopy", "--family", family_spec, "--eta0", "0.1", "--steps", "20"]
    points = _write(tmp_path / "points.json", rows)
    assert run(argv + ["--points", points, "--out", str(tmp_path / "r.json")]) in (0, 1)
    rows[1] = [[1.001 * v for v in pair] for pair in rows[1]]
    off = _write(tmp_path / "off.json", rows)
    assert run(argv + ["--points", off]) == 2
    assert "start point 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "brieskorn", "a": [2, 3], "b": [1, 1]},
        {"family": "type_i", "a": [2, 3, 2], "b": [1, 0, 1]},
    ],
)
def test_check_transversality_matches_library(tmp_path, spec):
    family = _write(tmp_path / "family.json", spec)
    code, report = _run_json(
        [
            "check-transversality",
            "--family",
            family,
            "--t-grid",
            "0,0.5,1",
            "--method",
            "both",
            "--samples",
            "5",
            "--seed",
            "7",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    fam = build_family(FamilySpec(spec["family"], spec["a"], spec["b"]))
    sweep = check_transversality(fam, (0.0, 0.5, 1.0), 1.0, 5, 7, "both")
    assert report["result"] == json.loads(dumps(sweep))
    assert sum(sweep.sampler_failures_per_t) == sweep.sampler_failures
    entries = report["result"]["certificates"]
    assert report["result"]["min_rank_margin"] == min(e["rank_margin"] for e in entries)
    assert report["result"]["min_witness_margin"] == min(e["witness_margin"] for e in entries)
    assert report["result"]["min_margin"] == min(
        sweep.min_rank_margin, sweep.min_witness_margin
    )
    _validate(report, "check-transversality")


@pytest.mark.parametrize(
    "method, samples, has_rank, has_witness",
    [("rank", 3, True, False), ("witness", 3, False, True), ("both", 0, False, False)],
)
def test_check_transversality_method_minima_are_null_without_data(
    tmp_path, family_spec, method, samples, has_rank, has_witness
):
    argv = ["check-transversality", "--family", family_spec, "--t-grid", "0.5"]
    code, report = _run_json(
        argv + ["--method", method, "--samples", str(samples)], tmp_path / "r.json"
    )
    res = report["result"]
    assert (res["min_rank_margin"] is not None) == has_rank
    assert (res["min_witness_margin"] is not None) == has_witness
    assert code == (0 if samples else 1)
    _validate(report, "check-transversality")


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip()


# One small invocation per registered subcommand; a new subcommand needs a row.
DETERMINISM_ARGV = {
    "analyze": ["{family}"],
    "normalize": ["{poly}"],
    "certify-smooth": ["--family", "{family}", "--t-grid", "0,1", "--restarts", "2"],
    "check-transversality": [
        "--family", "{family}", "--t-grid", "0.5", "--method", "both", "--samples", "2"
    ],
    "explore-conjecture": ["--family", "{cyclic}", "--t-grid", "0.5", "--samples", "3"],
    "build-isotopy": ["--family", "{family}", "--points", "{points}", "--steps", "5"],
    "trace-link": ["--family", "{family}", "--t", "0.5"],
}


def test_determinism_table_covers_every_subcommand():
    assert set(DETERMINISM_ARGV) == {cmd.name for cmd in SUBCOMMANDS}


@pytest.mark.parametrize("name", [cmd.name for cmd in SUBCOMMANDS])
def test_canonical_reports_are_deterministic(
    tmp_path, family_spec, cyclic_spec, poly_spec, points_file, name
):
    paths = {"family": family_spec, "cyclic": cyclic_spec, "poly": poly_spec}
    paths["points"] = points_file
    argv = [name] + [a.format(**paths) for a in DETERMINISM_ARGV[name]] + ["--seed", "5"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(argv + ["--canonical", "--out", str(first)]) == 0
    assert run(argv + ["--canonical", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["manifest"]["subcommand"] == name
    _validate(report, name)


def _cli_env() -> dict:
    """The environment for a `python -m` run of this checkout's package."""
    env = dict(os.environ)
    package_root = str(Path(mixed_milnor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["mixed_milnor", "mixed_milnor.cli"])
def test_python_dash_m_runs_the_cli(family_spec, module):
    done = subprocess.run(
        [sys.executable, "-m", module, "analyze", family_spec, "--canonical"],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["family_kind"] == "brieskorn"
