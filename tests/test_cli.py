"""End-to-end command-line behavior: reports, exit codes, determinism, schemas."""

import json
from importlib import resources

import jsonschema
import pytest

from mixed_milnor import FamilySpec, build_family, certify_smooth_shell
from mixed_milnor.cli import parse_t_grid, run, worker_count
from mixed_milnor.errors import InputError


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def family_spec(tmp_path):
    return _write(tmp_path / "family.json", {"family": "brieskorn", "a": [2, 3], "b": [1, 0]})


@pytest.fixture
def cyclic_spec(tmp_path):
    return _write(tmp_path / "cyclic.json", {"family": "type_ii", "a": [2, 2], "b": [1, 1]})


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


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MIXED_MILNOR_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("MIXED_MILNOR_THREADS", "zebra")
    with pytest.raises(InputError):
        worker_count()


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
    ],
)
def test_certify_smooth_bad_input_exits_2(family_spec, capsys, options):
    assert run(["certify-smooth", "--family", family_spec, *options]) == 2
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
    assert res["argmin_point"] == [[z.real, z.imag] for z in rep.argmin_point]
    assert res["iterations"] == rep.iterations
    assert res["converged"] == rep.converged


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


def test_explore_conjecture_rejects_other_kinds(family_spec):
    assert run(["explore-conjecture", "--family", family_spec]) == 2


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


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip()
