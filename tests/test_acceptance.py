"""Desk-scale acceptance sweep: one test per criterion, each printing a single
pass/fail line (emitted outside pytest's capture so the summary is always
visible on the terminal)."""

import cmath
import json
import math
from itertools import product

import numpy as np
import pytest

from conftest import brieskorn
from mixed_milnor import (
    FamilySpec,
    build_family,
    certify_smooth_shell,
    detect_weights,
    eta_map,
    evaluate,
    lemma_inequality_check,
    normalize_coefficients,
    polar_action,
    sample_link,
    sample_on_variety,
    transport,
    verify_scaling,
)
from mixed_milnor.cli import run
from mixed_milnor.families import MilnorTubeSpec
from mixed_milnor.isotopy import integrate_isotopy
from mixed_milnor.links import _same_orbit
from mixed_milnor.numerics import newton_on_sphere, random_sphere_point, rng_for
from mixed_milnor.transversality import _witnesses, solve_phi_rows
from test_scaling import _random_simplicial

TUBE = MilnorTubeSpec(1.0, 0.1)


@pytest.fixture
def announce(capsys):
    """Run one criterion body and print its pass/fail line on the terminal."""

    def _announce(num, label, body):
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print(f"FAIL criterion {num:2d}: {label}")
            raise
        with capsys.disabled():
            print(f"PASS criterion {num:2d}: {label}")

    return _announce


def test_criterion_01_weight_formula(announce):
    def body():
        for n in range(1, 5):
            for a in product(range(2, 7), repeat=n):
                w = detect_weights(brieskorn(a).endpoint_holomorphic)
                d = math.lcm(*a)
                assert w.polar_degree == d
                assert w.polar_weights == tuple(d // aj for aj in a)

    announce(1, "weight detection matches the lcm formula", body)


def test_criterion_02_homogeneity_identities(announce):
    def body():
        fam = brieskorn((2, 3), (1, 1))
        P, d = (3, 2), 6
        rng = rng_for(0, "acc:homog")
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            f = fam.member(t)
            for _ in range(200):
                z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
                lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
                fz = evaluate(f, z)
                assert abs(evaluate(f, polar_action(P, lam, z)) - lam**d * fz) <= (
                    1e-10 * (1 + abs(fz))
                )
        for _ in range(1000):
            z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
            lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
            fz = evaluate(fam.endpoint_mixed, z)
            w = eta_map(fam.spec, z)
            assert abs(evaluate(fam.endpoint_holomorphic, w) - fz) <= 1e-10 * (
                1 + abs(fz)
            )
            lhs = eta_map(fam.spec, polar_action(P, lam, z))
            rhs = polar_action(P, lam, w)
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-10

    announce(2, "polar homogeneity and value-preserving map identities", body)


def test_criterion_03_smooth_shell_echo(announce):
    def body():
        fam = brieskorn((2, 3), (1, 1))
        grid = tuple(k / 10 for k in range(11))
        rep = certify_smooth_shell(fam, grid, 1.0, restarts=64, seed=0)
        assert rep.min_residual_found > 1e-3
        rng = rng_for(1, "acc:ineq")
        checked = 0
        while checked < 500:
            z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
            if any(abs(c) < 1e-3 for c in z):
                continue
            t = float(rng.uniform(0.05, 0.95))
            assert all(c.strict for c in lemma_inequality_check(fam, t, z))
            checked += 1

    announce(3, "shell search positive minimum and strict index bounds", body)


def test_criterion_04_radial_witnesses(announce):
    def body():
        rng = rng_for(2, "acc:phi")
        draws = {}  # (a, b) -> [(tau, w_abs, r)], solved as one batch each
        for _ in range(1000):
            a = int(rng.integers(1, 7))
            b = int(rng.integers(0, 7))
            tau = float(rng.uniform(0, 1))
            w_abs = float(rng.uniform(0.1, 10))
            r = float(rng.uniform(0.1, 10))
            draws.setdefault((a, b), []).append((tau, w_abs, r))
        for (a, b), rows in draws.items():
            tau, w_abs, r = np.array(rows).T
            s, _ = solve_phi_rows(a, b, tau, w_abs, r)
            c = (1 - tau) * w_abs ** (2 * b)
            lhs = s**a * (tau + c * s ** (2 * b))
            rhs = r * (tau + c)
            assert (np.abs(lhs - rhs) <= 1e-10 * np.maximum(1.0, np.abs(rhs))).all()
        fam = brieskorn((2, 3), (1, 1))
        checked = 0
        for t in (0.25, 0.5, 0.75):
            f = fam.member(t)
            pts, failures = sample_on_variety(f, 1.0, 34, seed=0, label=f"acc4:{t}")
            assert failures == 0
            for cert, _ in _witnesses(fam, [t], [pts]):
                assert cert.margin > 0
            z = np.array(pts)
            mods = np.abs(z)
            for r in (0.5, 0.75, 1.0, 1.5, 2.0):
                xi = z.copy()  # zero coordinates stay zero
                for j, (aj, bj) in enumerate(zip(fam.spec.a, fam.spec.b)):
                    live = mods[:, j] > 0
                    k = int(live.sum())
                    s, _ = solve_phi_rows(aj, bj, np.full(k, t), mods[live, j], np.full(k, r))
                    xi[live, j] *= s
                for x in xi.tolist():
                    assert abs(evaluate(f, x)) <= 1e-9
            checked += len(pts)
        assert checked >= 100

    announce(4, "phi round trips and positive radial witness margins", body)


def test_criterion_05_chained_recursion(announce):
    def body():
        fam = build_family(FamilySpec("type_i", (2, 3, 2), (1, 0, 1)))
        t = 0.5
        f = fam.member(t)
        pts, failures = sample_on_variety(f, 1.0, 100, seed=0, label="acc5")
        assert failures == 0 and len(pts) == 100
        a = fam.spec.a
        mods = np.abs(np.array(pts))
        for j, (aj, bj) in enumerate(zip(a, fam.spec.b)):
            live = mods[:, j] > 0
            k = int(live.sum())
            s, _ = solve_phi_rows(aj, bj, np.full(k, t), mods[live, j], np.ones(k))
            assert (s == 1.0).all()
        scales = {}  # r -> the s_values of every point
        for r in (1.0, 1.5, 2.0, 4.0):
            traces = [trace for _, trace in _witnesses(fam, [t], [pts], r)]
            for trace in traces:
                for rj, sj, aj in zip(trace.r_values, trace.s_values, a):
                    if rj is None:
                        continue
                    assert rj >= 1 - 1e-12
                    assert sj >= 1 - 1e-12
                    assert sj**aj <= rj * (1 + 1e-12)
            scales[r] = [trace.s_values for trace in traces]
        # the per-index scale grows monotonically with the target radius
        for r_lo, r_hi in ((1.5, 2.0), (2.0, 4.0)):
            for s_lo, s_hi in zip(scales[r_lo], scales[r_hi]):
                assert all(lo <= hi + 1e-12 for lo, hi in zip(s_lo, s_hi))

    announce(5, "chained-family recursion solves stay above one", body)


@pytest.fixture(scope="module")
def trefoil_transport():
    fam = brieskorn((2, 3), (1, 0))
    orbit_pts = sample_link(fam, 0.0, 1.0).points
    step = max(1, len(orbit_pts) // 200)
    pts = [orbit_pts[i] for i in range(0, len(orbit_pts), step)][:200]
    assert len(pts) == 200
    return fam, pts, transport(fam, pts, 1.0, 200, TUBE)


def test_criterion_06_isotopy_transport(announce, trefoil_transport):
    def body():
        fam, pts, fwd = trefoil_transport
        assert not fwd.partial
        assert fwd.worst_norm_residual <= 1e-8
        holo = fam.member(1.0)
        for tr in fwd.traces:
            assert abs(evaluate(holo, tr.endpoint)) <= 1e-6
        back = transport(
            fam.reversed(), [tr.endpoint for tr in fwd.traces], 1.0, 200, TUBE
        )
        for z0, tr in zip(pts, back.traces):
            assert max(abs(a - b) for a, b in zip(tr.endpoint, z0)) <= 1e-5
        coarse = integrate_isotopy(fam, pts[0], 1.0, 50, TUBE, newton_correct=False)
        fine = integrate_isotopy(fam, pts[0], 1.0, 100, TUBE, newton_correct=False)
        assert coarse.value_residual / fine.value_residual >= 8.0

    announce(6, "zero-level transport, round trip and order-4 convergence", body)


def test_criterion_07_tube_fiber_transport(announce):
    def body():
        fam = brieskorn((2, 2), (1, 1))
        f0 = fam.member(0.0)
        rng = rng_for(3, "acc:fiber")
        pts = []
        while len(pts) < 100:
            z = newton_on_sphere(
                f0, TUBE.tube_level, 1.0, random_sphere_point(rng, 2, 1.0)
            )
            if z is not None:
                pts.append(z)
        moved = transport(fam, pts, 1.0, 200, TUBE, level=TUBE.tube_level)
        assert not moved.partial
        holo = fam.member(1.0)
        for tr in moved.traces:
            assert abs(evaluate(holo, tr.endpoint) - TUBE.tube_level) <= 1e-6

    announce(7, "tube-boundary fiber carries over with its level intact", body)


def test_criterion_08_link_component_counts(announce):
    def body():
        for a1 in range(2, 7):
            for a2 in range(2, 7):
                sample = sample_link(brieskorn((a1, a2)), 1.0, 1.0)
                assert sample.component_count == math.gcd(a1, a2)
        for a, b in (((2, 3), (1, 0)), ((2, 4), (0, 1)), ((2, 2), (1, 1))):
            fam = brieskorn(a, b)
            s0 = sample_link(fam, 0.0, 1.0)
            s1 = sample_link(fam, 1.0, 1.0)
            expected = math.gcd(*a)
            assert s0.component_count == s1.component_count == expected
            # independent confirmation: carry one representative per sampled
            # orbit across the family and count distinct orbits at the end
            reps = [orbit[0] for orbit in s0.orbits]
            summary = transport(fam, reps, 1.0, 100, TUBE)
            assert not summary.partial
            ends = [tr.endpoint for tr in summary.traces]
            classes = []
            for z in ends:
                assert abs(evaluate(fam.member(1.0), z)) <= 1e-6
                if not any(
                    _same_orbit(rep, z, s1.polar_weights, 1e-4) for rep in classes
                ):
                    classes.append(z)
            assert len(classes) == expected

    announce(8, "link component counts match the gcd oracle both ways", body)


def test_criterion_09_scaling_round_trip(announce):
    def body():
        rng = rng_for(4, "acc:scaling")
        for _ in range(50):
            f = _random_simplicial(rng)
            res = normalize_coefficients(f)
            assert verify_scaling(f, res.scaling) <= 1e-10

    announce(9, "coefficient normalization round trip", body)


def test_criterion_10_conjecture_explorer(announce, tmp_path):
    def body():
        spec = tmp_path / "cyclic.json"
        spec.write_text(json.dumps({"family": "type_ii", "a": [2, 2], "b": [1, 1]}))
        argv = [
            "explore-conjecture",
            "--family",
            str(spec),
            "--t-grid",
            "0:1:0.1",
            "--samples",
            "500",
            "--seed",
            "7",
            "--canonical",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        report = json.loads(first.read_text())
        assert report["result"]["min_margin"] > 0
        assert report["result"]["samples_found"] > 0
        manifest = report["manifest"]
        assert manifest["seed"] == 7 and manifest["spec_digest"]
        assert first.read_bytes() == second.read_bytes()

    announce(10, "cyclic-family explorer reports and reruns byte-identically", body)
