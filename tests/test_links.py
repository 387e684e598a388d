"""Link sampling, orbit decomposition, component counting and SVG export."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import brieskorn, count_calls
from mixed_milnor import links
from mixed_milnor import (
    FamilySpec,
    build_family,
    detect_weights,
    project_svg,
    sample_link,
)
from mixed_milnor.core import polar_orbit
from mixed_milnor.errors import InputError, PreconditionError
from mixed_milnor.links import (
    LinkSample,
    _brieskorn_representatives,
    _coordinate_circle_orbits,
    _same_orbit,
)
from mixed_milnor.numerics import level_tolerance


def test_hopf_link_has_two_components():
    fam = brieskorn((2, 2))
    sample = sample_link(fam, 1.0, 1.0)
    assert not sample.flagged
    assert sample.component_count == 2


def test_trefoil_is_one_component():
    fam = brieskorn((2, 3), (1, 0))
    sample = sample_link(fam, 0.0, 1.0)
    assert sample.component_count == 1


def test_gcd_oracle_small_pairs():
    for a1, a2 in ((2, 3), (2, 4), (3, 3), (2, 6)):
        fam = brieskorn((a1, a2))
        sample = sample_link(fam, 1.0, 1.0)
        assert sample.component_count == math.gcd(a1, a2)


def test_constant_family_ignores_t():
    fam = brieskorn((2, 3))
    s0 = sample_link(fam, 0.0, 1.0, seed=4)
    s1 = sample_link(fam, 0.7, 1.0, seed=4)
    assert np.array_equal(s0.orbits, s1.orbits)


def test_sampled_points_lie_on_link():
    fam = brieskorn((2, 3), (1, 1))
    t = 0.5
    sample = sample_link(fam, t, 1.0)
    f = fam.member(t)
    for z in sample.points:
        assert abs(oracle.evaluate(f, z)) <= level_tolerance(fam.members([t]), np.linalg.norm(z))
        assert abs(math.sqrt(sum(abs(c) ** 2 for c in z)) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "a, b", [((2, 3), (1, 0)), ((3, 5), (2, 1)), ((2, 4), (0, 1)), ((6, 6), (0, 0))]
)
def test_brieskorn_representatives_lie_on_link_before_polish(a, b):
    fam = brieskorn(a, b)
    for t in (0.0, 0.3, 1.0):
        f = fam.member(t)
        for radius in (0.5, 1.0, 2.0):
            member = fam.members([t]).on_sphere(radius)[0]
            for z in _brieskorn_representatives(fam, member) * radius:
                tol = level_tolerance(fam.members([t]), np.linalg.norm(z))
                assert abs(oracle.evaluate(f, z)) <= tol
                assert math.sqrt(sum(abs(c) ** 2 for c in z)) == pytest.approx(radius)


def test_orbit_closure():
    fam = brieskorn((2, 3), (1, 0))
    sample = sample_link(fam, 0.5, 1.0)
    for orbit in sample.orbits:
        rep = orbit[0]
        around = polar_orbit(sample.polar_weights, [cmath.exp(2j * math.pi)], rep)[0]
        assert max(abs(a - b) for a, b in zip(around, rep)) <= 1e-8


def test_component_count_stable_along_t():
    for a, b in (((2, 3), (1, 0)), ((2, 2), (1, 1))):
        fam = brieskorn(a, b)
        c0 = sample_link(fam, 0.0, 1.0).component_count
        c1 = sample_link(fam, 1.0, 1.0).component_count
        assert c0 == c1 == math.gcd(*a)


def test_chained_kind_uses_seeded_sampling():
    fam = build_family(FamilySpec("type_i", (2, 2), (1, 0)))
    sample = sample_link(fam, 0.5, 1.0, seeds=32, seed=0)
    assert sample.seeds_used == 32
    assert sample.component_count >= 1
    f = fam.member(0.5)
    for z in sample.points:
        assert abs(oracle.evaluate(f, z)) <= level_tolerance(fam.members([0.5]), np.linalg.norm(z))


def test_count_components_empty_sample():
    empty = LinkSample(0.0, 1.0, (1, 1), (), 0, 0, True)
    with pytest.raises(PreconditionError):
        project_svg(empty, "/tmp/unused.svg")


def test_sample_link_validation():
    fam3 = build_family(FamilySpec("brieskorn", (2, 2, 2), (0, 0, 0)))
    with pytest.raises(PreconditionError):
        sample_link(fam3, 0.0, 1.0)
    fam = brieskorn((2, 2))
    with pytest.raises(InputError):
        sample_link(fam, 0.0, -1.0)


def test_svg_export(tmp_path):
    fam = brieskorn((2, 2))
    sample = sample_link(fam, 1.0, 1.0)
    out = tmp_path / "hopf.svg"
    project_svg(sample, str(out))
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2

    trefoil = sample_link(brieskorn((2, 3)), 1.0, 1.0)
    out2 = tmp_path / "trefoil.svg"
    project_svg(trefoil, str(out2))
    assert out2.read_text().count("<polyline") == 1


def test_svg_skips_the_projection_pole(tmp_path):
    """The cyclic link holds the coordinate circle z_1 = 0, which passes
    through the pole (0, i r): that one point is left out of its polyline,
    with no division by zero (a RuntimeWarning fails the suite)."""
    sample = sample_link(build_family(FamilySpec("type_ii", (2, 2), (1, 1))), 0.0, 1.0)
    out = tmp_path / "cyclic.svg"
    project_svg(sample, str(out))
    lines = [line for line in out.read_text().splitlines() if line.startswith("<polyline")]
    R = links.RESOLUTION
    # one closing point per polyline
    assert [line.split('"')[1].count(",") for line in lines] == [R + 1, R, R + 1]


@pytest.mark.parametrize(
    "kind, b, expected",
    [
        ("brieskorn", (1, 0), []),
        ("type_i", (1, 0), [(1.0, 0)]),
        ("type_ii", (1, 1), [(1.0, 0), (0, 1.0)]),
    ],
)
def test_coordinate_circles_in_one_kernel_pass(monkeypatch, kind, b, expected):
    """Both coordinate circles of the unit sphere at three phases each: six
    points, one pass."""
    f = build_family(FamilySpec(kind, (2, 3), b)).members([0.5]).on_sphere(2.0)[0]
    calls = count_calls(monkeypatch, links, "value_and_gradient_batch")
    assert _coordinate_circle_orbits(f).tolist() == [list(map(complex, c)) for c in expected]
    assert len(calls) == 1


def _bits(values) -> list:
    """The IEEE bit patterns of complex values, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize(
    "kind, a, b, t",
    [
        ("brieskorn", (2, 3), (1, 1), 0.4),
        ("brieskorn", (4, 6), (2, 1), 1.0),
        ("type_i", (2, 3), (1, 0), 0.4),
        ("type_ii", (2, 2), (1, 1), 0.0),
    ],
)
def test_traced_points_are_the_oracle_action_bitwise(monkeypatch, kind, a, b, t):
    """Point k of each traced orbit is Python's z * lam_k ** p at
    lam_k = cmath.exp(2j pi k / R), coordinate by coordinate, and is read-only."""
    calls = count_calls(monkeypatch, links, "polar_orbit")
    sample = sample_link(build_family(FamilySpec(kind, a, b)), t, 1.0, seeds=16, seed=3)
    P, _, reps = calls[-1]
    R = links.RESOLUTION
    assert sample.orbits.shape == (len(reps), R, 2) and len(reps) >= 1
    lams = [cmath.exp(2j * math.pi * k / R) for k in range(R)]
    for rep, orbit in zip(reps, sample.orbits):
        assert _bits(orbit) == _bits([oracle.polar_action(P, lam, rep) for lam in lams])
    with pytest.raises(ValueError, match="read-only"):
        sample.points[0, 0] = 0  # a frozen sample's orbits cannot change through its points


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(((2, 3), (2, 2), (4, 6), (3, 3), (6, 4))),
    st.integers(0, 11),
    st.integers(0, 11),
    st.floats(-10.0, 10.0),
)
def test_same_orbit_agrees_with_the_oracle_action(a, i, j, phi):
    """The fundamental-torus representatives k and k' of T(a1, a2) lie on one
    orbit exactly when gcd(a1, a2) divides k - k'; moving one of them by the
    oracle's action at a random phase keeps it on its orbit."""
    fam = brieskorn(a)
    P = detect_weights(fam.member(1.0)).polar_weights
    reps = _brieskorn_representatives(fam, fam.members([1.0]))
    z, w = reps[i % len(reps)], reps[j % len(reps)]
    moved = oracle.polar_action(P, cmath.exp(1j * phi), w)
    expected = (i % len(reps) - j % len(reps)) % math.gcd(*a) == 0
    assert _same_orbit(z, moved, P, 1e-4) is expected
    assert _same_orbit(moved, z, P, 1e-4) is expected


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.floats(0.1, 2.0),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)
def test_same_orbit_with_a_zero_coordinate(P, rho, theta, phi):
    """A point with one zero coordinate meets its orbit at every phase; two
    points whose moduli differ never share one; the origin is its own orbit."""
    z = (0j, rho * cmath.exp(1j * theta))
    assert _same_orbit(z, oracle.polar_action(P, cmath.exp(1j * phi), z), P, 1e-4)
    assert not _same_orbit(z, z[::-1], P, 1e-4)
    assert _same_orbit((0j, 0j), (0j, 0j), P, 1e-4)


# (kind, a, b) -> the oracle count of g's link, which every t shares
_COUNT_FAMILIES = {
    ("brieskorn", (2, 3), (1, 0)): 1,  # gcd(a1, a2)
    ("brieskorn", (2, 4), (1, 1)): 2,
    ("type_i", (2, 3), (1, 0)): 3,  # 1 + gcd(a1, a2 - 1): g = z2 (z1^a1 + z2^(a2 - 1))
    ("type_i", (2, 3), (1, 1)): 3,
    ("type_ii", (2, 2), (1, 1)): 3,  # 2 + gcd(a1 - 1, a2 - 1): g = z1 z2 (z1^(a1-1) + z2^(a2-1))
}
_RADII = [10.0**k for k in range(-12, 13, 2)]
# cells that still miscount: a level or merge test on the unit scale that
# does not scale with the member (ROADMAP item 3)
_MISCOUNTS = {
    ("brieskorn", (2, 4), (1, 1)): {
        (r, t) for r in (1e-12, 1e-10) for t in (0.0, 0.5, 1.0)
    } | {(r, t) for r in (1e-8, 1e-6) for t in (0.5, 1.0)} | {(1e10, 1.0), (1e12, 1.0)},
    ("type_i", (2, 3), (1, 0)): {(r, 0.0) for r in (1e-12, 1e-10, 1e-8, 1e-6)}
    | {(r, t) for r in (1e6, 1e8, 1e10, 1e12) for t in (0.0, 0.5)},
}


def _count_cases():
    for (kind, a, b), want in _COUNT_FAMILIES.items():
        # type_ii along t is the paper's open case: its g end only
        for t in (1.0,) if kind == "type_ii" else (0.0, 0.5, 1.0):
            for r in _RADII:
                marks = ()
                if (r, t) in _MISCOUNTS.get((kind, a, b), ()):
                    reason = "ROADMAP item 3: unit-scale level and merge tests miscount here"
                    marks = pytest.mark.xfail(strict=True, reason=reason)
                case = f"{kind}{a}{b}-t{t}-r{r:g}"
                yield pytest.param(kind, a, b, t, r, want, marks=marks, id=case)


@pytest.mark.parametrize("kind, a, b, t, radius, want", list(_count_cases()))
def test_component_counts_over_radii_match_the_oracle(kind, a, b, t, radius, want):
    """On the unit-scale form the link count of every member matches g's
    oracle from radius 1e-12 to 1e12."""
    fam = build_family(FamilySpec(kind, a, b))
    assert sample_link(fam, t, radius).component_count == want
