"""Link sampling, orbit decomposition, component counting and SVG export."""

import cmath
import math

import pytest

from conftest import brieskorn, poly
from mixed_milnor import (
    FamilySpec,
    build_family,
    evaluate,
    fibration_phase,
    polar_action,
    project_svg,
    sample_link,
)
from mixed_milnor.errors import InputError, PreconditionError
from mixed_milnor.links import LinkSample, _brieskorn_representatives
from mixed_milnor.numerics import on_variety_tolerance


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
    assert s0.orbits == s1.orbits


def test_sampled_points_lie_on_link():
    fam = brieskorn((2, 3), (1, 1))
    t = 0.5
    sample = sample_link(fam, t, 1.0)
    f = fam.member(t)
    for z in sample.points:
        assert abs(evaluate(f, z)) <= on_variety_tolerance(f, z)
        assert abs(math.sqrt(sum(abs(c) ** 2 for c in z)) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "a, b", [((2, 3), (1, 0)), ((3, 5), (2, 1)), ((2, 4), (0, 1)), ((6, 6), (0, 0))]
)
def test_brieskorn_representatives_lie_on_link_before_polish(a, b):
    fam = brieskorn(a, b)
    for t in (0.0, 0.3, 1.0):
        f = fam.member(t)
        for radius in (0.5, 1.0, 2.0):
            for z in _brieskorn_representatives(fam, t, radius):
                assert abs(evaluate(f, z)) <= on_variety_tolerance(f, z)
                assert math.sqrt(sum(abs(c) ** 2 for c in z)) == pytest.approx(radius)


def test_orbit_closure():
    fam = brieskorn((2, 3), (1, 0))
    sample = sample_link(fam, 0.5, 1.0)
    for orbit in sample.orbits:
        rep = orbit[0]
        around = polar_action(sample.polar_weights, cmath.exp(2j * math.pi), rep)
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
        assert abs(evaluate(f, z)) <= on_variety_tolerance(f, z)


def test_fibration_phase_examples():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 3), (0, 0))])
    assert fibration_phase(f, (1, 0)) == pytest.approx(1)
    with pytest.raises(PreconditionError):
        fibration_phase(f, (0, 0))


def test_fibration_phase_homogeneity():
    fam = brieskorn((2, 3), (1, 0))
    f = fam.endpoint_mixed
    z = (0.9, 0.7j)
    lam = cmath.exp(0.83j)
    base = fibration_phase(f, z)
    moved = fibration_phase(f, polar_action((3, 2), lam, z))
    assert moved == pytest.approx(lam**6 * base)


def test_count_components_empty_sample():
    empty = LinkSample(None, 0.0, 1.0, (1, 1), (), 0, 0, True)
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
