"""Connection field, RK4 transport and the tube-fiber carry-over."""

import math

import numpy as np
import pytest

from conftest import brieskorn
from mixed_milnor import (
    FamilySpec,
    build_family,
    choose_tube_level,
    connection_velocity,
    evaluate,
    integrate_isotopy,
    sample_link,
    transport,
)
from mixed_milnor.errors import InputError, PreconditionError
from mixed_milnor.families import MilnorTubeSpec, family_t_derivative
from mixed_milnor.isotopy import _cutoff
from mixed_milnor.numerics import real_jacobian_rows, realify, rng_for


TUBE = MilnorTubeSpec(1.0, 0.1)


def _link_points(fam, count, t=0.0):
    sample = sample_link(fam, t, 1.0, seeds=16, seed=0)
    pts = sample.points
    step = max(1, len(pts) // count)
    return [pts[i] for i in range(0, len(pts), step)][:count]


def test_cutoff_profile():
    assert _cutoff(0.05, 0.1) == 1.0
    assert _cutoff(0.1, 0.1) == 1.0
    assert _cutoff(0.2, 0.1) == 0.0
    assert _cutoff(0.3, 0.1) == 0.0
    levels = [0.1 + 0.001 * k for k in range(101)]
    values = [_cutoff(lv, 0.1) for lv in levels]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_velocity_vanishes_for_constant_family():
    fam = brieskorn((2, 3))
    pt = _link_points(fam, 1)[0]
    v = connection_velocity(fam, 0.5, pt, TUBE)
    assert np.linalg.norm(v) <= 1e-10


def test_velocity_vanishes_outside_tube():
    fam = brieskorn((2, 3), (1, 0))
    tiny = MilnorTubeSpec(1.0, 1e-6)
    z = (1 / math.sqrt(2), 1 / math.sqrt(2))  # |f_t| = O(1) >> 2 eta0
    v = connection_velocity(fam, 0.5, z, tiny)
    assert np.linalg.norm(v) <= 1e-12


def test_velocity_satisfies_constraints_exactly():
    fam = brieskorn((2, 3), (1, 0))
    z = _link_points(fam, 1)[0]
    t = 0.3
    v = connection_velocity(fam, t, z, TUBE)
    x = realify(z)
    assert abs(np.dot(x, v)) <= 1e-12
    J = real_jacobian_rows(fam.member(t), z)
    dft = family_t_derivative(fam, t, z)
    res = J @ v + np.array([dft.real, dft.imag])
    assert np.linalg.norm(res) <= 1e-10


def test_velocity_requires_sphere_point():
    fam = brieskorn((2, 3), (1, 0))
    with pytest.raises(PreconditionError):
        connection_velocity(fam, 0.5, (0.3, 0.3), TUBE)


def test_integrate_zero_end():
    fam = brieskorn((2, 3), (1, 0))
    z0 = _link_points(fam, 1)[0]
    trace = integrate_isotopy(fam, z0, 0.0, 10, TUBE)
    assert trace.samples == ((0.0, tuple(z0)),)
    assert trace.value_residual == 0
    assert not trace.failed


def test_integrate_constant_family_is_identity():
    fam = brieskorn((2, 3))
    z0 = _link_points(fam, 1)[0]
    trace = integrate_isotopy(fam, z0, 1.0, 20, TUBE)
    assert max(abs(a - b) for a, b in zip(trace.endpoint, z0)) <= 1e-9


def test_transport_link_reaches_holomorphic_link():
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 20)
    summary = transport(fam, pts, 1.0, 100, TUBE)
    assert not summary.partial
    assert summary.worst_norm_residual <= 1e-8
    holo = fam.member(1.0)
    for tr in summary.traces:
        assert tr.samples[0] == (0.0, tuple(tr.start))
        assert all(a[0] < b[0] for a, b in zip(tr.samples, tr.samples[1:]))
        assert abs(evaluate(holo, tr.endpoint)) <= 1e-6


def test_round_trip_returns_to_start():
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 5)
    fwd = transport(fam, pts, 1.0, 100, TUBE)
    back = transport(
        fam.reversed(), [tr.endpoint for tr in fwd.traces], 1.0, 100, TUBE
    )
    for z0, tr in zip(pts, back.traces):
        assert max(abs(a - b) for a, b in zip(tr.endpoint, z0)) <= 1e-5


def test_endpoints_do_not_collide():
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 10)
    summary = transport(fam, pts, 1.0, 100, TUBE)
    ends = [tr.endpoint for tr in summary.traces]

    def min_dist(points):
        return min(
            math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p, q)))
            for i, p in enumerate(points)
            for q in points[i + 1 :]
        )

    assert min_dist(ends) >= 0.5 * min_dist(pts)


def test_fourth_order_convergence():
    fam = brieskorn((2, 3), (1, 0))
    z0 = _link_points(fam, 1)[0]
    coarse = integrate_isotopy(fam, z0, 1.0, 50, TUBE, newton_correct=False)
    fine = integrate_isotopy(fam, z0, 1.0, 100, TUBE, newton_correct=False)
    assert coarse.value_residual / fine.value_residual >= 8.0


def test_transport_link_rejects_off_variety_points():
    fam = brieskorn((2, 3), (1, 0))
    with pytest.raises(PreconditionError):
        transport(fam, [(1 / math.sqrt(2), 1 / math.sqrt(2))], 1.0, 10, TUBE)


def test_transport_empty_link():
    fam = brieskorn((2, 3), (1, 0))
    summary = transport(fam, [], 1.0, 10, TUBE)
    assert summary.traces == ()
    assert summary.worst_value_residual == 0
    assert not summary.partial


def test_tube_fiber_identity_cases():
    fam = brieskorn((2, 2), (1, 1))
    from mixed_milnor.numerics import newton_on_sphere, random_sphere_point

    rng = rng_for(53, "iso:fiber")
    poly0 = fam.member(0.0)
    pts = []
    while len(pts) < 3:
        z = newton_on_sphere(
            poly0, TUBE.tube_level, 1.0, random_sphere_point(rng, 2, 1.0)
        )
        if z is not None:
            pts.append(z)
    still = transport(fam, pts, 0.0, 10, TUBE, level=TUBE.tube_level)
    for z, tr in zip(pts, still.traces):
        assert tr.endpoint == tuple(z)
    moved = transport(fam, pts, 1.0, 100, TUBE, level=TUBE.tube_level)
    holo = fam.member(1.0)
    for tr in moved.traces:
        assert abs(abs(evaluate(holo, tr.endpoint)) - TUBE.tube_level) <= 1e-6


def test_tube_fiber_rejects_wrong_level():
    fam = brieskorn((2, 2), (1, 1))
    z = (1 / math.sqrt(2), 1j / math.sqrt(2))  # on V_0, so |f_0| = 0 != eta0
    with pytest.raises(PreconditionError):
        transport(fam, [z], 1.0, 10, TUBE, level=TUBE.tube_level)


def test_choose_tube_level_positive():
    fam = brieskorn((2, 3), (1, 1))
    level = choose_tube_level(fam, 1.0, samples=64)
    assert 0 < level < 1


def test_integrate_validation():
    fam = brieskorn((2, 3), (1, 0))
    z0 = _link_points(fam, 1)[0]
    with pytest.raises(InputError):
        integrate_isotopy(fam, z0, 1.5, 10, TUBE)
    with pytest.raises(InputError):
        integrate_isotopy(fam, z0, 1.0, 0, TUBE)
    with pytest.raises(PreconditionError):
        integrate_isotopy(fam, tuple(0.5 * c for c in z0), 1.0, 10, TUBE)
