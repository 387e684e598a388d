"""Connection field, RK4 transport and the tube-fiber carry-over."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mixed_milnor import isotopy
from mixed_milnor.errors import InputError, NumericalError, PreconditionError
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


def _unit(angle):
    return complex(math.cos(angle), math.sin(angle))


def _bits(trace):
    """Everything a trace records, with floats as their exact bit patterns."""
    points = np.array([pt for _, pt in trace.samples], dtype=complex)
    residuals = (trace.value_residual.hex(), trace.norm_residual.hex())
    times = tuple(t.hex() for t, _ in trace.samples)
    return points.tobytes(), times, residuals, trace.failed, trace.failure_step


_angle = st.floats(min_value=0.0, max_value=2 * math.pi)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(_angle, _angle, _angle), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.002, max_value=0.01),
)
def test_lockstep_trace_ignores_its_batch(angles, steps, h):
    """Each point's trace is bit for bit the one it gets when transported alone,
    in a batch that mixes points inside the tube (|f_0| <= eta0, value kept and
    Newton-corrected) with points far outside it (|f_0| > 2 eta0, no motion)."""
    fam = brieskorn((2, 3), (1, 0))
    inside = _link_points(fam, 2)
    outside = (1 / math.sqrt(2), 1 / math.sqrt(2))
    assert abs(evaluate(fam.member(0.0), outside)) > 2 * TUBE.tube_level
    drawn = [
        (math.cos(r) * _unit(a), math.sin(r) * _unit(b)) for r, a, b in angles
    ]
    batch = [inside[0], outside] + drawn + [inside[1]]
    t_end = min(1.0, steps * h)
    together = transport(fam, batch, t_end, steps, TUBE, level=None)
    for z, trace in zip(batch, together.traces):
        (alone,) = transport(fam, [z], t_end, steps, TUBE, level=None).traces
        assert _bits(alone) == _bits(trace)
    # the point outside the tube does not move (up to renormalization)
    assert max(abs(a - b) for a, b in zip(together.traces[1].endpoint, outside)) <= 1e-15


def test_integrate_isotopy_is_the_one_point_transport():
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 3)
    summary = transport(fam, pts, 1.0, 100, TUBE)
    assert _bits(integrate_isotopy(fam, pts[2], 1.0, 100, TUBE)) == _bits(summary.traces[2])


def test_off_sphere_point_in_a_batch_is_rejected():
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 3)
    off = tuple(0.5 * c for c in pts[1])
    with pytest.raises(PreconditionError, match="point 1"):
        transport(fam, [pts[0], off, pts[2]], 1.0, 10, TUBE, level=None)
    with pytest.raises(PreconditionError, match="point 2"):
        connection_velocity(fam, 0.5, [pts[0], pts[1], off], TUBE)


def test_velocity_batch_matches_single_points():
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 4)
    batch = connection_velocity(fam, 0.3, pts, TUBE)
    assert batch.shape == (4, 4)
    for z, v in zip(pts, batch):
        assert connection_velocity(fam, 0.3, z, TUBE).tobytes() == v.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_point_is_rejected(bad):
    fam = brieskorn((2, 3), (1, 0))
    z0 = _link_points(fam, 1)[0]
    broken = (complex(bad, 0.0), z0[1])
    with pytest.raises(PreconditionError, match="non-finite"):
        integrate_isotopy(fam, broken, 1.0, 10, TUBE)
    with pytest.raises(PreconditionError, match="non-finite"):
        transport(fam, [z0, broken], 1.0, 10, TUBE, level=None)


def test_state_turning_non_finite_fails_its_point_only(monkeypatch):
    """A point whose velocity breaks mid-run fails at that step with a NaN
    residual (never a vacuous 0), and the rest of its batch is unaffected."""
    fam = brieskorn((2, 3), (1, 0))
    pts = _link_points(fam, 3)
    clean = transport(fam, pts, 1.0, 100, TUBE)
    velocity = isotopy._velocity

    def breaks_point_1(fam, t, x, r, tube, jet=None):
        v = velocity(fam, t, x, r, tube, jet)
        if t > 0.507:  # first passed by the last stage of step 51, t = 0.51
            v[1] = np.nan
        return v

    monkeypatch.setattr(isotopy, "_velocity", breaks_point_1)
    summary = transport(fam, pts, 1.0, 100, TUBE)
    broken = summary.traces[1]
    assert broken.failed and broken.failure_step == 51
    assert math.isnan(broken.norm_residual) and math.isnan(broken.value_residual)
    assert summary.partial
    assert math.isnan(summary.worst_norm_residual)
    for k in (0, 2):
        assert _bits(summary.traces[k]) == _bits(clean.traces[k])


def test_rank_deficiency_names_t_and_point():
    # on the sphere, x = (1, 1)/sqrt(2) is a combination of grad Re f and
    # grad Im f for f = z1^2 + z2^2, and |f| = 1 lies inside a tube of level 2
    fam = brieskorn((2, 2))
    wide = MilnorTubeSpec(1.0, 2.0)
    good = (1 / math.sqrt(2), 1j / math.sqrt(2))
    bad = (1 / math.sqrt(2), 1 / math.sqrt(2))
    with pytest.raises(NumericalError, match=r"t=0\.5 for point 1 \("):
        connection_velocity(fam, 0.5, [good, bad], wide)


@pytest.mark.parametrize("b, newton_correct", [((1, 0), False), ((0, 0), True)])
def test_step_start_jet_is_reused(monkeypatch, b, newton_correct):
    """One kernel pass per RK4 stage after the first, one per value check
    (which the next step's first stage reuses) and one at t = 0: 4 steps + 1
    when no row is corrected.  Link points inside the tube, with correction
    off, or on a constant family that never needs it."""
    fam = brieskorn((2, 3), b)
    points = _link_points(fam, 2)
    calls = []
    kernel = isotopy.value_and_gradient_batch

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(isotopy, "value_and_gradient_batch", counted)
    summary = transport(fam, points, 1.0, 25, TUBE, newton_correct=newton_correct)
    assert not summary.partial
    assert len(calls) == 4 * 25 + 1


def test_reused_jet_is_the_jet_at_the_step_start(monkeypatch):
    """The jet that a step's first stage reuses is, bit for bit, a fresh
    kernel pass at the step's start, also where the value correction moved
    points (a tight value tolerance makes it move them at every step)."""
    fam = brieskorn((2, 3), (1, 0))
    velocity, correction = isotopy._velocity, isotopy._newton_value_correction
    reused, moved = [], []

    def checked_velocity(fam, t, x, r, tube, jet=None):
        if jet is not None:
            fresh = isotopy._jet(fam, t, x)
            reused.append(all(a.tobytes() == b.tobytes() for a, b in zip(jet, fresh)))
        return velocity(fam, t, x, r, tube, jet)

    def counted_correction(fam, t, x, *args):
        out, fixed, residual = correction(fam, t, x, *args)
        moved.append(int((out != x).any(axis=1).sum()))
        return out, fixed, residual

    monkeypatch.setattr(isotopy, "_velocity", checked_velocity)
    monkeypatch.setattr(isotopy, "_newton_value_correction", counted_correction)
    transport(fam, _link_points(fam, 3), 1.0, 20, TUBE, value_tol=1e-12)
    assert len(reused) == 20 and all(reused)
    assert sum(moved) > 0
