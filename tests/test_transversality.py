"""Rank-test and constructive-witness transversality, phi solving and the
cyclic-family evidence search."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from conftest import brieskorn, count_calls, poly
from mixed_milnor import (
    FamilySpec,
    build_family,
    certify_smooth_shell,
    check_transversality,
    conjecture_search_type_ii,
    transversality,
)
from mixed_milnor.errors import InputError, PreconditionError
from mixed_milnor.families import DeformationFamily
from mixed_milnor import core, numerics
from mixed_milnor.core import polynomial_arrays, value_and_gradient_batch
from mixed_milnor.transversality import (
    ATTEMPTS_PER_SAMPLE,
    DEFAULT_MARGIN_THRESHOLD,
    WITNESS_RADIUS,
    _margins,
    _witnesses,
    sample_rows,
    solve_phi_rows,
)
from mixed_milnor.numerics import (
    level_tolerance,
    newton_on_sphere_batch,
    point_rows,
    real_jacobian,
    rng_for,
)


def _real(z):
    """(z_1..z_n) as (x_1, y_1, ..., x_n, y_n)."""
    return np.asarray(z, dtype=complex).view(float)


def _real_jacobian(f, z):
    """The rows (grad Re f, grad Im f) at one point, from one kernel pass."""
    _, re, im = value_and_gradient_batch(polynomial_arrays([f]), np.array([z], dtype=complex))
    return real_jacobian(re, im)[0]


def _sample(f, count, seed, label):
    """`sample_rows` of the one polynomial f: its points as tuples, in sample
    order, and its failure count."""
    points, found = sample_rows(polynomial_arrays([f]), count, seed, [label])
    return [tuple(z) for z in points[0][found[0]].tolist()], int((~found).sum())


def _rank_margins(fam, t, points):
    z = point_rows(points, fam.n)
    return _margins(fam.members(np.full(len(z), t)), z, t)


def _witness(fam, t, w, r=WITNESS_RADIUS):
    """The lockstep witness pass at one point: its report record."""
    return next(_witnesses(fam, [t], [[w]], r))


def _phi(a, b, tau, w_abs, r):
    return float(solve_phi_rows(a, b, [tau], [w_abs], [r])[0][0])


def test_real_gradients_identity_map():
    f = poly(1, [(1, (1,), (0,))])
    grad_g, grad_h = map(tuple, _real_jacobian(f, (0.7 - 0.3j,)))
    assert grad_g == pytest.approx((1, 0))
    assert grad_h == pytest.approx((0, 1))


def test_real_gradients_squared_modulus():
    f = poly(1, [(1, (1,), (1,))])
    grad_g, grad_h = map(tuple, _real_jacobian(f, (1,)))
    assert grad_g == pytest.approx((2, 0))
    assert grad_h == pytest.approx((0, 0), abs=1e-14)


def test_real_gradients_match_finite_differences():
    f = poly(1, [(1, (3,), (1,))])
    z = 1 + 1j
    grad_g, grad_h = map(tuple, _real_jacobian(f, (z,)))
    h = 1e-6
    for k in range(2):
        for part, grad in (("real", grad_g), ("imag", grad_h)):
            dz = h if k == 0 else 1j * h
            fd = (
                getattr(oracle.evaluate(f, (z + dz,)), part)
                - getattr(oracle.evaluate(f, (z - dz,)), part)
            ) / (2 * h)
            assert fd == pytest.approx(grad[k], abs=1e-5)


def test_real_gradients_reconstruct_wirtinger():
    rng = rng_for(47, "trans:recon")
    fam = brieskorn((2, 3), (1, 1))
    f = fam.member(0.4)
    for _ in range(20):
        z = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
        grad_g, grad_h = map(tuple, _real_jacobian(f, z))
        w = oracle.wirtinger_gradient(f, z)
        for j in range(2):
            dx = complex(grad_g[2 * j], grad_h[2 * j])
            dy = complex(grad_g[2 * j + 1], grad_h[2 * j + 1])
            assert abs((dx - 1j * dy) / 2 - w.d_z[j]) <= 1e-10 * (1 + abs(w.d_z[j]))
            assert abs((dx + 1j * dy) / 2 - w.d_zbar[j]) <= 1e-10 * (1 + abs(w.d_zbar[j]))


def test_rank_test_holomorphic_point():
    fam = brieskorn((2, 2))
    w = (1 / math.sqrt(2), 1j / math.sqrt(2))
    (margin,) = _rank_margins(fam, 1.0, [w])
    assert margin > 0.1


def test_rank_test_degenerate_point():
    f = poly(1, [(1, (1,), (1,)), (-1, (0,), (0,))])  # z zbar - 1
    spec = FamilySpec("brieskorn", (2,), (0,))
    fam = DeformationFamily(spec, f, f)
    assert _rank_margins(fam, 0.5, [(1,)]).tolist() == [0.0]


def test_rank_test_preconditions():
    fam = brieskorn((2, 2))
    with pytest.raises(PreconditionError):
        _rank_margins(fam, 1.0, [(1, 1)])  # not on the variety
    f = poly(1, [(1, (1,), (0,))])
    fam1 = DeformationFamily(FamilySpec("brieskorn", (1,), (0,)), f, f)
    with pytest.raises(PreconditionError):
        _rank_margins(fam1, 0.0, [(0,)])  # origin


def test_rank_test_on_sampled_mixed_points():
    fam = brieskorn((2, 3), (1, 1))
    pts, failures = _sample(fam.member(0.5), 10, 0, "t")
    assert failures == 0
    assert (_rank_margins(fam, 0.5, pts) > DEFAULT_MARGIN_THRESHOLD).all()


def test_solve_phi_fixed_points():
    assert _phi(3, 2, 0.7, 1.3, 1.0) == 1.0
    assert _phi(3, 2, 1.0, 1.3, 5.0) == pytest.approx(5 ** (1 / 3))
    assert _phi(4, 0, 0.5, 2.0, 5.0) == pytest.approx(5 ** 0.25)
    assert _phi(2, 1, 0.0, 1.0, 5.0) == pytest.approx(5 ** 0.25)


def test_solve_phi_quadratic_closed_form():
    s = _phi(2, 1, 0.5, 1.0, 4.0)
    assert s == pytest.approx(math.sqrt((-1 + math.sqrt(33)) / 2), abs=1e-10)
    assert s**4 + s**2 == pytest.approx(8, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_solve_phi_round_trip(a, b, tau, w_abs, r):
    s = _phi(a, b, tau, w_abs, r)
    c = (1 - tau) * w_abs ** (2 * b)
    lhs = s**a * (tau + c * s ** (2 * b))
    rhs = r * (tau + c)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_solve_phi_monotone_in_r():
    prev = 0.0
    for r in (0.2, 0.5, 1.0, 2.0, 5.0):
        s = _phi(3, 2, 0.4, 0.7, r)
        assert s > prev
        prev = s


def test_solve_phi_validation():
    with pytest.raises(InputError):
        _phi(0, 1, 0.5, 1.0, 2.0)
    with pytest.raises(InputError):
        _phi(2, 1, 1.5, 1.0, 2.0)
    with pytest.raises(InputError):
        _phi(2, 1, 0.5, 0.0, 2.0)


def test_radial_witness_holomorphic_margin_formula():
    fam = brieskorn((2, 2))
    w = (1 / math.sqrt(2), 1j / math.sqrt(2))
    rec = _witness(fam, 1.0, w)
    assert "trace" not in rec
    expected = sum((2.0 / a) * abs(c) ** 2 for a, c in zip((2, 2), w))
    assert rec["witness_margin"] == pytest.approx(expected, abs=1e-6)
    assert rec["witness_transverse"]
    assert rec["witness_vector"] is not None


def _mixed_on_variety_pair(t=0.5):
    """a=(2,2), b=(1,1): phases chosen so the two terms cancel exactly."""
    c = 1 / math.sqrt(2)
    return brieskorn((2, 2), (1, 1)), (c, 1j * c)


def test_radial_witness_mixed_point_and_containment():
    fam, w = _mixed_on_variety_pair()
    t = 0.5
    assert _witness(fam, t, w)["witness_margin"] > 0
    f = fam.member(t)
    for r in (0.5, 0.8, 1.0, 1.25, 2.0):
        xi = tuple(
            z * _phi(a, b, t, abs(z), r)
            for z, a, b in zip(w, fam.spec.a, fam.spec.b)
        )
        nrm = math.sqrt(sum(abs(z) ** 2 for z in xi))
        assert abs(oracle.evaluate(f, xi)) <= 1e-9 * (1 + nrm**f.max_degree)


def test_radial_witness_implies_rank_transversality():
    fam = brieskorn((2, 3), (1, 1))
    for t in (0.25, 0.75):
        pts, _ = _sample(fam.member(t), 10, 1, f"w:{t}")
        witnesses = _witnesses(fam, [t], [pts])
        for rec, margin in zip(witnesses, _rank_margins(fam, t, pts)):
            if rec["witness_margin"] > 1e-6:
                assert margin > 0


def test_radial_witness_preconditions():
    fam, _ = _mixed_on_variety_pair()
    with pytest.raises(PreconditionError):
        _witness(fam, 0.5, (0.5, 0))  # single nonzero coord, not on V


def test_chained_witness_empty_index_set():
    fam = build_family(FamilySpec("type_i", (2, 2), (1, 0)))
    w = (0.8, 0)  # both monomials vanish
    rec = _witness(fam, 0.5, w)
    trace = rec["trace"]
    assert trace["J"] == ()
    assert trace["I0"] == (2,)
    assert trace["components"] == ()
    assert rec["witness_margin"] == pytest.approx(2 * 0.64)
    assert rec["witness_vector"] == pytest.approx(tuple(_real(w)))


def test_witness_margin_threshold_scales_with_the_point():
    """A witness margin of 1.2e-44 at a unit point is no evidence: the rank
    test's threshold applies to the margin per unit |w|^2."""
    fam = build_family(FamilySpec("type_i", (1, 1), (0, 0)))
    w1 = complex(-0.9365, 0.3506)
    w = (w1 / abs(w1), complex(-7.2e-23, -2.6e-23))
    rec = _witness(fam, 0.0, w)
    assert 0 < rec["witness_margin"] < 1e-43
    assert rec["witness_transverse"] is False
    assert _rank_margins(fam, 0.0, [w])[0] == pytest.approx(1.0)
    # the same threshold passes a margin of the size of |w|^2
    assert _witness(fam, 0.5, (0.8, 0))["witness_transverse"] is True


def test_chained_witness_holomorphic_closed_form():
    a = (2, 3)
    fam = build_family(FamilySpec("type_i", a, (1, 1)))
    w2 = 0.6 * cmath.exp(0.3j)
    w1 = 1j * w2  # w1^2 w2 + w2^3 = 0
    rec = _witness(fam, 1.0, (w1, w2), r=2.0)
    trace = rec["trace"]
    assert trace["J"] == (1, 2)
    assert trace["components"] == ((1, 2),)
    assert trace["components"][-1][1] == fam.n  # the last run ends at the last index
    s2 = 2.0 ** (1 / a[1])
    r1 = 2.0 / s2
    assert trace["s_values"][1] == pytest.approx(s2, abs=1e-10)
    assert trace["r_values"][0] == pytest.approx(r1, abs=1e-10)
    assert trace["s_values"][0] == pytest.approx(r1 ** (1 / a[0]), abs=1e-10)
    assert rec["witness_margin"] > 0


def test_chained_witness_single_component_last_index_form():
    fam = build_family(FamilySpec("type_i", (2, 3, 2), (1, 0, 1)))
    t = 0.5
    w3 = 0.7 * cmath.exp(0.2j)
    a3_amp = t + (1 - t) * abs(w3) ** 2
    w2 = (-w3 * a3_amp) ** (1 / 3)  # w2^3 w3 + w3^2 A3 = 0
    w = (0, w2, w3)
    f = fam.member(t)
    assert abs(oracle.evaluate(f, w)) <= level_tolerance(fam.members([t]), np.linalg.norm(w))
    rec = _witness(fam, t, w, r=2.0)
    trace = rec["trace"]
    assert trace["I0"] == (1,)
    assert trace["J"] == (2, 3)
    assert trace["components"] == ((2, 3),)
    assert trace["components"][-1][1] == fam.n  # the last run ends at the last index
    assert trace["r_values"][0] is None
    assert rec["witness_margin"] > 0
    for rj, sj, aj in zip(trace["r_values"], trace["s_values"], fam.spec.a):
        if rj is not None:
            assert rj >= 1 - 1e-12
            assert sj >= 1 - 1e-12
            assert sj**aj <= rj * (1 + 1e-12)


def test_chained_witness_epsilon_flags():
    fam = build_family(FamilySpec("type_i", (2, 2, 2), (1, 1, 1)))
    pts, _ = _sample(fam.member(0.5), 3, 3, "eps")
    for rec in _witnesses(fam, [0.5], [pts]):
        assert rec["trace"]["epsilon_flags"] == (1, 1, 0)


def test_chained_witness_validation():
    fam = build_family(FamilySpec("type_i", (2, 2), (1, 0)))
    with pytest.raises(InputError, match="evaluation radius must be positive"):
        _witness(fam, 0.5, (0.8, 0), r=0.0)


def test_conjecture_search_runs_and_reports():
    fam = build_family(FamilySpec("type_ii", (2, 2), (1, 1)))
    rep = conjecture_search_type_ii(fam, (0.0, 0.5, 1.0), 1.0, samples=10, seed=0)
    assert rep.samples_found > 0
    assert rep.min_margin > 0
    assert rep.flagged == ()
    assert rep.note == "evidence only - open problem"


def test_conjecture_search_holomorphic_slice():
    fam = build_family(FamilySpec("type_ii", (2, 2), (0, 0)))
    rep = conjecture_search_type_ii(fam, (1.0,), 1.0, samples=10, seed=0)
    assert rep.min_margin > 0


def test_conjecture_search_deterministic():
    fam = build_family(FamilySpec("type_ii", (2, 2), (1, 1)))
    a = conjecture_search_type_ii(fam, (0.5,), 1.0, samples=5, seed=2)
    b = conjecture_search_type_ii(fam, (0.5,), 1.0, samples=5, seed=2)
    assert a == b


def test_conjecture_search_validation():
    fam = build_family(FamilySpec("type_ii", (2, 2), (1, 1)))
    with pytest.raises(InputError):
        conjecture_search_type_ii(fam, (0.5,), 0.0, samples=5, seed=0)
    with pytest.raises(PreconditionError):
        conjecture_search_type_ii(brieskorn((2, 2)), (0.5,), 1.0, samples=5, seed=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["brieskorn", "type_i", "type_ii"]),
    n=st.integers(2, 3),
    t=st.floats(0, 1),
    seed=st.integers(0, 2**16),
    size=st.integers(1, 6),
)
def test_lockstep_newton_rows_match_single_runs(kind, n, t, seed, size):
    """A row's result is bit for bit the same alone and inside a batch that
    mixes converging, failing and zero starts.  The examples are fixed
    because the oracle's scalar `evaluate` may round a value at the goal differently
    from the batched kernel."""
    fam = build_family(FamilySpec(kind, (2, 3, 2)[:n], (1, 0, 1)[:n]))
    poly = fam.member(t)
    one = polynomial_arrays([poly])
    starts = rng_for(seed, "newton:lockstep").standard_normal((size, 2 * n)).view(complex)
    starts = np.vstack([starts, np.zeros((1, n))])  # a zero start fails
    points, found = newton_on_sphere_batch(one.rows(np.zeros(len(starts), int)), 0j, starts)
    assert not found[-1]
    for k, start in enumerate(starts):
        alone, hit = newton_on_sphere_batch(one, 0j, [start])
        assert hit[0] == found[k]
        if found[k]:
            assert alone[0].tobytes() == points[k].tobytes()
            single = tuple(alone[0].tolist())
            assert abs(oracle.evaluate(poly, single)) <= 1e-12
            assert abs(math.sqrt(sum(abs(z) ** 2 for z in single)) - 1.0) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["brieskorn", "type_i", "type_ii"]),
    a=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    b=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    n=st.integers(2, 3),
    t=st.floats(0, 1),
    seed=st.integers(0, 2**16),
)
def test_rank_margins_match_per_point_svd(kind, a, b, n, t, seed):
    fam = build_family(FamilySpec(kind, tuple(a[:n]), tuple(b[:n])))
    poly = fam.member(t)
    pts, _ = _sample(poly, 6, seed, "rank-oracle")
    margins = _rank_margins(fam, t, pts)
    assert margins.shape == (len(pts),)
    for z, margin in zip(pts, margins):
        rows = np.vstack([_real(z), _real_jacobian(poly, z)])
        norms = np.linalg.norm(rows, axis=1)
        expected = 0.0
        if np.all(norms > 0):
            expected = np.linalg.svd(rows / norms[:, None], compute_uv=False)[-1]
        assert abs(margin - expected) <= 1e-12


def test_rank_margins_name_the_point_off_the_variety():
    fam = brieskorn((2, 2))
    w = (1 / math.sqrt(2), 1j / math.sqrt(2))
    assert _rank_margins(fam, 1.0, []).shape == (0,)
    with pytest.raises(PreconditionError, match="point 1 "):
        _rank_margins(fam, 1.0, [w, (1, 1)])
    with pytest.raises(InputError):
        _rank_margins(fam, 1.0, [(1, 1, 1)])


def _two_term_root(lead_abs, a, b, t):
    """rho > 0 with rho^a (t + (1-t) rho^(2b)) = lead_abs."""
    return oracle.monotone_root(lambda rho: rho**a * (t + (1 - t) * rho ** (2 * b)), lead_abs)


@st.composite
def _witness_families(draw):
    """A family of the brieskorn or chained kind, n = 2..3."""
    kind = draw(st.sampled_from(["brieskorn", "type_i"]))
    n = draw(st.integers(2, 3))
    a = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    b = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return build_family(FamilySpec(kind, a, b))


def _draw_witness_point(draw, fam, t):
    """A point of V_t, either sampled or built with zero coordinates."""
    kind, n, a, b = fam.spec.kind, fam.n, fam.spec.a, fam.spec.b
    rho = draw(st.floats(0.3, 1.2))
    theta = draw(st.floats(0, 2 * math.pi))
    shape = draw(st.sampled_from(["sampled", "zeros"]))
    if shape == "sampled" or (kind == "brieskorn" and n == 2):
        pts, _ = _sample(fam.member(t), 1, draw(st.integers(0, 2**16)), "fd-oracle")
        assume(pts)
        return pts[0]
    if kind == "brieskorn":
        # z_i^a_i A_i + z_j^a_j A_j = 0 with the third coordinate zero
        zero = draw(st.integers(0, 2))
        i, j = (k for k in range(3) if k != zero)
        amp = t + (1 - t) * rho ** (2 * b[i])
        rho_j = _two_term_root(rho ** a[i] * amp, a[j], b[j], t)
        w = [0j] * 3
        w[i] = rho * cmath.exp(1j * (math.pi + a[j] * theta) / a[i])
        w[j] = rho_j * cmath.exp(1j * theta)
        return tuple(w)
    if n == 2 or draw(st.booleans()):
        # every monomial vanishes: (w_1, 0) or (w_1, 0, 0)
        return (rho * cmath.exp(1j * theta),) + (0j,) * (n - 1)
    # (0, w_2, w_3) with w_2^a_2 A_2 w_3 + w_3^a_3 A_3 = 0
    amp3 = t + (1 - t) * rho ** (2 * b[2])
    rho2 = _two_term_root(rho ** (a[2] - 1) * amp3, a[1], b[1], t)
    w2 = rho2 * cmath.exp(1j * (math.pi + (a[2] - 1) * theta) / a[1])
    return (0j, w2, rho * cmath.exp(1j * theta))


@st.composite
def _witness_cases(draw):
    """A family of the brieskorn or chained kind and a point of V_t, either
    sampled or built with zero coordinates."""
    fam = draw(_witness_families())
    t = draw(st.floats(0, 1))
    return fam, t, _draw_witness_point(draw, fam, t)


def _fd_witness(fam, t, w, components, h=1e-6):
    """Central-difference witness of the curve xi(r): (margin, vector)."""
    a, b = fam.spec.a, fam.spec.b
    mods = [abs(z) for z in w]

    def scales(r):
        if fam.spec.kind == "brieskorn":
            return [_phi(a[j], b[j], t, m, r) if m > 0 else 0.0 for j, m in enumerate(mods)]
        if not components:  # every monomial vanishes: uniform scaling
            return [r] * len(w)
        s = [1.0] * len(w)
        for lo, hi in components:  # 1-based closed intervals, solved downward
            for j in range(hi - 1, lo - 2, -1):
                s[j] = _phi(a[j], b[j], t, mods[j], r if j == hi - 1 else r / s[j + 1])
        return s

    xp = [s * z for s, z in zip(scales(1 + h), w)]
    xm = [s * z for s, z in zip(scales(1 - h), w)]
    margin = (sum(abs(z) ** 2 for z in xp) - sum(abs(z) ** 2 for z in xm)) / (2 * h)
    return margin, (_real(xp) - _real(xm)) / (2 * h)


@settings(max_examples=150, deadline=None)
@given(_witness_cases())
def test_closed_form_witness_matches_central_differences(case):
    fam, t, w = case
    poly = fam.member(t)
    rec = _witness(fam, t, w)
    margin, vector = _fd_witness(fam, t, w, rec.get("trace", {}).get("components"))
    # 1e-6 relative, plus the oracle's own error: the 1e-14 tolerance of
    # solve_phi_rows' root over the step h = 1e-6, per unit of |w|
    size = float(np.linalg.norm(w))
    assert abs(rec["witness_margin"] - margin) <= 1e-6 * abs(margin) + 1e-7 * size**2
    witness = np.array(rec["witness_vector"])
    assert np.linalg.norm(witness - vector) <= 1e-6 * np.linalg.norm(vector) + 1e-7 * size
    # the curve stays in the variety, so its velocity is tangent to it
    tangency = np.linalg.norm(_real_jacobian(poly, w) @ witness)
    assert tangency <= 10 * level_tolerance(fam.members([t]), size)


def test_conjecture_search_reports_failures_per_t():
    fam = build_family(FamilySpec("type_ii", (2, 2), (1, 1)))
    rep = conjecture_search_type_ii(fam, (0.0, 0.5, 1.0), 1.0, samples=5, seed=2)
    assert len(rep.sampler_failures_per_t) == 3
    assert sum(rep.sampler_failures_per_t) == rep.sampler_failures
    assert rep.samples_found + rep.sampler_failures == rep.samples_requested


def _solve_phi_reference(a, b, tau, w_abs, r):
    """One row of `solve_phi_rows` by scalar code: closed forms, else the
    oracle's scalar `monotone_root` on the scalar closure."""
    if r == 1.0:
        return 1.0
    c = (1.0 - tau) * w_abs ** (2 * b)
    if b == 0 or tau == 1.0:
        return r ** (1.0 / a)
    if tau == 0.0:
        return r ** (1.0 / (a + 2 * b))

    def fn(s):
        return s**a * (tau + c * s ** (2 * b))

    def dfn(s):
        return a * s ** (a - 1) * tau + (a + 2 * b) * c * s ** (a + 2 * b - 1)

    return oracle.monotone_root(fn, r * (tau + c), dfn=dfn)


_phi_rows = st.tuples(
    st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0])),
    st.one_of(st.floats(1e-3, 10.0), st.sampled_from([1e-300, 1.0])),
    st.one_of(st.floats(0.05, 20.0), st.just(1.0)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.lists(_phi_rows, min_size=1, max_size=12),
)
def test_lockstep_solve_phi_matches_the_scalar_reference(a, b, rows):
    tau, w_abs, r = (np.array(col) for col in zip(*rows))
    s, slope = solve_phi_rows(a, b, tau, w_abs, r)
    for k, (tk, wk, rk) in enumerate(rows):
        alone = solve_phi_rows(a, b, [tk], [wk], [rk])
        assert (s[k].tobytes(), slope[k].tobytes()) == (alone[0].tobytes(), alone[1].tobytes())
        expected = _solve_phi_reference(a, b, tk, wk, rk)
        if rk == 1.0:
            assert s[k] == 1.0
        elif b == 0 or tk in (0.0, 1.0):
            # the closed form itself, to the last bit of numpy's power
            root = 1.0 / a if b == 0 or tk == 1.0 else 1.0 / (a + 2 * b)
            assert s[k] == np.power(r[k : k + 1], root)[0]
            assert s[k] == pytest.approx(expected, rel=3e-16, abs=0)
        else:
            assert abs(s[k] - expected) <= 1e-13 * expected


def test_closed_forms_survive_an_underflowing_c():
    """At tau = 0 and |w|^(2b) below the smallest float the general formulas
    are 0/0; the root and its slope take their closed forms instead."""
    a, b = 2, 3
    w_abs = np.array([1e-300, 1e-60])
    assert ((1.0 - 0.0) * w_abs[:1] ** (2 * b) == 0).all()
    s, slope = solve_phi_rows(a, b, [0.0, 0.0], w_abs, [5.0, 5.0])
    assert s.tolist() == np.power([5.0, 5.0], 1.0 / (a + 2 * b)).tolist()
    assert slope.tolist() == [1.0 / (a + 2 * b)] * 2
    fam = build_family(FamilySpec("type_i", (1, 1), (3, 0)))
    w = (complex(0.6, 0.8), complex(1e-60, 0.0))  # z1 z2 + z2 = 0 only as z2 -> 0
    f = fam.member(0.0)
    assert abs(oracle.evaluate(f, w)) <= level_tolerance(fam.members([0.0]), np.linalg.norm(w))
    rec = _witness(fam, 0.0, w)
    assert rec["trace"]["J"] == (1, 2)
    assert math.isfinite(rec["witness_margin"])


@st.composite
def _witness_batches(draw):
    """A family and up to six (t, point) rows that mix the patterns of
    vanishing coordinates, "J empty" included."""
    fam = draw(_witness_families())
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1.0])))
        rows.append((t, _draw_witness_point(draw, fam, t)))
    return fam, rows


def _witness_bits(rec):
    bits = (rec["witness_margin"].hex(), rec["witness_transverse"])
    bits += (np.array(rec["witness_vector"]).tobytes(),)
    if "trace" in rec:
        bits += (rec["trace"], np.array(rec["trace"]["s_values"]).tobytes())
    return bits


@settings(max_examples=60, deadline=None)
@given(_witness_batches())
def test_witness_rows_ignore_their_batch(case):
    """Every witness of a lockstep batch is bit for bit the one its point gets
    alone."""
    fam, rows = case
    grid = [t for t, _ in rows]
    together = list(_witnesses(fam, grid, [[w] for _, w in rows]))
    # the same rows grouped by t, as the sweep passes them
    by_t = sorted(set(grid))
    grouped = list(_witnesses(fam, by_t, [[w for t, w in rows if t == u] for u in by_t]))
    order = sorted(range(len(rows)), key=lambda k: (by_t.index(grid[k]), k))
    for k, (t, w) in enumerate(rows):
        alone = _witness(fam, t, w)
        assert _witness_bits(together[k]) == _witness_bits(alone)
        assert _witness_bits(grouped[order.index(k)]) == _witness_bits(alone)


def test_witness_errors_name_t_and_point():
    fam = build_family(FamilySpec("type_i", (2, 2), (1, 0)))
    good = (0.8, 0)
    with pytest.raises(PreconditionError, match=r"point 1 is off the level set .* at t=0\.25"):
        list(_witnesses(fam, [0.5, 0.25], [[good], [good, (0.6, 0.8)]]))


def _sample_alone(row, seed, label, k):
    """Sample k by itself: one start per attempt from its own stream, each
    run as a Newton batch of the one polynomial row, until one lands."""
    for att in range(ATTEMPTS_PER_SAMPLE):
        start = rng_for(seed, f"{label}:sample:{k}:attempt:{att}").standard_normal(2 * row.n)
        point, hit = newton_on_sphere_batch(row, 0j, start.view(complex)[None])
        if hit[0]:
            return point[0]
    return None


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["brieskorn", "type_i"]),
    n=st.integers(2, 3),
    b=st.tuples(*[st.integers(0, 2)] * 3),
    grid=st.lists(
        st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 4),
)
def test_grid_sampler_rows_ignore_their_batch(kind, n, b, grid, seed, count):
    """Every sample of the whole-grid batch is bit for bit the one it gets
    alone and the one its t gets by itself, under its `members` row.  Below
    t = 1, and for n = 2 everywhere, that row computes its member's values
    bit for bit, so the member sampled alone lands on the same points too."""
    fam = build_family(FamilySpec(kind, (2, 3, 2)[:n], b[:n]))
    arrays, points, failures = transversality._sample_sweep(fam, tuple(grid), 1.0, count, seed, "g")
    for ti, t in enumerate(grid):
        row, label = fam.members([t]), f"g:t={ti}"
        per_t, hit = sample_rows(row, count, seed, [label])
        assert per_t[0][hit[0]].tobytes() == points[ti].tobytes()
        assert failures[ti] == count - hit[0].sum()
        if t < 1.0 or n == 2:
            pts, missed = _sample(fam.member(t), count, seed, label)
            assert missed == failures[ti]
            assert np.array(pts, dtype=complex).reshape(-1, n).tobytes() == points[ti].tobytes()
        alone = [_sample_alone(row, seed, label, k) for k in range(count)]
        assert [k for k, z in enumerate(alone) if z is None] == np.flatnonzero(~hit[0]).tolist()
        landed = np.array([z for z in alone if z is not None]).reshape(-1, n)
        assert landed.tobytes() == points[ti].tobytes()


def test_sweeps_build_no_member_polynomial(monkeypatch):
    """The sampler, the rank margins, both witness checks and the shell search
    read their members as `members` rows: no sweep builds a MixedPolynomial."""
    fam = build_family(FamilySpec("type_i", (2, 3, 2), (1, 0, 1)))
    cyclic = build_family(FamilySpec("type_ii", (2, 2), (1, 1)))
    built = count_calls(monkeypatch, core.MixedPolynomial, "__post_init__")
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    sweep = check_transversality(fam, grid, 1.0, 6, 3, method="both")
    assert len(sweep.certificates) > 0
    certify_smooth_shell(fam, grid, 1.0, 2, 3)
    conjecture_search_type_ii(cyclic, grid, 1.0, 5, 3)
    assert built == []


def test_both_methods_check_the_points_on_the_variety_once(monkeypatch):
    """With --method both the witnesses skip the on-variety pass that the rank
    margins have just made at the same points: the sweep makes the kernel
    calls of the witness sweep, one more than the rank sweep (the curve check),
    and gives the same witness certificates."""
    calls = []

    def counting(arrays, z):
        calls.append(len(z))
        return core.value_and_gradient_batch(arrays, z)

    monkeypatch.setattr(numerics, "value_and_gradient_batch", counting)
    fam = build_family(FamilySpec("type_i", (2, 3, 2), (1, 0, 1)))
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    counts, sweeps = {}, {}
    for method in ("rank", "witness", "both"):
        calls.clear()
        sweeps[method] = check_transversality(fam, grid, 1.0, 100, 3, method=method)
        counts[method] = len(calls)
    assert counts["both"] == counts["witness"] == counts["rank"] + 1
    for both, witness in zip(sweeps["both"].certificates, sweeps["witness"].certificates):
        assert {k: both[k] for k in witness} == witness
    assert len(sweeps["both"].certificates) == 500


@settings(max_examples=10, deadline=None)
@given(
    a=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    b=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    grid=st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    threshold=st.sampled_from([1e-6, 0.3, 2.0]),
)
def test_conjecture_search_summarizes_per_t_sampling(a, b, grid, seed, threshold):
    """The search over one grid batch reports what sampling and rank-testing
    each t on its own gives."""
    fam = build_family(FamilySpec("type_ii", a, b))
    with mock.patch.object(transversality, "FLAG_THRESHOLD", threshold):
        rep = conjecture_search_type_ii(fam, grid, 1.0, 5, seed)
    flagged, failures, found = [], [], 0
    best = (math.inf, (), math.nan)
    for ti, t in enumerate(grid):
        pts, missed = _sample(fam.member(t), 5, seed, f"conj:t={ti}")
        failures.append(missed)
        found += len(pts)
        for z, margin in zip(pts, _rank_margins(fam, t, pts).tolist()):
            if margin < best[0]:
                best = (margin, z, t)
            if margin < threshold:
                flagged.append((margin, z, t))
    assert rep.sampler_failures_per_t == tuple(failures)
    assert rep.samples_found == found
    assert [(c["margin"], c["point"], c["t"]) for c in rep.flagged] == flagged
    assert rep.flagged_count == len(flagged)
    if found:
        assert (rep.min_margin, rep.argmin_point, rep.argmin_t) == best
    else:
        assert math.isnan(rep.min_margin) and rep.argmin_point == ()
