"""Deformation families, the eta map and weighted sphere normalization."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import brieskorn
from mixed_milnor import (
    FamilySpec,
    build_family,
    certify_smooth_shell,
    check_transversality,
    conjecture_search_type_ii,
    detect_weights,
    eta_map,
    evaluate,
    sample_link,
    transport,
)
from mixed_milnor.core import polar_orbit, polynomial_arrays, value_and_gradient_batch
from mixed_milnor.errors import InputError, PreconditionError
from mixed_milnor.families import KINDS, MilnorTubeSpec
from mixed_milnor.isotopy import _blend, _jet
from mixed_milnor.numerics import point_rows, random_sphere_point, rng_for
from mixed_milnor.transversality import _margins


def _t_derivative(fam, t, z):
    """d f_t / dt at one point, as the transport's jet computes it."""
    return complex(_jet(fam.endpoint_arrays, t, point_rows([z], fam.n).view(float))[2][0])


def test_zero_b_family_is_constant():
    fam = brieskorn((2, 3))
    assert fam.endpoint_mixed == fam.endpoint_holomorphic
    assert fam.member(0.3) == fam.endpoint_mixed


def test_member_blend_value():
    fam = brieskorn((2, 3), (1, 0))
    assert evaluate(fam.member(0.5), (1, 1)) == pytest.approx(2)


def test_chained_holomorphic_endpoint():
    fam = build_family(FamilySpec("type_i", (2, 2), (1, 0)))
    g = fam.endpoint_holomorphic
    keys = {(m.nu, m.mu): m.coefficient for m in g.monomials}
    assert keys == {((2, 1), (0, 0)): 1, ((0, 2), (0, 0)): 1}


def test_member_endpoints_and_blend_coefficients():
    fam = brieskorn((2, 3), (1, 1))
    assert fam.member(0.0) is fam.endpoint_mixed
    assert fam.member(1.0) is fam.endpoint_holomorphic
    mid = fam.member(0.25)
    coeffs = {(m.nu, m.mu): m.coefficient for m in mid.monomials}
    assert coeffs[((3, 0), (1, 0))] == pytest.approx(0.75)
    assert coeffs[((2, 0), (0, 0))] == pytest.approx(0.25)
    assert len(coeffs) == 4


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 3),
    a=st.tuples(*[st.integers(1, 4)] * 3),
    b=st.tuples(*[st.integers(0, 2)] * 3),
    grid=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_members_rows_depend_on_their_own_t(kind, n, a, b, grid, seed):
    """Each row of `members` over an unsorted grid with repeats is its t's row
    alone and the transport's f_t row, bit for bit.  Below t = 1, and for
    n = 2 everywhere, it computes its member's kernel values bit for bit and
    its partials up to the sign of a zero (a zero coefficient of the shared
    layout adds a signed zero term); at t = 1 of n = 3 the layout can
    reorder g's monomials."""
    fam = build_family(FamilySpec(kind, a[:n], b[:n]))
    rows = fam.members(grid)
    z = rng_for(seed, "members").standard_normal((len(grid), 4, 2 * n)).view(complex)
    value, d_z, d_zbar = oracle.complex_partials(value_and_gradient_batch(rows, z))
    for k, t in enumerate(grid):
        one = fam.members([t])
        assert rows.C[k].tobytes() == one.C[0].tobytes()
        assert _blend(fam.endpoint_arrays, t).C[0].tobytes() == one.C[0].tobytes()
        if t < 1.0 or n == 2:
            alone = oracle.complex_partials(
                value_and_gradient_batch(polynomial_arrays([fam.member(t)]), z[k : k + 1])
            )
            assert value[k].tobytes() == alone[0][0].tobytes()
            for got, want in zip((d_z[k], d_zbar[k]), alone[1:]):
                assert (got + 0.0).tobytes() == (want[0] + 0.0).tobytes()
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(PreconditionError, match=r"^t must lie in \[0, 1\], not "):
            fam.members(grid + [bad])


def test_cyclic_kind_wraps_last_index():
    fam = build_family(FamilySpec("type_ii", (2, 3), (1, 1)))
    keys = {(m.nu, m.mu) for m in fam.endpoint_mixed.monomials}
    assert ((3, 1), (1, 0)) in keys  # z1^{a1+b1} zbar1^{b1} z2
    assert ((1, 4), (0, 1)) in keys  # trailing factor wraps to z1
    fam3 = build_family(FamilySpec("type_ii", (2, 2, 2), (0, 0, 0)))
    keys3 = {m.nu for m in fam3.endpoint_mixed.monomials}
    assert keys3 == {(2, 1, 0), (0, 2, 1), (1, 0, 2)}


def test_reversed_family_swaps_endpoints():
    fam = brieskorn((2, 3), (1, 0))
    rev = fam.reversed()
    assert rev.member(0.0) == fam.member(1.0)
    fwd = {(m.nu, m.mu): m.coefficient for m in fam.member(0.75).monomials}
    bwd = {(m.nu, m.mu): m.coefficient for m in rev.member(0.25).monomials}
    assert fwd.keys() == bwd.keys()
    assert all(fwd[k] == pytest.approx(bwd[k]) for k in fwd)


def test_t_derivative_examples():
    fam0 = brieskorn((2, 3))
    assert _t_derivative(fam0, 0.5, (1.3 + 0.2j, -0.4j)) == 0
    fam = brieskorn((2, 3), (1, 0))
    assert _t_derivative(fam, 0.5, (1, 1)) == pytest.approx(0)
    assert _t_derivative(fam, 0.5, (2, 1)) == pytest.approx(-12)


def test_t_derivative_matches_finite_differences():
    fam = brieskorn((2, 3), (1, 1))
    rng = rng_for(13, "families:fd")
    h = 1e-5
    for _ in range(20):
        z = random_sphere_point(rng, 2, 1.0)
        t = float(rng.uniform(h, 1 - h))
        fd = (evaluate(fam.member(t + h), z) - evaluate(fam.member(t - h), z)) / (2 * h)
        assert abs(fd - _t_derivative(fam, t, z)) <= 1e-8


def test_eta_map_examples():
    fam0 = brieskorn((2, 3))
    assert eta_map(fam0.spec, (0.3 + 1j, 2)) == (0.3 + 1j, 2)
    fam = brieskorn((2, 3), (1, 0))
    on_circle = (cmath.exp(0.4j), cmath.exp(-1.1j))
    assert eta_map(fam.spec, on_circle) == pytest.approx(on_circle)
    w = eta_map(fam.spec, (2, 1))
    assert w == pytest.approx((4, 1))
    assert evaluate(fam.endpoint_holomorphic, w) == pytest.approx(
        evaluate(fam.endpoint_mixed, (2, 1))
    )


def test_eta_value_preservation_random():
    fam = brieskorn((3, 2), (2, 1))
    rng = rng_for(17, "families:eta")
    for _ in range(50):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.2, 2.0)))
        fz = evaluate(fam.endpoint_mixed, z)
        fw = evaluate(fam.endpoint_holomorphic, eta_map(fam.spec, z))
        assert abs(fw - fz) <= 1e-10 * (1 + abs(fz))


def test_eta_equivariance():
    fam = brieskorn((2, 3), (1, 1))
    P = detect_weights(fam.endpoint_holomorphic).polar_weights
    rng = rng_for(19, "families:equiv")
    for _ in range(100):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.2, 2.0)))
        lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        lhs = eta_map(fam.spec, polar_orbit(P, [lam], z)[0])
        rhs = polar_orbit(P, [lam], eta_map(fam.spec, z))[0]
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-10


def test_eta_requires_brieskorn():
    spec = FamilySpec("type_i", (2, 2), (1, 1))
    with pytest.raises(InputError):
        eta_map(spec, (1, 1))


def test_members_share_polar_weights():
    fam = brieskorn((2, 3), (1, 1))
    rng = rng_for(23, "families:polar")
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        f = fam.member(t)
        w = detect_weights(f)
        assert w.polar_weights == (3, 2)
        for _ in range(20):
            z = random_sphere_point(rng, 2, 1.0)
            lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
            lhs = evaluate(f, polar_orbit(w.polar_weights, [lam], z)[0])
            rhs = lam**w.polar_degree * evaluate(f, z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(evaluate(f, z)))


def test_spec_validation():
    with pytest.raises(InputError):
        FamilySpec("brieskorn", (2, 0), (0, 0))
    with pytest.raises(InputError):
        FamilySpec("brieskorn", (2, 2), (0, -1))
    with pytest.raises(InputError):
        FamilySpec("brieskorn", (2, 2), (0,))
    with pytest.raises(InputError):
        FamilySpec("type_i", (2,), (0,))
    with pytest.raises(InputError):
        FamilySpec("spiral", (2, 2), (0, 0))


def test_tube_spec_validation():
    with pytest.raises(InputError):
        MilnorTubeSpec(0.0, 0.1)
    with pytest.raises(InputError):
        MilnorTubeSpec(1.0, -0.1)
    assert MilnorTubeSpec(1.0, 0.05).tube_level == 0.05


_SWEEPS = {
    "check_transversality": lambda fam, t: check_transversality(fam, [t], 1.0, 5, 0),
    "conjecture_search_type_ii": lambda fam, t: conjecture_search_type_ii(fam, [t], 1.0, 5, 0),
    "sample_link": lambda fam, t: sample_link(fam, t, 1.0),
    "rank_test": lambda fam, t: _margins(fam.members([t]), point_rows([(0.6, 0.8)], 2), t),
    "certify_smooth_shell": lambda fam, t: certify_smooth_shell(fam, [t], 1.0, 2),
    # the transport is what reads d f_t / dt, and it checks its t_end
    "family_t_derivative": lambda fam, t: transport(
        fam, [(0.6, 0.8)], t, 1, MilnorTubeSpec(1.0, 0.1), level=None
    ),
}


@pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_members_outside_the_unit_interval_are_rejected(sweep, t):
    """No sweep extrapolates the family: each builds its members through
    `member` or `members`, which reject t outside [0, 1] and NaN, as does the
    transport's t_end."""
    fam = build_family(FamilySpec("type_ii", (2, 2), (1, 1)))
    with pytest.raises(PreconditionError, match=r"t(_end)? must lie in \[0, 1\]"):
        _SWEEPS[sweep](fam, t)
