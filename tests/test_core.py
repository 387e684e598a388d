"""Representation, evaluation, Wirtinger calculus, weights and the polar action."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brieskorn, poly, random_mixed
from mixed_milnor import (
    FamilySpec,
    build_family,
    detect_weights,
    evaluate,
    is_simplicial,
    polar_action,
    wirtinger_gradient,
)
from mixed_milnor.core import (
    MixedMonomial,
    MixedPolynomial,
    integer_determinant,
    polynomial_arrays,
    value_and_gradient_batch,
)
from mixed_milnor.errors import InputError
from mixed_milnor.numerics import complexify, random_sphere_point, realify, rng_for


def test_evaluate_holomorphic_sum():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 3), (0, 0))])
    assert evaluate(f, (1, 1)) == pytest.approx(2)


def test_evaluate_conjugate_factor():
    f = poly(1, [(1, (3,), (1,))])
    assert evaluate(f, (1j,)) == pytest.approx(-1)


def test_evaluate_blend_at_unit_modulus_point():
    fam = brieskorn((2, 3), (1, 0))
    assert evaluate(fam.member(0.5), (1, 1)) == pytest.approx(2)


def test_evaluate_rejects_wrong_arity():
    f = poly(2, [(1, (1, 0), (0, 0))])
    with pytest.raises(InputError):
        evaluate(f, (1,))


def test_wirtinger_power_rule():
    f = poly(1, [(1, (3,), (1,))])
    g = wirtinger_gradient(f, (1,))
    assert g.d_z[0] == pytest.approx(3)
    assert g.d_zbar[0] == pytest.approx(1)


def test_wirtinger_holomorphic_case():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 3), (0, 0))])
    g = wirtinger_gradient(f, (1, 1))
    assert g.d_z == pytest.approx((2, 3))
    assert g.d_zbar == pytest.approx((0, 0))


def test_wirtinger_mixed_at_two():
    f = poly(1, [(1, (3,), (1,))])
    g = wirtinger_gradient(f, (2,))
    assert g.d_z[0] == pytest.approx(24)
    assert g.d_zbar[0] == pytest.approx(8)


def test_wirtinger_matches_finite_differences():
    rng = rng_for(7, "core:fd")
    f = random_mixed(rng, 2, 5)
    h = 1e-5
    for _ in range(50):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
        g = wirtinger_gradient(f, z)
        x = realify(z)
        scale = 1.0 + max(max(abs(v) for v in g.d_z), max(abs(v) for v in g.d_zbar))
        for j in range(2):
            for k, expected in (
                (2 * j, g.d_z[j] + g.d_zbar[j]),
                (2 * j + 1, 1j * (g.d_z[j] - g.d_zbar[j])),
            ):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (evaluate(f, complexify(xp)) - evaluate(f, complexify(xm))) / (2 * h)
                assert abs(fd - expected) / scale < 1e-5


def test_exponent_matrices_brieskorn():
    fam = brieskorn((2, 3), (1, 0))
    arrays = polynomial_arrays([fam.endpoint_mixed])
    assert arrays.N.T.tolist() == [[3, 0], [0, 3]]
    assert arrays.M.T.tolist() == [[1, 0], [0, 0]]


def test_exponent_matrices_chained():
    fam = build_family(FamilySpec("type_i", (2, 2), (1, 1)))
    arrays = polynomial_arrays([fam.endpoint_mixed])
    # columns (a1+b1, 1), (0, a2+b2) for N and (b1, 0), (0, b2) for M
    assert arrays.N.T.tolist() == [[3, 0], [1, 3]]
    assert arrays.M.T.tolist() == [[1, 0], [0, 1]]


def test_exponent_matrices_single_monomial():
    f = poly(1, [(4, (3,), (1,))])
    arrays = polynomial_arrays([f])
    assert arrays.N.T.tolist() == [[3]]
    assert arrays.M.T.tolist() == [[1]]


def test_simpliciality_brieskorn():
    fam = brieskorn((2, 3), (1, 0))
    rep = is_simplicial(fam.endpoint_mixed)
    assert rep.simplicial
    assert rep.det_minus == 6
    assert rep.det_plus == 12


def test_simpliciality_count_mismatch():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 2), (0, 0)), (1, (1, 1), (0, 0))])
    rep = is_simplicial(f)
    assert not rep.simplicial
    assert rep.det_plus is None


def test_simpliciality_equal_matrices():
    f = poly(2, [(1, (1, 0), (1, 0)), (1, (0, 1), (0, 1))])
    rep = is_simplicial(f)
    assert not rep.simplicial
    assert rep.det_minus == 0


def test_integer_determinant_matches_cofactor_expansion():
    rng = rng_for(3, "core:det")
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = [[int(rng.integers(-6, 7)) for _ in range(n)] for _ in range(n)]

        def det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j in range(len(rows)):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * det(minor)
            return total

        assert integer_determinant(m) == det(m)


def test_detect_weights_holomorphic():
    fam = brieskorn((2, 3))
    w = detect_weights(fam.endpoint_holomorphic)
    assert w.polar_weights == (3, 2)
    assert w.polar_degree == 6


def test_detect_weights_mixed_radial():
    fam = brieskorn((2, 3), (1, 0))
    w = detect_weights(fam.endpoint_mixed)
    assert w.polar_weights == (3, 2)
    assert w.polar_degree == 6
    assert w.radial_weights == (3, 4)
    assert w.radial_degree == 12


def test_blend_loses_radial_weights():
    fam = brieskorn((2, 3), (1, 0))
    w = detect_weights(fam.member(0.5))
    assert w.polar_weights == (3, 2)
    assert not w.has_radial


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4))
def test_weight_formula_property(a):
    fam = brieskorn(tuple(a))
    w = detect_weights(fam.endpoint_holomorphic)
    d = math.lcm(*a)
    assert w.polar_degree == d
    assert w.polar_weights == tuple(d // aj for aj in a)


@st.composite
def _merging_polynomials(draw):
    """Polynomials in 1 to 4 variables whose terms repeat a few exponent pairs,
    so that the canonical form merges them (and sometimes cancels them)."""
    n = draw(st.integers(min_value=1, max_value=4))
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(exponents, exponents), min_size=1, max_size=n + 2))
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from((-2, -1, 1, 2, 1j)), st.sampled_from(pairs)),
            min_size=1,
            max_size=2 * n + 2,
        )
    )
    return poly(n, [(c, nu, mu) for c, (nu, mu) in terms])


def _free_unknowns(vectors, n):
    """Unknowns left free by the weight system vec . W = degree."""
    rows = np.array([list(vec) + [-1] for vec in vectors])
    return n + 1 - np.linalg.matrix_rank(rows)


@settings(max_examples=200, deadline=None)
@given(_merging_polynomials())
def test_array_form_serves_simpliciality_and_weights(f):
    """Row i of the array form holds monomial i, and the determinants and
    weights read from the array form agree with the monomials themselves."""
    monos, n = f.monomials, f.n
    arrays = polynomial_arrays([f])
    assert arrays.N.shape == arrays.M.shape == (len(monos), n)
    for i, mono in enumerate(monos):
        assert arrays.N[i].tolist() == list(mono.nu)
        assert arrays.M[i].tolist() == list(mono.mu)
    rep = is_simplicial(f)
    if len(monos) == n:
        plus = [[m.nu[j] + m.mu[j] for m in monos] for j in range(n)]
        minus = [[m.nu[j] - m.mu[j] for m in monos] for j in range(n)]
        assert rep.det_plus == integer_determinant(plus)
        assert rep.det_minus == integer_determinant(minus)
        assert rep.simplicial == (rep.det_plus != 0 and rep.det_minus != 0)
    else:
        assert (rep.simplicial, rep.det_plus, rep.det_minus) == (False, None, None)
    polar = [[a - b for a, b in zip(m.nu, m.mu)] for m in monos]
    radial = [[a + b for a, b in zip(m.nu, m.mu)] for m in monos]
    # the weight search tries 32 values per free unknown: keep it to two
    if not monos or max(_free_unknowns(polar, n), _free_unknowns(radial, n)) > 2:
        return
    w = detect_weights(f)
    for vecs, weights, degree in (
        (polar, w.polar_weights, w.polar_degree),
        (radial, w.radial_weights, w.radial_degree),
    ):
        if weights is not None:
            assert all(np.dot(vec, weights) == degree for vec in vecs)


def test_polar_action_identity():
    assert polar_action((3, 2), 1.0, (1 + 2j, 3j)) == (1 + 2j, 3j)


def test_polar_action_half_turn():
    moved = polar_action((3, 2), cmath.exp(1j * math.pi), (1, 1))
    assert moved[0] == pytest.approx(-1)
    assert moved[1] == pytest.approx(1)


def test_polar_action_rejects_nonunimodular():
    with pytest.raises(InputError):
        polar_action((1, 1), 2.0, (1, 1))


def test_polar_homogeneity_identity():
    fam = brieskorn((2, 3), (1, 0))
    f = fam.endpoint_mixed
    w = detect_weights(f)
    rng = rng_for(11, "core:polar")
    for _ in range(100):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
        lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        lhs = evaluate(f, polar_action(w.polar_weights, lam, z))
        rhs = lam**w.polar_degree * evaluate(f, z)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(evaluate(f, z)))


def test_canonical_form_merges_and_reorders():
    f1 = poly(1, [(1, (2,), (0,)), (2, (1,), (1,)), (3, (2,), (0,))])
    f2 = poly(1, [(2, (1,), (1,)), (4, (2,), (0,))])
    assert len(f1.monomials) == 2
    rng = rng_for(5, "core:canon")
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        assert evaluate(f1, (z,)) == pytest.approx(evaluate(f2, (z,)))


def test_canonical_form_drops_cancelled_terms():
    f = poly(1, [(1, (2,), (0,)), (-1, (2,), (0,)), (1, (1,), (0,))])
    assert len(f.monomials) == 1


def test_monomial_validation():
    with pytest.raises(InputError):
        MixedMonomial(1.0, (-1,), (0,))
    with pytest.raises(InputError):
        MixedMonomial(0.0, (1,), (0,))
    with pytest.raises(InputError):
        MixedMonomial(1.0, (1, 2), (0,))
    with pytest.raises(InputError):
        MixedMonomial(1.0, (200,), (0,))


def test_polynomial_validation():
    with pytest.raises(InputError):
        MixedPolynomial(0, ())
    with pytest.raises(InputError):
        MixedPolynomial(2, (MixedMonomial(1.0, (1,), (0,)),))


@st.composite
def _family_members(draw):
    """Up to three members (both endpoints included) of a family of any kind."""
    kind = draw(st.sampled_from(("brieskorn", "type_i", "type_ii")))
    n = draw(st.integers(min_value=1 if kind == "brieskorn" else 2, max_value=3))
    a = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    fam = build_family(FamilySpec(kind, tuple(a), tuple(b)))
    ts = draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0), min_size=1, max_size=3))
    return [fam.member(t) for t in ts]


_coordinate = st.just(0.0) | st.floats(min_value=-1.5, max_value=1.5)


def _term_scale(poly, z):
    """Sum over monomials of |coefficient| * (degree + 1) * (1 + max |z_j|)^degree:
    bounds every term summed into f and into each of its partials."""
    big = 1.0 + max(abs(w) for w in z)
    return sum(
        abs(m.coefficient) * (m.total_degree + 1) * big**m.total_degree for m in poly.monomials
    )


@settings(max_examples=300, deadline=None)
@given(_family_members(), st.integers(min_value=1, max_value=3), st.data())
def test_fused_kernel_matches_scalar(polys, count, data):
    """Value and Wirtinger partials of the batched kernel against scalar
    `evaluate` / `wirtinger_gradient`, relative to the size of the terms."""
    n = polys[0].n
    size = len(polys) * count * 2 * n
    x = np.array(data.draw(st.lists(_coordinate, min_size=size, max_size=size)))
    z = x.reshape(len(polys), count, 2 * n).view(complex)
    value, d_z, d_zbar = value_and_gradient_batch(polynomial_arrays(polys), z)
    assert value.shape == z.shape[:-1] and d_z.shape == d_zbar.shape == z.shape
    for k, p in enumerate(polys):
        for i in range(count):
            point = tuple(z[k, i])
            tol = 1e-12 * _term_scale(p, point) + 1e-300
            grad = wirtinger_gradient(p, point)
            assert abs(value[k, i] - evaluate(p, point)) <= tol
            assert np.all(np.abs(d_z[k, i] - np.array(grad.d_z)) <= tol)
            assert np.all(np.abs(d_zbar[k, i] - np.array(grad.d_zbar)) <= tol)
