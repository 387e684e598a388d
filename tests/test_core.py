"""Representation, evaluation, Wirtinger calculus, weights and the polar action."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import brieskorn, partials, poly, random_mixed
from mixed_milnor import (
    FamilySpec,
    build_family,
    detect_weights,
    evaluate,
    is_simplicial,
)
from mixed_milnor import core
from mixed_milnor.core import (
    MixedMonomial,
    MixedPolynomial,
    WeightSystem,
    integer_determinant,
    polar_orbit,
    polynomial_arrays,
    value_and_gradient_batch,
)
from mixed_milnor.errors import InputError
from mixed_milnor.numerics import complexify, random_sphere_point, rng_for


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
    _, d_z, d_zbar = partials(f, (1,))
    assert d_z[0] == pytest.approx(3)
    assert d_zbar[0] == pytest.approx(1)


def test_wirtinger_holomorphic_case():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 3), (0, 0))])
    _, d_z, d_zbar = partials(f, (1, 1))
    assert d_z.tolist() == pytest.approx((2, 3))
    assert d_zbar.tolist() == pytest.approx((0, 0))


def test_wirtinger_mixed_at_two():
    f = poly(1, [(1, (3,), (1,))])
    _, d_z, d_zbar = partials(f, (2,))
    assert d_z[0] == pytest.approx(24)
    assert d_zbar[0] == pytest.approx(8)


def test_wirtinger_matches_finite_differences():
    rng = rng_for(7, "core:fd")
    f = random_mixed(rng, 2, 5)
    h = 1e-5
    for _ in range(50):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
        _, d_z, d_zbar = partials(f, z)
        x = np.asarray(z, complex).view(float)
        scale = 1.0 + max(np.abs(d_z).max(), np.abs(d_zbar).max())
        for j in range(2):
            for k, expected in (
                (2 * j, d_z[j] + d_zbar[j]),
                (2 * j + 1, 1j * (d_z[j] - d_zbar[j])),
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
    assert polar_orbit((3, 2), [1.0], (1 + 2j, 3j))[0].tolist() == [1 + 2j, 3j]


def test_polar_action_half_turn():
    moved = polar_orbit((3, 2), [cmath.exp(1j * math.pi)], (1, 1))[0]
    assert moved[0] == pytest.approx(-1)
    assert moved[1] == pytest.approx(1)


def test_polar_action_rejects_nonunimodular():
    with pytest.raises(InputError):
        polar_orbit((1, 1), [2.0], (1, 1))


_PHASE = st.one_of(
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, complex(1.0, -0.0), complex(-0.0, -1.0)]),
    st.floats(-10.0, 10.0).map(lambda theta: cmath.exp(1j * theta)),
)
_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.5e-310]), st.floats(-1e3, 1e3)
)


def _bits(values) -> list:
    """The IEEE bit patterns of complex values, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 12), st.integers(-130, 130)), min_size=1, max_size=4).flatmap(
        lambda P: st.tuples(
            st.just(P),
            st.lists(_PHASE, min_size=1, max_size=6),
            st.lists(st.builds(complex, _PART, _PART), min_size=len(P), max_size=len(P)),
        )
    )
)
def test_polar_orbit_matches_the_oracle_bitwise(case):
    """Every row of `polar_orbit`, one lam or many, has the bits of
    Python's z * lam ** p, signed zeros, subnormals, negative weights and
    weights above 100 (where CPython leaves square-and-multiply) included."""
    P, lams, z = case
    expected = [oracle.polar_action(P, lam, z) for lam in lams]
    assert _bits(polar_orbit(P, lams, z)) == _bits(expected)
    assert _bits([polar_orbit(P, [lam], z)[0] for lam in lams]) == _bits(expected)
    assert _bits(polar_orbit(P, lams, [z, z])) == _bits([expected, expected])


def test_polar_orbit_checks_like_the_oracle():
    for call in (polar_orbit, oracle.polar_action):
        with pytest.raises(InputError, match="unimodular"):
            call((1, 1), 1.001, (1, 1))
        with pytest.raises(InputError, match="length mismatch"):
            call((1, 1, 2), 1.0, (1, 1))
    with pytest.raises(InputError, match="unimodular"):
        polar_orbit((1, 1), [1.0, 2.0], (1, 1))


def test_polar_homogeneity_identity():
    fam = brieskorn((2, 3), (1, 0))
    f = fam.endpoint_mixed
    w = detect_weights(f)
    rng = rng_for(11, "core:polar")
    for _ in range(100):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
        lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        lhs = evaluate(f, polar_orbit(w.polar_weights, [lam], z)[0])
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
    """Value and Wirtinger partials of the batched kernel against the scalar
    oracle's `evaluate` / `wirtinger_gradient`, relative to the size of the terms."""
    n = polys[0].n
    size = len(polys) * count * 2 * n
    x = np.array(data.draw(st.lists(_coordinate, min_size=size, max_size=size)))
    z = x.reshape(len(polys), count, 2 * n).view(complex)
    result = value_and_gradient_batch(polynomial_arrays(polys), z)
    value, d_z, d_zbar = oracle.complex_partials(result)
    assert value.shape == z.shape[:-1] and d_z.shape == d_zbar.shape == z.shape
    for k, p in enumerate(polys):
        for i in range(count):
            point = tuple(z[k, i])
            tol = 1e-12 * _term_scale(p, point) + 1e-300
            grad = oracle.wirtinger_gradient(p, point)
            assert abs(value[k, i] - oracle.evaluate(p, point)) <= tol
            assert np.all(np.abs(d_z[k, i] - np.array(grad.d_z)) <= tol)
            assert np.all(np.abs(d_zbar[k, i] - np.array(grad.d_zbar)) <= tol)


@st.composite
def _sparse_arrays(draw):
    """K rows over one random monomial list in n = 1..4 variables: supports
    with absent variables and constant monomials, and zero coefficients."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    power = st.sampled_from((0, 0, 0, 1, 2, 3))
    N = np.array(draw(st.lists(st.lists(power, min_size=n, max_size=n), min_size=m, max_size=m)))
    M = np.array(draw(st.lists(st.lists(power, min_size=n, max_size=n), min_size=m, max_size=m)))
    k = draw(st.integers(1, 3))
    part = st.just(0.0) | st.floats(-2.0, 2.0)
    C = np.array(draw(st.lists(part, min_size=2 * k * m, max_size=2 * k * m))).view(complex)
    return core.PolynomialArrays(N, M, C.reshape(k, m))


def _points(data, rows: int, n: int) -> np.ndarray:
    """rows x (0..2 extra batch axes) x n points, with zero coordinates."""
    shape = (rows,) + tuple(data.draw(st.lists(st.integers(1, 3), max_size=2))) + (n,)
    size = 2 * int(np.prod(shape))
    x = data.draw(st.lists(_coordinate | st.just(-0.0), min_size=size, max_size=size))
    return np.array(x).view(complex).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_sparse_arrays(), st.data())
def test_support_kernel_equals_the_dense_kernel(arrays, data):
    """The kernel over each monomial's own variables gives the dense m x n
    grid's value and partials wherever those are finite: the same products in
    the same order, without the absent variables' factors 1 and zero terms
    (`==` makes the sign of a zero the one difference allowed)."""
    z = _points(data, len(arrays.C), arrays.n)
    got = oracle.complex_partials(value_and_gradient_batch(arrays, z))
    want = oracle.dense_value_and_gradient_batch(arrays, z)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        finite = np.isfinite(w)
        assert np.array_equal(g[finite], w[finite])


@settings(max_examples=200, deadline=None)
@given(_sparse_arrays(), st.data())
def test_each_kernel_row_computes_its_own_bits(arrays, data):
    """Row k of a batch gets the bits it gets alone and in any order of rows."""
    z = _points(data, len(arrays.C), arrays.n)
    batch = oracle.complex_partials(value_and_gradient_batch(arrays, z))
    order = data.draw(st.permutations(range(len(z))))
    shuffled = oracle.complex_partials(value_and_gradient_batch(arrays.rows(order), z[order]))
    for k in range(len(z)):
        alone = oracle.complex_partials(value_and_gradient_batch(arrays.rows([k]), z[k : k + 1]))
        for a, b, c in zip(batch, alone, shuffled):
            assert a[k].tobytes() == b[0].tobytes() == c[order.index(k)].tobytes()


@settings(max_examples=300, deadline=None)
@given(_sparse_arrays(), st.data())
def test_kernel_planes_equal_the_dense_partials_componentwise(arrays, data):
    """Plane [0] holds Re and Im of d_z f, plane [1] those of d_zbar f, as
    2 x n x K x ... arrays; each component equals the dense grid's wherever
    that component is finite."""
    z = _points(data, len(arrays.C), arrays.n)
    _, re, im = value_and_gradient_batch(arrays, z)
    _, d_z, d_zbar = oracle.dense_value_and_gradient_batch(arrays, z)
    want = np.moveaxis(np.stack([d_z, d_zbar]), -1, 1)
    assert re.shape == im.shape == want.shape == (2, arrays.n) + z.shape[:-1]
    for got, part in ((re, want.real), (im, want.imag)):
        finite = np.isfinite(part)
        assert np.array_equal(got[finite], part[finite])


@settings(max_examples=200, deadline=None)
@given(_sparse_arrays(), st.data())
def test_kernel_without_the_value_gives_the_same_planes(arrays, data):
    """value=False returns None for f and the planes of the full call, bit for bit."""
    z = _points(data, len(arrays.C), arrays.n)
    full = value_and_gradient_batch(arrays, z)
    none, re, im = value_and_gradient_batch(arrays, z, value=False)
    assert none is None
    assert (re.tobytes(), im.tobytes()) == (full[1].tobytes(), full[2].tobytes())
    empty = polynomial_arrays([MixedPolynomial(arrays.n, ())])
    for value in (True, False):
        f, re, im = value_and_gradient_batch(empty, z[:1], value=value)
        assert (f is None) is not value
        assert re.shape == im.shape == (2, arrays.n) + z[:1].shape[:-1]
        assert not re.any() and not im.any()


def _assert_one_point_matches_oracle(p, point):
    tol = 1e-12 * _term_scale(p, point) + 1e-300
    value, d_z, d_zbar = partials(p, point)
    expected = oracle.wirtinger_gradient(p, point)
    assert abs(value - oracle.evaluate(p, point)) <= tol
    assert evaluate(p, point) == value
    assert np.all(np.abs(d_z - np.array(expected.d_z)) <= tol)
    assert np.all(np.abs(d_zbar - np.array(expected.d_zbar)) <= tol)


@settings(max_examples=100, deadline=None)
@given(_family_members(), st.data())
def test_one_point_wrappers_match_oracle_on_family_members(polys, data):
    """`evaluate` and a K = 1 kernel pass, at one point, against
    the scalar loops of the oracle."""
    n = polys[0].n
    for p in polys:
        x = data.draw(st.lists(_coordinate, min_size=2 * n, max_size=2 * n))
        _assert_one_point_matches_oracle(p, complexify(x))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3),
    monomials=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    x=st.lists(_coordinate, min_size=6, max_size=6),
)
def test_one_point_wrappers_match_oracle_on_random_polynomials(n, monomials, seed, x):
    p = random_mixed(np.random.default_rng(seed), n, monomials)
    _assert_one_point_matches_oracle(p, complexify(x[: 2 * n]))


def test_one_point_wrappers_return_python_numbers():
    f = poly(2, [(1 + 2j, (2, 0), (0, 1)), (-0.5, (0, 1), (1, 0))])
    assert type(evaluate(f, (0.3, 1j))) is complex
    assert evaluate(MixedPolynomial(2, ()), (1, 1)) == 0
    assert partials(MixedPolynomial(2, ()), (1, 1))[1].tolist() == [0j, 0j]


def test_detect_weights_stops_when_a_pivot_cannot_be_positive(monkeypatch):
    """z1 zbar1 in n = 4 has no polar weights: the polar row reduces to a
    pivot with no negative free coefficient, so the search draws none of the
    32^4 assignments; the radial system takes its first."""
    drawn, product = [], core.product

    def counted(*args, **kwargs):
        for values in product(*args, **kwargs):
            drawn.append(values)
            yield values

    monkeypatch.setattr(core, "product", counted)
    f = poly(4, [(1, (1, 0, 0, 0), (1, 0, 0, 0))])
    assert detect_weights(f) == WeightSystem(None, None, (1, 2, 2, 2), 2)
    assert len(drawn) <= 1


def _scaled_polynomial(arrays, k):
    """Row k of an array form as a MixedPolynomial (its nonzero terms)."""
    terms = zip(arrays.C[k].tolist(), arrays.N.tolist(), arrays.M.tolist())
    return MixedPolynomial(arrays.n, tuple(MixedMonomial(c, nu, mu) for c, nu, mu in terms if c))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("brieskorn", "type_i", "type_ii")),
    st.integers(min_value=2, max_value=3),
    st.data(),
    st.floats(min_value=-40.0, max_value=40.0),
)
def test_on_sphere_rescales_each_row_to_the_unit_sphere(kind, n, data, log_r):
    """f_k(r u) = r^e_k f~_k(u) against the oracle wherever both sides are
    finite (relative to the size of the unit-scale terms), no coefficient
    grows, zeros stay zero, radius 1 keeps the bits and each row is its
    one-row call; e_k is the row's largest degree (smallest when r < 1)."""
    a = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    fam = build_family(FamilySpec(kind, tuple(a), tuple(b)))
    t = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    ts = data.draw(st.lists(t, min_size=1, max_size=3))
    polys = [fam.member(t) for t in ts]
    arrays = polynomial_arrays(polys)
    r = 10.0**log_r
    unit, e = arrays.on_sphere(r)
    assert unit.on_sphere(1.0)[0].C.tobytes() == unit.C.tobytes()
    assert arrays.on_sphere(1.0)[0].C.tobytes() == arrays.C.tobytes()
    assert (unit.C[arrays.C == 0] == 0).all()
    assert (np.abs(unit.C) <= np.abs(arrays.C)).all()
    x = rng_for(int(abs(log_r) * 1e6), "on_sphere").standard_normal(2 * n)
    u = complexify(x / np.linalg.norm(x))
    for k, p in enumerate(polys):
        degrees = [m.total_degree for m in p.monomials]
        assert e[k] == (max(degrees) if r >= 1.0 else min(degrees))
        one, e_one = arrays.rows([k]).on_sphere(r)
        assert one.C.tobytes() == unit.C[k : k + 1].tobytes() and e_one.tolist() == [e[k]]
        try:
            scale = r ** int(e[k])
            lhs = oracle.evaluate(p, tuple(r * w for w in u))
        except OverflowError:
            continue
        size = scale * float(np.abs(unit.C[k]).sum())
        if cmath.isfinite(lhs) and 1e-290 < size < math.inf:
            rhs = scale * oracle.evaluate(_scaled_polynomial(unit, k), u)
            assert abs(lhs - rhs) <= 1e-12 * size


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_on_sphere_refuses_a_radius_that_is_not_positive_and_finite(radius):
    arrays = polynomial_arrays([brieskorn((2, 3), (1, 1)).member(0.5)])
    with pytest.raises(InputError, match="radius must be positive"):
        arrays.on_sphere(radius)
