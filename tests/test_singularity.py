"""Singularity residuals, the shell search and the per-index inequality bounds."""

import cmath
import copy
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import brieskorn, poly, random_mixed, same_bits
from mixed_milnor import FamilySpec, build_family, certify_smooth_shell
from mixed_milnor.core import polynomial_arrays, value_and_gradient_batch
from mixed_milnor import singularity
from mixed_milnor.errors import InputError, PreconditionError
from mixed_milnor.numerics import random_sphere_point, rng_for, row_norm
from mixed_milnor.singularity import (
    _first_steps,
    _line_search,
    _minimize_shell,
    _pattern_search,
    _project_tangent,
    _residual_terms,
    shell_residual_sq,
)


def _residual(f, z):
    """The residual and |f| at one point: one kernel pass, then the shell
    search's squared residual from its partials."""
    value, re, im = value_and_gradient_batch(polynomial_arrays([f]), np.array([z], dtype=complex))
    return math.sqrt(_residual_terms(re, im)[0][0]), abs(value[0])


def _linear_with_gradients(u, v):
    """f = sum conj(u_j) z_j + sum v_j zbar_j, so conj(d_z f) = u, d_zbar f = v."""
    n = len(u)
    terms = []
    for j in range(n):
        nu = [0] * n
        nu[j] = 1
        if u[j] != 0:
            terms.append((u[j].conjugate(), tuple(nu), (0,) * n))
        if v[j] != 0:
            terms.append((v[j], (0,) * n, tuple(nu)))
    return poly(n, terms)


def _grid_min(u, v, points=4096):
    import numpy as np

    lam = np.exp(2j * np.pi * np.arange(points) / points)
    ua = np.asarray(u)[None, :]
    va = np.asarray(v)[None, :]
    vals = np.sum(np.abs(ua - lam[:, None] * va) ** 2, axis=1)
    return math.sqrt(float(vals.min()))


def test_residual_zero_at_origin():
    fam = brieskorn((2, 3), (1, 1))
    assert _residual(fam.member(0.5), (0, 0)) == (0, 0)


def test_residual_zero_when_parallel():
    f = poly(1, [(1, (1,), (1,))])  # z zbar
    assert _residual(f, (1,))[0] == pytest.approx(0, abs=1e-12)


def test_residual_orthogonal_gradients():
    f = _linear_with_gradients((1, 0), (0, 1))
    residual = _residual(f, (0.3, -0.2j))[0]
    assert residual == pytest.approx(math.sqrt(2))
    assert residual == pytest.approx(_grid_min((1, 0), (0, 1), 10**4), abs=1e-8)


def test_residual_holomorphic_criterion():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 3), (0, 0))])
    assert _residual(f, (1, 1))[0] == pytest.approx(math.sqrt(4 + 9))


def test_residual_matches_lambda_grid():
    rng = rng_for(31, "sing:grid")
    for _ in range(100):
        u = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
        v = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
        # unit scale keeps the grid discretization error below the tolerance
        un = math.sqrt(sum(abs(c) ** 2 for c in u))
        vn = math.sqrt(sum(abs(c) ** 2 for c in v))
        u = tuple(c / un for c in u)
        v = tuple(c / vn for c in v)
        f = _linear_with_gradients(u, v)
        residual = _residual(f, (0, 0))[0]
        # the closed form is a true lower bound for any grid
        assert _grid_min(u, v) >= residual - 1e-9
        # a finer oracle grid pins the value itself below the tolerance
        assert residual == pytest.approx(_grid_min(u, v, points=1 << 16), abs=1e-6)


def test_residual_rotation_invariance():
    rng = rng_for(37, "sing:rot")
    for _ in range(20):
        u = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
        v = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
        theta = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        base = _residual(_linear_with_gradients(u, v), (0, 0))[0]
        rotated = _linear_with_gradients(tuple(theta * c for c in u), tuple(theta * c for c in v))
        rot = _residual(rotated, (0, 0))[0]
        assert rot == pytest.approx(base, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3),
    monomials=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    x=st.lists(st.just(0.0) | st.floats(-1.5, 1.5), min_size=6, max_size=6),
)
def test_residual_matches_the_oracle(n, monomials, seed, x):
    """The one-pass residual and |f| against the scalar oracle, relative to
    the size of the partials (the squared residual cancels down from uu + vv)."""
    f = random_mixed(np.random.default_rng(seed), n, monomials)
    z = tuple(complex(a, b) for a, b in zip(x[: 2 * n : 2], x[1 : 2 * n : 2]))
    (residual, level), expected = _residual(f, z), oracle.singularity_residual(f, z)
    grad = oracle.wirtinger_gradient(f, z)
    scale = max(map(abs, grad.d_z + grad.d_zbar), default=0.0)
    floor = np.finfo(float).tiny
    assert abs(residual**2 - expected.residual**2) <= 1e-12 * scale**2 + floor
    assert abs(level - expected.on_variety) <= 1e-12 * (1 + abs(expected.on_variety))


def test_shell_search_positive_minimum():
    fam = brieskorn((2, 3), (1, 1))
    rep = certify_smooth_shell(fam, (0.0, 0.5, 1.0), 1.0, restarts=8, seed=0)
    assert rep.min_residual_found > 0.1
    assert 0.0 <= rep.argmin_t <= 1.0
    assert len(rep.argmin_point) == 2


def test_shell_search_constant_family():
    fam = brieskorn((2, 3))
    rep = certify_smooth_shell(fam, (0.0, 0.5, 1.0), 1.0, restarts=4, seed=0)
    assert rep.min_residual_found > 0.1


def test_shell_search_deterministic():
    fam = brieskorn((2, 2), (1, 0))
    a = certify_smooth_shell(fam, (0.0, 1.0), 1.0, restarts=4, seed=5)
    b = certify_smooth_shell(fam, (0.0, 1.0), 1.0, restarts=4, seed=5)
    assert a == b


def test_residual_grows_along_rays_for_holomorphic_family():
    fam = brieskorn((2, 3))
    f = fam.endpoint_holomorphic
    rng = rng_for(41, "sing:ray")
    for _ in range(20):
        z = random_sphere_point(rng, 2, 1.0)
        inner = _residual(f, z)[0]
        outer = _residual(f, tuple(2 * c for c in z))[0]
        assert outer >= inner - 1e-12


def test_shell_search_validation():
    fam = brieskorn((2, 2), (1, 0))
    with pytest.raises(InputError):
        certify_smooth_shell(fam, (0.0,), -1.0)
    with pytest.raises(PreconditionError):
        certify_smooth_shell(fam, (0.0, 1.5), 1.0)
    for radius in (math.nan, math.inf):
        with pytest.raises(InputError):
            certify_smooth_shell(fam, (0.0,), radius)
    with pytest.raises(InputError):
        certify_smooth_shell(fam, (), 1.0)
    # zero restarts would certify on no evidence at all
    with pytest.raises(InputError):
        certify_smooth_shell(fam, (0.0,), 1.0, restarts=0)


@st.composite
def _families(draw):
    kind = draw(st.sampled_from(("brieskorn", "type_i", "type_ii")))
    n = draw(st.integers(min_value=1 if kind == "brieskorn" else 2, max_value=3))
    a = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return build_family(FamilySpec(kind, tuple(a), tuple(b)))


_coordinate = st.one_of(st.just(0.0), st.floats(min_value=-1.5, max_value=1.5))


@settings(max_examples=500, deadline=None)
@given(_families(), st.data())
def test_batched_kernel_matches_scalar(fam, data):
    """Batched Wirtinger gradient and squared residual against the scalar
    path, over several family members sharing one batch."""
    ts = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3))
    x = np.array(
        data.draw(
            st.lists(
                st.lists(_coordinate, min_size=2 * fam.n, max_size=2 * fam.n),
                min_size=len(ts),
                max_size=len(ts),
            )
        )
    ).reshape(len(ts), 1, 2 * fam.n)
    arrays = polynomial_arrays([fam.member(t) for t in ts])
    _, d_z, d_zbar = oracle.complex_partials(value_and_gradient_batch(arrays, x.view(complex)))
    res_sq = shell_residual_sq(arrays, x)
    # below the normal range a double has no relative precision left
    floor = np.finfo(float).tiny
    for k, t in enumerate(ts):
        z = x[k, 0].view(complex)
        grad = oracle.wirtinger_gradient(fam.member(t), z)
        exact = np.concatenate([grad.d_z, grad.d_zbar])
        scale = np.max(np.abs(exact))
        err = np.abs(np.concatenate([d_z[k, 0], d_zbar[k, 0]]) - exact)
        assert np.all(err <= 1e-12 * scale + floor)
        # the squared residual cancels down from uu + vv <= 2n * scale**2
        expected = oracle.singularity_residual(fam.member(t), z).residual ** 2
        assert abs(res_sq[k, 0] - expected) <= 1e-12 * scale**2 + floor


@settings(max_examples=10, deadline=None)
@given(
    _families(),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_lockstep_restart_ignores_its_batch(fam, ts, seed):
    """Each restart of a lockstep batch ends bit for bit where it ends alone."""
    arrays = polynomial_arrays([fam.member(t) for t in ts])

    def streams():
        rngs = [rng_for(seed, f"lockstep:{k}") for k in range(len(ts))]
        return rngs, np.stack([rng.standard_normal(2 * fam.n) for rng in rngs])

    rngs, x0 = streams()
    x, f, iters = _minimize_shell(arrays, x0, rngs)
    rngs, x0 = streams()
    for k in range(len(ts)):
        xk, fk, ik = _minimize_shell(arrays.rows([k]), x0[k : k + 1], [rngs[k]])
        assert xk[0].tobytes() == x[k].tobytes()
        assert fk[0].tobytes() == f[k].tobytes()
        assert ik[0] == iters[k]


def _line_search_ref(arrays, x, f, live, g, gn, length):
    """The line search with one halving per kernel call from the first
    lengths `length`, which take the accepted lengths; also returns the
    values each call saw."""
    alpha = length / np.maximum(gn, 1e-12)
    trial = length.copy()
    improved = np.zeros(live.size, dtype=bool)
    todo = np.arange(live.size)
    seen = []
    for _ in range(30):
        if not todo.size:
            break
        rows = live[todo]
        cand = x[rows] - alpha[todo, None] * g[todo]
        cand *= (1.0 / row_norm(cand))[:, None]
        fc = shell_residual_sq(arrays.rows(rows), cand)
        seen.append(fc)
        ok = fc < f[rows] - 1e-12 * np.abs(f[rows])
        x[rows[ok]] = cand[ok]
        f[rows[ok]] = fc[ok]
        length[todo[ok]] = trial[todo[ok]]
        improved[todo[ok]] = True
        todo = todo[~ok]
        alpha[todo] *= 0.5
        trial[todo] *= 0.5
    return improved, seen


def _pattern_search_ref(arrays, x, f, live, rngs):
    """The pattern search with one probe per kernel call; also returns the
    values each call saw."""
    improved = np.zeros(live.size, dtype=bool)
    todo = np.arange(live.size)
    scale = 1e-3
    seen = []
    for _ in range(10):
        if not todo.size:
            break
        rows = live[todo]
        xr = x[rows]
        d = _project_tangent(np.stack([rngs[k].standard_normal(x.shape[1]) for k in rows]), xr)
        d /= np.maximum(row_norm(d), 1e-300)[:, None]
        step = scale * d
        cand = np.stack([xr + step, xr - step], axis=1)
        cand *= (1.0 / row_norm(cand))[..., None]
        fc = shell_residual_sq(arrays.rows(rows), cand)
        seen.append(fc)
        plus = fc[:, 0] < f[rows]
        ok = plus | (fc[:, 1] < f[rows])
        side = np.where(plus, 0, 1)[ok]
        x[rows[ok]] = cand[ok, side]
        f[rows[ok]] = fc[ok, side]
        improved[todo[ok]] = True
        todo = todo[~ok]
        scale *= 0.5
    return improved, seen


class _SearchCase(NamedTuple):
    arrays: object
    x: np.ndarray
    g: np.ndarray
    gn: np.ndarray
    length: np.ndarray  # the line search's first lengths
    f_line: np.ndarray  # the values the line search starts from
    f_probe: np.ndarray  # the values the pattern search starts from
    streams: Callable  # fresh per-row streams, in the same state each call


def _assert_block_search_matches(batch_points, case, live):
    """Run both searches in blocks and with one step per call from the same
    state; demand the same bits in x, f, the accepted lengths, the improved
    mask and every stream."""
    arrays, x, g, gn, length, f_line, f_probe, streams = case

    def run(line, probe):
        xl, fl, ll = x.copy(), f_line.copy(), length[live].copy()
        line_improved = line(arrays, xl, fl, live, g[live], gn[live], ll)
        xp, fp, rngs = x.copy(), f_probe.copy(), streams()
        probe_improved = probe(arrays, xp, fp, live, rngs)
        return (
            [xl.tobytes(), fl.tobytes(), ll.tobytes(), line_improved.tolist()],
            [xp.tobytes(), fp.tobytes(), probe_improved.tolist()],
            [rng.bit_generator.state for rng in rngs],
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(singularity, "BATCH_POINTS", batch_points)
        block = run(_line_search, _pattern_search)
    ref = run(lambda *a: _line_search_ref(*a)[0], lambda *a: _pattern_search_ref(*a)[0])
    assert block == ref


@pytest.mark.parametrize("batch_points", [1, 7, 1 << 20])
@settings(max_examples=40, deadline=None)
@given(_families(), st.data())
def test_block_search_matches_one_step_per_call(batch_points, fam, data):
    """Several halvings or probes per kernel call give each row the path of
    one step per call on the unit sphere, from first lengths up to 0.1: from the row's
    true value, from 0 (no step is ever accepted: all 30 halvings and all 10
    probes run) and from just above the best value any step reaches (the row
    takes that step)."""
    ts = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    live = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(ts), max_size=len(ts))))
    mode = st.sampled_from(("value", "zero", "best"))
    modes = np.array(data.draw(st.lists(mode, min_size=len(ts), max_size=len(ts))))
    arrays = polynomial_arrays([fam.member(t) for t in ts])
    rng = rng_for(seed, "block:start")
    x = rng.standard_normal((len(ts), 2 * fam.n))
    x *= (1.0 / row_norm(x))[:, None]
    g = _project_tangent(rng.standard_normal(x.shape), x)
    gn = row_norm(g)
    shares = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=len(ts), max_size=len(ts)))
    length = 0.1 * np.array(shares)

    def streams():
        return [rng_for(seed, f"block:{k}") for k in range(len(ts))]

    every, zero = np.arange(len(ts)), np.zeros(len(ts))
    # from 0 no step is accepted, so the reference sees every candidate
    line_seen = _line_search_ref(arrays, x.copy(), zero.copy(), every, g, gn, length.copy())[1]
    probe_seen = _pattern_search_ref(arrays, x.copy(), zero.copy(), every, streams())[1]
    value = shell_residual_sq(arrays, x)
    picks = [modes == "zero", modes == "best"]
    # just above the best value, beyond the line search's 1e-12 relative margin
    f_line = np.select(picks, [zero, np.min(line_seen, axis=0) * (1 + 4e-12)], value)
    f_probe = np.select(picks, [zero, np.nextafter(np.min(probe_seen, axis=(0, 2)), np.inf)], value)
    case = _SearchCase(arrays, x, g, gn, length, f_line, f_probe, streams)
    _assert_block_search_matches(batch_points, case, live)


@pytest.mark.parametrize("batch_points", [1, 7, 1 << 20])
def test_block_search_edge_rows(batch_points):
    """At a point where the search stopped, one row takes the last of the 10
    probes, one accepts none of the 30 halvings and none of the probes; an
    empty set of rows is searched too."""
    fam = brieskorn((2, 3), (1, 1))
    arrays = polynomial_arrays([fam.member(0.5)] * 3)
    rngs = [rng_for(1, f"edge:{k}") for k in range(3)]
    x, f, iters = _minimize_shell(arrays, np.stack([r.standard_normal(4) for r in rngs]), rngs)
    assert np.all(iters < singularity.MAX_ITER)

    def streams():
        return copy.deepcopy(rngs)

    g = _project_tangent(rng_for(1, "edge:g").standard_normal(x.shape), x)
    gn = row_norm(g)
    every = np.arange(3)
    probes = np.array(_pattern_search_ref(arrays, x.copy(), np.zeros(3), every, streams())[1])
    assert np.argmin(probes.min(axis=2), axis=0)[0] == 9
    f_line = np.array([f[0], 0.0, f[2]])
    f_probe = np.array([np.nextafter(probes[9, 0].min(), np.inf), 0.0, f[2]])
    improved, seen = _pattern_search_ref(arrays, x.copy(), f_probe.copy(), every, streams())
    assert improved.tolist() == [True, False, False] and len(seen) == 10
    length = np.full(3, 0.1)
    improved, seen = _line_search_ref(arrays, x.copy(), f_line.copy(), every, g, gn, length.copy())
    assert not improved[1] and len(seen) == 30
    case = _SearchCase(arrays, x, g, gn, length, f_line, f_probe, streams)
    for live in (every, np.array([1]), np.array([], dtype=int)):
        _assert_block_search_matches(batch_points, case, live)


_step_entry = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from((0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300)),
)


def _first_step_ref(s, y, gn, last, cap):
    """The first-step rule in Python floats, sums in the order of row_dot."""
    ss, sy = s[0] * s[0], s[0] * y[0]
    for j in range(1, len(s)):
        ss, sy = ss + s[j] * s[j], sy + s[j] * y[j]
    bb = ss / sy * gn if sy > 0 else math.nan
    return min(bb if 0 < bb < math.inf else 2.0 * last, cap)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_steps_rule(data):
    """Each row's first trial length is the two-point length (s.s / s.y)|g|
    where s.y > 0 and the length is finite, else twice the last accepted
    length (s.y <= 0, NaN or inf; s = 0 in the first round, which gives
    0.1 radius), never above 0.1 radius, with the same bits alone or in a
    batch."""
    k, dim = data.draw(st.integers(1, 6)), data.draw(st.sampled_from((2, 4, 6)))
    cap = 0.1 * data.draw(st.sampled_from((0.5, 1.0, 3.0)))
    rows = st.lists(_step_entry, min_size=dim, max_size=dim)
    s = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))
    y = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))
    # rows with s.y of a known sign: y along s, against s, zero, or s = 0
    kind = st.sampled_from(("free", "along", "against", "zero", "first"))
    kinds = data.draw(st.lists(kind, min_size=k, max_size=k))
    for i, kind in enumerate(kinds):
        if kind == "first":
            s[i] = 0.0
        elif kind != "free":
            s[i] = np.nan_to_num(s[i], nan=1.0, posinf=1.0, neginf=-1.0)
            scale = data.draw(st.floats(min_value=1e-3, max_value=1e3))
            y[i] = {"along": scale, "against": -scale, "zero": 0.0}[kind] * s[i]
    gn = np.array(data.draw(st.lists(st.floats(1e-12, 1e3), min_size=k, max_size=k)))
    last = np.array(data.draw(st.lists(st.floats(1e-9, 2 * cap), min_size=k, max_size=k)))
    last[np.array(kinds) == "first"] = cap
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _first_steps(s, y, gn, last, cap)
        alone = [
            _first_steps(s[i : i + 1], y[i : i + 1], gn[i : i + 1], last[i : i + 1], cap)
            for i in range(k)
        ]
    for i, kind in enumerate(kinds):
        ref = _first_step_ref(s[i].tolist(), y[i].tolist(), float(gn[i]), float(last[i]), cap)
        assert batch[i] == ref
        assert batch[i] <= cap
        assert alone[i].tobytes() == batch[i : i + 1].tobytes()
        if kind in ("against", "zero", "first"):
            assert batch[i] == min(2.0 * last[i], cap)
        if kind == "first":
            assert batch[i] == cap


def test_shell_search_first_steps(monkeypatch):
    """Every row starts its first line search at 0.1, on the unit sphere
    whatever the radius; no later first step exceeds it, and the two-point
    rule does shorten some."""
    seen = []

    def recording(arrays, x, f, live, g, gn, length):
        seen.append(length.copy())
        return _line_search(arrays, x, f, live, g, gn, length)

    monkeypatch.setattr(singularity, "_line_search", recording)
    rep = certify_smooth_shell(brieskorn((2, 3), (1, 1)), (0.0, 0.5, 1.0), 3.0, restarts=4, seed=2)
    assert rep.converged
    assert seen[0].tolist() == [0.1] * 12
    assert all(np.all(lengths <= 0.1) for lengths in seen)
    assert any(np.any(lengths < 0.1) for lengths in seen[1:])


# min_residual_found and converged of the search with one first step of
# 0.1 radius in every round, grid 0:1:0.2 with 6 restarts
_FIXED_STEP_PANEL = [
    (("brieskorn", (2, 3), (1, 1)), 9, 1.0, 1.0162808200982818, True),
    (("brieskorn", (2, 2, 3), (1, 0, 2)), 9, 0.5, 0.03201825869736211, False),
    (("brieskorn", (3, 5), (2, 1)), 0, 0.5, 0.010559277294920474, False),
    (("brieskorn", (2, 2, 2), (0, 1, 0)), 5, 1.0, 1.5685659954751727, True),
    (("type_i", (2, 3, 2), (1, 0, 1)), 5, 0.5, 0.028904585113214164, True),
    (("type_i", (2, 3, 2), (1, 0, 1)), 9, 3.0, 4.851216779968433, True),
    (("type_i", (3, 2), (0, 2)), 0, 3.0, 5.988965216801147, True),
    (("type_ii", (2, 3), (1, 1)), 5, 0.5, 0.018767993176417568, True),
]


@pytest.mark.parametrize("spec, seed, radius, fixed_min, fixed_converged", _FIXED_STEP_PANEL)
def test_first_steps_keep_the_search_strength(spec, seed, radius, fixed_min, fixed_converged):
    """A faster search must not find higher minima or stop converging: each
    minimum stays at or below the fixed-step search's, and no t that
    converged there runs into the iteration cap now."""
    grid = (0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0)
    fam = build_family(FamilySpec(*spec))
    rep = certify_smooth_shell(fam, grid, radius, restarts=6, seed=seed)
    assert rep.min_residual_found <= fixed_min * (1 + 1e-12)
    assert rep.converged or not fixed_converged


class _Stacked(Exception):
    """Carries the array form that the shell search would minimize over."""


@settings(max_examples=100, deadline=None)
@given(_families(), st.data())
def test_grid_union_residuals_match_members_alone(fam, data):
    """The shell search stacks its grid as one union of monomials, in which a
    member's values may take other bits than alone (the holomorphic end's
    monomials can land in another order); its squared residuals, built from
    the partials, keep the member's bits for every grid, unsorted, repeated
    or with t = 1 first."""
    ts = data.draw(
        st.lists(
            st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1,
            max_size=4,
        )
    )
    restarts = data.draw(st.integers(min_value=1, max_value=2))

    def stacked(arrays, x0, rngs):
        raise _Stacked(arrays)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(singularity, "_minimize_shell", stacked)
        with pytest.raises(_Stacked) as caught:
            certify_smooth_shell(fam, ts, 1.0, restarts=restarts)
    arrays = caught.value.args[0]
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    x = rng_for(seed, "union").standard_normal((len(ts) * restarts, 8, 2 * fam.n))
    union = shell_residual_sq(arrays, x)
    for k in range(len(x)):
        alone = shell_residual_sq(polynomial_arrays([fam.member(ts[k // restarts])]), x[k : k + 1])
        assert alone.tobytes() == union[k : k + 1].tobytes()


def test_overflowed_residual_is_not_a_singular_point():
    """inf - inf is NaN, not 0: a residual whose partials overflow must not
    read as a singular point (the shell search raises on it)."""
    fam = brieskorn((2, 3), (1, 1))
    arrays = polynomial_arrays([fam.member(0.5)])
    with np.errstate(over="ignore", invalid="ignore"):
        residual = shell_residual_sq(arrays, np.array([[1e60, 0.0, 1e60, 0.0]]))
    assert np.isnan(residual).all()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_residual_terms_on_planes_equal_the_complex_reference(n, batch, data):
    """The residual terms read from the kernel's planes have the bits of the
    complex reference, NaN for NaN, at partials with signed zeros, extra batch
    axes, infinities and NaN."""
    size = 2 * 2 * n * int(np.prod(batch))
    partial = st.floats() | st.sampled_from([0.0, -0.0])
    x = data.draw(st.lists(partial, min_size=size, max_size=size))
    re, im = np.array(x).reshape([2, 2, n] + batch)
    _, d_z, d_zbar = oracle.complex_partials((None, re, im))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _residual_terms(re, im), oracle.residual_terms(d_z, d_zbar)
    assert all(same_bits(a, b) for a, b in zip(got, want))


def test_threshold_sets_the_verdict():
    """The library decides `certified` as the CLI does: the minimum above the
    threshold; a threshold that is not positive is refused."""
    fam = brieskorn((2, 2), (1, 1))
    rep = certify_smooth_shell(fam, (0.5,), 1.0, restarts=2, seed=9)
    assert rep.threshold == 1e-3 and rep.certified is (rep.min_residual_found > 1e-3)
    high = certify_smooth_shell(fam, (0.5,), 1.0, restarts=2, seed=9, threshold=10.0)
    assert high.min_residual_found == rep.min_residual_found and high.certified is False
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InputError, match="threshold must be positive"):
            certify_smooth_shell(fam, (0.5,), 1.0, restarts=2, threshold=bad)


def test_report_records_provenance():
    fam = brieskorn((2, 2), (1, 1))
    rep = certify_smooth_shell(fam, (0.5,), 1.0, restarts=2, seed=9)
    assert rep.restarts == 2
    assert rep.t_grid == (0.5,)
    assert rep.iterations > 0
