"""Seeded streams against numpy's SeedSequence, the lockstep monotone root
against the scalar oracle, per-row Newton targets against one-target runs,
and the fixed-order dot products against Python float loops."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from mixed_milnor.errors import InputError, NumericalError
from conftest import brieskorn, same_bits
from mixed_milnor.numerics import (
    gram,
    monotone_roots,
    newton_on_sphere_batch,
    random_sphere_point,
    real_jacobian,
    rng_for,
    rng_streams,
    row_dot,
    stream_states,
)


def _seed_sequence_rng(seed: int, label: str) -> np.random.Generator:
    """The derivation the vectorized pass replaces: one SeedSequence per label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), *words]))


_seeds = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, -5, 3, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64]),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=_seeds,
    labels=st.lists(st.text(max_size=12), min_size=1, max_size=6),
    sizes=st.lists(st.integers(0, 9), min_size=1, max_size=4),
)
@example(
    seed=-5, labels=["é中", "ct:t=0:sample:1:attempt:0", "", "\U0001f600"], sizes=[6, 1, 0, 9]
)
@example(seed=2**64 - 1, labels=["shell:t=10:restart:9"] * 2, sizes=[4])
def test_streams_draw_what_seed_sequence_draws(seed, labels, sizes):
    states = stream_states(seed, labels)
    for label, state, rng in zip(labels, states, rng_streams(seed, labels)):
        ref = _seed_sequence_rng(seed, label)
        one = rng_for(seed, label)
        assert state == ref.bit_generator.state
        for size in sizes:
            expected = ref.standard_normal(size).tobytes()
            assert rng.standard_normal(size).tobytes() == expected
            assert one.standard_normal(size).tobytes() == expected
        assert rng.integers(0, 2**62, 3).tolist() == ref.integers(0, 2**62, 3).tolist()
        assert rng.random() == ref.random()


def test_no_labels_no_states():
    assert stream_states(7, []) == []
    assert rng_streams(7, []) == []


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(1, 5),
    b=st.integers(0, 3),
    tau=st.floats(0.01, 1.0),
    c=st.floats(0.0, 10.0),
    target=st.floats(1e-3, 1e3),
    newton=st.booleans(),
    bracket=st.none() | st.tuples(st.floats(1e-3, 10.0), st.floats(1.0, 100.0)),
)
def test_one_row_monotone_root_matches_the_oracle(a, b, tau, c, target, newton, bracket):
    """s^a (tau + c s^(2b)) = target: the one-row root against the scalar
    bracket loop, with and without Newton steps and with the bracket given or
    grown.  Array ** rounds apart from
    float **, so roots agree to the stopping width 1e-14 max(1, |s|), not
    bit for bit."""

    def fn(s):
        return s**a * (tau + c * s ** (2 * b))

    def dfn(s):
        return a * s ** (a - 1) * tau + (a + 2 * b) * c * s ** (a + 2 * b - 1)

    lo, hi = (1.0, None) if bracket is None else (bracket[0], bracket[0] * bracket[1])
    scalar_dfn = dfn if newton else None
    expected = oracle.monotone_root(fn, target, lo, hi, scalar_dfn)
    rows = monotone_roots(
        lambda s, k: fn(s), [target], lo, hi, (lambda s, k: dfn(s)) if newton else None
    )
    assert rows.shape == (1,)
    assert abs(rows[0] - expected) <= 1e-13 * max(1.0, expected)


def test_monotone_roots_rows_keep_their_own_brackets():
    """Rows with other targets, bracket growth in both directions and no
    Newton steps: each row's root is its own, to the stopping width."""
    target = np.array([1e-6, 0.5, 1.0, 3.0, 1e6])
    roots = monotone_roots(lambda s, k: s**3, target, lo=0.5, hi=2.0)
    assert np.all(np.abs(roots - np.cbrt(target)) <= 1e-13 * np.maximum(1.0, roots))
    for k, goal in enumerate(target):
        assert monotone_roots(lambda s, i: s**3, target[k : k + 1], lo=0.5, hi=2.0)[0] == roots[k]
        expected = oracle.monotone_root(lambda s: s**3, goal, 0.5, 2.0)
        assert abs(expected - roots[k]) <= 1e-13 * max(1.0, expected)


def test_monotone_roots_stop_at_a_converged_newton_step():
    """A row ends once its Newton candidate lies within 0.5e-14 relative of
    its last point s, and the candidate is its root: ten calls of fn for
    s^3 = target on three rows, where bisecting the bracket down takes 55."""
    target = np.array([2.0, 0.3, 7.0])
    last = {}

    def fn(s, k):
        last.update(zip(k.tolist(), s.tolist()))
        return s**3

    roots = monotone_roots(fn, target, dfn=lambda s, k: 3.0 * s**2)
    assert np.all(np.abs(roots - np.cbrt(target)) <= 1e-15 * roots)
    for k, goal in enumerate(target):
        s = np.array([last[k]])
        step = (goal - s**3) / (3.0 * s**2)
        assert abs(step[0]) <= 0.5e-14 * max(1.0, s[0]) and roots[k] == (s + step)[0]
    calls = []
    monotone_roots(lambda s, k: calls.append(k) or s**3, target, dfn=lambda s, k: 3.0 * s**2)
    assert len(calls) == 10


_entry = st.floats(-1e150, 1e150) | st.sampled_from((0.0, -0.0, 1.0, 1e-300))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_row_dot_and_gram_sum_their_products_in_index_order(rows, m, data):
    """`row_dot` and `gram` give the bits of a Python float loop: the same
    IEEE products, summed in index order."""
    J = np.array(data.draw(st.lists(_entry, min_size=rows * 2 * m, max_size=rows * 2 * m)))
    J = J.reshape(rows, 2, m)

    def loop(a, b):
        total = a[0] * b[0]
        for x, y in zip(a[1:], b[1:]):
            total = total + x * y
        return total

    g = gram(J)
    dots = row_dot(J, J[:, :1])
    for k in range(rows):
        a, b = J[k].tolist()
        expected = [loop(a, a), loop(a, b), loop(b, b), loop(a, a), loop(b, a)]
        got = [g[0][k], g[1][k], g[2][k], dots[k, 0], dots[k, 1]]
        assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_monotone_root_fails_to_bracket():
    with pytest.raises(NumericalError, match="monotone_roots: failed to bracket from above"):
        monotone_roots(lambda s, k: np.zeros_like(s), [1.0])
    with pytest.raises(NumericalError, match="from below"):
        monotone_roots(lambda s, k: np.ones_like(s), [0.5])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_per_row_targets_match_one_target_runs(seed):
    """A batch with one target per row gives, bit for bit, each row's run
    under its own scalar target (hits, misses and a zero-norm start alike)."""
    rng = rng_for(seed, "num:targets")
    fam = brieskorn((2, 3), (1, 1))
    starts = [random_sphere_point(rng, 2, 1.0) for _ in range(8)] + [(0j, 0j)]
    targets = np.zeros(len(starts), dtype=complex)
    targets[1:] = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    points, found = newton_on_sphere_batch(fam.members([0.5] * 9), targets, starts)
    assert found.any() and not found.all()
    for k, start in enumerate(starts):
        alone, hit = newton_on_sphere_batch(fam.members([0.5]), complex(targets[k]), [start])
        assert hit[0] == found[k] and alone[0].tobytes() == points[k].tobytes()


def test_newton_batch_needs_one_row_per_start():
    """One member row for three starts is an input error, not an index error."""
    fam = brieskorn((2, 3), (1, 1))
    starts = [(0.6, 0.8)] * 3
    with pytest.raises(InputError, match="3 starts do not fit 1 polynomial rows"):
        newton_on_sphere_batch(fam.members([0.5]), 0j, starts)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_real_jacobian_on_planes_equals_the_complex_reference(n, k, data):
    """The Jacobian written from the kernel's planes has the bits of the complex
    reference at any partials: signed zeros, subnormals, infinities and NaN."""
    size = 2 * 2 * n * k
    partial = st.floats() | st.sampled_from([0.0, -0.0])
    x = data.draw(st.lists(partial, min_size=size, max_size=size))
    re, im = np.array(x).reshape(2, 2, n, k)
    _, d_z, d_zbar = oracle.complex_partials((None, re, im))
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_bits(real_jacobian(re, im), oracle.real_jacobian(d_z, d_zbar))
