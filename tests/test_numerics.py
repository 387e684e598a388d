"""Seeded streams: the vectorized derivation against numpy's SeedSequence."""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixed_milnor.numerics import rng_for, rng_streams, stream_states


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
