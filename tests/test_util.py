"""Seeded stream derivation against numpy's own SeedSequence.

This file imports nothing from conftest, so it also runs on its own
(`--noconftest`), as CI does under the oldest numpy that pyproject allows:
numpy 1.x and 2.x differ in how uint32 scalars overflow (NEP 50).
"""

import zlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2xsim.util import stream, streams

MASK = 0xFFFFFFFF


def stream_reference(master_seed, purpose, *ids):
    """The stream numpy derives from the key (seed, crc32 of purpose, ids...), masked."""
    key = [int(master_seed) & MASK, zlib.crc32(purpose.encode("utf-8"))]
    key.extend(int(i) & MASK for i in ids)
    return np.random.default_rng(np.random.SeedSequence(key))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(3), want.random(3))
    assert np.array_equal(got.integers(0, 2**63, 3), want.integers(0, 2**63, 3))
    assert got.standard_normal() == want.standard_normal()


# seeds on both edges of uint32, and values whose mask matters
SEEDS = st.one_of(st.sampled_from([0, 1, MASK]), st.integers(0, MASK),
                  st.integers(-2**62, 2**62))
IDS = st.one_of(st.sampled_from([0, 1, MASK]), st.integers(0, MASK),
                st.integers(-2**62, 2**62))
PURPOSES = st.one_of(st.sampled_from(["phase", "backoff", "sps", "shadowing", ""]), st.text())


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, purpose=PURPOSES, ids=st.lists(IDS, max_size=12))
@example(seed=MASK, purpose="sps", ids=[0, MASK, MASK + 1, -1])
@example(seed=2**32 + 5, purpose="phase", ids=[])
def test_streams_match_numpy_seed_sequence(seed, purpose, ids):
    got = streams(seed, purpose, np.array(ids, dtype=np.int64))
    assert len(got) == len(ids)
    for rng, vid in zip(got, ids):
        assert_same_stream(rng, stream_reference(seed, purpose, vid))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, purpose=PURPOSES, ids=st.lists(IDS, max_size=9))
@example(seed=0, purpose="shadowing", ids=[])
@example(seed=MASK, purpose="sps", ids=[MASK, 0, MASK, 0, MASK])  # beyond the pool of four
def test_stream_matches_numpy_seed_sequence(seed, purpose, ids):
    assert_same_stream(stream(seed, purpose, *ids), stream_reference(seed, purpose, *ids))
