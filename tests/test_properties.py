"""Property tests over small random configurations of both engines.

Every run, whatever its technology, reception mode, layout, size, horizon,
warmup, mobility step or seed, must give the same outputs when the engine
scores its recorded frames in bounded batches as when it scores each frame
(802.11p) or TTI (C-V2X) as soon as it ends: the same reception draws, the
same warmup cut and the same inter-packet gaps in the same order, also when
every C-V2X transmission triggers a resource reselection. Each run must
also resolve each reception opportunity to exactly one outcome, never count
more receptions than opportunities in a PRR bin, and record only positive
inter-packet gaps. Nothing changes either when the channel refresh works in
row blocks of a few links each.

A pass that tallies several reception models at once replays the links
that its first run simulates under one model to every other model of its
list. Each of its stores must equal the store of a live run under its model
alone, in both directions (curve first, step first) and on both
technologies, whatever the order of the list: also a curve scoring the links
of a step recording, whose stream skips the draws of the links before warmup
while the step draws nothing, and a curve listed twice; also when warmup
falls inside a scoring batch and when every batch holds one frame. A pass
without IPG gives the same PRR and counters and no gap.
"""

import copy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_store, curve_path, make_setup, step_model

from v2xsim import engine
from v2xsim.cli import load_curve_csv

CURVES = {"11p": load_curve_csv(curve_path("highway_los_11p_mcs2_350B.csv")),
          "cv2x": load_curve_csv(curve_path("highway_los_cv2x_mcs7_350B.csv"))}
ROAD_LENGTH_M = 1000.0


def reception_models(tech, curve_mode):
    curve = CURVES[tech]
    if curve_mode:
        return st.just(curve)
    return st.floats(0.1, 0.9).map(lambda beta: step_model(curve, beta))


@st.composite
def small_setups(draw, tech=None, curve_mode=None):
    """A small setup and the reception model to run it under."""
    tech = draw(st.sampled_from(sorted(CURVES))) if tech is None else tech
    if curve_mode is None:
        curve_mode = draw(st.booleans())
    reception = draw(reception_models(tech, curve_mode))
    layout = draw(st.sampled_from(["highway", "urban_grid"]))
    # fixed_count places round(vehicles / 2) on each street of the crossing, so
    # one vehicle there rounds to an empty road, which the engine rejects
    vehicles = draw(st.integers(1 if layout == "highway" else 2, 60))
    horizon = draw(st.floats(0.05, 0.5))
    warmup = draw(st.floats(0.0, 0.99)) * horizon
    setup = make_setup(tech, seed=draw(st.integers(0, 2**31 - 1)),
                       duration=horizon, warmup=warmup,
                       density=vehicles / (ROAD_LENGTH_M / 1000.0),
                       road_length=ROAD_LENGTH_M,
                       mobility_step_ms=draw(st.sampled_from([10.0, 37.0, 100.0])))
    road = replace(setup.road, placement="fixed_count", layout=layout)
    return replace(setup, road=road), reception


@settings(max_examples=300, deadline=None)
@given(case=small_setups())
def test_batched_scoring_matches_per_frame_scoring(case):
    batched = engine.run(*case)
    with mock.patch.object(engine, "SCORE_BATCH_ELEMENTS", 1):
        per_frame = engine.run(*case)
    assert_same_store(batched, per_frame)
    assert batched.opportunities == \
        batched.received_total + batched.lost_sinr + batched.lost_half_duplex
    assert np.all(batched.prr.received <= batched.prr.opportunities)
    assert batched.prr.opportunities.sum() <= batched.opportunities
    assert all(gap > 0 for gap in batched.ipg.gaps)


@settings(max_examples=100, deadline=None)
@given(case=small_setups(), block_elements=st.integers(1, 200))
def test_batched_scoring_matches_per_frame_scoring_with_small_refresh_blocks(
        case, block_elements):
    # a refresh of many row blocks overwrites the link buffers while 802.11p
    # frames recorded in an earlier epoch still wait to be scored
    batched = engine.run(*case)
    with mock.patch.object(engine, "REFRESH_BLOCK_ELEMENTS", block_elements):
        small_blocks = engine.run(*case)
        with mock.patch.object(engine, "SCORE_BATCH_ELEMENTS", 1):
            per_frame = engine.run(*case)
    assert_same_store(small_blocks, batched)
    assert_same_store(small_blocks, per_frame)


@settings(max_examples=100, deadline=None)
@given(case=small_setups("cv2x"))
def test_held_ttis_keep_their_resource_through_a_reselection(case):
    # every transmission ends its reservation, so the next generation
    # reselects while the sent TTI may still wait to be scored
    setup, reception = case
    setup = replace(setup, sps=replace(setup.sps, counter_min=1, counter_max=1,
                                       keep_probability=0.0))
    batched = engine.run(setup, reception)
    with mock.patch.object(engine, "SCORE_BATCH_ELEMENTS", 1):
        per_tti = engine.run(setup, reception)
    assert_same_store(batched, per_tti)


def assert_same_store_without_ipg(shared, live):
    """A store of a pass without IPG: the live run's PRR and counters, and no gap."""
    for name in ("generated", "transmitted", "opportunities", "received_total",
                 "lost_sinr", "lost_half_duplex"):
        assert getattr(shared, name) == getattr(live, name), name
    np.testing.assert_array_equal(shared.prr.opportunities, live.prr.opportunities)
    np.testing.assert_array_equal(shared.prr.received, live.prr.received)
    assert shared.ipg.gaps.size == 0


@pytest.mark.parametrize("recorded_mode", ["curve", "step"])
@pytest.mark.parametrize("tech", sorted(CURVES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_replayed_links_match_a_live_run(tech, recorded_mode, data):
    # the first run simulates the links under `recorded`; every other model
    # of the pass, listed anywhere, scores those same links
    setup, recorded = data.draw(small_setups(tech, recorded_mode == "curve"))
    other = data.draw(reception_models(tech, recorded_mode != "curve"))
    extra = data.draw(st.lists(st.booleans().flatmap(lambda curve_mode: reception_models(
        tech, curve_mode)), max_size=2))
    models = data.draw(st.permutations([recorded, other, *extra]))
    asked = data.draw(st.sampled_from(models))
    ipg = data.draw(st.booleans())
    shared = engine.SharedRun(models, ipg=ipg)
    engine.run(setup, recorded, shared=shared)
    same = assert_same_store if ipg else assert_same_store_without_ipg
    for model in (recorded, other, asked):
        same(engine.run(setup, model, shared=shared), engine.run(setup, model))


def straddling_setup(tech):
    """A setup whose warmup falls inside a scoring batch of either engine."""
    setup = make_setup(tech, seed=37, duration=1.2, warmup=0.37, density=40.0,
                       road_length=ROAD_LENGTH_M, mobility_step_ms=50.0)
    return replace(setup, road=replace(setup.road, placement="fixed_count"))


@pytest.mark.parametrize("case", ["warmup-inside-a-batch", "one-frame-batches",
                                  "curve-replay-of-a-step-record"])
@pytest.mark.parametrize("tech", sorted(CURVES))
def test_replayed_links_match_a_live_run_in_edge_cases(tech, case):
    setup = straddling_setup(tech)
    curve, step = CURVES[tech], step_model(CURVES[tech], 0.3)
    twin = copy.copy(curve)  # the same curve listed twice draws from a stream of its own
    # a step recording draws nothing, so each curve scoring its links after it
    # skips the draws of the links before warmup
    recorded = step if case == "curve-replay-of-a-step-record" else curve
    shared = engine.SharedRun([step, curve, twin])
    small = 1 if case == "one-frame-batches" else engine.SCORE_BATCH_ELEMENTS
    with mock.patch.object(engine, "SCORE_BATCH_ELEMENTS", small), \
            mock.patch.object(engine, "tally", wraps=engine.tally) as scored:
        engine.run(setup, recorded, shared=shared)
    batches = [call.args[0] for call in scored.call_args_list if call.args[2] is step]
    assert sum(batch.skipped for batch in batches) > 0
    if case == "warmup-inside-a-batch":
        assert any(batch.skipped and batch.sinr.size for batch in batches)
    elif case == "one-frame-batches" and tech == "11p":
        assert all(batch.tx.size <= 1 for batch in batches)
    elif case == "one-frame-batches":  # C-V2X scores one TTI per batch: its frames share the start
        assert all(np.unique(batch.end).size <= 1 for batch in batches)
    for model in (curve, step):
        assert_same_store(engine.run(setup, model, shared=shared), engine.run(setup, model))
    assert_same_store(engine.run(setup, twin, shared=shared), engine.run(setup, curve))
