"""Unit tests for the grad-free inference tapes and stacked programs.

The serving-level contract (bit-identical compiled drains) lives in
``tests/serve/test_compiled_drain.py``; these tests pin the building
blocks directly: :class:`repro.nn.tape.ScoreTape` record/replay,
shape-keyed caching with hot-swap invalidation,
:func:`repro.nn.batched.stacked_score_plan`'s accept/decline decisions,
and :class:`repro.nn.batched.StackedScoreProgram` replay, loading its
members from a :class:`repro.nn.batched.WeightBank`.
"""

import numpy as np
import pytest

from repro.core import RAE
from repro.nn import batched as nnbatched
from repro.nn import no_grad
from repro.nn import tape as nntape
from repro.nn.functional import stable_kernels
from repro.nn.tensor import Tensor


def fitted_models(count=2, **kwargs):
    rng = np.random.default_rng(0)
    series = (np.sin(np.linspace(0, 20, 160))[:, None]
              + 0.1 * rng.standard_normal((160, 1)))
    params = {"max_iterations": 1, "epochs_per_iteration": 1}
    params.update(kwargs)
    return [RAE(seed=seed, **params).fit(series).model_
            for seed in range(count)]


def eager_forward(module, array):
    with no_grad(), stable_kernels():
        return module(Tensor(np.array(array))).data.copy()


def batch(seed=3, m=2, dims=1, length=48):
    return np.random.default_rng(seed).standard_normal((m, dims, length))


# --------------------------------------------------------------------- #
# ScoreTape
# --------------------------------------------------------------------- #

def test_score_tape_records_then_replays_bit_identically():
    module, = fitted_models(count=1)
    x = batch(m=1)
    tape, event = nntape.score_tape(module, x.shape)
    assert event == "miss" and tape is not None
    recorded = tape.run(x).copy()          # first run records
    assert np.array_equal(recorded, eager_forward(module, x))
    y = batch(seed=4, m=1)
    replayed = tape.run(y).copy()          # second run replays
    assert tape.replays == 1
    assert np.array_equal(replayed, eager_forward(module, y))


def test_score_tape_cache_is_shape_keyed():
    module, = fitted_models(count=1)
    a, __ = nntape.score_tape(module, (1, 1, 48))
    hit, event = nntape.score_tape(module, (1, 1, 48))
    assert hit is a and event == "hit"
    b, event = nntape.score_tape(module, (1, 1, 32))
    assert event == "miss" and b is not a


def test_score_tape_invalidates_on_weight_rebind():
    module, = fitted_models(count=1)
    x = batch(m=1)
    tape, __ = nntape.score_tape(module, x.shape)
    tape.run(x)
    # In-place updates keep the token (closures read .data live) ...
    np.copyto(module.readout.weight.data, module.readout.weight.data * 1.5)
    same, event = nntape.score_tape(module, x.shape)
    assert same is tape and event == "hit"
    assert np.array_equal(same.run(x), eager_forward(module, x))
    # ... a rebind (atomic hot-swap) re-records.
    module.readout.weight.data = module.readout.weight.data * 2.0
    fresh, event = nntape.score_tape(module, x.shape)
    assert event == "invalidated" and fresh is not tape
    assert np.array_equal(fresh.run(x), eager_forward(module, x))


def test_score_tape_declines_when_disabled_and_releases():
    module, = fitted_models(count=1)
    nntape.score_tape(module, (1, 1, 48))
    assert "_score_tape_cache" in module.__dict__
    nntape.release_score_tapes(module)
    assert "_score_tape_cache" not in module.__dict__
    previous = nntape.set_tape_enabled(False)
    try:
        tape, event = nntape.score_tape(module, (1, 1, 48))
        assert tape is None and event is None
    finally:
        nntape.set_tape_enabled(previous)


# --------------------------------------------------------------------- #
# stacked plans and programs
# --------------------------------------------------------------------- #

def test_stacked_plan_accepts_same_spec_members():
    modules = fitted_models(count=3)
    plan = nnbatched.stacked_score_plan(modules)
    assert plan is not None


def test_stacked_plan_declines_mixed_specs_and_fc():
    wide, = fitted_models(count=1, kernels=8)
    narrow, = fitted_models(count=1, kernels=4)
    assert nnbatched.stacked_score_plan([wide, narrow]) is None
    fc = fitted_models(count=2, arch="fc")
    assert nnbatched.stacked_score_plan(fc) is None


def test_stacked_program_matches_solo_forwards_bit_for_bit():
    modules = fitted_models(count=3)
    x = batch(m=3)
    program = nnbatched.StackedScoreProgram(
        nnbatched.stacked_score_plan(modules), x.shape
    )
    stacked = program.run(x).copy()
    for j, module in enumerate(modules):
        assert np.array_equal(stacked[j], eager_forward(module, x[j:j + 1])[0])
    assert program.replays == 1


def test_stacked_program_refresh_follows_hot_swap():
    modules = fitted_models(count=2)
    x = batch(m=2)
    program = nnbatched.StackedScoreProgram(
        nnbatched.stacked_score_plan(modules), x.shape
    )
    bank = nnbatched.WeightBank(modules[0])
    rows, rebound = bank.rows(modules)
    assert rebound == 0
    program.run(x, bank, rows)
    modules[0].readout.weight.data = modules[0].readout.weight.data * 3.0
    same_rows, rebound = bank.rows(modules)
    assert same_rows == rows and rebound == 1
    stacked = program.run(x, bank, rows).copy()
    for j, module in enumerate(modules):
        assert np.array_equal(stacked[j], eager_forward(module, x[j:j + 1])[0])


def test_stacked_program_rejects_wrong_member_count():
    modules = fitted_models(count=2)
    program = nnbatched.StackedScoreProgram(
        nnbatched.stacked_score_plan(modules), (2, 1, 48)
    )
    with pytest.raises(ValueError):
        program.run(batch(m=3))
    bank = nnbatched.WeightBank(modules[0])
    rows, __ = bank.rows(modules[:1])
    with pytest.raises(ValueError):
        program.run(batch(m=2), bank, rows)
