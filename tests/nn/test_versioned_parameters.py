"""Versioned parameters and the weight banks keyed on them.

Rebinding a :class:`repro.nn.Parameter`'s ``.data`` bumps the
process-wide :func:`repro.nn.parameter_generation`; in-place writes do
not.  :func:`repro.nn.weights_token` memoises a module's weight identity
against that counter, and :class:`repro.nn.batched.WeightBank` re-checks
its rows only when the counter moves.
"""

import gc
import sys
import threading
import weakref

import numpy as np

from repro import nn
from repro.core import RAE, InferencePrograms, batched_session_scores
from repro.core.scoring import ScoringSession
from repro.nn import batched as nnbatched
from repro.nn.functional import stable_kernels


def fitted_models(count=2, seed=0):
    rng = np.random.default_rng(0)
    series = (np.sin(np.linspace(0, 20, 160))[:, None]
              + 0.1 * rng.standard_normal((160, 1)))
    return [RAE(seed=seed + i, max_iterations=1,
                epochs_per_iteration=1).fit(series)
            for i in range(count)]


def eager_forward(module, array):
    with nn.no_grad(), stable_kernels():
        return module(nn.Tensor(np.array(array))).data.copy()


# --------------------------------------------------------------------- #
# what bumps the generation
# --------------------------------------------------------------------- #

def test_rebind_construction_and_load_state_dict_bump_the_generation():
    layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
    before = nn.parameter_generation()
    layer.weight.data = layer.weight.data * 2.0
    after_rebind = nn.parameter_generation()
    assert after_rebind > before
    nn.Parameter(np.zeros(4))
    after_construct = nn.parameter_generation()
    assert after_construct > after_rebind
    layer.load_state_dict(layer.state_dict())
    assert nn.parameter_generation() > after_construct


def test_in_place_writes_and_optimiser_steps_keep_the_generation():
    layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
    weight = layer.weight.data
    x = nn.Tensor(np.ones((4, 3)))
    sgd, adam = nn.SGD(layer.parameters(), lr=0.1), nn.Adam(
        layer.parameters(), lr=0.1)
    before = nn.parameter_generation()
    np.copyto(layer.weight.data, layer.weight.data * 0.5)
    layer.weight.data -= 0.01
    layer.weight.data = layer.weight.data  # same array: not a rebind
    for optimiser in (sgd, adam):
        layer.zero_grad()
        (layer(x) * layer(x)).sum().backward()
        optimiser.step()
    assert nn.parameter_generation() == before
    assert layer.weight.data is weight


def test_concurrent_rebinds_are_all_counted_and_seen():
    layers = [nn.Linear(3, 2, rng=np.random.default_rng(i)) for i in range(3)]
    for layer in layers:
        nn.weights_token(layer)  # memoise before the race
    params = [p for layer in layers for p in (layer.weight, layer.bias)]
    rounds, start = 300, threading.Barrier(len(params))
    finals = {}

    def rebind(param):
        start.wait()
        for __ in range(rounds):
            param.data = param.data + 1.0
        finals[id(param)] = param.data

    before = nn.parameter_generation()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rebind, args=(p,)) for p in params]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # No bump was lost, and every layer's next token holds both arrays.
    assert nn.parameter_generation() == before + len(params) * rounds
    for layer in layers:
        token = nn.weights_token(layer)
        assert token[0] is finals[id(layer.weight)]
        assert token[1] is finals[id(layer.bias)]


def test_weights_token_is_stable_until_a_rebind():
    layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
    token = nn.weights_token(layer)
    nn.Parameter(np.zeros(1))  # moves the generation, rebinds nothing here
    assert nn.weights_token(layer) is token
    layer.bias.data = np.ones(2)
    fresh = nn.weights_token(layer)
    assert fresh is not token and fresh[1] is layer.bias.data


# --------------------------------------------------------------------- #
# weight banks
# --------------------------------------------------------------------- #

def test_bank_never_aliases_a_new_module_to_a_dead_modules_row():
    keep, doomed = (det.model_ for det in fitted_models(count=2))
    bank = nnbatched.WeightBank(keep)
    rows, __ = bank.rows([keep, doomed])
    doomed_id = id(doomed)
    alive = weakref.ref(doomed)
    del doomed
    gc.collect()
    assert alive() is None  # the bank kept no reference to it
    assert len(bank) == 1   # and dropped its entry with it
    # New modules (one may land on the dead module's address) each get
    # their own row, holding their own weights.
    x = np.random.default_rng(3).standard_normal((2, 1, 48))
    program = nnbatched.StackedScoreProgram(
        nnbatched.stacked_score_plan([keep, keep]), x.shape)
    for det in fitted_models(count=3, seed=10):
        module = det.model_
        new_rows, rebound = bank.rows([keep, module])
        assert rebound == 0
        out = program.run(x, bank, new_rows).copy()
        assert np.array_equal(out[1], eager_forward(module, x[1:2])[0])
        assert np.array_equal(out[0], eager_forward(keep, x[0:1])[0])
        if id(module) == doomed_id:
            break


def test_inference_programs_keep_no_removed_detector_alive():
    programs = InferencePrograms()
    detectors = fitted_models(count=3)
    sessions = [ScoringSession(det, window=48, programs=programs)
                for det in detectors]
    chunk = np.sin(np.linspace(0, 6, 48))[:, None]
    for session in sessions:
        session.ingest(chunk)
    batched_session_scores(sessions, programs=programs)
    assert programs.counters()["misses"] >= 1
    refs = [weakref.ref(det) for det in detectors]
    module_refs = [weakref.ref(det.model_) for det in detectors]
    del detectors, sessions, session
    gc.collect()
    assert all(ref() is None for ref in refs + module_refs)


def test_bank_rejects_a_member_swapped_to_another_shape_and_recovers():
    modules = [det.model_ for det in fitted_models(count=2)]
    bank = nnbatched.WeightBank(modules[0])
    rows, __ = bank.rows(modules)
    good = modules[1].readout.weight.data
    modules[1].readout.weight.data = np.zeros((3, 3, 3))
    assert bank.rows(modules) == (None, 1)
    modules[1].readout.weight.data = good
    again, rebound = bank.rows(modules)
    assert again == rows and rebound == 1


def test_concurrent_drains_gather_their_own_members():
    """Threads replaying one stacked program with different members, while
    new members join the bank (growing it), each get exactly their own
    members' scores: row lookup, gather and replay never interleave."""
    modules = [det.model_ for det in fitted_models(count=4)]
    x = np.random.default_rng(5).standard_normal((2, 1, 48))
    expected = [[eager_forward(m, x[j:j + 1])[0] for j in range(2)]
                for m in modules]
    bank = nnbatched.WeightBank(modules[0])
    program = nnbatched.StackedScoreProgram(
        nnbatched.stacked_score_plan(modules[:2]), x.shape)
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    start, bad = threading.Barrier(4), []

    def drain(offset):
        start.wait()
        for step in range(40):
            a, b = pairs[(offset + step) % len(pairs)]
            rows, __ = bank.rows([modules[a], modules[b]])
            out = program.run(x, bank, rows).copy()
            if not (np.array_equal(out[0], expected[a][0])
                    and np.array_equal(out[1], expected[b][1])):
                bad.append((a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=drain, args=(3 * i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []
