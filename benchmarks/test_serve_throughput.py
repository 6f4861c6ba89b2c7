"""Serve throughput: batched drains must beat per-stream sequential push.

The production claim of :mod:`repro.serve`: when many streams share one
fitted detector, draining a burst through :class:`StreamRouter` pays ~one
grouped forward pass per drain, while the naive deployment (a dedicated
:class:`StreamScorer` per stream, pushed sequentially) pays one forward per
stream per arrival.  With 8 RAE shards the batched drain must be at least
2x faster per round of arrivals — and numerically identical to the
sequential path.  A second bench covers the orthogonal axis: shards with
*independent* detectors cannot share a grouped forward, so the process
drain backend scores their shard groups on worker processes and must beat
the serial backend by >= 1.8x with two workers (bit-identically).  A
record-only capacity sweep times both backends over shards x window x
model width x chunk, without a ratio gate, as the evidence for keeping or
removing the process backend.

``REPRO_BENCH_TINY=1`` shrinks sizes for CI smoke runs and skips the
wall-clock ratio assertions (never the equality assertions).  Raw numbers
land in ``bench-results/serve_throughput.json``; a host where a ratio is
not meaningful (single core, tiny mode) records ``skipped_reason`` and no
``speedup`` — a sub-1x "speedup" measured where nothing could overlap must
not enter the BENCH trajectory looking like a regression.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest

from repro.core import RAE
from repro.serve import StreamRouter
from repro.stream import StreamScorer

from conftest import TINY, record_result

# A wall-clock ratio assertion has no place in tier-1 (pytest.ini promises
# fast *and deterministic*); run with `pytest -m slow`.
pytestmark = pytest.mark.slow

SHARDS = 8
WINDOW = 48 if TINY else 128
ROUNDS = 10 if TINY else 40

# Capacity sweep grid (16 cells): shard count x window x base model width
# x arrivals per stream per drain.
SWEEP_SHARDS = (2, 4) if TINY else (8, 32)
SWEEP_WINDOWS = (48, 96) if TINY else (128, 1024)
SWEEP_WIDTHS = (4, 8) if TINY else (12, 48)
SWEEP_CHUNKS = (1, 4) if TINY else (1, 32)
SWEEP_ROUNDS = 3 if TINY else 12

_record_result = functools.partial(record_result, "serve_throughput.json")


def make_series(seed, length):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 50)
            + 0.1 * rng.standard_normal(length))[:, None]


def test_batched_drain_beats_sequential_push():
    detector = RAE(max_iterations=3 if TINY else 6, kernels=32,
                   num_layers=4).fit(make_series(0, 500))
    histories = [make_series(10 + i, WINDOW) for i in range(SHARDS)]
    live = [make_series(50 + i, ROUNDS) for i in range(SHARDS)]

    # Naive fleet: one dedicated scorer per stream, pushed sequentially —
    # every arrival pays its own full forward pass over the window.
    scorers = [StreamScorer(detector, window=WINDOW).seed(histories[i])
               for i in range(SHARDS)]
    sequential_scores = np.zeros((SHARDS, ROUNDS))
    sequential_seconds = []
    for round_ in range(ROUNDS):
        started = time.perf_counter()
        for shard in range(SHARDS):
            sequential_scores[shard, round_] = scorers[shard].push(
                live[shard][round_]
            )
        sequential_seconds.append(time.perf_counter() - started)

    # Sharded serving: the same arrivals through one router; each drain
    # refreshes all same-shape shards with one grouped forward pass.
    router = StreamRouter(detector, window=WINDOW, batch_size=SHARDS)
    for shard in range(SHARDS):
        router.add_stream(shard).seed(histories[shard])
    routed_scores = np.zeros((SHARDS, ROUNDS))
    routed_seconds = []
    for round_ in range(ROUNDS):
        started = time.perf_counter()
        for shard in range(SHARDS):
            router.submit(shard, live[shard][round_])
        results = router.drain()
        routed_seconds.append(time.perf_counter() - started)
        for shard in range(SHARDS):
            routed_scores[shard, round_] = results[shard][0]

    # Batching reorganises *when* forwards run, never what they compute.
    assert np.allclose(routed_scores, sequential_scores)

    sequential = float(np.median(sequential_seconds))
    routed = float(np.median(routed_seconds))
    speedup = sequential / max(routed, 1e-12)
    print("\nper-round latency over %d shards (window=%d): sequential "
          "%.2f ms, batched drain %.2f ms (%.1fx)"
          % (SHARDS, WINDOW, 1e3 * sequential, 1e3 * routed, speedup))
    _record_result("batched_drain", {
        "shards": SHARDS, "window": WINDOW, "rounds": ROUNDS,
        "sequential_ms": 1e3 * sequential, "routed_ms": 1e3 * routed,
        "speedup": speedup,
    }, skipped_reason=("tiny mode: sizes too small for a meaningful ratio"
                       if TINY else None))
    if not TINY:
        assert speedup >= 2.0, (
            "batched drain only %.1fx faster than sequential push" % speedup
        )


def _independent_shard_fixture():
    """8 shards, each with its own *different-spec* detector, plus arrivals.

    Different architectures are the worst case for grouped forwards
    (nothing batches or stacks across shards — distinct same-spec
    detectors would now share one fingerprint group and a stacked compiled
    forward, see ``compiled_drain``) and the best case for a parallel
    backend (every shard group is parallel work).
    """
    detectors = [
        RAE(max_iterations=2 if TINY else 4, kernels=12 + i, num_layers=3,
            seed=i).fit(make_series(i, 400))
        for i in range(SHARDS)
    ]
    histories = [make_series(10 + i, WINDOW) for i in range(SHARDS)]
    live = [make_series(50 + i, ROUNDS) for i in range(SHARDS)]
    return detectors, histories, live


def _run_router(router, detectors, histories, live, chunk=1,
                rounds=ROUNDS):
    """Feed the fixture through a router, ``chunk`` arrivals per stream per
    drain; returns (scores shaped ``(rounds, shards, chunk)``, drain
    times)."""
    for shard, detector in enumerate(detectors):
        router.add_stream(shard, detector=detector).seed(
            histories[shard][-router.window:]
        )
    scores, seconds = [], []
    for round_ in range(rounds):
        for shard in range(len(detectors)):
            router.submit_many(
                shard, live[shard][round_ * chunk:(round_ + 1) * chunk]
            )
        started = time.perf_counter()
        results = router.drain()
        seconds.append(time.perf_counter() - started)
        scores.append([results[shard] for shard in range(len(detectors))])
    router.close()
    return np.array(scores), seconds


def _ratio_skip_reason(cores):
    if TINY:
        return "tiny mode: sizes too small for a meaningful ratio"
    if cores < 2:
        return ("single-core host: backend parallelism has nothing to "
                "overlap, ratio not meaningful")
    return None


def test_compiled_drain_beats_eager_on_same_spec_shards():
    """The compiled inference path's claim: >= 2x on same-spec shards.

    8 streams, each holding its OWN fitted detector of one spec — the PR 9
    eager path grouped drains by ``id(detector)`` and paid 8 separate
    graph-building forwards per drain; the fingerprint re-key plus the
    stacked-weight program replays the whole group as one compiled batched
    forward.  The speedup is algorithmic (graph-build overhead and
    per-forward dispatch vs one buffered replay), not parallelism, so no
    multi-core skip: only tiny mode skips the ratio.  Scores must be
    bit-identical to the eager drain.
    """
    from repro.nn import tape as nntape

    detectors = [
        RAE(max_iterations=2 if TINY else 4, kernels=16, num_layers=3,
            seed=i).fit(make_series(i, 400))
        for i in range(SHARDS)
    ]
    histories = [make_series(10 + i, WINDOW) for i in range(SHARDS)]
    live = [make_series(50 + i, ROUNDS) for i in range(SHARDS)]

    previous = nntape.set_tape_enabled(False)
    try:
        eager_scores, eager_seconds = _run_router(
            StreamRouter(window=WINDOW, batch_size=SHARDS),
            detectors, histories, live,
        )
    finally:
        nntape.set_tape_enabled(previous)
    nntape.set_tape_enabled(True)
    try:
        compiled_router = StreamRouter(window=WINDOW, batch_size=SHARDS)
        compiled_scores, compiled_seconds = _run_router(
            compiled_router, detectors, histories, live,
        )
    finally:
        nntape.set_tape_enabled(previous)

    # The compiled path changes how forwards run, never what they compute.
    assert np.array_equal(compiled_scores, eager_scores)

    eager = float(np.median(eager_seconds))
    compiled = float(np.median(compiled_seconds))
    speedup = eager / max(compiled, 1e-12)
    print("\nper-round drain over %d same-spec shards (window=%d): eager "
          "%.2f ms, compiled %.2f ms (%.1fx)"
          % (SHARDS, WINDOW, 1e3 * eager, 1e3 * compiled, speedup))
    reason = ("tiny mode: sizes too small for a meaningful ratio"
              if TINY else None)
    _record_result("compiled_drain", {
        "shards": SHARDS, "window": WINDOW, "rounds": ROUNDS,
        "eager_ms": 1e3 * eager, "compiled_ms": 1e3 * compiled,
        "speedup": speedup,
    }, skipped_reason=reason)
    if reason is not None:
        pytest.skip(reason + " (equality asserted above)")
    assert speedup >= 2.0, (
        "compiled drain only %.1fx faster than the eager path" % speedup
    )


def test_process_drain_beats_serial_on_independent_shards():
    """The process backend's claim: >= 1.8x with 2 workers on >= 2 cores.

    The equality half runs everywhere — a single-core host exercises the
    full protocol (state shipping, mmap'd weight store, result splicing)
    with two live worker processes; only the wall-clock ratio needs real
    cores to overlap on.
    """
    detectors, histories, live = _independent_shard_fixture()

    serial_scores, serial_seconds = _run_router(
        StreamRouter(window=WINDOW), detectors, histories, live
    )
    process_scores, process_seconds = _run_router(
        StreamRouter(window=WINDOW, drain_backend="process", workers=2),
        detectors, histories, live,
    )

    # The backend changes where forwards run, never what they compute.
    assert np.array_equal(process_scores, serial_scores)

    serial = float(np.median(serial_seconds))
    process = float(np.median(process_seconds))
    speedup = serial / max(process, 1e-12)
    cores = os.cpu_count() or 1
    print("\nper-round drain over %d independent-detector shards "
          "(window=%d, %d cores): serial %.2f ms, process(2) %.2f ms (%.1fx)"
          % (SHARDS, WINDOW, cores, 1e3 * serial, 1e3 * process, speedup))
    reason = _ratio_skip_reason(cores)
    _record_result("process_drain", {
        "shards": SHARDS, "window": WINDOW, "workers": 2,
        "serial_ms": 1e3 * serial, "process_ms": 1e3 * process,
        "speedup": speedup,
    }, skipped_reason=reason)
    if reason is not None:
        pytest.skip(reason + " (equality asserted above)")
    assert speedup >= 1.8, (
        "process drain only %.1fx faster than serial with 2 workers"
        % speedup
    )


def test_drain_backend_capacity_sweep():
    """Record-only: serial vs process(2) median per-drain time per cell.

    Every shard gets its own architecture (``kernels = width + i``), so
    each shard is its own drain group — the regime in which a parallel
    backend has work to spread.  No ratio is asserted; the cells land in
    ``serve_throughput.json`` under ``drain_backend_capacity_sweep``.
    Scores must be bit-equal across backends in every cell.
    """
    fleet_size = max(SWEEP_SHARDS)
    histories = [make_series(10 + i, max(SWEEP_WINDOWS))
                 for i in range(fleet_size)]
    live = [make_series(50 + i, SWEEP_ROUNDS * max(SWEEP_CHUNKS))
            for i in range(fleet_size)]
    cells = []
    print("\nshards window width chunk  serial_ms process_ms")
    for width in SWEEP_WIDTHS:
        detectors = [
            RAE(max_iterations=2 if TINY else 4, kernels=width + i,
                num_layers=3, seed=i).fit(make_series(i, 400))
            for i in range(fleet_size)
        ]
        for shards, window, chunk in itertools.product(
                SWEEP_SHARDS, SWEEP_WINDOWS, SWEEP_CHUNKS):
            fleet = (detectors[:shards], histories[:shards], live[:shards])
            serial_scores, serial_seconds = _run_router(
                StreamRouter(window=window), *fleet, chunk=chunk,
                rounds=SWEEP_ROUNDS,
            )
            process_scores, process_seconds = _run_router(
                StreamRouter(window=window, drain_backend="process",
                             workers=2),
                *fleet, chunk=chunk, rounds=SWEEP_ROUNDS,
            )
            assert np.array_equal(process_scores, serial_scores), (
                shards, window, width, chunk)
            serial = float(np.median(serial_seconds))
            process = float(np.median(process_seconds))
            cells.append({
                "shards": shards, "window": window, "width": width,
                "chunk": chunk, "serial_ms": 1e3 * serial,
                "process_ms": 1e3 * process,
            })
            print("%6d %6d %5d %5d %10.2f %10.2f"
                  % (shards, window, width, chunk, 1e3 * serial,
                     1e3 * process))
    _record_result("drain_backend_capacity_sweep", {
        "workers": 2, "rounds": SWEEP_ROUNDS, "cells": cells,
    })
