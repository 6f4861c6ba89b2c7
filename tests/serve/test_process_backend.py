"""Process drain backend: bit-identity and stats parity vs serial.

Correctness never skips: every test here runs with ``workers=2`` on ANY
host — a single-core machine exercises exactly the same protocol (state
shipping, weight-store mmap, result splicing), it just doesn't overlap the
work.  Only wall-clock speedup ratios belong in
``benchmarks/test_serve_throughput.py`` (slow-marked, multi-core-gated).
"""

import numpy as np
import pytest

from repro.core import RAE
from repro.eval import make_detector
from repro.serve import StreamRouter
from repro.serve.workers import ProcessDrainPool

# The registry's RAE/RDAE family (the detectors the weight store serves),
# trimmed for test speed — same idiom as tests/core/test_tape_contract.py.
REGISTRY_CASES = {
    "RAE": {"max_iterations": 3},
    "RDAE": {"window": 20, "max_outer": 1, "inner_iterations": 2,
             "series_iterations": 2},
    "N-RAE": {"epochs": 3},
    "N-RDAE": {"window": 20, "epochs": 2},
}


def make_series(seed, length=240):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 25)
            + 0.05 * rng.standard_normal(length))[:, None]


def feed_and_drain(router, streams, chunks=4, chunk_size=6):
    """Interleave per-stream chunks with drains; concatenated scores."""
    out = {stream_id: [] for stream_id in streams}
    for chunk in range(chunks):
        lo, hi = chunk * chunk_size, (chunk + 1) * chunk_size
        for stream_id, series in streams.items():
            router.submit_many(stream_id, series[lo:hi])
        for stream_id, scores in router.drain().items():
            out[stream_id].append(scores)
    return {stream_id: np.concatenate(parts)
            for stream_id, parts in out.items()}


@pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
def test_process_backend_bit_identical_on_registry_methods(name):
    """Every registry RAE/RDAE method: process(2 workers) == serial, bit
    for bit, plus identical stats — on any host, no cpu_count gate."""
    detector = make_detector(name, seed=3, **REGISTRY_CASES[name])
    detector.fit(make_series(0))
    streams = {"s%d" % i: make_series(10 + i) for i in range(4)}

    serial_router = StreamRouter(detector, window=48, min_points=4)
    serial = feed_and_drain(serial_router, streams)
    serial_stats = serial_router.stats()

    process_router = StreamRouter(detector, window=48, min_points=4,
                                  drain_backend="process", workers=2)
    try:
        process = feed_and_drain(process_router, streams)
        process_stats = process_router.stats()
    finally:
        process_router.close()

    assert sorted(serial) == sorted(process)
    for stream_id in serial:
        assert np.array_equal(serial[stream_id], process[stream_id]), \
            stream_id
    assert process_stats == serial_stats


def test_process_backend_groups_across_distinct_detectors():
    """Groups (one per distinct detector) round-robin across workers;
    same-detector shards still share state correctly."""
    shared = RAE(max_iterations=3, seed=5).fit(make_series(5))
    solo = RAE(max_iterations=3, seed=6).fit(make_series(6))
    streams = {"s%d" % i: make_series(30 + i) for i in range(3)}

    def run(backend, workers=None):
        router = StreamRouter(window=48, min_points=4,
                              drain_backend=backend, workers=workers)
        router.add_stream("s0", shared)
        router.add_stream("s1", shared)
        router.add_stream("s2", solo)
        try:
            return feed_and_drain(router, streams)
        finally:
            router.close()

    serial = run("serial")
    process = run("process", workers=2)
    for stream_id in serial:
        assert np.array_equal(serial[stream_id], process[stream_id])


def test_process_backend_serves_non_rae_detectors_via_pickle():
    """Detectors outside the weight-store family travel by pickle, once
    per worker, and still score identically."""
    from repro.eval import make_detector as make

    detector = make("EMA")
    streams = {"e%d" % i: make_series(40 + i, length=60) for i in range(3)}

    def run(backend, workers=None):
        router = StreamRouter(detector, window=32, min_points=4,
                              drain_backend=backend, workers=workers)
        try:
            return feed_and_drain(router, streams, chunks=3, chunk_size=5)
        finally:
            router.close()

    serial = run("serial")
    process = run("process", workers=2)
    for stream_id in serial:
        assert np.array_equal(serial[stream_id], process[stream_id])


def test_backend_choice_persists_through_save_restore(tmp_path):
    detector = RAE(max_iterations=3, seed=7).fit(make_series(7))
    router = StreamRouter(detector, window=48, min_points=4,
                          drain_backend="process", workers=2)
    streams = {"p0": make_series(50), "p1": make_series(51)}
    try:
        before = feed_and_drain(router, streams, chunks=2)
        router.submit_many("p0", streams["p0"][12:15])  # left queued
        router.save(tmp_path / "state")
    finally:
        router.close()

    restored = StreamRouter.restore(tmp_path / "state")
    assert restored.drain_backend == "process"
    assert restored.workers == 2
    try:
        # The re-queued arrivals + fresh ones score exactly as an
        # uninterrupted process-backend router would.
        restored.submit_many("p0", streams["p0"][15:18])
        resumed = restored.drain()
    finally:
        restored.close()

    reference = StreamRouter(detector, window=48, min_points=4)
    feed_and_drain(reference, streams, chunks=2)
    reference.submit_many("p0", streams["p0"][12:18])
    expected = reference.drain()
    assert np.array_equal(resumed["p0"], expected["p0"])
    assert list(before) == ["p0", "p1"]

    # The execution override still applies on restore.
    overridden = StreamRouter.restore(tmp_path / "state",
                                      drain_backend="serial", workers=1)
    assert overridden.drain_backend == "serial"
    overridden.close()


def test_invalid_backend_rejected():
    with pytest.raises(ValueError, match="drain_backend"):
        StreamRouter(drain_backend="fork-bomb")


def test_pool_close_is_idempotent_and_removes_spool():
    import os

    pool = ProcessDrainPool(2)
    spool = pool._spool
    assert os.path.isdir(spool)
    pool.close()
    pool.close()
    assert not os.path.exists(spool)
