"""Tests of the end-to-end benchmark's own helpers (not of ``repro``).

    python -m pytest e2ebench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import common  # noqa: E402
import inputs  # noqa: E402
from tracing import SpanTable, Tracer, self_times  # noqa: E402


# ---------------------------------------------------------------------- #
# seeded inputs


def _same_streams(a, b):
    return len(a) == len(b) and all(
        x.name == y.name and np.array_equal(x.values, y.values)
        and np.array_equal(x.labels, y.labels) for x, y in zip(a, b))


def test_tcp_inputs_are_deterministic_per_seed():
    streams, train, lines = inputs.tcp_inputs(3)
    again = inputs.tcp_inputs(3)
    assert _same_streams(streams, again[0])
    assert np.array_equal(train, again[1]) and lines == again[2]
    other = inputs.tcp_inputs(4)
    assert lines != other[2]
    # Round-robin: arrival k is stream k % 16 at stream index k // 16.
    assert lines[17].startswith(b"s01,")
    assert float(lines[17].split(b",")[1]) == pytest.approx(streams[1].values[1], abs=1e-6)


def test_http_inputs_are_deterministic_per_seed():
    plan, streams, batches = inputs.http_inputs(5)
    again = inputs.http_inputs(5)
    assert plan == again[0] and _same_streams(streams, again[1])
    assert batches == again[2]
    assert batches != inputs.http_inputs(6)[2]
    # Each stream is owned by one connection, and its indices run 0, 1, ...
    owner, seen = {}, {}
    for conn, conn_batches in enumerate(batches):
        for __, keys in conn_batches:
            for stream, index in keys:
                assert owner.setdefault(stream, conn) == conn
                assert index == seen.get(stream, -1) + 1
                seen[stream] = index
    assert len(seen) == len(plan) >= 32
    # Every seed serves the same mix of detector kinds by popularity rank.
    for seed in (5, 6):
        ranks = inputs.popularity_ranks(plan, np.random.default_rng(seed))
        assert sorted(ranks) == list(range(len(plan)))
        assert sorted(ranks[i] for i, (sid, *__) in enumerate(plan)
                      if sid[0] == "r") == list(inputs.HTTP_RDAE_RANKS)


def test_fit_inputs_are_deterministic_and_labelled():
    rae, rdae = inputs.fit_inputs(2)
    again = inputs.fit_inputs(2)
    assert _same_streams(rae, again[0]) and _same_streams(rdae, again[1])
    assert not _same_streams(rae, inputs.fit_inputs(3)[0])
    assert all(len(s.values) == inputs.FIT_RAE_LENGTH and s.labels.any() for s in rae)
    assert all(len(s.values) == inputs.FIT_RDAE_LENGTH and s.labels.any() for s in rdae)


# ---------------------------------------------------------------------- #
# percentiles


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1000))
    assert common.percentile(samples, 99) == pytest.approx(np.percentile(samples, 99))
    with pytest.raises(ValueError):
        common.percentile(samples[:999], 99)  # 9.99 samples beyond p99
    assert common.percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        common.percentile(list(range(19)), 50)


def test_highest_percentile_falls_back_and_counts_failures_as_infinite():
    assert common.highest_percentile(list(range(200)))[0] == 95.0
    assert common.highest_percentile(list(range(5))) == (None, None)
    q, value = common.highest_percentile([1.0] * 985 + [float("inf")] * 15)
    assert q == 99.0 and value == float("inf")


def test_sliced_percentile_is_robust_to_one_burst():
    samples = [1.0] * 4000
    samples[1000:1100] = [50.0] * 100  # a stall inside the second slice
    assert common.highest_percentile(samples)[1] == 50.0
    assert common.sliced_percentile(samples, 99, 4) == (99, 1.0)
    # Slices too small for p99: the whole sample's supported percentile.
    assert common.sliced_percentile(samples[:1200], 99, 4) == \
        common.highest_percentile(samples[:1200], 99)


def test_windowed_rates_take_medians_over_windows():
    # Five 1 s windows; the server used 10 ms of CPU per arrival, except
    # in the third window, where a stall halved the rate.
    samples = [(float(t), 0.0) for t in range(6)]
    receipts, cpu = [], 0.0
    for w in range(5):
        n = 50 if w == 2 else 100
        receipts += [w + (i + 0.5) / n for i in range(n)]
        cpu += 0.01 * n * (2 if w == 2 else 1)
        samples[w + 1] = (samples[w + 1][0], cpu)
    receipts += [5.5, 6.5]  # after the last sample: not in any window
    windows = common.window_figures(samples, receipts)
    assert [round(rate) for rate, __ in windows] == [100, 100, 50, 100, 100]
    assert windows[2][1] == pytest.approx(2e4)
    assert common.windowed_rates([samples], receipts) == \
        pytest.approx((100.0, 1e4, windows))
    # Slices of one phase: windows never span the gap between slices.
    assert common.windowed_rates([samples[:3], samples[3:]], receipts)[:2] == \
        pytest.approx((100.0, 1e4))
    assert len(common.window_figures(samples[3:], receipts)) == 2
    assert common.window_figures(samples[:2], [])[0] == (0.0, float("inf"))
    with pytest.raises(ValueError):
        common.windowed_rates([samples[:1]], receipts)


def test_cpu_sampler_keeps_whole_windows_of_its_own_process():
    sampler = common.CpuSampler(os.getpid(), 0.05).start()
    while len(sampler.samples) < 4:
        sum(range(10000))  # burn CPU so the samples move
    samples = sampler.stop()
    times = [t for t, __ in samples]
    assert len(samples) >= 4 and times == sorted(times)
    assert all(0.04 < b - a < 0.5 for a, b in zip(times, times[1:]))
    assert samples[-1][1] >= samples[0][1]
    assert sampler.slice_seconds(0.32) == pytest.approx(0.31)
    assert sampler.slice_seconds(0.01) == pytest.approx(0.06)


def test_host_speed_scales_only_cpu_work_to_nominal_speed():
    import run

    host = common.HostSpeed()
    host.sample(3)
    assert len(host.samples) == 3 and all(t > 0 for t in host.samples)
    # Twice the nominal reference time, plus one stall the median ignores.
    nominal = common.HostSpeed.NOMINAL_S
    host.samples = [2 * nominal, 2 * nominal, 40 * nominal]
    assert host.factor() == pytest.approx(2.0)
    figures = {"throughput_arrivals_per_s": 100.0, "rae_fit_s": 4.0,
               "server_cpu_us_per_arrival": 80.0, "latency_p50_ms": 7.0, "setup_s": 2.0}
    scaled = run.at_nominal_speed(figures, host, list(run.SPEED_POWER))
    assert scaled == pytest.approx({"throughput_arrivals_per_s": 200.0, "rae_fit_s": 2.0,
                                    "server_cpu_us_per_arrival": 40.0,
                                    "latency_p50_ms": 7.0, "setup_s": 2.0})
    assert run.at_nominal_speed(figures, host, run.FIT_SCALED) == \
        pytest.approx(dict(figures, rae_fit_s=2.0))


# ---------------------------------------------------------------------- #
# spans


def test_self_time_subtracts_nested_and_overlapping_children_once():
    assert self_times(0.0, 10.0, []) == 10.0
    assert self_times(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    # Overlapping children (e.g. concurrent threads) are covered once.
    assert self_times(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    # A child nested in another child adds nothing.
    assert self_times(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == pytest.approx(3.0)
    # Children sticking out of the parent are clipped to it.
    assert self_times(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_tracer_records_parents_drains_and_restores_originals(tmp_path):
    class Box:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    original = Box.__dict__["inner"]
    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer", drain_root=True)
    tracer.wrap(Box, "inner", "inner", on_return=lambda *a: {"seen": 1})
    assert Box().outer() == 2
    tracer.mark("sink", "s00", 3, 1.5)
    tracer.uninstall()
    assert Box.__dict__["inner"] is original
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    table = SpanTable.load(str(path))
    (outer,) = table.ids("outer")
    inner = table.ids("inner")
    assert len(inner) == 2 and all(table.parent[s] == outer for s in inner)
    assert all(table.drain[s] == outer for s in inner + [outer])
    assert all(table.attrs[s] == {"seen": 1} for s in inner)
    assert table.marks["sink"] == [["s00", 3, 1.5]]
    assert table.self_time(outer) <= table.duration(outer)


# ---------------------------------------------------------------------- #
# the result line


def test_result_line_parses_back_by_name_and_unit():
    metrics = {"latency_p50_ms": common.metric(1.25, "ms"),
               "throughput_arrivals_per_s": common.metric(9000.5, "1/s")}
    doc = json.loads(common.result_line(True, 10, 0, metrics))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (True, 10, 0)
    assert {name: (entry["value"], entry["unit"]) for name, entry in doc["metrics"].items()} == {
        "latency_p50_ms": (1.25, "ms"), "throughput_arrivals_per_s": (9000.5, "1/s")}
    with pytest.raises(ValueError):
        common.result_line(True, 1, 0, {"x": common.metric(float("inf"), "ms")})


def test_benchmark_json_names_match_what_the_runs_print():
    import layers
    import run

    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, __) in layers.ALL_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
