"""Seeded workload inputs, all drawn from the ``repro.datasets`` generators.

The same seed always gives the same inputs; the program under test only
ever sees the generated values.
"""

from __future__ import annotations

import json

import numpy as np

from repro.datasets import generate_nab, generate_s5

# tcp-shared: 16 streams round-robin over one connection, one shared RAE.
TCP_STREAMS = 16
TCP_STREAM_LENGTH = 16800  # per stream: ample for a 10 s run at 25k/s
TCP_TRAIN = 1024

# http-fleet: per-stream detectors, Zipf popularity, two connections.
HTTP_SPECS = (
    # (stream id prefix, streams, method, overrides)
    ("a", 14, "RAE", {}),
    ("b", 14, "RAE", {"kernels": 8, "num_layers": 2, "kernel_size": 5}),
    ("r", 4, "RDAE", {"window": 16, "max_outer": 1, "inner_iterations": 2,
                      "series_iterations": 2}),
)
# Popularity ranks (0 = most popular) held by the RDAE streams; RAE specs
# a and b alternate over the other ranks.  The layout is the same for every
# seed, so each run serves the same mix of detector kinds (an RDAE arrival
# costs several RAE arrivals); the seed picks which stream of a kind holds
# which of the kind's ranks.
HTTP_RDAE_RANKS = (2, 9, 16, 23)
HTTP_TRAIN = 192
HTTP_BATCH = 32
HTTP_CONNECTIONS = 2
HTTP_ZIPF = 1.1
HTTP_ARRIVALS = 160000  # cap on the arrivals one run can send

# fit: registry-default RAE/RDAE fit_score on NAB-style series.  RDAE
# costs ~20x RAE per point, so it gets fewer and shorter series.
FIT_PER_DOMAIN = 3       # NAB domains x 3 = 18 RAE series
FIT_RAE_LENGTH = 1024
FIT_RDAE_PER_DOMAIN = 2  # 12 RDAE series
FIT_RDAE_LENGTH = 256


class StreamInput:
    """One stream's values and the generator's outlier labels."""

    def __init__(self, name, values, labels):
        self.name = name
        self.values = np.asarray(values, dtype=np.float64).reshape(-1)
        self.labels = np.asarray(labels, dtype=np.int64).reshape(-1)


def tcp_inputs(seed):
    """16 S5-style KPI streams, a training series for the shared RAE, and
    the round-robin arrival lines (arrival ``k`` is stream ``k % 16``,
    stream index ``k // 16``)."""
    scale = TCP_STREAM_LENGTH / 1400.0
    data = generate_s5(seed=seed, scale=scale, num_series=TCP_STREAMS + 1)
    streams = [StreamInput("s%02d" % i, data[i].values[:TCP_STREAM_LENGTH],
                           data[i].labels[:TCP_STREAM_LENGTH])
               for i in range(TCP_STREAMS)]
    train = data[TCP_STREAMS].values[:TCP_TRAIN]
    matrix = np.stack([s.values for s in streams], axis=1)  # (length, 16)
    lines = [
        ("%s,%.6f\n" % (streams[k % TCP_STREAMS].name, value)).encode()
        for k, value in enumerate(matrix.reshape(-1))
    ]
    return streams, train, lines


def http_stream_plan():
    """``[(stream id, method, overrides)]`` in a fixed order."""
    plan = []
    for prefix, count, method, overrides in HTTP_SPECS:
        for i in range(count):
            plan.append(("%s%02d" % (prefix, i), method, overrides))
    return plan


def popularity_ranks(plan, rng):
    """Rank of each stream of ``plan``: kinds sit at fixed ranks
    (:data:`HTTP_RDAE_RANKS`, then a/b alternating), streams within a kind
    are shuffled by ``rng``."""
    members = {}
    for i, (stream_id, __, ___) in enumerate(plan):
        members.setdefault(stream_id[0], []).append(i)
    for streams in members.values():
        rng.shuffle(streams)
    ranks = np.empty(len(plan), dtype=np.int64)
    shared = 0
    for rank in range(len(plan)):
        if rank in HTTP_RDAE_RANKS:
            kind = "r"
        else:
            kind = "ab"[shared % 2]
            shared += 1
        ranks[members[kind].pop()] = rank
    return ranks


def http_inputs(seed):
    """Per-stream series (training prefix + served values) and, per
    connection, the request bodies with the ``(stream, index)`` each
    arrival will be scored as.

    Stream popularity is Zipf(1.1) over :func:`popularity_ranks`;
    connection ``c`` owns the streams of rank ``r`` with ``r % 2 == c`` so
    that each stream's arrivals come from one connection, in order.
    """
    plan = http_stream_plan()
    rng = np.random.default_rng([seed, 7])
    ranks = popularity_ranks(plan, rng)  # stream i has popularity rank ranks[i]
    weight = 1.0 / (ranks + 1.0) ** HTTP_ZIPF
    per_conn = HTTP_ARRIVALS // HTTP_CONNECTIONS
    choices = []
    for conn in range(HTTP_CONNECTIONS):
        owned = np.flatnonzero(ranks % HTTP_CONNECTIONS == conn)
        p = weight[owned] / weight[owned].sum()
        choices.append(owned[rng.choice(len(owned), size=per_conn, p=p)])
    counts = np.bincount(np.concatenate(choices), minlength=len(plan))
    length = HTTP_TRAIN + int(counts.max())
    data = generate_s5(seed=seed, scale=length / 1400.0, num_series=len(plan))
    streams = [StreamInput(sid, data[i].values[:length], data[i].labels[:length])
               for i, (sid, __, ___) in enumerate(plan)]
    cursor = np.zeros(len(plan), dtype=np.int64)
    batches = []
    for conn in range(HTTP_CONNECTIONS):
        conn_batches = []
        for lo in range(0, per_conn, HTTP_BATCH):
            arrivals, keys = [], []
            for i in choices[conn][lo:lo + HTTP_BATCH]:
                index = int(cursor[i])
                cursor[i] += 1
                value = float(streams[i].values[HTTP_TRAIN + index])
                arrivals.append({"stream": streams[i].name, "values": value})
                keys.append((int(i), index))
            body = json.dumps({"arrivals": arrivals}).encode()
            conn_batches.append((body, keys))
        batches.append(conn_batches)
    return plan, streams, batches


def fit_inputs(seed):
    """The fit series sets: NAB-style series (every domain), cut to
    ``FIT_RAE_LENGTH`` points for RAE and ``FIT_RDAE_LENGTH`` for RDAE."""
    data = generate_nab(seed=seed, scale=0.21, series_per_domain=FIT_PER_DOMAIN)
    rae = [StreamInput(ts.name, ts.values[:FIT_RAE_LENGTH, 0],
                       ts.labels[:FIT_RAE_LENGTH]) for ts in data]
    rdae = [StreamInput(ts.name, ts.values[:FIT_RDAE_LENGTH, 0],
                        ts.labels[:FIT_RDAE_LENGTH]) for ts in data
            if int(ts.name.rsplit("-", 1)[1]) < FIT_RDAE_PER_DOMAIN]
    return rae, rdae
