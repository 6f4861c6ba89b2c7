"""tcp-shared: open-loop line protocol over one TCP connection.

16 streams share one fitted RAE (``repro serve --model m.npz --tcp 0``).
A sender thread writes ``stream_id,value`` lines on a fixed schedule and
a reader thread collects the ``stream,index,score`` replies.  Phase 1
sends at a fixed rate well below capacity and gives per-arrival latency
(timed from each arrival's *scheduled* send time); phase 2 sends as fast
as socket backpressure allows, in slices with the fit phase's rounds
between them, and gives throughput and server CPU per arrival as medians
over the slices' windows.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
import time

import numpy as np

from common import (CpuSampler, highest_percentile, mean_stream_pr_auc, median,
                    serve_defaults, sliced_percentile, windowed_rates)
from inputs import TCP_STREAMS, tcp_inputs

#: Serving figures reported at nominal host speed (``common.HostSpeed``).
#: The server's work here is mostly the score tape's small NumPy products;
#: over ten runs on a shared VM whose cores drifted by 40%, scaling cut the
#: spread of both figures from 7% of the median to 3%.
HOST_SCALED = ("throughput_arrivals_per_s", "server_cpu_us_per_arrival")
FIXED_RATE = 4000.0   # arrivals/s in the fixed-rate phase
FIXED_SHARE = 0.4     # share of --seconds spent in the fixed-rate phase
WINDOW = 0.5          # seconds per window of the saturating phase
SEND_BLOCK = 512      # lines per sendall in the saturating phase
# Arrivals in flight in the saturating phase.  Loopback socket buffers
# autotune to megabytes, so kernel backpressure alone would let the sender
# run tens of seconds ahead of the server; cap it at the server's default
# queue limit instead.
MAX_IN_FLIGHT = 4096
LATE_LIMIT_MS = 2.0   # p99 sender lateness above which the run is invalid
CLIENT_CPU_LIMIT = 0.9  # client CPU share of one core that marks it the pace-setter
WAIT_TIMEOUT = 60.0
P99_SLICES = 5        # latency p99 is the median of the p99s of this many slices
# Fixed-rate phases measured at most; a phase whose sender ran late (the
# host stalled the client) is discarded and measured again on fresh lines.
FIXED_ATTEMPTS = 3


def setup(run, seed, directory):
    """Generate inputs, fit and save the shared RAE, launch the server.
    Returns ``(seconds, state, server)``."""
    from repro.core import save_detector
    from repro.eval import make_detector

    started = time.perf_counter()
    streams, train, lines = tcp_inputs(seed)
    detector = make_detector("RAE")
    detector.fit(train)
    model = os.path.join(directory, "m.npz")
    save_detector(detector, model)
    state = {"streams": streams, "lines": lines, "model": model}
    server = relaunch(run, state, directory)
    return time.perf_counter() - started, state, server


def relaunch(run, state, directory, trace_out=None):
    """A fresh server for the saved model (traced when ``trace_out``)."""
    return run.launch(["serve", "--model", state["model"], "--tcp", "0"],
                      trace_out=trace_out)


class LineClient:
    """One connection: a reader thread plus the calling thread as sender."""

    def __init__(self, address, n_total):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.n_total = n_total
        self.count = [0] * n_total
        self.recv = [0.0] * n_total
        self.text = [None] * n_total
        self.received = 0
        self.errors = []
        self.malformed = 0
        self.stats = None
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        buf = b""
        count, recv, text = self.count, self.recv, self.text
        while True:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                break
            t = time.perf_counter()
            buf += chunk
            *complete, buf = buf.split(b"\n")
            got = 0
            for line in complete:
                if line[:1] == b"{":
                    self.stats = json.loads(line)
                elif line.startswith(b"ERR"):
                    self.errors.append(line.decode(errors="replace"))
                elif line == b"OK":
                    pass
                else:
                    try:
                        sid, index, score = line.split(b",")
                        a = int(index) * TCP_STREAMS + int(sid[1:])
                    except ValueError:
                        self.malformed += 1
                        continue
                    if not 0 <= a < self.n_total:
                        self.malformed += 1
                        continue
                    count[a] += 1
                    recv[a] = t
                    text[a] = score
                    got += 1
            with self._cond:
                self.received += got
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def wait_for(self, predicate, timeout=WAIT_TIMEOUT):
        with self._cond:
            return self._cond.wait_for(predicate, timeout)

    def fixed_rate(self, lines, start, n, rate):
        """Send ``lines[start:start + n]``, line ``start + i`` at
        ``t0 + i / rate``; returns ``(t0, lateness seconds per arrival)``."""
        late = np.zeros(n)
        t0 = time.perf_counter() + 0.02
        i = 0
        while i < n:
            current = time.perf_counter()
            due = min(n, int((current - t0) * rate) + 1) if current >= t0 else 0
            if due > i:
                self.sock.sendall(b"".join(lines[start + i:start + due]))
                sent = time.perf_counter()
                late[i:due] = sent - (t0 + np.arange(i, due) / rate)
                i = due
            else:
                time.sleep(max(0.0, t0 + i / rate - time.perf_counter()))
        return t0, late

    def saturate(self, lines, start, seconds):
        """Send from ``start`` as fast as backpressure allows for
        ``seconds`` (whole blocks); returns the index after the last sent."""
        deadline = time.perf_counter() + seconds
        j = start
        while j < len(lines) and time.perf_counter() < deadline:
            k = min(j + SEND_BLOCK, len(lines))
            self.wait_for(lambda: k - self.received <= MAX_IN_FLIGHT)
            self.sock.sendall(b"".join(lines[j:k]))
            j = k
        return j

    def fetch_stats(self):
        self.sock.sendall(b"?stats\n")
        self.wait_for(lambda: self.stats is not None)
        return self.stats

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._reader.join(WAIT_TIMEOUT)
        self.sock.close()


def drive(server, lines, seconds, rounds, between):
    """Both phases against a ready server; returns the client and figures.

    The saturating phase runs in ``rounds`` slices, each followed by
    ``between(round)`` while the server idles, so its windows sample the
    host across the whole run rather than one moment of it.
    """
    address = server.addresses["tcp"]
    # Whole drains only: every phase sends a multiple of the drain cadence,
    # so each phase's last arrival is scored without an extra drain.
    cadence = serve_defaults().drain_every
    n_fixed = int(FIXED_RATE * seconds * FIXED_SHARE) // cadence * cadence
    client = LineClient(address, len(lines))
    fig = {"n_fixed": n_fixed}
    start = 0
    for attempt in range(1, FIXED_ATTEMPTS + 1):
        proc0 = time.process_time()
        t0, late = client.fixed_rate(lines, start, n_fixed, FIXED_RATE)
        end = start + n_fixed
        client.wait_for(lambda: client.received >= end)
        late_q, late_p99 = highest_percentile(list(1e3 * late))
        if late_p99 is not None and late_p99 <= LATE_LIMIT_MS or attempt == FIXED_ATTEMPTS:
            break
        start = end  # the sender, not the server, fell behind: measure again
    fixed_end = max(client.recv[start:end])
    proc1 = time.process_time()
    slices, busy, client_cpu, server_cpu, j = [], 0.0, 0.0, 0.0, end
    for r in range(rounds):
        proc = time.process_time()
        sampler = CpuSampler(server.proc.pid, WINDOW).start()
        first = j
        j = client.saturate(lines, j, sampler.slice_seconds(
            seconds * (1 - FIXED_SHARE) / rounds))
        slices.append(sampler.stop())
        client.wait_for(lambda: client.received >= j)
        if j > first:
            busy += max(client.recv[first:j]) - slices[-1][0][0]
        server_cpu += server.cpu_seconds() - slices[-1][0][1]
        client_cpu += time.process_time() - proc
        between(r)
    n_sent = j
    fig["stats"] = client.fetch_stats()
    client.close()

    latencies = [
        1e3 * (client.recv[a] - (t0 + (a - start) / FIXED_RATE)) if client.count[a]
        else math.inf
        for a in range(start, end)
    ]
    q, p99 = sliced_percentile(latencies, 99.0, P99_SLICES)
    n_sat = n_sent - end
    throughput, sat_cpu, windows = windowed_rates(
        slices, [client.recv[a] for a in range(end, n_sent) if client.count[a]])
    fig.update({
        "fixed_attempts": attempt,
        "n_sent": n_sent,
        "fixed_window": (t0, fixed_end),
        "latency_p50_ms": median(latencies),
        "latency_p99_ms": p99,
        "latency_tail_percentile": q,
        "latency_samples": len(latencies),
        "throughput_arrivals_per_s": throughput,
        "throughput_whole_phase": n_sat / max(busy, 1e-9),
        "saturating_arrivals": n_sat,
        "saturating_windows": len(windows),
        "window_throughput": [round(rate) for rate, __ in windows],
        "server_cpu_us_per_arrival": sat_cpu,
        "server_cpu_us_per_arrival_whole_phase": 1e6 * server_cpu / max(n_sat, 1),
        "generator_late_ms": late_p99,
        "generator_late_percentile": late_q,
        "client_cpu_share_fixed": (proc1 - proc0) / max(fixed_end - t0, 1e-9),
        "client_cpu_share_saturating": client_cpu / max(busy, 1e-9),
    })
    fig["valid"] = bool(late_p99 is not None and late_p99 <= LATE_LIMIT_MS
                        and fig["client_cpu_share_saturating"] < CLIENT_CPU_LIMIT)
    return client, fig


def check(client, n_sent, fig):
    """Exactly-once, finite, contiguous; returns ``(failures, notes)``."""
    notes = []
    missing = sum(1 for a in range(n_sent) if client.count[a] == 0)
    duplicated = sum(1 for a in range(n_sent) if client.count[a] > 1)
    unsent = sum(1 for a in range(n_sent, client.n_total) if client.count[a])
    nonfinite = sum(1 for a in range(n_sent)
                    if client.text[a] is not None and not math.isfinite(float(client.text[a])))
    errors = len(client.errors) + client.malformed
    error_total = fig["stats"]["frontend"]["error_total"] if fig.get("stats") else 1
    for label, value in (("missing", missing), ("duplicated", duplicated),
                         ("scored but never sent", unsent),
                         ("non-finite", nonfinite), ("ERR/malformed replies", errors),
                         ("server error_total", error_total)):
        if value:
            notes.append("%s: %d" % (label, value))
    # Contiguity: received per-stream indices are exactly 0..k-1 — implied
    # by exactly-once over the round-robin prefix, since arrival a is
    # (stream a % 16, index a // 16).
    return missing + duplicated + unsent + nonfinite + errors + error_total, notes


def exercise(server, state, seconds, rounds, between):
    """Both phases (``between`` runs after each saturating slice), the
    checks and the served PR-AUC; returns ``(figures, failures, notes)``."""
    client, fig = drive(server, state["lines"], seconds, rounds, between)
    n_sent = fig["n_sent"]
    failed, notes = check(client, n_sent, fig)
    fig["served_pr_auc"] = served_pr_auc(client, state["streams"], n_sent,
                                         serve_defaults().window)
    fig["client"] = client
    return fig, failed, notes


def verify_offline(state, fig):
    """The replay check, run after the server stopped."""
    mismatches = replay_mismatches(state["model"], state["lines"], fig["client"],
                                   fig["n_sent"])
    fig["replay_mismatches"] = mismatches
    notes = (["scores differing from the in-process replay: %d" % mismatches]
             if mismatches else [])
    return mismatches, notes


def receipts(fig):
    """``{(stream id, index): receipt time}`` for every scored arrival."""
    client = fig["client"]
    return {("s%02d" % (a % TCP_STREAMS), a // TCP_STREAMS): client.recv[a]
            for a in range(fig["n_sent"]) if client.count[a]}


def replay_mismatches(model, lines, client, n_sent):
    """Feed an in-process router + frontend engine the same lines at the
    same drain cadence; count arrivals whose served score text differs."""
    from repro.core import load_detector
    from repro.serve import FrontendEngine, StreamRouter

    args = serve_defaults()
    router = StreamRouter(load_detector(model), window=args.window,
                          queue_limit=args.queue_limit,
                          on_full=args.on_full.replace("-", "_"))
    engine = FrontendEngine(router, drain_every=int(np.clip(
        args.drain_every, 1, router.queue_limit)))
    rows, origin = [], object()
    engine.register(origin, rows.extend)
    for line in lines[:n_sent]:
        engine.submit_line(origin, line.decode())
        engine.maybe_drain()
    engine.drain()
    expected = [None] * n_sent
    for stream_id, index, score in rows:
        a = index * TCP_STREAMS + int(stream_id[1:])
        if 0 <= a < n_sent:
            expected[a] = ("%.10g" % score).encode()
    return sum(1 for a in range(n_sent) if expected[a] != client.text[a])


def served_pr_auc(client, streams, n_sent, warmup):
    per_stream = {}
    for a in range(n_sent):
        s, j = a % TCP_STREAMS, a // TCP_STREAMS
        if j >= warmup and client.text[a] is not None:
            labels, scores = per_stream.setdefault(s, ([], []))
            labels.append(streams[s].labels[j])
            scores.append(float(client.text[a]))
    return mean_stream_pr_auc(per_stream)
