"""TCP/HTTP serving frontends: protocol round-trips, bad input, shutdown.

All sockets bind port 0 (ephemeral) and talk over loopback; every test
tears its frontend down, so the suite is safe to run anywhere.  Malformed
traffic must surface as counted, per-stream error events and ``ERR``/400
replies — never as a dropped connection or a crashed serving loop.
"""

import itertools
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    DrainError,
    FrontendEngine,
    HttpFrontend,
    StreamRouter,
    TcpFrontend,
)

POISON = -86486486.0


class AbsDetector:
    """score = |x| summed per row: cheap, deterministic, stateless."""

    stateless_scoring = True

    def fit(self, X):
        return self

    def score(self, X):
        X = np.asarray(X, dtype=np.float64)
        if np.any(X == POISON):
            raise RuntimeError("tripwire: poison value in window")
        return np.abs(X).sum(axis=1)


def make_engine(drain_every=100, **router_kwargs):
    router = StreamRouter(AbsDetector(), window=16, min_points=2,
                          **router_kwargs)
    return FrontendEngine(router, drain_every=drain_every)


def wait_pending(engine, n, timeout=5.0):
    """Block until ``n`` arrivals are queued (cross-connection ordering)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if engine.router.stats()["queue_depth"] >= n:
            return
        time.sleep(0.01)
    raise AssertionError("queue never reached %d arrivals" % n)


# ---------------------------------------------------------------------- #
# FrontendEngine


def test_engine_routes_each_origin_its_own_scores():
    engine = make_engine()
    got_a, got_b = [], []
    engine.register("a", got_a.extend)
    engine.register("b", got_b.extend)
    # Interleaved submissions to one stream: attribution must follow the
    # submission order, and indices are global per stream.
    engine.submit_rows("a", "s", [[1.0], [2.0]])
    engine.submit_rows("b", "s", [[3.0]])
    engine.submit_rows("a", "s", [[4.0]])
    engine.submit_rows("b", "t", [[5.0], [6.0]])
    engine.drain()
    assert got_a == [("s", 0, 1.0), ("s", 1, 2.0), ("s", 3, 4.0)]
    assert got_b == [("s", 2, 3.0), ("t", 0, 5.0), ("t", 1, 6.0)]

    # Indices continue across drains.
    engine.submit_rows("b", "s", [[7.0]])
    engine.drain()
    assert got_b[-1] == ("s", 4, 7.0)
    assert engine.stats()["frontend"]["pending"] == 0


def test_engine_maybe_drain_honours_threshold():
    engine = make_engine(drain_every=3)
    got = []
    engine.register("o", got.extend)
    engine.submit_rows("o", "s", [[1.0], [2.0]])
    assert engine.maybe_drain() == {}
    assert got == []
    engine.submit_rows("o", "s", [[3.0]])
    delivered = engine.maybe_drain()
    assert [row[2] for row in delivered["o"]] == [1.0, 2.0, 3.0]


def test_engine_counts_malformed_lines_instead_of_raising():
    engine = make_engine()
    engine.register("o", lambda rows: None)
    assert engine.submit_line("o", "s,1.5,2.5") is None
    assert "malformed" in engine.submit_line("o", "garbage")
    assert "non-numeric" in engine.submit_line("o", "s,notafloat")
    assert engine.submit_line("o", "   ") is None  # blank lines are no-ops
    front = engine.stats()["frontend"]
    assert front["errors"] == {"garbage": 1, "s": 1}
    assert front["error_total"] == 2
    # The well-formed arrival still scores.
    delivered = engine.drain()
    assert [row[:2] for row in delivered["o"]] == [("s", 0)]


def test_engine_counts_non_finite_lines_and_keeps_scores_finite():
    engine = make_engine()
    engine.register("o", lambda rows: None)
    assert engine.submit_line("o", "a,1.0") is None
    for line in ("a,nan", "a,inf", "a,-inf", "a,1.0,nan"):
        assert "finite" in engine.submit_line("o", line)
    assert engine.stats()["frontend"]["errors"] == {"a": 4}
    for value in (2.0, 3.0):
        assert engine.submit_line("o", "a,%s" % value) is None
    delivered = engine.drain()
    assert [row[2] for row in delivered["o"]] == [1.0, 2.0, 3.0]


# Cells a producer might send: non-finite spellings, overflow to inf,
# empty and very long numerals, and arbitrary text.
_CELLS = st.one_of(
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e309", "-1e309",
                     "", " ", "1e-320", "0", "1_000", "9" * 400]),
    st.floats().map(repr),
    st.text(max_size=8),
)
# Blank, unicode and huge stream ids next to ordinary ones.
_STREAM_IDS = st.one_of(
    st.sampled_from(["", " ", "\t", "s", "流", "\u2028", "x" * 10_000]),
    st.text(max_size=6),
)
_STRUCTURED_LINES = st.builds(
    lambda sid, cells: ",".join([sid] + cells),
    _STREAM_IDS, st.lists(_CELLS, max_size=4),
)


@given(st.lists(st.one_of(st.text(max_size=40), _STRUCTURED_LINES),
                max_size=20))
@settings(max_examples=150, deadline=None)
def test_engine_submit_line_fuzz_counts_every_line(lines):
    """Whatever a producer sends, ``submit_line`` never raises, every
    non-blank line is either one accepted arrival or one counted error,
    and no NaN or inf reaches the queue."""
    engine = make_engine()
    for line in lines:
        reply = engine.submit_line("o", line)
        assert reply is None or isinstance(reply, str)
    stats = engine.stats()
    assert (stats["submitted"] + stats["frontend"]["error_total"]
            == sum(1 for line in lines if line.strip()))
    assert all(np.isfinite(row).all() for __, row in engine.router._queue)


def test_engine_keeps_segments_of_failed_streams_for_the_retry():
    engine = make_engine()
    got = []
    engine.register("o", got.extend)
    engine.submit_rows("o", "bad", [[1.0], [POISON]])
    engine.submit_rows("o", "good", [[2.0], [3.0]])
    delivered = engine.drain()  # DrainError is absorbed, not raised
    assert [row[0] for row in delivered["o"]] == ["good", "good"]
    front = engine.stats()["frontend"]
    assert "tripwire" in front["failed_streams"]["bad"]
    assert front["pending"] == 2  # the re-queued arrivals

    # Flush the poison out of the window: the retry delivers the whole
    # re-queued chunk to the same origin, attribution intact.
    engine.submit_rows("o", "bad", np.full((16, 1), 4.0))
    engine.drain()
    bad_rows = [row for row in got if row[0] == "bad"]
    assert len(bad_rows) == 18
    assert [row[1] for row in bad_rows] == list(range(18))
    assert engine.stats()["frontend"]["failed_streams"] == {}


# ---------------------------------------------------------------------- #
# TCP


class LineClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, line):
        self.sock.sendall(("%s\n" % line).encode())

    def readline(self):
        return self.reader.readline().rstrip("\n")

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture()
def tcp_frontend():
    engine = make_engine()
    frontend = TcpFrontend(engine, port=0).start()
    yield frontend
    frontend.stop()


def test_tcp_round_trip_scores_own_submissions(tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("s,1.5")
        client.send("s,2.5")
        client.send("t,3.0")
        client.send("t,4.0")
        client.send("?drain")
        lines = [client.readline() for __ in range(5)]
        assert lines[-1] == "OK"
        assert set(lines[:4]) == {"s,0,1.5", "s,1,2.5", "t,0,3", "t,1,4"}
    finally:
        client.close()


def test_tcp_malformed_lines_get_err_replies_not_disconnects(tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("garbage")
        assert client.readline().startswith("ERR malformed line")
        client.send("s,notafloat")
        assert "non-numeric" in client.readline()
        client.send("?bogus")
        assert client.readline().startswith("ERR unknown command")
        # The connection survived all three; a real round-trip still works.
        client.send("s,4.0")
        client.send("s,5.0")
        client.send("?drain")
        assert client.readline() == "s,0,4"
        assert client.readline() == "s,1,5"
        assert client.readline() == "OK"
        client.send("?stats")
        stats = json.loads(client.readline())
        assert stats["frontend"]["errors"] == {"garbage": 1, "s": 1}
        assert stats["per_stream"]["s"]["scored"] == 2
    finally:
        client.close()


def test_tcp_second_client_never_sees_first_clients_scores(tcp_frontend):
    one = LineClient(tcp_frontend.address)
    two = LineClient(tcp_frontend.address)
    try:
        one.send("s,1.0")
        one.send("s,2.0")
        # Queue one's rows before two's: the connections are read by
        # different threads, so send order alone does not fix queue order.
        wait_pending(tcp_frontend.engine, 2)
        two.send("s,3.0")
        wait_pending(tcp_frontend.engine, 3)
        one.send("?drain")
        # Client one gets exactly its own rows (indices 0 and 1) ...
        assert one.readline() == "s,0,1"
        assert one.readline() == "s,1,2"
        assert one.readline() == "OK"
        # ... and client two got index 2, delivered by the same drain.
        assert two.readline() == "s,2,3"
    finally:
        one.close()
        two.close()


def test_tcp_stop_mid_connection_delivers_tail_then_eof(tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("s,1.0")
        client.send("s,2.0")
        client.send("s,9.0")
        # No ?drain: the arrivals are still buffered when stop() begins.
        # Graceful shutdown must score them and deliver before EOF.  (Wait
        # until the handler has queued all three — SHUT_RD resets a
        # connection with data still in flight.)
        wait_pending(tcp_frontend.engine, 3)
        tcp_frontend.stop()
        lines = []
        while True:
            line = client.reader.readline()
            if not line:
                break  # clean EOF, not a reset
            lines.append(line.rstrip("\n"))
        assert lines == ["s,0,1", "s,1,2", "s,2,9"]
    finally:
        client.close()


# ---------------------------------------------------------------------- #
# HTTP


@pytest.fixture()
def http_frontend():
    engine = make_engine()
    frontend = HttpFrontend(engine, port=0).start()
    yield frontend
    frontend.stop()


def http_post(address, path, body, headers=None):
    request = urllib.request.Request(
        "http://%s:%d%s" % (address[0], address[1], path),
        data=body, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read())


def http_get(address, path):
    with urllib.request.urlopen(
        "http://%s:%d%s" % (address[0], address[1], path), timeout=5
    ) as response:
        return response.status, json.loads(response.read())


def test_http_submit_batch_returns_scores_and_per_arrival_errors(
        http_frontend):
    body = json.dumps({"arrivals": [
        {"stream": "web", "values": [1.0, 2.0]},
        {"stream": "db", "values": 3.0},
        {"values": [4.0]},                       # missing stream
        {"stream": "db", "values": "notanumber"},  # rejected by the router
    ]}).encode()
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 3
    # "db" got a single arrival, still inside the min_points=2 warmup —
    # context-only, scored 0.0 by the streaming contract.
    assert reply["scores"] == [
        {"stream": "web", "index": 0, "score": 1.0},
        {"stream": "web", "index": 1, "score": 2.0},
        {"stream": "db", "index": 0, "score": 0.0},
    ]
    assert len(reply["errors"]) == 2
    assert reply["errors"][0]["arrival"] == 2
    assert reply["errors"][1]["stream"] == "db"

    status, stats = http_get(http_frontend.address, "/stats")
    assert status == 200
    assert stats["per_stream"]["web"]["scored"] == 2
    assert stats["frontend"]["error_total"] == 2


def test_http_drain_false_defers_scoring_to_a_later_drain(http_frontend):
    body = json.dumps({"arrivals": [{"stream": "s", "values": [1.0]}],
                       "drain": False}).encode()
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 1
    assert reply["scores"] == []
    assert http_frontend.engine.stats()["frontend"]["pending"] == 1
    # The next draining batch scores the backlog too, but receives only
    # its own row — the deferred arrival's score belongs to the finished
    # first request (whose sink is gone), never to a later client.
    body = json.dumps({"arrivals": [{"stream": "s", "values": [2.0]}]}).encode()
    __, reply = http_post(http_frontend.address, "/submit", body)
    assert reply["scores"] == [{"stream": "s", "index": 1, "score": 2.0}]
    assert http_frontend.engine.stats()["per_stream"]["s"]["scored"] == 2


def test_http_invalid_json_and_unknown_paths(http_frontend):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/submit", b"{not json")
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/submit",
                  json.dumps({"rows": []}).encode())
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_get(http_frontend.address, "/nope")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/nope", b"{}")
    assert excinfo.value.code == 404
    # The server survived every bad request.
    status, __ = http_get(http_frontend.address, "/stats")
    assert status == 200


def test_http_non_finite_values_are_per_arrival_errors(http_frontend):
    # json.loads accepts the NaN/Infinity literals; the router must not.
    body = (b'{"arrivals": [{"stream": "a", "values": [NaN]}, '
            b'{"stream": "a", "values": [Infinity]}, '
            b'{"stream": "a", "values": [1.0, 2.0]}]}')
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 2
    assert [error["arrival"] for error in reply["errors"]] == [0, 1]
    assert all("finite" in error["error"] for error in reply["errors"])
    assert [row["score"] for row in reply["scores"]] == [1.0, 2.0]
    assert http_frontend.engine.stats()["frontend"]["error_total"] == 2


@pytest.mark.parametrize("body", [
    b"[1, 2]", b"null", b"3", b'"x"',
    b"[" * 5000 + b"]" * 5000,  # valid, but deeper than the decoder recurses
], ids=["list", "null", "number", "string", "deep"])
def test_http_non_object_body_is_answered_400(http_frontend, body):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/submit", body)
    assert excinfo.value.code == 400
    status, __ = http_get(http_frontend.address, "/stats")
    assert status == 200


def test_http_blank_stream_id_is_a_per_arrival_error(http_frontend):
    body = json.dumps({"arrivals": [
        {"stream": "", "values": [1.0]},
        {"stream": "  ", "values": [2.0]},
        {"stream": "a", "values": [3.0]},
    ]}).encode()
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 1
    assert [error["arrival"] for error in reply["errors"]] == [0, 1]
    assert http_frontend.engine.router.streams() == ["a"]
    assert http_frontend.engine.stats()["frontend"]["errors"] == {
        "<invalid>": 2}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12,
)
_ARRIVAL = st.one_of(_JSON, st.fixed_dictionaries(
    {"stream": st.one_of(_STREAM_IDS, _JSON), "values": _JSON},
))
_DOCUMENTS = st.one_of(_JSON, st.fixed_dictionaries(
    {"arrivals": st.one_of(st.lists(_ARRIVAL, max_size=4), _JSON)},
    optional={"drain": _JSON},
))


def test_http_fuzz_answers_200_or_400_and_keeps_serving(http_frontend):
    """Any JSON document gets a 200 or a 400, and a well-formed request
    right after it is still served.  (NaN/Infinity literals are fed too:
    the server's decoder accepts them.)"""
    address = http_frontend.address
    follow_ups = itertools.count()

    @given(_DOCUMENTS)
    @settings(max_examples=60, deadline=None)
    def check(document):
        try:
            status, __ = http_post(address, "/submit",
                                   json.dumps(document).encode())
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status in (200, 400)
        # Never a fuzzed stream id, so never a stream the document
        # created with another row width.
        stream_id = "follow-up-%d" % next(follow_ups)
        status, reply = http_post(address, "/submit", json.dumps(
            {"arrivals": [{"stream": stream_id, "values": [1.0]}]}
        ).encode())
        assert status == 200 and reply["accepted"] == 1

    check()


@pytest.mark.parametrize("length", ["-1", "ten"])
def test_http_bad_content_length_is_answered_400(http_frontend, length):
    """A negative length must not make the handler read until the client
    hangs up: the reply comes back while the connection is still open."""
    host, port = http_frontend.address
    with socket.create_connection((host, port), timeout=5) as client:
        client.sendall(("POST /submit HTTP/1.1\r\nHost: %s\r\n"
                        "Content-Length: %s\r\n\r\n" % (host, length))
                       .encode())
        reply = client.makefile("rb").readline()
    assert reply.split()[1] == b"400"
    status, __ = http_get(http_frontend.address, "/stats")
    assert status == 200


def test_http_and_tcp_share_one_engine_and_stream_indices():
    engine = make_engine()
    tcp = TcpFrontend(engine, port=0).start()
    http = HttpFrontend(engine, port=0).start()
    client = LineClient(tcp.address)
    try:
        client.send("s,1.0")
        client.send("s,2.0")
        wait_pending(engine, 2)
        body = json.dumps({"arrivals": [
            {"stream": "s", "values": [3.0]}]}).encode()
        __, reply = http_post(http.address, "/submit", body)
        # The HTTP drain scored the TCP rows too — but delivered the HTTP
        # batch only its own row, at the shared stream's next index.
        assert reply["scores"] == [{"stream": "s", "index": 2, "score": 3.0}]
        assert client.readline() == "s,0,1"
        assert client.readline() == "s,1,2"
    finally:
        client.close()
        http.stop()
        tcp.stop()


def test_http_reply_holds_rows_a_concurrent_drain_delivers_late():
    """Request A's reply must hold every arrival it accepted even when
    request B's drain scored them: B pops A's rows, A's own drain comes
    back empty, and B's delivery to A is held until A's drain has
    returned.  A may only reply once those rows have reached it."""
    import threading
    import time

    engine = make_engine()
    router = engine.router
    http = HttpFrontend(engine, port=0).start()
    original_drain = engine.drain
    original_router_drain = router.drain
    original_register = engine.register
    b_popped, a_drained = threading.Event(), threading.Event()
    b_thread = threading.Thread(target=original_drain)

    def router_drain(*args, **kwargs):
        out = original_router_drain(*args, **kwargs)
        if threading.current_thread() is b_thread:
            b_popped.set()
        return out

    def drain_a():
        # B's drain pops A's queued rows before A's drain runs.
        b_thread.start()
        assert b_popped.wait(5)
        try:
            return original_drain()
        finally:
            a_drained.set()

    def register(origin, sink):
        def held(rows):
            if threading.current_thread() is b_thread:
                assert a_drained.wait(5)
                time.sleep(0.05)  # let A reply first, if it is going to
            sink(rows)
        original_register(origin, held)

    router.drain = router_drain
    engine.drain = drain_a
    engine.register = register
    try:
        body = json.dumps({"arrivals": [
            {"stream": "s", "values": [1.0, 2.0, 3.0]}]}).encode()
        __, reply = http_post(http.address, "/submit", body)
        b_thread.join(5)
        assert reply["accepted"] == 3
        assert reply["scores"] == [
            {"stream": "s", "index": i, "score": v}
            for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        assert reply["errors"] == []
    finally:
        del router.drain, engine.drain, engine.register
        http.stop()


def test_http_reply_reports_accepted_arrivals_that_failed_to_score(
        http_frontend):
    body = json.dumps({"arrivals": [
        {"stream": "bad", "values": [1.0, POISON]},
        {"stream": "good", "values": [2.0, 3.0]},
    ]}).encode()
    __, reply = http_post(http_frontend.address, "/submit", body)
    assert reply["accepted"] == 4
    assert [row["stream"] for row in reply["scores"]] == ["good", "good"]
    assert len(reply["errors"]) == 1
    assert reply["errors"][0]["stream"] == "bad"
    assert reply["errors"][0]["error"].startswith(
        "2 accepted arrival(s) missing from this reply: ")
    assert "tripwire" in reply["errors"][0]["error"]
