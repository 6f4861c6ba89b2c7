"""Which public functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Serve spans are recorded inside the server by ``launcher.py``; fit spans
in the benchmark process itself.  Every wrapper is installed where the
function is *bound*: ``score_shard_group`` and ``batched_session_scores``
as the router module sees them, ``apply_prox`` as ``core.scoring``,
``core.rae`` and ``core.rdae`` import it, and so on.
"""

from __future__ import annotations

import math
import time

from common import highest_percentile, median

# ---------------------------------------------------------------------- #
# instrumentation plans


def _drain_attrs(sid, result, args, kwargs, exc):
    if exc is not None:
        scored = sum(len(v) for v in getattr(exc, "results", {}).values())
        return {"arrivals": scored,
                "requeued": len(getattr(exc, "failures", {}))}
    return {"arrivals": sum(len(v) for v in result.values())}


def _sessions_attrs(sid, result, args, kwargs, exc):
    sessions = args[0] if args else kwargs.get("sessions", ())
    return {"rows": len(sessions)}


def _score_batch_attrs(sid, result, args, kwargs, exc):
    return {"compiled": int(exc is None and result is not None)}


def install_serve(tracer):
    """Wrap the serving layers (run inside the server process)."""
    from repro.core import scoring
    from repro.nn import batched, tape
    from repro.serve import frontend, router

    engine = frontend.FrontendEngine
    tracer.wrap(engine, "submit_line", "frontend.submit_line")
    tracer.wrap(engine, "submit_rows", "frontend.submit_rows")
    tracer.wrap(engine, "drain", "frontend.drain", drain_root=True)
    tracer.wrap(router.StreamRouter, "submit", "router.submit")
    tracer.wrap(router.StreamRouter, "drain", "router.drain",
                drain_root=True, on_return=_drain_attrs)
    tracer.wrap(router.StreamRouter, "stats", "router.stats")
    tracer.wrap(router, "score_shard_group", "router.score_shard_group")
    tracer.wrap(router, "batched_session_scores",
                "scoring.batched_session_scores", on_return=_sessions_attrs)
    tracer.wrap(scoring.InferencePrograms, "score_batch", "scoring.score_batch",
                on_return=_score_batch_attrs)
    tracer.wrap(tape.ScoreTape, "run", "nn.score_tape")
    tracer.wrap(batched.StackedScoreProgram, "run", "nn.stacked_program")
    tracer.wrap(scoring, "_prox", "rpca.prox.serve")

    # Transport: stamp the moment each sink (a socket write for TCP, the
    # response collector for HTTP) is handed its rows.  The stamp is taken
    # on entry, not on return: a blocking socket write can return after
    # the client has already read the bytes.
    original_register = engine.__dict__["register"]

    def register(self, origin, sink):
        def stamped(rows):
            t = time.perf_counter()
            for stream_id, index, __ in rows:
                tracer.mark("sink", stream_id, index, t)
            return sink(rows)
        return original_register(self, origin, stamped)

    engine.register = register
    tracer._installed.append((engine, "register", original_register))


def install_fit(tracer):
    """Wrap the training layers (run in the benchmark process)."""
    from repro.core import rae, rdae
    from repro.nn import tape

    tracer.wrap(rae.RAE, "fit", "fit.rae")
    tracer.wrap(rdae.RDAE, "fit", "fit.rdae")
    tracer.wrap(rae, "train_reconstruction", "nn.backprop.rae")
    tracer.wrap(rdae, "train_reconstruction", "nn.backprop.rdae")
    tracer.wrap(tape, "training_tape", "nn.training_tape")
    tracer.wrap(rae, "_prox", "rpca.prox.fit")
    tracer.wrap(rdae, "_prox", "rpca.prox.fit")
    tracer.wrap(rae, "stopping_conditions", "fit.stopping")
    tracer.wrap(rdae, "stopping_conditions", "fit.stopping")
    for name in ("embed_lagged", "hankelize", "deembed_lagged"):
        tracer.wrap(rdae, name, "tsops.hankel")


# ---------------------------------------------------------------------- #
# metric catalogue: name -> (unit, better)

SERVE_LAYER = {
    "frontend.submit_us": ("us", "lower"),
    "frontend.deliver_ms": ("ms", "lower"),
    "frontend.stats_ms": ("ms", "lower"),
    "frontend.transport_ms": ("ms", "lower"),
    "frontend.errors": ("count", "lower"),
    "router.submit_us": ("us", "lower"),
    "router.queue_wait_ms": ("ms", "lower"),
    "router.drain_ms.p50": ("ms", "lower"),
    "router.drain_ms.p99": ("ms", "lower"),
    "router.drain_self_ms": ("ms", "lower"),
    "router.arrivals_per_drain": ("count", "higher"),
    "router.groups_per_drain": ("count", "lower"),
    "router.requeued": ("count", "lower"),
    "stream.ingest_ms": ("ms", "lower"),
    "scoring.forward_ms": ("ms", "lower"),
    "scoring.rows_per_forward": ("count", "higher"),
    "scoring.compiled_ratio": ("ratio", "higher"),
    "scoring.program_hit_ratio": ("ratio", "higher"),
    "nn.score_tape_ms": ("ms", "lower"),
    "nn.stacked_program_ms": ("ms", "lower"),
    "rpca.prox_ms.serve": ("ms", "lower"),
    "latency.explained_ms": ("ms", "lower"),
    "latency.unexplained_ms": ("ms", "lower"),
}

FIT_LAYER = {
    "nn.backprop_ms.rae": ("ms", "lower"),
    "nn.backprop_ms.rdae": ("ms", "lower"),
    "nn.tape_recordings.rae": ("count", "lower"),
    "nn.tape_recordings.rdae": ("count", "lower"),
    "rpca.prox_ms.fit": ("ms", "lower"),
    "tsops.hankel_ms": ("ms", "lower"),
    "fit.admm_iterations.rae": ("count", "lower"),
    "fit.admm_iterations.rdae": ("count", "lower"),
    "fit.stopping_ms.rae": ("ms", "lower"),
    "fit.stopping_ms.rdae": ("ms", "lower"),
    "fit.loop_self_ms.rae": ("ms", "lower"),
    "fit.loop_self_ms.rdae": ("ms", "lower"),
}

OVERHEAD = {
    "overhead.throughput_arrivals_per_s": ("1/s", "higher"),
    "overhead.latency_p50_ms": ("ms", "lower"),
    "overhead.latency_p99_ms": ("ms", "lower"),
    "overhead.server_cpu_us_per_arrival": ("us", "lower"),
    "overhead.rae_fit_s": ("s", "lower"),
    "overhead.rdae_fit_s": ("s", "lower"),
}

ALL_LAYER = {**SERVE_LAYER, **FIT_LAYER, **OVERHEAD}


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ms(seconds):
    return 1e3 * seconds


# ---------------------------------------------------------------------- #
# serve metrics


def serve_metrics(table, window=None):
    """Serve-layer metrics from the server's spans.

    ``window=(lo, hi)`` restricts the drains (and the arrivals they pop)
    to those starting inside it — the tcp-shared fixed-rate phase, for the
    latency decomposition.
    """
    def inside(sid):
        return window is None or window[0] <= table.start[sid] <= window[1]

    names = table.names
    router_submits = [s for s in table.ids("router.submit") if inside(s)]
    accepted = len(router_submits)
    frontend_self = sum(
        table.self_time(s, subtract={"router.submit", "frontend.submit_rows"})
        for name in ("frontend.submit_line", "frontend.submit_rows")
        for s in table.ids(name) if inside(s))
    out = {
        "frontend.submit_us": 1e6 * frontend_self / accepted if accepted else 0.0,
        "router.submit_us": 1e6 * _mean(table.duration(s) for s in router_submits),
    }
    drains = [s for s in table.ids("router.drain") if inside(s)
              and table.attrs.get(s, {}).get("arrivals", 0) > 0]
    drain_ms = [_ms(table.duration(s)) for s in drains]
    out["router.drain_ms.p50"] = median(drain_ms) if drain_ms else 0.0
    out["router.drain_ms.p99"] = highest_percentile(drain_ms)[1] or 0.0
    # CPU, not wall: a drain span also covers waiting for the drain lock
    # while another connection's drain runs.
    out["router.drain_self_ms"] = _mean(
        _ms(table.self_cpu(s, subtract={"router.score_shard_group"})) for s in drains)
    out["router.arrivals_per_drain"] = _mean(table.attrs[s]["arrivals"] for s in drains)
    out["router.groups_per_drain"] = _mean(
        sum(1 for c in table.children.get(s, ()) if names[c] == "router.score_shard_group")
        for s in drains)
    out["router.requeued"] = float(sum(
        table.attrs.get(s, {}).get("requeued", 0) for s in table.ids("router.drain")))

    # Queue wait: the router queue is FIFO, so the drains (in start order)
    # pop the submitted arrivals (in submit-return order) front to back.
    all_submit_ends = sorted(table.end[s] for s in table.ids("router.submit"))
    all_drains = sorted(table.ids("router.drain"), key=lambda s: table.start[s])
    waits, cursor = [], 0
    for s in all_drains:
        n = table.attrs.get(s, {}).get("arrivals", 0)
        if inside(s):
            waits.extend(_ms(table.start[s] - t) for t in all_submit_ends[cursor:cursor + n])
        cursor += n
    out["router.queue_wait_ms"] = median(waits) if waits else 0.0

    engine_drains = [s for s in table.ids("frontend.drain") if inside(s)
                     and any(table.attrs.get(c, {}).get("arrivals", 0) > 0
                             for c in table.children.get(s, ())
                             if names[c] == "router.drain")]
    out["frontend.deliver_ms"] = _mean(
        _ms(table.self_time(s, subtract={"router.drain", "router.stats"}))
        for s in engine_drains)
    out["frontend.stats_ms"] = _mean(
        sum(_ms(table.duration(c)) for c in table.children.get(s, ())
            if names[c] == "router.stats") for s in engine_drains)

    shard_groups = {}
    for s in table.ids("router.score_shard_group"):
        if inside(s):
            shard_groups.setdefault(table.drain[s], []).append(s)
    out["stream.ingest_ms"] = _mean(
        sum(_ms(table.self_time(s, subtract={"scoring.batched_session_scores"}))
            for s in group) for group in shard_groups.values())

    forwards = [s for s in table.ids("scoring.batched_session_scores") if inside(s)]
    out["scoring.forward_ms"] = _mean(_ms(table.duration(s)) for s in forwards)
    out["scoring.rows_per_forward"] = _mean(table.attrs[s]["rows"] for s in forwards)
    batches = [s for s in table.ids("scoring.score_batch") if inside(s)]
    out["scoring.compiled_ratio"] = (
        _mean(table.attrs[s]["compiled"] for s in batches) if batches else 0.0)
    out["nn.score_tape_ms"] = _mean(
        _ms(table.duration(s)) for s in table.ids("nn.score_tape") if inside(s))
    out["nn.stacked_program_ms"] = _mean(
        _ms(table.duration(s)) for s in table.ids("nn.stacked_program") if inside(s))
    out["rpca.prox_ms.serve"] = _mean(
        _ms(table.duration(s)) for s in table.ids("rpca.prox.serve") if inside(s))
    return out


def transport_ms(table, receipts, window=None):
    """p50 of client receipt minus sink call, per delivered row.

    ``receipts`` maps ``(stream_id, index)`` to the client's receipt time;
    ``window`` keeps only sink calls inside ``(lo, hi)``.
    """
    deltas = []
    for stream_id, index, t_sink in table.marks.get("sink", ()):
        if window is not None and not window[0] <= t_sink <= window[1]:
            continue
        t_recv = receipts.get((stream_id, int(index)))
        if t_recv is not None:
            deltas.append(_ms(t_recv - t_sink))
    return median(deltas) if deltas else 0.0


# ---------------------------------------------------------------------- #
# fit metrics


def fit_metrics(table, fits):
    """Training-layer metrics from the fit phase's spans.

    ``fits`` maps ``'rae'``/``'rdae'`` to the list of fitted detectors, for
    the ADMM iteration counts (``len(epoch_seconds_)``).
    """
    names = table.names
    out = {}
    for method in ("rae", "rdae"):
        fit_spans = table.ids("fit." + method)
        n_fits = len(fit_spans) or 1
        backprop = table.ids("nn.backprop." + method)
        out["nn.backprop_ms." + method] = _mean(_ms(table.duration(s)) for s in backprop)
        out["nn.tape_recordings." + method] = sum(
            1 for s in table.ids("nn.training_tape")
            if table.parent[s] >= 0
            and names[table.parent[s]] == "nn.backprop." + method) / n_fits
        out["fit.admm_iterations." + method] = _mean(
            len(det.epoch_seconds_) for det in fits.get(method, ()))
        out["fit.stopping_ms." + method] = sum(
            _ms(table.duration(c)) for s in fit_spans
            for c in table.children.get(s, ()) if names[c] == "fit.stopping") / n_fits
        out["fit.loop_self_ms." + method] = _mean(
            _ms(table.self_time(s)) for s in fit_spans)
    out["rpca.prox_ms.fit"] = _mean(
        _ms(table.duration(s)) for s in table.ids("rpca.prox.fit"))
    rdae_fits = len(table.ids("fit.rdae")) or 1
    out["tsops.hankel_ms"] = sum(
        _ms(table.duration(s)) for s in table.ids("tsops.hankel")) / rdae_fits
    return out


def finite_or_zero(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else 0.0
