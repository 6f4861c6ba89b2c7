"""End-to-end benchmark of ``repro serve`` and the RAE/RDAE fits.

    python3 e2ebench/run.py --workload tcp-shared --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (it builds nothing: the package is pure
Python and is imported from ``src/``).  The last stdout line is the
result JSON; the line before it holds run metadata and the figures behind
the metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import common

WORKLOADS = ("tcp-shared", "http-fleet")
SETUPS = 3  # set-up repeats per run; setup_s is their median
# Slices of the timed serving phase, with one round of the fit phase after
# each: both then sample the host's speed across the whole run.
ROUNDS = 4

#: The result line's metrics.  ``latency_p99_ms`` is measured by every run
#: but reported only in the details line: its run-to-run spread on
#: http-fleet (IQR 41% of the median over ten runs on a shared 2-vCPU VM)
#: is wider than any bound a regression gate can use.
END_TO_END = {
    "setup_s": "s",
    "throughput_arrivals_per_s": "1/s",
    "latency_p50_ms": "ms",
    "server_cpu_us_per_arrival": "us",
    "served_pr_auc": "ratio",
    "rae_fit_s": "s",
    "rdae_fit_s": "s",
    "rae_pr_auc": "ratio",
    "rdae_pr_auc": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def find_root():
    """The checkout root (the working directory); refuses to run without
    the package sources next to it."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit("error: no src/repro under %s; run from the root of "
                         "a repository checkout" % root)
    sys.path.insert(0, os.path.join(root, "src"))
    return root


#: The power of the host's slowness factor (``common.HostSpeed``) that
#: scales a CPU-work figure to nominal host speed: a slow host lowers
#: throughput and raises CPU time.
SPEED_POWER = {
    "throughput_arrivals_per_s": 1,
    "server_cpu_us_per_arrival": -1,
    "rae_fit_s": -1,
    "rdae_fit_s": -1,
}
#: The fits are NumPy-bound work, which the reference tracks on every
#: workload.  Each workload module names its own serving figures that it
#: tracks (``HOST_SCALED``).  Latency and set-up time are partly waiting,
#: not CPU work, and always stay as measured.
FIT_SCALED = ("rae_fit_s", "rdae_fit_s")


def at_nominal_speed(figures, host, scaled):
    """``figures`` with each of the ``scaled`` ones at nominal host speed."""
    factor = host.factor()
    return {name: value * factor ** SPEED_POWER[name] if name in scaled else value
            for name, value in figures.items()}


#: Figures read off the serving pass (the other metrics come from set-up
#: and the fit phase); the first four also get a tracing-overhead figure.
SERVE_FIGURES = ("throughput_arrivals_per_s", "latency_p50_ms", "latency_p99_ms",
                 "server_cpu_us_per_arrival", "served_pr_auc")


def serve_module(workload):
    if workload == "tcp-shared":
        import tcp_shared
        return tcp_shared
    import http_fleet
    return http_fleet


def run_setups(module, run, seed):
    """``SETUPS`` full set-ups; all but the last server are stopped."""
    times, server, state = [], None, None
    for i in range(SETUPS):
        if server is not None:
            server.stop()
        elapsed, state, server = module.setup(run, seed, run.sub("setup%d" % i))
        times.append(elapsed)
    return common.median(times), times, state, server


def serve_pass(module, server, state, seconds, fit):
    """One client pass with the rounds of ``fit`` (a ``FitPhase``) between
    its timed slices, and its checks; the server is stopped afterwards (its
    clean exit is a check too).  The fit rounds sample the host-speed
    reference around every fit and slice; it is also sampled before the
    pass.  Returns ``(figures, failures, notes)``."""
    fit.host.sample()
    try:
        with common.frozen_gc(disable=True):
            fig, failed, notes = module.exercise(server, state, seconds, ROUNDS,
                                                 fit.run_round)
    finally:
        code = server.stop()
    if code != 0:
        failed += 1
        notes.append("server exited with %s" % code)
    return fig, failed, notes


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds RunDir: servers stop, files go


def main(argv=None):
    common.pin_blas_threads()  # before anything imports NumPy
    args = parse_args(argv)
    root = find_root()
    signal.signal(signal.SIGTERM, _terminate)
    meta = common.run_metadata(root, args.workload, args.seed, args.seconds, args.trace)
    module = serve_module(args.workload)
    import fitphase

    details = {"meta": meta}
    with common.RunDir(root, args.workload) as run:
        setup_s, setup_times, state, server = run_setups(module, run, args.seed)
        details["setup_times_s"] = setup_times
        host = common.HostSpeed()
        phase = fitphase.FitPhase(args.seed, ROUNDS, host)
        fig, failed, notes = serve_pass(module, server, state, args.seconds, phase)
        offline_failed, offline_notes = module.verify_offline(state, fig)
        failed += offline_failed
        notes += offline_notes
        attempted = fig["n_sent"]

        with common.frozen_gc():
            fit = phase.finish()
        attempted += fit["attempted"]
        failed += fit["failed"]
        notes += fit["errors"]

        values = {
            "setup_s": setup_s,
            "rae_fit_s": fit["rae_fit_s"],
            "rdae_fit_s": fit["rdae_fit_s"],
            "rae_pr_auc": fit["rae_pr_auc"],
            "rdae_pr_auc": fit["rdae_pr_auc"],
        }
        for name in SERVE_FIGURES:
            values[name] = fig[name]
        scaled = module.HOST_SCALED + FIT_SCALED
        values = at_nominal_speed(values, host, scaled)
        details["host_speed_factor"] = host.factor()
        details["serve"] = _public(fig)
        details["fit"] = {k: v for k, v in fit.items() if k not in ("fits", "errors")}
        if not fig["valid"]:
            notes.append("invalid run: the load generator, not the server, set the pace")

        if args.trace:
            metrics, t_attempted, t_failed, t_notes = traced(
                args, module, run, state, values, details)
            attempted += t_attempted
            failed += t_failed
            notes += t_notes
        else:
            metrics = {name: common.metric(values[name], unit)
                       for name, unit in END_TO_END.items()}
    details["valid"] = fig["valid"]
    details["failed_frac"] = failed / max(attempted, 1)
    details["notes"] = notes
    print(json.dumps(details, default=str))
    print(common.result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


def _public(fig):
    """The figures worth printing: no client state, no per-stream stats."""
    out = {k: v for k, v in fig.items()
           if k not in ("client", "received", "stats", "fixed_window")}
    stats = fig.get("stats") or {}
    out["server_stats"] = {k: v for k, v in stats.items() if k != "per_stream"}
    return out


def traced(args, module, run, state, values, details):
    """Serve again against a traced server, and run the fit phase under
    in-process tracing.  Returns every per-layer metric, plus the attempts,
    failures and notes of these traced passes."""
    import fitphase
    import layers
    from tracing import SpanTable, Tracer

    spans = os.path.join(run.path, "spans.json")
    directory = run.sub("traced")
    server = module.relaunch(run, state, directory, trace_out=spans)
    tracer, host = Tracer(), common.HostSpeed()
    phase = fitphase.FitPhase(args.seed, ROUNDS, host, tracer=tracer)
    tfig, failed, notes = serve_pass(module, server, state, args.seconds, phase)
    table = SpanTable.load(spans)
    receipts = module.receipts(tfig)
    layer = layers.serve_metrics(table)
    layer["frontend.transport_ms"] = layers.transport_ms(table, receipts)
    stats = tfig["stats"]
    layer["frontend.errors"] = float(stats["frontend"]["error_total"])
    cache = stats["program_cache"]
    lookups = cache["hits"] + cache["misses"]
    layer["scoring.program_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    split = layer
    if "fixed_window" in tfig:
        # tcp-shared's latency comes from its fixed-rate phase only, so its
        # waiting and transport figures (and the split of its median) do too.
        window = tfig["fixed_window"]
        split = layers.serve_metrics(table, window=window)
        layer["router.queue_wait_ms"] = split["router.queue_wait_ms"]
        layer["frontend.transport_ms"] = layers.transport_ms(table, receipts, window)
    explained = (layer["router.queue_wait_ms"] + split["router.drain_ms.p50"]
                 + split["frontend.deliver_ms"] + layer["frontend.transport_ms"])
    layer["latency.explained_ms"] = explained
    layer["latency.unexplained_ms"] = tfig["latency_p50_ms"] - explained

    with common.frozen_gc():
        tfit = phase.finish()
    layer.update(layers.fit_metrics(tracer.table(), tfit["fits"]))
    traced_values = {name: tfig[name] for name in SERVE_FIGURES[:4]}
    traced_values.update((name, tfit[name]) for name in ("rae_fit_s", "rdae_fit_s"))
    for name, value in at_nominal_speed(traced_values, host,
                                        module.HOST_SCALED + FIT_SCALED).items():
        layer["overhead." + name] = value - values[name]
    details["traced_host_speed_factor"] = host.factor()
    details["traced_serve"] = _public(tfig)
    metrics = {name: common.metric(layers.finite_or_zero(layer.get(name, 0.0)), unit)
               for name, (unit, __) in layers.ALL_LAYER.items()}
    return (metrics, tfig["n_sent"] + tfit["attempted"], failed + tfit["failed"],
            notes + tfit["errors"])


if __name__ == "__main__":
    sys.exit(main())
