"""The fit phase: registry-default RAE and RDAE ``fit_score`` over a fixed
set of generated NAB-style series, in this process, with no server.

Every workload runs it, so each run also measures the paper's own offline
workload.  It runs in rounds, one after each slice of the workload's timed
serving phase: on a shared host the speed of a core drifts by 10-20% over
tens of seconds, so fits done in one block would measure one moment of the
host, while fits spread over the run average several.
"""

from __future__ import annotations

import gc
import time
from itertools import zip_longest

import numpy as np

from common import median
from inputs import fit_inputs

METHODS = ("RAE", "RDAE")


def _fit(method, series, out):
    """One ``fit_score``; returns ``(detector, scores, cpu s)`` or None
    after counting the failure."""
    from repro.eval import make_detector

    out["attempted"] += 1
    detector = make_detector(method)
    started = time.process_time()
    try:
        scores = np.asarray(detector.fit_score(series.values))
    except Exception as exc:  # noqa: BLE001 - a failed fit is a result
        out["failed"] += 1
        out["errors"].append("%s %s: %r" % (method, series.name, exc))
        return None
    cpu = time.process_time() - started
    if scores.shape != series.values.shape or not np.all(np.isfinite(scores)):
        out["failed"] += 1
        out["errors"].append("%s %s: non-finite or misshaped scores"
                             % (method, series.name))
        return None
    return detector, scores, cpu


class FitPhase:
    """Both methods over their series sets, in ``rounds`` rounds.

    Each round fits an equal share of each method's series, alternating
    the methods.  ``host`` (a ``common.HostSpeed``) is sampled before each
    fit and at the end of each round, so the host-speed reference is
    measured at the moments the fits and the serving slices between the
    rounds run.  With a ``tracer``, the training layers are wrapped (see
    ``layers.install_fit``) while the phase's own fits run, and only then.
    """

    def __init__(self, seed, rounds, host, tracer=None):
        self.sets = dict(zip(METHODS, fit_inputs(seed)))
        self.host = host
        self.tracer = tracer
        self.rounds = []
        for r in range(rounds):
            pairs = zip_longest(*([(m, s) for s in self.sets[m][r::rounds]] for m in METHODS))
            self.rounds.append([fit for pair in pairs for fit in pair if fit])
        self.done = 0
        self.results = {m: {} for m in METHODS}  # series name -> (detector, scores, cpu)
        self.out = {"attempted": 0, "failed": 0, "errors": [], "fits": {}}

    def _run(self, plan):
        """Fit ``plan``'s ``(method, series)`` pairs with the collector on
        (the load generator may have turned it off) and the tracer in."""
        collecting = gc.isenabled()
        gc.enable()
        if self.tracer is not None:
            import layers

            layers.install_fit(self.tracer)
        try:
            done = []
            for method, series in plan:
                self.host.sample(2)
                done.append((method, series, _fit(method, series, self.out)))
            self.host.sample(2)
            return done
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            if not collecting:
                gc.disable()

    def run_round(self, index):
        """Run round ``index``; rounds run in order, each once."""
        for method, series, done in self._run(self.rounds[index]):
            if done is not None:
                self.results[method][series.name] = done
        self.done = index + 1

    def finish(self):
        """Run any rounds left, the repeat checks, and the figures.

        Returns the CPU seconds and mean PR-AUC per method, the fitted
        detectors, and failure counts.  A method's CPU seconds are the
        number of series times its median fit's CPU time.  The series of a
        set have one length and the fits run the same model for (nearly)
        the same iteration counts, so they do the same work; the median
        keeps a stall of the host during a few fits out of the figure.  The
        plain sum is reported alongside.  A fit that raises or returns
        non-finite scores fails; so does a repeat of each set's first
        series whose scores differ from the first fit's (fits are
        deterministic).
        """
        from repro.metrics import pr_auc

        for index in range(self.done, len(self.rounds)):
            self.run_round(index)
        out = self.out
        firsts = [(m, self.sets[m][0]) for m in METHODS]
        for method, series, repeat in self._run(firsts):
            first = self.results[method].get(series.name)
            if repeat is not None and first is not None \
                    and not np.array_equal(repeat[1], first[1]):
                out["failed"] += 1
                out["errors"].append("%s %s: a repeated fit scored differently"
                                     % (method, series.name))
        for method in METHODS:
            key = method.lower()
            series_set = self.sets[method]
            fits = [(s, self.results[method][s.name]) for s in series_set
                    if s.name in self.results[method]]
            cpu = [seconds for __, (__, __, seconds) in fits]
            aucs = [pr_auc(s.labels, scores) for s, (__, scores, __) in fits]
            out[key + "_fit_s"] = len(series_set) * median(cpu) if cpu else 0.0
            out[key + "_fit_cpu_sum_s"] = sum(cpu)
            out[key + "_pr_auc"] = float(np.mean(aucs)) if aucs else 0.0
            out[key + "_iterations"] = [len(d.epoch_seconds_) for __, (d, __, __) in fits]
            out["fits"][key] = [d for __, (d, __, __) in fits]
        return out
