"""Shared helpers: environment, percentiles, run metadata, result line,
and the ``repro serve`` child process."""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

#: BLAS threads for the benchmark process and every process it starts.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def pin_blas_threads():
    """Fix the BLAS thread count; must run before NumPy is first imported."""
    os.environ.update(BLAS_ENV)


HERE = os.path.dirname(os.path.abspath(__file__))

#: The benchmark's percentile rule: a percentile is reported only when at
#: least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q):
    """The ``q``-th percentile (0-100, linear interpolation) of ``samples``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond it (above for ``q >= 50``, below otherwise), so a tail figure is
    never read off a handful of points.  Infinite samples (failed requests)
    sort last and count as beyond.
    """
    values = sorted(samples)
    n = len(values)
    beyond = n * (1.0 - q / 100.0) if q >= 50 else n * q / 100.0
    if n == 0 or beyond < MIN_BEYOND:
        raise ValueError("p%g needs >= %d samples beyond it; have %d samples"
                         % (q, MIN_BEYOND, n))
    rank = (n - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    if values[hi] == math.inf or values[lo] == math.inf:
        return math.inf
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def highest_percentile(samples, wanted=99.0, fallbacks=(95.0, 90.0, 50.0)):
    """``(q, value)`` for ``wanted`` or the highest fallback the sample
    supports; ``(None, None)`` when not even the median is supported."""
    for q in (wanted,) + tuple(fallbacks):
        try:
            return q, percentile(samples, q)
        except ValueError:
            continue
    return None, None


def sliced_percentile(samples, q, slices):
    """Median, over ``slices`` equal consecutive slices of ``samples``, of
    each slice's ``q``-th percentile; returns ``(q, value)``.

    One burst of slow samples (a stall of the host) then moves one slice,
    not the result.  When a slice is too small for ``q`` under the
    :data:`MIN_BEYOND` rule, falls back to :func:`highest_percentile` of
    the whole sample.
    """
    size = len(samples) // slices
    try:
        per_slice = [percentile(samples[i * size:(i + 1) * size], q)
                     for i in range(slices)]
    except ValueError:
        return highest_percentile(samples, q)
    return q, median(per_slice)


def median(values):
    values = sorted(values)
    n = len(values)
    if not n:
        raise ValueError("median of nothing")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def window_figures(samples, receipts):
    """Per window between consecutive ``(time, server CPU s)`` samples:
    ``(arrivals/s, server CPU us per arrival)``, counting the arrivals
    whose ``receipts`` time falls in the window.  A window without
    arrivals has an infinite CPU figure."""
    times = sorted(receipts)
    out = []
    for (t0, cpu0), (t1, cpu1) in zip(samples, samples[1:]):
        n = bisect.bisect_right(times, t1) - bisect.bisect_right(times, t0)
        out.append((n / (t1 - t0), 1e6 * (cpu1 - cpu0) / n if n else math.inf))
    return out


def windowed_rates(slices, receipts):
    """``(throughput, server CPU us per arrival, windows)``: the medians of
    :func:`window_figures` over the windows of every slice of a timed
    phase (one list of samples per slice), so a stall of the host that
    slows one window moves neither figure, and the windows themselves."""
    windows = [w for samples in slices for w in window_figures(samples, receipts)]
    if not windows:
        raise ValueError("a timed phase shorter than one window")
    return median([w[0] for w in windows]), median([w[1] for w in windows]), windows


class CpuSampler:
    """Samples a process's CPU seconds every ``width`` seconds of
    ``perf_counter`` time, on a thread, from :meth:`start` to
    :meth:`stop`; only whole windows are kept.  A timed slice should last
    :meth:`slice_seconds`, so its last window closes before it ends."""

    def __init__(self, pid, width):
        self.pid = pid
        self.width = width
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        self.samples.append((time.perf_counter(), process_cpu_seconds(self.pid)))

    def _run(self):
        origin = self.samples[0][0]
        k = 1
        while not self._stop.wait(max(0.0, origin + k * self.width - time.perf_counter())):
            self._sample()
            k += 1

    def slice_seconds(self, seconds):
        """``seconds`` rounded to whole windows (at least one), plus a
        fifth of a window for the sampler thread to wake in."""
        return (max(1, round(seconds / self.width)) + 0.2) * self.width

    def start(self):
        self._sample()
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.samples


class HostSpeed:
    """How slow this host's cores run, from a fixed reference computation:
    :attr:`PRODUCTS` products of a fixed 256x256 matrix with itself, on
    one BLAS thread, timed in process CPU seconds.

    On a shared VM the CPU time of the same work drifts by up to 40% over
    minutes as other tenants load the host, far more than a regression
    bound allows.  Over five minutes of alternating runs, the 20 s medians
    of an RAE fit and of in-process serving tracked this reference with
    correlations 0.99 and 0.97, and dividing by it cut their spread from
    18% and 11% to 4%.  The reference runs NumPy and nothing of the
    program under test, so no change to the program can move it.
    """

    PRODUCTS = 20
    #: The reference's CPU seconds on a 2-vCPU KVM Xeon VM (median of ~500
    #: samples); a run whose median equals it has :meth:`factor` 1.
    NOMINAL_S = 0.015

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((256, 256))
        self.samples = []

    def sample(self, n=8):
        for __ in range(n):
            started = time.process_time()
            for __ in range(self.PRODUCTS):
                self.matrix @ self.matrix
            self.samples.append(time.process_time() - started)

    def factor(self):
        """The median reference time over the nominal one: 1.2 means the
        cores ran 20% slower than nominal during this run's samples."""
        return median(self.samples) / self.NOMINAL_S


def mean_stream_pr_auc(per_stream):
    """Mean over streams of ``repro.metrics.pr_auc``, the paper's per-series
    average; ``per_stream`` maps a stream to ``(labels, scores)`` lists.
    Streams without a labelled outlier have no PR-AUC and are skipped."""
    from repro.metrics import pr_auc

    values = [pr_auc(labels, scores) for labels, scores in per_stream.values()
              if any(labels)]
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------- #
# metadata and the result line


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_version():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown"


def run_metadata(root, workload, seed, seconds, trace):
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": BLAS_THREADS,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line (strict JSON, finite numbers)."""
    for name, entry in metrics.items():
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, entry["value"]))
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics},
                      allow_nan=False)


# ---------------------------------------------------------------------- #
# the server under test


def child_env(root):
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_EAGER", None)
    return env


def process_cpu_seconds(pid):
    """user+sys CPU of a live process (all its threads, exited ones too)."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """``repro serve`` in a child process, optionally under the tracing
    launcher; :meth:`start` returns once the server printed ``ready``."""

    READY_TIMEOUT = 120.0

    def __init__(self, root, argv, trace_out=None):
        self.root = root
        self.argv = list(argv)
        self.trace_out = trace_out
        self.proc = None
        self.addresses = {}
        self.stderr = []
        self._reader = None

    def start(self):
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro"] + self.argv
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   self.trace_out, "--"] + self.argv
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=child_env(self.root),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        ready = threading.Event()

        def pump():
            for line in self.proc.stderr:
                self.stderr.append(line)
                match = re.match(r"serving (TCP|HTTP) .* on ([\d.]+):(\d+)", line)
                if match:
                    self.addresses[match.group(1).lower()] = (
                        match.group(2), int(match.group(3)))
                if line.startswith("ready"):
                    ready.set()
            ready.set()  # EOF: the process died before (or after) ready

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        ready.wait(self.READY_TIMEOUT)
        if self.proc.poll() is not None or not self.addresses:
            self.stop()
            raise RuntimeError("server did not become ready:\n%s"
                               % "".join(self.stderr[-20:]))
        return self

    def cpu_seconds(self):
        return process_cpu_seconds(self.proc.pid)

    def stop(self, timeout=60.0):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(10)
        return self.proc.returncode


class RunDir:
    """A private working directory inside the checkout, plus every server
    launched for the run.  Leaving the ``with`` block stops the servers
    (waiting for each to exit) and removes the directory."""

    def __init__(self, root, workload):
        self.root = root
        self.path = os.path.join(root, ".bench_tmp", "%s-%d" % (workload, os.getpid()))
        self.servers = []

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        return self

    def sub(self, name):
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def launch(self, argv, trace_out=None):
        """Start ``repro serve`` with ``argv``; returns it once ready."""
        server = Server(self.root, argv, trace_out=trace_out)
        self.servers.append(server)
        return server.start()

    def __exit__(self, *exc):
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still uses it


@contextlib.contextmanager
def frozen_gc(disable=False):
    """Move every object alive now out of the garbage collector's reach, so
    collections inside the block scan only what the block allocates; the
    benchmark's own inputs and receipts are otherwise rescanned and billed
    to whatever is being timed.  ``disable`` also turns automatic
    collection off, for the load generator's timed phases."""
    gc.collect()
    gc.freeze()
    if disable:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def serve_defaults():
    """``repro serve``'s own defaults (window, drain cadence, queue)."""
    from repro.cli import build_parser

    return build_parser().parse_args(["serve"])
