"""Shared configuration for the paper-reproduction benchmarks.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper's Section V at laptop scale (DESIGN.md §4 maps experiment ids to
modules).  Benchmarks print the rows/series the paper reports; EXPERIMENTS.md
records paper-vs-measured values.

Scaling: datasets are generated with small ``scale`` factors and the neural
methods run with reduced epochs/kernels.  The *shapes* of the results (who
wins, where the sweet spots fall) are asserted; absolute values are not.
"""

import json
import os

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.eval import evaluate_on_dataset, make_detector
from repro.metrics import pr_auc, roc_auc

# Per-method overrides that keep the full suite runnable on a laptop while
# preserving each method's structure.
FAST_OVERRIDES = {
    "OCSVM": {"iterations": 200, "max_points": 400},
    "ISF": {"n_trees": 25, "subsample": 96},
    "RN": {"n_models": 3, "epochs": 5},
    "CNNAE": {"epochs": 8},
    "RNNAE": {"epochs": 4, "hidden": 12},
    "BGAN": {"epochs": 5},
    "DONUT": {"epochs": 8},
    "OMNI": {"epochs": 3, "hidden": 12},
    "TAE": {"epochs": 4, "d_model": 16, "num_heads": 2},
    "RDA": {"outer_iterations": 3, "inner_epochs": 3},
    "RAE": {"max_iterations": 15},
    "RDAE": {
        "window": 30,
        "max_outer": 2,
        "inner_iterations": 5,
        "series_iterations": 5,
    },
    "N-RAE": {"epochs": 15},
    "N-RDAE": {"window": 30, "epochs": 5},
}

# Dataset generator arguments that cap the corpus size per dataset.
FAST_DATASET_KWARGS = {
    "S5": {"num_series": 2},
    "SYN": {"num_series": 2},
    "NAB": {"series_per_domain": 1},
}

SCALE = 0.05

# Perf benchmarks: REPRO_BENCH_TINY=1 shrinks their workloads (and skips
# ratio assertions); raw numbers go to JSON files under REPRO_BENCH_DIR.
TINY = os.environ.get("REPRO_BENCH_TINY") == "1"
RESULTS_DIR = os.environ.get("REPRO_BENCH_DIR", "bench-results")


def record_result(filename, key, payload, skipped_reason=None):
    """Merge one benchmark's raw numbers into ``RESULTS_DIR/filename``.

    ``skipped_reason`` marks a record whose ratio claim could not be
    meaningfully measured on this host (single core, tiny mode): the raw
    timings are still recorded, but no ``speedup`` field is — a sub-1x
    "speedup" measured where nothing could overlap is not a regression,
    and must not enter the BENCH trajectory looking like one.
    """
    path = os.path.join(RESULTS_DIR, filename)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    payload = dict(payload, tiny=TINY, cpu_count=os.cpu_count())
    if skipped_reason is not None:
        payload.pop("speedup", None)
        payload["skipped_reason"] = skipped_reason
    data[key] = payload
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)


def fast_detector(method, **extra):
    """Build a method with the benchmark-speed overrides applied."""
    return make_detector(method, **{**FAST_OVERRIDES.get(method, {}), **extra})


def score_method_on_dataset(method, dataset, **extra):
    """Mean (PR, ROC) of a method over a dataset with fast overrides."""
    return evaluate_on_dataset(lambda: fast_detector(method, **extra), dataset)


def score_detector(detector, ts):
    """(PR, ROC) of one fitted-from-scratch detector on one series."""
    scores = detector.fit_score(ts)
    return pr_auc(ts.labels, scores), roc_auc(ts.labels, scores)


@pytest.fixture(scope="session")
def s5():
    """The S5 surrogate used by most sensitivity studies (Figs. 6-18).

    Uses a harder variant (more noise, subtler outliers) than the Table II/III
    corpus so the sweep curves do not saturate at 1.0.
    """
    return load_dataset("S5", seed=0, scale=0.2, num_series=2, noise=0.3,
                        magnitude=(1.8, 3.5))


@pytest.fixture(scope="session")
def s5_series(s5):
    """A single S5 series for per-series studies (Figs. 16-17)."""
    return s5[0]


def mean_scores(method, dataset, **extra):
    prs, rocs = [], []
    for ts in dataset:
        if ts.labels.sum() in (0, ts.labels.size):
            continue
        det = fast_detector(method, **extra)
        pr, roc = score_detector(det, ts)
        prs.append(pr)
        rocs.append(roc)
    return float(np.mean(prs)), float(np.mean(rocs))
