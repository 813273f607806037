"""Benchmark: the batched entropic kernels vs the per-cell solve loop.

A ``N_CELLS``-cell same-shape design batch (the ``test_batched_scaling``
fixture geometry, default ``n_Q = 50``) solved entropically through two
paths per solver:

* ``percell`` — the historical per-cell ``solve(method=...)`` loop
  (serial scipy-logsumexp / matmul iterations);
* ``batched`` — one ``solve_many(...)`` call hitting the stacked
  ``(B, n, m)`` kernel with per-problem convergence masking
  (`repro.ot.sinkhorn.batched_sinkhorn` / ``batched_sinkhorn_log``).

Expectations: the batched ``sinkhorn_log`` path is **>= 3x** the
per-cell loop (the acceptance criterion — the log-domain kernel is the
expensive one, two full logsumexp sweeps per iteration, so it is where
per-cell Python/scipy overhead hurts most), every batched result agrees
with its per-cell counterpart within 1e-12 with identical iteration
counts, and the probability-domain kernel is recorded alongside (its
design-cell iteration counts are tiny, so the fixed batch setup bounds
its win).  Results land in ``benchmarks/results/backend.txt`` and
``benchmarks/results/BENCH_backend.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.ot import solve, solve_many

from test_batched_scaling import build_cells

N_CELLS = 96
N_STATES = 50
EPSILON = 5e-2
TOL = 1e-8
#: Conservative acceptance floor for the log-domain kernel; the
#: committed results record the actual measured margin.
MIN_BATCHED_SPEEDUP = 3.0

METHODS = ("sinkhorn_log", "sinkhorn")


@pytest.fixture(scope="module")
def cell_batch(bench_rng):
    return build_cells(bench_rng, N_CELLS, N_STATES)


def best_of(repeats, fn):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


@pytest.fixture(scope="module")
def measurements(cell_batch):
    """method -> {path -> (seconds, results)} for both entropic solvers."""
    timings = {}
    for method in METHODS:
        paths = {
            "percell": lambda m=method: [
                solve(problem, method=m, epsilon=EPSILON, tol=TOL)
                for problem in cell_batch],
            "batched": lambda m=method: solve_many(
                cell_batch, method=m, epsilon=EPSILON, tol=TOL),
        }
        for fn in paths.values():
            fn()  # warm the path (imports, allocator) before timing
        repeats = 3 if method == "sinkhorn" else 2
        timings[method] = {name: best_of(repeats, fn)
                           for name, fn in paths.items()}
    return timings


def test_batched_matches_per_cell_within_tolerance(measurements):
    for method in METHODS:
        _, reference = measurements[method]["percell"]
        _, results = measurements[method]["batched"]
        for got, expected in zip(results, reference):
            np.testing.assert_allclose(got.plan.matrix,
                                       expected.plan.matrix,
                                       rtol=0.0, atol=1e-12,
                                       err_msg=method)
            assert got.n_iter == expected.n_iter, method
            assert got.extras["batched"] is True, method


def test_batched_sinkhorn_log_beats_per_cell_by_3x(measurements):
    percell, _ = measurements["sinkhorn_log"]["percell"]
    batched, _ = measurements["sinkhorn_log"]["batched"]
    assert batched * MIN_BATCHED_SPEEDUP < percell, (
        f"batched sinkhorn_log only {percell / batched:.1f}x the "
        f"per-cell loop (need >= {MIN_BATCHED_SPEEDUP}x)")


def test_record_results(measurements):
    from _results import RESULTS_DIR, save_result

    lines = [
        "Batched vs per-cell entropic kernels — one "
        f"shared-grid design batch ({N_CELLS} cells, n_Q = {N_STATES}, "
        f"epsilon = {EPSILON}, tol = {TOL})",
        "",
    ]
    payload = {
        "n_cells": N_CELLS,
        "n_states": N_STATES,
        "epsilon": EPSILON,
        "tol": TOL,
        "methods": {},
    }
    for method in METHODS:
        percell, _ = measurements[method]["percell"]
        batched, _ = measurements[method]["batched"]
        speedup = percell / batched
        lines.append(
            f"  {method:<12}: per-cell {percell * 1e3:9.1f} ms   "
            f"batched {batched * 1e3:9.1f} ms   ({speedup:.1f}x)")
        payload["methods"][method] = {
            "percell_seconds": percell,
            "batched_seconds": batched,
            "speedup": speedup,
        }
    lines += [
        "",
        f"  acceptance: batched sinkhorn_log >= {MIN_BATCHED_SPEEDUP}x "
        "the per-cell loop",
        "  batched == per-cell within 1e-12 (plans), identical",
        "  iteration counts (per-problem convergence masking).",
        "  The probability-domain kernel converges in O(10) iterations",
        "  on design cells, so its fixed batch setup bounds the win;",
        "  the log-domain kernel (hundreds of logsumexp sweeps) is",
        "  where the stacked dispatch pays off.",
    ]
    save_result("backend", "\n".join(lines))
    (RESULTS_DIR / "BENCH_backend.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
