"""Benchmark: the ``repro serve`` tier (latency, throughput, batching).

Three claims from the serving work are measured here:

1. **Serving latency/throughput.** A real ``repro serve`` process (the
   CLI entry, forked workers, HTTP in between) is booted at two worker
   counts and driven by a threaded load generator; per-request p50/p99
   latency and sustained rows/sec are recorded for both.  A smoke
   variant of the same loop (in-process server, 1k requests) asserts a
   p99 bound and zero errors — that one is what CI's serve job runs.
2. **Micro-batching.** Merging concurrent requests into one vectorised
   dispatch per distinct ``(u, s, k)`` cell must measurably beat the
   one-request-per-solve baseline on the same work (measured at the
   service layer, where the win lives — HTTP framing would swamp it).
3. **The pre-validated fast path.** ``prepare_feature_repair`` hoists
   per-call validation and CDF setup out of the serving loop;
   re-applying a prepared cell must beat calling
   ``repair_feature_values`` afresh each time.

Results land in ``benchmarks/results/serve.txt`` and
``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.design import design_repair
from repro.core.repair import (prepare_feature_repair, repair_dataset,
                               repair_feature_values)
from repro.core.serialize import save_plan
from repro.data.dataset import FairnessDataset
from repro.serve import BackgroundServer, RepairService
from repro.serve.client import get_json, post_json, repair_payload
from repro.serve.service import RepairRequest

RESULTS_DIR = Path(__file__).parent / "results"

N_STATES = 120
WORKER_COUNTS = (1, 2)
N_REQUESTS = 400          # per worker count, via the live HTTP path
N_CLIENTS = 8
ROWS_PER_REQUEST = 50
SMOKE_REQUESTS = 1000
SMOKE_P99_MS = 250.0      # generous: CI machines are noisy


@pytest.fixture(scope="module")
def designed(paper_scale_split):
    plan = design_repair(paper_scale_split.research, N_STATES,
                         solver="screened")
    return plan, paper_scale_split.archive


@pytest.fixture(scope="module")
def plan_archive(designed, tmp_path_factory):
    plan, _ = designed
    out = tmp_path_factory.mktemp("serve")
    return save_plan(plan, out / "plan.npz")


def _request_payloads(archive, n_requests, rng):
    """Seeded payloads drawing ``ROWS_PER_REQUEST``-row slices."""
    payloads = []
    for i in range(n_requests):
        rows = rng.integers(0, len(archive), size=ROWS_PER_REQUEST)
        subset = FairnessDataset(archive.features[rows], archive.s[rows],
                                 archive.u[rows])
        payloads.append(repair_payload(subset, seed=i))
    return payloads


def _drive(url, payloads, n_clients):
    """Fire ``payloads`` at ``url`` from ``n_clients`` threads.

    Returns (per-request latencies in seconds, wall seconds, errors).
    """
    latencies = []
    errors = []
    lock = threading.Lock()
    cursor = iter(range(len(payloads)))

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            start = time.perf_counter()
            try:
                post_json(url + "/repair", payloads[i])
            except Exception as exc:
                with lock:
                    errors.append(exc)
                continue
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    wall_start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.perf_counter() - wall_start, errors


def _percentile(latencies, q):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@pytest.fixture(scope="module")
def http_runs(plan_archive, designed):
    """Boot the real CLI server at each worker count and load-test it."""
    _, archive = designed
    rng = np.random.default_rng(2024)
    payloads = _request_payloads(archive, N_REQUESTS, rng)
    runs = {}
    for workers in WORKER_COUNTS:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--plan",
             str(plan_archive), "--workers", str(workers), "--port",
             str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        url = f"http://127.0.0.1:{port}"
        try:
            deadline = time.time() + 30
            while True:
                try:
                    get_json(url + "/healthz", timeout=1.0)
                    break
                except Exception:
                    if process.poll() is not None:
                        raise RuntimeError(
                            "server died during boot:\n"
                            + process.stdout.read())
                    if time.time() > deadline:
                        raise RuntimeError("server never became healthy")
                    time.sleep(0.1)
            _drive(url, payloads[:40], N_CLIENTS)  # warm caches/workers
            latencies, wall, errors = _drive(url, payloads, N_CLIENTS)
            runs[workers] = {
                "latencies": latencies, "wall_s": wall,
                "errors": len(errors),
                "rows_per_s": len(latencies) * ROWS_PER_REQUEST / wall,
            }
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    return runs


@pytest.fixture(scope="module")
def batching_timings(designed):
    """The same request set, merged vs one-request-per-solve."""
    plan, archive = designed
    rng = np.random.default_rng(7)
    requests = []
    for i in range(64):
        rows = rng.integers(0, len(archive), size=ROWS_PER_REQUEST)
        requests.append(RepairRequest(
            FairnessDataset(archive.features[rows], archive.s[rows],
                            archive.u[rows]),
            np.random.default_rng(i)))

    def run(grouped: bool) -> float:
        service = RepairService(plan)
        service.repair_many(requests[:4])  # warm the cell cache
        start = time.perf_counter()
        for _ in range(5):
            if grouped:
                service.repair_many(requests)
            else:
                for request in requests:
                    service.repair_many([request])
        return (time.perf_counter() - start) / 5

    return {"batched_s": run(True), "sequential_s": run(False),
            "n_requests": len(requests)}


@pytest.fixture(scope="module")
def prepared_timings(designed):
    """``repair_feature_values`` vs a prepared kernel, single-row calls.

    The slow path already caches its row-CDF tables on the FeaturePlan,
    so on large vectors the two are nearly tied; the serving tier's
    pain point is *small* requests, where per-call validation, mode
    checks and cache lookups dominate.  Measured at one row per call —
    the single-client online-repair worst case.
    """
    plan, archive = designed
    (u, k), feature_plan = next(iter(plan.feature_plans.items()))
    chunks = [archive.features[i:i + 1, k] for i in range(2000)]
    # Warm the FeaturePlan's own CDF cache so the comparison is purely
    # per-call overhead, not first-touch setup.
    repair_feature_values(chunks[0], feature_plan, 0,
                          rng=np.random.default_rng(0))
    prepared = prepare_feature_repair(feature_plan, 0)

    def median_of(run, reps=7):
        timings = []
        for _ in range(reps):
            generator = np.random.default_rng(1)
            start = time.perf_counter()
            run(generator)
            timings.append(time.perf_counter() - start)
        return sorted(timings)[reps // 2]

    slow = median_of(lambda generator: [
        repair_feature_values(chunk, feature_plan, 0, rng=generator)
        for chunk in chunks])
    fast = median_of(lambda generator: [
        prepared(chunk, generator) for chunk in chunks])
    return {"slow_s": slow, "fast_s": fast, "n_chunks": len(chunks)}


def test_smoke_1k_requests_p99_bounded(designed):
    """CI's serve job: in-process server, 1k requests, p99 bound, zero
    errors, every response bit-identical to the offline repair."""
    plan, archive = designed
    rng = np.random.default_rng(11)
    payloads = _request_payloads(archive, SMOKE_REQUESTS, rng)
    service = RepairService(plan)
    with BackgroundServer(service, max_batch=32, max_wait=0.002) as bg:
        _drive(bg.url, payloads[:50], N_CLIENTS)  # warm-up
        latencies, _, errors = _drive(bg.url, payloads, N_CLIENTS)
        # Spot-check bit-identity through the full HTTP + batching path.
        probe = payloads[123]
        response = post_json(bg.url + "/repair", probe)
        reference = repair_dataset(
            FairnessDataset(np.asarray(probe["features"]),
                            np.asarray(probe["s"]),
                            np.asarray(probe["u"])),
            plan, rng=np.random.default_rng(probe["seed"]))
        stats = get_json(bg.url + "/stats")
    assert not errors
    assert len(latencies) == SMOKE_REQUESTS
    np.testing.assert_array_equal(np.asarray(response["features"]),
                                  reference.features)
    p99_ms = _percentile(latencies, 0.99) * 1e3
    assert p99_ms < SMOKE_P99_MS, f"p99 {p99_ms:.1f}ms over budget"
    assert stats["service"]["errors"] == 0


def test_http_runs_complete_without_errors(http_runs):
    for workers, run in http_runs.items():
        assert run["errors"] == 0, f"{workers}-worker run had errors"
        assert len(run["latencies"]) == N_REQUESTS


def test_microbatching_beats_sequential_dispatch(batching_timings):
    speedup = (batching_timings["sequential_s"]
               / batching_timings["batched_s"])
    assert speedup > 1.2, (
        f"merged dispatch only {speedup:.2f}x the per-request loop")


def test_prepared_path_beats_revalidating(prepared_timings):
    # The slow path already caches its CDF tables, so what's hoisted is
    # per-call validation + lookup overhead (~1.2x at one row per call,
    # measured stable); require a margin below that so loaded CI boxes
    # don't flake while a regression to parity still fails.
    speedup = prepared_timings["slow_s"] / prepared_timings["fast_s"]
    assert speedup > 1.08, (
        f"prepared kernel only {speedup:.2f}x repair_feature_values")


def test_record_results(http_runs, batching_timings, prepared_timings):
    from _results import save_result

    lines = [
        f"repro serve — screened plan, n_Q = {N_STATES}, "
        f"{ROWS_PER_REQUEST} rows/request, {N_CLIENTS} concurrent "
        f"clients, {N_REQUESTS} requests per run, "
        f"{os.cpu_count()} core(s)",
    ]
    payload_runs = {}
    for workers, run in sorted(http_runs.items()):
        p50 = _percentile(run["latencies"], 0.50) * 1e3
        p99 = _percentile(run["latencies"], 0.99) * 1e3
        lines.append(
            f"  workers={workers}: p50 {p50:7.2f}ms   p99 {p99:7.2f}ms   "
            f"{run['rows_per_s']:,.0f} rows/s   errors {run['errors']}")
        payload_runs[str(workers)] = {
            "p50_ms": p50, "p99_ms": p99,
            "rows_per_s": run["rows_per_s"],
            "errors": run["errors"], "n_requests": N_REQUESTS,
        }
    assert sorted(payload_runs) == sorted(str(w) for w in WORKER_COUNTS)
    if (os.cpu_count() or 1) < max(WORKER_COUNTS):
        lines.append(
            "  (worker scaling needs as many cores as workers; on this "
            "box extra workers only add fork + page-cache sharing, not "
            "throughput)")
    batch_speedup = (batching_timings["sequential_s"]
                     / batching_timings["batched_s"])
    prepared_speedup = (prepared_timings["slow_s"]
                        / prepared_timings["fast_s"])
    lines += [
        "",
        f"Micro-batching — {batching_timings['n_requests']} requests of "
        f"{ROWS_PER_REQUEST} rows, service layer",
        f"  one-request-per-solve : {batching_timings['sequential_s']*1e3:8.2f}ms",
        f"  merged dispatches     : {batching_timings['batched_s']*1e3:8.2f}ms"
        f"  ({batch_speedup:.2f}x; responses bit-identical)",
        "",
        f"Pre-validated repair kernel — {prepared_timings['n_chunks']} "
        "single-row calls on one warm (u, s, k) cell (median of 7)",
        f"  repair_feature_values each call : "
        f"{prepared_timings['slow_s']*1e3:8.2f}ms",
        f"  prepared kernel re-applied      : "
        f"{prepared_timings['fast_s']*1e3:8.2f}ms  "
        f"({prepared_speedup:.2f}x)",
        "",
        "  All serve responses are bit-identical to the offline",
        "  repair_dataset path (seeded requests; JSON floats round-trip",
        "  via repr).  /stats on each worker reports its own cache,",
        "  batcher and latency accounting.",
    ]
    save_result("serve", "\n".join(lines))
    payload = {
        "n_states": N_STATES,
        "rows_per_request": ROWS_PER_REQUEST,
        "n_clients": N_CLIENTS,
        "runs": payload_runs,
        "microbatch_speedup": batch_speedup,
        "prepared_speedup": prepared_speedup,
    }
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
