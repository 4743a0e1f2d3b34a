"""Regression: parallel sweeps must report the same counter totals as serial.

Before the :mod:`repro.obs.metrics` drain protocol, worker processes
accumulated counters into their own rebuilt contexts and the parent's
``--stats`` silently reported (near) zero work for parallel runs.  These
tests pin the fix: with the decomposition cache disabled -- so scheduling
cannot change how much work each cell performs -- serial and parallel runs
of the same sweep report **identical** integer counter totals, on the
legacy pool path and the supervised path alike.

(Caches are per-process: a serial sweep shares one cache across all cells
while N workers warm N separate ones, so cached runs legitimately differ
in ``flow_calls``.  Equality is only promised -- and only asserted --
uncached.)
"""

import numpy as np
import pytest

from repro.analysis import parallel_incentive_sweep
from repro.engine import INT_COUNTER_FIELDS, EngineContext
from repro.graphs import random_ring
from repro.runtime import RuntimePolicy


def _graphs():
    rng = np.random.default_rng(7)
    return [random_ring(5, rng) for _ in range(3)]


def _int_counters(ctx: EngineContext) -> dict:
    snap = ctx.counters.snapshot()
    return {k: snap[k] for k in INT_COUNTER_FIELDS}


def _sweep(policy=None, workers=0) -> tuple[list, dict]:
    ctx = EngineContext(cache_size=0, workers=workers)
    if policy is not None:
        ctx.runtime = policy
    ratios = parallel_incentive_sweep(_graphs(), grid=8, ctx=ctx)
    return ratios, _int_counters(ctx)


def test_parallel_pool_counters_match_serial():
    serial_ratios, serial_counts = _sweep()
    par_ratios, par_counts = _sweep(workers=2)
    assert par_ratios == serial_ratios
    assert par_counts == serial_counts
    assert serial_counts["flow_calls"] > 0  # the totals are real work
    assert serial_counts["dinkelbach_iterations"] > 0


def test_supervised_parallel_counters_match_serial():
    serial_ratios, serial_counts = _sweep()
    sup_ratios, sup_counts = _sweep(
        policy=RuntimePolicy(retries=1, timeout=120.0), workers=2
    )
    assert sup_ratios == serial_ratios
    assert sup_counts == serial_counts


def test_supervised_serial_counters_match_serial():
    # processes=0 under a supervising policy degrades to the in-process
    # path; counters must still come out identical.
    serial_ratios, serial_counts = _sweep()
    sup_ratios, sup_counts = _sweep(policy=RuntimePolicy(retries=1), workers=0)
    assert sup_ratios == serial_ratios
    assert sup_counts == serial_counts


def test_parallel_spans_are_merged_back():
    from repro.obs import Tracer

    ctx = EngineContext(cache_size=0, workers=2)
    ctx.tracer = Tracer()
    parallel_incentive_sweep(_graphs(), grid=8, ctx=ctx)
    spans = ctx.tracer.snapshot()
    assert "best_response" in spans
    # Every (graph, vertex) cell runs exactly one best-response search.
    assert spans["best_response"]["count"] == sum(g.n for g in _graphs())


def test_repeated_parallel_sweeps_do_not_double_count():
    # Worker contexts are memoized per spec; a second sweep in the same
    # process must drain only its own delta, not re-report the first.
    ctx1 = EngineContext(cache_size=0, workers=2)
    parallel_incentive_sweep(_graphs(), grid=8, ctx=ctx1)
    first = _int_counters(ctx1)
    ctx2 = EngineContext(cache_size=0, workers=2)
    parallel_incentive_sweep(_graphs(), grid=8, ctx=ctx2)
    assert _int_counters(ctx2) == first
