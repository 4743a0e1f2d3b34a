"""Caching must change cost, never results.

The decomposition cache is keyed on the complete instance signature, so a
cached sweep must be value-identical (not just approximately equal) to an
uncached one -- and must demonstrably absorb repeated max-flow work.
"""

import numpy as np

from repro.analysis import parallel_incentive_sweep
from repro.attack import incentive_ratio
from repro.engine import EngineContext
from repro.experiments import run_experiment
from repro.graphs import random_ring


def _rings(seed, count=3, n=5):
    rng = np.random.default_rng(seed)
    return [random_ring(n, rng, "uniform", 0.5, 5.0) for _ in range(count)]


def test_incentive_ratio_identical_with_and_without_cache():
    cached = EngineContext()
    uncached = EngineContext(cache_size=0)
    for g in _rings(0):
        a = incentive_ratio(g, grid=12, ctx=cached)
        b = incentive_ratio(g, grid=12, ctx=uncached)
        assert a.zeta == b.zeta
        assert a.worst == b.worst
        assert a.per_vertex == b.per_vertex
    assert cached.counters.cache_hits > 0
    assert uncached.counters.cache_hits == 0
    # the cache must absorb actual flow work, not just decomposition calls
    assert cached.counters.flow_calls < uncached.counters.flow_calls
    assert (cached.counters.dinkelbach_iterations
            < uncached.counters.dinkelbach_iterations)
    assert cached.counters.decompositions < uncached.counters.decompositions


def test_thm8_smoke_identical_with_and_without_cache():
    on = EngineContext()
    off = EngineContext(cache_size=0)
    out_on = run_experiment("EXP-T8", seed=0, scale="smoke", ctx=on)
    out_off = run_experiment("EXP-T8", seed=0, scale="smoke", ctx=off)
    assert out_on.data == out_off.data
    assert [c.ok for c in out_on.checks] == [c.ok for c in out_off.checks]
    assert out_on.engine_stats["flow_calls"] < out_off.engine_stats["flow_calls"]
    assert (out_on.engine_stats["dinkelbach_iterations"]
            < out_off.engine_stats["dinkelbach_iterations"])
    assert out_on.engine_stats["cache"]["hits"] > 0
    assert out_off.engine_stats["cache"]["hits"] == 0


def test_parallel_sweep_matches_serial_with_cache():
    graphs = _rings(1, count=3, n=4)
    serial_cached = parallel_incentive_sweep(graphs, grid=8, processes=0,
                                             ctx=EngineContext())
    serial_uncached = parallel_incentive_sweep(graphs, grid=8, processes=0,
                                               ctx=EngineContext(cache_size=0))
    two_procs_cached = parallel_incentive_sweep(graphs, grid=8, processes=2,
                                                ctx=EngineContext())
    two_procs_uncached = parallel_incentive_sweep(graphs, grid=8, processes=2,
                                                  ctx=EngineContext(cache_size=0))
    assert serial_cached == serial_uncached
    assert serial_cached == two_procs_cached
    assert serial_cached == two_procs_uncached


def test_parallel_sweep_honors_ctx_workers_default():
    graphs = _rings(2, count=2, n=4)
    ctx = EngineContext(workers=2)
    # processes=None defers to ctx.workers; results must still match serial
    via_ctx = parallel_incentive_sweep(graphs, grid=8, processes=None, ctx=ctx)
    serial = parallel_incentive_sweep(graphs, grid=8, processes=0)
    assert via_ctx == serial
