"""Process-parallel sweep execution, with optional supervision.

Incentive-ratio sweeps are embarrassingly parallel: each (instance, agent)
cell is an independent best-response search taking milliseconds to seconds.
This module provides a deterministic ``multiprocessing`` map tailored to
the library's sweep shape:

* work items are (seed, payload) pairs; every worker re-derives its own RNG
  from the seed (never shares generator state across processes -- the same
  per-cell seeding discipline as :func:`repro.analysis.sweep.cell_rng`),
* results come back in submission order regardless of completion order, so
  parallel and serial runs are bit-identical,
* ``processes=0`` (the default) short-circuits to a serial loop, which
  keeps tests fast and avoids fork overhead for small sweeps.

Two execution paths share that contract.  The *legacy* path is a bare
``Pool.map`` with an explicit, configurable start method -- fastest when
nothing can go wrong (tests, smoke runs).  The *supervised* path routes
cells through :func:`repro.runtime.supervised_map` whenever the resolved
:class:`~repro.runtime.RuntimePolicy` asks for timeouts, retries,
checkpointing, or fault injection -- the ``full``-scale overnight
configuration, where a hung Dinkelbach iteration or an OOM-killed worker
must cost one retried cell, not the whole sweep.

Graphs and results cross process boundaries by pickling; everything in
:mod:`repro.graphs` is plain-data and pickles cheaply.  Engine
configuration crosses as a frozen :class:`~repro.engine.EngineSpec` --
never as a live :class:`~repro.engine.EngineContext`, whose cache and
counters are per-process state -- and each worker memoizes one rebuilt
context per spec so all of its cells share a decomposition cache.  Worker
counters and spans are *not* discarded: every rebuilt context registers
with the :mod:`repro.obs.metrics` drain protocol, each cell ships its
delta back (piggybacked on the cell result here, on the supervisor's
result-queue messages in the supervised path), and the parent merges them
into the caller's context -- so a parallel sweep's ``--stats`` totals
match the serial run's (bit-identically so when the per-process
decomposition cache is disabled, i.e. nothing scheduling-dependent can
change how much work each cell performs).
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from ..engine import EngineContext, EngineSpec, resolve_context
from ..graphs import WeightedGraph
from ..numeric import EXACT
from ..obs.metrics import (
    absorb_metrics,
    drain_worker_metrics,
    register_worker_context,
    sync_worker_metrics,
)
from ..runtime import RuntimePolicy, open_journal, resolve_policy, supervised_map

__all__ = ["parallel_map", "parallel_incentive_sweep", "sweep_fingerprint"]

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    processes: int = 0,
    chunksize: int = 1,
    start_method: str = "fork",
) -> list[R]:
    """Order-preserving map, serial (``processes=0``) or process-parallel.

    ``fn`` must be picklable (module-level function or functools.partial of
    one).  The multiprocessing start method is explicit and configurable:
    ``"fork"`` (the default, and what this function always actually used)
    is fastest on Linux, ``"spawn"`` is the portable choice, and
    ``"forkserver"`` splits the difference.  Teardown is unconditional --
    on ``KeyboardInterrupt`` (or any other error) the pool is terminated
    and joined before the exception propagates, so an interrupted sweep
    never leaves orphaned workers behind.
    """
    items = list(items)
    if processes <= 0 or len(items) <= 1:
        return [fn(x) for x in items]
    pool = mp.get_context(start_method).Pool(processes=processes)
    try:
        out = pool.map(fn, items, chunksize=max(1, chunksize))
        pool.close()
        pool.join()
        return out
    except BaseException:
        # Covers KeyboardInterrupt: kill the workers *now*, reap them, then
        # re-raise -- no orphans.
        pool.terminate()
        pool.join()
        raise


#: Per-process memo of contexts rebuilt from specs (one cache per worker).
_WORKER_CONTEXTS: dict[EngineSpec, EngineContext] = {}


def _context_for(spec: EngineSpec | None) -> EngineContext | None:
    if spec is None:
        return None
    ctx = _WORKER_CONTEXTS.get(spec)
    if ctx is None:
        ctx = _WORKER_CONTEXTS.setdefault(spec, spec.build())
        # Opt the rebuilt context into the cross-process metrics protocol:
        # the work its counters (and tracer) accumulate is drained as deltas
        # and merged back into whichever context owns the sweep.
        register_worker_context(ctx)
    return ctx


def _cell_with_metrics(fn: Callable[[T], R], args: T) -> tuple[R, Optional[dict]]:
    """Run one cell and pair its value with the worker's metrics delta.

    The legacy ``Pool.map`` path has no side channel next to the result
    (unlike the supervisor's result-queue messages), so the delta rides in
    the return tuple and the parent unwraps it.  Module-level so
    ``functools.partial(_cell_with_metrics, _ratio_cell)`` stays picklable
    under every start method.
    """
    value = fn(args)
    return value, drain_worker_metrics()


def _ratio_cell(args: tuple) -> float:
    """One (graph, vertex) best-response cell; 4th tuple slot (optional)
    is an :class:`EngineSpec` rebuilt into a per-worker context."""
    g, v, grid, *rest = args
    ctx = _context_for(rest[0] if rest else None)
    from ..attack import best_split

    return best_split(g, v, grid=grid, ctx=ctx).ratio


def _ratio_cell_exact(args: tuple) -> float:
    """Precision-escalated twin of :func:`_ratio_cell`: the same cell under
    the exact ``Fraction`` backend, where float overflow, NaN corruption,
    and rounding-induced non-convergence cannot occur.  Used by the
    supervisor after a typed numeric failure exhausts its float retries."""
    g, v, grid, *rest = args
    ctx = _context_for(rest[0] if rest else None)
    from ..attack import best_split

    return best_split(g, v, grid=grid, backend=EXACT, ctx=ctx).ratio


def sweep_fingerprint(
    cells: Sequence[tuple], grid: int, spec: EngineSpec | None
) -> str:
    """Content hash identifying one incentive sweep for checkpoint resume.

    Folds in every input that determines cell values -- the instances
    (weights by exact hex), the vertex per cell, the search grid, and the
    engine configuration -- so a journal can never be resumed against a
    different sweep without tripping the fingerprint check.  The solver
    and engine names are the literals earlier releases folded in, so their
    journals still resume.
    """
    h = hashlib.sha256()
    h.update(f"grid={grid}".encode())
    if spec is not None:
        h.update(
            repr(("dinic", spec.backend.name, spec.zero_tol, "columnar")).encode()
        )
    for g, v in cells:
        h.update(f"|{v}|{g.n}".encode())
        for u, w in g.edges:
            h.update(f",{u},{w}".encode())
        for w in g.weights:
            h.update((w.hex() if isinstance(w, float) else repr(w)).encode())
    return h.hexdigest()[:16]


def parallel_incentive_sweep(
    graphs: Iterable[WeightedGraph],
    grid: int = 48,
    processes: Optional[int] = None,
    ctx: EngineContext | None = None,
    policy: Optional[RuntimePolicy] = None,
    checkpoint: Optional[str] = None,
) -> list[float]:
    """Worst ``zeta_v`` per instance, optionally across processes.

    Expands every (graph, vertex) pair into one work item so load balances
    even when instance sizes vary, then folds the per-vertex ratios back
    into per-instance maxima.  ``processes=None`` defers to ``ctx.workers``
    (serial for the default context); serial runs share ``ctx`` directly so
    its counters and cache see every cell, and parallel runs merge every
    worker's counter/span deltas back into ``ctx`` (see
    :mod:`repro.obs.metrics`), so ``--stats`` reports true totals either
    way.

    Supervision: when the resolved policy (explicit ``policy`` argument,
    else ``ctx.runtime``, else the inert default) enables timeouts,
    retries, fault injection, or a checkpoint, cells run under
    :func:`repro.runtime.supervised_map` -- per-cell wall-clock budgets,
    capped-backoff retries, worker respawn, serial degradation, and
    escalation of typed numeric failures to the exact backend.  Results
    remain bit-identical to an unsupervised serial run; a sweep resumed
    from ``checkpoint`` after a kill is bit-identical to an uninterrupted
    one.
    """
    rctx = resolve_context(ctx)
    rpolicy = resolve_policy(rctx, policy)
    checkpoint = checkpoint if checkpoint is not None else rpolicy.checkpoint
    procs = rctx.resolve_workers(processes)
    graphs = list(graphs)
    cells: list[tuple[WeightedGraph, int]] = []
    offsets: list[int] = []
    for g in graphs:
        offsets.append(len(cells))
        cells.extend((g, v) for v in g.vertices())

    supervised = rpolicy.supervised or checkpoint is not None
    if not supervised and (procs <= 0 or len(cells) <= 1):
        from ..attack import best_split

        flat = [best_split(g, v, grid=grid, ctx=rctx).ratio for g, v in cells]
    elif not supervised:
        import functools

        spec = rctx.spec()
        items = [(g, v, grid, spec) for g, v in cells]
        # Discard deltas pending from earlier unrelated work *before* the
        # pool exists, so forked workers inherit up-to-date drain marks and
        # report only their own cells.
        sync_worker_metrics()
        pairs = parallel_map(functools.partial(_cell_with_metrics, _ratio_cell),
                             items, processes=procs,
                             start_method=rpolicy.start_method)
        flat = [value for value, _ in pairs]
        for _, delta in pairs:
            absorb_metrics(delta, counters=rctx.counters,
                           tracer=getattr(rctx, "tracer", None))
    else:
        spec = rctx.spec()
        items = [(g, v, grid, spec) for g, v in cells]
        fingerprint = sweep_fingerprint(cells, grid, spec)
        journal = open_journal(checkpoint, fingerprint)
        try:
            flat = supervised_map(
                _ratio_cell,
                items,
                processes=procs,
                policy=rpolicy,
                counters=rctx.counters,
                escalate_fn=_ratio_cell_exact,
                journal=journal,
                tracer=getattr(rctx, "tracer", None),
            )
        finally:
            if journal is not None:
                journal.close()
    out: list[float] = []
    for i, g in enumerate(graphs):
        start = offsets[i]
        out.append(max(flat[start:start + g.n]))
    return out
