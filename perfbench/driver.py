"""Thin driver for the library workloads (``ring_solve``, ``sim_churn``).

Runs in its own process so its import, memory and CPU are the program's
alone::

    python3 perfbench/driver.py ring_solve --seed 0 --seconds 10 [--trace]
    python3 perfbench/driver.py sim_churn --seed 0 --seconds 10 --setup-only

It prints ``ready`` once the program is imported and the inputs are built
(the benchmark's set-up time ends there), then measures a closed loop for
``--seconds`` (finishing the current cycle of ops) and prints one JSON
line of raw measurements for ``run.py``.  With ``--trace`` it measures
two halves of ``--seconds``, each on a fresh engine context: the first
untraced, the second with a :class:`repro.obs.Tracer` attached and a span
around every public call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

from inputs import EXACT_REFERENCES, RING_CYCLE, ring_solve_inputs, sim_scenario
from repro import EXACT, EngineContext, bd_allocation, bottleneck_decomposition
from repro.obs import Tracer
from repro.oracle import allocation_problems, decomposition_problems
from repro.sim import run_scenario
from procgroup import cpu_s, peak_kb

#: Inputs built ahead: several times what the current code gets through
#: in a minute, so the loop ends on the clock.
RING_SOLVE_OPS = 400
SIM_OPS = 400
#: ``sim_churn`` scenarios also run before the clock, each phase on a
#: context of its own configuration; the timed results must equal them.
SIM_REFERENCES = 2
#: Strategies whose ratio the paper does not bound.  A coalition's joint
#: ratio is not a single agent's: when the partner is adjacent, the
#: splitter's zero-weight identity hands its whole endowment to the
#: partner, so the joint ratio grows with the splitter's weight.  The
#: simulator reports these as zeta violations; the check below demands
#: that it reports every one of them and no other.
UNBOUNDED = ("coalition",)


def _solution(d, a) -> tuple:
    pairs = [(sorted(p.B), sorted(p.C), p.alpha) for p in d.pairs]
    return pairs, list(a.utilities)


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True)
                          .encode()).hexdigest()


class RingSolve:
    """Decomposition + allocation of distinct rings."""

    cycle = RING_CYCLE

    def __init__(self, seed: int) -> None:
        self.ops = ring_solve_inputs(seed, RING_SOLVE_OPS)
        self.refs: dict[int, tuple] = {}

    def prepare(self, traced: bool) -> None:
        """Exact answers for the first exact ops, on a cache-less context
        (tracing does not change them, so they are computed once)."""
        for i, (exact, g) in enumerate(self.ops):
            if len(self.refs) == EXACT_REFERENCES:
                break
            if exact:
                ctx = EngineContext(cache_size=0)
                d = bottleneck_decomposition(g, EXACT, ctx)
                self.refs[i] = _solution(d, bd_allocation(g, d, EXACT, ctx))

    @staticmethod
    def solve(op, ctx: EngineContext):
        exact, g = op
        backend = EXACT if exact else None
        with ctx.span("bench.decompose_exact" if exact else "bench.decompose"):
            d = bottleneck_decomposition(g, backend, ctx)
        with ctx.span("bench.allocate"):
            a = bd_allocation(g, d, backend, ctx)
        return d, a

    def problems(self, results: list, stats: dict) -> list:
        out = []
        for i, (d, a) in enumerate(results):
            g = self.ops[i][1]
            bad = decomposition_problems(g, d) + allocation_problems(g, a, d.backend)
            if i in self.refs and _solution(d, a) != self.refs[i]:
                bad.append("exact result differs from the reference")
            out.append(bad)
        return out


class SimChurn:
    """Seeded ``run_scenario`` calls, a new scenario seed each."""

    cycle = 1

    def __init__(self, seed: int) -> None:
        self.procs = len(os.sched_getaffinity(0))
        self.ops = [sim_scenario(seed, i) for i in range(SIM_OPS)]
        self.refs: dict[int, str] = {}

    def prepare(self, traced: bool) -> None:
        """Digests of the first scenarios, run on a context configured as
        the phase's is: the configuration is part of the digest."""
        self.refs = {
            i: _digest(run_scenario(
                self.ops[i], ctx=EngineContext(tracer=Tracer() if traced else None),
                processes=self.procs))
            for i in range(SIM_REFERENCES)}

    def solve(self, scen, ctx: EngineContext):
        with ctx.span("bench.run_scenario"):
            return run_scenario(scen, ctx=ctx, processes=self.procs)

    def problems(self, results: list, stats: dict) -> list:
        out = []
        for i, r in enumerate(results):
            bound = 2.0 + r.scenario.zeta_slack
            above = [o for rep in r.reports for o in rep.outcomes
                     if not o.ratio <= bound]
            bad = [f"{o.strategy} zeta {o.ratio!r} above {bound!r}"
                   for o in above if o.strategy not in UNBOUNDED]
            if len(above) != len(r.violations):
                bad.append(f"{len(above)} outcomes above zeta {bound!r}, but "
                           f"{len(r.violations)} zeta violations reported")
            if i in self.refs and _digest(r) != self.refs[i]:
                bad.append("result differs from a run of the same scenario "
                           "before the clock")
            out.append(bad)
        reported = sum(len(r.violations) for r in results)
        if results and stats["sim_zeta_violations"] != reported:
            out[-1].append(f"sim_zeta_violations counter reads "
                           f"{stats['sim_zeta_violations']}, results list "
                           f"{reported}")
        return out


WORKLOADS = {"ring_solve": RingSolve, "sim_churn": SimChurn}


def _phase(work, seconds: float, tracer) -> dict:
    """A closed loop over ``work.ops`` on a fresh context, for ``seconds``
    and then to the end of the current ``work.cycle`` of ops.  References
    are computed before the clock starts; the checks run after the clock
    and the CPU reading have stopped."""
    work.prepare(tracer is not None)
    ctx = EngineContext(tracer=tracer)
    results, lat = [], []
    cpu0 = cpu_s(os.getpgrp())
    t0 = perf_counter()
    for op in work.ops:
        if len(results) % work.cycle == 0 and perf_counter() - t0 >= seconds:
            break
        s = perf_counter()
        results.append(work.solve(op, ctx))
        lat.append(perf_counter() - s)
    elapsed = perf_counter() - t0
    cpu1 = cpu_s(os.getpgrp())
    stats = ctx.stats()
    bad = work.problems(results, stats)
    return {
        "ops": len(results), "elapsed_s": elapsed, "latency_s": lat,
        "ok": [not b for b in bad],
        "problems": [f"op {i}: {b[0]}" for i, b in enumerate(bad) if b],
        "cpu_self_s": cpu1[0] - cpu0[0], "cpu_workers_s": cpu1[1] - cpu0[1],
        "procs": getattr(work, "procs", 0), "stats": stats,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if os.getpgrp() != os.getpid():
        os.setpgid(0, 0)  # lead a group, so that CPU and memory are ours alone
    work = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        half = args.seconds / 2
        out = {"untraced": _phase(work, half, None),
               "traced": _phase(work, half, Tracer())}
    else:
        out = {"untraced": _phase(work, args.seconds, None)}
    # The group's memory, and no less than the largest reaped pool worker:
    # its pages were the program's own, though shared with this driver.
    out["peak_rss_kb"] = max(peak_kb(os.getpgrp()),
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(out, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
