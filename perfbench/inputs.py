"""Seeded inputs for every benchmark workload.

Every input here is a pure function of ``(seed, index)``: the same seed gives
byte-identical inputs, and the first ``k`` inputs do not depend on how many
are built, so a faster program that gets further through its list still
sees the same prefix.  The program under test receives only what these
functions return.
"""

from __future__ import annotations

import json

import numpy as np

from repro.graphs import canonical_form, ring
from repro.io import graph_to_dict
from repro.sim import STRATEGIES, Scenario

# Stream tags keep the workloads' random streams independent of each other.
_TAG_RING, _TAG_EXACT, _TAG_MISS, _TAG_ZIPF, _TAG_SIM = 1, 2, 3, 4, 5

#: ``ring_solve`` runs in cycles: one float ring of each size, in this
#: order, then one exact ring of ``EXACT_N`` vertices.  Decomposition cost
#: grows about n^2, so every seed gets the same sizes and only the weights
#: depend on it, and a run stops at a cycle boundary, so that every run
#: measures the same size mix.  Two of the five ops are n=512, so the
#: median latency falls inside one size instead of between two.
RING_SIZES = (256, 512, 768, 512)
EXACT_N = 128
RING_CYCLE = len(RING_SIZES) + 1
#: Exact ops whose answers are computed before the clock; later exact ops
#: are checked by the invariants alone.
EXACT_REFERENCES = 8

#: ``serve_*`` ring sizes (inclusive).
SERVE_N = (8, 32)
#: ``serve_zipf``: distinct economies and the popularity exponent.  The
#: working set is four times the daemon's default 1024-entry cache.
ZIPF_POOL = 4096
ZIPF_S = 1.0
#: Share of served requests whose response is compared bit for bit with a
#: fresh single-shot solve.
AUDIT_RATE = 1 / 16

#: ``sim_churn`` scenario shape: all six strategies, one adversary each.
#: Every epoch after the first swaps one honest agent for a newcomer, so
#: each epoch solves a new ring of ``SIM_N`` vertices.  With a churn
#: probability below one, an epoch without an event would repeat the last
#: ring and be served almost wholly from the cache, and the share of such
#: epochs would vary from run to run by more than the host does.  A swap
#: keeps ``n``, so the bounds only have to leave room for it.
SIM_EPOCHS = 2
SIM_N, SIM_N_MIN, SIM_N_MAX = 20, 16, 32


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _loguniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> list:
    return [float(x) for x in np.exp(rng.uniform(np.log(lo), np.log(hi), n))]


def ring_solve_op(seed: int, i: int):
    """Op ``i`` of ``ring_solve``: ``(exact, graph)``."""
    k = i % RING_CYCLE
    if k == len(RING_SIZES):
        rng = _rng(seed, _TAG_EXACT, i // RING_CYCLE)
        return True, ring([int(x) for x in rng.integers(1, 101, EXACT_N)])
    n = RING_SIZES[k]
    return False, ring(_loguniform(_rng(seed, _TAG_RING, i), n, 0.05, 20.0))


def ring_solve_inputs(seed: int, count: int) -> list:
    return [ring_solve_op(seed, i) for i in range(count)]


def _request_line(req_id: int, g) -> bytes:
    req = {"op": "solve", "id": req_id, "graph": graph_to_dict(g)}
    return json.dumps(req, separators=(",", ":")).encode("utf-8") + b"\n"


def _serve_ring(rng: np.random.Generator, n=None):
    if n is None:
        n = int(rng.integers(SERVE_N[0], SERVE_N[1] + 1))
    return ring(_loguniform(rng, n, 0.1, 10.0))


def serve_miss_graphs(seed: int, count: int) -> list:
    """``count`` rings, pairwise distinct under rotation and reflection.

    A draw whose canonical form was already used is replaced, so every
    request is a natural cache miss.
    """
    rng = _rng(seed, _TAG_MISS)
    seen: set = set()
    out = []
    while len(out) < count:
        g = _serve_ring(rng)
        key = canonical_form(g)[0]
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def serve_zipf_graphs(seed: int, count: int) -> list:
    """``count`` requests over ``ZIPF_POOL`` economies with Zipf
    popularity, each under a random rotation and reflection.

    The economy of popularity rank ``r`` has a fixed size, the same for
    every seed: the top few ranks carry a large share of the traffic, and
    their sizes would otherwise set the hit cost of a whole run.
    """
    rng = _rng(seed, _TAG_ZIPF)
    lo, hi = SERVE_N
    bases = [[float(w) for w in _serve_ring(rng, lo + (r * 11) % (hi - lo + 1)).weights]
             for r in range(ZIPF_POOL)]
    cdf = np.cumsum(1.0 / np.arange(1, ZIPF_POOL + 1, dtype=float) ** ZIPF_S)
    cdf /= cdf[-1]
    out = []
    for _ in range(count):
        w = bases[min(int(np.searchsorted(cdf, rng.random())), ZIPF_POOL - 1)]
        if rng.integers(2):
            w = w[::-1]
        rot = int(rng.integers(len(w)))
        out.append(ring(w[rot:] + w[:rot]))
    return out


def serve_requests(workload: str, seed: int, count: int) -> list:
    """``(graph, wire line, audited)`` for each request of a serve workload."""
    build = serve_miss_graphs if workload == "serve_miss" else serve_zipf_graphs
    graphs = build(seed, count)
    audit = _rng(seed, _TAG_MISS if workload == "serve_miss" else _TAG_ZIPF,
                 1).random(count) < AUDIT_RATE
    return [(g, _request_line(i, g), bool(a))
            for i, (g, a) in enumerate(zip(graphs, audit))]


def sim_scenario(seed: int, i: int) -> Scenario:
    """Op ``i`` of ``sim_churn``: a scenario of its own seed."""
    scen_seed = int(_rng(seed, _TAG_SIM, i).integers(2**31))
    return Scenario(
        name="sim_churn", seed=scen_seed, epochs=SIM_EPOCHS, n0=SIM_N,
        n_min=SIM_N_MIN, n_max=SIM_N_MAX, churn_rate=1.0, swap_churn=True,
        adversaries=len(STRATEGIES), strategies=STRATEGIES,
    )
