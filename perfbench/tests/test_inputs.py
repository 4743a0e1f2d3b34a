"""Determinism self-test of the benchmark's inputs.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import pytest  # noqa: E402

from inputs import (  # noqa: E402
    ring_solve_inputs,
    serve_miss_graphs,
    serve_requests,
    sim_scenario,
)
from repro.graphs import canonical_form, ring  # noqa: E402
from repro.io import graph_to_dict  # noqa: E402
from repro.sim import ChurnSchedule, Population  # noqa: E402


def _ring_solve_bytes(seed: int, count: int = 12) -> bytes:
    ops = [(exact, graph_to_dict(g)) for exact, g in ring_solve_inputs(seed, count)]
    return json.dumps(ops).encode()


def _serve_bytes(workload: str, seed: int, count: int = 200) -> bytes:
    return b"".join(line + (b"A" if audited else b"-")
                    for _g, line, audited in serve_requests(workload, seed, count))


def _sim_bytes(seed: int, count: int = 8) -> bytes:
    return json.dumps([asdict(sim_scenario(seed, i)) for i in range(count)]).encode()


INPUT_BYTES = {
    "ring_solve": _ring_solve_bytes,
    "serve_miss": lambda seed: _serve_bytes("serve_miss", seed),
    "serve_zipf": lambda seed: _serve_bytes("serve_zipf", seed),
    "sim_churn": _sim_bytes,
}


@pytest.mark.parametrize("workload", sorted(INPUT_BYTES))
def test_same_seed_same_bytes(workload):
    build = INPUT_BYTES[workload]
    assert build(7) == build(7)


@pytest.mark.parametrize("workload", sorted(INPUT_BYTES))
def test_different_seeds_differ(workload):
    build = INPUT_BYTES[workload]
    assert build(7) != build(8)


def test_prefix_does_not_depend_on_count():
    assert _ring_solve_bytes(3, 6) == json.dumps(json.loads(_ring_solve_bytes(3, 12))[:6]).encode()
    short = serve_requests("serve_zipf", 3, 50)
    long = serve_requests("serve_zipf", 3, 120)
    assert [line for _g, line, _a in short] == [line for _g, line, _a in long[:50]]


def _brute_force_key(weights: list) -> tuple:
    """Smallest rotation of the weights or of their reflection."""
    n = len(weights)
    arrangements = []
    for seq in (weights, weights[::-1]):
        arrangements += [tuple(seq[r:] + seq[:r]) for r in range(n)]
    return min(arrangements)


def test_serve_miss_instances_pairwise_non_isomorphic():
    graphs = serve_miss_graphs(11, 600)
    keys = [canonical_form(g)[0] for g in graphs]
    assert len(set(keys)) == len(keys)
    brute = {_brute_force_key(list(g.weights)) for g in graphs}
    assert len(brute) == len(graphs)


def test_canonical_form_sees_rotation_and_reflection():
    g = serve_miss_graphs(11, 1)[0]
    w = list(g.weights)
    twin = ring((w[::-1])[3:] + (w[::-1])[:3])
    assert canonical_form(twin)[0] == canonical_form(g)[0]


def test_sim_churn_every_epoch_solves_a_new_ring_of_one_size():
    for i in range(20):
        scen = sim_scenario(5, i)
        sched, pop = ChurnSchedule(scen), Population.initial(scen)
        rings = []
        for epoch in range(scen.epochs):
            pop = pop.apply(sched.event(epoch, pop.honest_ids(), pop.n, pop.next_id))
            rings.append(canonical_form(pop.ring()[0])[0])
            assert pop.n == scen.n0
        assert len(set(rings)) == len(rings)
