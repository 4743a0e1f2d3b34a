"""The ring DP (``core.ringdp``) and the float flow path's split-bottleneck fix.

The DP is checked against the brute-force oracle on unions of paths and
cycles; its guard decides which instances keep the flow path.  The flow
regression: on integer-valued float rings the parametric min cut, fed
``fl(lambda * w)`` at an exact tie, used to return part of a maximal
bottleneck and emit the rest as the next stage with the same ratio.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core import (
    BottleneckDecomposition,
    BottleneckPair,
    bottleneck_decomposition,
    brute_force_decomposition,
    flow_decomposition,
)
from repro.core.ringdp import MAX_WEIGHT_SPREAD, dp_weights
from repro.engine import EngineContext
from repro.exceptions import AuditError
from repro.graphs import WeightedGraph, random_ring, ring, star
from repro.numeric import EXACT, FLOAT
from repro.oracle import attach_auditor, decomposition_problems

# Float rings whose flow decomposition split one bottleneck in two stages.
SPLIT_13 = [2., 4., 5., 5., 1., 4., 6., 3., 6., 1., 6., 1., 4.]
SPLIT_24 = [2., 4., 3., 4., 6., 5., 1., 2., 4., 5., 3., 1.,
            3., 2., 1., 5., 6., 3., 6., 1., 4., 3., 5., 3.]


def _ctx():
    return EngineContext(cache_size=0)


def _sets(d):
    return [(p.B, p.C) for p in d.pairs]


@pytest.mark.parametrize("ws", [SPLIT_13, SPLIT_24], ids=["n13", "n24"])
@pytest.mark.parametrize("decompose", [flow_decomposition, bottleneck_decomposition])
def test_float_tie_is_one_stage(decompose, ws):
    g = ring(ws)
    d = decompose(g, FLOAT, _ctx())
    exact = flow_decomposition(ring([Fraction(w) for w in ws]), EXACT, _ctx())
    assert _sets(d) == _sets(exact)
    assert decomposition_problems(g, d) == []


def test_split_tie_pairs_are_named_by_the_invariants():
    g = ring(SPLIT_13)
    third = 0.6666666666666666
    pairs = [
        BottleneckPair(1, frozenset({10}), frozenset({9, 11}), 1 / 3),
        BottleneckPair(2, frozenset({8, 12}), frozenset({0, 7}), 0.5),
        BottleneckPair(3, frozenset({6}), frozenset({5}), third),
        BottleneckPair(4, frozenset({1, 3}), frozenset({2, 4}), third),
    ]
    problems = decomposition_problems(g, BottleneckDecomposition(g, pairs, FLOAT))
    assert problems == ["exact ratios not strictly increasing at pair 4: 2/3 -> 2/3"]


def test_dp_guard():
    assert dp_weights(ring([1.0, 2.0, 3.0]), FLOAT) is not None
    for ws in ([0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [5e-324, 1.0, 2.0],
               [1.0, 1.0, 2 * MAX_WEIGHT_SPREAD]):
        assert dp_weights(ring(ws), FLOAT) is None
    assert dp_weights(ring([1.0, 1.0, MAX_WEIGHT_SPREAD]), FLOAT) is not None
    assert dp_weights(star(1.0, [1.0, 2.0, 3.0]), FLOAT) is None
    assert dp_weights(ring([0, 1, 2]), EXACT) is None
    assert dp_weights(ring([Fraction(1, 2), Fraction(1, 3), 2]), EXACT) == [3, 2, 12]
    assert dp_weights(ring([0.5, 0.25, 3.0]), FLOAT) == [2, 1, 12]


def test_dp_matches_bruteforce_on_unions_of_paths_and_cycles():
    rng = random.Random(5)
    for _ in range(150):
        n, edges = 0, []
        while n < 4:
            m = rng.randint(2, 5)
            vs = list(range(n, n + m))
            edges += list(zip(vs, vs[1:]))
            if m >= 3 and rng.random() < 0.5:
                edges.append((vs[0], vs[-1]))
            n += m
        perm = list(range(n))
        rng.shuffle(perm)
        g = WeightedGraph(n, [(perm[a], perm[b]) for a, b in edges],
                          [Fraction(rng.randint(1, 6)) for _ in range(n)])
        d = bottleneck_decomposition(g, EXACT, _ctx())
        ref = brute_force_decomposition(g, EXACT)
        assert [(p.B, p.C, p.alpha) for p in d.pairs] == [
            (p.B, p.C, p.alpha) for p in ref.pairs]


def test_ring_decomposition_runs_dp_steps_not_flows():
    ctx = _ctx()
    g = random_ring(64, np.random.default_rng(0), "loguniform", 0.1, 10)
    d = bottleneck_decomposition(g, FLOAT, ctx)
    assert ctx.counters.flow_calls == 0
    assert ctx.counters.dinkelbach_iterations > 0
    f = flow_decomposition(g, FLOAT, _ctx())
    assert [(p.B, p.C, repr(p.alpha)) for p in d.pairs] == [
        (p.B, p.C, repr(p.alpha)) for p in f.pairs]


def test_differential_audit_checks_dp_against_flow(monkeypatch):
    ctx = _ctx()
    attach_auditor(ctx, level="differential", sample_period=1)
    g = ring([1.0, 2.0, 3.0, 4.0, 2.5])
    bottleneck_decomposition(g, FLOAT, ctx)
    assert ctx.counters.audit_differential_checks >= 2  # brute force + flow
    assert ctx.counters.audit_disagreements == 0

    # A DP that always answers "everything" yields a well-formed unit pair:
    # the cheap invariants accept it, the differential oracles refute it.
    import repro.core.ringdp as ringdp

    monkeypatch.setattr(ringdp, "_minimizer", lambda w, P, Q, cyclic: [1] * len(w))
    with pytest.raises(AuditError, match="ring DP disagrees"):
        bottleneck_decomposition(ring([1.0, 10.0, 1.0, 10.0, 2.0]), FLOAT, ctx)
