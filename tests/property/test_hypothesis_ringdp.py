"""Property tests: the ring DP against the flow path it replaced.

The flow decomposition stays as the DP's differential oracle, and the exact
backend certifies both.  The contract:

* exact backend: the DP and the flow path agree pair for pair;
* floats inside the DP's guard: bit-identical to the flow path, *or* the
  DP's pairs equal the exact backend's on the dyadic weights ``Fraction(w)``
  (the float flow path can misplace a tie; the DP decides exactly);
* the decomposition of a disjoint union is the alpha-merge of its
  components' decompositions -- the identity the DP's per-component
  recursion rests on.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core import bottleneck_decomposition, flow_decomposition
from repro.core.ringdp import dp_weights
from repro.engine import EngineContext
from repro.exceptions import NumericalInstabilityError
from repro.graphs import WeightedGraph, path, ring
from repro.io.serialization import graph_from_dict
from repro.numeric import EXACT, FLOAT
from repro.oracle import decomposition_problems
from repro.oracle.differential import ring_dp_problems

CORPUS = Path(__file__).resolve().parents[2] / "corpus"


def _ctx():
    return EngineContext(cache_size=0)


def _bits(d):
    return [(p.B, p.C, repr(p.alpha)) for p in d.pairs]


def _sets(d):
    return [(p.B, p.C) for p in d.pairs]


def _shape(ws, is_ring):
    return ring(ws) if is_ring or len(ws) < 2 else path(ws)


exact_ws = st.lists(st.integers(1, 40).map(Fraction), min_size=3, max_size=12)
# Integer-valued floats are tie-heavy: the float flow path's weak spot.
tie_ws = st.lists(st.integers(1, 6).map(float), min_size=3, max_size=16)
lognormal_ws = st.lists(
    st.floats(min_value=-3.0, max_value=3.0).map(math.exp), min_size=3, max_size=16
)
pool_ws = st.lists(
    st.sampled_from([1.0, 0.1, 0.3, 2.0, 3.5, 7.25]), min_size=3, max_size=12
)


@given(exact_ws, st.booleans())
def test_exact_dp_identical_to_flow(ws, is_ring):
    g = _shape(ws, is_ring)
    assert dp_weights(g, EXACT) is not None
    d = bottleneck_decomposition(g, EXACT, _ctx())
    f = flow_decomposition(g, EXACT, _ctx())
    assert [(p.B, p.C, p.alpha) for p in d.pairs] == [
        (p.B, p.C, p.alpha) for p in f.pairs
    ]


def _float_dp_matches_flow_or_exact(ws, is_ring):
    g = _shape(ws, is_ring)
    assert dp_weights(g, FLOAT) is not None
    d = bottleneck_decomposition(g, FLOAT, _ctx())
    assert decomposition_problems(g, d) == []
    if _bits(d) != _bits(flow_decomposition(g, FLOAT, _ctx())):
        dyadic = g.with_weights([Fraction(w) for w in ws])
        assert _sets(d) == _sets(flow_decomposition(dyadic, EXACT, _ctx()))


@given(tie_ws, st.booleans())
def test_float_dp_matches_flow_or_exact_on_ties(ws, is_ring):
    _float_dp_matches_flow_or_exact(ws, is_ring)


@given(lognormal_ws, st.booleans())
def test_float_dp_matches_flow_or_exact_on_lognormal(ws, is_ring):
    _float_dp_matches_flow_or_exact(ws, is_ring)


@given(pool_ws, st.booleans())
def test_float_dp_matches_flow_or_exact_on_pool(ws, is_ring):
    _float_dp_matches_flow_or_exact(ws, is_ring)


def test_float_tie_the_flow_path_misplaces():
    # Flow returns B = {0, 2}, C = {1, 3}: a bottleneck, not the maximal
    # one.  The oracle then consults the exact backend (2 checks).
    g = ring([1.0, 0.1, 0.1, 1.0])
    d = bottleneck_decomposition(g, FLOAT, _ctx())
    assert _sets(d) == [(frozenset(range(4)), frozenset(range(4)))]
    assert ring_dp_problems(g, d) == ([], 2)


def _disjoint_union(g, h):
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return WeightedGraph(g.n + h.n, edges, list(g.weights) + list(h.weights))


@given(exact_ws, st.booleans(), exact_ws, st.booleans())
def test_alpha_merge_identity_on_disjoint_unions(ws1, ring1, ws2, ring2):
    g, h = _shape(ws1, ring1), _shape(ws2, ring2)
    merged: dict = {}
    for d, shift in ((flow_decomposition(g, EXACT, _ctx()), 0),
                     (flow_decomposition(h, EXACT, _ctx()), g.n)):
        for p in d.pairs:
            B, C = merged.setdefault(p.alpha, (set(), set()))
            B.update(v + shift for v in p.B)
            C.update(v + shift for v in p.C)
    want = [(frozenset(merged[a][0]), frozenset(merged[a][1]), a)
            for a in sorted(merged)]
    union = _disjoint_union(g, h)
    for decompose in (bottleneck_decomposition, flow_decomposition):
        got = decompose(union, EXACT, _ctx())
        assert [(p.B, p.C, p.alpha) for p in got.pairs] == want


def _corpus_graph(name):
    rec = json.loads((CORPUS / f"{name}.json").read_text())
    return graph_from_dict(rec["payload"]["graph"])


@pytest.mark.parametrize("name", ["decomposition-50394cbab58d",
                                  "decomposition-09f79b9c8cc3"])
def test_near_tie_corpus_records_through_the_dp(name):
    g = _corpus_graph(name)
    assert dp_weights(g, FLOAT) is not None
    d = bottleneck_decomposition(g, FLOAT, _ctx())
    assert decomposition_problems(g, d) == []
    assert _bits(d) == _bits(flow_decomposition(g, FLOAT, _ctx()))
    assert ring_dp_problems(g, d) == ([], 1)


def test_dbl_max_corpus_record_raises_typed_error_on_the_dp_path():
    g = _corpus_graph("decomposition-6d8d521248e9")
    assert dp_weights(g, FLOAT) is not None
    with pytest.raises(NumericalInstabilityError):
        bottleneck_decomposition(g, FLOAT, _ctx())
