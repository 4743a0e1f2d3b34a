"""Flow-template and flat-array view tests.

The engine's flow paths rest on templates producing *bit-identical*
networks to the reference ``add_edge`` builds (``parametric_network``,
``pair_network``) -- same arc order, same capacity objects -- so these
tests compare the raw ``head`` / ``adj`` / ``cap`` columns, not just
solved flow values.
"""

import math
from fractions import Fraction

import pytest

from repro.core.bottleneck import _instantiate_parametric, parametric_network
from repro.engine import EngineContext
from repro.exceptions import FlowError
from repro.flow import (
    FlowNetwork,
    dinic_max_flow,
    network_from_arrays,
    network_to_arrays,
    pair_template,
    parametric_template,
)
from repro.graphs import ring
from repro.numeric import EXACT, FLOAT


def _assert_same_network(a: FlowNetwork, b: FlowNetwork):
    assert a.n == b.n
    assert a.head == b.head
    assert a.adj == b.adj
    assert a.cap == b.cap
    assert a.orig_cap == b.orig_cap


@pytest.mark.parametrize("backend", [FLOAT, EXACT], ids=["float", "exact"])
def test_parametric_template_matches_classic_build(backend):
    g = ring([backend.scalar(w) for w in (3, 1, 4, 1, 5, 9)])
    active = [0, 1, 2, 4, 5]
    lam = backend.scalar(1) / backend.scalar(2)
    classic, verts_c = parametric_network(g, active, lam, backend)
    ctx = EngineContext()
    templ, verts_t = _instantiate_parametric(g, active, lam, backend, ctx)
    assert verts_c == verts_t
    _assert_same_network(classic, templ)
    # and therefore the solved flow is identical too
    assert dinic_max_flow(classic, 0, 1) == dinic_max_flow(templ, 0, 1)


def test_template_shares_structure_but_not_capacities():
    g = ring([2.0, 3.0, 5.0, 7.0])
    tpl = parametric_template(g, [0, 1, 2, 3])
    w = [2.0, 3.0, 5.0, 7.0]
    n1 = tpl.instantiate([0.5 * wi for wi in w], w, math.inf, 0.0)
    n2 = tpl.instantiate([0.25 * wi for wi in w], w, math.inf, 0.0)
    # head/adj shared read-only; cap fresh per instance
    assert n1.head is n2.head and n1.adj is n2.adj
    assert n1.cap is not n2.cap
    dinic_max_flow(n1, 0, 1)
    assert n2.cap == n2.orig_cap  # solving n1 never touches n2


def test_pair_template_arc_map_matches_classic():
    from repro.core.allocation import _pair_network, pair_network

    g = ring([1.0, 2.0, 3.0, 4.0])
    B, C = [1], [0, 2]
    sink_caps = [0.5, 1.5]
    classic, arcs_c = pair_network(g, B, C, sink_caps, FLOAT)
    ctx = EngineContext()
    templ, arcs_t = _pair_network(g, B, C, sink_caps, FLOAT, ctx)
    _assert_same_network(classic, templ)
    assert arcs_c == arcs_t


def test_template_rejects_degenerate_network():
    from repro.flow import FlowTemplate

    with pytest.raises(FlowError):
        FlowTemplate(1, [], [[]], [], [])


def test_network_arrays_round_trip():
    g = ring([3.0, 1.0, 4.0, 1.0])
    net, _ = parametric_network(g, [0, 1, 2, 3], 0.5, FLOAT)
    arrays = network_to_arrays(net)
    back = network_from_arrays(arrays)
    _assert_same_network(net, back)
    # inf caps survive the float64 image
    assert any(math.isinf(c) for c in back.cap)
    # the rebuilt network is independently solvable with the same value
    assert dinic_max_flow(back, 0, 1) == dinic_max_flow(net, 0, 1)


def test_network_arrays_refuse_exact_capacities():
    g = ring([Fraction(1), Fraction(2), Fraction(3)])
    net, _ = parametric_network(g, [0, 1, 2], Fraction(1, 2), EXACT)
    with pytest.raises(FlowError):
        network_to_arrays(net)
