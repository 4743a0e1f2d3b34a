"""Property tests: the engine's fast paths are bit-identical to their references.

The engine solves every flow network from a cached template, reads the
dynamics arrays off the cached CSR view, and searches Sybil splits with a
reusing evaluator.  Each of these is only safe because it matches, at the
bit level, a plain reference the library keeps beside it:

* template networks vs :func:`~repro.core.bottleneck.parametric_network`
  and :func:`~repro.core.allocation.pair_network` (same arcs, same
  capacity objects), on every network a decomposition or allocation
  actually solves;
* :meth:`ColumnarGraph.directed_arrays` vs ``dynamics._edge_arrays``;
* ``best_split`` vs the same search with every candidate evaluated by
  :func:`~repro.attack.sybil.attacker_utility`.

These properties are the contract, on both the float and the exact
backend; weights deliberately include ``-0.0``, subnormals and zeros (the
nastiest float citizens), and relabeled-isomorphic rings pin that label
permutations commute with the whole pipeline.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.attack import best_split
from repro.core import allocation, bd_allocation, bottleneck, flow_decomposition
from repro.core.dynamics import _edge_arrays
from repro.engine import EngineContext
from repro.graphs import ring
from repro.graphs.columnar import ColumnarGraph
from repro.numeric import EXACT, FLOAT
from repro.theory.breakpoints import decomposition_signature

from ..references import use_reference_networks, use_reference_split_utility


# -- strategies -------------------------------------------------------------

# A curated pool rather than st.floats(): every value is a legal weight,
# and the nasty cases (-0.0, the smallest subnormal, a near-underflow
# normal) are guaranteed to be drawn often instead of almost never.
float_pool = st.sampled_from(
    [1.0, 2.0, 3.5, 0.1, 7.25, 0.0, -0.0, 5e-324, 1e-300, 1e16]
)
float_weights_st = st.lists(float_pool, min_size=3, max_size=7).map(
    lambda ws: ws if sum(ws) > 0 else ws[:-1] + [1.0]
)
exact_weights_st = st.lists(
    st.integers(min_value=0, max_value=40).map(Fraction), min_size=3, max_size=7
).map(lambda ws: ws if sum(ws) > 0 else ws[:-1] + [Fraction(1)])


def _bits(xs):
    """repr-level fingerprint: equal iff equal as bit patterns / objects."""
    return [repr(x) for x in xs]


def _same_network(a, b) -> bool:
    return (
        a.n == b.n
        and a.head == b.head
        and a.adj == b.adj
        and _bits(a.cap) == _bits(b.cap)
        and _bits(a.orig_cap) == _bits(b.orig_cap)
    )


def _check_networks_against_references(mp) -> list:
    """Wrap the template builders so every network they hand out is first
    compared with the ``add_edge`` reference build; returns the list of
    networks checked."""
    checked = []
    instantiate = bottleneck._instantiate_parametric
    pair = allocation._pair_network

    def checked_parametric(g, active, lam, backend, ctx, w=None):
        net, verts = instantiate(g, active, lam, backend, ctx, w)
        ref, ref_verts = bottleneck.parametric_network(g, active, lam, backend)
        assert verts == ref_verts
        assert _same_network(net, ref)
        checked.append(net)
        return net, verts

    def checked_pair(g, B, C, sink_caps, backend, ctx):
        net, arc_of = pair(g, B, C, sink_caps, backend, ctx)
        ref, ref_arc_of = allocation.pair_network(g, B, C, sink_caps, backend)
        assert arc_of == ref_arc_of
        assert _same_network(net, ref)
        checked.append(net)
        return net, arc_of

    mp.setattr(bottleneck, "_instantiate_parametric", checked_parametric)
    mp.setattr(allocation, "_pair_network", checked_pair)
    return checked


# -- decompose (parametric networks) ----------------------------------------

def _decompose_both_ways(g, backend):
    with pytest.MonkeyPatch.context() as mp:
        checked = _check_networks_against_references(mp)
        d = flow_decomposition(g, backend, EngineContext())
    assert checked  # every Dinkelbach step solves a template network
    with pytest.MonkeyPatch.context() as mp:
        use_reference_networks(mp)
        ref = flow_decomposition(g, backend, EngineContext())
    assert decomposition_signature(d) == decomposition_signature(ref)
    return d, ref


@given(float_weights_st)
def test_decompose_bit_identical_float(ws):
    d, ref = _decompose_both_ways(ring(ws), FLOAT)
    assert _bits(d.alphas()) == _bits(ref.alphas())


@given(exact_weights_st)
def test_decompose_identical_exact(ws):
    d, ref = _decompose_both_ways(ring(ws), EXACT)
    assert d.alphas() == ref.alphas()


# -- allocate (pair networks) -----------------------------------------------

def _allocate_both_ways(g, backend):
    with pytest.MonkeyPatch.context() as mp:
        checked = _check_networks_against_references(mp)
        u = bd_allocation(g, backend=backend, ctx=EngineContext()).utilities
    assert checked  # every pair solves a template network
    with pytest.MonkeyPatch.context() as mp:
        use_reference_networks(mp)
        ref = bd_allocation(g, backend=backend, ctx=EngineContext()).utilities
    return u, ref


@given(float_weights_st)
def test_allocation_bit_identical_float(ws):
    u, ref = _allocate_both_ways(ring(ws), FLOAT)
    assert _bits(u) == _bits(ref)


@given(exact_weights_st)
def test_allocation_identical_exact(ws):
    u, ref = _allocate_both_ways(ring(ws), EXACT)
    assert list(u) == list(ref)


# -- dynamics ---------------------------------------------------------------

@given(float_weights_st)
def test_dynamics_bit_identical(ws):
    g = ring(ws)
    src, dst, rev, index = ColumnarGraph.from_graph(g).directed_arrays()
    rsrc, rdst, rrev, rindex = _edge_arrays(g)
    for got, want in ((src, rsrc), (dst, rdst), (rev, rrev)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # bit-level array equality
    assert index == rindex


# -- best response ----------------------------------------------------------

def _same_response(a, b):
    return (
        repr(a.w1) == repr(b.w1)
        and repr(a.w2) == repr(b.w2)
        and repr(a.utility) == repr(b.utility)
        and repr(a.honest_utility) == repr(b.honest_utility)
    )


def _best_split_both_ways(g, v, **kwargs):
    r = best_split(g, v, ctx=EngineContext(), **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        use_reference_split_utility(mp)
        ref = best_split(g, v, ctx=EngineContext(), **kwargs)
    return r, ref


@settings(max_examples=15)
@given(float_weights_st, st.integers(0, 6))
def test_best_response_bit_identical_float(ws, v_raw):
    g = ring(ws)
    r, ref = _best_split_both_ways(g, v_raw % g.n, grid=8, refine_iters=12)
    assert _same_response(r, ref)


@settings(max_examples=10)
@given(exact_weights_st, st.integers(0, 6))
def test_best_response_identical_exact(ws, v_raw):
    g = ring(ws)
    r, ref = _best_split_both_ways(
        g, v_raw % g.n, grid=6, refine_iters=8, backend=EXACT
    )
    assert _same_response(r, ref)


# -- relabeled-isomorphic rings ---------------------------------------------

# Positive integer-valued floats for the rotation property: rotation
# equivariance is only a *value*-level fact, never a bit-level one (flow
# augmenting paths are not rotation-symmetric, so utilities can move by an
# ulp; zero weights additionally hand the degenerate terminal pair out by
# vertex id).  What IS bit-level is the reference contract: the fast paths
# and the references walk the relabeled instance identically, so they must
# agree on it exactly.
int_float_weights_st = st.lists(
    st.integers(min_value=1, max_value=40).map(float), min_size=3, max_size=7
)


@settings(max_examples=15)
@given(int_float_weights_st, st.integers(1, 6))
def test_rotation_isomorphism_commutes_with_engines(ws, shift):
    """Relabeled-isomorphic rings: the decomposition structure and alphas
    rotate exactly, utilities rotate up to float tolerance, and the
    relabeled instance still gets bit-identical treatment from the fast
    paths and the references (a relabeling must never make them disagree
    -- labels feed the cache key, not the arithmetic)."""
    import math

    from repro.core import bottleneck_decomposition as bd

    n = len(ws)
    k = shift % n
    g = ring(ws)
    h = ring(ws[k:] + ws[:k])  # vertex v of h == vertex (v + k) % n of g
    # structure and alphas are exact under rotation (integer arithmetic:
    # each alpha is a ratio of exact integer sums, identical either way)
    dg, dh = bd(g, FLOAT, EngineContext()), bd(h, FLOAT, EngineContext())

    def rot(S):  # g's vertex v appears in h as (v - k) % n
        return frozenset((v - k) % n for v in S)

    assert [(rot(p.B), rot(p.C), p.alpha) for p in dg.pairs] == [
        (p.B, p.C, p.alpha) for p in dh.pairs
    ]
    ug, ug_ref = _allocate_both_ways(g, FLOAT)
    uh, uh_ref = _allocate_both_ways(h, FLOAT)
    for u_g, u_h in ((ug, uh), (ug_ref, uh_ref)):
        for v in range(n):
            assert math.isclose(u_h[v], u_g[(v + k) % n], rel_tol=1e-12)
    # fast paths and references agree bit-for-bit on the relabeled
    # instance (the cut orientation differs from g's, so this is a
    # genuinely new sweep)
    assert _bits(uh) == _bits(uh_ref)
    r, ref = _best_split_both_ways(h, 0, grid=6, refine_iters=10)
    assert _same_response(r, ref)
