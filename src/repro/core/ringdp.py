"""Ring-native bottleneck decomposition: an exact linear DP per path/cycle.

On a graph where every vertex has at most two neighbours -- the rings the
paper studies and the paths a Sybil split cuts them into -- each connected
component is a path or a cycle, and the parametric step of
:mod:`repro.core.bottleneck` needs no flow network:

``min_S  g_lambda(S) = w(Gamma(S)) - lambda * w(S)``

is a sum of per-vertex terms in which vertex ``i``'s coverage depends only
on its two neighbours' membership bits.  A left-to-right DP whose state is
the last two bits ``(x_{i-1}, x_i)`` (4 states) finalises vertex ``i-1``'s
coverage when ``x_i`` is chosen, so one pass solves a path exactly.  A cycle
is solved once per value of its two boundary bits ``(x_{m-1}, x_0)``.

The DP minimises the pair ``(g_lambda, -|S|)``.  The minimisers of the
submodular ``g_lambda`` form a lattice, so the unique minimiser of largest
cardinality is the *maximal* one -- the set Definition 2 wants, which the
flow path reads off as the maximal min cut.

Arithmetic is exact integers.  Exact weights are scaled by the common
denominator; float weights are dyadic rationals, so one common power of two
turns them into ints as well.  ``lambda = P/Q`` is then a ratio of integer
weight sums, and the DP compares ``Q*w(Gamma(S)) - P*w(S)`` exactly: no
rounding can split a bottleneck or break a tie the wrong way.

The decomposition recurses per component: once a component's maximal
bottleneck ``B`` and ``C = Gamma(B)`` are removed, the rest falls apart into
paths that are solved separately.  The decomposition of a disjoint union is
the merge of its components' decompositions, pairs of equal ratio united, so
:func:`ring_pairs` groups every extracted pair by its exact ratio.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterator, Optional

from ..engine import EngineContext, instance_signature
from ..exceptions import ConvergenceError
from ..graphs import WeightedGraph
from ..numeric import Backend

__all__ = ["MAX_WEIGHT_SPREAD", "dp_weights", "dyadic_ints", "ring_pairs"]

#: Largest max/min weight ratio a float instance may span and still take the
#: DP.  The DP is exact at any spread; this is the spread at which it was
#: checked bit-identical against the float flow path, its differential
#: oracle (DESIGN.md, "Ring-native decomposition").
MAX_WEIGHT_SPREAD = 2.0 ** 20


def dp_weights(g: WeightedGraph, backend: Backend) -> Optional[list[int]]:
    """Integer weights for the DP, or ``None`` when ``g`` keeps the flow path.

    ``g`` qualifies when every vertex has at most two neighbours and every
    weight is positive -- for floats: a positive *normal* double with
    ``max/min <= MAX_WEIGHT_SPREAD``.  Zeros (the zero-weight Sybil
    identities), ``-0.0``, subnormals and wider spreads keep the flow path
    and its documented handling of those corners.  The returned ints are the
    weights times one common scale, so all ratios are unchanged.
    """
    if g.n == 0 or any(len(g.neighbors(v)) > 2 for v in g.vertices()):
        return None
    ws = [backend.scalar(x) for x in g.weights]
    if backend.is_exact:
        if min(ws) <= 0:
            return None
        den = math.lcm(*(w.denominator for w in ws))
        return [w.numerator * (den // w.denominator) for w in ws]
    lo, hi = min(ws), max(ws)
    if not (lo >= sys.float_info.min and hi <= lo * MAX_WEIGHT_SPREAD):
        return None
    return dyadic_ints(ws)


def dyadic_ints(ws: list[float]) -> list[int]:
    """Integers proportional to the finite floats ``ws``, exactly.

    Every double is ``p / 2^k``; scaling all of them by the largest ``2^k``
    keeps every ratio of sums exact.
    """
    ratios = [w.as_integer_ratio() for w in ws]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


# ---------------------------------------------------------------------------
# the 4-state DP
# ---------------------------------------------------------------------------

def _sweep(a: list[int], b: list[int], f: list[int]) -> tuple[list[int], list[int]]:
    """Advance the DP from vertex 0 through vertex ``m-1``.

    ``f[s]`` is the best cost with state ``s = 2*x_{i-1} + x_i``; choosing
    ``x_i`` pays ``-a[i]`` when set and settles vertex ``i-1``'s coverage
    ``b[i-1]`` when ``x_{i-2}`` or ``x_i`` is set.  Returns the final costs
    and, per step, a 4-bit code whose bit ``s`` is the ``x_{i-2}`` that
    reached state ``s``.
    """
    f00, f01, f10, f11 = f
    back = []
    for i in range(1, len(a)):
        bi = b[i - 1]
        c = bi - a[i]
        t = f10 + bi
        if f00 <= t:
            n00, k = f00, 0
        else:
            n00, k = t, 1
        if f00 <= f10:
            n01 = f00 + c
        else:
            n01 = f10 + c
            k |= 2
        t = f11 + bi
        if f01 <= t:
            n10 = f01
        else:
            n10 = t
            k |= 4
        if f01 <= f11:
            n11 = f01 + c
        else:
            n11 = f11 + c
            k |= 8
        back.append(k)
        f00, f01, f10, f11 = n00, n01, n10, n11
    return [f00, f01, f10, f11], back


def _trace(back: list[int], s: int, m: int) -> list[int]:
    """Membership bits ``x_0..x_{m-1}`` of the path ending in state ``s``."""
    xs = [0] * m
    xs[m - 1] = s & 1
    if m > 1:
        xs[m - 2] = s >> 1
    for i in range(m - 1, 1, -1):
        p = (back[i - 1] >> s) & 1
        xs[i - 2] = p
        s = (p << 1) | xs[i - 1]
    return xs


def _minimizer(w: list[int], P: int, Q: int, cyclic: bool) -> list[int]:
    """Membership bits of the maximal minimiser of ``Q*w(Gamma(S)) - P*w(S)``.

    Vertex ``i``'s neighbours are ``i-1`` and ``i+1`` (modulo ``m`` when
    ``cyclic``).  The key ``M*g - |S|`` with ``M > m`` orders sets by
    ``(g, -|S|)``, so the optimum is unique and ties inside the DP are
    harmless: two partial solutions tied in one state would extend to two
    optimal sets.
    """
    m = len(w)
    PM, QM = P * (m + 1), Q * (m + 1)
    a = [PM * x + 1 for x in w]
    b = [QM * x for x in w]
    inf = sum(a) + sum(b) + 1  # above every reachable cost
    if not cyclic:
        f, back = _sweep(a, b, [0, -a[0], inf, inf])
        f[2] += b[-1]
        f[3] += b[-1]
        s = min(range(4), key=f.__getitem__)
        return _trace(back, s, m)
    best = None
    for last in (0, 1):
        for first in (0, 1):
            f = [inf] * 4
            f[2 * last + first] = -a[0] if first else 0
            f, back = _sweep(a, b, f)
            for s in (last, 2 + last):  # x_{m-1} must equal the boundary bit
                cost = f[s] + (b[-1] if (s >> 1) or first else 0)
                if best is None or cost < best[0]:
                    best = (cost, back, s)
    return _trace(best[1], best[2], m)


def _covered(xs: list[int], cyclic: bool) -> list[int]:
    """Coverage bits: vertex ``i`` is in ``Gamma(S)`` iff a neighbour is in S."""
    m = len(xs)
    if cyclic:
        return [xs[i - 1] | xs[(i + 1) % m] for i in range(m)]
    padded = [0] + xs + [0]
    return [padded[i] | padded[i + 2] for i in range(m)]


def _bottleneck(w: list[int], cyclic: bool, ctx: EngineContext, max_iters: int) -> tuple:
    """Dinkelbach descent on one component, exactly.

    Starts at ``lambda = alpha(K)`` and moves to ``alpha(S)`` of each
    maximal minimiser until the ratio stops falling.  Returns the membership
    and coverage bits of the maximal bottleneck and its ratio ``(P, Q) =
    (w(C), w(B))``.  Exact descent through a finite set of ratios always
    converges; the ``max_iters`` cap keeps the flow path's safety net.
    """
    total = sum(w)
    P, Q = (total if len(w) > 1 else 0), total
    for _ in range(max_iters):
        ctx.counters.dinkelbach_iterations += 1
        with ctx.span("dinkelbach"):
            xs = _minimizer(w, P, Q, cyclic)
        cov = _covered(xs, cyclic)
        Ps = sum(x for x, c in zip(w, cov) if c)
        Qs = sum(x for x, s in zip(w, xs) if s)
        if Ps * Q >= P * Qs:
            return xs, cov, Ps, Qs
        d = math.gcd(Ps, Qs)
        prev, (P, Q) = (P, Q), (Ps // d, Qs // d)
    raise ConvergenceError(
        f"Dinkelbach iteration did not converge in {max_iters} steps",
        residual=abs(float(Fraction(*prev) - Fraction(P, Q))),
        iterations=max_iters,
    )


def _components(g: WeightedGraph) -> Iterator[tuple[list[int], bool]]:
    """``(vertices in path/cycle order, is_cycle)`` per component of ``g``."""
    seen = [False] * g.n

    def walk(v: int) -> list[int]:
        order, prev = [v], -1
        seen[v] = True
        while True:
            nxt = [u for u in g.neighbors(v) if u != prev and not seen[u]]
            if not nxt:
                return order
            prev, v = v, nxt[0]
            seen[v] = True
            order.append(v)

    for v in g.vertices():
        if not seen[v] and len(g.neighbors(v)) <= 1:
            yield walk(v), False
    for v in g.vertices():
        if not seen[v]:
            yield walk(v), True


def ring_pairs(
    g: WeightedGraph,
    W: list[int],
    backend: Backend,
    ctx: EngineContext,
    max_iters: int,
) -> list[tuple[Fraction, list[int], list[int]]]:
    """``(exact ratio, B, C)`` of every pair of ``g``'s decomposition.

    ``W`` are :func:`dp_weights` for ``backend``; pairs come in increasing
    ratio order, each the union of the component pairs that share its ratio.  Every DP solve
    counts as one ``dinkelbach_iterations`` step under a ``dinkelbach``
    span; a component whose descent takes more than ``max_iters`` steps
    raises :class:`~repro.exceptions.ConvergenceError`, as the flow path
    does.
    """
    groups: dict[Fraction, tuple[list[int], list[int]]] = {}
    stack = list(_components(g))
    while stack:
        order, cyclic = stack.pop()
        try:
            xs, cov, P, Q = _bottleneck([W[v] for v in order], cyclic, ctx, max_iters)
        except ConvergenceError as exc:  # name the instance, as the flow path does
            raise ConvergenceError(
                f"Dinkelbach iteration did not converge in {max_iters} steps",
                signature=instance_signature(g, backend),
                residual=exc.residual,
                iterations=exc.iterations,
            ) from None
        B, C = groups.setdefault(Fraction(P, Q), ([], []))
        if cyclic and not (xs[-1] or cov[-1]):
            # Start the scan just after a removed vertex so the arc that
            # wraps past the end comes out as one path.
            j = next(i for i, (x, c) in enumerate(zip(xs, cov)) if x or c)
            cut = j + 1
            order, xs, cov = (order[cut:] + order[:cut], xs[cut:] + xs[:cut],
                              cov[cut:] + cov[:cut])
        run: list[int] = []
        for v, x, c in zip(order, xs, cov):
            if x:
                B.append(v)
            if c:
                C.append(v)
            if x or c:
                if run:
                    stack.append((run, False))
                    run = []
            else:
                run.append(v)
        if run:
            stack.append((run, False))
    return [(r, *groups[r]) for r in sorted(groups)]
