"""Patch the engine's fast paths back to the plain references beside them.

The engine has one path per operation, and each fast piece of it keeps a
plain reference in the library:

* :func:`repro.core.bottleneck.parametric_network` and
  :func:`repro.core.allocation.pair_network` build, arc by arc, the flow
  networks the engine instantiates from cached templates;
* :func:`repro.attack.sybil.attacker_utility` evaluates one best-response
  candidate by cutting the ring and running a full decomposition and
  allocation -- the work ``_SplitEvaluator`` replaces with a reused path
  graph, warm starts and segment reconstruction.

Each helper takes a ``pytest.MonkeyPatch`` so a test can run the same call
both ways and demand identical bits.
"""

from repro.attack import best_response
from repro.attack.sybil import attacker_utility
from repro.core import allocation, bottleneck


def use_reference_networks(mp) -> None:
    """Build every parametric and pair network with ``add_edge``."""

    def parametric(g, active, lam, backend, ctx, w=None):
        return bottleneck.parametric_network(g, active, lam, backend)

    def pair(g, B, C, sink_caps, backend, ctx):
        return allocation.pair_network(g, B, C, sink_caps, backend)

    mp.setattr(bottleneck, "_instantiate_parametric", parametric)
    mp.setattr(allocation, "_pair_network", pair)


def use_reference_split_utility(mp) -> None:
    """Evaluate every best-response candidate with ``attacker_utility``."""

    def utility(self, w1b, w2b):
        return float(
            attacker_utility(self.g, self.v, w1b, w2b, self.backend, self.ctx)
        )

    mp.setattr(best_response._SplitEvaluator, "utility", utility)
