"""Core machinery: alpha-ratios, bottleneck decomposition, BD allocation,
vertex classes, and proportional response dynamics."""

from .alpha import alpha_ratio, alpha_within, pair_alpha
from .bottleneck import (
    BottleneckDecomposition,
    BottleneckPair,
    bottleneck_decomposition,
    flow_decomposition,
    maximal_bottleneck,
)
from .bruteforce import (
    brute_force_decomposition,
    brute_force_maximal_bottleneck,
    brute_force_min_alpha,
)
from .classes import VertexClass, classify, refine_unit_pair
from .allocation import (
    Allocation,
    bd_allocation,
    certified_endpoint_utilities,
    endpoint_utilities,
)
from .incremental import (
    reconstruct_decomposition,
    topology_fingerprint,
    warm_decomposition,
)
from .utilities import closed_form_utilities, closed_form_utility
from .dynamics import DynamicsResult, dynamics_utilities, proportional_response
from .fixedpoint import FixedPointReport, assert_fixed_point, fixed_point_residual
from .async_dynamics import AsyncResult, async_proportional_response

__all__ = [
    "alpha_ratio",
    "alpha_within",
    "pair_alpha",
    "BottleneckDecomposition",
    "BottleneckPair",
    "bottleneck_decomposition",
    "flow_decomposition",
    "maximal_bottleneck",
    "brute_force_decomposition",
    "brute_force_maximal_bottleneck",
    "brute_force_min_alpha",
    "VertexClass",
    "classify",
    "refine_unit_pair",
    "Allocation",
    "bd_allocation",
    "certified_endpoint_utilities",
    "endpoint_utilities",
    "reconstruct_decomposition",
    "topology_fingerprint",
    "warm_decomposition",
    "closed_form_utilities",
    "closed_form_utility",
    "DynamicsResult",
    "dynamics_utilities",
    "proportional_response",
    "FixedPointReport",
    "assert_fixed_point",
    "fixed_point_residual",
    "AsyncResult",
    "async_proportional_response",
]
