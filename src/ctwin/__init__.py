"""Counterfactual reasoning toolkit: twin/N-world networks, elimination
orders, jointrees with thinning, inference engines, and width benchmarks.
"""

from .elimination import (
    EliminationOrder,
    eliminate,
    exact_treewidth,
    minfill_order,
    n_world_order,
    twin_order,
)
from .inference import (
    CounterfactualQuery,
    InferenceResult,
    ZeroEvidenceError,
    brute_force_counterfactual,
    build_query_network,
    counterfactual,
    factor_value,
    jointree_propagate,
    multiply,
    reduce_factor,
    sum_out,
    ve_query,
)
from .jointree import (
    Jointree,
    SeparatorAssignment,
    classical_separators,
    jointree_from_order,
    make_twin_jointree,
    twin_separators_direct,
)
from .model import (
    Dag,
    Evidence,
    Factor,
    InvariantError,
    ModelError,
    Scm,
    Variable,
    load_network,
    save_network,
    scm_factors,
)
from .randgen import Rng, gen_rnet, gen_rnet2, gen_rscm, gen_rscm2, parameterize, to_rscm
from .thinning import replicate, thin, thinned_twin_separators
from .worlds import (
    MoralGraph,
    WorldMap,
    generalized_n_world,
    moral_graph,
    mutilate,
    n_world_network,
    twin_network,
)

__version__ = "0.1.0"
