"""The ctwin layers the traced run wraps, and the per-layer metrics made
from their spans.

Layer names follow ctwin's modules. Several public functions can share
one span name when they do one layer's job (the two order lifts, the
four world-network builders, the two separator lifts). Which end-to-end
metric each layer should move, on which workload, is written next to it.
"""

from __future__ import annotations

from tracer import Target


def _thin(args, result, t):
    t.count("thinning.thin.removals", len(result.log))


def _replicate(args, result, t):
    t.count("thinning.replicate.replicas", len(result.nodes) - len(args[0].nodes))


def _kernel(name):
    def hook(args, result, t):
        if result is args[0]:  # sum_out of a variable not in scope computes nothing
            return
        size = result.values.size
        t.count(f"inference.{name}.entries_out", size)
        t.count("inference.bytes_computed", 8 * size)
        t.peak("inference.peak_factor_entries", size)

    return hook


def _reduce(args, result, t):
    t.peak("inference.peak_factor_entries", result.values.size)


TARGETS = [
    # thinning: the bulk of `widths` (op_s, width.* means); a little of the
    # `thinned-queries` p90; nothing on twin-/nworld-queries.
    Target("ctwin.thinning", "thin", "thinning.thin", _thin),
    Target("ctwin.thinning", "replicate", "thinning.replicate", _replicate),
    # elimination: mainly `twin-queries` op_s.p50 (minfill is redone on
    # every call; a compile cache drops calls per op there only), then `widths`.
    Target("ctwin.elimination", "minfill_order", "elimination.minfill_order"),
    Target("ctwin.elimination", "eliminate", "elimination.eliminate"),
    Target("ctwin.elimination", "twin_order", "elimination.lift_order"),
    Target("ctwin.elimination", "n_world_order", "elimination.lift_order"),
    # jointree: `nworld-queries` op_s.p50 (jointree on the lifted network),
    # the twin lift on `twin-queries`; under 1% of `widths`.
    Target("ctwin.jointree", "jointree_from_order", "jointree.jointree_from_order"),
    Target("ctwin.jointree", "classical_separators", "jointree.classical_separators"),
    Target("ctwin.jointree", "make_twin_jointree", "jointree.make_twin_jointree"),
    Target("ctwin.jointree", "twin_separators_direct", "jointree.lift_separators"),
    Target("ctwin.thinning", "thinned_twin_separators", "jointree.lift_separators"),
    # worlds / model: `nworld-queries` and small-n `twin-queries`.
    Target("ctwin.worlds", "moral_graph", "worlds.moral_graph"),
    Target("ctwin.worlds", "twin_network", "worlds.build_network"),
    Target("ctwin.worlds", "n_world_network", "worlds.build_network"),
    Target("ctwin.worlds", "mutilate", "worlds.build_network"),
    Target("ctwin.inference", "build_query_network", "worlds.build_network"),
    Target("ctwin.model", "scm_factors", "model.scm_factors"),
    # inference kernel: `thinned-queries` p90 and peak_rss_mb, 20-25% of
    # `twin-queries` op_s.p50; nothing on `widths`.
    Target("ctwin.inference", "multiply", "inference.multiply", _kernel("multiply")),
    Target("ctwin.inference", "sum_out", "inference.sum_out", _kernel("sum_out")),
    Target("ctwin.inference", "reduce_factor", "inference.reduce_factor", _reduce),
    # inference propagation: twin-/nworld-queries op_s.p50.
    Target("ctwin.inference", "jointree_propagate", "inference.jointree_propagate"),
    Target("ctwin.inference", "ve_query", "inference.ve_query"),
]

# (metric, unit, (kind, span name or counter)); every value is per op
# except the peak.
METRICS = [
    ("thinning.thin.self_s", "s/op", ("self", "thinning.thin")),
    ("thinning.thin.removals", "count/op", ("count", "thinning.thin.removals")),
    ("thinning.replicate.self_s", "s/op", ("self", "thinning.replicate")),
    ("thinning.replicate.replicas", "count/op", ("count", "thinning.replicate.replicas")),
    ("elimination.minfill_order.calls", "calls/op", ("calls", "elimination.minfill_order")),
    ("elimination.minfill_order.self_s", "s/op", ("self", "elimination.minfill_order")),
    ("elimination.eliminate.calls", "calls/op", ("calls", "elimination.eliminate")),
    ("elimination.eliminate.self_s", "s/op", ("self", "elimination.eliminate")),
    ("elimination.lift_order.self_s", "s/op", ("self", "elimination.lift_order")),
    ("jointree.jointree_from_order.calls", "calls/op", ("calls", "jointree.jointree_from_order")),
    ("jointree.jointree_from_order.self_s", "s/op", ("self", "jointree.jointree_from_order")),
    ("jointree.classical_separators.self_s", "s/op", ("self", "jointree.classical_separators")),
    ("jointree.make_twin_jointree.self_s", "s/op", ("self", "jointree.make_twin_jointree")),
    ("jointree.lift_separators.self_s", "s/op", ("self", "jointree.lift_separators")),
    ("worlds.moral_graph.calls", "calls/op", ("calls", "worlds.moral_graph")),
    ("worlds.moral_graph.self_s", "s/op", ("self", "worlds.moral_graph")),
    ("worlds.build_network.self_s", "s/op", ("self", "worlds.build_network")),
    ("model.scm_factors.self_s", "s/op", ("self", "model.scm_factors")),
    ("inference.multiply.calls", "calls/op", ("calls", "inference.multiply")),
    ("inference.multiply.self_s", "s/op", ("self", "inference.multiply")),
    ("inference.multiply.entries_out", "entries/op", ("count", "inference.multiply.entries_out")),
    ("inference.sum_out.calls", "calls/op", ("calls", "inference.sum_out")),
    ("inference.sum_out.self_s", "s/op", ("self", "inference.sum_out")),
    ("inference.reduce_factor.self_s", "s/op", ("self", "inference.reduce_factor")),
    ("inference.peak_factor_entries", "entries", ("peak", "inference.peak_factor_entries")),
    ("inference.bytes_computed", "B/op", ("count", "inference.bytes_computed")),
    ("inference.jointree_propagate.self_s", "s/op", ("self", "inference.jointree_propagate")),
    ("inference.ve_query.self_s", "s/op", ("self", "inference.ve_query")),
]
