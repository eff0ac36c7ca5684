"""Command-line surface.

Subcommands: gen, twin, nworld, mutilate, order, jointree, twin-jointree,
thin, infer, bench, audit, treewidth. Exit codes: 0 success, 1 usage or
input error, 2 violated invariant / failed audit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import SuiteConfig, find_order_tightness, find_treewidth_tightness, run_bound_audit, run_suite
from .elimination import eliminate, exact_treewidth, minfill_order, n_world_order, twin_order
from .inference import CounterfactualQuery, counterfactual
from .model import Evidence, InvariantError, ModelError, load_network, network_to_dict
from .randgen import GENERATORS, Rng, parameterize
from .thinning import CHAIN_BOUND, Structures
from .worlds import moral_graph, mutilate, n_world_network, twin_dag, twin_network


def _emit(doc, out_path):
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _evidence(spec: str) -> Evidence:
    out = {}
    if spec:
        for part in spec.split(","):
            v, _, s = part.partition("=")
            if not _ or not s.lstrip("-").isdigit():
                raise ModelError(f"bad assignment {part!r}; use VAR=STATE_INDEX")
            out[v.strip()] = int(s)
    return Evidence(out)


def _separators_doc(seps):
    jt = seps.jointree
    return {
        "nodes": list(jt.nodes),
        "edges": [list(e) for e in jt.edges],
        "hosts": {c: list(hs) for c, hs in sorted(jt.hosts.items())},
        "separators": {f"{a}|{b}": sorted(s) for (a, b), s in sorted(seps.separators.items())},
        "clusters": {v: sorted(c) for v, c in sorted(seps.clusters.items())},
        "width": seps.width,
        "normalized_width": round(seps.normalized_width, 6),
    }


def _structures(a, chain_bound=CHAIN_BOUND) -> Structures:
    dag = load_network(a.net).dag
    return Structures(dag, minfill_order(moral_graph(dag)), chain_bound)


def cmd_gen(a):
    rng = Rng(a.seed)
    scm = parameterize(GENERATORS[a.generator](a.n, a.param, rng), rng, a.cardinality)
    _emit(network_to_dict(scm), a.out)


def cmd_twin(a):
    net, wmap = twin_network(load_network(a.net))
    _emit(network_to_dict(net, wmap), a.out)


def _shared(scm, spec: str) -> tuple[str, ...]:
    return scm.dag.roots() if spec == "all" else tuple(spec.split(","))


def cmd_nworld(a):
    scm = load_network(a.net)
    net, wmap = n_world_network(scm, _shared(scm, a.shared), a.worlds)
    _emit(network_to_dict(net, wmap), a.out)


def cmd_mutilate(a):
    scm = load_network(a.net)
    _emit(network_to_dict(mutilate(scm, _evidence(a.do))), a.out)


def cmd_order(a):
    if a.lift != "nworld" and {"worlds", "shared"} & vars(a).keys():
        raise ModelError("--worlds and --shared need --lift nworld")
    scm = load_network(a.net)
    order = minfill_order(moral_graph(scm.dag))
    doc = {"sequence": list(order.sequence),
           "width": eliminate(moral_graph(scm.dag), order).width}
    if a.lift:
        if a.lift == "twin":
            lifted, net = twin_order(order, scm.dag), twin_dag(scm.dag)
        else:
            shared, worlds = _shared(scm, getattr(a, "shared", "all")), getattr(a, "worlds", 2)
            lifted = n_world_order(order, scm.dag, shared, worlds)
            net = n_world_network(scm, shared, worlds)[0].dag
        doc["lifted"] = {"sequence": list(lifted.sequence), "width": eliminate(moral_graph(net), lifted).width}
    _emit(doc, a.out)


def cmd_jointree(a):
    s = _structures(a)
    _emit(_separators_doc(s.separators), a.out)


def cmd_twin_jointree(a):
    s = _structures(a)
    doc = _separators_doc(s.twin_separators)
    doc["edge_class"] = {f"{x}|{y}": c for (x, y), c in sorted(s.twin_separators.jointree.edge_class.items())}
    _emit(doc, a.out)


def cmd_thin(a):
    s = _structures(a, a.chain_bound)
    doc = _separators_doc(s.thinned)
    doc["thinned_separators"] = doc.pop("separators")
    doc["thinning_log"] = [
        {"edge": list(r["edge"]), "variable": r["variable"], "rule": r["rule"],
         "witness": list(r["witness"]) if isinstance(r["witness"], tuple) else r["witness"]}
        for r in s.thinned.log
    ]
    if a.twin:
        doc["twin"] = _separators_doc(s.thinned_twin)
    _emit(doc, a.out)


def _int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ModelError(f"query: {what} {x!r} is not an integer")
    return x


def _query(q, roots) -> CounterfactualQuery:
    """Check a query file's shape and integers; CounterfactualQuery and the
    engines check world ranges, variables and states."""
    if not isinstance(q, dict):
        raise ModelError("query: top-level object required")
    worlds = _int(q.get("worlds", 1), "worlds")
    shared = q.get("shared_roots", "all")
    if shared != "all" and not (isinstance(shared, list) and all(isinstance(r, str) for r in shared)):
        raise ModelError('query: shared_roots must be "all" or an array of ids')
    sets = {}
    for k in ("observations", "interventions"):
        per_world = q.get(k, [{}] * worlds)
        if not isinstance(per_world, list) or not all(isinstance(o, dict) for o in per_world):
            raise ModelError(f"query: {k} must be an array of objects")
        sets[k] = tuple(Evidence({v: _int(s, f"state of {v}") for v, s in o.items()}) for o in per_world)
    target = q.get("target")
    if not isinstance(target, list) or not all(
            isinstance(t, list) and len(t) == 3 and isinstance(t[1], str) for t in target):
        raise ModelError("query: target must be an array of [world, variable, state] triples")
    target = tuple((_int(w, "target world"), v, _int(s, "target state")) for w, v, s in target)
    return CounterfactualQuery(worlds, frozenset(roots if shared == "all" else shared), target=target,
                               mode=q.get("mode", "conditional"), **sets)


def cmd_infer(a):
    scm = load_network(a.net)
    with open(a.query, "r", encoding="utf-8") as fh:
        query = _query(json.load(fh), scm.dag.roots())
    res = counterfactual(scm, query, engine=a.engine)
    _emit({"value": res.value, "evidence_probability": res.evidence_probability,
           "method": res.method}, a.out)


def cmd_bench(a):
    cfg = SuiteConfig(
        generator=a.generator,
        n_values=tuple(int(x) for x in a.n.split(",")),
        param_values=tuple(int(x) for x in a.param.split(",")),
        reps=a.reps,
        chain_bound=a.chain_bound,
        seed=a.seed,
        workers=a.workers,
        timings=a.timings,
    )
    run_suite(cfg, a.out or "bench.csv")


def cmd_audit(a):
    report = run_bound_audit(a.instances, seed=a.seed, chain_bound=a.chain_bound)
    if a.tightness:
        report["tightness"] = {
            "order_width": find_order_tightness(a.tightness),
            "treewidth": find_treewidth_tightness(a.tightness),
        }
    _emit(report, a.out)
    if report["violations"]:
        return 2
    return 0


def cmd_treewidth(a):
    if "node_limit" in vars(a) and not a.exact:
        raise ModelError("--node-limit needs --exact")
    scm = load_network(a.net)
    g = moral_graph(scm.dag)
    if a.exact:
        doc = {"treewidth": exact_treewidth(g, getattr(a, "node_limit", 12)), "exact": True}
    else:
        doc = {"treewidth": eliminate(g, minfill_order(g)).width, "exact": False}
    _emit(doc, a.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ctwin", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random fully specified SCM")
    p.add_argument("--generator", choices=tuple(GENERATORS), default="rSCM")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--cardinality", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("twin", help="twin network of a base network")
    p.add_argument("--net", required=True)
    p.set_defaults(fn=cmd_twin)

    p = sub.add_parser("nworld", help="N-world network sharing a root subset")
    p.add_argument("--net", required=True)
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--shared", default="all")
    p.set_defaults(fn=cmd_nworld)

    p = sub.add_parser("mutilate", help="cut incoming edges of intervened variables")
    p.add_argument("--net", required=True)
    p.add_argument("--do", required=True, help="comma-separated VAR=STATE list")
    p.set_defaults(fn=cmd_mutilate)

    p = sub.add_parser("order", help="minfill order, optionally lifted")
    p.add_argument("--net", required=True)
    p.add_argument("--lift", choices=("twin", "nworld"), default=None)
    p.add_argument("--worlds", type=int, default=argparse.SUPPRESS, help="with --lift nworld (default 2)")
    p.add_argument("--shared", default=argparse.SUPPRESS, help="with --lift nworld (default all)")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("jointree", help="jointree from the minfill order")
    p.add_argument("--net", required=True)
    p.set_defaults(fn=cmd_jointree)

    p = sub.add_parser("twin-jointree", help="twin jointree with lifted separators")
    p.add_argument("--net", required=True)
    p.set_defaults(fn=cmd_twin_jointree)

    p = sub.add_parser("thin", help="replicate and thin a jointree")
    p.add_argument("--net", required=True)
    p.add_argument("--chain-bound", type=int, default=CHAIN_BOUND)
    p.add_argument("--twin", action="store_true", help="also lift to thinned twin separators")
    p.set_defaults(fn=cmd_thin)

    p = sub.add_parser("infer", help="evaluate a counterfactual query")
    p.add_argument("--net", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--engine", choices=("ve", "jointree", "jointree-thinned", "oracle"), default="ve")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("bench", help="run the width experiment suite (CSV)")
    p.add_argument("--generator", choices=tuple(GENERATORS), required=True)
    p.add_argument("--n", required=True, help="comma-separated node counts")
    p.add_argument("--param", required=True, help="comma-separated p/d values")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--chain-bound", type=int, default=CHAIN_BOUND)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("audit", help="theorem-bound audit over random instances")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--chain-bound", type=int, default=CHAIN_BOUND)
    p.add_argument("--tightness", type=int, default=0,
                   help="also run the tightness searches up to this node count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("treewidth", help="treewidth (exact or minfill upper bound)")
    p.add_argument("--net", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--node-limit", type=int, default=argparse.SUPPRESS, help="with --exact (default 12)")
    p.set_defaults(fn=cmd_treewidth)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        rc = args.fn(args)
    except (ModelError, OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory{': ' if str(e) else ''}{e}", file=sys.stderr)
        return 1
    except InvariantError as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 2
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
