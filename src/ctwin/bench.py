"""Width experiment harness: six jointree variants per random instance,
per-seed CSV rows with per-cell mean/std rows, theorem-bound audits, and
the exhaustive tightness search on small DAGs.
"""

from __future__ import annotations

import csv
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations

from .elimination import (EliminationOrder, _bits, _eliminate_bit, _lift_order, eliminate, exact_treewidth, minfill_order,
                          n_world_order, twin_order)
from .model import Dag, ModelError
from .randgen import GENERATORS, Rng
from .thinning import CHAIN_BOUND, Structures
from .worlds import generalized_n_world, moral_graph, twin_dag, world_name

METHODS = ("base_mf", "twin_alg1", "twin_mf", "base_mf_rls", "twin_thm3", "twin_mf_rls")


@dataclass(frozen=True)
class SuiteConfig:
    generator: str
    n_values: tuple[int, ...]
    param_values: tuple[int, ...]  # max parents (rNET*) or max degree (rNET2*)
    reps: int = 50
    chain_bound: int = CHAIN_BOUND
    seed: int = 0
    workers: int = 1
    timings: bool = False

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ModelError(f"unknown generator {self.generator!r}")
        if self.reps < 1:
            raise ModelError("reps must be >= 1")


def _cell_seed(base_seed: int, n: int, param: int, rep: int) -> int:
    s = base_seed & (1 << 64) - 1
    for part in (n, param, rep):
        s = (s * 1000003 + part + 1) & (1 << 64) - 1
    return s


def generate_dag(generator: str, n: int, param: int, seed: int) -> Dag:
    if generator not in GENERATORS:
        raise ModelError(f"unknown generator {generator!r}")
    return GENERATORS[generator](n, param, Rng(seed))


def instance_widths(dag: Dag, chain_bound: int) -> dict[str, tuple[int, float]]:
    """The six (width, normalized width) measurements for one base DAG."""
    base = Structures(dag, minfill_order(moral_graph(dag)), chain_bound)
    tdag = twin_dag(dag)
    twin = Structures(tdag, minfill_order(moral_graph(tdag)), chain_bound)
    parts = (base.separators, base.twin_separators, twin.separators,
             base.thinned, base.thinned_twin, twin.thinned)
    return {m: (s.width, s.normalized_width) for m, s in zip(METHODS, parts)}


@dataclass(frozen=True)
class ResultRow:
    generator: str
    n: int
    param: int
    rep: int
    seed: int
    widths: dict[str, tuple[int, float]]
    elapsed_ms: float


def _run_task(args) -> ResultRow:
    generator, n, param, rep, seed, chain_bound = args
    t0 = time.perf_counter()
    dag = generate_dag(generator, n, param, seed)
    widths = instance_widths(dag, chain_bound)
    return ResultRow(generator, n, param, rep, seed, widths, (time.perf_counter() - t0) * 1e3)


def run_suite(cfg: SuiteConfig, out_path) -> list[ResultRow]:
    """One CSV row per (cell, seed) plus per-cell mean/std rows. Output is
    byte-identical for any worker count (rows are sorted, timings are
    opt-in)."""
    tasks = [
        (cfg.generator, n, p, rep, _cell_seed(cfg.seed, n, p, rep), cfg.chain_bound)
        for n in cfg.n_values
        for p in cfg.param_values
        for rep in range(cfg.reps)
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_run_task, tasks, chunksize=4))
    else:
        rows = [_run_task(t) for t in tasks]
    rows.sort(key=lambda r: (r.n, r.param, r.rep))

    header = ["generator", "n", "param", "rep", "seed", "row_type"]
    for m in METHODS:
        header += [f"{m}_wd", f"{m}_nwd"]
    if cfg.timings:
        header.append("elapsed_ms")

    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            rec = [r.generator, r.n, r.param, r.rep, r.seed, "seed"]
            for m in METHODS:
                wd, nwd = r.widths[m]
                rec += [wd, f"{nwd:.4f}"]
            if cfg.timings:
                rec.append(f"{r.elapsed_ms:.1f}")
            w.writerow(rec)
        for n in cfg.n_values:
            for p in cfg.param_values:
                cell = [r for r in rows if r.n == n and r.param == p]
                for stat, fn in (("mean", statistics.fmean), ("std", _std)):
                    rec = [cfg.generator, n, p, "", "", stat]
                    for m in METHODS:
                        rec.append(f"{fn([r.widths[m][0] for r in cell]):.4f}")
                        rec.append(f"{fn([r.widths[m][1] for r in cell]):.4f}")
                    if cfg.timings:
                        rec.append("")
                    w.writerow(rec)
    return rows


def _std(xs) -> float:
    return statistics.pstdev(xs) if len(xs) > 1 else 0.0


# ---------------------------------------------------------------- audits

def _dag_doc(dag: Dag) -> dict:
    return {"nodes": list(dag.nodes), "parents": {v: list(ps) for v, ps in dag.parents.items()}}


def _order_width(dag: Dag, order: EliminationOrder) -> int:
    return eliminate(moral_graph(dag), order).width


def audit_instance(dag: Dag, chain_bound: int, rng: Rng) -> list[dict]:
    """Check the four lifted-construction bounds on one base DAG; returns
    violation records (empty = all bounds hold)."""
    violations = []
    order = minfill_order(moral_graph(dag))
    w = _order_width(dag, order)
    tdag = twin_dag(dag)
    wt = _order_width(tdag, twin_order(order, dag))

    def flag(bound, observed, limit):
        violations.append({"bound": bound, "observed": observed, "limit": limit, "dag": _dag_doc(dag)})

    if wt > 2 * w + 1:
        flag("cor1: twin order width <= 2w+1", wt, 2 * w + 1)

    s = Structures(dag, order, chain_bound)
    for bound, observed, limit in (
            ("cor3: twin jointree width <= 2w+1", s.twin_separators.width, 2 * s.separators.width + 1),
            ("cor3: twin jointree nodes <= 2n", len(s.twin_separators.jointree.nodes), 2 * len(s.jointree.nodes)),
            ("cor4: thinned twin width <= 2w+1", s.thinned_twin.width, 2 * s.thinned.width + 1)):
        if observed > limit:
            flag(bound, observed, limit)

    roots = list(dag.roots())
    for n_worlds in (2, 3, 5):
        for mode in ("all", "subset"):
            if mode == "all":
                shared = roots
            else:
                shared = [r for r in roots if rng.below(2)]
            nw_order = n_world_order(order, dag, shared, n_worlds)
            ndag = generalized_n_world(dag, set(dag.nodes) - set(shared), n_worlds)
            wn = _order_width(ndag, nw_order)
            if wn > n_worlds * (w + 1) - 1:
                flag(f"thm4: N-world order width <= N(w+1)-1 (N={n_worlds}, {mode})",
                     wn, n_worlds * (w + 1) - 1)
    return violations


def audit_generalized(dag: Dag, n_worlds: int, rng: Rng) -> list[dict]:
    """Appendix-D bound on a generalized N-world network with random
    duplicated subset and random admissible cross edges."""
    dup = [v for v in dag.nodes if rng.below(2)]
    if not dup:
        dup = [dag.nodes[rng.below(len(dag.nodes))]]
    cross = []
    for v in dup:
        if rng.below(2):
            i = 1 + rng.below(n_worlds - 1) if n_worlds > 1 else 1
            j = i + 1 + rng.below(n_worlds - i) if i < n_worlds else i
            if i < j:
                cross.append((v, i, j))
    gdag = generalized_n_world(dag, dup, n_worlds, cross)
    order = minfill_order(moral_graph(dag))
    w = _order_width(dag, order)
    wn = _order_width(gdag, _lift_order(order, set(dup), n_worlds, world_name))
    if wn > n_worlds * (w + 1) - 1:
        return [{
            "bound": f"appendix-d: generalized N-world width <= N(w+1)-1 (N={n_worlds})",
            "observed": wn, "limit": n_worlds * (w + 1) - 1,
            "dag": _dag_doc(dag),
            "duplicated": sorted(dup), "cross_edges": cross,
        }]
    return []


def run_bound_audit(instances: int = 1000, seed: int = 0, chain_bound: int = CHAIN_BOUND) -> dict:
    """Spread `instances` across the four generators and small cells;
    report all bound violations (expected: none)."""
    cells = [(g, n, p) for g in GENERATORS for n in (10, 20, 30) for p in (2, 3, 5)]
    violations = []
    for k in range(instances):
        g, n, p = cells[k % len(cells)]
        s = _cell_seed(seed, n, p, k)
        dag = generate_dag(g, n, p, s)
        rng = Rng(s ^ 0xA5A5A5A5)
        violations += audit_instance(dag, chain_bound, rng)
        violations += audit_generalized(dag, 2 + rng.below(4), rng)
    return {"instances": instances, "violations": violations}


# ------------------------------------------------------------- tightness

def _connected(adj: list[int]) -> bool:
    """Whether the bitmask graph `adj` is connected."""
    seen = 1
    stack = [0]
    while stack:
        m = adj[stack.pop()] & ~seen
        seen |= m
        stack.extend(_bits(m))
    return seen == (1 << len(adj)) - 1


def _connected_dags(max_nodes: int):
    """All connected DAGs up to iso-of-labeling over a fixed topological
    order, by edge mask enumeration."""
    for n in range(2, max_nodes + 1):
        names = tuple(chr(ord("A") + i) for i in range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            parents = {v: () for v in names}
            adj = [0] * n
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    parents[names[j]] = parents[names[j]] + (names[i],)
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            if _connected(adj):
                yield Dag(names, parents)


def find_order_tightness(max_nodes: int = 6) -> dict | None:
    """Search for a DAG and order with width 2 whose twin order has width
    5 (the Cor 1 bound met with equality)."""
    for dag in _connected_dags(max_nodes):
        g = moral_graph(dag)
        if eliminate(g, minfill_order(g)).width > 2:
            continue
        tdag = twin_dag(dag)
        tg = moral_graph(tdag)
        for perm in permutations(dag.nodes):
            order = EliminationOrder(perm)
            if eliminate(g, order).width != 2:
                continue
            if eliminate(tg, twin_order(order, dag)).width == 5:
                return {
                    "parents": {v: list(ps) for v, ps in dag.parents.items()},
                    "order": list(perm),
                    "base_width": 2,
                    "twin_width": 5,
                }
    return None


def _min_degree_width(adj: list[int], cap: int) -> int:
    """Width of the greedy min-degree elimination of the bitmask graph
    `adj`, an upper bound on its treewidth. Stops as soon as the width
    exceeds `cap`, so any result above `cap` only says "more than cap"."""
    adj = list(adj)
    alive = list(range(len(adj)))
    width = 0
    while len(alive) > width + 1:  # a smaller remainder cannot widen
        best, deg = alive[0], adj[alive[0]].bit_count()
        for k in alive:
            d = adj[k].bit_count()
            if d < deg:
                best, deg = k, d
        if deg > width:
            width = deg
            if width > cap:
                break
        _eliminate_bit(adj, best)
        alive.remove(best)
    return width


def _link(adj: list[int], a: int, b: int) -> None:
    adj[a] |= 1 << b
    adj[b] |= 1 << a


def _treewidth_two_dags(max_nodes: int):
    """Yield every connected DAG with 2..max_nodes nodes over a fixed
    topological order whose moral graph has treewidth exactly 2, as
    (parents, twin_adj): node j's parent indices (ascending) for each j,
    and the bitmask moral graph of its twin network (node j at index j,
    its copy j' at n + j; the copy of a root stays isolated).

    Nodes are added in order, each choosing at most two earlier parents; a
    prefix whose moral graph reaches treewidth 3 is abandoned."""
    for n in range(2, max_nodes + 1):
        choices = [
            [()] + [(i,) for i in range(j)] + [(i, k) for i in range(j) for k in range(i + 1, j)]
            for j in range(n)
        ]
        parents: list[tuple[int, ...]] = [()] * n

        def extend(j, adj, twin_adj):
            if j == n:
                # connected with at least n edges: not a tree, so width >= 2
                if sum(a.bit_count() for a in adj) >= 2 * n and _connected(adj):
                    yield tuple(parents), twin_adj
                return
            for ps in choices[j]:
                nxt = adj + [0]
                for p in ps:
                    _link(nxt, p, j)
                if len(ps) == 2 and not adj[ps[0]] >> ps[1] & 1:
                    _link(nxt, *ps)
                    if _min_degree_width(nxt, 2) > 2:
                        continue
                twin_nxt = list(twin_adj)
                copies = [p if not parents[p] else n + p for p in ps]
                for child, qs in ((j, ps), (n + j, copies)):
                    for q in qs:
                        _link(twin_nxt, q, child)
                    if len(qs) == 2:
                        _link(twin_nxt, *qs)
                parents[j] = ps
                yield from extend(j + 1, nxt, twin_nxt)

        yield from extend(1, [0], [0] * (2 * n))


def find_treewidth_tightness(max_nodes: int = 6) -> dict | None:
    """Search for a base network with exact treewidth 2 whose twin
    network has exact treewidth 4; the first witness found has the fewest
    nodes, since sizes are scanned in increasing order.

    Every connected DAG over a fixed topological order is covered, up to
    these prunes, each of which drops only DAGs that cannot be witnesses:

    - No node has three or more parents. A node and three parents form a
      K4 in the moral graph, so the base treewidth would be at least 3.
    - A partial DAG (the first j nodes) whose moral graph has treewidth 3
      is not extended. Later nodes only add vertices and edges, so the
      moral graph of the partial DAG is a subgraph of the final one, and
      treewidth never drops on a subgraph.
    - Treewidth <= 2 is decided exactly by greedy min-degree elimination:
      a graph of treewidth <= 2 has a vertex of degree <= 2, and
      eliminating it leaves a minor, whose treewidth is again <= 2. A node
      whose two parents are already adjacent is simplicial and needs no
      check. Treewidth >= 2 holds exactly when the connected moral graph
      has a cycle, i.e. at least as many edges as nodes.
    - The twin network's treewidth is computed exactly only when both
      cheap upper bounds on it, the min-degree width and the minfill
      width, reach 4; below that the twin treewidth is below 4. The exact
      search is sized to the twin (up to 2n - 1 nodes).
    """
    for parents, twin_adj in _treewidth_two_dags(max_nodes):
        if _min_degree_width(twin_adj, 3) < 4:
            continue
        names = tuple(chr(ord("A") + i) for i in range(len(parents)))
        dag = Dag(names, {names[v]: tuple(names[p] for p in ps) for v, ps in enumerate(parents)})
        tg = moral_graph(twin_dag(dag))
        if eliminate(tg, minfill_order(tg)).width < 4:
            continue
        if exact_treewidth(tg, node_limit=len(tg.nodes)) == 4:
            return {
                "parents": {v: list(ps) for v, ps in dag.parents.items()},
                "base_treewidth": 2,
                "twin_treewidth": 4,
            }
    return None
