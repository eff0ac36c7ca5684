"""The benchmark's workloads: inputs made from a seed, the op each one
times, and the checks run on the ops' outputs after the timed loop.

Every input comes from ctwin's own portable generators (xoshiro256**
through ``Rng``, ``gen_rscm``, ``bench.generate_dag``), so a seed gives
the same networks and queries in any Python build. The program only
ever receives the generated networks and queries.

Each generator's docstring says why the workload exists: which layer it
stresses, so which change it is meant to show or to show unchanged, and
its measured repeat share (ops on a network the run has already seen).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

from ctwin import (
    CounterfactualQuery,
    Evidence,
    Rng,
    bench,
    build_query_network,
    counterfactual,
    gen_rscm,
)

CHAIN_BOUND = 10  # the chain bound `ctwin bench` uses by default
ORACLE_MAX_EXOGENOUS = 1 << 10  # enumerate the oracle only below this many root states
TOLERANCE = 1e-9

@dataclass(frozen=True)
class Op:
    """One timed call. ``net`` numbers the network it runs on, so the
    repeat share (ops on an already-seen network) can be measured;
    ``label`` groups ops for the per-class breakdown; ``check_key``
    carries what the output check needs."""

    index: int
    net: int
    label: str
    variables: int  # variables of the base network
    call: Callable[[], object]
    check_key: object


@dataclass
class Inputs:
    """An unbounded, deterministic op stream plus the DAGs whose instance
    widths give the workload's width.* means."""

    ops: Iterator[Op]
    width_dags: list


def _seeds(seed: int, tag: int) -> Iterator[int]:
    rng = Rng(seed * 1_000_003 + tag)
    while True:
        yield rng.next_u64()


# ------------------------------------------------------------------ widths

WIDTH_CELLS = (("rSCM", 20, 3), ("rNET", 30, 3))
WIDTH_INSTANCES = 160  # distinct DAGs per seed, cycled in order


def widths(seed: int) -> Inputs:
    """instance_widths on 160 DAGs, rSCM n=20 and rNET n=30, p=3, cycled in
    order: thin (~78%) and minfill_order (~11%) do the work and no factor
    is built, so kernel changes must not move it. Each DAG recurs once
    the cycle wraps; the width means cover all 160."""
    seeds = _seeds(seed, 1)
    cells = [WIDTH_CELLS[k % len(WIDTH_CELLS)] for k in range(WIDTH_INSTANCES)]
    dags = [bench.generate_dag(g, n, p, next(seeds)) for g, n, p in cells]

    def ops():
        for i in count():
            k = i % len(dags)
            g, n, p = cells[k]
            dag = dags[k]
            yield Op(i, k, f"{g}-n{n}-p{p}", len(dag.nodes),
                     lambda dag=dag: bench.instance_widths(dag, CHAIN_BOUND), k)

    return Inputs(ops(), dags)


def width_violations(widths_by_dag: dict) -> dict:
    """The paper's bounds on each instance: Cor 3 for the Alg-1 twin
    jointree and Cor 4 for the Thm-3 thinned twin separators. Maps each
    violating instance to its message."""
    bad = {}
    for k, w in widths_by_dag.items():
        (alg1, _), (mf, _) = w["twin_alg1"], w["base_mf"]
        (thm3, _), (rls, _) = w["twin_thm3"], w["base_mf_rls"]
        if alg1 > 2 * mf + 1 or thm3 > 2 * rls + 1:
            bad[k] = f"instance {k}: twin_alg1 {alg1} vs 2*{mf}+1, twin_thm3 {thm3} vs 2*{rls}+1"
    return bad


def width_means(widths_by_dag: dict) -> dict[str, float]:
    return {
        m: statistics.fmean(w[m][0] for w in widths_by_dag.values())
        for m in ("twin_mf", "base_mf_rls", "twin_thm3")
    }


# ------------------------------------------------------------------ queries

def _sample_roots(scm, rng: Rng, roots) -> dict[str, int]:
    out = {}
    for r in roots:
        u, acc = rng.uniform(), 0.0
        table = scm.root_tables[r]
        state = len(table) - 1
        for s, p in enumerate(table):
            acc += p
            if u < acc:
                state = s
                break
        out[r] = state
    return out


def _simulate(scm, topo, roots: dict[str, int], do: dict[str, int]) -> dict[str, int]:
    state: dict[str, int] = {}
    for v in topo:
        if v in do:
            state[v] = do[v]
        elif v in roots:
            state[v] = roots[v]
        else:
            state[v] = scm.child_state(v, state)
    return state


def make_query(scm, rng: Rng, worlds: int, shared_all: bool) -> CounterfactualQuery:
    """A conditional counterfactual query whose evidence was realised.

    World 1 is factual: it carries 1-3 observations taken from a sampled
    state, so the evidence has positive probability. Worlds 2..N each
    intervene on 1-2 internals; the targets are the states those worlds
    actually reach, one or two variables in one of them."""
    roots = list(scm.dag.roots())
    internals = list(scm.dag.internals()) or roots
    topo = scm.dag.topological_order()
    shared = roots if shared_all else [r for r in roots if rng.below(2)]
    common = _sample_roots(scm, rng, shared)

    def pick(pool, most):
        return rng.sample(pool, min(len(pool), 1 + rng.below(most)))

    states, dos = [], []
    for w in range(worlds):
        own = _sample_roots(scm, rng, [r for r in roots if r not in common])
        do = {} if w == 0 else {v: rng.below(scm.card(v)) for v in pick(internals, 2)}
        dos.append(do)
        states.append(_simulate(scm, topo, {**common, **own}, do))
    observed = pick(internals, 3)
    tw = 2 + rng.below(worlds - 1)
    targets = pick([v for v in internals if v not in dos[tw - 1]], 2)
    return CounterfactualQuery(
        world_count=worlds,
        shared_roots=frozenset(shared),
        observations=(Evidence({v: states[0][v] for v in observed}),)
        + tuple(Evidence({}) for _ in range(worlds - 1)),
        interventions=tuple(Evidence(d) for d in dos),
        target=tuple((tw, v, states[tw - 1][v]) for v in targets),
    )


def _query_op(i, net, label, scm, q, engine, qid) -> Op:
    return Op(i, net, label, len(scm.dag.nodes),
              lambda: counterfactual(scm, q, engine), (qid, engine, scm, q))


def _sample_dags(ops: Iterator[Op], k: int) -> list:
    """The base DAGs of the first k distinct networks of an op stream."""
    out, seen = [], set()
    for op in ops:
        if len(out) == k:
            break
        if op.net not in seen:
            seen.add(op.net)
            out.append(op.check_key[2].dag)
    return out


TWIN_SIZE = 30
TWIN_NETWORKS = 32


def twin_queries(seed: int) -> Inputs:
    """Twin queries (N=2, all roots shared), each asked of ve and then
    jointree, over 32 fixed rSCM n=30 networks: minfill_order is redone on
    every call (~40% of an op), and the repeat share is ~0.96, so a compile
    cache shows here."""
    seeds = _seeds(seed, 2)
    nets = [gen_rscm(TWIN_SIZE, 3, Rng(next(seeds))) for _ in range(TWIN_NETWORKS)]
    query_seed = next(seeds)

    def ops():
        rng = Rng(query_seed)
        i = 0
        for qid in count():
            k = rng.below(len(nets))
            q = make_query(nets[k], rng, 2, shared_all=True)
            for engine in ("ve", "jointree"):
                yield _query_op(i, k, f"n{TWIN_SIZE}/{engine}", nets[k], q, engine, qid)
                i += 1

    return Inputs(ops(), [s.dag for s in nets])


NWORLD_SIZE = 16
WIDTH_SAMPLE = 64  # networks whose widths a new-network-per-op workload reports


def nworld_queries(seed: int) -> Inputs:
    """N=3 queries with a random subset of roots shared, ve and jointree
    alternating, a new rSCM n=16 network every op: each op builds the
    N-world network, its order and (for jointree) a jointree of the lifted
    network, and the repeat share is 0, so a compile cache must leave it
    unchanged."""

    def ops():
        seeds = _seeds(seed, 3)
        for i in count():
            scm = gen_rscm(NWORLD_SIZE, 3, Rng(next(seeds)))
            q = make_query(scm, Rng(next(seeds)), 3, shared_all=False)
            engine = ("ve", "jointree")[i % 2]
            yield _query_op(i, i, f"n{NWORLD_SIZE}/{engine}", scm, q, engine, i)

    return Inputs(ops(), _sample_dags(ops(), WIDTH_SAMPLE))


THINNED_TWIN_SIZES = (8, 10, 12, 15)
THINNED_NWORLD_SIZES = (6, 8, 10)


def thinned_queries(seed: int) -> Inputs:
    """jointree-thinned queries on a new small network every op (twin
    n in {8,10,12,15}, N=3 n in {6,8,10}; repeat share 0): the factor
    kernel and the memory peak. Oversized factors fail under the memory
    cap and count as failed ops."""

    def ops():
        seeds = _seeds(seed, 4)
        for i in count():
            rng = Rng(next(seeds))
            twin = i % 2 == 0
            pool = THINNED_TWIN_SIZES if twin else THINNED_NWORLD_SIZES
            n = pool[rng.below(len(pool))]
            scm = gen_rscm(n, 3, rng)
            q = make_query(scm, rng, 2 if twin else 3, shared_all=twin)
            label = f"{'twin' if twin else 'N3'}-n{n}"
            yield _query_op(i, i, label, scm, q, "jointree-thinned", i)

    return Inputs(ops(), _sample_dags(ops(), WIDTH_SAMPLE))


GENERATORS = {
    "widths": widths,
    "twin-queries": twin_queries,
    "nworld-queries": nworld_queries,
    "thinned-queries": thinned_queries,
}
WHY = {name: " ".join(fn.__doc__.split()) for name, fn in GENERATORS.items()}


def warmup_ops(name: str, seed: int) -> list[Op]:
    """Small ops on networks outside the timed stream that touch the same
    code paths: first-call costs are paid before timing starts."""
    rng = Rng(seed * 1_000_003 + 5)
    if name == "widths":
        dag = bench.generate_dag("rSCM", 12, 3, rng.next_u64())
        return [Op(0, 0, "warmup", len(dag.nodes), lambda: bench.instance_widths(dag, CHAIN_BOUND), 0)]
    scm = gen_rscm(8, 3, rng)
    if name == "thinned-queries":
        engines, worlds = ("jointree-thinned",), (2,)
    else:
        engines, worlds = ("ve", "jointree"), ((2,) if name == "twin-queries" else (3,))
    return [_query_op(0, 0, "warmup", scm, make_query(scm, rng, w, shared_all=w == 2), e, 0)
            for w in worlds for e in engines]


# ------------------------------------------------------- reference cells

CELL_INSTANCES = 12


def widths_cell(seed: int) -> list[Op]:
    """instance_widths on 12 rSCM n=50 p=7 DAGs: the cell the project's
    first figure for thin's share of an instance was quoted for."""
    seeds = _seeds(seed, 6)
    dags = [bench.generate_dag("rSCM", 50, 7, next(seeds)) for _ in range(CELL_INSTANCES)]
    return [Op(k, k, "rSCM-n50-p7", len(dag.nodes),
               lambda dag=dag: bench.instance_widths(dag, CHAIN_BOUND), k)
            for k, dag in enumerate(dags)]


def jointree_cell(seed: int) -> list[Op]:
    """Three twin jointree queries on each of 12 rSCM n=50 p=3 networks:
    the cell the first figure for minfill_order's share was quoted for."""
    seeds = _seeds(seed, 7)
    rng = Rng(next(seeds))
    nets = [gen_rscm(50, 3, Rng(next(seeds))) for _ in range(CELL_INSTANCES)]
    queries = [(k, make_query(net, rng, 2, shared_all=True)) for k, net in enumerate(nets)
               for _ in range(3)]
    return [_query_op(i, k, "n50/jointree", nets[k], q, "jointree", i)
            for i, (k, q) in enumerate(queries)]


REFERENCE_CELLS = {
    "instance_widths rSCM n=50 p=7": widths_cell,
    "twin jointree query rSCM n=50 p=3": jointree_cell,
}


REFERENCE_ENGINE = {"ve": "jointree", "jointree": "ve", "jointree-thinned": "jointree"}


def _exogenous_space(scm, q) -> int:
    net, _, _, _ = build_query_network(scm, q)
    return math.prod(net.card(r) for r in net.dag.roots())


def check_queries(records) -> list[str]:
    """Each answer must match the oracle within TOLERANCE where the root
    space is small enough to enumerate, and otherwise a second engine.
    A reference another timed op already computed is reused."""
    answered = {}
    for r in records:
        if r.error is None:
            qid, engine, _, _ = r.op.check_key
            answered[(qid, engine)] = r.result
    bad = []
    for r in records:
        if r.error is not None:
            continue
        qid, engine, scm, q = r.op.check_key
        oracle = _exogenous_space(scm, q) <= ORACLE_MAX_EXOGENOUS
        ref_engine = "oracle" if oracle else REFERENCE_ENGINE[engine]
        ref = None if oracle else answered.get((qid, ref_engine))
        if ref is None:
            try:
                ref = counterfactual(scm, q, ref_engine)
            except Exception as exc:  # no reference, so the answer stays unchecked
                bad.append(f"op {r.op.index} ({engine}): {ref_engine} failed: {exc!r:.160}")
                r.check_failed = True
                continue
            answered[(qid, ref_engine)] = ref
        if (abs(r.result.value - ref.value) > TOLERANCE
                or abs(r.result.evidence_probability - ref.evidence_probability) > TOLERANCE):
            bad.append(
                f"op {r.op.index} ({engine}): {r.result.value!r} vs {ref_engine} {ref.value!r}"
            )
            r.check_failed = True
    return bad
