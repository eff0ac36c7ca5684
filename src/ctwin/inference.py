"""Factor arithmetic, variable elimination, jointree propagation over
classical or thinned separators, the counterfactual query pipeline, and
brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct
from math import prod

import numpy as np

from .elimination import EliminationOrder, _family_adjacency, _replay, minfill_order, n_world_order, twin_order
from .jointree import Jointree, SeparatorAssignment, classical_separators, edge_key
from .model import Dag, Evidence, Factor, InvariantError, ModelError, Scm, scm_factors
from .thinning import Structures
from .worlds import _check_states, _point_masses, moral_graph, mutilate, n_world_network, twin_network


class ZeroEvidenceError(ModelError):
    """Conditional query against evidence of probability zero."""


@dataclass(frozen=True)
class CounterfactualQuery:
    world_count: int
    shared_roots: frozenset[str]
    observations: tuple[Evidence, ...]  # one per world
    interventions: tuple[Evidence, ...]  # one per world
    target: tuple[tuple[int, str, int], ...]  # (world, variable, state)
    mode: str = "conditional"  # "conditional" | "joint"

    def __post_init__(self):
        if self.world_count < 1:
            raise ModelError("world count must be >= 1")
        if len(self.observations) != self.world_count or len(self.interventions) != self.world_count:
            raise ModelError("need one observation/intervention set per world")
        for w, _, _ in self.target:
            if not (1 <= w <= self.world_count):
                raise ModelError(f"target world {w} out of range")
        if self.mode not in ("conditional", "joint"):
            raise ModelError(f"unknown query mode {self.mode!r}")


@dataclass(frozen=True)
class InferenceResult:
    value: float
    evidence_probability: float
    method: str


# ---------------------------------------------------------------- factors

def multiply(a: Factor, b: Factor) -> Factor:
    if a.scope == b.scope:
        return Factor(a.scope, a.values * b.values)
    pos = {v: i for i, v in enumerate(b.scope)}
    src = [pos.pop(v, None) for v in a.scope]
    extra = tuple(pos)
    shape = b.values.shape
    bshape = [1 if p is None else shape[p] for p in src] + [shape[p] for p in pos.values()]
    src = [p for p in src if p is not None] + list(pos.values())
    bv = b.values if src == sorted(src) else np.transpose(b.values, src)
    av = a.values.reshape(a.values.shape + (1,) * len(extra)) if extra else a.values
    return Factor(a.scope + extra, av * bv.reshape(bshape))


def sum_out(f: Factor, v: str) -> Factor:
    if v not in f.scope:
        return f
    axis = f.scope.index(v)
    return Factor(tuple(x for x in f.scope if x != v), f.values.sum(axis=axis))


def reduce_factor(f: Factor, e: Evidence) -> Factor:
    """Select the evidence-consistent slice and drop those variables; f
    itself when the evidence does not touch its scope."""
    if e.assignments.keys().isdisjoint(f.scope):
        return f
    idx = tuple(
        e.assignments[v] if v in e.assignments else slice(None) for v in f.scope
    )
    scope = tuple(v for v in f.scope if v not in e.assignments)
    return Factor(scope, f.values[idx])


def factor_value(f: Factor) -> float:
    if f.scope:
        raise ModelError("factor still has free variables")
    return float(f.values)


# ---------------------------------------------------------------- VE

def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _Buckets:
    """The bucket tree of an elimination order over a network's family
    factors, from one replay of the network's moral graph (Dechter 1999;
    Darwiche 2009, ch. 6). Bucket i eliminates the i-th variable of the
    order; bucket len(sequence) holds the factors with an empty scope.

    A family's factor starts in its base bucket, that of its earliest
    variable. Bucket i's result has the scope out[i], the cluster of i
    less i, and goes to parent[i], the bucket of its lowest bit. Every
    member of out[i] is an ancestor of i. So a factor whose scope only
    shrinks (reduced, or cut to a point mass) lands on an ancestor of its
    base bucket, and a bucket with no such factor at or below it computes
    from the same operands, in the same order, on every query. results
    maps each such clean bucket to its product's size and its result, for
    every later query on the tree."""

    def __init__(self, dag: Dag, sequence: tuple[str, ...], factors: list[Factor], method: str = "ve"):
        self.sequence, self.factors, self.method = sequence, factors, method
        self.pos = pos = {v: i for i, v in enumerate(sequence)}
        self.out = _replay(_family_adjacency(sequence, dag.parents))
        n = len(sequence)
        self.parent = [_low(o) if o else n for o in self.out]
        bit = {v: 1 << i for i, v in enumerate(sequence)}
        self.family = {v: sum(map(bit.__getitem__, f.scope)) for v, f in zip(dag.nodes, factors)}
        self.base = [_low(m) for m in self.family.values()]
        self.hosted: list[list[tuple[str, int]]] = [[] for _ in range(n + 1)]  # the families by base bucket
        for (v, m), b in zip(self.family.items(), self.base):
            self.hosted[b].append((v, m))
        self.children: list[list[int]] = [[] for _ in range(n + 1)]
        self.widest = [o.bit_count() for o in self.out] + [0]  # the widest out[] in each subtree
        for i, p in enumerate(self.parent):  # a child comes before its parent
            self.children[p].append(i)
            self.widest[p] = max(self.widest[p], self.widest[i])
        self.results: dict[int, tuple[int, Factor]] = {}

    def closure(self, buckets) -> set[int]:
        """The buckets and all their ancestors."""
        out, end = set(), len(self.sequence)
        for b in buckets:
            while b != end and b not in out:
                out.add(b)
                b = self.parent[b]
        return out

    def width(self, cut=()) -> int:
        """The order's width once the family of each variable in cut is cut
        to that variable, as `_replay` gives it on the cut moral graph. Only
        the cut families' base buckets and their ancestors change. Each of
        those, in order, unites what lands in it: its uncut families, the
        cut ones it is the variable of, and its children's outputs. A clean
        child's subtree keeps its uncut outputs, the widest of which is
        precomputed."""
        pos = self.pos
        redo = sorted(self.closure(_low(self.family[v]) for v in cut))
        acc = dict.fromkeys(redo + [len(self.sequence)], 0)
        for v in cut:
            acc[pos[v]] |= 1 << pos[v]
        width = 0
        for i in acc:
            for c in self.children[i]:
                if c not in acc:
                    width = max(width, self.widest[c])
                    acc[i] |= self.out[c]
            for v, m in self.hosted[i]:
                if v not in cut:
                    acc[i] |= m
            o = acc[i] & ~(1 << i)
            width = max(width, o.bit_count())
            if o:
                acc[_low(o)] |= o
        return width

    def prob(self, factors: list[Factor], es: list[Evidence], cut=()) -> list[float]:
        """Pr(e) for each e in es, eliminated in lockstep over the given
        factors, in which the family of each variable in cut is a point
        mass. A factor on whose scope e agrees with the first evidence is
        reduced once for both. No factor may outgrow the cut order's
        width + 1 (the complexity contract made checkable)."""
        first = [reduce_factor(f, es[0]) for f in factors]
        pools = [first]
        for e in es[1:]:
            a, b = es[0].assignments, e.assignments
            differ = {v for v in a.keys() | b.keys() if a.get(v) != b.get(v)}
            pools.append([g if differ.isdisjoint(f.scope) else reduce_factor(f, e) for f, g in zip(factors, first)])
        width = self.width(cut)
        out = []
        for value, peak in _eliminate_all(pools, self):
            if peak > width + 1:
                raise InvariantError(f"peak scope {peak} exceeds width bound {width + 1}")
            out.append(value)
        return out


def _eliminate_all(pools: list[list[Factor]], buckets: _Buckets) -> list[tuple[float, int]]:
    """Sum out every variable in the buckets' order from each pool, one
    factor per family in network node order, the pools in lockstep;
    returns (value, peak scope size) per pool.

    A factor waits in the bucket of its earliest variable: a family's
    compiled factor in its base bucket, any other (reduced, or a point
    mass) where its scope puts it. So when a variable is eliminated its
    bucket holds, in pool order, exactly the factors that mention it. A
    bucket that is neither the base bucket of such another factor nor an
    ancestor of one is clean: it takes its stored result when there is
    one, and otherwise stores the one it computes. Where a pool's bucket
    holds the same objects as the previous pool's, their product and sum
    are computed once and the one result goes to both pools."""
    pos, parent, results = buckets.pos, buckets.parent, buckets.results
    end = len(buckets.sequence)
    lists, dirty = [], []
    for factors in pools:
        bucket: list = [[] for _ in range(end + 1)]
        changed = []
        for f, g, b in zip(factors, buckets.factors, buckets.base):
            if f is not g:
                changed.append(b)
                b = min((pos[x] for x in f.scope), default=end)
            bucket[b].append(f)
        lists.append(bucket)
        dirty.append(buckets.closure(changed))
    peaks = [max((len(f.scope) for f in factors), default=0) for factors in pools]
    for i, v in enumerate(buckets.sequence):
        prev: list[Factor] = []
        for k, bucket in enumerate(lists):
            touching, bucket[i] = bucket[i], None
            clean = i not in dirty[k]
            if clean and i in results:
                size, out = results[i]
            elif not touching:
                continue
            else:
                if len(touching) != len(prev) or any(f is not g for f, g in zip(touching, prev)):
                    prev, f = touching, touching[0]
                    for g in touching[1:]:
                        f = multiply(f, g)
                    made = len(f.scope), sum_out(f, v)
                size, out = made
                if clean:
                    results[i] = made
            peaks[k] = max(peaks[k], size)
            bucket[parent[i] if clean else min((pos[x] for x in out.scope), default=end)].append(out)
    return [(prod((factor_value(f) for f in bucket[end]), start=1.0), peak)
            for bucket, peak in zip(lists, peaks)]


def ve_query(
    scm: Scm,
    evidence: Evidence,
    order: EliminationOrder,
    target: Evidence,
    mode: str = "conditional",
) -> InferenceResult:
    """Pr(target, evidence) and Pr(evidence) by variable elimination.

    The largest intermediate factor is checked to stay within the
    order's width + 1 (the complexity contract made checkable)."""
    factors = scm_factors(scm)
    return _answer(_Buckets(scm.dag, order.sequence, factors), scm, factors, evidence, target, mode)


# ---------------------------------------------------------------- jointree

def _leaf_factors(hosts: dict[str, tuple[str, ...]], factors: dict[str, Factor]) -> dict[str, Factor]:
    """Assign the family factor for each child to every one of its host
    leaves; replicated families must be deterministic (0/1 tables)."""
    out: dict[str, Factor] = {}
    for child, leaves in hosts.items():
        f = factors[child]
        if len(leaves) > 1:
            vals = f.values
            if not np.all((vals == 0.0) | (vals == 1.0)):
                raise ModelError(f"replicated family {child!r} is not deterministic")
        for leaf in leaves:
            out[leaf] = f
    return out


@dataclass(frozen=True)
class _Schedule:
    """A jointree rooted at its first node, ready for message passing:
    the family hosts, and every node in reverse breadth-first order with
    its parent, its children and the separator towards its parent. The
    root comes last, with no parent and an empty separator. messages maps
    each node no query input has reached to its leaf factor (or None) and
    its message, for every later query on the schedule."""

    hosts: dict[str, tuple[str, ...]]
    steps: tuple[tuple[str, str | None, tuple[str, ...], frozenset[str]], ...]
    method: str
    messages: dict[str, tuple[Factor | None, Factor]] = field(default_factory=dict, compare=False, repr=False)

    def prob(self, factors: list[Factor], es: list[Evidence], cut=()) -> list[float]:
        """Pr(e) for each e in es by messages towards the root from the
        leaves' factors reduced by e, over the given factors, in which the
        family of each variable in cut is a point mass.

        A node is touched when it is a leaf whose family mentions a
        variable some e fixes or is cut, or when it has a touched child.
        An untouched node's message depends only on the factors and the
        schedule, so the schedule keeps it for every later query. After
        the first pass only the nodes whose leaves mention a variable on
        which e and the first evidence differ, and their ancestors,
        compute theirs; such a message is dropped once its parent has
        used it."""
        by_child = {f.scope[-1]: f for f in factors}
        for child in self.hosts:
            if child not in by_child:
                raise ModelError(f"no factor for hosted family {child!r}")
        leaf_factor = _leaf_factors(self.hosts, by_child)
        a = es[0].assignments
        differ = {v for e in es[1:] for v in a.keys() | e.assignments.keys() if a.get(v) != e.assignments.get(v)}
        inputs = set().union(*(e.assignments for e in es))
        changed = {leaf for leaf, f in leaf_factor.items() if not differ.isdisjoint(f.scope)}
        touched = {leaf for leaf, f in leaf_factor.items() if not inputs.isdisjoint(f.scope)}
        touched.update(leaf for v in cut for leaf in self.hosts[v])
        for v, _, children, _ in self.steps:
            if not changed.isdisjoint(children):
                changed.add(v)
            if not touched.isdisjoint(children):
                touched.add(v)
        msg: dict[str, Factor] = {}

        def collect(e: Evidence, redo: set[str] | None) -> float:
            for v, p, children, sep in self.steps:
                if redo is not None and v not in redo:
                    continue
                keep = v not in touched
                if keep and v in self.messages:
                    source, msg[v] = self.messages[v]
                    if source is not leaf_factor.get(v):
                        raise InvariantError(f"the stored message of {v} came from another factor")
                    continue
                f = reduce_factor(leaf_factor[v], e) if v in leaf_factor else None
                for u in children:
                    m = msg.pop(u) if u in changed else msg[u]
                    f = m if f is None else multiply(f, m)
                for x in f.scope:
                    if x not in sep or x in e.assignments:
                        f = sum_out(f, x)
                if not set(f.scope) <= sep:
                    raise InvariantError(f"message {v}->{p} scope {sorted(f.scope)} "
                                         f"exceeds its separator {sorted(sep)}")
                msg[v] = f
                if keep:
                    self.messages[v] = leaf_factor.get(v), f
            return factor_value(msg[self.steps[-1][0]])

        return [collect(e, changed if k else None) for k, e in enumerate(es)]


def _schedule(seps: SeparatorAssignment, method: str) -> _Schedule:
    jt = seps.jointree
    order, parent = jt.rooting
    steps = tuple((v, parent[v], tuple(jt.children[v]), seps.separators[edge_key(v, parent[v])])
                  for v in reversed(order[1:]))
    return _Schedule(jt.hosts, steps + ((order[0], None, tuple(jt.children[order[0]]), frozenset()),), method)


def jointree_propagate(
    jt: Jointree,
    scm: Scm,
    evidence: Evidence,
    target: Evidence,
    mode: str = "conditional",
) -> InferenceResult:
    """Message passing over classical separators. Targets are asserted as
    additional evidence so any leaf can produce the joint."""
    return _answer(_schedule(classical_separators(jt), "jointree"), scm, scm_factors(scm),
                   evidence, target, mode)


# ---------------------------------------------------------------- queries

def _answer(plan: _Buckets | _Schedule, net: Scm, factors: list[Factor], evidence: Evidence,
            target: Evidence, mode: str, cut=()) -> InferenceResult:
    """Pr(target | evidence), or Pr(target, evidence) when mode is
    "joint", and Pr(evidence), on a bucket tree or a jointree schedule
    over the given factors of net, in network node order, in which the
    family of each variable in cut is a point mass. A target that
    contradicts the evidence costs only the Pr(evidence) pass."""
    _check_states(net, evidence)
    _check_states(net, target)
    for v, s in target.items():
        if evidence.assignments.get(v, s) != s:
            return InferenceResult(0.0, plan.prob(factors, [evidence], cut)[0], plan.method)
    both = Evidence({**evidence.assignments, **target.assignments})
    p_both, p_e = plan.prob(factors, [both, evidence], cut)
    if mode == "joint":
        return InferenceResult(p_both, p_e, plan.method)
    if p_e <= 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return InferenceResult(p_both / p_e, p_e, plan.method)


class _Layout:
    """The query-independent part of counterfactual queries on one world
    layout (world count, shared roots) of an Scm: the unmutilated world
    network and its factors, the base minfill order, the lifted order and,
    in the twin case, the plan of each engine. Each part is built when
    first read. It holds no reference to the Scm."""

    def __init__(self, scm: Scm, world_count: int, shared_roots: frozenset[str]):
        self.dag = scm.dag
        self.world_count = world_count
        self.shared_roots = shared_roots
        self.twin = world_count == 2 and shared_roots == frozenset(scm.dag.roots())
        self.net, self.wmap = twin_network(scm) if self.twin else n_world_network(scm, shared_roots, world_count)
        self.plans: dict[str, _Buckets | _Schedule] = {}  # engine -> its twin plan

    @cached_property
    def factors(self) -> list[Factor]:
        out = scm_factors(self.net)
        for f in out:
            f.values.flags.writeable = False  # shared by every later query
        return out

    def query_factors(self, masses: dict[str, tuple[float, ...]]) -> list[Factor]:
        """The compiled factors, each intervened family replaced by its
        point mass."""
        return [Factor.of((v,), {v: len(masses[v])}, masses[v]) if v in masses else f
                for v, f in zip(self.net.dag.nodes, self.factors)]

    @cached_property
    def base_order(self) -> EliminationOrder:
        return minfill_order(moral_graph(self.dag))

    @cached_property
    def order(self) -> EliminationOrder:
        if self.twin:
            return twin_order(self.base_order, self.dag)
        return n_world_order(self.base_order, self.dag, self.shared_roots, self.world_count)

    def plan(self, engine: str, cut) -> _Buckets | _Schedule:
        """What the engine runs a query on whose interventions cut the
        families of the variables in cut: for "ve" the bucket tree of the
        lifted order; for "jointree" and "jointree-thinned" the Alg-1 twin
        jointree with Thm-2 or Thm-3 separators on a twin layout, and
        otherwise the jointree of the lifted order on the cut network with
        classical or thinned separators.

        A twin plan stays valid after mutilation, since families only
        shrink, so it is built once and kept, with the bucket results or
        messages that no query input reaches. A jointree plan is built
        from a `Structures` that lives only for this call."""
        if engine in self.plans:
            return self.plans[engine]
        thinned = engine == "jointree-thinned"
        if engine == "ve":
            plan = _Buckets(self.net.dag, self.order.sequence, self.factors,
                            "ve-twin" if self.twin else "ve-nworld")
        elif engine not in ("jointree", "jointree-thinned"):
            raise ModelError(f"unknown engine {engine!r}")
        elif self.twin:
            s = Structures(self.dag, self.base_order)
            plan = _schedule(s.thinned_twin if thinned else s.twin_separators, engine)
        else:
            dag = self.net.dag
            s = Structures(Dag(dag.nodes, {**dag.parents, **dict.fromkeys(cut, ())}), self.order)
            plan = _schedule(s.thinned if thinned else s.separators, engine)
        if self.twin:
            self.plans[engine] = plan
        return plan


def _query_network(scm: Scm, q: CounterfactualQuery):
    """The layout of q, and q's interventions, evidence and target in
    network ids. Only the twin layout is kept, in scm._compiled, for later
    queries; any other is built for its query and goes with it, since what
    it kept would live as long as the Scm and rarely serve again."""
    key = (q.world_count, frozenset(q.shared_roots))
    layout = scm._compiled.get(key)
    if layout is None:
        layout = _Layout(scm, *key)
        if layout.twin:
            scm._compiled[key] = layout
    do, obs = ([(w, v, s) for w, ev in enumerate(sets, start=1) for v, s in ev.items()]
               for sets in (q.interventions, q.observations))
    wmap = layout.wmap
    return (layout, _map(wmap, do, "interventions"), _map(wmap, obs, "observations"),
            _map(wmap, q.target, "target states"))


def _map(wmap, entries, what: str) -> Evidence:
    """(world, variable, state) entries as evidence on network ids. A
    shared variable is one id in every world, so two entries that give it
    different states conflict."""
    out = {}
    for w, v, s in entries:
        nid = wmap.lookup(v, w)
        if out.get(nid, s) != s:
            raise ModelError(f"conflicting {what} on {nid!r}")
        out[nid] = s
    return Evidence(out)


def build_query_network(scm: Scm, q: CounterfactualQuery):
    """N-world network (twin naming when N=2 with all roots shared),
    mutilated by the per-world interventions, plus mapped evidence and
    target. Returns (network, world_map, evidence, target)."""
    layout, do, obs, tgt = _query_network(scm, q)
    return mutilate(layout.net, do), layout.wmap, obs, tgt


def counterfactual(scm: Scm, q: CounterfactualQuery, engine: str = "ve") -> InferenceResult:
    """Evaluate a counterfactual query on the mutilated N-world network.

    Engines: "ve" eliminates along the bucket tree of a lifted base
    minfill order; "jointree" and "jointree-thinned" lift the base
    jointree through the twin jointree construction when N=2 with all
    roots shared, and otherwise build a jointree from the lifted order;
    "oracle" enumerates exogenous states. A query cuts the intervened
    families, maps its evidence and answers on its engine's plan, which
    on the twin layout is compiled once (see `_query_network`)."""
    if engine == "oracle":
        return brute_force_counterfactual(scm, q)
    layout, do, obs, tgt = _query_network(scm, q)
    masses = _point_masses(layout.net, do)
    return _answer(layout.plan(engine, masses), layout.net, layout.query_factors(masses), obs, tgt, q.mode, masses)


# ---------------------------------------------------------------- oracles

def _exogenous_enumeration(net: Scm, evidence: Evidence, target: Evidence):
    """Pr(target, evidence) and Pr(evidence) by enumerating root
    instantiations and propagating internals deterministically."""
    roots = net.dag.roots()
    space = prod(net.card(r) for r in roots)
    if space > 1 << 24:
        raise ModelError(f"exogenous state space {space} exceeds the 2^24 guard")
    topo = net.dag.topological_order()
    p_e = 0.0
    p_te = 0.0
    for combo in iproduct(*(range(net.card(r)) for r in roots)):
        p = 1.0
        state = dict(zip(roots, combo))
        for r, s in state.items():
            p *= net.root_tables[r][s]
        if p == 0.0:
            continue
        for v in topo:
            if v not in state:
                state[v] = net.child_state(v, state)
        if all(state[v] == s for v, s in evidence.items()):
            p_e += p
            if all(state[v] == s for v, s in target.items()):
                p_te += p
    return p_te, p_e


def brute_force_counterfactual(scm: Scm, q: CounterfactualQuery) -> InferenceResult:
    """Abduction-intervention-prediction collapsed into one enumeration
    over the exogenous states of the mutilated N-world network."""
    net, _, obs, tgt = build_query_network(scm, q)
    p_te, p_e = _exogenous_enumeration(net, obs, tgt)
    if q.mode == "joint":
        return InferenceResult(p_te, p_e, "oracle")
    if p_e <= 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return InferenceResult(p_te / p_e, p_e, "oracle")
