"""Family replication, the two separator-thinning rules applied to
fixpoint, the Thm-3 twin lift, and `Structures`, which chains them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from itertools import count

from .elimination import EliminationOrder, _bits
from .jointree import (
    Jointree,
    SeparatorAssignment,
    _assemble,
    _classical_masks,
    classical_separators,
    edge_key,
    jointree_from_order,
    make_twin_jointree,
    twin_separators_direct,
)
from .model import Dag, InvariantError, ModelError

CHAIN_BOUND = 10  # replication depth of the engines; the default of `ctwin bench`, `audit` and `thin`


def replicate(jt: Jointree, dag: Dag, chain_bound: int, functional=None) -> Jointree:
    """Host functional families at extra leaves placed next to the hosts
    of their children's families, so chains of functional variables get
    replicated up to depth chain_bound."""
    if chain_bound < 0:
        raise ModelError("chain_bound must be >= 0")
    functional = set(dag.internals() if functional is None else functional)
    topo = dag.topological_order()

    nodes = list(jt.nodes)
    edges = [edge_key(*e) for e in jt.edges]
    hosts = {c: list(hs) for c, hs in jt.hosts.items()}
    nb = {v: set(us) for v, us in jt.neighbors.items()}
    leaf_of = dict(jt.leaf_family)
    host_depth = {leaf: 0 for leaf in leaf_of}
    counter = 0

    for x in reversed(topo):
        if x not in functional:
            continue
        kids = sorted(dag.children_of(x))
        for y in kids:
            # one replica per (family, child): extend the deepest chain
            eligible = [h for h in hosts.get(y, ()) if host_depth[h] < chain_bound]
            if not eligible:
                continue
            h = min(eligible, key=lambda l: (-host_depth[l], l))
            (u,) = nb[h]  # the internal node next to h
            if any(w in leaf_of and leaf_of[w] == x for w in nb[u]):
                continue  # a host of f_x already sits here
            if u in leaf_of:
                raise ModelError(f"cannot replicate f_{x} on the 2-node jointree {h} - {u}: it has no internal node")
            leaf = f"r{counter}_{x}"
            counter += 1
            nodes.append(leaf)
            edges.append(edge_key(leaf, u))
            nb[leaf] = {u}
            nb[u].add(leaf)
            hosts[x].append(leaf)
            leaf_of[leaf] = x
            host_depth[leaf] = host_depth[h] + 1

    return replace(jt, nodes=tuple(nodes), edges=tuple(sorted(edges)), hosts={c: tuple(hs) for c, hs in hosts.items()})


def thin(jt: Jointree, functional) -> SeparatorAssignment:
    """Apply the two thinning rules to exhaustion, sweeping edges in
    canonical order, rule 1 before rule 2, until a pass removes nothing.

    A removal only commits if it keeps message passing sound: every
    x-region (a maximal set of nodes joined by edges whose separators
    still carry x, with the leaves whose hosted families mention x) must
    keep a host of f_x, since the sum over x inside a region is exact
    only there. Every removal is logged with its justification.

    Rules and guard for (x, e) read only the edges carrying x, so each
    variable runs to its own fixpoint and the log is ordered by (pass,
    edge, variable), as one joint sweep would order it."""
    names, bit_of = jt.variables, jt.bit_of
    functional = sum(bit_of[v] for v in set(functional) if v in bit_of)
    sep = _classical_masks(jt)
    mention: dict[str, set[str]] = {}
    for leaf, child in jt.leaf_family.items():
        for i in _bits(jt.family_masks[child] & functional):
            mention.setdefault(names[i], set()).add(leaf)
    var_edges: dict[str, list[tuple[str, str]]] = {}
    for e, s in sep.items():
        for i in _bits(s & functional):
            var_edges.setdefault(names[i], []).append(e)
    removals = []
    for x, edges in var_edges.items():
        removals += _thin_variable(x, sorted(edges), set(jt.hosts.get(x, ())), mention.get(x, set()))
    log = []
    for _, e, x, rule, witness in sorted(removals, key=lambda r: r[:3]):
        sep[e] &= ~bit_of[x]
        log.append({"edge": e, "variable": x, "rule": rule, "witness": witness})
    return _assemble(jt, sep, tuple(log))


def _thin_variable(x: str, edges: list, hosts: set, mention: set) -> list[tuple]:
    """Removals (pass, edge, x, rule, witness) of x from its sorted edges.

    The classical x-edges form one tree that spans every leaf mentioning
    x, a host of f_x among them; removals split it into a forest. Each
    component is rooted, and every node carries the hosts and mentions in
    its subtree, so removing (parent, child) splits off the child's
    subtree with known counts: rule 1 needs a host on both sides, rule 2
    an endpoint of x-degree 1, and the guard no side that has mentions but
    no host. A committed removal makes the child's subtree a new
    component, rooted at the child, and takes its counts off the parent,
    its ancestors and their component; the rules, guard and witnesses
    read only each side's counts and smallest host, never the rooting."""
    adj: dict[str, set[str]] = {v: set() for v in mention}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    parent: dict[str, str | None] = {}
    comp: dict[str, int] = {}
    below: dict[str, list[int]] = {}  # node -> [hosts, mentions] in its subtree
    comps: list[list] = []  # [hosts, mentions, smallest host]

    def label(root: str, fresh: bool) -> list:
        """Make root's subtree, away from its parent, a new component
        rooted at root; fresh counts every subtree in it, else they are
        known: a split leaves them as they were."""
        order = [root]
        for v in order:
            comp[v] = len(comps)
            if fresh:
                below[v] = [v in hosts, v in mention]
            for u in adj[v]:
                if u != parent.get(v):
                    parent[u] = v
                    order.append(u)
        if fresh:
            for v in reversed(order[1:]):
                up, down = below[parent[v]], below[v]
                up[0] += down[0]
                up[1] += down[1]
        parent[root] = None
        comps.append([*below[root], min((v for v in order if v in hosts), default=None)])
        return comps[-1]

    for v in adj:
        if v not in comp:
            h, m, _ = label(v, True)
            if m and not h:
                raise InvariantError(f"an {x}-region has no host of f_{x}")
    out = []
    for k in count():
        keep = []
        for e in edges:
            a, b = e
            c = a if parent[a] == b else b
            hc, mc = below[c]
            rest = comps[comp[c]]
            ho, mo = rest[0] - hc, rest[1] - mc
            if hc and ho:
                rule, witness = 1, None
            elif (len(adj[a]) == 1 or len(adj[b]) == 1) and (hc or not mc) and (ho or not mo):
                rule, witness = 2, a if len(adj[a]) == 1 else b
            else:
                keep.append(e)
                continue
            adj[a].remove(b)
            adj[b].remove(a)
            v = p = parent[c]
            label(c, False)
            rest[:2] = ho, mo
            while v is not None:
                below[v][0] -= hc
                below[v][1] -= mc
                v = parent[v]
            if rest[2] is not None and comp[rest[2]] != comp[p]:
                rest[2] = min((h for h in hosts if comp[h] == comp[p]), default=None)
            out.append((k, e, x, rule, witness or (comps[comp[a]][2], comps[comp[b]][2])))
        if len(keep) == len(edges):
            return out
        edges = keep


# Thm-3 lifting: thinned base separators carry over to the twin jointree by
# the same duplicated/duplicate/invariant edge rules as Thm 2, and so does the log.
thinned_twin_separators = twin_separators_direct


class Structures:
    """What an elimination order of a DAG gives, each part built when
    first read: the jointree with classical separators, its Alg-1 twin
    jointree with Thm-2 separators, and the replicated jointree thinned
    to fixpoint with its Thm-3 twin lift."""

    def __init__(self, dag: Dag, order: EliminationOrder, chain_bound: int = CHAIN_BOUND):
        self.dag, self.order, self.chain_bound = dag, order, chain_bound

    @cached_property
    def jointree(self) -> Jointree:
        return jointree_from_order(self.dag, self.order)

    @cached_property
    def separators(self) -> SeparatorAssignment:
        return classical_separators(self.jointree)

    @cached_property
    def twin_separators(self) -> SeparatorAssignment:
        return twin_separators_direct(self.separators, make_twin_jointree(self.jointree, self.dag))

    @cached_property
    def thinned(self) -> SeparatorAssignment:
        return thin(replicate(self.jointree, self.dag, self.chain_bound), self.dag.internals())

    @cached_property
    def thinned_twin(self) -> SeparatorAssignment:
        return thinned_twin_separators(self.thinned, make_twin_jointree(self.thinned.jointree, self.dag))
