"""Jointrees with leaf-hosted families: construction from elimination
orders, separator/cluster/width computation, the base-to-twin jointree
conversion, and the direct twin separator lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .elimination import EliminationOrder, _family_adjacency, _replay
from .model import Dag, InvariantError, ModelError
from .worlds import _twin_structure, twin_name


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Jointree:
    """Tree plus family hosting. Only leaves host; each leaf hosts exactly
    one family; a family may be hosted at several leaves (replicas).

    Construction raises ModelError on any violated invariant, and derives
    once the neighbour lists, the leaf -> family map, `rooting`, the
    breadth-first order and parents from nodes[0], and `children`, each
    node's children in neighbour order. Every pass that walks the tree
    reads these. Callers must not change them; `dataclasses.replace`
    derives them afresh.

    For twin jointrees produced by `make_twin_jointree`, `edge_class`
    labels every edge duplicated / duplicate / invariant,
    `duplicate_base` maps each duplicate edge to the edge it copies, and
    `var_dup` maps every base variable to its duplicate (roots to
    themselves).
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    hosts: dict[str, tuple[str, ...]]  # family child id -> host leaves
    families: dict[str, frozenset[str]]  # family child id -> members
    edge_class: dict[tuple[str, str], str] | None = None
    duplicate_base: dict[tuple[str, str], tuple[str, str]] | None = None
    var_dup: dict[str, str] | None = None

    _neighbors: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _leaf_family: dict[str, str] = field(init=False, repr=False, compare=False)
    rooting: tuple[list[str], dict[str, str | None]] = field(init=False, repr=False, compare=False)
    children: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.edges) != len(self.nodes) - 1:
            raise ModelError("tree must have n-1 edges")
        nb: dict[str, list[str]] = {v: [] for v in self.nodes}
        for a, b in self.edges:
            if a not in nb or b not in nb:
                raise ModelError(f"edge end {a if b in nb else b!r} is not a node")
            nb[a].append(b)
            nb[b].append(a)
        root = self.nodes[0]
        parent: dict[str, str | None] = {root: None}
        order = [root]
        children: dict[str, list[str]] = {v: [] for v in self.nodes}
        for v in order:
            for u in nb[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
                    children[v].append(u)
        if len(order) != len(self.nodes):
            raise ModelError("tree is not connected")
        lf: dict[str, str] = {}
        for child, leaves in self.hosts.items():
            for leaf in leaves:
                if leaf in lf:
                    raise ModelError(f"leaf {leaf!r} hosts two families")
                if leaf not in nb:
                    raise ModelError(f"host {leaf!r} is not a node")
                if len(nb[leaf]) > 1:
                    raise ModelError(f"host {leaf!r} is not a leaf")
                lf[leaf] = child
        for v in self.nodes:
            if len(nb[v]) <= 1 and v not in lf:
                raise ModelError(f"leaf {v!r} hosts no family")
        for child in self.families:
            if not self.hosts.get(child):
                raise ModelError(f"family of {child!r} has no host")
        object.__setattr__(self, "_neighbors", nb)
        object.__setattr__(self, "_leaf_family", lf)
        object.__setattr__(self, "rooting", (order, parent))
        object.__setattr__(self, "children", children)

    def neighbors(self) -> dict[str, list[str]]:
        return self._neighbors

    def leaf_family(self) -> dict[str, str]:
        """Map each host leaf to the single family child it hosts."""
        return self._leaf_family


@dataclass(frozen=True)
class SeparatorAssignment:
    """A jointree with a separator on every edge, the clusters and widths
    they give, and, for thinned separators, the removal audit."""

    jointree: Jointree
    separators: dict[tuple[str, str], frozenset[str]]
    clusters: dict[str, frozenset[str]]
    width: int
    normalized_width: float
    log: tuple[dict, ...] = ()  # thinning removals: {edge, variable, rule, witness}


def _log2_big(total: int) -> float:
    shift = max(total.bit_length() - 53, 0)
    return math.log2(total >> shift) + shift


def _assemble(jt: Jointree, separators, log=()) -> SeparatorAssignment:
    lf = jt.leaf_family()
    nb = jt.neighbors()
    clusters = {}
    for v in jt.nodes:
        if v in lf:
            clusters[v] = jt.families[lf[v]]
        else:
            c: frozenset[str] = frozenset()
            for u in nb[v]:
                c |= separators[edge_key(v, u)]
            clusters[v] = c
    sizes = [len(c) for c in clusters.values()]
    return SeparatorAssignment(jt, dict(separators), clusters, max(sizes) - 1,
                               _log2_big(sum(1 << s for s in sizes)), log)


def classical_separators(jt: Jointree) -> SeparatorAssignment:
    """S_ij = variables hosted on both sides of edge (i, j)."""
    hosted = {leaf: jt.families[child] for leaf, child in jt.leaf_family().items()}
    order, parent = jt.rooting
    children = jt.children
    below: dict[str, frozenset[str]] = {}
    for v in reversed(order):
        s = hosted.get(v, frozenset())
        for u in children[v]:
            s |= below[u]
        below[v] = s
    above: dict[str, frozenset[str]] = {order[0]: frozenset()}
    for v in order:
        kids = children[v]
        base = above[v] | hosted.get(v, frozenset())
        for u in kids:
            s = base
            for w in kids:
                if w is not u:
                    s |= below[w]
            above[u] = s
    separators = {
        edge_key(v, parent[v]): below[v] & above[v]
        for v in order
        if parent[v] is not None
    }
    return _assemble(jt, separators)


def jointree_from_order(dag: Dag, order: EliminationOrder) -> Jointree:
    """Cluster-tree construction: link each elimination cluster to the
    cluster of its earliest-eliminated remaining member, then hang one
    host leaf per family off a cluster that contains it."""
    rest = _replay(_family_adjacency(order.sequence, dag.parents))  # cluster i less node i
    pos = {v: i for i, v in enumerate(order.sequence)}
    n = len(order.sequence)
    cname = [f"c{i}" for i in range(n)]
    nodes = list(cname)
    edges = []
    linked = [False] * n
    for i in range(n):
        if rest[i]:
            edges.append(edge_key(cname[i], cname[(rest[i] & -rest[i]).bit_length() - 1]))
            linked[i] = True
    # connect remaining components (clusters that ended a component) in a chain
    tails = [i for i in range(n) if not linked[i]]
    for a, b in zip(tails, tails[1:]):
        edges.append(edge_key(cname[a], cname[b]))

    families = {v: frozenset((v,) + dag.parents[v]) for v in dag.nodes}
    hosts = {}
    for v in dag.nodes:
        family = sum(1 << pos[m] for m in families[v])
        i = (family & -family).bit_length() - 1
        if family & ~(rest[i] | 1 << i):
            raise InvariantError(f"family of {v!r} is not inside cluster {i}")
        leaf = f"f_{v}"
        nodes.append(leaf)
        edges.append(edge_key(leaf, cname[i]))
        hosts[v] = (leaf,)

    # prune childless skeleton leaves; hosts must be the only leaves. A
    # node is pushed when its degree first reaches 1, so at most once.
    host_leaves = {leaf for hs in hosts.values() for leaf in hs}
    nb: dict[str, list[str]] = {v: [] for v in nodes}
    for a, b in edges:
        nb[a].append(b)
        nb[b].append(a)
    deg = {v: len(us) for v, us in nb.items()}
    stack = [v for v in nodes if deg[v] <= 1 and v not in host_leaves]
    pruned: set[str] = set()
    while stack and len(nodes) - len(pruned) > 1:
        v = stack.pop()
        pruned.add(v)
        for u in nb[v]:
            if u not in pruned:
                deg[u] -= 1
                if deg[u] == 1 and u not in host_leaves:
                    stack.append(u)
    nodes = [v for v in nodes if v not in pruned]
    edges = sorted(e for e in edges if e[0] not in pruned and e[1] not in pruned)
    return Jointree(tuple(nodes), tuple(edges), hosts, families)


def make_twin_jointree(jt: Jointree, base: Dag) -> Jointree:
    """Convert a base jointree into a twin jointree by duplicating the
    maximal subtrees whose leaves host only internal families."""
    roots = set(base.roots())
    families = {v: frozenset((v,) + ps) for v, ps in _twin_structure(base)[1].items()}
    var_dup = {v: (v if v in roots else twin_name(v)) for v in base.nodes}

    lf = jt.leaf_family()
    nodes = list(jt.nodes)
    edges = [edge_key(*e) for e in jt.edges]
    hosts = {c: list(hs) for c, hs in jt.hosts.items()}
    order, _ = jt.rooting
    children = jt.children
    kinds: dict[str, set[bool]] = {}  # v -> {whether a host leaf at or below v hosts a root}
    for v in reversed(order):
        kinds[v] = {lf[v] in roots} if v in lf else set()
        for k in children[v]:
            kinds[v] |= kinds[k]

    edge_class: dict[tuple[str, str], str] = {}
    duplicate_base: dict[tuple[str, str], tuple[str, str]] = {}

    def duplicate_subtree(r, p):
        sub = [r]
        stack = [r]
        while stack:
            v = stack.pop()
            for k in children[v]:
                sub.append(k)
                stack.append(k)
        dup = {v: v + "'" for v in sub}
        nodes.extend(dup[v] for v in sub)
        inner = [(v, k) for v in sub for k in children[v]]
        for a, b in inner + [(p, r)]:
            e = edge_key(a, b)
            da, db = dup.get(a, a), dup.get(b, b)
            de = edge_key(da, db)
            edges.append(de)
            edge_class[e] = "duplicated"
            edge_class[de] = "duplicate"
            duplicate_base[de] = e
        for v in sub:
            if v in lf:
                child = lf[v]
                hosts.setdefault(twin_name(child), []).append(dup[v])

    def visit(r, p):
        if kinds[r] == {True}:
            return
        if kinds[r] == {False}:
            duplicate_subtree(r, p)
            return
        for k in children[r]:
            visit(k, r)

    visit(order[0], None)
    for e in edges:
        edge_class.setdefault(e, "invariant")

    return Jointree(
        tuple(nodes),
        tuple(edges),
        {c: tuple(hs) for c, hs in hosts.items()},
        families,
        edge_class=edge_class,
        duplicate_base=duplicate_base,
        var_dup=var_dup,
    )


def _primed(s: frozenset[str], var_dup: dict[str, str]) -> frozenset[str]:
    return frozenset(var_dup[v] for v in s)


def lift_separators(base_separators, twin_jt: Jointree) -> dict:
    """Separator lifting shared by the classical (Thm-2) and thinned
    (Thm-3) paths: duplicated edges keep S, duplicate edges carry S',
    invariant edges carry S union S'."""
    if twin_jt.edge_class is None or twin_jt.var_dup is None:
        raise ModelError("twin jointree lacks edge classes; use make_twin_jointree")
    out = {}
    for e in twin_jt.edges:
        cls = twin_jt.edge_class[e]
        if cls == "duplicated":
            out[e] = base_separators[e]
        elif cls == "duplicate":
            out[e] = _primed(base_separators[twin_jt.duplicate_base[e]], twin_jt.var_dup)
        else:
            s = base_separators[e]
            out[e] = s | _primed(s, twin_jt.var_dup)
    return out


def twin_separators_direct(base_seps: SeparatorAssignment, twin_jt: Jointree) -> SeparatorAssignment:
    """Twin separators lifted from the base separators: Thm 2 for
    classical ones, Thm 3 for thinned ones. The log is the base removal
    log, on base edges."""
    return _assemble(twin_jt, lift_separators(base_seps.separators, twin_jt), base_seps.log)
