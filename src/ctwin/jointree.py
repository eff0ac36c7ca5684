"""Jointrees with leaf-hosted families: construction from elimination
orders, separator/cluster/width computation, the base-to-twin jointree
conversion, and the direct twin separator lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .elimination import EliminationOrder, _bits, _family_adjacency, _replay
from .model import Dag, InvariantError, ModelError
from .worlds import twin_name


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Jointree:
    """Tree plus family hosting. Only leaves host; each leaf hosts exactly
    one family; a family may be hosted at several leaves (replicas).

    Construction raises ModelError on any violated invariant, and derives
    once the neighbour lists `neighbors`, `leaf_family`, which maps each
    host leaf to the family child it hosts, `rooting`, the breadth-first
    order and parents from nodes[0], `children`, each node's children in
    neighbour order, and the variable index: bit i of
    a mask is `variables[i]` (the family children in order), `bit_of` and
    `family_masks` give each variable's bit and each family's mask.
    Callers must not change them; `dataclasses.replace` derives them afresh.

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

    neighbors: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    leaf_family: dict[str, str] = field(init=False, repr=False, compare=False)
    rooting: tuple[list[str], dict[str, str | None]] = field(init=False, repr=False, compare=False)
    children: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    variables: tuple[str, ...] = field(init=False, repr=False, compare=False)
    bit_of: dict[str, int] = field(init=False, repr=False, compare=False)
    family_masks: dict[str, int] = field(init=False, repr=False, compare=False)

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
            if child not in self.families:
                raise ModelError(f"hosted family {child!r} is not a family")
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
        bit_of = {v: 1 << i for i, v in enumerate(self.families)}
        masks = {}
        for child, members in self.families.items():
            if not self.hosts.get(child):
                raise ModelError(f"family of {child!r} has no host")
            if child not in members:
                raise ModelError(f"family of {child!r} does not contain {child!r}")
            try:
                masks[child] = sum(map(bit_of.__getitem__, members))
            except KeyError as exc:
                raise ModelError(f"family of {child!r} mentions {exc.args[0]!r}, which has no family") from None
        object.__setattr__(self, "neighbors", nb)
        object.__setattr__(self, "leaf_family", lf)
        object.__setattr__(self, "rooting", (order, parent))
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "variables", tuple(bit_of))
        object.__setattr__(self, "bit_of", bit_of)
        object.__setattr__(self, "family_masks", masks)

    def variable_set(self, mask: int) -> frozenset[str]:
        """The variables of a mask over this tree's index."""
        return frozenset(self.variables[i] for i in _bits(mask))


@dataclass(frozen=True)
class SeparatorAssignment:
    """A jointree with a separator on every edge, the clusters and widths
    they give, and, for thinned separators, the removal audit. Separators
    and clusters are masks over the jointree's variable index; their
    frozenset views `separators` and `clusters` are built when first read."""

    jointree: Jointree
    separator_masks: dict[tuple[str, str], int]
    cluster_masks: dict[str, int]
    width: int
    normalized_width: float
    log: tuple[dict, ...] = ()  # thinning removals: {edge, variable, rule, witness}

    @cached_property
    def separators(self) -> dict[tuple[str, str], frozenset[str]]:
        return {e: self.jointree.variable_set(m) for e, m in self.separator_masks.items()}

    @cached_property
    def clusters(self) -> dict[str, frozenset[str]]:
        return {v: self.jointree.variable_set(m) for v, m in self.cluster_masks.items()}


def _log2_big(total: int) -> float:
    shift = max(total.bit_length() - 53, 0)
    return math.log2(total >> shift) + shift


def _assemble(jt: Jointree, separators: dict[tuple[str, str], int], log=()) -> SeparatorAssignment:
    """Clusters from separator masks: a host leaf's is its family, any
    other node's the union of the separators on its edges."""
    clusters = dict.fromkeys(jt.nodes, 0)
    for (a, b), s in separators.items():
        clusters[a] |= s
        clusters[b] |= s
    for leaf, child in jt.leaf_family.items():
        clusters[leaf] = jt.family_masks[child]
    sizes = [c.bit_count() for c in clusters.values()]
    return SeparatorAssignment(jt, separators, clusters, max(sizes) - 1,
                               _log2_big(sum(1 << s for s in sizes)), log)


def _classical_masks(jt: Jointree) -> dict[tuple[str, str], int]:
    """classical_separators as masks: below a node is the union over its
    subtree; above it, its parent's above plus what hangs off the parent
    and the node's siblings, from prefix and suffix unions of siblings."""
    hosted = {leaf: jt.family_masks[child] for leaf, child in jt.leaf_family.items()}
    order, parent = jt.rooting
    children = jt.children
    below: dict[str, int] = {}
    for v in reversed(order):
        s = hosted.get(v, 0)
        for u in children[v]:
            s |= below[u]
        below[v] = s
    above = {order[0]: 0}
    for v in order:
        kids = children[v]
        s = above[v] | hosted.get(v, 0)
        for u in kids:  # prefix: the earlier siblings
            above[u] = s
            s |= below[u]
        s = 0
        for u in reversed(kids):  # suffix: the later siblings
            above[u] |= s
            s |= below[u]
    return {edge_key(v, parent[v]): below[v] & above[v] for v in order[1:]}


def classical_separators(jt: Jointree) -> SeparatorAssignment:
    """S_ij = variables hosted on both sides of edge (i, j)."""
    return _assemble(jt, _classical_masks(jt))


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
    for i in range(n):
        if rest[i]:
            edges.append(edge_key(cname[i], cname[(rest[i] & -rest[i]).bit_length() - 1]))
    # connect remaining components (clusters that ended a component) in a chain
    tails = [i for i in range(n) if not rest[i]]
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
    maximal subtrees whose leaves host only internal families, rooted at
    nodes[0], or at its neighbour when nodes[0] is a host leaf. The twin
    lists the base nodes in their order. The twin families are the base
    ones, then each internal X' with its family primed, so the twin index
    extends the base index."""
    roots = set(base.roots())
    var_dup = {v: (v if v in roots else twin_name(v)) for v in base.nodes}
    if jt.families.keys() != var_dup.keys():
        raise ModelError("the jointree's families are not those of the DAG's nodes")
    families = dict(jt.families)
    for child, members in jt.families.items():
        if child not in roots:
            families[var_dup[child]] = frozenset(var_dup[v] for v in members)

    lf = jt.leaf_family
    nodes = list(jt.nodes)
    edges = [edge_key(*e) for e in jt.edges]
    hosts = {c: list(hs) for c, hs in jt.hosts.items()}
    rooted = jt
    if len(nodes) > 2 and nodes[0] in lf:  # Alg 1 roots at an internal node, nodes[0]'s neighbour
        inner = jt.neighbors[nodes[0]][0]
        rooted = replace(jt, nodes=(inner, *(v for v in nodes if v != inner)))
    order, _ = rooted.rooting
    children = rooted.children
    kinds: dict[str, set[bool]] = {}  # v -> {whether a host leaf at or below v hosts a root}
    for v in reversed(order):
        kinds[v] = {lf[v] in roots} if v in lf else set()
        for k in children[v]:
            kinds[v] |= kinds[k]
    if len(nodes) == 2 and kinds[order[0]] != {True}:
        raise ModelError(f"Alg 1 cannot lift the 2-node jointree {nodes[0]} - {nodes[1]}: it has no internal node")

    edge_class: dict[tuple[str, str], str] = {}
    duplicate_base: dict[tuple[str, str], tuple[str, str]] = {}

    def duplicate_subtree(r, p):
        sub, stack = [r], [r]
        while stack:
            kids = children[stack.pop()]
            sub += kids
            stack += kids
        dup = {v: v + "'" for v in sub}
        nodes.extend(dup[v] for v in sub)
        inner = [(v, k) for v in sub for k in children[v]]
        for a, b in inner + [(p, r)]:
            e, de = edge_key(a, b), edge_key(dup.get(a, a), dup.get(b, b))
            edges.append(de)
            edge_class[e], edge_class[de], duplicate_base[de] = "duplicated", "duplicate", e
        for v in sub:
            if v in lf:
                hosts.setdefault(twin_name(lf[v]), []).append(dup[v])

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

    return Jointree(tuple(nodes), tuple(edges), {c: tuple(hs) for c, hs in hosts.items()}, families,
                    edge_class=edge_class, duplicate_base=duplicate_base, var_dup=var_dup)


def twin_separators_direct(base_seps: SeparatorAssignment, twin_jt: Jointree) -> SeparatorAssignment:
    """Twin separators lifted from the base separators, Thm 2 for
    classical ones and Thm 3 for thinned ones: duplicated edges keep S,
    duplicate edges carry S', invariant edges carry S union S'. The twin
    index extends the base index, so S keeps its mask and S' maps each
    bit through a table. The log is the base removal log, on base edges."""
    if twin_jt.edge_class is None or twin_jt.var_dup is None:
        raise ModelError("twin jointree lacks edge classes; use make_twin_jointree")
    base_vars = base_seps.jointree.variables
    if twin_jt.variables[:len(base_vars)] != base_vars:
        raise ModelError("twin jointree was not made from this base jointree")
    primed_bit = [twin_jt.bit_of[twin_jt.var_dup[v]] for v in base_vars]

    def primed(s: int) -> int:
        t = 0
        while s:
            low = s & -s
            t |= primed_bit[low.bit_length() - 1]
            s ^= low
        return t

    seps, out = base_seps.separator_masks, {}
    for e in twin_jt.edges:
        cls = twin_jt.edge_class[e]
        if cls == "duplicated":
            out[e] = seps[e]
        elif cls == "duplicate":
            out[e] = primed(seps[twin_jt.duplicate_base[e]])
        else:
            out[e] = seps[e] | primed(seps[e])
    return _assemble(twin_jt, out, base_seps.log)
