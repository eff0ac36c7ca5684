"""Elimination orders: the elimination process, minfill, order lifting to
twin/N-world networks, and exact treewidth for small graphs.

Internally graphs are converted to bitmask adjacency (one int per node)
so that fill-in and cluster bookkeeping stay cheap on the benchmark
sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import Dag, ModelError
from .worlds import MoralGraph, _twin_copy, world_name


@dataclass(frozen=True)
class EliminationOrder:
    sequence: tuple[str, ...]


@dataclass(frozen=True)
class ClusterSequence:
    clusters: tuple[frozenset[str], ...]
    width: int


def _bit_adjacency(g: MoralGraph, nodes=None):
    nodes = g.nodes if nodes is None else nodes  # bit order
    index = {v: i for i, v in enumerate(nodes)}
    return index, [sum(1 << index[u] for u in g.adjacency.get(v, ())) for v in nodes]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _eliminate_bit(adj: list[int], i: int) -> int:
    """Connect i's neighbours pairwise and remove i; returns them. The
    bits are walked inline: every ve layout replays its order."""
    nb = rest = adj[i]
    drop = ~(1 << i)
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        adj[j] = (adj[j] | nb) & drop & ~low
        rest ^= low
    adj[i] = 0
    return nb


def _replay(adj: list[int]) -> list[int]:
    """Eliminate the nodes of the bit adjacency adj (consumed) in bit
    order, bit i standing for the i-th node of an elimination order; returns
    each node's neighbours at its elimination: its cluster less itself,
    whose lowest set bit is the earliest-eliminated remaining member."""
    return [_eliminate_bit(adj, i) for i in range(len(adj))]


def _family_adjacency(sequence, parents: dict[str, tuple[str, ...]]) -> list[int]:
    """The moral graph of the DAG with these parents as a bit adjacency,
    bit i the i-th node of sequence."""
    if sorted(sequence) != sorted(parents):
        raise ModelError("order is not a permutation of the graph's nodes")
    index = {v: i for i, v in enumerate(sequence)}
    adj = [0] * len(sequence)
    for v, i in index.items():
        family = 1 << i
        for p in parents[v]:
            family |= 1 << index[p]
        for j in _bits(family):
            adj[j] |= family
    return [a & ~(1 << i) for i, a in enumerate(adj)]


def eliminate(g: MoralGraph, order: EliminationOrder) -> ClusterSequence:
    """Replay the elimination process on a working copy of g and collect
    the induced cluster sequence."""
    seq = order.sequence
    if sorted(seq) != sorted(g.nodes):
        raise ModelError("order is not a permutation of the graph's nodes")
    clusters = tuple(frozenset([v] + [seq[j] for j in _bits(nb)])
                     for v, nb in zip(seq, _replay(_bit_adjacency(g, seq)[1])))
    return ClusterSequence(clusters, max((len(c) - 1 for c in clusters), default=0))


def minfill_order(g: MoralGraph) -> EliminationOrder:
    """Greedy minfill (Kjaerulff 1990): eliminate the alive node of least
    key (fill-in, degree, rank of its id in ``sorted(g.nodes)``).

    Fill-in counts are kept exact as each elimination happens, so no key
    is rescored from scratch. Eliminating i, with neighbours N, costs each
    j in N the missing pairs (i, x) for x in N(j) outside N. Each fill
    edge (a, b) completes one pair for every common neighbour of a and b,
    and adds to a the missing pairs (b, x) for x in N(a) outside N(b), and
    to b likewise. Only N and the touched common neighbours get fresh keys;
    a heap yields the least key and skips stale entries.
    """
    nodes = sorted(g.nodes)
    _, adj = _bit_adjacency(g, nodes)
    fill = []  # (d(d-1) - sum over j in N(i) of |N(i) & N(j)|) / 2
    for nb in adj:
        d = nb.bit_count()
        fill.append((d * (d - 1) - sum((nb & adj[j]).bit_count() for j in _bits(nb))) // 2)
    keys = [(f, nb.bit_count(), i) for i, (f, nb) in enumerate(zip(fill, adj))]
    heap = sorted(keys)  # a sorted list is a heap
    seq = []
    while heap:
        k = heapq.heappop(heap)
        i = k[2]
        if keys[i] != k:
            continue
        keys[i] = None
        nb = touched = adj[i]
        adj[i] = 0
        for j in _bits(nb):
            adj[j] &= ~(1 << i)
            fill[j] -= (adj[j] & ~nb).bit_count()
        for a in _bits(nb):
            for b in _bits(nb & ~adj[a] & ~((2 << a) - 1)):  # fill edges (a, b), a < b
                common = adj[a] & adj[b]
                touched |= common
                for w in _bits(common):
                    fill[w] -= 1
                fill[a] += (adj[a] & ~adj[b]).bit_count()
                fill[b] += (adj[b] & ~adj[a]).bit_count()
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        for j in _bits(touched):
            if (k := (fill[j], adj[j].bit_count(), j)) != keys[j]:
                keys[j] = k
                heapq.heappush(heap, k)
        seq.append(nodes[i])
    return EliminationOrder(tuple(seq))


def _lift_order(order: EliminationOrder, duplicated, n_worlds: int, name) -> EliminationOrder:
    """Replace each duplicated X by its copies name(X, 1..n_worlds),
    consecutively; every other variable appears once."""
    seq = []
    for v in order.sequence:
        if v in duplicated:
            seq.extend(name(v, j) for j in range(1, n_worlds + 1))
        else:
            seq.append(v)
    return EliminationOrder(tuple(seq))


def twin_order(order: EliminationOrder, base: Dag) -> EliminationOrder:
    """Replace each non-root X in the order by X, X'; roots appear once."""
    return _lift_order(order, set(order.sequence) - set(base.roots()), 2, _twin_copy)


def n_world_order(order: EliminationOrder, base: Dag, shared_roots, n_worlds: int) -> EliminationOrder:
    """Replace each non-shared X by its N world copies, consecutively."""
    roots = set(base.roots())
    shared = set(shared_roots)
    bad = shared - roots
    if bad:
        raise ModelError(f"shared set contains non-root ids: {sorted(bad)}")
    return _lift_order(order, set(order.sequence) - shared, n_worlds, world_name)


def exact_treewidth(g: MoralGraph, node_limit: int = 12) -> int:
    """Minimum width over all elimination orders, by branch-and-bound over
    eliminated-node sets (the filled graph depends only on the set)."""
    n = len(g.nodes)
    if n > node_limit:
        raise ModelError(f"graph has {n} nodes, exceeds limit {node_limit}")
    if n == 0:
        return 0
    _, adj0 = _bit_adjacency(g)
    upper = eliminate(g, minfill_order(g)).width
    full = (1 << n) - 1
    seen: dict[int, int] = {}

    def search(adj, done: int, worst: int, best: int) -> int:
        if done == full:
            return worst
        prev = seen.get(done)
        if prev is not None and prev <= worst:
            return best
        seen[done] = worst
        # candidates sorted by current degree: cheap most-promising-first
        cand = sorted((i for i in range(n) if not done >> i & 1), key=lambda i: adj[i].bit_count())
        for i in cand:
            size = adj[i].bit_count()  # cluster size - 1
            w = max(worst, size)
            if w >= best:
                continue
            nxt = list(adj)
            _eliminate_bit(nxt, i)
            best = min(best, search(nxt, done | 1 << i, w, best))
        return best

    return search(adj0, 0, 0, upper)
