import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctwin import (Dag, EliminationOrder, Evidence, ModelError, Rng, eliminate, exact_treewidth, minfill_order,
                   moral_graph, mutilate, n_world_order, parameterize, scm_factors, twin_order)
from ctwin.bench import generate_dag
from ctwin.elimination import _bit_adjacency, _bits, _family_adjacency, _replay
from ctwin.inference import _Buckets
from ctwin.randgen import GENERATORS
from ctwin.worlds import MoralGraph, n_world_network, twin_dag, twin_network

from conftest import half_adder, random_scm


def graph(n, edges, names=None):
    nodes = tuple(names or (chr(65 + i) for i in range(n)))
    adj = {v: set() for v in nodes}
    for i, j in edges:
        adj[nodes[i]].add(nodes[j])
        adj[nodes[j]].add(nodes[i])
    return MoralGraph(nodes, {v: frozenset(s) for v, s in adj.items()})


def test_eliminate_chain_width_one():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    cs = eliminate(g, EliminationOrder(("A", "B", "C", "D")))
    assert cs.width == 1
    assert cs.clusters[0] == {"A", "B"}


def test_eliminate_requires_permutation():
    g = graph(3, [(0, 1)])
    with pytest.raises(ModelError):
        eliminate(g, EliminationOrder(("A", "B")))


def test_eliminate_fill_in_matters():
    # eliminating the cycle hub first fills in its neighbors
    g = graph(4, [(0, 1), (0, 2), (0, 3)])
    star_first = eliminate(g, EliminationOrder(("A", "B", "C", "D")))
    leaf_first = eliminate(g, EliminationOrder(("B", "C", "D", "A")))
    assert star_first.width == 3
    assert leaf_first.width == 1


def test_minfill_is_optimal_on_small_graphs():
    # minfill matches the exact treewidth on every graph with 5 nodes
    nodes = 5
    pairs = list(itertools.combinations(range(nodes), 2))
    for mask in range(0, 1 << len(pairs), 7):  # stride keeps runtime low
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        g = graph(nodes, edges)
        mf = eliminate(g, minfill_order(g)).width
        assert mf >= exact_treewidth(g)


def test_exact_treewidth_known_values():
    assert exact_treewidth(graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])) == 2
    assert exact_treewidth(graph(4, list(itertools.combinations(range(4), 2)))) == 3
    assert exact_treewidth(graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == 1
    grid = []
    for r in range(3):
        for c in range(3):
            i = r * 3 + c
            if c < 2:
                grid.append((i, i + 1))
            if r < 2:
                grid.append((i, i + 3))
    assert exact_treewidth(graph(9, grid)) == 3


def test_exact_treewidth_node_limit():
    g = graph(5, [(0, 1)])
    with pytest.raises(ModelError):
        exact_treewidth(g, node_limit=4)


def test_minfill_deterministic(adder):
    g = moral_graph(adder.dag)
    assert minfill_order(g) == minfill_order(g)


def test_twin_order_interleaves(adder):
    order = minfill_order(moral_graph(adder.dag))
    lifted = twin_order(order, adder.dag)
    seq = lifted.sequence
    assert seq.count("U") == 1
    assert "S'" in seq
    assert seq.index("S'") == seq.index("S") + 1


def test_n_world_order_consecutive_copies(adder):
    order = minfill_order(moral_graph(adder.dag))
    lifted = n_world_order(order, adder.dag, ["X", "Y"], 3)
    seq = lifted.sequence
    assert seq.index("A__2") == seq.index("A") + 1
    assert seq.index("A__3") == seq.index("A") + 2
    assert seq.count("X") == 1
    # U is outside R, so it appears in all three worlds
    assert "U__3" in seq


def test_n_world_order_rejects_non_root_shared(adder):
    order = minfill_order(moral_graph(adder.dag))
    with pytest.raises(ModelError):
        n_world_order(order, adder.dag, ["S"], 2)


def test_width_of_minfill_bounded_by_nodes():
    for seed in range(5):
        scm = random_scm(seed, n=10, param=3)
        g = moral_graph(scm.dag)
        cs = eliminate(g, minfill_order(g))
        assert 0 <= cs.width < len(scm.dag.nodes)


# ------------------------------------------- minfill against a full rescan

def reference_minfill(g):
    """Greedy minfill by full rescan: at every step score every alive node
    from scratch, scanning ids in sorted order and keeping the first node
    of least (fill-in, degree)."""
    _, adj = _bit_adjacency(g)
    nodes = g.nodes
    alive = set(range(len(nodes)))
    seq = []
    while alive:
        best = None
        for i in sorted(alive, key=lambda k: nodes[k]):
            nb = adj[i]
            fill = 0
            for j in _bits(nb):
                fill += bin(nb & ~adj[j] & ~(1 << j)).count("1")
            fill //= 2
            key = (fill, bin(nb).count("1"))
            if best is None or key < best[0]:
                best = (key, i)
        i = best[1]
        nb = adj[i]
        bit_i = 1 << i
        for j in _bits(nb):
            adj[j] = (adj[j] | nb) & ~((1 << j) | bit_i)
        adj[i] = 0
        alive.remove(i)
        seq.append(nodes[i])
    return EliminationOrder(tuple(seq))


@st.composite
def tie_heavy_graphs(draw):
    """Graphs up to 18 nodes, many of them all ties (empty, clique, cycle,
    star), with ids such as n10 < n2 whose sorted order differs from their
    position in g.nodes."""
    n = draw(st.integers(0, 18))
    names = [f"n{k}" for k in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(range(n), 2))
    shape = draw(st.sampled_from(("random", "empty", "clique", "cycle", "star")))
    if shape == "random":
        density = draw(st.sampled_from((0.1, 0.3, 0.6, 0.9)))
        edges = [p for p in pairs if draw(st.floats(0, 1)) < density]
    elif shape == "empty":
        edges = []
    elif shape == "clique":
        edges = pairs
    elif shape == "cycle":
        edges = [(k, (k + 1) % n) for k in range(n)] if n > 2 else pairs
    else:
        edges = [(0, k) for k in range(1, n)]
    return graph(n, edges, names)


@st.composite
def world_graphs(draw):
    """Moral graphs of twin and N-world networks of random small rSCMs."""
    scm = random_scm(draw(st.integers(0, 2**32)), n=draw(st.integers(2, 7)),
                     param=draw(st.integers(1, 3)))
    worlds = draw(st.integers(2, 3))
    if worlds == 2 and draw(st.booleans()):
        net, _ = twin_network(scm)
    else:
        roots = list(scm.dag.roots())
        shared = [r for r in roots if draw(st.booleans())]
        net, _ = n_world_network(scm, shared, worlds)
    return moral_graph(net.dag)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_graphs())
def test_minfill_matches_full_rescan(g):
    assert minfill_order(g) == reference_minfill(g)


@settings(max_examples=60, deadline=None)
@given(world_graphs())
def test_minfill_matches_full_rescan_on_world_networks(g):
    assert minfill_order(g) == reference_minfill(g)


@pytest.mark.parametrize("gen", ["rNET", "rSCM"])
@pytest.mark.parametrize("n", [30, 50])
@pytest.mark.parametrize("param", [3, 7])
def test_minfill_matches_full_rescan_at_benchmark_sizes(gen, n, param):
    # the fill-in counts are kept exact across many eliminations on the
    # base and twin moral graphs that ctwin bench and the widths workload see
    for seed in (11, 12):
        dag = generate_dag(gen, n, param, seed)
        for g in (moral_graph(dag), moral_graph(twin_dag(dag))):
            assert minfill_order(g) == reference_minfill(g)


# ------------------------------------------- replay on the lifted, cut network

def _cut_parents(parents, cut):
    """The parents of the network in which every node in cut is intervened on."""
    return {v: () if v in cut else ps for v, ps in parents.items()}


def reference_clusters(g, sequence):
    """Eliminate with plain sets: each node's cluster is itself and its
    neighbours when it goes, which are then made pairwise adjacent."""
    adj = {v: set(us) for v, us in g.adjacency.items()}
    out = []
    for v in sequence:
        nb = adj.pop(v)
        for u in nb:
            adj[u] |= nb - {u}
            adj[u].discard(v)
        out.append(frozenset(nb | {v}))
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(2, 12), st.integers(1, 3),
       st.integers(0, 10**6), st.integers(1, 3), st.data())
def test_replay_matches_eliminate_on_the_mutilated_network(gen, n, param, seed, worlds, data):
    # the replay, built straight from the parents with the intervened
    # families cut, gives the clusters and width that eliminate gives on
    # the moral graph of the mutilated twin or N-world network
    scm = parameterize(GENERATORS[gen](n, param, Rng(seed)), Rng(seed + 1))
    base = minfill_order(moral_graph(scm.dag))
    if worlds == 2 and data.draw(st.booleans()):
        net, _ = twin_network(scm)
        order = twin_order(base, scm.dag)
    else:
        shared = [r for r in scm.dag.roots() if data.draw(st.booleans())]
        net, _ = n_world_network(scm, shared, worlds)
        order = n_world_order(base, scm.dag, shared, worlds)
    cut = data.draw(st.sets(st.sampled_from(net.dag.nodes)))
    g = moral_graph(mutilate(net, Evidence(dict.fromkeys(cut, 0))).dag)
    want = eliminate(g, order)
    seq = order.sequence
    rest = _replay(_family_adjacency(seq, _cut_parents(net.dag.parents, cut)))
    assert tuple(frozenset([v] + [seq[j] for j in _bits(nb)]) for v, nb in zip(seq, rest)) == want.clusters
    assert want.clusters == reference_clusters(g, seq)
    assert max(nb.bit_count() for nb in rest) == want.width


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(2, 12), st.integers(1, 3),
       st.integers(0, 10**6), st.integers(1, 3), st.data())
def test_bucket_tree_width_matches_the_replay_on_the_cut_network(gen, n, param, seed, worlds, data):
    # ve's bucket tree is built once from the uncut network; for a cut set it
    # redoes only the cut families' base buckets and their ancestors, and
    # must give the width that the replay and eliminate give on the mutilated
    # twin or N-world network
    scm = parameterize(GENERATORS[gen](n, param, Rng(seed)), Rng(seed + 1))
    base = minfill_order(moral_graph(scm.dag))
    if worlds == 2 and data.draw(st.booleans()):
        net, _ = twin_network(scm)
        order = twin_order(base, scm.dag)
    else:
        shared = [r for r in scm.dag.roots() if data.draw(st.booleans())]
        net, _ = n_world_network(scm, shared, worlds)
        order = n_world_order(base, scm.dag, shared, worlds)
    roots = set(net.dag.roots())
    pool = data.draw(st.sampled_from(("roots", "internals", "any")))
    nodes = [v for v in net.dag.nodes if pool == "any" or (v in roots) == (pool == "roots")]
    cut = data.draw(st.sets(st.sampled_from(nodes))) if nodes else set()
    tree = _Buckets(net.dag, order.sequence, scm_factors(net))
    rest = _replay(_family_adjacency(order.sequence, _cut_parents(net.dag.parents, cut)))
    want = eliminate(moral_graph(mutilate(net, Evidence(dict.fromkeys(cut, 0))).dag), order).width
    assert tree.width(cut) == max(map(int.bit_count, rest)) == want
    assert tree.width() == max(map(int.bit_count, tree.out))
