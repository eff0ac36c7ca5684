from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctwin import (
    Dag,
    ModelError,
    SeparatorAssignment,
    classical_separators,
    jointree_from_order,
    make_twin_jointree,
    minfill_order,
    moral_graph,
    replicate,
    thin,
    twin_network,
    twin_separators_direct,
)
from ctwin.bench import generate_dag, instance_widths
from ctwin.jointree import Jointree, _log2_big, edge_key
from ctwin.randgen import GENERATORS
from ctwin.worlds import _twin_structure, twin_name

from conftest import random_scm


def base_jointree_of(dag):
    return jointree_from_order(dag, minfill_order(moral_graph(dag)))


def base_jointree(scm):
    return base_jointree_of(scm.dag)


def test_jointree_invariants(adder):
    jt = base_jointree(adder)
    lf = jt.leaf_family
    nb = jt.neighbors
    # every leaf hosts exactly one family; hosts are leaves
    for leaf, child in lf.items():
        assert len(nb[leaf]) == 1
        assert child in jt.families
    assert set(jt.hosts) == set(adder.dag.nodes)


PATH = (("a", "b"), ("b", "c"))  # a - b - c


@pytest.mark.parametrize(
    "nodes, edges, hosts, families, problem",
    [
        pytest.param("abc", PATH[:1], {"x": "a", "y": "c"}, "xy", "n-1 edges", id="edge-count"),
        pytest.param("abcd", PATH + (("a", "c"),), {"x": "d"}, "x", "not connected", id="disconnected"),
        pytest.param("abc", PATH, {"x": "b", "y": "a", "z": "c"}, "xyz", "'b' is not a leaf", id="host-not-leaf"),
        # b and d are leaves but d hosts nothing
        pytest.param("abcd", (("a", "b"), ("c", "d"), ("a", "c")), {"x": "b"}, "x", "'d' hosts no family",
                     id="unhosted-leaf"),
        pytest.param("abc", PATH, {"x": "a", "y": "c"}, "xyz", "'z' has no host", id="family-without-host"),
        pytest.param("abc", PATH, {"x": "a", "y": "ca"}, "xy", "'a' hosts two families", id="leaf-hosts-two"),
        pytest.param("ab", (("a", "z"),), {"x": "a", "y": "b"}, "xy", "'z' is not a node", id="edge-off-tree"),
        pytest.param("ab", PATH[:1], {"x": "a", "y": "q"}, "xy", "'q' is not a node", id="host-off-tree"),
        pytest.param("ab", PATH[:1], {"x": "a", "q": "b"}, "x", "'q' is not a family", id="host-of-no-family"),
        # a 3-node star whose families mention X, which has no family
        pytest.param("cfg", (("c", "f"), ("c", "g")), {"Y": "f", "Z": "g"}, {"Y": "XY", "Z": "XZ"},
                     "'Y' mentions 'X', which has no family", id="mentioned-without-family"),
        pytest.param("ab", PATH[:1], {"x": "a", "y": "b"}, {"x": "x", "y": "x"}, "'y' does not contain 'y'",
                     id="childless-family"),
    ],
)
def test_construction_rejects_invalid_tree(nodes, edges, hosts, families, problem):
    if isinstance(families, str):
        families = {c: c for c in families}
    with pytest.raises(ModelError, match=problem):
        Jointree(tuple(nodes), edges, {c: tuple(hs) for c, hs in hosts.items()},
                 {c: frozenset(m) for c, m in families.items()})


def two_node_tree():
    """f_A - f_B with B a child of A: valid, but with no internal node."""
    dag = Dag.of(["A", "B"], {"B": ("A",)})
    jt = Jointree(("f_A", "f_B"), (("f_A", "f_B"),), {"A": ("f_A",), "B": ("f_B",)},
                  {"A": frozenset("A"), "B": frozenset("AB")})
    return jt, dag


def test_two_node_tree_is_named_as_unsupported():
    jt, dag = two_node_tree()
    with pytest.raises(ModelError, match="Alg 1 cannot lift the 2-node jointree f_A - f_B"):
        make_twin_jointree(jt, dag)
    with pytest.raises(ModelError, match="cannot replicate f_A on the 2-node jointree f_B - f_A"):
        replicate(jt, dag, 1, {"A"})
    assert replicate(jt, dag, 1) == jt  # nothing to place: B has no children


@pytest.mark.parametrize("first", ["f_A", "c"])
def test_twin_jointree_of_a_tree_listed_from_a_host_leaf(first):
    # the star f_A - c - {f_B, f_C} with B and C children of A: Alg 1 roots
    # at an internal node, so the listing only orders the twin's nodes
    dag = Dag.of(["A", "B", "C"], {"B": ("A",), "C": ("A",)})
    edges = (("c", "f_A"), ("c", "f_B"), ("c", "f_C"))
    hosts = {"A": ("f_A",), "B": ("f_B",), "C": ("f_C",)}
    families = {"A": frozenset("A"), "B": frozenset("AB"), "C": frozenset("AC")}
    nodes = (first,) + tuple(v for v in ("f_A", "c", "f_B", "f_C") if v != first)
    tjt = make_twin_jointree(Jointree(nodes, edges, hosts, families), dag)
    assert tjt.nodes == nodes + ("f_B'", "f_C'")
    assert set(tjt.edges) == set(edges) | {("c", "f_B'"), ("c", "f_C'")}
    assert tjt.hosts == {**hosts, "B'": ("f_B'",), "C'": ("f_C'",)}
    assert tjt.edge_class == {("c", "f_A"): "invariant", ("c", "f_B"): "duplicated", ("c", "f_C"): "duplicated",
                              ("c", "f_B'"): "duplicate", ("c", "f_C'"): "duplicate"}
    assert tjt.duplicate_base == {("c", "f_B'"): ("c", "f_B"), ("c", "f_C'"): ("c", "f_C")}
    seps = twin_separators_direct(classical_separators(Jointree(nodes, edges, hosts, families)), tjt)
    assert seps.separators == {("c", "f_A"): frozenset("A"), ("c", "f_B"): frozenset("A"),
                               ("c", "f_C"): frozenset("A"), ("c", "f_B'"): frozenset("A"),
                               ("c", "f_C'"): frozenset("A")}


def test_classical_separators_definition(adder):
    jt = base_jointree(adder)
    sa = classical_separators(jt)
    nb = jt.neighbors
    lf = jt.leaf_family

    def hosted_side(e, start):
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for u in nb[v]:
                if u not in seen and edge_key(v, u) != e:
                    seen.add(u)
                    stack.append(u)
        out = set()
        for leaf in seen & set(lf):
            out |= jt.families[lf[leaf]]
        return out

    for e in jt.edges:
        assert sa.separators[e] == frozenset(
            hosted_side(e, e[0]) & hosted_side(e, e[1])
        )


def test_cluster_structure(adder):
    jt = base_jointree(adder)
    sa = classical_separators(jt)
    nb = jt.neighbors
    lf = jt.leaf_family
    for v in jt.nodes:
        if v in lf:
            assert sa.clusters[v] == jt.families[lf[v]]
        else:
            union = frozenset()
            for u in nb[v]:
                union |= sa.separators[edge_key(v, u)]
            assert sa.clusters[v] == union
    assert sa.width == max(len(c) for c in sa.clusters.values()) - 1


def test_normalized_width_formula(adder):
    import math

    jt = base_jointree(adder)
    sa = classical_separators(jt)
    total = sum(2 ** len(c) for c in sa.clusters.values())
    assert sa.normalized_width == pytest.approx(math.log2(total))


def test_twin_jointree_shape(adder):
    jt = base_jointree(adder)
    tjt = make_twin_jointree(jt, adder.dag)
    # at most 2n nodes
    assert len(tjt.nodes) <= 2 * len(jt.nodes) + 1  # +1 for a possible aux root
    assert set(tjt.hosts) == set(adder.dag.nodes) | {"A'", "B'", "S'", "C'"}
    classes = set(tjt.edge_class.values())
    assert classes <= {"duplicated", "duplicate", "invariant"}
    for de, e in tjt.duplicate_base.items():
        assert tjt.edge_class[de] == "duplicate"
        assert tjt.edge_class[e] == "duplicated"


def test_twin_separator_equality(adder):
    # lifted separators equal the from-scratch hosted-both-sides ones
    jt = base_jointree(adder)
    tjt = make_twin_jointree(jt, adder.dag)
    lifted = twin_separators_direct(classical_separators(jt), tjt)
    direct = classical_separators(tjt)
    assert lifted.separators == direct.separators
    assert lifted.width == direct.width


def test_twin_width_bound_random():
    for seed in range(20):
        scm = random_scm(seed, n=8, param=3)
        jt = base_jointree(scm)
        sa = classical_separators(jt)
        tjt = make_twin_jointree(jt, scm.dag)
        tsa = classical_separators(tjt)
        assert tsa.width <= 2 * sa.width + 1
        assert len(tjt.nodes) <= 2 * len(jt.nodes)


def test_twin_of_all_root_network():
    from ctwin import Dag, Scm, Variable

    dag = Dag.of(["a", "b"], {})
    variables = {
        v: Variable(v, 2, False) for v in dag.nodes
    }
    scm = Scm(dag, variables, {"a": (0.5, 0.5), "b": (0.5, 0.5)}, {})
    jt = base_jointree(scm)
    tjt = make_twin_jointree(jt, dag)
    assert set(tjt.edge_class.values()) == {"invariant"}
    assert set(tjt.nodes) == set(jt.nodes)


def test_lift_requires_edge_classes(adder):
    jt = base_jointree(adder)
    with pytest.raises(ModelError):
        twin_separators_direct(classical_separators(jt), jt)


# ------------------------------------------------ Alg 1: one rooting


def reference_twin_jointree(jt, base):
    """make_twin_jointree rooting the tree on its own: at the first node
    of degree above one, breadth first over sorted neighbours, with an
    auxiliary root inserted into a 2-node tree."""
    roots = set(base.roots())
    families = {v: frozenset((v,) + ps) for v, ps in _twin_structure(base)[1].items()}
    var_dup = {v: (v if v in roots else twin_name(v)) for v in base.nodes}
    lf = jt.leaf_family
    if all(child in roots for child in lf.values()):
        return replace(jt, edge_class={e: "invariant" for e in jt.edges}, duplicate_base={}, var_dup=var_dup)
    nodes = list(jt.nodes)
    edges = [edge_key(*e) for e in jt.edges]
    hosts = {c: list(hs) for c, hs in jt.hosts.items()}
    nb = jt.neighbors
    if len(nodes) == 2:
        aux = "aux0"
        a, b = edges[0]
        edges = [edge_key(a, aux), edge_key(aux, b)]
        nodes.append(aux)
        nb = {a: {aux}, b: {aux}, aux: {a, b}}
    root = next(v for v in nodes if len(nb[v]) > 1)
    snb = {v: sorted(us) for v, us in nb.items()}
    parent, order = {root: None}, [root]
    for v in order:
        for u in snb[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    children = {v: [u for u in snb[v] if parent.get(u) == v] for v in nodes}
    kinds = {}
    for v in reversed(order):
        kinds[v] = set().union(*(kinds[k] for k in children[v])) if children[v] else {lf[v] in roots}
    edge_class, duplicate_base = {}, {}

    def duplicate_subtree(r, p):
        sub, stack = [r], [r]
        while stack:
            v = stack.pop()
            for k in children[v]:
                sub.append(k)
                stack.append(k)
        dup = {v: v + "'" for v in sub}
        nodes.extend(dup[v] for v in sub)
        for a, b in [(v, k) for v in sub for k in children[v]] + [(p, r)]:
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

    visit(root, None)
    for e in edges:
        edge_class.setdefault(e, "invariant")
    return Jointree(tuple(nodes), tuple(edges), {c: tuple(hs) for c, hs in hosts.items()}, families,
                    edge_class=edge_class, duplicate_base=duplicate_base, var_dup=var_dup)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(2, 30), st.integers(1, 5),
       st.integers(0, 2**32), st.booleans(), st.sampled_from((0, 1, 10)))
def test_twin_jointree_matches_the_self_rooting_reference(gen, n, param, seed, replicated, bound):
    dag = generate_dag(gen, n, param, seed)
    jt = base_jointree_of(dag)
    if replicated:
        jt = replicate(jt, dag, bound)
    got, want = make_twin_jointree(jt, dag), reference_twin_jointree(jt, dag)
    for part in ("nodes", "edges", "hosts", "families", "edge_class", "duplicate_base", "var_dup"):
        assert getattr(got, part) == getattr(want, part), part


# ------------------------------------- masks against the frozenset reference


def reference_classical_separators(jt):
    """The frozenset S_ij: hosted below times hosted above, the side above
    a node taken by OR-ing every other sibling, quadratic in degree."""
    hosted = {leaf: jt.families[child] for leaf, child in jt.leaf_family.items()}
    order, parent = jt.rooting
    below = {}
    for v in reversed(order):
        s = hosted.get(v, frozenset())
        for u in jt.children[v]:
            s |= below[u]
        below[v] = s
    above = {order[0]: frozenset()}
    for v in order:
        kids = jt.children[v]
        base = above[v] | hosted.get(v, frozenset())
        for u in kids:
            s = base
            for w in kids:
                if w is not u:
                    s |= below[w]
            above[u] = s
    return {edge_key(v, parent[v]): below[v] & above[v] for v in order if parent[v] is not None}


def reference_assemble(jt, separators):
    """Frozenset clusters, width and normalized width of separators."""
    lf, nb = jt.leaf_family, jt.neighbors
    clusters = {}
    for v in jt.nodes:
        if v in lf:
            clusters[v] = jt.families[lf[v]]
        else:
            clusters[v] = frozenset().union(*(separators[edge_key(v, u)] for u in nb[v]))
    sizes = [len(c) for c in clusters.values()]
    return separators, clusters, max(sizes) - 1, _log2_big(sum(1 << s for s in sizes))


def reference_lift(separators, twin_jt):
    """Thm-2/3 lift on frozensets: S, S' and S union S' by edge class."""
    def primed(s):
        return frozenset(twin_jt.var_dup[v] for v in s)

    out = {}
    for e in twin_jt.edges:
        cls = twin_jt.edge_class[e]
        if cls == "duplicated":
            out[e] = separators[e]
        elif cls == "duplicate":
            out[e] = primed(separators[twin_jt.duplicate_base[e]])
        else:
            out[e] = separators[e] | primed(separators[e])
    return out


def assert_matches(got, want):
    assert (got.separators, got.clusters, got.width, got.normalized_width) == want
    assert list(got.separators) == list(want[0]) and list(got.clusters) == list(want[1])


def check_against_the_reference(dag, bound):
    """Classical separators of the base, replicated and twin trees, and
    the Thm-2 and Thm-3 lifts, against the frozenset reference."""
    jt = base_jointree_of(dag)
    rep = replicate(jt, dag, bound)  # replicas hang off the nodes next to hosts
    for tree in (jt, rep, make_twin_jointree(jt, dag), make_twin_jointree(rep, dag)):
        assert_matches(classical_separators(tree), reference_assemble(tree, reference_classical_separators(tree)))
    for tree in (jt, rep):
        twin_jt = make_twin_jointree(tree, dag)
        base = classical_separators(tree)  # Thm 2
        assert_matches(twin_separators_direct(base, twin_jt),
                       reference_assemble(twin_jt, reference_lift(base.separators, twin_jt)))
        thinned = thin(tree, dag.internals())  # Thm 3
        assert_matches(thinned, reference_assemble(tree, thinned.separators))
        assert_matches(twin_separators_direct(thinned, twin_jt),
                       reference_assemble(twin_jt, reference_lift(thinned.separators, twin_jt)))
    return max(len(ks) for ks in rep.children.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(2, 30), st.integers(1, 5),
       st.integers(0, 2**32), st.sampled_from((1, 3, 10)))
def test_mask_separators_match_the_frozenset_reference(gen, n, param, seed, bound):
    check_against_the_reference(generate_dag(gen, n, param, seed), bound)


@pytest.mark.parametrize("fan_out", (3, 8, 20))
def test_mask_separators_match_the_frozenset_reference_at_hubs(fan_out):
    # a functional X under one root, with fan_out children: replication
    # hangs one replica of f_X by each child's host, so nodes get many children
    kids = [f"Y{i}" for i in range(fan_out)]
    dag = Dag.of(["R", "X"] + kids, {"X": ("R",), **{y: ("X",) for y in kids}})
    assert check_against_the_reference(dag, 10) > fan_out


def test_instance_widths_never_builds_the_frozenset_views(monkeypatch):
    built = []
    for name in ("separators", "clusters"):
        view = getattr(SeparatorAssignment, name).func
        monkeypatch.setattr(SeparatorAssignment, name,
                            property(lambda self, name=name, view=view: built.append(name) or view(self)))
    for seed in range(4):
        instance_widths(generate_dag("rSCM", 14, 3, seed), 10)
    assert built == []
    jt = base_jointree_of(generate_dag("rSCM", 14, 3, 0))
    assert classical_separators(jt).clusters and built == ["clusters"]
