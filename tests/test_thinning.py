from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctwin import (
    Dag,
    EliminationOrder,
    ModelError,
    classical_separators,
    jointree_from_order,
    make_twin_jointree,
    minfill_order,
    moral_graph,
    replicate,
    thin,
    thinned_twin_separators,
)
from ctwin import thinning
from ctwin.bench import generate_dag
from ctwin.jointree import edge_key
from ctwin.randgen import GENERATORS
from ctwin.worlds import twin_dag

from conftest import half_adder, random_scm


def gate_dag():
    # one functional variable D fans out to two children
    return Dag.of(
        ["A", "B", "C", "D", "E", "F"],
        {"C": ("A", "B"), "D": ("C",), "E": ("B", "D"), "F": ("A", "D")},
    )


def gate_widths():
    """Classical, replicated and thinned widths of the gate DAG's minfill
    jointree, with D functional and chain bound 10."""
    dag = gate_dag()
    jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
    rep = replicate(jt, dag, 10, {"D"})
    thinned = thin(rep, {"D"})
    return classical_separators(jt).width, classical_separators(rep).width, thinned.width


def test_thinning_lowers_width_on_gate_dag():
    classical_width, _, thinned_width = gate_widths()
    assert classical_width == 3
    assert thinned_width == 2


def test_chain_bound_zero_is_identity():
    dag = gate_dag()
    order = minfill_order(moral_graph(dag))
    jt = jointree_from_order(dag, order)
    rep = replicate(jt, dag, 0)
    assert set(rep.nodes) == set(jt.nodes)
    assert set(rep.edges) == set(jt.edges)


def test_no_functional_means_no_thinning():
    dag = gate_dag()
    jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
    thinned = thin(jt, ())
    assert thinned.separators == classical_separators(jt).separators
    assert thinned.log == ()


def test_replication_adds_hosts_for_functional_vars():
    dag = gate_dag()
    jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
    rep = replicate(jt, dag, 10)
    assert len(rep.hosts["D"]) > len(jt.hosts["D"])
    # replicas cover families only, never invent new ones
    assert set(rep.hosts) == set(jt.hosts)


def test_replicate_leaves_its_input_tree_alone():
    for dag in (gate_dag(), random_scm(3, n=10, param=3).dag):
        jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
        nb = {v: list(us) for v, us in jt.neighbors.items()}
        lf = dict(jt.leaf_family)
        rep = replicate(jt, dag, 10)
        assert len(rep.leaf_family) > len(lf)
        assert jt.neighbors == nb
        assert jt.leaf_family == lf


def test_replicate_rejects_negative_bound():
    dag = gate_dag()
    jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
    with pytest.raises(ModelError):
        replicate(jt, dag, -1)


def doubled_hosts(jt):
    """(node, family) for each node that neighbours two host leaves of
    one family."""
    lf = jt.leaf_family
    out = []
    for v, us in jt.neighbors.items():
        families = [lf[u] for u in us if u in lf]
        out += [(v, f) for f in sorted(set(families)) if families.count(f) > 1]
    return out


def test_replicate_puts_one_host_of_a_family_next_to_a_node():
    # X's children Y and Z both hang off c1: the replica of f_X placed
    # there for Y serves Z too, so Z gets none
    dag = Dag.of(["A", "X", "Y", "Z"], {"X": ("A",), "Y": ("X",), "Z": ("X",)})
    jt = jointree_from_order(dag, EliminationOrder(("A", "X", "Y", "Z")))
    assert jt.neighbors["c1"] == ["c0", "f_Y", "f_Z"]
    rep = replicate(jt, dag, 10, {"X"})
    assert rep.hosts["X"] == ("f_X", "r0_X")
    assert rep.neighbors["r0_X"] == ["c1"]
    assert doubled_hosts(rep) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(2, 30), st.integers(1, 5),
       st.integers(0, 2**32), st.booleans(), st.sampled_from((1, 10)))
def test_replicate_never_doubles_a_family_at_a_node(gen, n, param, seed, twin, bound):
    dag = generate_dag(gen, n, param, seed)
    if twin:
        dag = twin_dag(dag)
    rep = replicate(jointree_from_order(dag, minfill_order(moral_graph(dag))), dag, bound)
    assert doubled_hosts(rep) == []


def test_thinned_separators_are_subsets():
    for seed in range(10):
        scm = random_scm(seed, n=8, param=3)
        jt = jointree_from_order(scm.dag, minfill_order(moral_graph(scm.dag)))
        rep = replicate(jt, scm.dag, 10)
        base = classical_separators(rep)
        thinned = thin(rep, scm.dag.internals())
        for e, s in thinned.separators.items():
            assert s <= base.separators[e]
        assert thinned.width <= base.width


def test_log_replays_to_same_separators():
    dag = gate_dag()
    jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
    rep = replicate(jt, dag, 10)
    thinned = thin(rep, {"D"})
    sep = {e: set(s) for e, s in classical_separators(rep).separators.items()}
    for entry in thinned.log:
        assert entry["rule"] in (1, 2)
        assert entry["variable"] in sep[entry["edge"]]
        sep[entry["edge"]].discard(entry["variable"])
    assert {e: frozenset(s) for e, s in sep.items()} == thinned.separators


def test_only_functional_vars_thinned():
    for seed in range(5):
        scm = random_scm(seed, n=8, param=3)
        jt = jointree_from_order(scm.dag, minfill_order(moral_graph(scm.dag)))
        thinned = thin(jt, scm.dag.internals())
        base = classical_separators(jt)
        internal = set(scm.dag.internals())
        for e in jt.edges:
            removed = base.separators[e] - thinned.separators[e]
            assert removed <= internal


def test_twin_lift_of_thinned_separators():
    for seed in range(5):
        scm = random_scm(seed, n=7, param=2)
        jt = jointree_from_order(scm.dag, minfill_order(moral_graph(scm.dag)))
        rep = replicate(jt, scm.dag, 10)
        thinned = thin(rep, scm.dag.internals())
        twin_jt = make_twin_jointree(rep, scm.dag)
        lifted = thinned_twin_separators(thinned, twin_jt)
        # lifted twin thinned width respects 2w + 1 over the thinned base
        assert lifted.width <= 2 * thinned.width + 1
        roots = set(scm.dag.roots())
        for e, cls in twin_jt.edge_class.items():
            s = lifted.separators[e]
            if cls == "duplicated":
                assert s == thinned.separators[e]
            elif cls == "duplicate":
                base_e = twin_jt.duplicate_base[e]
                expect = {
                    v if v in roots else v + "'"
                    for v in thinned.separators[base_e]
                }
                assert s == frozenset(expect)


def test_twin_lift_carries_the_base_removal_log():
    scm = half_adder()
    jt = jointree_from_order(scm.dag, minfill_order(moral_graph(scm.dag)))
    thinned = thin(replicate(jt, scm.dag, 10), scm.dag.internals())
    assert thinned.log  # the replicated half adder has removals to carry
    lifted = thinned_twin_separators(thinned, make_twin_jointree(thinned.jointree, scm.dag))
    assert lifted.log == thinned.log


def test_width_report_exposes_replication_blowup():
    classical_width, replicated_width, thinned_width = gate_widths()
    assert replicated_width >= classical_width
    assert thinned_width <= replicated_width


# ------------------------------------------------ thin: property checks


def _regions(jt, separators, x):
    """x-regions by DFS: nodes joined by edges whose separator carries x,
    together with the leaves whose hosted families mention x."""
    lf = jt.leaf_family
    nb = jt.neighbors
    members = {l for l, child in lf.items() if x in jt.families[child]}
    members |= {v for e, s in separators.items() if x in s for v in e}
    seen, out = set(), []
    for start in sorted(members):
        if start in seen:
            continue
        region, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for u in nb[v]:
                if u not in region and x in separators[edge_key(v, u)]:
                    region.add(u)
                    stack.append(u)
        seen |= region
        out.append(region)
    return out


def _anchored(jt, separators, x):
    """Every x-region that holds a leaf mentioning x holds a host of f_x."""
    lf = jt.leaf_family
    hosts = set(jt.hosts.get(x, ()))
    return all(
        region & hosts
        for region in _regions(jt, separators, x)
        if any(x in jt.families[lf[l]] for l in region & set(lf))
    )


@st.composite
def thinning_cases(draw):
    generator = draw(st.sampled_from(("rNET", "rSCM")))
    n = draw(st.integers(2, 14))
    dag = generate_dag(generator, n, draw(st.integers(1, 4)), draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        dag = twin_dag(dag)
    jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
    return dag, replicate(jt, dag, draw(st.sampled_from((0, 1, 10))))


@settings(max_examples=60, deadline=None)
@given(thinning_cases())
def test_thin_replays_stays_anchored_and_is_a_fixpoint(case):
    dag, rep = case
    functional = set(dag.internals())
    thinned = thin(rep, functional)
    seps = thinned.separators

    # (a) the log replays the classical separators to the thinned ones
    replay = {e: set(s) for e, s in classical_separators(rep).separators.items()}
    for entry in thinned.log:
        assert entry["variable"] in functional
        replay[entry["edge"]].remove(entry["variable"])
    assert {e: frozenset(s) for e, s in replay.items()} == seps

    # (b) every x-region keeps a host of f_x
    for x in rep.families:
        assert _anchored(rep, seps, x), x

    # (c) no functional (x, e) left passes rule 1 or rule 2 and the guard
    nb = rep.neighbors
    for e, s in seps.items():
        for x in s & functional:
            rest = {f: t - {x} if f == e else t for f, t in seps.items()}
            sides = [r for r in _regions(rep, rest, x) if e[0] in r or e[1] in r]
            hosts = set(rep.hosts.get(x, ()))
            rule1 = len(sides) == 2 and all(r & hosts for r in sides)
            rule2 = any(
                not any(u not in e and x in seps[edge_key(end, u)] for u in nb[end])
                for end in e
            )
            assert not ((rule1 or rule2) and _anchored(rep, rest, x)), (e, x)


# ------------------------------------------------ thin: split-only relabel


def reference_thin_variable(x, edges, hosts, mention):
    """_thin_variable relabelling both sides of every split: each removal
    roots the two components afresh at the edge's ends and recounts them."""
    adj = {v: set() for v in mention}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    parent, comp, below, comps = {}, {}, {}, []

    def label(root):
        parent[root] = None
        order = [root]
        for v in order:
            comp[v] = len(comps)
            below[v] = [v in hosts, v in mention]
            for u in adj[v]:
                if u != parent[v]:
                    parent[u] = v
                    order.append(u)
        for v in reversed(order[1:]):
            up, down = below[parent[v]], below[v]
            up[0] += down[0]
            up[1] += down[1]
        comps.append((*below[root], min((v for v in order if v in hosts), default=None)))
        return len(comps) - 1

    for v in adj:
        if v not in comp:
            h, m, _ = comps[label(v)]
            if m and not h:
                return []
    out = []
    for k in count():
        keep = []
        for e in edges:
            a, b = e
            c = a if parent[a] == b else b
            hc, mc = below[c]
            ho, mo = comps[comp[c]][0] - hc, comps[comp[c]][1] - mc
            if hc and ho:
                rule, witness = 1, None
            elif (len(adj[a]) == 1 or len(adj[b]) == 1) and (hc or not mc) and (ho or not mo):
                rule, witness = 2, a if len(adj[a]) == 1 else b
            else:
                keep.append(e)
                continue
            adj[a].remove(b)
            adj[b].remove(a)
            ends = label(a), label(b)
            out.append((k, e, x, rule, witness or tuple(comps[i][2] for i in ends)))
        if len(keep) == len(edges):
            return out
        edges = keep


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(2, 20), st.integers(1, 4),
       st.integers(0, 2**32), st.booleans(), st.sampled_from((0, 1, 10)))
def test_thin_matches_the_relabel_both_sides_reference(gen, n, param, seed, twin, bound):
    dag = generate_dag(gen, n, param, seed)
    if twin:
        dag = twin_dag(dag)
    rep = replicate(jointree_from_order(dag, minfill_order(moral_graph(dag))), dag, bound)
    got = thin(rep, dag.internals())
    with mock.patch.object(thinning, "_thin_variable", reference_thin_variable):
        want = thin(rep, dag.internals())
    assert got.log == want.log
    assert got.separators == want.separators
