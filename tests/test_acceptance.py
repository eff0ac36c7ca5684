"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (visible despite output capture) before asserting.
"""

import statistics

import pytest

from ctwin import (
    CounterfactualQuery,
    Dag,
    Evidence,
    brute_force_counterfactual,
    classical_separators,
    counterfactual,
    eliminate,
    exact_treewidth,
    jointree_from_order,
    make_twin_jointree,
    minfill_order,
    moral_graph,
    twin_order,
    twin_separators_direct,
)
from ctwin.bench import (
    SuiteConfig,
    _cell_seed,
    find_order_tightness,
    find_treewidth_tightness,
    generate_dag,
    run_bound_audit,
    run_suite,
)
from ctwin.randgen import Rng, gen_rnet, parameterize, to_rscm
from ctwin.worlds import twin_dag

from conftest import half_adder


def _report(capfd, num, ok, desc):
    with capfd.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}")


@pytest.fixture(scope="session")
def audit():
    return run_bound_audit(instances=1000, seed=0, chain_bound=10)


def _instances(count, sizes=(8, 10, 12), params=(2, 3)):
    gens = ("rNET", "rNET2", "rSCM", "rSCM2")
    for k in range(count):
        g = gens[k % 4]
        n = sizes[k % len(sizes)]
        p = params[k % len(params)]
        yield generate_dag(g, n, p, _cell_seed(1, n, p, k))


def test_criterion_1_cor1_order_bound(audit, capfd):
    bad = [v for v in audit["violations"] if v["bound"].startswith("cor1")]
    ok = audit["instances"] == 1000 and not bad
    _report(capfd, 1, ok, "lifted twin orders satisfy width <= 2w+1 on 1000 instances")
    assert ok, bad


def test_criterion_2_cor3_jointree_bound(audit, capfd):
    bad = [v for v in audit["violations"] if v["bound"].startswith("cor3")]
    ok = not bad
    _report(capfd, 2, ok, "twin jointrees satisfy width <= 2w+1 and nodes <= 2n on 1000 instances")
    assert ok, bad


def test_criterion_3_thm2_separator_equality(capfd):
    bad = 0
    for dag in _instances(500):
        jt = jointree_from_order(dag, minfill_order(moral_graph(dag)))
        twin_jt = make_twin_jointree(jt, dag)
        lifted = twin_separators_direct(classical_separators(jt), twin_jt)
        direct = classical_separators(twin_jt)
        if lifted.separators != direct.separators:
            bad += 1
    ok = bad == 0
    _report(capfd, 3, ok, "lifted twin separators equal from-scratch separators on 500 jointrees")
    assert ok, f"{bad} mismatches"


def test_criterion_4_thm1_cluster_containment(capfd):
    bad = 0
    for dag in _instances(500):
        order = minfill_order(moral_graph(dag))
        base = eliminate(moral_graph(dag), order)
        roots = set(dag.roots())
        tdag = twin_dag(dag)
        torder = twin_order(order, dag)
        twin = eliminate(moral_graph(tdag), torder)
        base_cluster = dict(zip(order.sequence, base.clusters))

        def primed(cluster):
            return frozenset(v if v in roots else v + "'" for v in cluster)

        for pos, v in enumerate(torder.sequence):
            x = v[:-1] if v.endswith("'") else v
            allowed = base_cluster[x] | primed(base_cluster[x])
            if not twin.clusters[pos] <= allowed:
                bad += 1
    ok = bad == 0
    _report(capfd, 4, ok, "twin clusters contained in C(X) union C(X)' on 500 instances")
    assert ok, f"{bad} containment failures"


def test_criterion_5_thm4_nworld_bounds(audit, capfd):
    bad = [
        v for v in audit["violations"]
        if v["bound"].startswith(("thm4", "appendix-d"))
    ]
    ok = not bad
    _report(capfd, 5, ok, "N-world and generalized N-world orders satisfy width <= N(w+1)-1")
    assert ok, bad


def test_criterion_6a_order_tightness(capfd):
    witness = find_order_tightness(6)
    ok = witness is not None
    _report(capfd, "6a", ok, "<=6-node DAG with a width-2 order whose twin order has width 5")
    assert ok


def test_criterion_6b_treewidth_tightness(capfd):
    # the search scans sizes in increasing order, so an 8-node witness
    # means no DAG with <= 7 nodes has base treewidth 2 and twin treewidth 4
    witness = find_treewidth_tightness(8)
    widths = None
    if witness is not None:
        dag = Dag.of(list(witness["parents"]), witness["parents"])
        widths = (len(dag.nodes),
                  exact_treewidth(moral_graph(dag), node_limit=16),
                  exact_treewidth(moral_graph(twin_dag(dag)), node_limit=16))
    ok = widths == (8, 2, 4)
    _report(capfd, "6b", ok,
            "smallest base network with treewidth 2 and twin treewidth 4 has "
            "8 nodes (exhaustive search: none with <= 7)")
    assert ok, (witness, widths)


def test_criterion_6b_witness_at_eight_nodes(capfd):
    # smallest instance realizing base treewidth 2 / twin treewidth 4;
    # test_criterion_6b_treewidth_tightness proves none exists with <= 7 nodes
    dag = Dag.of(
        list("ABCDEFGH"),
        {"B": ("A",), "D": ("A", "B"), "E": ("C", "B"),
         "G": ("D", "E"), "H": ("G", "F")},
    )
    base_tw = exact_treewidth(moral_graph(dag))
    twin_tw = exact_treewidth(moral_graph(twin_dag(dag)), node_limit=16)
    ok = base_tw == 2 and twin_tw == 4
    _report(capfd, "6b+", ok, "8-node witness: base treewidth 2, twin treewidth 4")
    assert ok, (base_tw, twin_tw)


def _random_query(scm, rng):
    roots = list(scm.dag.roots())
    internals = list(scm.dag.internals()) or roots
    n_worlds = 1 + rng.below(3)
    shared = roots if rng.below(2) else [r for r in roots if rng.below(2)]
    obs, do = [], []
    for w in range(n_worlds):
        pool = rng.sample(internals, min(len(internals), 1 + rng.below(2)))
        obs.append(Evidence({v: rng.below(scm.card(v)) for v in pool[: 1 + rng.below(2)]}))
        do_pool = rng.sample(internals, min(len(internals), rng.below(2)))
        do.append(Evidence({v: rng.below(scm.card(v)) for v in do_pool}))
    tw = 1 + rng.below(n_worlds)
    tv = internals[rng.below(len(internals))]
    return CounterfactualQuery(
        world_count=n_worlds,
        shared_roots=frozenset(shared),
        observations=tuple(obs),
        interventions=tuple(do),
        target=((tw, tv, rng.below(scm.card(tv))),),
        mode="joint",
    )


def test_criterion_7_oracle_equivalence(capfd):
    rng = Rng(20260824)
    bad = []
    checked = 0
    for k in range(200):
        n = 4 + k % 2  # base SCM stays within 10 binary variables
        scm = parameterize(to_rscm(gen_rnet(n, 2, Rng(3000 + k))), Rng(4000 + k))
        assert len(scm.dag.nodes) <= 10
        q = _random_query(scm, rng)
        want = brute_force_counterfactual(scm, q)
        for engine in ("ve", "jointree", "jointree-thinned"):
            got = counterfactual(scm, q, engine)
            if abs(got.value - want.value) > 1e-9:
                bad.append((k, engine, "joint"))
            if abs(got.evidence_probability - want.evidence_probability) > 1e-9:
                bad.append((k, engine, "evidence"))
            if want.evidence_probability > 1e-12:
                cq = CounterfactualQuery(
                    q.world_count, q.shared_roots, q.observations,
                    q.interventions, q.target, mode="conditional",
                )
                cw = want.value / want.evidence_probability
                cg = counterfactual(scm, cq, engine)
                if abs(cg.value - cw) > 1e-9:
                    bad.append((k, engine, "conditional"))
        checked += 1

    # the worked gate-repair query with its enumeration-frozen values
    adder = half_adder()
    q = CounterfactualQuery(
        world_count=2,
        shared_roots=frozenset({"U", "X", "Y"}),
        observations=(Evidence({"A": 1, "B": 0, "C": 0, "S": 0}), Evidence({})),
        interventions=(Evidence({}), Evidence({"A": 1, "B": 1})),
        target=((2, "C", 1), (2, "S", 0)),
    )
    for engine in ("ve", "jointree", "jointree-thinned", "oracle"):
        res = counterfactual(adder, q, engine)
        if abs(res.value - 0.9) > 1e-9 or abs(res.evidence_probability - 0.025) > 1e-9:
            bad.append(("half-adder", engine))

    ok = checked == 200 and not bad
    _report(capfd, 7, ok, "ve/jointree/thinned match the enumeration oracle within 1e-9 on 200 SCMs")
    assert ok, bad[:5]


def test_criterion_8_thm3_validity(capfd):
    from ctwin.bench import instance_widths

    rng = Rng(8)
    bound_bad, value_bad = [], []
    for k in range(100):
        n = 5 + k % 3
        scm = parameterize(to_rscm(gen_rnet(n, 2, Rng(7000 + k))), Rng(8000 + k))
        widths = instance_widths(scm.dag, chain_bound=10)
        if widths["twin_thm3"][0] > 2 * widths["base_mf_rls"][0] + 1:
            bound_bad.append(k)
        internals = list(scm.dag.internals()) or list(scm.dag.roots())
        q = CounterfactualQuery(
            world_count=2,
            shared_roots=frozenset(scm.dag.roots()),
            observations=(Evidence({internals[0]: rng.below(2)}), Evidence({})),
            interventions=(Evidence({}), Evidence({internals[-1]: rng.below(2)})),
            target=((2, internals[0], rng.below(2)),),
            mode="joint",
        )
        want = brute_force_counterfactual(scm, q)
        got = counterfactual(scm, q, "jointree-thinned")
        if abs(got.value - want.value) > 1e-9:
            value_bad.append(k)
    ok = not bound_bad and not value_bad
    _report(capfd, 8, ok, "thinned twin propagation matches oracle and width <= 2w+1 on 100 functional SCMs")
    assert ok, (bound_bad[:5], value_bad[:5])


def test_criterion_9_statistical_bands(tmp_path, capfd):
    base_targets = {3: 7.5, 5: 14.3, 7: 19.5}
    twin_targets = {3: 14.0, 5: 26.4, 7: 37.0}
    failures = []
    soft_violations = 0
    total = 0
    for gen in ("rNET", "rSCM"):
        cfg = SuiteConfig(generator=gen, n_values=(50,), param_values=(3, 5, 7),
                          reps=50, seed=0, workers=4)
        rows = run_suite(cfg, tmp_path / f"{gen}.csv")
        for p in (3, 5, 7):
            cell = [r for r in rows if r.param == p]
            base_mean = statistics.fmean(r.widths["base_mf"][0] for r in cell)
            lo, hi = base_targets[p] * 0.7, base_targets[p] * 1.3
            if not lo <= base_mean <= hi:
                failures.append((gen, p, "base_mf", base_mean, (lo, hi)))
            if gen == "rSCM":
                twin_mean = statistics.fmean(r.widths["twin_mf"][0] for r in cell)
                lo, hi = twin_targets[p] * 0.7, twin_targets[p] * 1.3
                if not lo <= twin_mean <= hi:
                    failures.append((gen, p, "twin_mf", twin_mean, (lo, hi)))
            for r in cell:
                total += 1
                if not r.widths["twin_mf"][0] < 2 * r.widths["base_mf"][0]:
                    soft_violations += 1
    ok = not failures
    rate = soft_violations / total if total else 0.0
    _report(capfd, 9, ok,
            f"n=50 width means inside +-30% bands; twin < 2x base soft "
            f"violation rate {rate:.3f} ({soft_violations}/{total})")
    assert ok, failures


def test_criterion_10_determinism(tmp_path, capfd):
    import json

    from ctwin.cli import main

    ok = True
    # JSON outputs repeat byte-for-byte
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        main(["gen", "--n", "12", "--param", "3", "--seed", "9", "--out", str(out)])
    ok &= a.read_bytes() == b.read_bytes()
    # CSV identical across worker counts
    c = tmp_path / "c.csv"
    d = tmp_path / "d.csv"
    for out, workers in ((c, "1"), (d, "3")):
        main(["bench", "--generator", "rSCM", "--n", "10", "--param", "2,3",
              "--reps", "4", "--workers", workers, "--out", str(out)])
    ok &= c.read_bytes() == d.read_bytes()
    # audit JSON repeats
    e = tmp_path / "e.json"
    f = tmp_path / "f.json"
    for out in (e, f):
        main(["audit", "--instances", "20", "--out", str(out)])
    ok &= e.read_bytes() == f.read_bytes()
    json.loads(e.read_text())
    _report(capfd, 10, bool(ok), "repeated CLI runs are byte-identical at any worker count")
    assert ok
