import pytest

from ctwin import Dag, ModelError
from ctwin.model import _topological_order
from ctwin.randgen import Rng, _splitmix64, gen_rnet, gen_rnet2, gen_rscm, gen_rscm2, parameterize, to_rscm

from conftest import assert_round_trips


def test_splitmix64_known_vector():
    sm = _splitmix64(0)
    assert next(sm) == 0xE220A8397B1DCDAF
    assert next(sm) == 0x6E789E6AA1B965F4
    assert next(sm) == 0x06C45D188009454F


def test_rng_determinism():
    a = [Rng(42).next_u64() for _ in range(5)]
    b = [Rng(42).next_u64() for _ in range(5)]
    assert a == b
    assert a != [Rng(43).next_u64() for _ in range(5)]


def test_below_range_and_coverage():
    rng = Rng(1)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ModelError):
        rng.below(0)


def test_uniform_range():
    rng = Rng(2)
    xs = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_sample_distinct():
    rng = Rng(3)
    pool = list(range(10))
    got = rng.sample(pool, 4)
    assert len(got) == len(set(got)) == 4
    assert set(got) <= set(pool)
    assert pool == list(range(10))  # input untouched


def test_gen_rnet_parent_bounds():
    dag = gen_rnet(30, 4, Rng(7))
    names = list(dag.nodes)
    for i, v in enumerate(names):
        assert len(dag.parents[v]) <= min(4, i)
        assert all(names.index(p) < i for p in dag.parents[v])


def test_gen_rnet_deterministic():
    assert gen_rnet(20, 3, Rng(5)) == gen_rnet(20, 3, Rng(5))


def test_to_rscm_adds_exclusive_roots():
    dag = gen_rnet(15, 3, Rng(9))
    scm_dag = to_rscm(dag)
    for v in dag.nodes:
        if dag.parents[v]:
            assert f"R_{v}" in scm_dag.parents[v]
            assert scm_dag.parents[f"R_{v}"] == ()
            assert scm_dag.children_of(f"R_{v}") == (v,)


def test_gen_rnet2_degree_and_connectivity():
    dag = gen_rnet2(20, 3, Rng(11))
    deg = {v: len(dag.parents[v]) for v in dag.nodes}
    for v in dag.nodes:
        for p in dag.parents[v]:
            deg[p] += 1
    assert all(d <= 3 for d in deg.values())
    # skeleton connectivity
    adj = {v: set() for v in dag.nodes}
    for v in dag.nodes:
        for p in dag.parents[v]:
            adj[v].add(p)
            adj[p].add(v)
    seen, stack = {dag.nodes[0]}, [dag.nodes[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    assert seen == set(dag.nodes)


def reference_rnet2(n, max_degree, rng):
    """The rNET2 Markov chain with whole-graph checks: every step copies the
    parents, then tests the trial graph's skeleton for connectivity (a
    removal) or the whole graph for a cycle (an addition)."""
    names = [f"v{i}" for i in range(n)]
    parents = {v: (names[i - 1],) if i else () for i, v in enumerate(names)}
    degree = {v: (i > 0) + (i < n - 1) for i, v in enumerate(names)}

    def connected(ps):
        adj = {v: set() for v in names}
        for v, vs in ps.items():
            for p in vs:
                adj[v].add(p)
                adj[p].add(v)
        seen, stack = {names[0]}, [names[0]]
        while stack:
            for u in adj[stack.pop()] - seen:
                seen.add(u)
                stack.append(u)
        return len(seen) == n

    for _ in range(50 * n * max_degree):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        a, b = names[i], names[j]
        trial = dict(parents)
        if a in parents[b]:
            trial[b] = tuple(p for p in parents[b] if p != a)
            if connected(trial):
                parents = trial
                degree[a] -= 1
                degree[b] -= 1
        elif degree[a] < max_degree and degree[b] < max_degree:
            trial[b] = parents[b] + (a,)
            if _topological_order(names, trial) is not None:
                parents = trial
                degree[a] += 1
                degree[b] += 1
    return Dag(tuple(names), {v: tuple(sorted(parents[v])) for v in names})


@pytest.mark.parametrize("n", (2, 3, 5, 8, 13, 20))
@pytest.mark.parametrize("max_degree", (1, 2, 3, 5))
def test_gen_rnet2_matches_whole_graph_checks(n, max_degree):
    for seed in range(4):
        assert gen_rnet2(n, max_degree, Rng(seed)) == reference_rnet2(n, max_degree, Rng(seed))


def test_parameterize_validates():
    for gen in (gen_rscm, gen_rscm2):
        scm = gen(12, 3, Rng(13))
        assert_round_trips(scm)
        for v in scm.dag.nodes:
            if scm.dag.parents[v]:
                assert v in scm.internal_cpts
            else:
                assert abs(sum(scm.root_tables[v]) - 1.0) < 1e-12


def test_parameterize_cardinality():
    scm = parameterize(gen_rnet(8, 2, Rng(17)), Rng(18), cardinality=3)
    assert all(scm.card(v) == 3 for v in scm.dag.nodes)
    with pytest.raises(ModelError):
        parameterize(gen_rnet(4, 2, Rng(19)), Rng(20), cardinality=1)
