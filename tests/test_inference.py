import math

import numpy as np
import pytest

from ctwin import (
    CounterfactualQuery,
    Evidence,
    Factor,
    ModelError,
    ZeroEvidenceError,
    brute_force_counterfactual,
    build_query_network,
    counterfactual,
    factor_value,
    jointree_from_order,
    jointree_propagate,
    minfill_order,
    moral_graph,
    multiply,
    reduce_factor,
    scm_factors,
    sum_out,
    ve_query,
)

from ctwin.elimination import _family_adjacency, _replay
from ctwin.model import network_from_dict, network_to_dict
from conftest import random_scm

ENGINES = ("ve", "jointree", "jointree-thinned", "oracle")


# ---------------------------------------------------------------- factors

def test_multiply_aligns_scopes():
    a = Factor.of(("x", "y"), {"x": 2, "y": 2}, [1, 2, 3, 4])
    b = Factor.of(("y", "z"), {"y": 2, "z": 2}, [10, 20, 30, 40])
    c = multiply(a, b)
    assert c.scope == ("x", "y", "z")
    assert c.values[1, 0, 1] == 3 * 20
    assert c.values[0, 1, 0] == 2 * 30


def test_multiply_commutes():
    rng = np.random.default_rng(0)
    a = Factor(("x", "y"), rng.random((2, 3)))
    b = Factor(("z", "y"), rng.random((4, 3)))
    ab = multiply(a, b)
    ba = multiply(b, a)
    perm = [ba.scope.index(v) for v in ab.scope]
    assert np.allclose(ab.values, np.transpose(ba.values, perm))


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def factor_pairs(draw):
        names = ("p", "q", "r", "s")
        cards = {v: draw(st.integers(2, 3)) for v in names}
        scopes = [
            tuple(v for v in names if draw(st.booleans())) or ("p",)
            for _ in range(2)
        ]
        out = []
        for scope in scopes:
            size = int(np.prod([cards[v] for v in scope]))
            vals = draw(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=size, max_size=size)
            )
            out.append(Factor.of(scope, cards, vals))
        return out

    @settings(max_examples=50, deadline=None)
    @given(factor_pairs())
    def test_sum_of_product_is_order_free(pair):
        # summing everything out of a product must not depend on the
        # variable order (the identity variable elimination relies on)
        a, b = pair
        f = multiply(a, b)
        scope = list(f.scope)
        totals = set()
        for perm in (scope, scope[::-1]):
            g = f
            for v in perm:
                g = sum_out(g, v)
            totals.add(round(factor_value(g), 9))
        assert len(totals) == 1
except ImportError:  # hypothesis is an optional test dependency
    pass


def test_sum_out_and_reduce():
    f = Factor.of(("x", "y"), {"x": 2, "y": 2}, [1, 2, 3, 4])
    assert sum_out(f, "x").values.tolist() == [4, 6]
    assert sum_out(f, "missing") is f
    g = reduce_factor(f, Evidence({"y": 1}))
    assert g.scope == ("x",)
    assert g.values.tolist() == [2, 4]
    assert factor_value(sum_out(sum_out(f, "x"), "y")) == 10
    with pytest.raises(ModelError):
        factor_value(f)


# ---------------------------------------------------------------- VE

def brute_force_joint(scm):
    """Reference: the full joint, by multiplying every network factor."""
    f = Factor.unit()
    for g in scm_factors(scm):
        f = multiply(f, g)
    perm = [f.scope.index(v) for v in scm.dag.nodes]
    return Factor(scm.dag.nodes, np.transpose(f.values, perm))


def test_ve_marginal_matches_joint(adder):
    order = minfill_order(moral_graph(adder.dag))
    joint = brute_force_joint(adder)
    axis_s = joint.scope.index("S")
    want = joint.values.sum(axis=tuple(i for i in range(7) if i != axis_s))[1]
    got = ve_query(adder, Evidence({}), order, Evidence({"S": 1}), mode="joint")
    assert got.value == pytest.approx(float(want))
    assert got.evidence_probability == pytest.approx(1.0)


def test_ve_zero_evidence(adder):
    order = minfill_order(moral_graph(adder.dag))
    # S = 1 is impossible when both inputs are low
    with pytest.raises(ZeroEvidenceError):
        ve_query(adder, Evidence({"A": 0, "B": 0, "S": 1}), order, Evidence({"C": 0}))


def test_ve_conflicting_target_is_zero(adder):
    order = minfill_order(moral_graph(adder.dag))
    res = ve_query(adder, Evidence({"S": 1}), order, Evidence({"S": 0}))
    assert res.value == 0.0


def test_jointree_matches_ve(adder):
    order = minfill_order(moral_graph(adder.dag))
    jt = jointree_from_order(adder.dag, order)
    e = Evidence({"A": 1})
    t = Evidence({"C": 1})
    jr = jointree_propagate(jt, adder, e, t)
    vr = ve_query(adder, e, order, t)
    assert jr.value == pytest.approx(vr.value)
    assert jr.evidence_probability == pytest.approx(vr.evidence_probability)


# ---------------------------------------------------------------- queries

def gate_repair_query(mode="conditional"):
    """Would the carry have fired and the sum stayed low, had both inputs
    been high, given we saw input 10 with both outputs low?"""
    return CounterfactualQuery(
        world_count=2,
        shared_roots=frozenset({"U", "X", "Y"}),
        observations=(Evidence({"A": 1, "B": 0, "C": 0, "S": 0}), Evidence({})),
        interventions=(Evidence({}), Evidence({"A": 1, "B": 1})),
        target=((2, "C", 1), (2, "S", 0)),
        mode=mode,
    )


def test_half_adder_counterfactual_all_engines(adder):
    for engine in ENGINES:
        res = counterfactual(adder, gate_repair_query(), engine)
        assert res.value == pytest.approx(0.9), engine
        assert res.evidence_probability == pytest.approx(0.025), engine


def test_half_adder_joint_mode(adder):
    for engine in ENGINES:
        res = counterfactual(adder, gate_repair_query("joint"), engine)
        assert res.value == pytest.approx(0.0225), engine


def test_engine_method_tags(adder):
    q = gate_repair_query()
    assert counterfactual(adder, q, "ve").method == "ve-twin"
    assert counterfactual(adder, q, "jointree").method == "jointree"
    assert counterfactual(adder, q, "jointree-thinned").method == "jointree-thinned"
    assert counterfactual(adder, q, "oracle").method == "oracle"
    with pytest.raises(ModelError):
        counterfactual(adder, q, "magic")


def test_three_world_scenario(adder):
    """Shared gate healths across three worlds: one observed run, one
    intervened run with a partial observation, one purely hypothetical."""
    q = CounterfactualQuery(
        world_count=3,
        shared_roots=frozenset({"X", "Y"}),
        observations=(
            Evidence({"A": 1, "B": 0, "S": 1, "C": 0}),
            Evidence({"C": 0}),
            Evidence({}),
        ),
        interventions=(
            Evidence({}),
            Evidence({"A": 0, "B": 0}),
            Evidence({"A": 1, "B": 1}),
        ),
        target=((3, "S", 1),),
    )
    want = brute_force_counterfactual(adder, q)
    for engine in ("ve", "jointree", "jointree-thinned"):
        got = counterfactual(adder, q, engine)
        assert got.value == pytest.approx(want.value), engine
        assert got.evidence_probability == pytest.approx(want.evidence_probability)
    assert counterfactual(adder, q, "ve").method == "ve-nworld"


def test_build_query_network_mutilates(adder):
    net, wmap, obs, tgt = build_query_network(adder, gate_repair_query())
    assert net.dag.parents["A'"] == ()
    assert net.dag.parents["B'"] == ()
    assert net.root_tables["A'"] == (0.0, 1.0)
    assert obs.assignments == {"A": 1, "B": 0, "C": 0, "S": 0}
    assert tgt.assignments == {"C'": 1, "S'": 0}
    assert wmap.lookup("U", 2) == "U"


def test_conflicting_observations_rejected(adder):
    q = CounterfactualQuery(
        world_count=2,
        shared_roots=frozenset({"U", "X", "Y"}),
        observations=(Evidence({"X": 1}), Evidence({"X": 0})),
        interventions=(Evidence({}), Evidence({})),
        target=((1, "S", 0),),
    )
    with pytest.raises(ModelError):
        build_query_network(adder, q)


@pytest.mark.parametrize("worlds", (2, 3))
def test_conflicting_interventions_on_a_shared_root_rejected(worlds):
    # a shared root is one variable in every world, so fixing it to two
    # states contradicts itself, as two such observations do; one state in
    # two worlds is the same query as that state in one
    from ctwin.randgen import Rng, gen_rscm

    scm = gen_rscm(5, 2, Rng(3))

    def query(*dos):
        dos += ({},) * (worlds - len(dos))
        return CounterfactualQuery(worlds, frozenset(scm.dag.roots()), (Evidence({}),) * worlds,
                                   tuple(map(Evidence, dos)), ((1, "v2", 0),))

    for engine in ENGINES:
        with pytest.raises(ModelError, match="conflicting interventions on 'v0'"):
            counterfactual(scm, query({"v0": 0}, {"v0": 1}), engine)
        assert counterfactual(scm, query({"v0": 0}, {"v0": 0}), engine) == counterfactual(scm, query({"v0": 0}), engine)


def test_query_validation(adder):
    with pytest.raises(ModelError):
        CounterfactualQuery(0, frozenset(), (), (), ())
    with pytest.raises(ModelError):
        CounterfactualQuery(
            1, frozenset(), (Evidence({}),), (Evidence({}),), ((2, "S", 0),)
        )
    with pytest.raises(ModelError):
        CounterfactualQuery(
            1, frozenset(), (Evidence({}),), (Evidence({}),), (), mode="odd"
        )


def test_engines_agree_on_random_scms():
    for seed in range(8):
        scm = random_scm(seed, n=6, param=2)
        roots = scm.dag.roots()
        internals = scm.dag.internals()
        q = CounterfactualQuery(
            world_count=2,
            shared_roots=frozenset(roots),
            observations=(Evidence({}), Evidence({})),
            interventions=(Evidence({}), Evidence({internals[0]: 0})),
            target=((2, internals[-1], 0),),
            mode="joint",
        )
        want = brute_force_counterfactual(scm, q)
        for engine in ("ve", "jointree", "jointree-thinned"):
            got = counterfactual(scm, q, engine)
            assert got.value == pytest.approx(want.value, abs=1e-10), (seed, engine)


def test_one_world_query_is_plain_inference(adder):
    q = CounterfactualQuery(
        world_count=1,
        shared_roots=frozenset({"U", "X", "Y"}),
        observations=(Evidence({"A": 1, "B": 1}),),
        interventions=(Evidence({}),),
        target=((1, "C", 1),),
    )
    order = minfill_order(moral_graph(adder.dag))
    plain = ve_query(adder, Evidence({"A": 1, "B": 1}), order, Evidence({"C": 1}))
    for engine in ENGINES:
        assert counterfactual(adder, q, engine).value == pytest.approx(plain.value)


_BREAK_CONTRACTS = """
import sys
import ctwin.inference as inf
from ctwin import Evidence, InvariantError, ModelError, jointree_from_order, minfill_order, moral_graph, scm_factors
from ctwin.randgen import Rng, gen_rscm

print("optimize", sys.flags.optimize)
scm = gen_rscm(6, 2, Rng(3))
order = minfill_order(moral_graph(scm.dag))
try:
    factors = scm_factors(scm)
    tree = inf._Buckets(scm.dag, order.sequence, factors)
    tree.width = lambda cut=(): 0
    tree.prob(factors, [Evidence({})])
except InvariantError as e:
    print("ve:", e)
inf.sum_out = lambda f, x: f  # messages keep every variable
try:
    inf.jointree_propagate(jointree_from_order(scm.dag, order), scm, Evidence({}), Evidence({}))
except InvariantError as e:
    print("jointree:", e)
try:
    inf._leaf_factors({"v0": ("a", "b")}, {"v0": scm_factors(scm)[0]})  # a root table on two leaves
except ModelError as e:
    print("replicated:", e)
"""


def test_contract_checks_fire_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-O", "-c", _BREAK_CONTRACTS], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1].startswith("ve: peak scope ")
    assert out[2].startswith("jointree: message ") and "exceeds its separator" in out[2]
    assert out[3] == "replicated: replicated family 'v0' is not deterministic"


# ---------------------------------------------------------------- compiled layouts

def _rebuilt(scm):
    """The same network in a new Scm, so nothing compiled is shared."""
    return network_from_dict(network_to_dict(scm))


def _outcome(scm, q, engine):
    try:
        res = counterfactual(scm, q, engine)
    except ModelError as e:
        return type(e).__name__, str(e)
    return res.value, res.evidence_probability, res.method


def _exogenous_space(scm, q):
    """The root states of q's network; 0 when q is rejected before any
    engine runs (conflicting interventions on a shared root)."""
    try:
        net, _, _, _ = build_query_network(_rebuilt(scm), q)
    except ModelError:
        return 0
    return math.prod(net.card(r) for r in net.dag.roots())


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def query_streams(draw):
        from ctwin.randgen import Rng, gen_rscm, gen_rscm2

        gen = draw(st.sampled_from((gen_rscm, gen_rscm2)))
        scm = gen(draw(st.integers(3, 6)), 2, Rng(draw(st.integers(0, 10**6))),
                  cardinality=draw(st.sampled_from((2, 3))))
        roots = scm.dag.roots()
        internals = scm.dag.internals() or roots
        queries = []
        for _ in range(draw(st.integers(2, 6))):
            worlds = draw(st.integers(2, 3))
            shared = roots if draw(st.booleans()) else [r for r in roots if draw(st.booleans())]

            def evidence(pool):
                chosen = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
                return Evidence({v: draw(st.integers(0, scm.card(v) - 1)) for v in chosen})

            q = CounterfactualQuery(
                world_count=worlds,
                shared_roots=frozenset(shared),
                observations=(evidence(internals),) + (Evidence({}),) * (worlds - 1),
                interventions=(Evidence({}),) + tuple(evidence(internals) for _ in range(worlds - 1)),
                target=((worlds, draw(st.sampled_from(internals)), 0),),
                mode=draw(st.sampled_from(("conditional", "joint"))),
            )
            queries.append((q, draw(st.sampled_from(ENGINES))))
        return scm, queries

    @settings(max_examples=40, deadline=None)
    @given(query_streams())
    def test_compiled_layouts_answer_like_a_fresh_scm(stream):
        # one Scm answers a mix of layouts, interventions and engines; each
        # answer must equal, bit for bit, that of a rebuilt Scm with nothing
        # compiled yet, and the Scm keeps no layout but the twin one
        scm, queries = stream
        for q, engine in queries:
            if engine == "oracle" and _exogenous_space(scm, q) > 1 << 12:
                engine = "ve"
            assert _outcome(scm, q, engine) == _outcome(_rebuilt(scm), q, engine), engine
        assert scm._compiled.keys() <= {(2, frozenset(scm.dag.roots()))}
except ImportError:  # hypothesis is an optional test dependency
    pass


def test_failed_query_leaves_later_answers_unchanged(adder):
    q = gate_repair_query()
    first = {engine: counterfactual(adder, q, engine) for engine in ENGINES}
    bad_state = CounterfactualQuery(2, q.shared_roots, q.observations,
                                    (Evidence({}), Evidence({"A": 7})), q.target)
    conflicting = CounterfactualQuery(2, q.shared_roots, (Evidence({"X": 1}), Evidence({"X": 0})),
                                      q.interventions, q.target)
    for bad in (bad_state, conflicting):
        for engine in ENGINES:
            with pytest.raises(ModelError):
                counterfactual(adder, bad, engine)
        for engine in ENGINES:
            assert counterfactual(adder, q, engine) == first[engine]
            assert counterfactual(_rebuilt(adder), q, engine) == first[engine]


def test_second_query_reuses_the_compiled_layout(monkeypatch):
    import ctwin.inference as inf
    import ctwin.thinning as thinning
    from ctwin.thinning import Structures

    # minfill runs in the layout; the jointree chain in each plan's own Structures
    owners = {"minfill_order": inf, "jointree_from_order": thinning, "make_twin_jointree": thinning,
              "replicate": thinning, "thin": thinning}
    calls = dict.fromkeys(owners, 0)
    for name, module in owners.items():
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    scm = random_scm(5, n=8, param=2)
    q = _twin_query(scm)

    def expect(minfill, jointree, twin, thinned):
        return {"minfill_order": minfill, "jointree_from_order": jointree, "make_twin_jointree": twin,
                "replicate": thinned, "thin": thinned}

    counterfactual(scm, q, "oracle")
    assert calls == expect(0, 0, 0, 0)
    counterfactual(scm, q, "ve")
    assert calls == expect(1, 0, 0, 0)
    counterfactual(scm, q, "jointree")
    assert calls == expect(1, 1, 1, 0)
    other = CounterfactualQuery(2, q.shared_roots, q.observations,
                                (Evidence({}), Evidence({scm.dag.internals()[1]: 1})), q.target)
    counterfactual(scm, other, "jointree")
    counterfactual(scm, other, "ve")
    assert calls == expect(1, 1, 1, 0)
    # the thinned plan builds its own base jointree, then replicates and thins it once
    counterfactual(scm, q, "jointree-thinned")
    assert calls == expect(1, 2, 2, 1)
    counterfactual(scm, other, "jointree-thinned")
    assert calls == expect(1, 2, 2, 1)
    # the plans hold what they need; the layout keeps nothing they were built from
    layout = scm._compiled[(2, q.shared_roots)]
    assert not any(isinstance(part, Structures) for part in vars(layout).values())

    fresh = random_scm(5, n=8, param=2)
    counterfactual(fresh, q, "ve")
    counterfactual(fresh, other, "ve")
    assert calls["minfill_order"] == 2 and calls["jointree_from_order"] == 2


def _twin_query(scm):
    """A twin query on a random SCM: intervene on its first internal in
    world 2, observe and target its last one."""
    internals = scm.dag.internals()
    return CounterfactualQuery(
        world_count=2,
        shared_roots=frozenset(scm.dag.roots()),
        observations=(Evidence({internals[-1]: 0}), Evidence({})),
        interventions=(Evidence({}), Evidence({internals[0]: 1})),
        target=((2, internals[-1], 1),),
        mode="joint",
    )


# ---------------------------------------------------------------- two full passes

def _reference_multiply(a, b):
    scope = a.scope + tuple(v for v in b.scope if v not in a.scope)
    av = a.values.reshape(a.values.shape + (1,) * (len(scope) - len(a.scope)))
    perm = [b.scope.index(v) if v in b.scope else None for v in scope]
    bshape = tuple(b.values.shape[p] if p is not None else 1 for p in perm)
    bv = np.transpose(b.values, [p for p in perm if p is not None]).reshape(bshape)
    return Factor(scope, av * bv)


def _reference_eliminate_all(factors, order):
    """Sum out every variable in order, rescanning the whole pool for the
    factors that mention it; returns (value, peak scope size)."""
    peak = max((len(f.scope) for f in factors), default=0)
    pool = list(factors)
    for v in order:
        touching = [f for f in pool if v in f.scope]
        if not touching:
            continue
        pool = [f for f in pool if v not in f.scope]
        f = touching[0]
        for g in touching[1:]:
            f = _reference_multiply(f, g)
        peak = max(peak, len(f.scope))
        pool.append(sum_out(f, v))
    out = 1.0
    for f in pool:
        out *= factor_value(f)
    return out, peak


def _reference_ve(scm, factors, evidence, buckets, target, mode, cut=()):
    """Two full passes in the order of the bucket tree; its stored results
    and its width are not read, only its order and its method tag."""
    import ctwin.inference as inf
    from ctwin import EliminationOrder, mutilate
    from ctwin.elimination import eliminate

    order = EliminationOrder(buckets.sequence)

    inf._check_states(scm, evidence)
    inf._check_states(scm, target)
    if set(order.sequence) != set(scm.dag.nodes):
        raise ModelError("order does not cover the network's variables")
    width = eliminate(moral_graph(mutilate(scm, Evidence(dict.fromkeys(cut, 0))).dag), order).width

    def prob(e):
        value, peak = _reference_eliminate_all([reduce_factor(f, e) for f in factors], order.sequence)
        if peak > width + 1:
            raise inf.InvariantError(f"peak scope {peak} exceeds width bound {width + 1}")
        return value

    both = Evidence({**evidence.assignments, **target.assignments})
    for v in both.assignments:
        if v in evidence.assignments and v in target.assignments:
            if evidence.assignments[v] != target.assignments[v]:
                return inf.InferenceResult(0.0, prob(evidence), buckets.method)
    p_both = prob(both)
    p_e = prob(evidence)
    if mode == "joint":
        return inf.InferenceResult(p_both, p_e, buckets.method)
    if p_e <= 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return inf.InferenceResult(p_both / p_e, p_e, buckets.method)


def _reference_propagate(sched, scm, factors, evidence, target, mode, cut=()):
    """Two full passes, every message computed; cut needs nothing more, as
    its point masses are in factors, and the stored messages are not read."""
    import ctwin.inference as inf

    inf._check_states(scm, evidence)
    inf._check_states(scm, target)
    by_child = {f.scope[-1]: f for f in factors}
    for child in sched.hosts:
        if child not in by_child:
            raise ModelError(f"no factor for hosted family {child!r}")
    leaf_factor = inf._leaf_factors(sched.hosts, by_child)

    def prob(e):
        local = {leaf: reduce_factor(f, e) for leaf, f in leaf_factor.items()}
        msg = {}
        for v, p, children, sep in sched.steps:  # the root last, with an empty separator
            f = local.get(v, Factor.unit())
            for u in children:
                f = _reference_multiply(f, msg[u])
            for x in list(f.scope):
                if x not in sep or x in e.assignments:
                    f = sum_out(f, x)
            if not set(f.scope) <= sep:
                raise inf.InvariantError(f"message {v}->{p} scope {sorted(f.scope)} "
                                         f"exceeds its separator {sorted(sep)}")
            msg[v] = f
        return factor_value(msg[sched.steps[-1][0]])

    for v in target.assignments:
        if v in evidence.assignments and evidence.assignments[v] != target.assignments[v]:
            return inf.InferenceResult(0.0, prob(evidence), sched.method)
    both = Evidence({**evidence.assignments, **target.assignments})
    p_both = prob(both)
    p_e = prob(evidence)
    if mode == "joint":
        return inf.InferenceResult(p_both, p_e, sched.method)
    if p_e <= 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return inf.InferenceResult(p_both / p_e, p_e, sched.method)


class _Oversized(Exception):
    """A product past the size bound of the bit-for-bit test."""


def _bounded(mul):
    """mul, refusing any product of more than 2^20 entries: the N-world
    jointree-thinned engine can ask for factors of several GiB (ROADMAP
    item 3), which would exhaust the test machine's memory."""
    def product(a, b):
        cards = {**dict(zip(a.scope, a.values.shape)), **dict(zip(b.scope, b.values.shape))}
        if math.prod(cards.values()) > 1 << 20:
            raise _Oversized
        return mul(a, b)
    return product


def _hex_outcome(scm, q, engine):
    try:
        res = counterfactual(scm, q, engine)
    except ModelError as e:
        return type(e).__name__, str(e)
    return res.value.hex(), res.evidence_probability.hex(), res.method


def reference_two_pass(scm, q, engine):
    """counterfactual(scm, q, engine) as two full passes, P(t,e) then P(e),
    each eliminating by whole-pool rescans or passing every message, with
    the pairwise product that transposes every operand."""
    from unittest import mock

    import ctwin.inference as inf

    def answer(plan, net, factors, evidence, target, mode, cut=()):
        if isinstance(plan, inf._Buckets):
            return _reference_ve(net, factors, evidence, plan, target, mode, cut)
        return _reference_propagate(plan, net, factors, evidence, target, mode, cut)

    with mock.patch.object(inf, "_answer", answer):
        return _hex_outcome(scm, q, engine)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def overlapping_queries(draw):
        """A random rSCM or rSCM2 network and an N<=3 query on it, roots
        shared in full or in part, whose targets may repeat an observation
        with its own state or with another one. Observations are usually
        read off one simulated run, so that most have nonzero probability."""
        from ctwin.randgen import Rng, gen_rscm, gen_rscm2

        gen = draw(st.sampled_from((gen_rscm, gen_rscm2)))
        card = draw(st.sampled_from((2, 3)))
        scm = gen(draw(st.integers(4, 10)), 2, Rng(draw(st.integers(0, 10**6))), cardinality=card)
        roots, internals = scm.dag.roots(), scm.dag.internals() or scm.dag.roots()
        run = {r: draw(st.integers(0, card - 1)) for r in roots}
        for v in scm.dag.topological_order():
            if v not in run:
                run[v] = scm.child_state(v, run)
        worlds = draw(st.integers(1, 3))
        shared = roots if draw(st.booleans()) else [r for r in roots if draw(st.booleans())]

        def evidence(simulated):
            chosen = draw(st.lists(st.sampled_from(internals), max_size=3, unique=True))
            return {v: run[v] if simulated else draw(st.integers(0, card - 1)) for v in chosen}

        obs = [evidence(draw(st.booleans()) or w == 0) for w in range(worlds)]
        target = []
        for _ in range(draw(st.integers(1, 3))):
            w = draw(st.integers(1, worlds))
            if obs[w - 1] and draw(st.booleans()):
                v = draw(st.sampled_from(sorted(obs[w - 1])))
                s = obs[w - 1][v] if draw(st.booleans()) else draw(st.integers(0, card - 1))
            else:
                v, s = draw(st.sampled_from(internals)), draw(st.integers(0, card - 1))
            target.append((w, v, s))
        q = CounterfactualQuery(
            world_count=worlds,
            shared_roots=frozenset(shared),
            observations=tuple(Evidence(o) for o in obs),
            interventions=(Evidence({}),) + tuple(Evidence(evidence(False)) for _ in range(worlds - 1)),
            target=tuple(target),
            mode=draw(st.sampled_from(("conditional", "joint"))),
        )
        return scm, q

    @settings(max_examples=150, deadline=None)
    @given(overlapping_queries())
    def test_one_pass_reuse_matches_two_full_passes_bit_for_bit(case):
        # the P(e) pass reuses what no free target touches; every answer,
        # and every error, must equal that of two full passes exactly
        import sys
        from unittest import mock

        import ctwin.inference as inf

        scm, q = case
        for engine in ("ve", "jointree", "jointree-thinned"):
            try:
                with mock.patch.object(inf, "multiply", _bounded(multiply)):
                    got = _hex_outcome(scm, q, engine)
                with mock.patch.object(sys.modules[__name__], "_reference_multiply",
                                       _bounded(_reference_multiply)):
                    want = reference_two_pass(scm, q, engine)
            except _Oversized:  # both sides build the same products, so neither can answer
                continue
            assert got == want, engine
except ImportError:  # hypothesis is an optional test dependency
    pass


def test_evidence_pass_recomputes_only_what_a_free_target_touches(monkeypatch):
    import ctwin.inference as inf

    calls = {"multiply": 0, "sum_out": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(inf, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(inf, name, counted)

    def count(q, engine):
        # on a fresh Scm, so that no stored message is reused; compiling
        # the layout calls neither multiply nor sum_out
        calls.update(multiply=0, sum_out=0)
        counterfactual(_rebuilt(scm), q, engine)
        return dict(calls)

    scm = random_scm(5, n=8, param=2)
    q = _twin_query(scm)  # its target is free: not observed in world 2
    (_, last, state), = q.target
    seen = Evidence({**q.observations[1].assignments, last: state})
    observed = CounterfactualQuery(2, q.shared_roots, (q.observations[0], seen), q.interventions,
                                   q.target, q.mode)
    conflicting = CounterfactualQuery(2, q.shared_roots, (q.observations[0], seen), q.interventions,
                                      ((2, last, 1 - state),), q.mode)
    for engine in ("ve", "jointree", "jointree-thinned"):
        one_pass = count(conflicting, engine)  # only P(e), with e = the other queries' (t, e)
        assert one_pass["multiply"] > 0, engine
        # every target observed in its own state: the P(e) pass is the P(t,e) pass
        assert count(observed, engine) == one_pass, engine
        both = count(q, engine)
        assert 0 < both["multiply"] - one_pass["multiply"] < one_pass["multiply"], (engine, both, one_pass)


# ---------------------------------------------------------------- stored messages

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def query_stream(draw):
        """A random rSCM or rSCM2 network and a stream of queries on it,
        mostly twin queries, so that the stored messages are filled and
        reused, and some N-world ones. Each query draws its own evidence,
        interventions, targets and mode; some fail: a state out of range,
        an unknown variable, conflicting observations of a shared root, or
        evidence of probability zero."""
        from ctwin.randgen import Rng, gen_rscm, gen_rscm2

        gen = draw(st.sampled_from((gen_rscm, gen_rscm2)))
        card = draw(st.sampled_from((2, 3)))
        scm = gen(draw(st.integers(4, 9)), 2, Rng(draw(st.integers(0, 10**6))), cardinality=card)
        roots, internals = scm.dag.roots(), scm.dag.internals() or scm.dag.roots()
        queries = []
        for _ in range(draw(st.integers(3, 8))):
            twin = draw(st.integers(0, 3)) > 0
            worlds = 2 if twin else draw(st.integers(1, 3))
            shared = roots if twin else [r for r in roots if draw(st.booleans())]
            run = {r: draw(st.integers(0, card - 1)) for r in roots}
            for v in scm.dag.topological_order():
                if v not in run:
                    run[v] = scm.child_state(v, run)

            def evidence(simulated, most=2):
                chosen = draw(st.lists(st.sampled_from(internals), max_size=most, unique=True))
                return {v: run[v] if simulated else draw(st.integers(0, card - 1)) for v in chosen}

            obs = [evidence(draw(st.booleans()), 3)] + [evidence(False) if draw(st.booleans()) else {}
                                                        for _ in range(worlds - 1)]
            dos = [{}] + [evidence(False) for _ in range(worlds - 1)]
            target = [(w, v, s) for w in range(1, worlds + 1) for v, s in evidence(False, 1).items()]
            target = target or [(worlds, internals[-1], 0)]
            fault = draw(st.sampled_from((None,) * 6 + ("state", "do-state", "unknown", "conflict")))
            if fault == "state":
                obs[0][internals[0]] = card
            elif fault == "do-state":
                dos[-1][internals[0]] = card
            elif fault == "unknown":
                target.append((1, "nope", 0))
            elif fault == "conflict" and worlds > 1 and shared:
                obs[0][shared[0]], obs[1][shared[0]] = 0, 1
            queries.append(CounterfactualQuery(
                world_count=worlds,
                shared_roots=frozenset(shared),
                observations=tuple(Evidence(o) for o in obs),
                interventions=tuple(Evidence(d) for d in dos),
                target=tuple(target),
                mode=draw(st.sampled_from(("conditional", "joint"))),
            ))
        return scm, queries

    @settings(max_examples=80, deadline=None)
    @given(query_stream())
    def test_query_stream_on_one_scm_matches_two_full_passes_bit_for_bit(stream):
        # the stored messages one query leaves must give every later query on
        # the same Scm the answer, or the error, of two full passes on a
        # fresh Scm, bit for bit
        import sys
        from unittest import mock

        import ctwin.inference as inf

        scm, queries = stream
        for q in queries:
            for engine in ("ve", "jointree", "jointree-thinned"):
                try:
                    with mock.patch.object(inf, "multiply", _bounded(multiply)):
                        got = _hex_outcome(scm, q, engine)
                    with mock.patch.object(sys.modules[__name__], "_reference_multiply",
                                           _bounded(_reference_multiply)):
                        want = reference_two_pass(_rebuilt(scm), q, engine)
                except _Oversized:  # both sides build the same products, so neither can answer
                    continue
                assert got == want, (engine, q)
except ImportError:  # hypothesis is an optional test dependency
    pass


def test_repeated_twin_query_recomputes_only_touched_nodes(monkeypatch):
    import ctwin.inference as inf

    calls = {"multiply": 0}

    def counted(*args, _fn=inf.multiply):
        calls["multiply"] += 1
        return _fn(*args)

    monkeypatch.setattr(inf, "multiply", counted)

    def count(engine):
        calls["multiply"] = 0
        counterfactual(scm, q, engine)
        return calls["multiply"]

    scm = random_scm(5, n=8, param=2)
    twin = _twin_query(scm)
    (world, last, state), = twin.target
    # the target is observed in its own state, so every multiply is in the P(t,e) pass
    q = CounterfactualQuery(2, twin.shared_roots, (twin.observations[0], Evidence({last: state})),
                            twin.interventions, twin.target, twin.mode)
    _, wmap, obs, tgt = build_query_network(scm, q)
    inputs = obs.assignments.keys() | tgt.assignments.keys()
    cut = {wmap.lookup(v, w) for w, ev in enumerate(q.interventions, start=1) for v in ev.assignments}
    layout = scm._compiled[(2, q.shared_roots)]
    parents = layout.net.dag.parents
    # ve: a bucket is touched when it is the base bucket (that of the earliest
    # variable) of a family that mentions an input or is cut, or an ancestor
    # of one in the bucket tree, where a bucket's parent is the earliest
    # member of its cluster left when its variable goes
    seq = layout.order.sequence
    pos = {v: i for i, v in enumerate(seq)}
    rest = _replay(_family_adjacency(seq, parents))
    touched_buckets = set()
    for v in layout.net.dag.nodes:
        if v in cut or not inputs.isdisjoint((v,) + parents[v]):
            i = min(pos[x] for x in (v,) + parents[v])
            while i >= 0 and i not in touched_buckets:
                touched_buckets.add(i)
                i = (rest[i] & -rest[i]).bit_length() - 1
    # each bucket's operands, on the scopes the query's factors have
    pool = [frozenset((v,) if v in cut else (v,) + parents[v]) - inputs for v in layout.net.dag.nodes]
    every = touched = 0
    for i, x in enumerate(seq):
        bucket = [scope for scope in pool if x in scope]
        pool = [scope for scope in pool if x not in scope]
        if bucket:
            every += len(bucket) - 1
            touched += len(bucket) - 1 if i in touched_buckets else 0
            pool.append(frozenset().union(*bucket) - {x})
    first, second = count("ve"), count("ve")
    assert first == every
    assert second == touched
    assert second < first, (first, second)
    for engine in ("jointree", "jointree-thinned"):
        first, second = count(engine), count(engine)
        sched = layout.plans[engine]
        parents = layout.net.dag.parents
        touched = {leaf for child, leaves in sched.hosts.items() for leaf in leaves
                   if child in cut or not inputs.isdisjoint((child,) + parents[child])}
        for v, _, children, _ in sched.steps:
            if touched.intersection(children):
                touched.add(v)
        assert first == sum(len(children) - 1 for _, _, children, _ in sched.steps if children), engine
        assert second == sum(len(children) - 1 for v, _, children, _ in sched.steps
                             if children and v in touched), engine
        assert second < first, (engine, first, second)


def test_nworld_queries_store_no_bucket_result(monkeypatch):
    # the twin layout keeps its bucket tree and its clean results; an
    # N-world query, whether its roots are shared in part or its worlds
    # number three, builds its own layout and tree, and the Scm keeps neither
    import ctwin.inference as inf

    trees = []

    class Recorded(inf._Buckets):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trees.append(self)

    monkeypatch.setattr(inf, "_Buckets", Recorded)
    scm = random_scm(5, n=8, param=2)
    twin = _twin_query(scm)
    roots = scm.dag.roots()
    part = CounterfactualQuery(2, frozenset(roots[1:]), twin.observations, twin.interventions,
                               twin.target, twin.mode)
    three = CounterfactualQuery(3, twin.shared_roots, twin.observations + (Evidence({}),),
                                twin.interventions + (Evidence({}),), twin.target, twin.mode)
    for q in (twin, part, three, twin, part, three):
        counterfactual(scm, q, "ve")
    layout = scm._compiled[(2, twin.shared_roots)]
    assert trees[0] is layout.plans["ve"] and layout.plans["ve"].results
    assert len(trees) == 5
    for q in (part, three):
        assert (q.world_count, q.shared_roots) not in scm._compiled
    assert scm._compiled.keys() == {(2, twin.shared_roots)}


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(("rNET", "rNET2", "rSCM", "rSCM2")), st.integers(2, 10), st.integers(1, 3),
           st.integers(0, 10**6), st.sampled_from((1, 2, 3)), st.data())
    def test_nworld_jointree_plans_match_those_of_the_mutilated_network(gen, n, param, seed, worlds, data):
        # an N-world jointree plan is built on the network's parents with the
        # cut families emptied; it must equal, node for node, the plan built
        # from a whole mutilated copy of the network, and the layout keeps neither
        import ctwin.inference as inf
        from ctwin import mutilate
        from ctwin.randgen import GENERATORS, Rng, parameterize
        from ctwin.thinning import Structures
        from ctwin.worlds import _point_masses

        scm = parameterize(GENERATORS[gen](n, param, Rng(seed)), Rng(seed + 1))
        roots = scm.dag.roots()
        shared = roots if data.draw(st.booleans()) else [r for r in roots if data.draw(st.booleans())]
        if worlds == 2 and len(shared) == len(roots):  # all roots shared in two worlds is the twin layout
            shared = shared[1:]

        def intervention():
            chosen = data.draw(st.lists(st.sampled_from(scm.dag.nodes), max_size=3, unique=True))
            return Evidence({v: data.draw(st.integers(0, 1)) for v in chosen})

        q = CounterfactualQuery(worlds, frozenset(shared), (Evidence({}),) * worlds,
                                tuple(intervention() for _ in range(worlds)), ())
        fixed = {(v, s) for ev in q.interventions for v, s in ev.items() if v in shared}
        if len(fixed) > len({v for v, _ in fixed}):  # a shared root fixed to two states
            with pytest.raises(ModelError, match="conflicting interventions"):
                inf._query_network(scm, q)
            return
        layout, do, _, _ = inf._query_network(scm, q)
        for engine in ("jointree", "jointree-thinned"):
            plan = layout.plan(engine, _point_masses(layout.net, do))
            s = Structures(mutilate(layout.net, do).dag, layout.order)
            want = inf._schedule(s.separators if engine == "jointree" else s.thinned, engine)
            assert (plan.hosts, plan.steps) == (want.hosts, want.steps), engine
        assert not layout.twin and not layout.plans
except ImportError:  # hypothesis is an optional test dependency
    pass
