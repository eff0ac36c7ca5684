import pytest

from ctwin import Dag, Evidence, ModelError, generalized_n_world, moral_graph, mutilate, n_world_network, twin_network
from ctwin.worlds import twin_name, world_name

from conftest import assert_round_trips, half_adder, random_scm


def test_moral_graph_marries_parents(adder):
    g = moral_graph(adder.dag)
    assert "B" in g.adjacency["A"]  # co-parents of S
    assert "X" in g.adjacency["A"]
    assert "Y" not in g.adjacency["X"]  # no shared child


def test_twin_network_shape(adder):
    tnet, wmap = twin_network(adder)
    assert_round_trips(tnet)
    assert set(tnet.dag.nodes) == set(adder.dag.nodes) | {"A'", "B'", "S'", "C'"}
    assert tnet.dag.parents["S'"] == ("A'", "B'", "X")
    assert tnet.internal_cpts["S'"] == adder.internal_cpts["S"]
    assert wmap.lookup("S", 2) == "S'"
    assert wmap.lookup("S", 1) == "S"
    assert wmap.lookup("U", 2) == "U"


def test_twin_shares_all_roots(adder):
    tnet, _ = twin_network(adder)
    assert set(tnet.dag.roots()) == {"U", "X", "Y"}


def test_n_world_network_shares_subset(adder):
    net, wmap = n_world_network(adder, ["X", "Y"], 3)
    assert_round_trips(net)
    # U is a root outside R, so it gets duplicated too
    assert world_name("U", 2) in net.dag.nodes
    assert wmap.lookup("U", 3) == "U__3"
    assert net.dag.parents["S__2"] == ("A__2", "B__2", "X")
    assert len(net.dag.nodes) == 2 + 3 * 5


def test_n_world_rejects_non_roots(adder):
    with pytest.raises(ModelError):
        n_world_network(adder, ["S"], 2)


def test_n_world_one_world_is_base(adder):
    net, _ = n_world_network(adder, adder.dag.roots(), 1)
    assert net.dag == adder.dag


def test_world_map_range_check(adder):
    _, wmap = n_world_network(adder, ["X"], 2)
    with pytest.raises(ModelError):
        wmap.lookup("A", 3)


def test_generalized_n_world_cross_edges():
    dag = Dag.of(["a", "b"], {"b": ("a",)})
    g = generalized_n_world(dag, ["b"], 3, cross_edges=[("b", 1, 3)])
    assert set(g.nodes) == {"a", "b", "b__2", "b__3"}
    assert "b" in g.parents["b__3"]
    with pytest.raises(ModelError):
        generalized_n_world(dag, ["b"], 3, cross_edges=[("b", 3, 1)])
    with pytest.raises(ModelError):
        generalized_n_world(dag, ["b"], 2, cross_edges=[("a", 1, 2)])


def test_mutilate_cuts_edges(adder):
    cut = mutilate(adder, Evidence({"A": 1, "B": 0}))
    assert cut.dag.parents["A"] == ()
    assert cut.root_tables["A"] == (0.0, 1.0)
    assert cut.root_tables["B"] == (1.0, 0.0)
    assert cut.dag.parents["S"] == ("A", "B", "X")  # untouched
    assert_round_trips(cut)


def test_mutilate_rejects_bad_state(adder):
    with pytest.raises(ModelError):
        mutilate(adder, Evidence({"A": 7}))


def test_twin_name_convention():
    assert twin_name("S") == "S'"
    assert world_name("S", 1) == "S"
    assert world_name("S", 4) == "S__4"


def test_twin_of_random_scm_validates():
    for seed in range(5):
        scm = random_scm(seed, n=7)
        tnet, _ = twin_network(scm)
        assert_round_trips(tnet)
