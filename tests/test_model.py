import json

import numpy as np
import pytest

from ctwin import Dag, Evidence, Factor, ModelError, Variable, load_network, save_network, scm_factors
from ctwin.model import network_from_dict, network_to_dict

from conftest import assert_round_trips, half_adder


def test_dag_rejects_cycles():
    with pytest.raises(ModelError):
        Dag.of(["a", "b"], {"a": ("b",), "b": ("a",)})


def test_dag_rejects_self_loop_and_unknown_parent():
    with pytest.raises(ModelError):
        Dag.of(["a"], {"a": ("a",)})
    with pytest.raises(ModelError):
        Dag.of(["a"], {"a": ("ghost",)})


def test_dag_accessors():
    dag = Dag.of(["a", "b", "c"], {"c": ("a", "b")})
    assert dag.roots() == ("a", "b")
    assert dag.internals() == ("c",)
    assert dag.children_of("a") == ("c",)
    assert set(dag.edges()) == {("a", "c"), ("b", "c")}
    topo = dag.topological_order()
    assert topo.index("a") < topo.index("c")


def test_validate_clean_model(adder):
    assert_round_trips(adder)


def test_validate_flags_bad_distribution(adder):
    broken = adder.root_tables | {"X": (0.5, 0.6)}
    bad = type(adder)(adder.dag, adder.variables, broken, adder.internal_cpts)
    with pytest.raises(ModelError, match="X"):
        assert_round_trips(bad)


def test_scm_child_state(adder):
    assert adder.child_state("S", {"A": 1, "B": 0, "X": 1}) == 1
    assert adder.child_state("S", {"A": 1, "B": 0, "X": 0}) == 0
    assert adder.child_state("C", {"A": 1, "B": 1, "Y": 1}) == 1


def test_scm_factors_are_indicators(adder):
    factors = {f.scope[-1]: f for f in scm_factors(adder)}
    s = factors["S"]
    assert s.scope == ("A", "B", "X", "S")
    assert set(np.unique(s.values)) <= {0.0, 1.0}
    # every parent instantiation maps to exactly one child state
    assert np.all(s.values.sum(axis=-1) == 1.0)
    assert factors["U"].values.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_network_round_trip(tmp_path, adder):
    p = tmp_path / "net.json"
    save_network(adder, p)
    back = load_network(p)
    assert back.dag == adder.dag
    assert back.root_tables == adder.root_tables
    assert back.internal_cpts == adder.internal_cpts


def test_load_rejects_nondeterministic_cpt(tmp_path):
    doc = {
        "variables": [
            {"id": "a", "states": ["0", "1"], "dist": [0.5, 0.5]},
            {"id": "b", "states": ["0", "1"], "parents": ["a"], "cpt": [0.3, 1]},
        ]
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="b"):
        load_network(p)


def test_load_rejects_missing_dist(tmp_path):
    doc = {"variables": [{"id": "a", "states": ["0", "1"]}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_network(p)


def test_round_trip_via_dict(adder):
    again = network_from_dict(network_to_dict(adder))
    assert again.dag == adder.dag


def test_factor_of_shapes():
    f = Factor.of(("a", "b"), {"a": 2, "b": 3}, [1, 2, 3, 4, 5, 6])
    assert f.values.shape == (2, 3)
    assert f.values[1, 0] == 4


def test_evidence_is_copied():
    src = {"a": 1}
    e = Evidence(src)
    src["a"] = 0
    assert e.assignments["a"] == 1
