import csv
import json
from collections import Counter

import pytest

from ctwin import exact_treewidth, moral_graph, save_network
from ctwin.bench import (
    METHODS,
    SuiteConfig,
    _cell_seed,
    _connected_dags,
    _treewidth_two_dags,
    audit_instance,
    generate_dag,
    instance_widths,
    run_bound_audit,
    run_suite,
)
from ctwin.cli import main
from ctwin.randgen import Rng
from ctwin.worlds import twin_dag

from conftest import half_adder


def small_cfg(**kw):
    base = dict(
        generator="rSCM", n_values=(8,), param_values=(2, 3), reps=3, seed=0
    )
    base.update(kw)
    return SuiteConfig(**base)


def test_cell_seed_distinct():
    seeds = {_cell_seed(0, n, p, r) for n in (10, 20) for p in (2, 3) for r in range(10)}
    assert len(seeds) == 40


def test_instance_widths_all_methods():
    dag = generate_dag("rSCM", 10, 3, 5)
    widths = instance_widths(dag, chain_bound=10)
    assert set(widths) == set(METHODS)
    for wd, nwd in widths.values():
        assert wd >= 0 and nwd > 0
    assert widths["twin_alg1"][0] <= 2 * widths["base_mf"][0] + 1
    assert widths["twin_thm3"][0] <= 2 * widths["base_mf_rls"][0] + 1


def test_twin_dag_structure():
    dag = generate_dag("rNET", 8, 2, 1)
    tdag = twin_dag(dag)
    roots = set(dag.roots())
    assert len(tdag.nodes) == 2 * len(dag.nodes) - len(roots)
    for v in dag.nodes:
        if v not in roots:
            assert v + "'" in tdag.nodes


def test_suite_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    rows = run_suite(small_cfg(), out)
    assert len(rows) == 2 * 3
    with open(out, newline="") as fh:
        records = list(csv.DictReader(fh))
    seed_rows = [r for r in records if r["row_type"] == "seed"]
    stat_rows = [r for r in records if r["row_type"] in ("mean", "std")]
    assert len(seed_rows) == 6
    assert len(stat_rows) == 4  # mean + std per cell
    for r in seed_rows:
        for m in METHODS:
            assert int(r[f"{m}_wd"]) >= 0
            float(r[f"{m}_nwd"])
    assert "elapsed_ms" not in records[0]


def test_suite_worker_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_suite(small_cfg(workers=1), a)
    run_suite(small_cfg(workers=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_suite_timings_opt_in(tmp_path):
    out = tmp_path / "t.csv"
    run_suite(small_cfg(timings=True), out)
    with open(out, newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header[-1] == "elapsed_ms"


def test_audit_clean_on_sample():
    report = run_bound_audit(instances=30, seed=0)
    assert report["violations"] == []


def test_audit_instance_clean():
    for k in range(5):
        dag = generate_dag("rSCM2", 12, 3, 100 + k)
        assert audit_instance(dag, 10, Rng(k)) == []


# -------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_cli_gen_deterministic(capsys):
    rc1, out1 = run_cli(capsys, "gen", "--n", "8", "--param", "2", "--seed", "5")
    rc2, out2 = run_cli(capsys, "gen", "--n", "8", "--param", "2", "--seed", "5")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert "variables" in doc


def test_cli_pipeline(tmp_path, capsys):
    net = tmp_path / "net.json"
    save_network(half_adder(), net)
    for cmd in (
        ["twin", "--net", str(net)],
        ["nworld", "--net", str(net), "--worlds", "3", "--shared", "X,Y"],
        ["mutilate", "--net", str(net), "--do", "A=1"],
        ["order", "--net", str(net), "--lift", "twin"],
        ["jointree", "--net", str(net)],
        ["twin-jointree", "--net", str(net)],
        ["thin", "--net", str(net), "--twin"],
        ["treewidth", "--net", str(net), "--exact"],
    ):
        rc, out = run_cli(capsys, *cmd)
        assert rc == 0, cmd
        json.loads(out)


def test_cli_infer_matches_frozen_values(tmp_path, capsys):
    net = tmp_path / "net.json"
    save_network(half_adder(), net)
    query = tmp_path / "q.json"
    query.write_text(json.dumps({
        "worlds": 2,
        "shared_roots": "all",
        "observations": [{"A": 1, "B": 0, "C": 0, "S": 0}, {}],
        "interventions": [{}, {"A": 1, "B": 1}],
        "target": [[2, "C", 1], [2, "S", 0]],
        "mode": "conditional",
    }))
    for engine in ("ve", "jointree", "jointree-thinned", "oracle"):
        rc, out = run_cli(capsys, "infer", "--net", str(net), "--query", str(query),
                          "--engine", engine)
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.9)
        assert doc["evidence_probability"] == pytest.approx(0.025)


def test_cli_infer_zero_evidence_exit_code(tmp_path, capsys):
    net = tmp_path / "net.json"
    save_network(half_adder(), net)
    query = tmp_path / "q.json"
    query.write_text(json.dumps({
        "worlds": 1,
        "observations": [{"A": 0, "B": 0, "S": 1}],
        "target": [[1, "C", 0]],
    }))
    rc, _ = run_cli(capsys, "infer", "--net", str(net), "--query", str(query))
    assert rc == 1


def test_cli_bench_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out, workers in ((a, "1"), (b, "2")):
        rc, _ = run_cli(capsys, "bench", "--generator", "rNET", "--n", "8",
                        "--param", "2", "--reps", "3", "--workers", workers,
                        "--out", str(out))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_audit_exit_zero(capsys):
    rc, out = run_cli(capsys, "audit", "--instances", "10")
    assert rc == 0
    assert json.loads(out)["violations"] == []


def test_cli_audit_tightness_seven(capsys):
    # at n=7 twins have up to 13 nodes, above exact_treewidth's default limit
    rc = main(["audit", "--instances", "1", "--tightness", "7"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "error:" not in captured.out + captured.err
    tightness = json.loads(captured.out)["tightness"]
    assert tightness["treewidth"] is None
    assert tightness["order_width"] is not None


def test_treewidth_search_sees_every_base_treewidth_two_dag():
    # the parent cap and prefix pruning behind find_treewidth_tightness
    # drop no connected fixed-order DAG of base treewidth 2
    pruned = [parents for parents, _ in _treewidth_two_dags(6)]
    unpruned = []
    for dag in _connected_dags(6):
        if exact_treewidth(moral_graph(dag)) == 2:
            index = {v: i for i, v in enumerate(dag.nodes)}
            unpruned.append(tuple(tuple(index[p] for p in dag.parents[v]) for v in dag.nodes))
    assert Counter(len(p) for p in pruned) == {3: 2, 4: 24, 5: 328, 6: 5644}
    assert len(pruned) == 5998
    assert sorted(pruned) == sorted(unpruned)


def test_cli_bad_input_exit_one(tmp_path, capsys):
    rc, _ = run_cli(capsys, "jointree", "--net", str(tmp_path / "missing.json"))
    assert rc == 1
    rc, _ = run_cli(capsys, "mutilate", "--net", str(tmp_path / "missing.json"),
                    "--do", "not-an-assignment")
    assert rc == 1


# A flag no subcommand reads is not accepted: --format nowhere, --workers
# only on bench, --seed only on gen, bench and audit.
REMOVED_FLAGS = {
    "twin-format": ["twin", "--net", "net.json", "--format", "json"],
    "infer-workers": ["infer", "--net", "net.json", "--query", "q.json", "--workers", "2"],
    "jointree-seed": ["jointree", "--net", "net.json", "--seed", "3"],
    "bench-format": ["bench", "--generator", "rNET", "--n", "6", "--param", "2", "--format", "csv"],
    "gen-workers": ["gen", "--n", "6", "--param", "2", "--workers", "2"],
}


@pytest.mark.parametrize("argv", REMOVED_FLAGS.values(), ids=REMOVED_FLAGS)
def test_cli_removed_flag_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments" in err
    assert "Traceback" not in err


def test_cli_seed_and_workers_where_read(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["gen", "--n", "6", "--param", "2", "--seed", "3", "--out", out]) == 0
    assert main(["audit", "--instances", "2", "--seed", "4", "--out", out]) == 0
    assert main(["bench", "--generator", "rNET", "--n", "6", "--param", "2", "--reps", "1",
                 "--seed", "5", "--workers", "1", "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_cli_bool_cpt_entry_exit_one(tmp_path, capsys):
    net = {"variables": [
        {"id": "A", "states": ["s0", "s1"], "parents": [], "dist": [0.5, 0.5]},
        {"id": "B", "states": ["s0", "s1"], "parents": ["A"], "cpt": [True, 0]},
    ]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    rc = main(["jointree", "--net", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: B: cpt entry True")


def test_cli_bool_root_dist_exit_one(tmp_path, capsys):
    net = {"variables": [
        {"id": "A", "states": ["s0", "s1"], "parents": [], "dist": [True, False]},
        {"id": "B", "states": ["s0", "s1"], "parents": ["A"], "cpt": [1, 0]},
    ]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    rc = main(["jointree", "--net", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: A: dist must be an array of numbers")


_ROOT = {"id": "A", "states": ["s0", "s1"], "parents": [], "dist": [0.5, 0.5]}
_CHILD = {"id": "B", "states": ["s0", "s1"], "parents": ["A"], "cpt": [1, 0]}


@pytest.mark.parametrize("net, message", [
    pytest.param({"variables": 5}, "top-level object with 'variables' array required", id="variables-int"),
    pytest.param({"variables": [_ROOT, dict(_CHILD, cpt=5)]}, "B: cpt must be an array", id="cpt-int"),
    pytest.param({"variables": [_ROOT, dict(_CHILD, cpt=None)]}, "B: cpt must be an array", id="cpt-null"),
    pytest.param({"variables": [_ROOT, dict(_CHILD, parents=[["A"]])]}, "B: 'parents' must be an array of ids",
                 id="parents-nested"),
    pytest.param({"variables": [dict(_ROOT, functional="no"), _CHILD]}, "A: 'functional' must be true or false",
                 id="functional-str-root"),
    pytest.param({"variables": [_ROOT, dict(_CHILD, functional="false")]}, "B: 'functional' must be true or false",
                 id="functional-str-internal"),
    pytest.param({"variables": [dict(_ROOT, dist=[float("nan"), 1.0]), _CHILD]}, "A: dist has a non-finite entry",
                 id="dist-nan"),
])
def test_cli_malformed_network_exit_one(tmp_path, capsys, net, message):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    rc = main(["jointree", "--net", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines


VALID_QUERY = {"worlds": 2, "observations": [{"v1": 0}, {}], "interventions": [{}, {"v0": 1}],
               "target": [[2, "v5", 1]]}


@pytest.mark.parametrize("query, message", [
    pytest.param(dict(VALID_QUERY, target=5), "target must be an array of [world, variable, state] triples", id="target-int"),
    pytest.param([1], "top-level object required", id="top-level-array"),
    pytest.param(dict(VALID_QUERY, observations=[{"v1": "a"}, {}]), "state of v1 'a' is not an integer", id="state-str"),
    pytest.param(dict(VALID_QUERY, observations=[{"v1": 0.5}, {}]), "state of v1 0.5 is not an integer", id="state-float"),
    pytest.param(dict(VALID_QUERY, observations=[{"v1": True}, {}]), "state of v1 True is not an integer", id="state-bool"),
    pytest.param(dict(VALID_QUERY, target=[[2, "v5", 1.5]]), "target state 1.5 is not an integer", id="target-state-float"),
    pytest.param(dict(VALID_QUERY, target=[[True, "v5", 1]]), "target world True is not an integer", id="target-world-bool"),
    pytest.param(dict(VALID_QUERY, target=[[2, "v5"]]), "target must be an array of [world, variable, state] triples", id="target-pair"),
    pytest.param(dict(VALID_QUERY, worlds="2"), "worlds '2' is not an integer", id="worlds-str"),
    pytest.param(dict(VALID_QUERY, shared_roots=5), 'shared_roots must be "all" or an array of ids', id="shared-roots-int"),
    pytest.param(dict(VALID_QUERY, interventions={"v0": 1}), "interventions must be an array of objects", id="interventions-object"),
])
def test_cli_infer_malformed_query_exit_one(tmp_path, capsys, query, message):
    net = tmp_path / "net.json"
    assert main(["gen", "--n", "6", "--param", "2", "--seed", "3", "--out", str(net)]) == 0
    path = tmp_path / "q.json"
    path.write_text(json.dumps(VALID_QUERY))
    assert main(["infer", "--net", str(net), "--query", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(query))
    rc = main(["infer", "--net", str(net), "--query", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: query: {message}"]


def test_cli_invariant_error_exit_two(tmp_path, capsys, monkeypatch):
    import ctwin.thinning
    from ctwin import InvariantError

    def broken(jt):
        raise InvariantError("separator check failed")

    # the CLI reads separators from a Structures, which owns the call
    monkeypatch.setattr(ctwin.thinning, "classical_separators", broken)
    path = tmp_path / "net.json"
    save_network(half_adder(), path)
    rc = main(["jointree", "--net", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == "invariant violated: separator check failed\n"


def _array_memory_error():
    """The MemoryError subclass numpy raises when an array cannot be allocated."""
    import numpy as np
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((2,) * 28, np.dtype(np.float64))


@pytest.mark.parametrize("error, line", [
    pytest.param(MemoryError, "error: out of memory", id="bare"),
    pytest.param(_array_memory_error, "error: out of memory: Unable to allocate 2.00 GiB for an array with shape "
                 f"({', '.join(['2'] * 28)}) and data type float64", id="numpy"),
])
def test_cli_memory_error_exit_one(tmp_path, capsys, monkeypatch, error, line):
    import ctwin.inference

    def oversized(a, b):
        raise error()

    # a factor too large for the process: one error line, no traceback
    monkeypatch.setattr(ctwin.inference, "multiply", oversized)
    net = tmp_path / "net.json"
    assert main(["gen", "--n", "6", "--param", "2", "--seed", "3", "--out", str(net)]) == 0
    path = tmp_path / "q.json"
    path.write_text(json.dumps(VALID_QUERY))
    capsys.readouterr()
    rc = main(["infer", "--net", str(net), "--query", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
