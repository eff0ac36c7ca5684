"""Tests of the benchmark harness itself: self-time arithmetic, tracer
rebinding in every ctwin namespace, input identity per seed, and which op
errors make a run incorrect."""

import json
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ctwin  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 100] with children 1: [10, 30], 2: [35, 50], 3: [60, 70];
    # 4: [40, 48] is a grandchild under 2.
    start = [0, 10, 35, 60, 40]
    end = [100, 30, 50, 70, 48]
    parent = [-1, 0, 0, 0, 2]
    assert tracer.span_self_ns(start, end, parent) == [100 - 20 - 15 - 10, 20, 15 - 8, 10, 8]


def test_self_time_clips_children_to_the_parent_interval():
    assert tracer.span_self_ns([0, 5], [10, 15], [-1, 0]) == [5, 10]


def _bindings(fn):
    return {(name, attr) for name, mod in sys.modules.items()
            if mod is not None and (name == "ctwin" or name.startswith("ctwin."))
            for attr, value in vars(mod).items() if value is fn}


def test_patch_rebinds_every_namespace_and_restores_them():
    original = ctwin.elimination.minfill_order
    held = _bindings(original)
    # imported by name into these modules, so all of them must be rebound
    for where in ("ctwin", "ctwin.elimination", "ctwin.inference", "ctwin.bench"):
        assert (where, "minfill_order") in held
    with tracer.Patch(tracer.Tracer(), layers.TARGETS):
        assert not _bindings(original)
        wrapped = ctwin.inference.minfill_order
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert _bindings(wrapped) == held
    assert _bindings(original) == held


def test_traced_op_self_times_add_up_to_the_op():
    op = next(iter(workloads.twin_queries(3).ops))
    t = tracer.Tracer()
    with tracer.Patch(t, layers.TARGETS):
        root = t.open("op")
        op.call()
        t.close(root)
    calls = t.calls()
    assert calls["elimination.minfill_order"] >= 1
    assert calls["inference.multiply"] > 0
    assert t.counts["inference.peak_factor_entries"] > 0
    assert sum(t.self_ns().values()) == t.end[root] - t.start[root]


def test_same_seed_gives_the_same_inputs():
    for name in workloads.GENERATORS:
        first = run.fingerprint(workloads.GENERATORS[name](7))
        assert first == run.fingerprint(workloads.GENERATORS[name](7)), name
        assert first != run.fingerprint(workloads.GENERATORS[name](8)), name


def test_generated_evidence_is_possible():
    # observations come from a realised world, so the evidence never has
    # probability zero and every conditional query is defined
    for op in islice(workloads.nworld_queries(11).ops, 4):
        result = op.call()
        assert result.evidence_probability > 0


def _raises(exc):
    def call():
        raise exc

    return call


def test_an_op_that_raises_makes_the_run_incorrect():
    ops = list(islice(workloads.nworld_queries(5).ops, 3))
    ops[1] = replace(ops[1], call=_raises(ValueError("broken")))
    records = [run.run_one(op) for op in ops]
    failures, _ = run.check("nworld-queries", 5, records)
    assert len(failures) == 1 and "ValueError: broken" in failures[0]


def test_memory_errors_are_failed_ops_only_where_they_are_the_known_defect():
    op = next(iter(workloads.thinned_queries(5).ops))
    oom = run.run_one(replace(op, call=_raises(MemoryError("capped"))))
    assert oom.error.startswith("MemoryError:")
    assert run.check("thinned-queries", 5, [oom])[0] == []
    nworld_op = next(iter(workloads.nworld_queries(5).ops))
    assert run.check("nworld-queries", 5, [replace(oom, op=nworld_op)])[0]


def test_spans_file_holds_every_span(tmp_path):
    t = tracer.Tracer()
    outer = t.open("op")
    t.close(t.open("elimination.minfill_order"))
    t.close(outer)
    t.write(tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["names"] == ["op", "elimination.minfill_order"]
    assert spans["name"] == [0, 1] and spans["parent"] == [-1, 0]
    assert spans["start_ns"] == list(t.start) and spans["end_ns"] == list(t.end)
