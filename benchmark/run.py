"""Run one benchmark workload against the ctwin sources of this checkout.

    python3 benchmark/run.py --workload twin-queries --seed 1 --seconds 20 --trace 0

The workload runs in this process as a closed loop: one client, one op
at a time, for ``--seconds`` of wall time. With ``--trace 0`` the last
line of stdout is the end-to-end result. With ``--trace 1`` every op
runs twice back to back, once untraced and once with every layer wrapped
in spans, and the last line holds the per-layer metrics and the tracing
overhead. The line before it is a full report: machine context, input
properties, failures, per-class breakdown and every metric by name. A
traced run also writes every span to ``.bench_build/spans-<workload>-<seed>.json``.

Exits with code 2, printing no result, when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("widths", "twin-queries", "nworld-queries", "thinned-queries")
QUERY_WORKLOADS = WORKLOADS[1:]
# Address-space cap for the query workloads' own process: well under the
# machine's memory and over three times the ~140 MB a query run maps
# without large factors, so an oversized factor raises MemoryError (a
# failed op) instead of pressuring the machine.
MEMORY_CAP_BYTES = 512 << 20
# An op that raises makes the run incorrect, except a MemoryError under
# the cap on `thinned-queries`: that is the engine's known oversized-factor
# defect, which must stay visible as failed ops.
KNOWN_ERRORS = {"thinned-queries": "MemoryError"}
SETUP_ROUNDS = 5
# peak_rss_mb is the median peak RSS of PEAK_RSS_PROCESSES fresh
# processes, each running the next PEAK_RSS_OPS[workload] ops of the stream
# (about half a second of work each), so it covers the same ops however far
# the timed loop got.
PEAK_RSS_PROCESSES = 5
PEAK_RSS_OPS = {"widths": 6, "twin-queries": 30, "nworld-queries": 50, "thinned-queries": 40}


@dataclass
class Record:
    op: object
    result: object
    error: str | None
    ns: int
    ref_ns: int  # the reference loop, run just before the op
    check_failed: bool = False
    span_range: tuple[int, int] | None = field(default=None, repr=False)


def reference_ns() -> int:
    """Time of a fixed piece of the benchmark's own work (dict, set and int
    churn, then small array products), about a millisecond on one core.

    The host's other tenants slow this machine by 20-50% for minutes at a
    time; each op's time divided by this loop's time, measured just before
    that op, stays within a few percent across runs. It uses nothing from ctwin,
    so no change to the program moves it. GC is off so garbage the op left
    is not collected on its clock."""
    import numpy as np

    a = np.arange(64.0).reshape(4, 4, 4)
    gc.disable()
    t0 = time.perf_counter_ns()
    d: dict[int, int] = {}
    s = 0
    for i in range(600):
        d[i % 97] = d.get(i % 97, 0) + (i ^ (i >> 3))
        s += len({i, i + 1, i * 2} & {i + 1, i * 3})
    for _ in range(25):
        s += (a * a.transpose(2, 0, 1)).sum(axis=1)[0, 0]
    ns = time.perf_counter_ns() - t0
    gc.enable()
    return ns


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields and fields[0] == "cpu" and len(fields) > 8 else None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing ctwin and the benchmark.
    No timeout: with one, the wait polls the child in sleeps of up to 50 ms
    and the time comes out in 50 ms steps."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import ctwin, workloads")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def code_sha256() -> str:
    """Digest of the ctwin sources and the benchmark's own code, which
    identifies the code that ran whether or not it is committed."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ops_rss_mb(name: str, seed: int, first: int, count: int) -> float:
    """Peak RSS of this process after running ops [first, first + count)
    of the workload's stream; errors are the timed loop's to count.

    It reads VmHWM, the peak of this program's own address space:
    ru_maxrss would also hold the peak of the parent, which Linux carries
    over into a child's ru_maxrss when the child starts a new program."""
    from itertools import islice

    import workloads

    for op in islice(workloads.GENERATORS[name](seed).ops, first, first + count):
        try:
            op.call()
        except Exception:
            pass
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak_rss_mb(name: str, seed: int) -> float:
    """Median peak RSS of fresh processes over consecutive fixed slices of
    the op stream. The processes inherit this one's memory cap."""
    count = PEAK_RSS_OPS[name]
    peaks = []
    for k in range(PEAK_RSS_PROCESSES):
        code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import run; "
                f"print(run.ops_rss_mb({name!r}, {seed}, {k * count}, {count}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        peaks.append(float(out.stdout.split()[-1]))
    return statistics.median(peaks)


def run_one(op, tracer=None) -> Record:
    ref_ns = reference_ns()
    first = len(tracer.start) if tracer else 0
    span = tracer.open("op") if tracer else None
    t0 = time.perf_counter_ns()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failed op is a measurement, not a crash
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        result, error = None, f"{kind}: {str(exc)[:160]}"
    ns = time.perf_counter_ns() - t0
    if tracer:
        tracer.close(span)
    return Record(op, result, error, ns, ref_ns,
                  span_range=(first, len(tracer.start)) if tracer else None)


def run_loop(ops, seconds: float) -> list[Record]:
    """Closed loop: each op starts only after the previous one returned,
    until ``seconds`` of wall time have passed."""
    records = []
    t_end = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= t_end:
            break
        records.append(run_one(op))
    return records


def run_traced(ops, seconds: float, tracer, targets) -> tuple[list[Record], list[Record]]:
    """Each op runs twice back to back, traced and untraced, so the tracing
    overhead is measured on the same inputs under the same machine load.
    Which of the two goes first alternates, so a second run's warmer
    caches favour neither. The wrappers are bound only around the traced
    call."""
    import tracer as tracing

    patch = tracing.Patch(tracer, targets)
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        if time.perf_counter() >= t_end:
            break
        if i % 2:
            untraced.append(run_one(op))
        with patch:
            traced.append(run_one(op, tracer))
        if not i % 2:
            untraced.append(run_one(op))
    return untraced, traced


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]


def latency(records, value) -> dict:
    """Percentiles of ``value(record)`` with failed ops ranked slower than
    every completed op (a failure misses any latency limit). A percentile
    that lands on a failure reads as the slowest value in the run."""
    slowest = max(value(r) for r in records)
    ranked = sorted((r.error is not None or r.check_failed, value(r)) for r in records)
    values = [slowest if failed else v for failed, v in ranked]
    return {
        "p50": percentile(values, 0.50),
        "p90": percentile(values, 0.90),
        "beyond_p90": len(values) - int(-(-0.90 * len(values) // 1)),
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "code_sha256": code_sha256(),
    }


def fingerprint(inputs, n: int = 6) -> str:
    """Text that changes if any input of the first n ops changes."""
    from itertools import islice

    parts = []
    for op in islice(inputs.ops, n):
        key = op.check_key
        if isinstance(key, int):  # widths: the DAG
            parts.append(repr(inputs.width_dags[key].parents))
        else:
            _, engine, scm, q = key
            parts.append(repr((engine, scm.dag.parents, scm.root_tables, scm.internal_cpts, q)))
    return "|".join(parts)


def setup(name: str, seed: int):
    """Imports, input generation and warm-up, repeated SETUP_ROUNDS times.
    Returns the inputs, the median round time and whether every round
    produced identical inputs."""
    import workloads

    times, prints, inputs = [], [], None
    for _ in range(SETUP_ROUNDS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = workloads.GENERATORS[name](seed)
        for op in workloads.warmup_ops(name, seed):
            op.call()
        times.append(t_import + time.perf_counter() - t0)
        prints.append(fingerprint(workloads.GENERATORS[name](seed)))
    return inputs, statistics.median(times), len(set(prints)) == 1


def check(name: str, seed: int, records) -> tuple[list[str], dict]:
    """Output checks, outside the timed loop and outside setup_s. Returns
    the failures and the width means the workload reports."""
    import workloads
    from ctwin import bench

    known = KNOWN_ERRORS.get(name)
    errors = [f"op {r.op.index} ({r.op.label}): {r.error}" for r in records
              if r.error is not None and not (known and r.error.startswith(known + ":"))]
    if name == "widths":
        by_dag, bad = {}, errors
        for r in records:
            if r.error is not None:
                continue
            prev = by_dag.setdefault(r.op.check_key, r.result)
            if prev != r.result:
                bad.append(f"op {r.op.index}: widths differ from an earlier op on the same DAG")
                r.check_failed = True
        for k, dag in enumerate(workloads.widths(seed).width_dags):
            if k not in by_dag:
                by_dag[k] = bench.instance_widths(dag, workloads.CHAIN_BOUND)
        violations = workloads.width_violations(by_dag)
        for r in records:
            r.check_failed |= r.op.check_key in violations
        return bad + list(violations.values()), workloads.width_means(by_dag)

    bad = errors + workloads.check_queries(records)
    sample = workloads.GENERATORS[name](seed).width_dags
    by_dag = {k: bench.instance_widths(d, workloads.CHAIN_BOUND) for k, d in enumerate(sample)}
    return bad + list(workloads.width_violations(by_dag).values()), workloads.width_means(by_dag)


def classes(records) -> dict:
    out = {}
    for label in sorted({r.op.label for r in records}):
        ns = sorted(r.ns for r in records if r.op.label == label)
        out[label] = {"ops": len(ns), "op_s.p50": percentile(ns, 0.5) / 1e9}
    return out


def end_to_end(records, setup_s: float, peak_rss: float, means: dict) -> tuple[dict, dict]:
    """Every end-to-end metric. Op times are given in seconds and, for the
    gated metrics, in units of the reference loop timed just before each
    op (unit ``ref``), which cancels the host's drift."""
    failed = sum(1 for r in records if r.error is not None or r.check_failed)
    completed = len(records) - failed
    busy_s = sum(r.ns for r in records) / 1e9
    busy_ref = sum(r.ns / r.ref_ns for r in records)
    lat_s = latency(records, lambda r: r.ns / 1e9)
    lat_ref = latency(records, lambda r: r.ns / r.ref_ns)
    return {
        "setup_s": (setup_s, "s"),
        "op_ref.p50": (lat_ref["p50"], "ref"),
        "op_ref.p90": (lat_ref["p90"], "ref"),
        "ops_per_kref": (1000 * completed / busy_ref, "ops/kref"),
        "peak_rss_mb": (peak_rss, "MB"),
        "width.twin_mf.mean": (means["twin_mf"], "width"),
        "width.base_mf_rls.mean": (means["base_mf_rls"], "width"),
        "width.twin_thm3.mean": (means["twin_thm3"], "width"),
        "op_s.p50": (lat_s["p50"], "s"),
        "op_s.p90": (lat_s["p90"], "s"),
        "ops_per_s": (completed / busy_s, "ops/s"),
        "failed_ratio": (failed / len(records), "failed/attempted"),
        "ref_s": (statistics.median(r.ref_ns for r in records) / 1e9, "s"),
    }, {"ops": len(records), "failed": failed, "busy_s": busy_s, "beyond_p90": lat_s["beyond_p90"]}


def per_layer(tracer, traced, untraced) -> dict:
    import layers

    n = len(traced)
    self_ns = tracer.self_ns()
    calls = tracer.calls()
    out = {}
    for metric, unit, (kind, key) in layers.METRICS:
        if kind == "self":
            value = self_ns.get(key, 0) / 1e9 / n
        elif kind == "calls":
            value = calls.get(key, 0) / n
        elif kind == "count":
            value = tracer.counts.get(key, 0) / n
        else:  # peak
            value = tracer.counts.get(key, 0)
        out[metric] = (value, unit)
    traced_busy = sum(r.ns for r in traced)
    untraced_busy = sum(r.ns for r in untraced)
    out["trace.overhead_ratio"] = (untraced_busy / traced_busy, "ratio")
    out["trace.op_s"] = (traced_busy / 1e9 / n, "s/op")
    out["trace.op.self_s"] = (self_ns.get("op", 0) / 1e9 / n, "s/op")
    return out


def layer_shares(tracer, traced) -> dict:
    """Self-time share of each span name over all ops ("all") and per op class."""
    per_span = tracer.self_ns_per_span()
    groups = {"all": traced}
    for r in traced:
        groups.setdefault(r.op.label, []).append(r)
    out = {}
    for label, group in groups.items():
        totals: dict[str, int] = {}
        for r in group:
            a, b = r.span_range
            for i in range(a, b):
                name = tracer.names[tracer.name_of[i]]
                totals[name] = totals.get(name, 0) + per_span[i]
        whole = sum(totals.values()) or 1
        out[label] = {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (SRC / "ctwin" / "__init__.py").is_file():
        print(f"error: ctwin sources not found under {SRC}", file=sys.stderr)
        return 2
    cap = None
    if a.workload in QUERY_WORKLOADS:
        cap = MEMORY_CAP_BYTES
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path[:0] = [str(SRC), str(HERE)]
    import ctwin

    if not Path(ctwin.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ctwin from {ctwin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import tracer as tracing
    import workloads

    inputs, setup_s, same_inputs = setup(a.workload, a.seed)
    steal0 = steal_ticks()
    t0 = time.perf_counter()
    traced = tr = None
    if a.trace:
        tr = tracing.Tracer()
        records, traced = run_traced(inputs.ops, a.seconds, tr, layers.TARGETS)
    else:
        records = run_loop(inputs.ops, a.seconds)
    wall = time.perf_counter() - t0
    steal1 = steal_ticks()
    loop_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, means = check(a.workload, a.seed, records + (traced or []))
    if not same_inputs:
        failures.append("setup rounds generated different inputs from the same seed")
    e2e, counts = end_to_end(records, setup_s, peak_rss_mb(a.workload, a.seed), means)
    e2e["loop_rss_mb"] = (loop_rss_mb, "MB")  # grows with the ops the loop reached

    ops_seen, repeats = set(), 0
    for r in records:
        repeats += r.op.net in ops_seen
        ops_seen.add(r.op.net)
    report = {
        "workload": a.workload,
        "why": workloads.WHY[a.workload],
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "loop": "closed, 1 client",
        "machine": machine(),
        "memory_cap_bytes": cap,
        "steal_ticks": {"before": steal0, "after": steal1,
                        "per_s": (steal1 - steal0) / wall if steal0 is not None else None},
        "inputs": {
            "ops": len(records),
            "variables_per_network": statistics.fmean(r.op.variables for r in records),
            "repeat_share": repeats / len(records),
        },
        "counts": counts,
        "failures": failures[:20],
        "errors": sorted({r.error for r in records + (traced or []) if r.error})[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "classes": classes(records),
    }
    if traced is not None:
        layer = per_layer(tr, traced, records)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["layer_shares"] = layer_shares(tr, traced)
        spans = ROOT / ".bench_build" / f"spans-{a.workload}-{a.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        tr.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"report": report}))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    source = report["per_layer"] if a.trace else report["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": len(records) + (len(traced) if traced else 0),
        "failed": counts["failed"] + (sum(1 for r in traced if r.error or r.check_failed)
                                      if traced else 0),
        "metrics": {m["name"]: source[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
