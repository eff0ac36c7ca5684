"""Run every workload, untraced and traced, on several seeds and write one
baseline file.

    python3 benchmark/baseline.py --seeds 1 2 --seconds 20 --out benchmark/results/BENCH_1.json

Each run is a fresh ``run.py`` process, one after another. The command
prints every end-to-end and per-layer metric by name with its unit,
compares each layer's share of traced op time between the first two
seeds, and measures the two reference cells the project's first
baseline figures were quoted for: ``instance_widths`` at rSCM n=50 p=7
(share of ``thin``) and twin ``jointree`` queries at rSCM n=50 p=3
(share of ``minfill_order``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SHARE_FLOOR = 0.05  # compare the shares of layers that hold at least this much time
SHARE_BOUND = 0.25  # the largest bound any end-to-end metric of the benchmark has


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def compare_shares(a: dict, b: dict) -> dict:
    rows = {}
    for layer in sorted(set(a) | set(b)):
        sa, sb = a.get(layer, 0.0), b.get(layer, 0.0)
        if max(sa, sb) >= SHARE_FLOOR:
            rows[layer] = {"first": sa, "second": sb, "relative_change": abs(sb - sa) / max(sa, sb)}
    return {"layers": rows,
            "within_bound": all(r["relative_change"] <= SHARE_BOUND for r in rows.values())}


def reference_cells(seed: int) -> dict:
    """Traced layer shares of the two cells the first baseline figures quote."""
    import layers
    import run as bench_run
    import tracer as tracing
    import workloads

    out = {}
    for title, make in workloads.REFERENCE_CELLS.items():
        t = tracing.Tracer()
        with tracing.Patch(t, layers.TARGETS):
            records = [bench_run.run_one(op, t) for op in make(seed)]
        shares = bench_run.layer_shares(t, records)["all"]
        out[title] = {
            "ops": len(records),
            "errors": sorted({r.error for r in records if r.error}),
            "op_s.mean": sum(r.ns for r in records) / 1e9 / len(records),
            "shares": {k: v for k, v in shares.items() if v >= 0.01},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", help="write the baseline JSON here")
    a = ap.parse_args(argv)

    sys.path[:0] = [str(HERE.parent / "src")]
    import run as bench_run

    runs, comparisons = [], {}
    for workload in bench_run.WORKLOADS:
        traced_by_seed = []
        for seed in a.seeds:
            for trace in (0, 1):
                r = run(workload, seed, a.seconds, trace)
                runs.append(r["report"])
                section = "per_layer" if trace else "end_to_end"
                print(f"{workload} seed={seed} trace={trace} correct={r['result']['correct']} "
                      f"attempted={r['result']['attempted']} failed={r['result']['failed']}")
                for name, m in r["report"][section].items():
                    print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
                if trace:
                    traced_by_seed.append(r["report"]["layer_shares"]["all"])
        if len(traced_by_seed) >= 2:
            comparisons[workload] = compare_shares(traced_by_seed[0], traced_by_seed[1])
            print(f"{workload}: layer shares of seeds {a.seeds[0]} and {a.seeds[1]} within "
                  f"{SHARE_BOUND}: {comparisons[workload]['within_bound']}")
    cells = reference_cells(a.seeds[0])
    for title, cell in cells.items():
        top = ", ".join(f"{k} {v:.3f}" for k, v in list(cell["shares"].items())[:3])
        print(f"{title}: {cell['ops']} ops, {cell['op_s.mean']:.3f} s/op; {top}")
    if a.out:
        with open(a.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": a.seeds, "seconds": a.seconds, "runs": runs,
                       "layer_share_comparison": comparisons, "reference_cells": cells},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
