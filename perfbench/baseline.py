"""Run the benchmark over several seeds and check that it is steady.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

For each workload in ``BENCHMARK.json`` (or ``--workloads``) and each set, it
runs ``perfbench/run.py`` once per seed with tracing off, then once with
tracing on for the first seed.  It prints every metric by name and unit with
its median, quartiles and spread (interquartile range over median), flags a
spread above a third of the metric's bound, and compares each set's median
with the first set's against the bound.  ``--out`` records the figures with
the machine description and the commit measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n"
                         f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    lines = out.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    result["report"] = [ln for ln in lines[:-1] if not ln.startswith("metric ")]
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != names:
        raise SystemExit(f"{workload} seed {seed}: metrics {sorted(result['metrics'])} "
                         f"differ from BENCHMARK.json {sorted(names)}")
    result["wall_s"] = wall
    return result


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", help="write the figures here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "commit": _commit(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        sets = []
        traced = []
        for s in range(args.sets):
            runs = [_run(spec, workload, seed, 0) for seed in seeds]
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            if bad:
                steady = False
                print(f"{workload}: {len(bad)} runs with failed operations")
            sets.append(runs)
            if not args.no_trace:
                traced.append(_run(spec, workload, seeds[0], 1))
        print(f"== {workload}: {len(seeds)} seeds x {args.sets} sets, "
              f"{spec['run_seconds']} s each; run wall "
              f"{max(r['wall_s'] for runs in sets for r in runs):.0f} s at most; "
              f"attempted {sets[0][0]['attempted']} operations in one run")
        entry = {"end_to_end": {}, "per_layer": traced[0]["metrics"] if traced else {},
                 "traced_run": traced[0]["report"] if traced else [],
                 "first_run": sets[0][0]["report"]}
        for name, metric in bounds.items():
            per_set = [_stats([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            flags = []
            for i, st in enumerate(per_set):
                if name != "setup_s" and st["spread"] > metric["bound"] / 3:
                    flags.append(f"set {i + 1} spread above bound/3")
                    steady = False
                if i and (st["median"] - per_set[0]["median"]) / per_set[0]["median"] \
                        > metric["bound"]:
                    flags.append(f"set {i + 1} median worse than set 1 by more than bound")
                    steady = False
            cells = "  ".join(f"{st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                              f"spread {st['spread']:.3f}" for st in per_set)
            print(f"  {name:<14} {metric['unit']:<3} bound {metric['bound']:<5} {cells}"
                  f"{'  ' + '; '.join(flags) if flags else ''}")
            for runs in sets:
                values = " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs)
                print(f"    runs {values}")
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "bound": metric["bound"], "sets": per_set,
                "runs": [[r["metrics"][name]["value"] for r in runs] for runs in sets]}
        for line in entry["traced_run"]:
            print(f"  {line}")
        for name, metric in sorted(entry["per_layer"].items()):
            print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
        record["workloads"][workload] = entry
    print("steady" if steady else "NOT steady")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
