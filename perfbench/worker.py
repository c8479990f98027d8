"""One benchmark run of one workload, in its own single-threaded process.

Started by ``run.py``; not meant to be run by hand.  It sets the workload up
``SETUP_REPEATS`` times (timed), runs one untimed warm-up round of the command
mix, then runs whole rounds for ``--seconds``: one client in a closed loop,
each CLI call started only after the previous one returned, the command mix
interleaved round-robin so that drift in host speed spreads evenly over the
commands.  Every output is checked; a wrong output or exit code counts as a
failed operation.

With ``--trace 1`` the rounds alternate untraced and traced; the traced
rounds give the per-layer metrics and the pair gives the tracing overhead.

The last line of standard output is the JSON result for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import hostspeed
import spans
from vulngraph import cli

SETUP_REPEATS = 3
IMPORT_REPEATS = 5

COMMANDS = ("build", "event", "report", "metrics", "prioritize", "export",
            "cluster", "impact", "alerts", "diff")


def command_mix(workload: str, info: dict, work: Path) -> list[tuple]:
    """``(name, argv, expected exit code, output file or None)`` per command."""
    tl, cat = str(work / "timeline.json"), str(work / "catalog.json")
    ev = info["event"]
    event_argv = ["event", "--timeline", tl, "--catalog", cat, "--kind", "asset-updated",
                  "--asset", ev["asset"], "--cpe", ev["cpe"], "--at", ev["at"],
                  "--out", str(work / "event_out.json")]
    if ev["fixes"]:
        event_argv += ["--fixes", ",".join(ev["fixes"])]
    ops = [
        ("build", ["build", "--sut", info["sut"], "--manifest", str(work / "manifest.json"),
                   "--catalog", cat, "--at", info["built_at"], "--epoch", info["first_epoch"],
                   "--out", str(work / "build_out.json")], 0, work / "build_out.json"),
        ("event", event_argv, 0, work / "event_out.json"),
        ("report", ["report", "--timeline", tl, "--catalog", cat, "--format", "markdown"],
         0, None),
        ("metrics", ["metrics", "--timeline", tl, "--json"], 0, None),
        ("prioritize", ["prioritize", "--timeline", tl, "--json"], 0, None),
        ("export", ["export", "--timeline", tl, "--show-deprecated"], 0, None),
        ("cluster", ["cluster", "--timeline", tl, "--criterion", "cvss-below",
                     "--threshold", "6.0"], 0, None),
        ("impact", ["impact", "--timeline", tl, "--cve", info["impact_cve"]], 0, None),
        ("alerts", ["alerts", "--timeline", tl, "--cvss-at-least", "9.0",
                    "--metric-bound", "M1:>=:1"], 1, None),
        ("diff", ["diff", "--timeline", tl, "--from-epoch", info["first_epoch"],
                  "--to-epoch", info["last_epoch"], "--json"], 0, None),
    ]
    if workload == "openplc":
        # O(assets x vulns x edges) label building; affordable only here.
        ops.append(("export_full", ["export", "--timeline", tl, "--full-labels"], 0, None))
    return ops


class Runner:
    """Runs CLI operations, checks them and keeps the tallies."""

    def __init__(self, ops, checkers, work: Path):
        self.ops = ops
        self.work = str(work)
        self.checkers = checkers
        self.scaled = {name: [] for name, *_ in ops}  # untraced, host-speed scaled
        self.wall = {name: [] for name, *_ in ops}  # untraced
        self.traced = {name: [] for name, *_ in ops}  # traced, wall
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, index: int, tracer=None) -> tuple[float, float]:
        """Run, check and time one operation: ``(wall, scaled)`` seconds.
        Traced calls are timed plainly (``scaled`` is ``wall``), so that
        the reference samples stay out of the spans."""
        name, argv, want_rc, out_file = self.ops[index]
        if out_file is not None and out_file.exists():
            out_file.unlink()
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.set_op(index)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                rc, wall, scaled = hostspeed.timed(cli.main, argv)
            else:
                start = time.perf_counter()
                rc = cli.main(argv)
                wall = scaled = time.perf_counter() - start
        if tracer is not None:
            tracer.set_op(-1)
        out_text = out_file.read_text(encoding="utf-8") if out_file is not None else ""
        problems = [] if rc == want_rc else [f"exit code {rc}, want {want_rc}: "
                                             f"{stderr.getvalue().strip()[:200]}"]
        if not problems:
            problems = self.checkers[name](stdout.getvalue(), out_text)
        # The scratch directory's name varies between runs; outputs must not.
        output = f"{rc}\0{stdout.getvalue()}\0{out_text}".replace(self.work, "<work>")
        digest = hashlib.sha256(output.encode()).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            problems.append("output differs from the first call")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {'; '.join(problems)}")
        return wall, scaled

    def run_round(self, tracer=None, record=True) -> None:
        """One call of every operation; times are recorded unless ``record``
        is false (warm-up)."""
        for i, (name, *_) in enumerate(self.ops):
            wall, scaled = self.run_op(i, tracer)
            if not record:
                continue
            if tracer is not None:
                self.traced[name].append(wall)
            else:
                self.wall[name].append(wall)
                self.scaled[name].append(scaled)


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p90/p75 with at least ten samples above it, else the
    maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for label, q in (("p99", 0.99), ("p90", 0.90), ("p75", 0.75)):
        if n * (1 - q) >= 10:
            return label, ordered[min(n - 1, int(q * n))]
    return "max", ordered[-1]


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the CLI module."""
    code = ("import time; t = time.perf_counter(); import vulngraph.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def setup(workload: str, seed: int, work: Path):
    """Make the inputs ``SETUP_REPEATS`` times; return the facts about them,
    their directory, the scaled set-up times and whether all were equal."""
    times, digests = [], set()
    info = None
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        target.mkdir()
        gc.collect()
        info, _, scaled = hostspeed.timed(gen.make_inputs, workload, seed, target)
        times.append(scaled)
        digests.add(tuple(hashlib.sha256((target / f).read_bytes()).hexdigest()
                          for f in ("catalog.json", "manifest.json", "timeline.json")))
    return info, work / "setup0", times, len(digests) == 1


def layer_metrics(tracer, aggregated, runner, traced_rounds: int) -> dict:
    """Per-round totals of the traced rounds, named as in BENCHMARK.json."""
    self_ns, incl_ns = aggregated
    ops = runner.ops
    per = traced_rounds

    def total(table, key):
        return sum(v for (op, k), v in table.items() if k == key and op >= 0)

    def count(key):
        return sum(c.get(key, 0) for op, c in tracer.counts.items() if op >= 0)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def secs(name, key, table=self_ns):
        put(name, total(table, key) / per / 1e9, "s")

    def calls(name, key):
        put(name, count(key) / per, "count")

    secs("catalog.load_s", "catalog.load")
    calls("catalog.lookup_calls", "catalog.lookup")
    secs("catalog.lookup_s", "catalog.lookup")
    tested, matched = count("catalog.applies_to"), count("catalog.applies_to_true")
    put("catalog.records_tested", tested / per, "count")
    put("catalog.records_matched", matched / per, "count")
    put("catalog.match_ratio", matched / tested if tested else 0.0, "ratio")
    calls("cpe.parse_calls", "cpe.parse")
    secs("cpe.parse_s", "cpe.parse")
    calls("cpe.matches_calls", "cpe.matches")
    calls("cpe.bind_calls", "cpe.bind")
    secs("timeline.load_s", "timeline.load")
    secs("timeline.save_s", "timeline.save")
    secs("timeline.embed_s", "timeline.embed", incl_ns)
    calls("timeline.replay_passes", "timeline.replay")
    calls("timeline.events_applied", "timeline.apply")
    secs("timeline.apply_s", "timeline.apply", incl_ns)
    calls("timeline.snapshot_embedded", "timeline.snapshot_embedded")
    calls("timeline.snapshot_replayed", "timeline.snapshot_replayed")
    secs("graph.build_s", "graph.build")
    secs("graph.lifecycle_s", "graph.lifecycle")
    calls("graph.clone_calls", "graph.clone")
    calls("graph.clone_items", "graph.clone_items")
    secs("graph.clone_s", "graph.clone")
    calls("graph.active_cves_calls", "graph.active_cves")
    secs("graph.active_cves_s", "graph.active_cves")
    calls("graph.active_subgraph_calls", "graph.active_subgraph")
    secs("graph.active_subgraph_s", "graph.active_subgraph")
    calls("graph.from_dict_calls", "graph.from_dict")
    secs("graph.from_dict_s", "graph.from_dict")
    secs("graph.to_dict_s", "graph.to_dict")
    secs("graph.cluster_s", "graph.cluster")
    secs("graph.impact_s", "graph.impact")
    secs("metrics.snapshot_report_s", "metrics.snapshot_report")
    secs("metrics.lifecycle_report_s", "metrics.lifecycle_report")
    secs("metrics.prioritize_s", "metrics.prioritize")
    secs("report.export_dot_s", "report.export_dot")
    secs("report.check_alerts_s", "report.check_alerts")
    secs("report.epoch_diff_s", "report.epoch_diff")
    secs("report.payload_s", "report.payload")
    secs("report.render_markdown_s", "report.render_markdown")

    layer_ns: dict[str, int] = {}
    for (op, key), v in self_ns.items():
        if op >= 0:
            layer = key.split(".")[0]
            layer_ns[layer] = layer_ns.get(layer, 0) + v
    for layer in ("cli", "cpe", "catalog", "timeline", "graph", "metrics", "report"):
        put(f"{layer}.self_s", layer_ns.get(layer, 0) / per / 1e9, "s")

    # Per command: CLI self time (argument parsing, output formatting and
    # writing) and the traced tail.  Coverage is the share of a command's time
    # inside named spans other than the body of ``cli.main`` itself.
    coverage = []
    for name in COMMANDS:
        idx = [i for i, op in enumerate(ops) if op[0] == name]
        body = sum(self_ns.get((i, "cli.main"), 0) for i in idx)
        parser = sum(self_ns.get((i, "cli.parser"), 0) for i in idx)
        whole = sum(incl_ns.get((i, "cli.main"), 0) for i in idx)
        put(f"cli.{name}.self_s", (body + parser) / per / 1e9, "s")
        put(f"cli.{name}.tail_s", tail(runner.traced[name])[1], "s")
        coverage.append(1 - body / whole)
    put("cli.import_s", import_seconds(), "s")
    put("trace.overhead_s", sum(statistics.median(runner.traced[name])
                                - statistics.median(runner.wall[name]) for name, *_ in ops), "s")
    put("trace.coverage_min", min(coverage), "ratio")
    return out


def breakdown(self_ns, ops, per: int) -> list[str]:
    """Human-readable table: each command's traced time split by span key."""
    lines = ["traced self time per command (ms per call; share of the command):"]
    for i, (name, *_rest) in enumerate(ops):
        keys = {k: v for (op, k), v in self_ns.items() if op == i}
        whole = sum(keys.values())
        if not whole:
            continue
        top = sorted(keys.items(), key=lambda kv: -kv[1])[:6]
        parts = ", ".join(f"{k} {v / per / 1e6:.1f} ({v / whole:.0%})" for k, v in top)
        lines.append(f"  {name:<11} {whole / per / 1e6:9.1f}  {parts}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["openplc", *gen.SHAPES])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--work", required=True, help="empty scratch directory")
    args = parser.parse_args(argv)
    work = Path(args.work)

    info, inputs, setup_times, setup_same = setup(args.workload, args.seed, work)
    print(f"shape {json.dumps(info['shape'], sort_keys=True)}")
    if not setup_same:
        print("problem setup: inputs differ between set-ups")

    base_doc = json.loads((inputs / "timeline.json").read_text(encoding="utf-8"))
    ops = command_mix(args.workload, info, inputs)
    runner = Runner(ops, checks.make_checkers(base_doc, info, args.workload == "openplc"),
                    work)
    runner.run_round(record=False)  # warm-up

    tracer = spans.Tracer() if args.trace else None
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        runner.run_round()
        if tracer is not None:
            tracer.install()
            try:
                runner.run_round(tracer)
            finally:
                tracer.uninstall()
        rounds += 1
    measured = time.perf_counter() - start

    for problem in runner.problems:
        print(f"problem {problem}")
    print(f"rounds {rounds} in {measured:.1f} s; attempted {runner.attempted}, "
          f"failed {runner.failed}")
    print(f"setup_s scaled runs {', '.join(f'{t:.4f}' for t in setup_times)}")
    for name, *_ in ops:
        scaled, wall = runner.scaled[name], runner.wall[name]
        label, value = tail(scaled)
        wall_label, wall_value = tail(wall)
        print(f"{name}_s scaled median {statistics.median(scaled):.5f} s, {label} {value:.5f} s;"
              f" wall median {statistics.median(wall):.5f} s, {wall_label} {wall_value:.5f} s;"
              f" n={len(scaled)}; digest {runner.digests[name][:16]}")

    metrics = {}
    if tracer is None:
        for name in COMMANDS:
            metrics[f"{name}_s"] = {"value": statistics.median(runner.scaled[name]),
                                    "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    else:
        aggregated = tracer.aggregate()
        for line in breakdown(aggregated[0], ops, rounds):
            print(line)
        metrics = layer_metrics(tracer, aggregated, runner, rounds)
    result = {"correct": runner.failed == 0 and setup_same,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
