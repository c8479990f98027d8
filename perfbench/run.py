"""vulngraph benchmark: CLI latency per command on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph-dense --seed 1 --seconds 20 --trace 0

Workloads: ``openplc`` (the bundled study), ``catalog-scan`` and
``graph-dense`` (seeded synthetic systems; see ``perfbench/gen.py``).  The run
happens in a fresh single-threaded child process (``perfbench/worker.py``)
that imports the package from ``src/``; its scratch files live under
``.perfbench_tmp/`` in the checkout and are removed afterwards.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give each command's median, tail and sample count and its output digest.
Exits non-zero, without a result line, when the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("openplc", "catalog-scan", "graph-dense")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vulngraph" / "cli.py").is_file():
        print(f"error: no vulngraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        print(f"error: worker exited with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child was the worker.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    for name, metric in sorted(result["metrics"].items()):
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
