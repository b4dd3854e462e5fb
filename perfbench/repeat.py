"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --runs 10 --first-seed 401
    python3 perfbench/repeat.py --runs 10 --first-seed 501 --compare .perfbench-out/repeat-A.json

Run from the repository root.  It runs every workload of BENCHMARK.json for
``run_seconds``, the run length the bounds were set for, once per seed.  For
every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(n=4)``), the spread (q3 - q1) / median,
and that spread as a share of the metric's bound in BENCHMARK.json.  A bound
is well chosen when the spread stays below a third of it.  ``--compare`` also prints how far each median moved from a
saved earlier set, as a share of the earlier median, in the direction that
counts as worse.  Raw results are saved under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(spec: dict, runs: int, first_seed: int) -> dict:
    results: dict[str, list[dict]] = {w["name"]: [] for w in spec["workloads"]}
    for w in results:
        for seed in range(first_seed, first_seed + runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: exit code {proc.returncode}")
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            result["log"] = lines[:-1]
            results[w].append(result)
            print(f"# {w} seed {seed}: {wall:.1f} s wall", file=sys.stderr, flush=True)
    return results


def summarise(spec: dict, results: dict, earlier: dict | None) -> None:
    print(f"{'workload':16} {'metric':20} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'/bound':>7}"
          + (f" {'worse':>7}" if earlier else ""))
    for w, runs in results.items():
        failed = {r["failed"] / r["attempted"] for r in runs}
        walls = [r["wall_s"] for r in runs]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            line = f"{w:16} {m['name']:20} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.2%} {spread / m['bound']:7.2f}"
            if earlier and w in earlier:
                before = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[w])
                change = (med - before) / before
                line += f" {(-change if m['better'] == 'higher' else change):7.2%}"
            print(line)
        print(f"{w:16} {'failed share':20} {sorted(failed)}; wall per run median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", type=Path, default=None, help="a saved earlier set")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    results = run_set(spec, args.runs, args.first_seed)
    out = Path(".perfbench-out") / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"# saved {out}", file=sys.stderr)
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    summarise(spec, results, earlier)
    return 0


if __name__ == "__main__":
    sys.exit(main())
