"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tiny --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every workload runs in fresh child
processes (``workload.py``) that import the package from ``src/`` with the
BLAS thread count capped.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
``setup_s`` is timed here, from starting a child to its READY line, as the
median over several children.  Each is paired with a bare interpreter that
imports numpy and scipy, started just before it, and scaled by that
baseline's nominal over its measured start-up time.  The calibration kernel
that the timed run pairs with each sample runs in a sibling process of its
own: the run child prints CALIBRATE and waits; this launcher has the sibling
run the kernel once and writes back the seconds it took.  Exits 1 when a
check fails, 2 on bad usage or when the checkout has no ``src/couplformer``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tiny", "grid28", "grid28-standard")
SETUP_SAMPLES = 7  # children whose start-to-READY time gives setup_s
# Start-up baseline paired with each set-up child: what every set-up imports
# before the program, and its nominal time on the reference machine.
BASELINE = ["-c", "import numpy, scipy.ndimage, scipy.special; print('READY', flush=True)"]
BASELINE_S = 0.45
# One BLAS thread: the program runs one Python thread, and the launcher
# keeps the second core of the reference machine.
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # the whole command, every child included
OUT = Path(".perfbench-out")


class ChildError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Kernel:
    """The calibration kernel (``workload.py kernel``) in a process of its own.

    Nothing the program leaves in its process can slow the kernel there.
    """

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        self.timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self.proc.kill)
        self.timer.start()
        if self.proc.stdout.readline().strip() != "READY":
            self.close()
            raise ChildError("calibration kernel failed to start")

    def __call__(self) -> str:
        """Run the kernel once; its time in seconds, as the kernel printed it."""
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline().strip()
            float(reply)
        except (OSError, ValueError):
            raise ChildError("calibration kernel stopped") from None
        return reply

    def close(self) -> None:
        self.timer.cancel()
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def run_child(
    args: list[str], env: dict, deadline: float, kernel: Kernel | None = None
) -> tuple[float | None, list[str], int]:
    """Run ``python3 args``; return (seconds to READY, other stdout lines, exit code).

    With ``kernel``, each CALIBRATE line of the child is answered on its
    stdin with the seconds of one kernel run.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, env=env, text=True,
        stdin=subprocess.PIPE if kernel else subprocess.DEVNULL,
    )
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif kernel and line.strip() == "CALIBRATE":
                proc.stdin.write(kernel() + "\n")
                proc.stdin.flush()
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    except OSError:
        raise ChildError(f"{' '.join(args[:2])} stopped reading its calibration replies") from None
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        if proc.stdin:
            try:
                proc.stdin.close()
            except OSError:
                pass
    if time.perf_counter() >= deadline:
        raise ChildError(f"{' '.join(args[:2])} overran the {DEADLINE_S:.0f} s deadline")
    return ready, lines, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Couplformer training benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "couplformer" / "__init__.py").is_file():
        print(f"error: no src/couplformer under {root}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env(root)
    work = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    script = str(HERE / "workload.py")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]

    def baseline() -> float:
        ready, _, code = run_child(BASELINE, env, deadline)
        if code != 0 or ready is None:
            raise ChildError("start-up baseline failed")
        return ready

    kernel = None
    try:
        _, _, code = run_child([script, "inputs", *common], env, deadline)
        if code != 0:
            raise ChildError("input generation failed")
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                base = baseline()
                ready, _, code = run_child([script, "setup", *common], env, deadline)
                if code != 0 or ready is None:
                    raise ChildError("set-up failed")
                setup.append(ready * BASELINE_S / base)
        kernel = Kernel([script, "kernel", *common], env, deadline)
        if not args.trace:
            base = baseline()
        ready, lines, code = run_child(
            [script, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline, kernel,
        )
        if ready is None or not lines:
            raise ChildError(f"workload run ended with code {code} before reporting")
        result = json.loads(lines[-1])
    except (ChildError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if kernel:
            kernel.close()
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setup.append(ready * BASELINE_S / base)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
