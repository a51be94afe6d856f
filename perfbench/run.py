"""The cackit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <cac_auto|cac_sweep|deepcac|score> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every workload runs in a fresh Python
process with BLAS pinned to one thread and the process pinned to one CPU,
one process at a time. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run. The lines before it record the machine and where the
reference trajectories were written. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("cac_auto", "cac_sweep", "deepcac", "score")
# set-up runs per untraced run; setup_s is their median
SETUP_REPEATS = 3
# all children of one run must end within this, so the run stays under 180 s
RUN_DEADLINE_S = 170
BATCH_ROWS = 64
WINDOW = 200
# a window whose median is below this share of slow_state(median) ran at the faster speed
SLOW_SHARE = 0.8
P99_WINDOW = 1000
P99_MAX_WINDOWS = 20
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child(args, extra: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process and return its JSON result line."""
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def windows(samples: list[float], size: int, most: int | None = None) -> list[list[float]]:
    """Consecutive windows of at least `size` samples (one if there are fewer)."""
    n = max(1, len(samples) // size)
    n = min(n, most) if most else n
    step = len(samples) // n
    return [samples[i * step:(i + 1) * step] for i in range(n)]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def slow_state(samples: list[float], stat) -> float:
    """The 90th percentile over windows of WINDOW samples of `stat` per window.

    The machine this was built on switches between two speeds, 1.7x apart,
    for a second or more at a time, and the share of the faster one in a
    run varied from none to nearly nine tenths, so the median of a whole
    run jumps between the two. The 90th percentile over windows stays with
    the slower speed, which nearly every run has; on a steady machine it
    is within a few per cent of the plain statistic.
    """
    return p90([stat(w) for w in windows(samples, WINDOW)])


def p99(samples: list[float]) -> float:
    """The p99 at the slower speed: drop the windows of WINDOW samples that
    ran at the faster one, cut the rest into windows of at least P99_WINDOW
    samples (at most P99_MAX_WINDOWS), and take the median of their p99s.

    Each window keeps ten samples beyond its p99. A burst of stalls moves
    the p99 of the windows it falls in, not the median over them; a high
    percentile over windows, as for the p50s, spread more here.
    """
    cut = SLOW_SHARE * slow_state(samples, statistics.median)
    slow = [x for w in windows(samples, WINDOW) if statistics.median(w) >= cut for x in w]
    return statistics.median(statistics.quantiles(w, n=100, method="inclusive")[98]
                             for w in windows(slow, P99_WINDOW, P99_MAX_WINDOWS))


def end_to_end(result: dict, setup_s: float) -> dict:
    s = result["samples"]
    batch, row = s["batch_s"], s["row_s"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (p90(s["wall_s"]), "s"),
        "rows_per_s": (BATCH_ROWS / slow_state(batch, statistics.fmean), "1/s"),
        "batch_ms_p50": (1e3 * slow_state(batch, statistics.median), "ms"),
        "batch_ms_p99": (1e3 * p99(batch), "ms"),
        "row_us_p50": (1e6 * slow_state(row, statistics.median), "us"),
        "row_us_p99": (1e6 * p99(row), "us"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "test_auc": (result["test_auc"], "1"),
        "test_auprc": (result["test_auprc"], "1"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cackit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: damage one output so the checks must catch it")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cackit" / "__init__.py").is_file():
        print(f"error: no cackit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # the children inherit this: one CPU, the same one for every process of the run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_DEADLINE_S
    extra = ["--corrupt"] if args.corrupt else []
    setups = []
    if args.trace == 0:
        setups = [_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    result = _child(args, extra, deadline)
    setups.append(result["setup_s"])
    machine = result["machine"]
    print("machine " + json.dumps(machine, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    record = WORK / f"trajectories-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "machine": machine, "ops": result["trajectories"]},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"trajectories {record.relative_to(ROOT)}")
    for failure in result["failures"]:
        print("check failed: " + failure.strip().replace("\n", " | "))
    print(f"fail_frac {result['failed'] / result['attempted']!r}")

    metrics = result["per_layer"] if args.trace else end_to_end(result, statistics.median(setups))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
