"""Benchmark entry point for homhopf.

    python3 perfbench/run.py --workload kz-ladder --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 1

Each workload runs in its own fresh worker process (see worker.py) with a
fixed PYTHONHASHSEED, one thread and one operation at a time.  Untraced runs
report the end-to-end metrics, with times in reference seconds (wall time
divided by the machine's slowdown, sampled beside each operation; see
calibrate.py); set-up is measured in several fresh processes
(SETUP_REPEATS) and reported as their median.  `--trace 1` runs
one traced worker and reports the per-layer metrics instead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when the run completed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from worker import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# cold set-ups per run, reported as their median: more where one is cheap
SETUP_REPEATS = {"kz-ladder": 3, "grid-sweep": 5, "doc-roundtrip": 9}
BUDGET_S = 170  # one workload's command must end within 180 s


def spawn(workload, seed, seconds, trace, mode, deadline):
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode,
        "--spawned", repr(time.monotonic()), "--deadline", repr(deadline),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline + 5 - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, started):
    deadline = started + BUDGET_S - 5
    if trace:
        result = spawn(workload, seed, seconds, 1, "run", deadline)
        return result, result["layers"]
    setups = [spawn(workload, seed, seconds, 0, "setup", deadline)
              for _ in range(SETUP_REPEATS[workload] - 1)]
    result = spawn(workload, seed, seconds, 0, "run", deadline)
    setups.append(dict(result))
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["setups"] = [(s["setup_s"], s["setup_wall_s"]) for s in setups]
    return result, {name: result[name] for name, _ in END_TO_END}


def _units(trace):
    if not trace:
        return dict(END_TO_END)
    from tracing import layer_metric_names

    return {name: _layer_unit(name) for name in layer_metric_names()}


def _layer_unit(name):
    field = name.rsplit(".", 1)[1]
    return {"self_s": "s", "bytes": "bytes"}.get(field, "count")


def print_summary(workload, seed, result, metrics, units):
    print(f"workload {workload}  seed {seed}  rounds {result['rounds']}"
          f"  ops/round {result['ops_per_round']}  attempted {result['attempted']}"
          f"  failed {result['failed']}  correct {str(result['correct']).lower()}")
    if "setups" in result:
        print("  set-up runs, reference s (wall s): "
              + ", ".join(f"{s:.4f} ({w:.4f})" for s, w in result["setups"]))
    print(f"  op_tail_ms is the p{result['tail_percentile']} operation time;"
          f" round_s {result['round_s']:.4f} s{' (traced)' if 'layers' in result else ''},"
          f" wall {result['round_wall_s']:.4f} s with calibration;"
          f" median machine slowdown {result['slowdown']:.3f}")
    for error in result["errors"]:
        print(f"  INCORRECT: {error}")
    for name, value in metrics.items():
        print(f"  {name:44} {value:>16.6f} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="homhopf benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homhopf", "__init__.py")):
        print(f"error: no homhopf package under {SRC}; run from a homhopf checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = _units(args.trace)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, metrics = run_workload(name, args.seed, args.seconds, args.trace, time.monotonic())
        print_summary(name, args.seed, result, metrics, units)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in metrics.items():
            total["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
