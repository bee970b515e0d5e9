"""One benchmark worker: a fresh process that runs one workload.

Closed loop, one thread, one operation at a time.  `--mode setup` imports
the library, builds the workload's inputs and reports the elapsed time since
the parent spawned it.  `--mode run` does the same, checks the inputs, runs
one untimed warm-up round, then repeats the whole operation set in timed
rounds until `--seconds` have passed and at least MIN_ROUNDS rounds ran.
Every output is judged after its round, outside the timed region.

Times are reported in reference seconds (see calibrate.py): each operation
is followed by a calibration sample, and set-up by samples taken just
before the library is imported and just after the inputs are built.

Prints one JSON object on its last stdout line.  Run through `run.py`,
which sets PYTHONHASHSEED and PYTHONPATH.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import time

import stats
import tracing
from calibrate import SHARE, Calibrator, reference_times
from common import Incorrect, Op

WORKLOADS = {
    "kz-ladder": "kz_ladder",
    "grid-sweep": "grid_sweep",
    "doc-roundtrip": "doc_roundtrip",
}
MIN_ROUNDS = 3
SETUP_SAMPLE_S = 0.1  # least calibration before and after set-up


def run_round(ops, op_times, calibrator=None, slowdowns=None):
    """Run every operation once; returns (round seconds, outputs).

    With a calibrator, each operation is followed by a calibration sample
    and its time is reported in reference seconds (calibrate.py); the
    round's time is then the sum of its operations' times, and each
    operation's slowdown is appended to `slowdowns`."""
    clock = time.perf_counter
    outputs, busy, samples = [], [], []
    start = clock()
    for op in ops:
        begin = clock()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        busy.append(clock() - begin)
        outputs.append(out)
        if calibrator is not None:
            samples.append(calibrator.sample(SHARE * busy[-1]))
    if calibrator is None:
        op_times.extend(busy)
        return clock() - start, outputs
    times = reference_times(busy, samples)
    op_times.extend(times)
    if slowdowns is not None:
        slowdowns.extend(b / t for b, t in zip(busy, times))
    return sum(times), outputs


class Judge:
    """Counts failed operations and records contradicted outputs."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.failed = 0
        self.errors = []
        self.reference = None

    def round(self, ops, outputs):
        texts = []
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                self.failed += 1
                texts.append(f"{op.label}: raised {type(out).__name__}: {out}")
                continue
            try:
                self.failed += bool(self.workload.judge(self.inputs, op, out))
            except Incorrect as exc:
                self.errors.append(str(exc))
            texts.append(self.workload.describe(out))
        if self.reference is None:
            self.reference = texts
        elif texts != self.reference:
            self.errors.append("a round's reports differ from the warm-up round's")
        return texts


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() after which no new round starts")
    args = parser.parse_args(argv)

    calibrator = Calibrator()
    before = calibrator.slowdown(SETUP_SAMPLE_S)
    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = tracing.Tracer()
    tracer.active = bool(args.trace)
    if args.trace:
        tracing.install_layers(tracer)
    inputs = workload.build(args.seed)
    setup_wall = time.monotonic() - args.spawned - calibrator.spent_s
    after = calibrator.slowdown(max(SETUP_SAMPLE_S, SHARE * setup_wall))
    result = {"setup_s": setup_wall / ((before + after) / 2), "setup_wall_s": setup_wall}
    if args.mode == "run":
        result.update(measure(workload, inputs, args, tracer, calibrator))
    print(json.dumps(result))
    return 0


def measure(workload, inputs, args, tracer, calibrator):
    """Check the inputs, warm up, then time whole rounds; with tracing on,
    the benchmark's own checks run paused so only the operations count."""
    traced_setup = tracer.snapshot()
    tracer.reset()
    judge = Judge(workload, inputs)
    with tracer.paused():
        try:
            workload.verify_inputs(inputs)
        except Incorrect as exc:
            judge.errors.append(f"inputs: {exc}")
        ops = workload.ops(inputs)
        if args.trace:  # one operation is one call chain for the distinct counts
            ops = [Op(op.label, tracer.wrap("op", op.run), op.subject) for op in ops]
        _, outputs = run_round(ops, [], calibrator)
        judge.round(ops, outputs)
    judge.failed = 0

    op_times, round_times, wall_times, slowdowns = [], [], [], []
    start = time.monotonic()
    while len(round_times) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        if round_times and time.monotonic() + wall_times[-1] > args.deadline:
            break
        wall = time.monotonic()
        seconds, outputs = run_round(ops, op_times, calibrator, slowdowns)
        wall_times.append(time.monotonic() - wall)
        round_times.append(seconds)
        with tracer.paused():
            judge.round(ops, outputs)
    n_rounds = len(round_times)
    result = {
        "correct": not judge.errors,
        "errors": judge.errors[:20],
        "attempted": len(op_times),
        "failed": judge.failed,
        "rounds": n_rounds,
        "ops_per_round": len(ops),
        "round_s": statistics.median(round_times),
        "round_wall_s": statistics.median(wall_times),
        "slowdown": statistics.median(slowdowns),
        "op_p50_ms": 1000 * statistics.median(stats.per_op_medians(op_times, len(ops))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = stats.tail_percentile(MIN_ROUNDS * len(ops))
    result["tail_percentile"] = tail
    result["op_tail_ms"] = 1000 * stats.percentile_value(op_times, tail)
    if args.trace:
        result["layers"] = tracing.layer_values(traced_setup, tracer.snapshot(), n_rounds)
        tracer.uninstall()
    return result


if __name__ == "__main__":
    sys.exit(main())
