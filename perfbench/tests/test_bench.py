"""Tests of the benchmark's own arithmetic and of its tracing.

    python3 -m pytest perfbench/tests -q
"""

import importlib

import pytest

import calibrate
import oracles
import stats
import tracing
import worker
from common import Incorrect


# --- the tail-percentile rule ----------------------------------------------


@pytest.mark.parametrize(
    "n, p",
    [(19, None), (20, 50), (39, 74), (40, 75), (96, 89), (108, 90), (200, 95), (342, 97),
     (1000, 99), (2448, 99)],
)
def test_tail_percentile_examples(n, p):
    assert stats.tail_percentile(n) == p


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 3000):
        p = stats.tail_percentile(n)
        assert n - stats.nearest_rank(p, n) >= 10
        if p < 99:
            assert n - stats.nearest_rank(p + 1, n) < 10


def test_percentile_value_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100 in reverse
    assert stats.percentile_value(values, 50) == 50
    assert stats.percentile_value(values, 90) == 90
    assert stats.percentile_value([3.0], 99) == 3.0


def test_per_op_medians_take_each_operation_across_rounds():
    # three operations, three rounds; the second round is slow throughout
    times = [1.0, 5.0, 9.0, 3.0, 7.0, 30.0, 2.0, 6.0, 10.0]
    assert stats.per_op_medians(times, 3) == [2.0, 6.0, 10.0]
    with pytest.raises(ValueError):
        stats.per_op_medians(times[:-1], 3)


# --- conversion to reference seconds --------------------------------------


def test_reference_times_divide_by_the_pooled_slowdown():
    unit = calibrate.REFERENCE_UNIT_S
    # operation 0 ran at twice the reference time per unit, operation 1 at it
    busy = [0.4, 0.1]
    samples = [(200 * unit, 100), (100 * unit, 100)]
    assert calibrate.reference_times(busy, samples, window_s=0) == pytest.approx([0.2, 0.1])
    # a sample shorter than the window pools its neighbours' units and time
    pooled = calibrate.reference_times(busy, samples, window_s=150 * unit)
    assert pooled == pytest.approx([0.2, 0.1 / 1.5])


def test_reference_times_pool_nearest_neighbours_first():
    unit = calibrate.REFERENCE_UNIT_S
    busy = [1.0] * 5
    slow = [(10 * unit, 10), (10 * unit, 10), (30 * unit, 10), (10 * unit, 10), (20 * unit, 10)]
    times = calibrate.reference_times(busy, slow, window_s=40 * unit)
    # operation 2 pools its own sample and the one taken just before it
    assert times[2] == pytest.approx(20 / 40)
    # operation 4 has no later neighbour, so it reaches back two operations
    assert times[4] == pytest.approx(30 / 60)
    # operation 0 has no earlier neighbour, so it reaches forward
    assert times[0] == pytest.approx(30 / 50)


def test_calibration_sample_runs_whole_units_and_restores_the_collector():
    import gc

    cal = calibrate.Calibrator()
    spent = cal.spent_s
    assert gc.isenabled()
    elapsed, units = cal.sample(0.0)
    assert units == 1 and elapsed > 0
    assert gc.isenabled()
    assert cal.spent_s == pytest.approx(spent + elapsed)


# --- self time with nested spans ------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(4)

    def inner():
        clock.advance(3)
        leaf()
        leaf()

    def outer():
        clock.advance(1)
        inner()
        clock.advance(2)

    def bookkeeping(args, kwargs, result, own):
        clock.advance(100)  # charged to no span

    leaf = tracer.wrap("leaf", leaf, after=bookkeeping)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    assert dict(tracer.calls) == {"outer": 1, "inner": 1, "leaf": 2}
    assert dict(tracer.self_s) == {"outer": 3.0, "inner": 3.0, "leaf": 8.0}


def test_same_name_nesting_and_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def child():
        clock.advance(2)
        raise ValueError("boom")

    def parent():
        clock.advance(5)
        with pytest.raises(ValueError):
            child()

    child = tracer.wrap("render", child)
    parent = tracer.wrap("render", parent)
    parent()
    assert tracer.calls["render"] == 2
    assert tracer.self_s["render"] == 7.0  # both spans' own time, no double count
    with tracer.paused():
        parent()
    assert tracer.calls["render"] == 2


def test_distinct_keys_are_counted_once_per_call_chain():
    tracer = tracing.Tracer()

    def compare(key):
        tracer.chain_add("eq.distinct", key)

    compare = tracer.wrap("eq", compare)

    def operation():
        for key in ("a", "b", "a"):
            compare(key)

    operation = tracer.wrap("op", operation)
    operation()
    operation()
    assert tracer.calls["eq"] == 6
    assert tracer.counts["eq.distinct"] == 4


def test_layer_values_combine_setup_and_rounds():
    setup = {"calls": {"cli.main": 2}, "self_s": {"cli.main": 1.0}, "counts": {},
             "maxima": {"matrices.leg_perm.distinct": 2}}
    rounds = {"calls": {"cli.main": 9}, "self_s": {"cli.main": 3.0}, "counts": {},
              "maxima": {"matrices.mul.max_dim": 7, "matrices.leg_perm.distinct": 3}}
    values = tracing.layer_values(setup, rounds, 3)
    assert values["cli.main.calls"] == 5
    assert values["cli.main.self_s"] == 2.0
    assert values["matrices.leg_perm.distinct"] == 3
    assert values["matrices.mul.max_dim"] == 7
    assert set(values) == set(tracing.layer_metric_names())


# --- witnesses are re-evaluated element-wise -------------------------------


def test_witness_confirmation_rejects_a_wrong_value():
    grid = importlib.import_module("grid_sweep")
    from homhopf import constructions

    failing = None
    for _, bundle in grid.grid_bundles():
        rep = constructions.check_radford_conditions(bundle)
        if not rep.check("R4").passed:
            failing = bundle, rep.check("R4").witness
            break
    bundle, witness = failing
    oracles.confirm_witness(bundle, "R4", witness)
    head, rhs = witness.rsplit(" != ", 1)
    forged = f"{head} != {(int(rhs) + 1) % 7}"
    with pytest.raises(Incorrect):
        oracles.confirm_witness(bundle, "R4", forged)


# --- tracing changes no result ---------------------------------------------


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_traced_round_reports_are_byte_identical(name):
    from homhopf import matrices

    workload = importlib.import_module(worker.WORKLOADS[name])
    inputs = workload.build(5)
    ops = workload.ops(inputs)
    _, plain = worker.run_round(ops, [])
    render = workload.describe
    plain_texts = [render(o) for o in plain]  # before the traced round rewrites emitted files
    original_mul = matrices.Matrix.__mul__
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        assert matrices.Matrix.__mul__ is not original_mul
        _, traced = worker.run_round(ops, [])
    finally:
        tracer.uninstall()
    assert matrices.Matrix.__mul__ is original_mul
    assert tracer.calls["matrices.mul"] > 0
    assert [render(o) for o in traced] == plain_texts
