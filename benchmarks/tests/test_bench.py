"""Tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest -q -p no:cacheprovider benchmarks/tests
"""

import json
import os
import re
import signal
import time

import numpy as np
import pytest

import generators
import reference
import run
import spans
import workloads
from qselci.fcidump import parse_fcidump, serialize_fcidump
from qselci.fixtures import h_chain_synthetic_table

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def declared():
    return run.load_declarations()


# ------------------------------------------------------------- self times

def _span(name, start, end, parent=None, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_direct_children():
    s = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.5, parent=0),
    ]
    assert spans.self_times(s) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_per_op_totals_sum_by_name_and_op():
    s = [
        _span("x", 0.0, 1.0, op=0),
        _span("x", 2.0, 4.0, op=0),
        _span("x", 5.0, 8.0, op=1),
        _span("y", 0.0, 9.0, op=spans.SETUP),
        _span("x", 1.0, 2.0, parent=3, op=spans.SETUP),
    ]
    totals = spans.per_op_totals(s)
    assert totals[0]["x"] == pytest.approx(3.0)
    assert totals[1]["x"] == pytest.approx(3.0)
    assert totals[spans.SETUP]["y"] == pytest.approx(8.0)
    inclusive = spans.per_op_totals(s, inclusive=True)
    assert inclusive[spans.SETUP]["y"] == pytest.approx(9.0)


def test_recorder_nests_spans_and_restores_functions():
    from qselci import expansion, hamiltonian, pipeline

    original = pipeline.build_subspace
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        # one wrapper, bound at every name the library imports it under
        assert pipeline.build_subspace is hamiltonian.build_subspace
        assert expansion.build_subspace is hamiltonian.build_subspace
        assert hamiltonian.build_subspace is not original
        assert expansion.slater_condon is hamiltonian.slater_condon
        rec.op = 0
        table = h_chain_synthetic_table(4)
        sub = pipeline.build_subspace(
            [d for d in hamiltonian.enumerate_space(4, 2, 2)][:20], table
        )
        hamiltonian.davidson_lowest(sub)
    finally:
        uninstall()
    assert pipeline.build_subspace is original
    assert expansion.build_subspace is original
    names = [s.name for s in rec.spans]
    assert names == ["hamiltonian.build_subspace", "hamiltonian.davidson"]
    assert all(s.parent is None and s.op == 0 for s in rec.spans)
    assert rec.counters[0, "hamiltonian.build_subspace.dim"] == 20
    assert rec.counters[0, "hamiltonian.slater_condon_calls"] > 0
    assert rec.counters[0, "hamiltonian.davidson_matvecs"] > 0


# ------------------------------------------------------------- generators

def test_dense_table_is_seeded_and_dense():
    a = generators.dense_random_table(4, 4, 3)
    b = generators.dense_random_table(4, 4, 3)
    c = generators.dense_random_table(4, 4, 4)
    assert np.array_equal(a.h, b.h) and a.g == b.g
    assert not np.array_equal(a.h, c.h) and a.g != c.g
    assert sorted(a.g) == sorted(c.g)
    assert all(v != 0.0 for v in a.g.values())


def test_excitation_pick_is_seeded_with_a_fixed_size():
    table = h_chain_synthetic_table(6)
    a = generators.hf_excitation_pick(table, 20, 1)
    b = generators.hf_excitation_pick(table, 20, 1)
    c = generators.hf_excitation_pick(table, 20, 2)
    assert a == b
    assert a != c
    assert len(a) == len(c) == 21
    assert a[0] == c[0] and len(set(a)) == 21


def test_fcidump_is_seeded_and_round_trips():
    a = generators.fcidump_text(4, 4, 5)
    assert a == generators.fcidump_text(4, 4, 5)
    c = generators.fcidump_text(4, 4, 6)
    assert a != c
    assert len(a.splitlines()) == len(c.splitlines())
    assert serialize_fcidump(parse_fcidump(a)) == a


# ------------------------------------------------------- BENCHMARK.json

def _names(declared, kind):
    return [m["name"] for m in declared[kind]]


def test_metric_names_are_well_formed_and_unique(declared):
    names = _names(declared, "end_to_end") + _names(declared, "per_layer")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_reported_metrics_are_exactly_the_declared_ones(declared):
    rec = spans.Recorder()
    plain = [run.OpResult(1.0, [], {}, 0.001)]
    traced = [run.OpResult(
        1.1, [], {"accuracy.energy_err_mha": 2.0, "cli.qsci.wall_s": 1.0}
    )]
    values = run.layer_metrics(rec, plain, traced, [0.5], 1)
    assert sorted(values) == sorted(_names(declared, "per_layer"))
    assert values["trace.overhead_ratio"] == pytest.approx(0.1)
    metrics = run.emit(declared["per_layer"], values)
    assert list(metrics) == _names(declared, "per_layer")
    with pytest.raises(RuntimeError):
        run.emit(declared["per_layer"], {**values, "undeclared": 1.0})
    e2e = {"setup_s": 1.0, "op_p50_s": 1.0, "peak_rss_mb": 1.0, "ops_ok_ratio": 1.0}
    assert list(run.emit(declared["end_to_end"], e2e)) == list(e2e)


def test_accuracy_does_not_depend_on_how_many_ops_ran():
    per_op = [
        {"accuracy.energy_err_mha": 1.0, "accuracy.pt2_err_mha": 4.0},
        {"accuracy.energy_err_mha": 2.0, "accuracy.pt2_err_mha": 5.0},
        {"accuracy.energy_err_mha": 3.0, "accuracy.pt2_err_mha": 6.0},
        {"accuracy.energy_err_mha": 100.0, "accuracy.pt2_err_mha": 100.0},
        {"accuracy.energy_err_mha": -7.0, "accuracy.pt2_err_mha": 0.0},
    ]
    three = run.accuracy_means(per_op[:3], 3)
    assert three == run.accuracy_means(per_op, 3)
    assert three == {"accuracy.energy_err_mha": 2.0, "accuracy.pt2_err_mha": 5.0}
    rec = spans.Recorder()
    short = [run.OpResult(1.0, [], v, 0.001) for v in per_op[:3]]
    long = [run.OpResult(1.0, [], v, 0.001) for v in per_op]
    assert (run.layer_metrics(rec, short, short, [], 3)["accuracy.energy_err_mha"]
            == run.layer_metrics(rec, long, long, [], 3)["accuracy.energy_err_mha"])
    with pytest.raises(ValueError):
        run.accuracy_means(per_op[:2], 3)


def test_refine_accuracy_covers_one_rotation_of_starts():
    assert workloads.RefineDense8.accuracy_ops == workloads.RefineDense8.n_starts


def test_check_values_are_declared_per_layer_metrics(declared):
    per_layer = set(_names(declared, "per_layer"))
    for sub in workloads.CLI_SUBCOMMANDS:
        assert {f"cli.{sub}.wall_s", f"cli.{sub}.stage_s"} <= per_layer
    assert {"accuracy.energy_err_mha", "accuracy.pt2_err_mha"} <= per_layer


def test_every_workload_has_a_one_line_why(declared):
    whys = {w["name"]: w["why"] for w in declared["workloads"]}
    assert sorted(whys) == sorted(workloads.WORKLOADS)
    for why in whys.values():
        assert why.strip() and "\n" not in why and len(why) <= 200


def test_command_and_paths_stay_inside_the_benchmark(declared):
    root = os.path.dirname(run.BENCH_DIR)
    assert declared["paths"] == [os.path.relpath(run.BENCH_DIR, root)]
    assert declared["command"][1].startswith(declared["paths"][0] + "/")
    assert json.dumps(declared)  # serializable as written


def test_percentile_needs_ten_ops_beyond_it():
    assert run.percentile_info([1.0] * 19) is None
    q, _ = run.percentile_info([float(i) for i in range(20)])
    assert q == 50
    q, value = run.percentile_info([float(i) for i in range(100)])
    assert (q, value) == (90, 89.0)


# ------------------------------------------------------------ speed gauge

class _Sleeper:
    accuracy_ops = 1

    def op(self, i, seed):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return seed

    def check(self, output):
        return [], {"seed": output}


def test_gauge_samples_during_the_op_and_leaves_sigalrm_as_it_was():
    before = signal.getsignal(signal.SIGALRM)
    r = run.timed_op(_Sleeper(), 0, 7, reference.SpeedGauge())
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert r.values == {"seed": 7} and not r.errors
    # wall time less the samples' own time, rescaled by their mean
    assert 0.1 < r.seconds < 0.2
    assert r.nominal_s == pytest.approx(
        r.seconds * reference.NOMINAL_S / r.ref_s
    )


def test_gauge_takes_one_sample_after_a_short_op():
    with reference.SpeedGauge() as gauge:
        pass
    assert len(gauge.samples) == 1 and gauge.spent == 0.0
    assert gauge.mean == gauge.samples[0] > 0


def test_nominal_time_rescales_wall_time_less_the_samples():
    with reference.SpeedGauge(in_process=False) as gauge:
        gauge.add([2 * reference.NOMINAL_S] * 10)
    # 1 s of wall time held the samples, taken at half nominal speed
    spent = 10 * 2 * reference.NOMINAL_S
    assert gauge.nominal(1.0) == pytest.approx((1.0 - spent) / 2)


def test_gauge_of_child_processes_holds_only_their_samples():
    with reference.SpeedGauge(in_process=False) as gauge:
        time.sleep(0.1)
        gauge.add([0.001, 0.003])
    assert gauge.samples == [0.001, 0.003]
    assert gauge.spent == pytest.approx(0.004)
    assert gauge.mean == pytest.approx(0.002)
