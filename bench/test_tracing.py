"""Tests of the benchmark's span arithmetic and of graphdrs call wrapping."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
from graphdrs import cli, operators, simulate, solver  # noqa: E402
from graphdrs.factorization import incidence_decomposition  # noqa: E402
from graphdrs.operators import prox_translated_quadratic  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "time", fake)
    return fake


def test_self_times_subtract_direct_children_only():
    # 0 contains 1 and 3; 1 contains 2
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 6.0, 2.0, 3.0])
    assert tracing.self_times(parent, duration).tolist() == [1.0, 4.0, 2.0, 3.0]


def test_nested_spans_record_parents_and_self_time(clock):
    tracer = tracing.Tracer()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0
        wrapped_inner()

    wrapped_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    sp = tracer.spans()
    assert sp["parent"].tolist() == [-1, 0, 0]
    assert (sp["end"] - sp["start"]).tolist() == [8.0, 2.0, 2.0]
    summary = tracing.summarize(tracer)
    assert summary["outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_spans_carry_run_ids_and_counters(clock):
    tracer = tracing.Tracer()
    step = tracer.wrap(lambda n: None, "step", count=lambda args, result: {"n": args[0]})
    for run in (0, 1, 1):
        tracer.run_id = run
        step(run + 1)
    assert tracer.spans()["run"].tolist() == [0, 1, 1]
    assert tracing.summarize(tracer)["step"]["calls"] == 3
    assert tracing.counter_totals(tracer) == {"step": {"n": 5}}


def test_span_closes_when_the_call_raises(clock):
    tracer = tracing.Tracer()

    def boom():
        clock.now += 1.0
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    after = tracer.wrap(lambda: None, "after")
    after()
    sp = tracer.spans()
    assert sp["parent"].tolist() == [-1, -1]
    assert (sp["end"] - sp["start"]).tolist() == [1.0, 0.0]


def _snapshot():
    mods = [sys.modules[name] for name in layers.MODULES]
    attrs = {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}
    attrs[("Resolvent", "__call__")] = operators.Resolvent.__dict__["__call__"]
    attrs[("NetworkSim", "run")] = simulate.NetworkSim.__dict__["run"]
    return attrs


def test_install_wraps_every_alias_and_restore_undoes_it():
    before = _snapshot()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        # names bound by importing modules are wrapped too
        assert simulate.node_solution is solver.node_solution
        assert simulate.node_solution is not before[("graphdrs.solver", "node_solution")]
        assert cli.run is solver.run
        assert cli.main.__wrapped__ is before[("graphdrs.cli", "main")]
        assert operators.Resolvent.__call__ is not before[("Resolvent", "__call__")]
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _chain3():
    from graphdrs import make_malitsky_tam

    bg = make_malitsky_tam(3)  # state (0,1),(1,2),(0,2); tree base (0,1),(1,2)
    centers = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([-1.0, 1.0])]
    return bg, [prox_translated_quadratic(c) for c in centers]


def test_counts_per_sweep_from_a_traced_solve():
    bg, ops = _chain3()
    cfg = solver.SolverConfig(sigma=1.0, max_iter=7)
    decomp = incidence_decomposition(bg.base)
    plain_state, _ = solver.run(bg, decomp, ops, cfg)
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        tracer.run_id = 1
        state, _ = tracer.call(layers.PASS_SPAN, solver.run, bg, decomp, ops, cfg)
        sim = simulate.run_tree_protocol(bg, ops, cfg, rounds=5)
    finally:
        tracer.restore()
    # tracing changes no bit of the iterates
    assert np.array_equal(state.x, plain_state.x)
    assert np.array_equal(state.w, plain_state.w)
    summary = tracing.summarize(tracer)
    assert summary["solver.run"]["calls"] == 1
    assert summary["solver.step"]["calls"] == 7
    assert summary["operators.translated_quadratic"]["calls"] == 3 * (7 + 5)
    counters = tracing.counter_totals(tracer)
    assert counters[layers.SIM_RUN] == {
        "rounds": 5,
        "messages": 5 * (3 + 2) + 2,
        "payload_bytes": (5 * (3 + 2) + 2) * 16,
    }
    out = layers.metrics(summary, counters, iters_to_tol=7, overhead_s=0.0,
                         traced_solve_s=summary[layers.PASS_SPAN]["total_s"])
    sweeps = 7 + 5
    assert out["solver.node_solution.calls_per_sweep"] == 3.0
    assert out["operators.calls_per_sweep"] == 3.0
    assert out["simulate.messages_per_round"] == (5 * 5 + 2) / 5
    assert out["simulate.log_mb"] == (5 * 5 + 2) * 16 / 1e6
    assert out["solver.node_solution.self_us_per_sweep"] == pytest.approx(
        1e6 * summary["solver.node_solution"]["self_s"] / sweeps
    )
    assert set(out) == set(layers.UNITS)
    assert len(sim.x_history) == 5


def test_benchmark_json_lists_every_reported_metric():
    import json

    import run
    import workloads

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
